"""Randomized invariants over the census: canonicalization, quotients, I/O,
and the faithful-couple multiplicity solver."""

from itertools import product

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sphsys import colors, localize_sigma, make_system, validate
from sphsys.closure import _multiplicities_with_weight, gamma_group, omega_of
from sphsys.enumeration import census
from sphsys.quotient import is_distinguished, quotient
from sphsys.serialize import emit_system, parse_system

SYSTEMS = census("F4").systems


@st.composite
def census_member(draw):
    return draw(st.sampled_from(SYSTEMS))


@settings(max_examples=60, deadline=None)
@given(census_member(), st.randoms())
def test_presentation_invariance(sys, rnd):
    order = list(range(len(sys.sigma)))
    rnd.shuffle(order)
    sigma = [sys.sigma[i].coeffs for i in order]
    rows = [tuple(r[i] for i in order) for r in sys.a_rows]
    rnd.shuffle(rows)
    assert make_system(sys.rs, sigma, sys.sp, rows) == sys


@settings(max_examples=60, deadline=None)
@given(census_member())
def test_round_trip(sys):
    assert parse_system(emit_system(sys)) == sys


@settings(max_examples=40, deadline=None)
@given(census_member(), st.data())
def test_distinguished_witness_certifies(sys, data):
    n = len(colors(sys).colors)
    assume(n > 0)  # (empty, {all of S}, empty) has no color to draw
    members = data.draw(
        st.lists(st.integers(0, n - 1), max_size=4, unique=True)
    )
    w = is_distinguished(sys, members)
    if w is not None and members:
        rows = [colors(sys).colors[m].row for m in sorted(set(members))]
        assert all(x > 0 for x in w)
        for j in range(len(sys.sigma)):
            assert sum(x * r[j] for x, r in zip(w, rows)) >= 0


@settings(max_examples=40, deadline=None)
@given(census_member(), st.data())
def test_small_integer_witness_implies_distinguished(sys, data):
    # one direction of the exact test, certified by an explicit vector
    n = len(colors(sys).colors)
    assume(n > 0)  # (empty, {all of S}, empty) has no color to draw
    members = data.draw(
        st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True)
    )
    members = sorted(set(members))
    x = data.draw(
        st.lists(
            st.integers(1, 4), min_size=len(members), max_size=len(members)
        )
    )
    rows = [colors(sys).colors[m].row for m in members]
    holds = all(
        sum(xi * r[j] for xi, r in zip(x, rows)) >= 0
        for j in range(len(sys.sigma))
    )
    if holds:
        assert is_distinguished(sys, members) is not None


@settings(max_examples=30, deadline=None)
@given(census_member(), st.data())
def test_localization_validity(sys, data):
    keep = data.draw(
        st.lists(
            st.integers(0, max(0, len(sys.sigma) - 1)),
            max_size=len(sys.sigma),
            unique=True,
        )
    )
    sub = [sys.sigma[i].coeffs for i in keep if i < len(sys.sigma)]
    assert validate(localize_sigma(sys, sub)) == []


@settings(max_examples=30, deadline=None)
@given(census_member(), st.data())
def test_omega_gamma_invariance(sys, data):
    n = len(colors(sys).colors)
    counts = tuple(
        data.draw(st.integers(0, 3), label=f"count{i}") for i in range(n)
    )
    g = gamma_group(sys)
    for other in g.orbit(counts):
        assert omega_of(sys, other) == omega_of(sys, counts)


@settings(max_examples=25, deadline=None)
@given(census_member())
def test_quotient_by_kernel_of_everything(sys):
    n = len(colors(sys).colors)
    full = tuple(range(n))
    q = quotient(sys, full)
    assert q.sigma == ()
    assert validate(q) == []


def _brute_force_multiplicities(weights, target):
    bound = max(target, default=0)
    dense = [[dict(w).get(j, 0) for j in range(len(target))] for w in weights]
    return [m for m in product(range(bound + 1), repeat=len(weights))
            if all(sum(mi * w[j] for mi, w in zip(m, dense)) == t
                   for j, t in enumerate(target))]


@st.composite
def sparse_weights(draw):
    dim = draw(st.integers(1, 3))
    k = draw(st.integers(1, 4))
    weights = []
    for _ in range(k):
        coords = draw(st.lists(st.integers(0, dim - 1), min_size=1, max_size=dim,
                               unique=True))
        weights.append(tuple((j, draw(st.integers(1, 3))) for j in sorted(coords)))
    target = draw(st.lists(st.integers(0, 4), min_size=dim, max_size=dim))
    return weights, target


@settings(max_examples=200, deadline=None)
@given(sparse_weights())
def test_multiplicity_solver_matches_brute_force(case):
    weights, target = case
    assert _multiplicities_with_weight(weights, target) == \
        _brute_force_multiplicities(weights, target)


def test_multiplicity_solver_edge_targets():
    weights = [((0, 1),), ((0, 2), (1, 1)), ((1, 3),)]
    # coordinate 2 is reached by no color
    assert _multiplicities_with_weight(weights, (1, 1, 1)) == []
    assert _brute_force_multiplicities(weights, (1, 1, 1)) == []
    assert _multiplicities_with_weight(weights, (0, 0, 0)) == [(0, 0, 0)]
    assert _multiplicities_with_weight(weights, (4, 3, 0)) == \
        _brute_force_multiplicities(weights, (4, 3, 0))
