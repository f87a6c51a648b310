"""Randomized invariants over the census: canonicalization, quotients, I/O."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sphsys import colors, localize_sigma, make_system, validate
from sphsys.closure import gamma_group, omega_of
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
