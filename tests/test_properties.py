"""Randomized invariants over the census: canonicalization, quotients, I/O,
and the faithful-couple multiplicity solver."""

from itertools import product

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sphsys import colors, localize_sigma, make_system, validate
from sphsys.closure import _face, _plan, _solve, gamma_group, omega_of
from sphsys.enumeration import census
from sphsys.quotient import _minimal, _ray_supports, is_distinguished, quotient
from sphsys.serialize import emit_system, parse_system

from conftest import gamma_orbit, multiplicities_with_weight

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
    for other in gamma_orbit(g, counts):
        assert omega_of(sys, other) == omega_of(sys, counts)


@settings(max_examples=25, deadline=None)
@given(census_member())
def test_quotient_by_kernel_of_everything(sys):
    n = len(colors(sys).colors)
    full = tuple(range(n))
    q = quotient(sys, full)
    assert q.sigma == ()
    assert validate(q) == []


@st.composite
def color_rows(draw):
    width = draw(st.integers(0, 4))
    return draw(st.lists(st.tuples(*[st.integers(-2, 2)] * width), max_size=7)), width


@settings(max_examples=300, deadline=None)
@given(color_rows())
@example(([], 0))  # no colors
@example(([(), (), ()], 0))  # width 0: every row is projective
@example(([(1, 0, 2), (0, 0, 0), (2, 1, 1)], 3))  # every row projective
@example(([(-1, 1), (1, -1), (-2, 1), (1, -2)], 2))  # none projective
@example(([(1, 0), (-1, 1), (0, 2), (2, -1), (1, -1)], 2))
def test_minimal_supports_are_projective_singletons_and_the_face(case):
    # a nonnegative row is alone a minimal ray support; the others are the
    # minimal ray supports of the cone of the other rows, the face on which
    # the nonnegative rows vanish
    rows, width = case
    projective = [i for i, r in enumerate(rows) if min(r, default=0) >= 0]
    others = [i for i in range(len(rows)) if i not in projective]
    face = _face(tuple(rows[i] for i in others), others)
    assert all(m.bit_count() >= 2 for m in face)
    assert [1 << i for i in projective] + list(face) == \
        _minimal(_ray_supports(tuple(rows), width).supports)


def _brute_force_multiplicities(weights, target):
    bound = max(target, default=0)
    dense = [[dict(w).get(j, 0) for j in range(len(target))] for w in weights]
    return [m for m in product(range(bound + 1), repeat=len(weights))
            if all(sum(mi * w[j] for mi, w in zip(m, dense)) == t
                   for j, t in enumerate(target))]


@st.composite
def sparse_weights(draw):
    # up to rank 4 and 5 colors: a color with three owners, and two colors
    # with one lowest owner that reach later ones; brute force stays at most
    # 5^5 vectors
    dim = draw(st.integers(1, 4))
    k = draw(st.integers(1, 5))
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
    assert multiplicities_with_weight(weights, target) == \
        _brute_force_multiplicities(weights, target)


@settings(max_examples=100, deadline=None)
@given(sparse_weights(), st.data())
def test_one_plan_solves_targets_in_turn(case, data):
    # the plan is shared by every solve of its weights, so a solve must leave
    # it as it found it; so must the compositions table within one call
    weights, target = case
    plan = _plan(tuple(weights), len(target))
    compositions = {}
    targets = [target] + data.draw(st.lists(
        st.lists(st.integers(0, 4), min_size=len(target), max_size=len(target)),
        min_size=1, max_size=4))
    for t in targets:
        assert [m for m, _ in _solve(plan, t, compositions)] == \
            _brute_force_multiplicities(weights, t)


@settings(max_examples=200, deadline=None)
@given(sparse_weights(), st.data())
def test_usable_mask_bounds_every_solution(case, data):
    # the usable colors of a target are those of nonzero weight with
    # w_j <= target_j at every j; no solution uses another color
    weights, target = case
    for at in data.draw(st.lists(st.integers(0, len(weights)), max_size=2)):
        weights.insert(at, ())  # a color of weight zero
    plan = _plan(tuple(weights), len(target))
    usable = plan.usable(target)
    assert usable == sum(1 << i for i, w in enumerate(weights)
                         if w and all(wj <= target[j] for j, wj in w))
    for counts, supp in _solve(plan, target, {}):
        assert supp == sum(1 << i for i, m in enumerate(counts) if m)
        assert supp & ~usable == 0


def test_multiplicity_solver_edge_targets():
    weights = [((0, 1),), ((0, 2), (1, 1)), ((1, 3),)]
    # coordinate 2 is reached by no color
    assert multiplicities_with_weight(weights, (1, 1, 1)) == []
    assert _brute_force_multiplicities(weights, (1, 1, 1)) == []
    assert multiplicities_with_weight(weights, (0, 0, 0)) == [(0, 0, 0)]
    assert multiplicities_with_weight(weights, (4, 3, 0)) == \
        _brute_force_multiplicities(weights, (4, 3, 0))
    # no color owns coordinate 1 first, so color 0, owned first by 0, alone
    # closes it; no color reaches coordinate 2
    weights = [((0, 1), (1, 2)), ((0, 1),)]
    for target, want in [((3, 2, 0), [(1, 2)]), ((3, 3, 0), []), ((3, 2, 1), []),
                         ((0, 0, 0), [(0, 0)]), ((0, 0, 2), [])]:
        assert multiplicities_with_weight(weights, target) == want
        assert _brute_force_multiplicities(weights, target) == want
    # colors 0 and 1 are both owned first by 0, and each reaches another
    # later coordinate: their split of target_0 is taken from both
    weights = [((0, 1), (1, 1)), ((0, 1), (2, 2)), ((1, 1),)]
    for target, want in [((2, 3, 2), [(1, 1, 2)]), ((2, 3, 0), [(2, 0, 1)]),
                         ((2, 0, 2), []), ((1, 0, 2), [(0, 1, 0)]), ((2, 1, 1), [])]:
        assert multiplicities_with_weight(weights, target) == want
        assert _brute_force_multiplicities(weights, target) == want
    # no color owns coordinate 2 first, but colors 0 and 1 reach it: it must
    # be left at 0 once both are fixed
    weights = [((0, 1), (2, 1)), ((1, 1), (2, 1)), ((0, 1),)]
    for target, want in [((2, 1, 2), [(1, 1, 1)]), ((2, 1, 1), [(0, 1, 2)]),
                         ((2, 1, 0), []), ((2, 0, 3), []), ((3, 0, 2), [(2, 0, 1)])]:
        assert multiplicities_with_weight(weights, target) == want
        assert _brute_force_multiplicities(weights, target) == want
