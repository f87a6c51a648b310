"""Loose roots, spherical closure, color swaps and faithful couples."""

from itertools import combinations, product

import pytest

from sphsys import build_root_system, colors, dual_weight, make_system, validate
from sphsys.closure import (
    FaithfulCouple,
    faithful_couples,
    gamma_group,
    is_faithful,
    is_spherically_closed,
    is_strict,
    loose_roots,
    omega_of,
    omega_of_color,
)
from sphsys.enumeration import census
from sphsys.quotient import is_distinguished


@pytest.fixture(scope="module")
def b4_doubled():
    rs = build_root_system("B4")
    return make_system(rs, [(2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 2)], [3], [])


@pytest.fixture(scope="module")
def a1_pair():
    rs = build_root_system("A1")
    return make_system(rs, [(1,)], [], [(1,), (1,)])


def test_doubled_system_has_no_loose_roots(b4_doubled):
    assert loose_roots(b4_doubled) == []
    assert is_spherically_closed(b4_doubled)
    assert is_strict(b4_doubled)


def test_equal_color_pair_is_loose(a1_pair):
    assert [s.coeffs for s in loose_roots(a1_pair)] == [(1,)]
    assert is_spherically_closed(a1_pair)
    assert not is_strict(a1_pair)
    assert gamma_group(a1_pair).order() == 2


def test_nonsimple_loose_root_breaks_closure(f4):
    sys = make_system(f4, [(0, 1, 1, 0)], [2], [])
    assert validate(sys) == []
    assert [s.coeffs for s in loose_roots(sys)] == [(0, 1, 1, 0)]
    assert not is_spherically_closed(sys)


def test_census_non_closed_systems(f4_census):
    non_closed = [s for s in f4_census.systems if not is_spherically_closed(s)]
    assert len(non_closed) == 3
    assert sorted(
        (tuple(x.coeffs for x in s.sigma), tuple(sorted(s.sp))) for s in non_closed
    ) == sorted([
        (((0, 1, 1, 0),), (2,)),
        (((1, 0, 0, 0), (0, 1, 1, 0)), (2,)),
        (((1, 1, 1, 0),), (1, 2)),
    ])


def test_gamma_group_trivial_without_equal_pairs():
    rs = build_root_system("A3")
    sl4 = make_system(
        rs,
        [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
        [],
        [(1, -1, 1), (1, 0, -1), (0, 1, 0), (-1, 1, -1), (-1, 0, 1)],
    )
    assert gamma_group(sl4).order() == 1


def test_omega_of_color_kinds(f4):
    sys = make_system(f4, [(2, 2, 2, 0)], [1, 2], [])
    cs = colors(sys).colors
    by_owner = {c.owners: i for i, c in enumerate(cs)}
    assert omega_of_color(sys, by_owner[(0,)]) == (1, 0, 0, 0)
    assert omega_of_color(sys, by_owner[(3,)]) == (0, 0, 0, 1)


def test_omega_of_doubled_color(f4):
    sys = make_system(f4, [(0, 0, 0, 2)], [0, 1], [])
    cs = colors(sys).colors
    idx = [i for i, c in enumerate(cs) if c.kind == "2a"]
    assert len(idx) == 1
    assert omega_of_color(sys, idx[0]) == (0, 0, 0, 2)


def test_omega_of_is_gamma_invariant(a1_pair):
    g = gamma_group(a1_pair)
    for counts in [(1, 0), (2, 1), (3, 5)]:
        for other in g.orbit(counts):
            assert omega_of(a1_pair, other) == omega_of(a1_pair, counts)


def test_adjoint_weight_couples_count(a3_census):
    rs = build_root_system("A3")
    couples = faithful_couples(a3_census.systems, rs, (1, 0, 1))
    assert len(couples) == 5
    for couple, _ in couples:
        assert is_faithful(couple.system, couple.counts)
        assert omega_of(couple.system, couple.counts) == (1, 0, 1)


def test_faithful_couple_doubled_root_example(f4, a3_census):
    sys = make_system(f4, [(2, 2, 2, 0)], [1, 2], [])
    cs = colors(sys).colors
    by_owner = {c.owners: i for i, c in enumerate(cs)}
    counts = [0] * len(cs)
    counts[by_owner[(0,)]] = 1
    assert is_faithful(sys, tuple(counts))


def test_is_faithful_rejects_a_wrong_number_of_counts(f4, a1_pair):
    closed = make_system(f4, [(2, 2, 2, 0)], [1, 2], [])
    not_closed = make_system(f4, [(0, 1, 1, 0)], [2], [])
    for sys in (a1_pair, closed, not_closed):
        k = len(colors(sys))
        for n in (0, k - 1, k + 1):
            with pytest.raises(ValueError):
                is_faithful(sys, (1,) * n)


# Frozen copy of the faithful-couple search before each system got a cached
# profile: every subset of the colors outside the support is tested with
# `is_distinguished`, and multiplicities come from an unpruned search over
# dense weights. The current search must return the same couples, orbit ids
# and order.

def _reference_is_faithful(sys, counts):
    if not is_spherically_closed(sys):
        return False
    counts = tuple(counts)
    supp = {i for i, m in enumerate(counts) if m}
    outside = [i for i in range(len(colors(sys).colors)) if i not in supp]
    for size in range(1, len(outside) + 1):
        for members in combinations(outside, size):
            if is_distinguished(sys, members) is not None:
                return False
    for i, j in gamma_group(sys).swaps:
        if counts[i] == counts[j]:
            return False
    return True


def _reference_multiplicities(sys, target):
    weights = [omega_of_color(sys, i) for i in range(len(colors(sys).colors))]
    sols = []

    def rec(idx, acc, rem):
        if idx == len(weights):
            if all(v == 0 for v in rem):
                sols.append(tuple(acc))
            return
        w = weights[idx]
        mmax = min((r // wi for r, wi in zip(rem, w) if wi > 0), default=0)
        for m in range(mmax + 1):
            rec(idx + 1, acc + [m], [r - m * wi for r, wi in zip(rem, w)])

    rec(0, [], list(target))
    return sols


def _reference_faithful_couples(systems, rs, pi_coords):
    target = dual_weight(rs, pi_coords)
    out = []
    orbit_id = 0
    for sys in systems:
        if not is_spherically_closed(sys):
            continue
        gamma = gamma_group(sys)
        seen = set()
        for counts in _reference_multiplicities(sys, target):
            if counts in seen:
                continue
            orbit = gamma.orbit(counts)
            seen |= orbit
            if _reference_is_faithful(sys, counts):
                out.append((FaithfulCouple(system=sys, counts=min(orbit)), orbit_id))
                orbit_id += 1
    return out


def _assert_couples_match_reference(spec, values):
    report = census(spec)
    for weight in product(values, repeat=report.rs.rank):
        got = faithful_couples(report.systems, report.rs, weight)
        want = _reference_faithful_couples(report.systems, report.rs, weight)
        assert [(c.system.key(), c.counts, o) for c, o in got] == \
            [(c.system.key(), c.counts, o) for c, o in want], (spec, weight)


@pytest.mark.parametrize("spec", ["A3", "B3", "C3", "G2", "A2xA1"])
def test_faithful_couples_match_reference(spec):
    _assert_couples_match_reference(spec, range(3))


def test_faithful_couples_match_reference_f4_binary():
    _assert_couples_match_reference("F4", range(2))


@pytest.mark.slow
def test_faithful_couples_match_reference_f4():
    _assert_couples_match_reference("F4", range(3))
