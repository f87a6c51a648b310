"""Loose roots, spherical closure, color swaps and faithful couples."""

import hashlib
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from importlib import import_module
from itertools import combinations, product

import pytest

from sphsys import build_root_system, colors, dual_weight, emit_system, make_system, validate
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
from sphsys.quotient import enumerate_distinguished, is_distinguished
from sphsys.system import _relabel

from conftest import gamma_orbit, minimal_supports, multiplicities_with_weight


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


def test_profile_finds_the_loose_roots_once(f4_census, monkeypatch):
    # closure and the swap group are both read off one list of loose roots
    module = import_module("sphsys.closure")
    find = module.loose_roots
    calls = []

    def counting(sys):
        calls.append(sys)
        return find(sys)

    monkeypatch.setattr(module, "loose_roots", counting)
    for sys in f4_census.systems + census("D4").systems:
        calls.clear()
        # the uncached profile, so that every system is built afresh
        profile = module._profile.__wrapped__(sys)
        assert calls == [sys]
        if profile is not None:
            assert profile.gamma == gamma_group(sys)


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


def test_color_index_is_checked(f4):
    sys = make_system(f4, [(0, 0, 0, 2)], [0, 1], [])
    k = len(colors(sys))
    for idx in (-1, k):  # -1 would wrap to the last color
        with pytest.raises(ValueError, match=rf"color index {idx} outside 0\.\.{k - 1}"):
            omega_of_color(sys, idx)


def test_omega_of_is_gamma_invariant(a1_pair):
    g = gamma_group(a1_pair)
    for counts in [(1, 0), (2, 1), (3, 5)]:
        for other in gamma_orbit(g, counts):
            assert omega_of(a1_pair, other) == omega_of(a1_pair, counts)


@pytest.mark.parametrize("weight", [(1,), (1, 0, 0, 0, 0)])
def test_weight_of_wrong_length_is_rejected(f4, f4_census, weight):
    with pytest.raises(ValueError):
        dual_weight(f4, weight)
    with pytest.raises(ValueError):
        faithful_couples(f4_census.systems, f4, weight)


def test_counts_of_wrong_length_are_rejected(a1_pair):
    k = len(colors(a1_pair))
    for counts in ((1,) * (k - 1), (1,) * (k + 1)):
        with pytest.raises(ValueError):
            omega_of(a1_pair, counts)


def test_negative_or_non_integer_counts_are_rejected(f4, a1_pair):
    closed = make_system(f4, [(2, 2, 2, 0)], [1, 2], [])
    not_closed = make_system(f4, [(0, 1, 1, 0)], [2], [])
    for sys in (a1_pair, closed, not_closed):
        k = len(colors(sys))
        for bad in ((-1,) * k, (1,) * (k - 1) + (-2,), (Fraction(1, 2),) * k, (1.0,) * k):
            with pytest.raises(ValueError):
                is_faithful(sys, bad)
            with pytest.raises(ValueError):
                omega_of(sys, bad)


@pytest.mark.parametrize("weight", [(-1, 0, 0, 0), (0, 1, -1, 1), (Fraction(1, 2), 0, 0, 0)])
def test_weight_that_is_not_dominant_is_rejected(f4, f4_census, weight):
    with pytest.raises(ValueError, match="not a dominant weight"):
        faithful_couples(f4_census.systems, f4, weight)


def test_multiplicities_leave_a_color_of_weight_zero_at_zero():
    # no color of a system has weight zero, but the solver takes such weights
    assert multiplicities_with_weight([((0, 1),), (), ((0, 1),)], (2,)) == \
        [(0, 0, 2), (1, 0, 1), (2, 0, 0)]
    assert multiplicities_with_weight([(), ((0, 2), (1, 1)), ((1, 1),), ()], (2, 3)) == \
        [(0, 1, 2, 0)]
    assert multiplicities_with_weight([()], (1,)) == []


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
            orbit = gamma_orbit(gamma, counts)
            seen |= orbit
            if _reference_is_faithful(sys, counts):
                out.append((FaithfulCouple(system=sys, counts=min(orbit)), orbit_id))
                orbit_id += 1
    return out


@pytest.mark.parametrize("spec, values", [("A3", range(3)), ("F4", range(2))])
def test_is_faithful_matches_reference(spec, values):
    # every multiplicity with entries in values, faithful or not, of every
    # member: closed or not, with and without projective colors
    for sys in census(spec).systems:
        for counts in product(values, repeat=len(colors(sys))):
            assert is_faithful(sys, counts) == _reference_is_faithful(sys, counts), \
                (emit_system(sys), counts)


def _couple_ids(couples):
    return [(c.system.key(), c.counts, o) for c, o in couples]


def _assert_systems_match_reference(systems, rs, values):
    for weight in product(values, repeat=rs.rank):
        got = faithful_couples(systems, rs, weight)
        want = _reference_faithful_couples(systems, rs, weight)
        assert _couple_ids(got) == _couple_ids(want), (rs.name, weight)


def _assert_couples_match_reference(spec, values):
    report = census(spec)
    _assert_systems_match_reference(report.systems, report.rs, values)


@pytest.mark.parametrize("spec", ["A3", "B3", "C3", "G2", "A2xA1"])
def test_faithful_couples_match_reference(spec):
    _assert_couples_match_reference(spec, range(3))


def test_faithful_couples_match_reference_f4_binary():
    _assert_couples_match_reference("F4", range(2))


@pytest.mark.slow
def test_faithful_couples_match_reference_f4():
    _assert_couples_match_reference("F4", range(3))


def test_faithful_couples_digest(f4_census, a3_census):
    # every weight in {0,1,2}^n minus 0 over F4 and A3, one line per couple
    # as `bench/workloads.py` prints it (type, weight, orbit id, counts,
    # system), sorted and joined by newlines; the F4 weights are those that
    # the reference check compares only under `slow`
    lines = []
    for report in (f4_census, a3_census):
        rs = report.rs
        for w in product(range(3), repeat=rs.rank):
            if any(w):
                lines += [f"{rs.name} {list(w)} {orbit} {list(c.counts)} "
                          f"{emit_system(c.system).strip()}"
                          for c, orbit in faithful_couples(report.systems, rs, w)]
    assert len(lines) == 11572
    assert hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest() == \
        "f8d48a96012df33c2eabef08df9c208c39a1b0c95bf094a3161df2a7b1373ff1"


# Within one call, systems with the same color weights share the solved
# multiplicities. The cases below would break if the sharing were keyed on
# the weight alone or carried one system's faithfulness over to another.

@pytest.mark.parametrize("spec, values", [("A3", range(3)), ("F4", range(2))],
                         ids=["A3", "F4"])
def test_faithful_couples_match_reference_reversed(spec, values):
    report = census(spec)
    _assert_systems_match_reference(report.systems[::-1], report.rs, values)


def test_faithful_couples_keep_a_repeated_system(f4_census):
    rs, weight = f4_census.rs, (1, 1, 1, 1)
    systems = list(f4_census.systems)
    first = next(c.system for c, _ in faithful_couples(systems, rs, weight)
                 if gamma_group(c.system).swaps)
    at = systems.index(first)
    repeated = systems[:at + 1] + [first] + systems[at + 1:]
    got = faithful_couples(repeated, rs, weight)
    assert _couple_ids(got) == _couple_ids(_reference_faithful_couples(repeated, rs, weight))
    mine = [(c.counts, o) for c, o in got if c.system == first]
    half = len(mine) // 2
    assert half and [m for m, _ in mine[:half]] == [m for m, _ in mine[half:]]
    assert [o for _, o in mine] == list(range(mine[0][1], mine[0][1] + 2 * half))


def _color_weights(sys):
    return tuple(omega_of_color(sys, i) for i in range(len(colors(sys))))


def _minimal_subsets(sys):
    return tuple(d.members for d in enumerate_distinguished(sys) if d.minimal)


@pytest.mark.parametrize("differ", ["minimal", "swaps"])
def test_faithful_couples_of_systems_sharing_color_weights(f4_census, differ):
    rs = f4_census.rs
    weights = list(product(range(3), repeat=rs.rank))
    closed = [s for s in f4_census.systems if is_spherically_closed(s)]

    def profiles_differ(a, b):
        if differ == "minimal":
            return _minimal_subsets(a) != _minimal_subsets(b)
        return gamma_group(a).swaps != gamma_group(b).swaps

    # the first such pair where both systems have couples, and not the same
    # ones, at some weight
    for a, b in combinations(closed, 2):
        if _color_weights(a) != _color_weights(b) or not profiles_differ(a, b):
            continue
        want = {w: _reference_faithful_couples([a, b], rs, w) for w in weights}
        found = [{(w, c.counts) for w, cs in want.items() for c, _ in cs if c.system == s}
                 for s in (a, b)]
        if all(found) and found[0] != found[1]:
            break
    else:
        pytest.fail(f"no pair of F4 systems shares color weights and differs in {differ}")
    for w in weights:
        assert _couple_ids(faithful_couples([a, b], rs, w)) == _couple_ids(want[w]), w
        assert _couple_ids(faithful_couples([b, a], rs, w)) == \
            _couple_ids(_reference_faithful_couples([b, a], rs, w)), w


def _usable_colors(sys, target):
    """The colors of nonzero weight with w_j <= target_j at every j, as a
    bitmask: the only colors a multiplicity of weight target can use."""
    weights = _color_weights(sys)
    return sum(1 << i for i, w in enumerate(weights)
               if any(w) and all(x <= t for x, t in zip(w, target)))


def test_faithful_couples_solve_once_per_plan(f4_census, a3_census, monkeypatch):
    # systems with the same split of their colors share one plan for the
    # life of the process, and one call solves each plan at most once: only
    # the plans with a system whose usable colors meet every minimal
    # distinguished subset
    module = import_module("sphsys.closure")
    solve = module._solve
    calls = []

    def counting(plan, target, compositions):
        calls.append(plan)
        return solve(plan, target, compositions)

    monkeypatch.setattr(module, "_solve", counting)
    plans = {}
    for report, closed, distinct in ((f4_census, 263, 137), (a3_census, 50, 39)):
        profiles = [module._profile(s) for s in report.systems]
        profiles = [p for p in profiles if p is not None]
        assert len(profiles) == closed
        plans[report.rs.name] = {id(p.plan) for p in profiles}
        assert len(plans[report.rs.name]) == distinct
        for sys in report.systems[:20]:
            fresh = module._profile.__wrapped__(sys)
            assert fresh is None or fresh.plan is module._profile(sys).plan
    size = module._plan.cache_info().currsize
    solved = {"F4": [4, 10, 12, 21, 27], "A3": [3, 6, 4, 11, 14]}
    for report in (f4_census, a3_census):
        rs, counts = report.rs, []
        for w in list(product(range(3), repeat=rs.rank))[1:6]:
            target = dual_weight(rs, w)
            want = set()
            for sys in report.systems:
                profile = module._profile(sys)
                if profile is not None:
                    usable = _usable_colors(sys, target)
                    if all(m & usable for m in minimal_supports(profile)):
                        want.add(id(profile.plan))
            calls.clear()
            faithful_couples(report.systems, rs, w)
            assert len(calls) == len(set(map(id, calls)))
            assert set(map(id, calls)) == want <= plans[rs.name], w
            counts.append(len(want))
        assert counts == solved[rs.name]
    assert module._plan.cache_info().currsize == size


def test_faithful_search_keeps_no_cone(f4_census, monkeypatch):
    # the profiles keep only the minimal supports' bitmasks: the cone records
    # are filled by the quotient engine alone. Every profile is built afresh,
    # with no cone record kept from an earlier test.
    quotient, closure = import_module("sphsys.quotient"), import_module("sphsys.closure")
    monkeypatch.setattr(closure, "_profile", lru_cache(maxsize=None)(closure._profile.__wrapped__))
    quotient._color_supports.cache_clear()
    rs = f4_census.rs
    for w in list(product(range(3), repeat=rs.rank))[1:]:
        faithful_couples(f4_census.systems, rs, w)
    for sys in f4_census.systems:
        is_faithful(sys, (1,) * len(colors(sys)))
    assert quotient._color_supports.cache_info().currsize == 0
    for sys in f4_census.systems + census("D4").systems:
        profile = closure._profile(sys)
        if profile is not None:
            assert list(minimal_supports(profile)) == \
                quotient._minimal(quotient._color_supports(sys).supports)


def test_face_cone_is_built_once_past_the_projective_test(f4_census, monkeypatch):
    # with fresh profiles, a call builds the face cone (the cone of the
    # colors whose rows have a negative entry) once for each closed system
    # whose projective colors are all usable and that has another color, and
    # for no other; a second call builds none. Neither call reads or fills
    # the `colors` cache.
    closure = import_module("sphsys.closure")
    monkeypatch.setattr(closure, "_profile", lru_cache(maxsize=None)(closure._profile.__wrapped__))
    supports, calls = closure._ray_supports, []

    def counting(rows, width):
        calls.append(rows)
        return supports(rows, width)

    monkeypatch.setattr(closure, "_ray_supports", counting)
    rs, weight = f4_census.rs, (0, 1, 0, 0)
    target = dual_weight(rs, weight)
    want, ruled_out = [], 0
    for sys in f4_census.systems:
        if not is_spherically_closed(sys):
            continue
        rows = [c.row for c in colors(sys).colors]
        projective = [i for i, r in enumerate(rows) if min(r, default=0) >= 0]
        if any(not _usable_colors(sys, target) >> i & 1 for i in projective):
            ruled_out += 1
        elif len(projective) < len(rows):
            want.append(tuple(r for i, r in enumerate(rows) if i not in projective))
    assert (len(want), ruled_out) == (40, 221)
    info = colors.cache_info()
    got = faithful_couples(f4_census.systems, rs, weight)
    assert sorted(calls) == sorted(want)
    assert _couple_ids(faithful_couples(f4_census.systems, rs, weight)) == _couple_ids(got)
    assert len(calls) == len(want)
    assert colors.cache_info()[:2] == info[:2]  # hits, misses
    assert _couple_ids(got) == _couple_ids(_reference_faithful_couples(f4_census.systems, rs,
                                                                       weight))


def test_faithful_couples_reject_systems_of_another_type(f4, f4_census, a3_census):
    with pytest.raises(ValueError, match="A3"):
        faithful_couples(a3_census.systems, f4, (0, 1, 0, 0))
    with pytest.raises(ValueError, match="A3"):
        faithful_couples(f4_census.systems + a3_census.systems[:1], f4, (0, 1, 0, 0))
    # an equal root system that is another object is the same type
    assert _couple_ids(faithful_couples(f4_census.systems, replace(f4), (0, 1, 0, 0))) == \
        _couple_ids(faithful_couples(f4_census.systems, f4, (0, 1, 0, 0)))


@pytest.mark.slow
def test_faithful_couples_digest_e7_w7():
    # every couple of E7 at w7 in output order, one line each (orbit id,
    # counts, system): a regression value of this engine
    report = census("E7")
    lines = [f"{orbit} {list(c.counts)} {emit_system(c.system).strip()}"
             for c, orbit in faithful_couples(report.systems, report.rs, (0,) * 6 + (1,))]
    assert len(lines) == 3
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == \
        "fab3374ee55759c9295294b88d1e65f979d5735a83d4a37197bd4671e923726c"


@pytest.mark.slow
def test_faithful_couples_digest_e8_w8():
    # every couple of E8 at w8, in the line format of the E7 w7 digest: a
    # regression value of this engine
    report = census("E8")
    lines = [f"{orbit} {list(c.counts)} {emit_system(c.system).strip()}"
             for c, orbit in faithful_couples(report.systems, report.rs, (0,) * 7 + (1,))]
    assert len(lines) == 4
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == \
        "829f57f9ebc3471a82de8aa6d59f290b1fa1033b8e6d78cd1cc8e7ab5606c3ae"


# A diagram automorphism p maps the faithful couples of a weight onto those
# of its image: relabeling S by p (simple root k of the image is simple root
# p[k] of S) and moving each count to the image's color order gives a couple
# of the image at the weight lam o p. The orbit representative is chosen by
# color index, which the relabeling permutes, so the couples are compared as
# Gamma-orbits.

def _moved_counts(sys, image, p, counts):
    """counts of sys's colors, moved to the color order of image =
    `_relabel(sys, sys.rs, p)`: a color keeps its kind, its owners go to
    their preimages under p, and its row pairs the same with each relabeled
    root of Sigma. Equal colors are taken in order."""
    inv = {j: k for k, j in enumerate(p)}

    def key(s, c, owners, coeffs):
        return c.kind, owners, tuple(sorted(zip(map(coeffs, s.sigma), c.row)))

    free = {}
    for idx, c in enumerate(colors(image).colors):
        free.setdefault(key(image, c, c.owners, lambda r: r.coeffs), []).append(idx)
    out = [0] * len(counts)
    for c, m in zip(colors(sys).colors, counts):
        owners = tuple(sorted(inv[a] for a in c.owners))
        image_key = key(sys, c, owners, lambda r: tuple(r.coeffs[j] for j in p))
        out[free[image_key].pop(0)] = m
    return tuple(out)


def _orbits(pairs):
    return sorted((sys.key(), tuple(sorted(gamma_orbit(gamma_group(sys), counts))))
                  for sys, counts in pairs)


EQUIVARIANCE_CASES = [
    # D4: w1/w3/w4 and w1+w2, w2+w3, w2+w4
    pytest.param("D4", [(1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
                        (1, 1, 0, 0), (0, 1, 1, 0), (0, 1, 0, 1)], id="D4"),
    # A4: w1, w4 and w2, w3
    pytest.param("A4", [(1, 0, 0, 0), (0, 0, 0, 1), (0, 1, 0, 0), (0, 0, 1, 0)], id="A4"),
    # D5: w4/w5 and w1+w4/w1+w5
    pytest.param("D5", [(0, 0, 0, 1, 0), (0, 0, 0, 0, 1),
                        (1, 0, 0, 1, 0), (1, 0, 0, 0, 1)], id="D5", marks=pytest.mark.slow),
    # E6: w1/w6 and w3/w5
    pytest.param("E6", [(1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1),
                        (0, 0, 1, 0, 0, 0), (0, 0, 0, 0, 1, 0)], id="E6", marks=pytest.mark.slow),
]


@pytest.mark.parametrize("spec, weights", EQUIVARIANCE_CASES)
def test_faithful_couples_are_equivariant(spec, weights):
    report = census(spec)
    rs = report.rs
    members = {s.key(): s for s in report.systems}
    couples = {w: faithful_couples(report.systems, rs, w) for w in weights}
    assert len(rs.automorphisms) > 1 and all(couples.values())
    for p in rs.automorphisms:
        for w, found in couples.items():
            image_weight = tuple(w[j] for j in p)
            assert image_weight in couples, (p, w)
            moved = []
            for c, _ in found:
                image = members[_relabel(c.system, rs, p).key()]
                counts = _moved_counts(c.system, image, p, c.counts)
                assert omega_of(image, counts) == dual_weight(rs, image_weight)
                moved.append((image, counts))
            want = [(c.system, c.counts) for c, _ in couples[image_weight]]
            assert _orbits(moved) == _orbits(want), (p, w)
