"""Distinguished subsets, quotient systems, minimality types, solvable chains."""

import hashlib
from fractions import Fraction as Q
from importlib import import_module
from itertools import combinations, product
from math import gcd, lcm
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphsys import build_root_system, colors, defect, make_system, negative_colors, validate
from sphsys.closure import _profile
from sphsys.enumeration import census
from sphsys.rootsys import _cone_rays
from sphsys.serialize import emit_system, render_dot
from sphsys.system import localize_sigma
from sphsys.quotient import (
    FreenessError,
    _kernel_rays,
    _mask,
    _members,
    _minimal,
    _ray_supports,
    _subset,
    classify,
    enumerate_distinguished,
    is_distinguished,
    is_strongly_solvable,
    kernel_generators,
    projective_colors,
    quotient,
    quotient_lattice,
)

from conftest import minimal_supports


def sigma_set(sys):
    return {s.coeffs for s in sys.sigma}


@pytest.fixture(scope="module")
def sl4():
    # three simple spherical roots with five colors, two of them shared
    rs = build_root_system("A3")
    return make_system(
        rs,
        [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
        [],
        [(1, -1, 1), (1, 0, -1), (0, 1, 0), (-1, 1, -1), (-1, 0, 1)],
    )


@pytest.fixture(scope="module")
def b3_four_colors():
    rs = build_root_system("B3")
    return make_system(
        rs,
        [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
        [],
        [(1, 1, -1), (1, -2, 1), (-2, 1, 0), (-1, 0, 1)],
    )


@pytest.fixture(scope="module")
def b3_doubled_pair():
    rs = build_root_system("B3")
    return make_system(rs, [(1, 1, 0), (0, 1, 1), (0, 0, 2)], [], [])


@pytest.fixture(scope="module")
def s12(f4):
    # rank-4 system with two shared-color combs over the last two simple roots
    return make_system(
        f4,
        [(1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 0), (0, 0, 0, 1)],
        [],
        [(0, 0, 1, -1), (-2, 0, 1, 0), (0, 0, -1, 1), (0, -1, 0, 1)],
    )


def color_index(sys, row):
    return [c.row for c in colors(sys).colors].index(row)


def test_empty_and_full_sets(sl4):
    assert is_distinguished(sl4, ()) is not None
    n = len(colors(sl4).colors)
    full = tuple(range(n))
    assert is_distinguished(sl4, full) is not None
    q = quotient(sl4, full)
    assert q.sigma == () and sorted(q.sp) == [0, 1, 2]


def test_sl4_named_subsets(sl4):
    # color indices: the canonical column order is (a3, a2, a1)
    plus = color_index(sl4, (1, -1, 1))  # shared by a1 and a3
    a1m = color_index(sl4, (-1, 0, 1))
    a2p = color_index(sl4, (0, 1, 0))
    a2m = color_index(sl4, (-1, 1, -1))
    a3m = color_index(sl4, (1, 0, -1))
    cases = [
        ((plus, a2m), {(1, 1, 0), (0, 1, 1)}, set()),
        ((a1m, a3m), {(0, 1, 0), (1, 0, 1)}, set()),
        ((a2p,), {(1, 0, 0), (0, 0, 1)}, set()),
        ((plus, a2m, a1m, a3m), {(1, 2, 1)}, {0, 2}),
        ((a1m, a3m, a2p), {(1, 0, 1)}, set()),
    ]
    for members, sig, sp in cases:
        assert is_distinguished(sl4, members) is not None
        q = quotient(sl4, sorted(members))
        assert sigma_set(q) == sig
        assert set(q.sp) == sp


def test_sl4_exhaustive_against_bounded_oracle(sl4):
    # brute-force witness search over a small box agrees with the exact test
    rows = [c.row for c in colors(sl4).colors]
    for k in range(1, len(rows) + 1):
        for members in combinations(range(len(rows)), k):
            found = any(
                all(
                    sum(x[i] * rows[m][j] for i, m in enumerate(members)) >= 0
                    for j in range(3)
                )
                for x in product(range(1, 9), repeat=k)
            )
            assert (is_distinguished(sl4, members) is not None) == found


def test_witnesses_are_positive_and_valid(sl4, s12):
    for sys in (sl4, s12):
        rows = [c.row for c in colors(sys).colors]
        for sub in enumerate_distinguished(sys):
            w = is_distinguished(sys, sub.members)
            assert len(w) == len(sub.members)
            assert all(x > 0 for x in w)
            for j in range(len(sys.sigma)):
                assert sum(x * rows[m][j] for x, m in zip(w, sub.members)) >= 0


def test_lattice_searches_no_witness(sl4, monkeypatch):
    # distinguished subsets and their minimality come from the ray supports
    # alone; the lattice never asks is_distinguished for a witness
    def no_witness(sys, members):
        raise AssertionError("witness asked for")

    # "sphsys.quotient" as a string names the re-exported function
    monkeypatch.setattr(import_module("sphsys.quotient"), "is_distinguished", no_witness)
    lattice = quotient_lattice(sl4)
    assert any(e.minimal for e in lattice.edges)
    assert len(lattice.edges) >= len(enumerate_distinguished(sl4)) > 0


def test_b3_two_quotients(b3_four_colors):
    sys = b3_four_colors
    p1 = color_index(sys, (1, 1, -1)[::-1])
    p3 = color_index(sys, (-1, 0, 1)[::-1])
    q1 = quotient(sys, sorted((p1, p3)))
    assert sigma_set(q1) == {(1, 0, 1)}
    others = tuple(i for i in range(4) if i != p3)
    assert is_distinguished(sys, others) is not None
    q2 = quotient(sys, others)
    assert sigma_set(q2) == {(1, 2, 3)}
    assert set(q2.sp) == {0, 1}


def test_kernel_generators_free(b3_four_colors):
    p1 = color_index(b3_four_colors, (1, 1, -1)[::-1])
    p3 = color_index(b3_four_colors, (-1, 0, 1)[::-1])
    gens = kernel_generators(b3_four_colors, sorted((p1, p3)))
    assert len(gens) == 1


# Frozen copy of the earlier kernel_generators: scan {0..12}^r over the free
# columns of an RREF, keep the componentwise-minimal points, and check that
# every scanned point is an N-combination of them. The reference for
# test_kernel_generators_match_lattice_scan.
SCAN_BOUND = 12


def scanned_kernel_generators(rows, r):
    points = scanned_kernel_points(rows, r, SCAN_BOUND)
    gens = sorted(p for p in points
                  if not any(q != p and all(a <= b for a, b in zip(q, p)) for q in points))
    solve = scanned_solver(gens, r)
    if solve is None:
        raise FreenessError("minimal kernel generators are linearly dependent")
    for p in points:
        c = solve(p)
        if c is None or any(x.denominator != 1 or x < 0 for x in c):
            raise FreenessError(f"kernel point {p} is not an N-combination of generators")
    return gens


def scanned_kernel_points(rows, r, bound):
    mat = [[Q(v) for v in row] for row in rows]
    pivots = []
    prow = 0
    for col in range(r):
        src = next((i for i in range(prow, len(mat)) if mat[i][col] != 0), None)
        if src is None:
            continue
        mat[prow], mat[src] = mat[src], mat[prow]
        inv = Q(1) / mat[prow][col]
        mat[prow] = [x * inv for x in mat[prow]]
        for i in range(len(mat)):
            if i != prow and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[prow])]
        pivots.append((prow, col))
        prow += 1
    free = [c for c in range(r) if c not in {c for _, c in pivots}]
    points = []
    for assign in product(range(bound + 1), repeat=len(free)):
        m = [0] * r
        for c, v in zip(free, assign):
            m[c] = v
        ok = True
        for i, c in pivots:
            val = -sum(mat[i][f] * m[f] for f in free)
            if val.denominator != 1 or not 0 <= val <= bound:
                ok = False
                break
            m[c] = int(val)
        if ok and any(m):
            points.append(tuple(m))
    return points


def scanned_solver(gens, r):
    g = len(gens)
    if g == 0:
        return lambda p: None if any(p) else ()
    mat = [[Q(gens[i][j]) for i in range(g)] for j in range(r)]
    prow = 0
    ops = []
    for col in range(g):
        src_row = next((i for i in range(prow, r) if mat[i][col] != 0), None)
        if src_row is None:
            return None
        ops.append(("swap", prow, src_row))
        mat[prow], mat[src_row] = mat[src_row], mat[prow]
        inv = Q(1) / mat[prow][col]
        ops.append(("scale", prow, inv))
        mat[prow] = [x * inv for x in mat[prow]]
        for i in range(r):
            if i != prow and mat[i][col] != 0:
                f = mat[i][col]
                ops.append(("sub", i, prow, f))
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[prow])]
        prow += 1

    def solve(p):
        b = [Q(x) for x in p]
        for op in ops:
            if op[0] == "swap":
                _, i, j = op
                b[i], b[j] = b[j], b[i]
            elif op[0] == "scale":
                _, i, f = op
                b[i] *= f
            else:
                _, i, j, f = op
                b[i] -= f * b[j]
        if any(b[i] != 0 for i in range(g, r)):
            return None
        return tuple(b[:g])

    return solve


def generators_or_error(fn, *args):
    try:
        return fn(*args)
    except FreenessError:
        return "FreenessError"


SMALL_SPECS = ("A1", "A2", "A3", "B2", "B3", "C3", "G2", "A1xA1", "A2xA1", "B2xA1", "A1xG2")


def distinguished_rows(specs):
    """(system, members, member rows) for every distinguished subset of every
    census member of the given types."""
    for spec in specs:
        for sys in census(spec).systems:
            rows = [c.row for c in colors(sys).colors]
            for d in enumerate_distinguished(sys):
                yield sys, d.members, tuple(rows[i] for i in d.members)


def test_kernel_generators_match_lattice_scan():
    checked = 0
    for sys, members, rows in distinguished_rows(SMALL_SPECS):
        want = generators_or_error(scanned_kernel_generators, list(rows), sys.rank)
        got = generators_or_error(kernel_generators, sys, members)
        assert got == want, (sys.key(), members)
        checked += 1
    assert checked == 3716


# Frozen copy of the earlier exact kernel: an RREF over Fraction, the same
# minimal-support search with one RREF per candidate support, and primitive
# vectors through the lcm of the denominators. The reference for the double
# description kernel, quotient._kernel_rays.
def fraction_rref(matrix, ncols):
    m = [[Q(x) for x in row] for row in matrix]
    pivots = []
    for col in range(ncols):
        top = len(pivots)
        src = next((i for i in range(top, len(m)) if m[i][col] != 0), None)
        if src is None:
            continue
        m[top], m[src] = m[src], m[top]
        inv = 1 / m[top][col]
        m[top] = [x * inv for x in m[top]]
        for i in range(len(m)):
            if i != top and m[i][col] != 0:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[top])]
        pivots.append(col)
    return m[:len(pivots)], pivots


def fraction_basis_vector(reduced, pivots, free, width):
    v = [Q(0)] * width
    v[free] = Q(1)
    for row, c in zip(reduced, pivots):
        v[c] = -row[free]
    return v


def fraction_primitive(v):
    scale = lcm(*(x.denominator for x in v))
    if sum(v) < 0:
        scale = -scale
    ints = [int(x * scale) for x in v]
    g = gcd(*ints)
    return tuple(x // g for x in ints)


def expansion_det(m):
    if not m:
        return 1
    return sum((-1) ** j * m[0][j] * expansion_det([r[:j] + r[j + 1:] for r in m[1:]])
               for j in range(len(m)) if m[0][j])


def fraction_kernel_rays(rows, width):
    reduced, pivots = fraction_rref(rows, width)
    dim = width - len(pivots)
    if dim == 0:
        return ()
    if dim == 1:
        free = next(c for c in range(width) if c not in pivots)
        candidates = [fraction_basis_vector(reduced, pivots, free, width)]
    else:
        candidates, found = [], []
        for size in range(1, width + 1):
            for support in combinations(range(width), size):
                if any(s <= set(support) for s in found):
                    continue
                sub, sub_pivots = fraction_rref([[r[j] for j in support] for r in rows], size)
                if size - len(sub_pivots) == 1:
                    free = next(c for c in range(size) if c not in sub_pivots)
                    v = [Q(0)] * width
                    for j, x in zip(support, fraction_basis_vector(sub, sub_pivots, free, size)):
                        v[j] = x
                    candidates.append(v)
                    found.append(set(support))
    rays = sorted(fraction_primitive(v) for v in candidates
                  if all(x >= 0 for x in v) or all(x <= 0 for x in v))
    minors_gcd = 0
    for cols in combinations(range(width), len(rays)):
        minors_gcd = gcd(minors_gcd, expansion_det([[ray[j] for ray in rays] for j in cols]))
        if minors_gcd == 1:
            return tuple(rays)
    raise FreenessError(f"kernel rays {rays} do not generate the kernel monoid freely")


def assert_rays_match_fraction_reference(specs):
    checked = 0
    for sys, members, rows in distinguished_rows(specs):
        want = generators_or_error(fraction_kernel_rays, rows, sys.rank)
        got = generators_or_error(_kernel_rays, rows, (1 << sys.rank) - 1, sys.rank)
        assert got == want, (sys.key(), members)
        checked += 1
    return checked


def test_kernel_rays_match_fraction_reference():
    assert assert_rays_match_fraction_reference(SMALL_SPECS) == 3716


@pytest.mark.slow
@pytest.mark.parametrize("spec", ["F4", "D4"])
def test_kernel_rays_match_fraction_reference_rank4(spec):
    assert assert_rays_match_fraction_reference([spec]) > 0


def test_kernel_generators_match_the_full_width_kernel():
    # the kernel from the colors' cone's zero sets, against the double
    # description over every Sigma column, for every subset of at most three
    # colors, the subsets that are not distinguished included
    checked = 0
    for sys in census_systems(("F4", "D4")):
        rows = [c.row for c in colors(sys).colors]
        for size in (1, 2, 3):
            for members in combinations(range(len(rows)), size):
                full_width = tuple(rows[i] for i in members)
                want = generators_or_error(_kernel_rays, full_width, (1 << sys.rank) - 1,
                                           sys.rank)
                got = generators_or_error(kernel_generators, sys, members)
                assert got == (want if want == "FreenessError" else list(want)), \
                    (emitted(sys), members)
                checked += 1
    assert checked == 15148


def test_quotients_run_a_cone_only_for_a_non_unit_generator(monkeypatch):
    # of the 5,047 F4 quotients, 310 have a generator other than a unit
    # vector, and only those run `_kernel_rays` and `_canonical`; each
    # quotient reads its subset once (`_subset`), the builder never calls
    # `kernel_generators`, and none goes through make_system
    module = import_module("sphsys.quotient")
    subsets = [(sys, d.members, kernel_generators(sys, d.members))
               for sys in census("F4").systems for d in enumerate_distinguished(sys)]
    calls = {"_kernel_rays": 0, "kernel_generators": 0, "_canonical": 0, "_subset": 0}

    def counting(name):
        fn = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    def forbidden(*args):
        raise AssertionError("make_system called")

    for name in calls:
        monkeypatch.setattr(module, name, counting(name))
    monkeypatch.setattr(import_module("sphsys.system"), "make_system", forbidden)
    built = non_unit = 0
    for sys, members, gens in subsets:
        canonical = calls["_canonical"]
        module.quotient(sys, members)
        built += 1
        unit_only = all(sum(g) == 1 for g in gens)
        non_unit += not unit_only
        assert calls["_canonical"] == canonical + (not unit_only), (emitted(sys), members)
    assert built == 5047
    assert non_unit == 310
    assert calls == {"_kernel_rays": 310, "kernel_generators": 0, "_canonical": 310,
                     "_subset": 5047}


def generator_route(sys, gens, sp):
    """S/D from Luna's correspondence, for the kernel generators gens of D
    and S^p sp of S/D: one spherical root sum_i g_i sigma_i per generator g,
    and, for each simple alpha still in Sigma, the rows r of A(alpha), those
    with a 1 in alpha's column, each taking r . g at the root of g."""
    vectors = [tuple(sum(gi * s.coeffs[k] for gi, s in zip(g, sys.sigma))
                     for k in range(sys.rs.rank)) for g in gens]
    column = sys.simple_sigma()
    simple = [column[v.index(1)] for v in vectors if sum(v) == 1]
    rows = [r for r in sys.a_rows if any(r[c] == 1 for c in simple)]
    return make_system(sys.rs, vectors, sp,
                       [[sum(x * gi for x, gi in zip(r, g)) for g in gens] for r in rows])


# A kernel of unit vectors e_j: by Luna's correspondence S/D is the
# localization of S at the Sigma columns j, with S^p enlarged by the simple
# roots whose colors all lie in D. Both the general route (the generators'
# spherical roots and rows, then the canonical order) and `localize_sigma`
# are oracles for what `quotient` builds from the cone record's bitmasks.
@pytest.mark.parametrize("spec,count", [("F4", 4737), ("D4", 4603)])
def test_unit_kernel_quotients_are_localizations(spec, count):
    checked = 0
    for sys in census(spec).systems:
        delta_of = colors(sys).delta_of
        for d in enumerate_distinguished(sys):
            gens = kernel_generators(sys, d.members)
            if any(sum(g) > 1 for g in gens):
                continue
            new_sp = sys.sp.union(a for a, owned in enumerate(delta_of)
                                  if owned and set(owned) <= set(d.members))
            q = quotient(sys, d.members)
            assert q == generator_route(sys, gens, new_sp), (emitted(sys), d.members)
            kept = [s.coeffs for g, s in zip(zip(*gens), sys.sigma) if any(g)]
            local = localize_sigma(sys, kept)
            assert (q.sigma, q.sp, q.a_rows) == (local.sigma, new_sp, local.a_rows), \
                (emitted(sys), d.members)
            checked += 1
    assert checked == count


# By Luna's correspondence the spherical roots of S/D are sum_j g_j sigma_j
# over the kernel generators g of D. So S/D keeps sigma_j at every column j
# that no row of D touches, its rows there are those of the localization of
# S at those columns, and each generator other than a unit vector adds one
# spherical root.
def test_quotients_are_localizations_plus_one_root_per_non_unit_generator():
    checked = extra = 0
    for sys in census_systems(("F4", "D4")):
        cs = colors(sys).colors
        for d in enumerate_distinguished(sys):
            kept = [s.coeffs for j, s in enumerate(sys.sigma)
                    if all(cs[i].row[j] == 0 for i in d.members)]
            q = quotient(sys, d.members)
            at = {s.coeffs: k for k, s in enumerate(q.sigma)}
            assert set(kept) <= set(at), (emitted(sys), d.members)
            assert sorted(tuple(r[at[v]] for v in kept) for r in q.a_rows) == \
                list(localize_sigma(sys, kept).a_rows), (emitted(sys), d.members)
            non_unit = sum(sum(g) > 1 for g in kernel_generators(sys, d.members))
            assert q.rank == len(kept) + non_unit, (emitted(sys), d.members)
            checked += 1
            extra += non_unit > 0
    assert (checked, extra) == (10002, 662)


def test_members_are_the_set_bits():
    # one step per set bit, against the scan of every position
    for mask in list(range(1 << 12)) + [1 << 70, (1 << 70) | 5]:
        want = tuple(i for i in range(mask.bit_length()) if mask >> i & 1)
        assert _members(mask) == want and _mask(want) == mask


def test_kernel_generator_beyond_scan_bound():
    # the lattice scan stopped at coordinate 12 and returned no generator here
    assert _kernel_rays(((1, -13),), 0b11, 2) == ((13, 1),)
    assert scanned_kernel_generators([(1, -13)], 2) == []


def test_kernel_rays_not_free():
    # the rays (2,0,1) and (0,2,1) miss the kernel point (1,1,1)
    with pytest.raises(FreenessError):
        _kernel_rays(((1, 1, -2),), 0b111, 3)
    # the rays (2,3,0,5) and (0,3,2,15) miss (1,3,1,10); the lattice scan
    # never saw the second ray and returned two vectors that generate neither
    rows = ((-2, 3, 3, -1), (-3, 2, -3, 0))
    with pytest.raises(FreenessError):
        _kernel_rays(rows, 0b1111, 4)
    assert scanned_kernel_generators(rows, 4) == [(1, 3, 1, 10), (2, 3, 0, 5)]


def test_kernel_rays_small_cases():
    assert _kernel_rays(((1, 0), (0, 1)), 0b11, 2) == ()
    assert _kernel_rays(((1, 1),), 0b11, 2) == ()
    assert _kernel_rays(((), ()), 0, 0) == ()
    assert _kernel_rays((), 0b11, 2) == ((0, 1), (1, 0))
    assert _kernel_rays(((2, -3, 0),), 0b111, 3) == ((0, 0, 1), (3, 2, 0))


def test_witness_beyond_entry_bound():
    # the rays of {x >= 0 : x0 >= x1 + x2 + x3} are e0 and e0 + e_i, so the
    # witness of rows (1), (-1), (-1), (-1) is their sum (4, 1, 1, 1): beyond
    # the earlier search cap of 1 + width * max|entry| = 2
    sys = make_system(build_root_system("D4"), [(0, 1, 0, 0)], [], [(1,), (1,)])
    rows = [c.row for c in colors(sys).colors]
    members = (0, 2, 3, 4)
    assert [rows[m] for m in members] == [(1,), (-1,), (-1,), (-1,)]
    assert is_distinguished(sys, members) == (4, 1, 1, 1)
    subsets = enumerate_distinguished(sys)
    assert members in [d.members for d in subsets]
    for d in subsets:
        assert validate(quotient(sys, d.members)) == []


@st.composite
def color_rows(draw):
    width = draw(st.integers(0, 4))
    rows = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * width), max_size=5))
    return tuple(rows), width


def rays_of(rows, width):
    """The extreme rays of {x >= 0 : sum x_d row_d >= 0}."""
    return [r for r, _ in _cone_rays(len(rows), [tuple(r[j] for r in rows)
                                                 for j in range(width)])]


def ray_sum(rows, width):
    """The sum of the extreme rays of {x >= 0 : sum x_d row_d >= 0}, from the
    subset's own cone."""
    return [sum(col) for col in zip(*rays_of(rows, width))] or [0] * len(rows)


def face_ray_sum(rays, members):
    """The members' entries of the sum of the rays whose support lies inside
    members: for the rays of the whole colors' cone, the witness of the face
    where the other colors vanish."""
    inside = [ray for ray in rays if all(x == 0 or d in members for d, x in enumerate(ray))]
    return tuple(sum(ray[d] for ray in inside) for d in members)


def test_witness_is_the_face_ray_sum():
    # is_distinguished sums the rays of D's own cone; they are the rays of
    # the whole colors' cone with support inside D, computed here apart
    count = 0
    for sys in census_systems(("F4", "D4")):
        rays = rays_of([c.row for c in colors(sys).colors], sys.rank)
        for d in enumerate_distinguished(sys):
            assert is_distinguished(sys, d.members) == face_ray_sum(rays, d.members), \
                (emitted(sys), d.members)
            count += 1
    assert count == 10002


@settings(max_examples=300, deadline=None)
@given(color_rows())
def test_witness_is_the_face_ray_sum_of_any_rows(case):
    # is_distinguished on drawn rows, with their cone record in place of a
    # system's: a witness exactly when the face ray sum is positive, and
    # then that sum, for every subset
    rows, width = case
    module, rays = import_module("sphsys.quotient"), rays_of(rows, width)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(module, "_color_supports", lambda sys: _ray_supports(rows, width))
        m.setattr(module, "_rows_of", lambda sys, members: [rows[i] for i in members])
        for size in range(len(rows) + 1):
            for members in combinations(range(len(rows)), size):
                w = face_ray_sum(rays, members)
                assert is_distinguished(SimpleNamespace(rank=width), members) == \
                    (w if all(w) else None), members


def test_classify_r_type(b3_doubled_pair):
    subs = [d for d in enumerate_distinguished(b3_doubled_pair) if d.minimal]
    assert len(subs) == 1
    q = quotient(b3_doubled_pair, subs[0].members)
    assert sigma_set(q) == {(2, 2, 2)}
    assert set(q.sp) == {1, 2}
    assert classify(b3_doubled_pair, subs[0].members) == "R"
    assert defect(q) == defect(b3_doubled_pair)


def test_quotient_lattice_counts(b3_doubled_pair):
    lat = quotient_lattice(b3_doubled_pair)
    assert len(lat.nodes) == 3
    assert len(lat.edges) == 3


def test_s12_minimal_quotients(s12, f4):
    assert validate(s12) == []
    assert defect(s12) == 2
    assert len(colors(s12).colors) == 6
    mins = [d for d in enumerate_distinguished(s12) if d.minimal]
    got = {}
    for d in mins:
        q = quotient(s12, d.members)
        got[frozenset(sigma_set(q))] = classify(s12, d.members)
    assert got == {
        frozenset({(0, 0, 1, 1), (0, 1, 1, 0), (1, 1, 0, 0)}): "P",
        frozenset({(0, 1, 2, 1)}): "L",
        frozenset({(0, 0, 0, 1), (1, 2, 3, 0)}): "P",
    }


def test_s12_nonminimal_quotient_to_rank_one(s12, rank1_omega4):
    # every color except one vanishes on the doubled highest short root
    minus4 = color_index(s12, (1, 0, -1, 0))
    members = tuple(i for i in range(6) if i != minus4)
    assert is_distinguished(s12, members) is not None
    assert quotient(s12, members) == rank1_omega4


def test_strongly_solvable_chain_length_two(f4):
    sys = make_system(
        f4,
        [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)],
        [],
        [
            (1, -1, 1, 0),
            (1, 0, -1, 0),
            (-1, -1, 1, -1),
            (0, 1, 0, 1),
            (-1, 1, -1, -1),
            (0, -1, -1, 1),
        ],
    )
    assert validate(sys) == []
    ok, chain = is_strongly_solvable(sys)
    assert ok and len(chain) == 2
    assert chain[-1].sigma == () and not chain[-1].sp


def test_strongly_solvable_chain_length_three(f4):
    sys = make_system(
        f4,
        [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)],
        [],
        [
            (1, 0, 0, 0),
            (1, -1, 0, 0),
            (0, 1, -1, 1),
            (-1, 1, 0, -1),
            (0, -1, 0, 1),
            (0, 0, 1, 0),
            (0, -2, 1, -1),
        ],
    )
    assert validate(sys) == []
    ok, chain = is_strongly_solvable(sys)
    assert ok and len(chain) == 3


def test_not_strongly_solvable_without_projective_color(b3_doubled_pair):
    assert projective_colors(b3_doubled_pair) == []
    ok, chain = is_strongly_solvable(b3_doubled_pair)
    assert not ok and chain is None


def test_projective_singletons_are_distinguished():
    # a projective color's row is nonnegative, so it is its own witness
    for spec in ("F4", "D4"):
        for sys in census(spec).systems:
            for idx, _ in projective_colors(sys):
                assert is_distinguished(sys, [idx]) == (1,)


def test_lattice_edges_reuse_their_quotient(monkeypatch):
    # every node is some sys/D, built once; edges only look their targets up
    module = import_module("sphsys.quotient")
    build = module.quotient
    built = []

    def counting(sys, members):
        built.append(members)
        return build(sys, members)

    for spec in ("F4", "D4"):
        for sys in census(spec).systems[::90]:
            built.clear()
            with monkeypatch.context() as m:
                m.setattr(module, "quotient", counting)
                lat = quotient_lattice(sys)
            assert built == [d.members for d in enumerate_distinguished(sys)]
            for e in lat.edges:
                if e.minimal:
                    assert e.kind == classify(e.source, e.members)
    first = census("F4").systems[0]
    assert (len(enumerate_distinguished(first)), len(quotient_lattice(first).edges)) == (15, 65)


def test_lattice_reads_each_side_once(monkeypatch):
    # each node's defect and negative colors (`_side`) are read once, when
    # the node is built; an edge's kind reads both ends' sides from their
    # node records
    module = import_module("sphsys.quotient")
    side = module._side
    seen = []

    def counting(sys):
        seen.append(sys.key())
        return side(sys)

    monkeypatch.setattr(module, "_side", counting)
    nodes = 0
    for sys in census_systems(("F4", "D4")):
        seen.clear()
        lat = quotient_lattice(sys)
        assert seen == [n.key() for n in lat.nodes], emitted(sys)
        nodes += len(lat.nodes)
    assert nodes == 7687


def test_lattice_lookup_miss_is_reported(sl4, monkeypatch):
    # with no kernel generators for a nonempty D, the colors of sl4/D cannot
    # be matched with those of sl4: Luna's correspondence seems to fail
    module = import_module("sphsys.quotient")
    generators = module.kernel_generators
    monkeypatch.setattr(module, "kernel_generators",
                        lambda sys, members: [] if members else generators(sys, members))
    with pytest.raises(RuntimeError) as caught:
        quotient_lattice(sl4)
    message = str(caught.value)
    assert emit_system(sl4).strip() in message
    assert any(f"D = {list(d.members)} of" in message for d in enumerate_distinguished(sl4))


def test_lattice_reads_the_cone_of_its_source_only(monkeypatch):
    # no node S/D runs a cone or a distinguished-subset search of its own
    module = import_module("sphsys.quotient")
    supports, distinguished = module._color_supports, module.enumerate_distinguished
    seen = []

    def record(fn):
        def wrapper(sys):
            seen.append(sys.key())
            return fn(sys)
        return wrapper

    monkeypatch.setattr(module, "_color_supports", record(supports))
    monkeypatch.setattr(module, "enumerate_distinguished", record(distinguished))
    for spec in ("F4", "D4"):
        for sys in census(spec).systems[::30]:
            seen.clear()
            lat = quotient_lattice(sys)
            assert len(lat.nodes) > 1 and set(seen) == {sys.key()}


def test_strongly_solvable_chains_follow_the_definition():
    # each step is the quotient of the step before it, starting from the
    # member itself, by one of that system's projective colors; the last
    # step is the trivial system
    for spec in ("F4", "D4", "B3xA1"):
        for sys in census(spec).systems:
            ok, chain = is_strongly_solvable(sys)
            assert ok == (chain is not None)
            if ok:
                steps = [sys] + chain
                for prev, step in zip(steps, chain):
                    assert step.key() in {quotient(prev, (idx,)).key()
                                          for idx, _ in projective_colors(prev)}
                assert not steps[-1].sigma and not steps[-1].sp


# Frozen copy of the earlier quotient_lattice: a breadth-first search that
# runs a cone per node and a quotient per edge, and keeps the first system of
# each key. The reference for the lattice built from sys's own subsets.
def bfs_lattice(sys):
    nodes = {sys.key(): sys}
    edges = []
    frontier = [sys]
    while frontier:
        nxt = []
        for cur in frontier:
            for d in enumerate_distinguished(cur):
                q = quotient(cur, d.members)
                if q.key() not in nodes:
                    nodes[q.key()] = q
                    nxt.append(q)
                kind = edge_kind(cur, q) if d.minimal else None
                edges.append((cur.key(), q.key(), d.members, d.minimal, kind))
        frontier = nxt
    return list(nodes), edges


def lattice_digest(specs):
    h = hashlib.sha256()
    for spec in specs:
        for sys in census(spec).systems:
            h.update(render_dot(quotient_lattice(sys)).encode())
    return h.hexdigest()


# sha256 of render_dot(quotient_lattice(s)) over each census in census order,
# concatenated: regression values of this engine (F4 + D4: 56,636 edges;
# D5: 455,324 edges)
LATTICE_DIGESTS = {
    ("F4", "D4"): "a8ec3139ea33e7b1a53403f4746429b8d5d11742b62d4b545f7ad7d2208ea82e",
    ("D5",): "493d7785e6b155e8a8884788b9d113b28c27de49b0b59e57bb18c8a3e441c0d1",
}


@pytest.mark.parametrize("specs", [("F4", "D4"), pytest.param(("D5",), marks=pytest.mark.slow)])
def test_lattice_digest(specs):
    assert lattice_digest(specs) == LATTICE_DIGESTS[specs]


def line_digest(lines):
    return hashlib.sha256("".join(line + "\n" for line in lines).encode()).hexdigest()


def emitted(sys):
    return emit_system(sys).strip()


def census_systems(specs):
    return [sys for spec in specs for sys in census(spec).systems]


# S/D is built in canonical order without make_system: Sigma by (height,
# coefficient vector), the rows sorted, and rebuilding it from its own data,
# in reverse order, through make_system changes nothing
@pytest.mark.parametrize("specs", [("F4", "D4"), pytest.param(("D5",), marks=pytest.mark.slow)])
def test_quotients_are_canonical(specs):
    for sys in census_systems(specs):
        for d in enumerate_distinguished(sys):
            q = quotient(sys, d.members)
            keys = [s.sort_key() for s in q.sigma]
            assert keys == sorted(keys) and list(q.a_rows) == sorted(q.a_rows)
            again = make_system(q.rs, [s.coeffs for s in reversed(q.sigma)], q.sp,
                                [r[::-1] for r in reversed(q.a_rows)])
            assert (again.sigma, again.sp, again.a_rows) == (q.sigma, q.sp, q.a_rows), \
                (emitted(sys), d.members)


# Regression values of this engine, over the censuses in census order: one
# line per distinguished subset (the sweep: members, minimal flag and
# quotient; the witnesses: `is_distinguished`), or one per system (the
# strongly solvable chains). F4 + D4: 10,002 subsets, B3xA1 added for the
# chains (248 solvable); D5: 48,362 subsets, 386 solvable.
SWEEP_DIGESTS = {
    ("F4", "D4"): "14b77c9fc3941220ee02265c6274f64420914fe42ca4960a1b38c9600feff178",
    ("D5",): "9ac9372b05e4f0555ca99394e10705778cc376069ad2983f7f21d859ff18788c",
}
WITNESS_DIGESTS = {
    ("F4", "D4"): "e32ec74fe80ffc8e934c2481cd804ff882e52769f221fd801faaa4b95824fa6b",
    ("D5",): "0dd9e1a8f45c91e01d94a7d6fad27bc9281c3216d7720092116017d02118593d",
}
CHAIN_DIGESTS = {
    ("F4", "D4", "B3xA1"): "db48d437e045d81db405c234d6431c5cb22fd073a8ed28d7d35beff5b6e08aff",
    ("D5",): "bf1e9375efc9fa8efa23e9ed4d7f1c1825b107571c385afb376aa2683b9b2aba",
}


@pytest.mark.parametrize("specs", [("F4", "D4"), pytest.param(("D5",), marks=pytest.mark.slow)])
def test_sweep_digest(specs):
    lines = [f"{emitted(s)} {list(d.members)} {d.minimal} {emitted(quotient(s, d.members))}"
             for s in census_systems(specs) for d in enumerate_distinguished(s)]
    assert line_digest(lines) == SWEEP_DIGESTS[specs]


@pytest.mark.parametrize("specs", [("F4", "D4"), pytest.param(("D5",), marks=pytest.mark.slow)])
def test_witness_digest(specs):
    lines = [f"{emitted(s)} {list(d.members)} {list(is_distinguished(s, d.members))}"
             for s in census_systems(specs) for d in enumerate_distinguished(s)]
    assert line_digest(lines) == WITNESS_DIGESTS[specs]


@pytest.mark.parametrize("specs", [("F4", "D4", "B3xA1"),
                                   pytest.param(("D5",), marks=pytest.mark.slow)])
def test_strongly_solvable_chain_digest(specs):
    lines = []
    for sys in census_systems(specs):
        ok, chain = is_strongly_solvable(sys)
        lines.append(f"{emitted(sys)} {ok} " + " | ".join(map(emitted, chain or [])))
    assert line_digest(lines) == CHAIN_DIGESTS[specs]


# P/L/R/LR counts of `classify` over the minimal subsets of each census
# member: this engine's regression values, not the paper's (classify still
# reads "R" heuristically and answers "LR" when it cannot decide)
@pytest.mark.parametrize("spec,counts", [("F4", (134, 354, 61, 21)), ("D4", (174, 375, 95, 0)),
                                         ("B3xA1", (254, 538, 187, 33)),
                                         pytest.param("D5", (630, 1934, 307, 0),
                                                      marks=pytest.mark.slow)])
def test_minimal_edge_kind_counts(spec, counts):
    kinds = [classify(s, d.members) for s in census(spec).systems
             for d in enumerate_distinguished(s) if d.minimal]
    assert tuple(kinds.count(k) for k in ("P", "L", "R", "LR")) == counts
    assert len(kinds) == sum(counts)


def test_classify_rejects_a_subset_that_is_not_minimal(f4_census):
    # classify types a minimal edge only: a distinguished D with another ray
    # support inside it raises, and the minimal ones keep their kinds
    first = f4_census.systems[0]
    assert (0, 1) in [d.members for d in enumerate_distinguished(first) if not d.minimal]
    kinds, rejected = [], 0
    for sys in f4_census.systems:
        # the empty subset is distinguished, but S -> S is no edge
        with pytest.raises(ValueError, match="not minimal"):
            classify(sys, ())
        for d in enumerate_distinguished(sys):
            if d.minimal:
                kinds.append(classify(sys, d.members))
                continue
            with pytest.raises(ValueError, match="not minimal"):
                classify(sys, d.members)
            rejected += 1
    assert rejected == 4477
    assert tuple(kinds.count(k) for k in ("P", "L", "R", "LR")) == (134, 354, 61, 21)


# Frozen copy of the earlier classification, which built the target S/D and
# read its defect and negative colors: the reference for `classify`, which
# reads them off S's own colors, and for the kinds of the BFS lattice.
def edge_kind(sys, target):
    d0, d1 = defect(sys), defect(target)
    if d1 < d0:
        return "P"
    if d1 > d0:
        return "L"
    src = {(c.owners, where) for c, where in negative_colors(sys)}
    tgt = {(c.owners, where) for c, where in negative_colors(target)}
    new = tgt - src
    if any(where == "exterior" for _, where in new):
        return "L"
    if not new:
        return "R"
    return "LR"


@pytest.mark.parametrize("specs", [("F4", "D4", "B3xA1"),
                                   pytest.param(("D5",), marks=pytest.mark.slow)])
def test_classify_matches_the_built_target(specs):
    # both routes to S/D occur: localizations and kernel quotients
    routes = set()
    for sys in census_systems(specs):
        for d in enumerate_distinguished(sys):
            if d.minimal:
                q = quotient(sys, d.members)
                assert classify(sys, d.members) == edge_kind(sys, q), (emitted(sys), d.members)
                routes.add(any(sum(g) > 1 for g in kernel_generators(sys, d.members)))
    assert routes == {False, True}


@pytest.mark.parametrize("spec", ["F4", "D4"])
def test_lattice_matches_bfs(spec):
    for sys in census(spec).systems[::10]:
        lat = quotient_lattice(sys)
        nodes, edges = bfs_lattice(sys)
        assert [n.key() for n in lat.nodes] == nodes
        assert [(e.source.key(), e.target.key(), e.members, e.minimal, e.kind)
                for e in lat.edges] == edges


# Luna's correspondence for quotients (Luna, Varietes spheriques de type A,
# 2001), with colors matched on (owners, row . g) over the kernel generators
# g, equal colors in order:
#   the colors of S/D are those of S outside D;
#   the distinguished subsets of S/D are the E with D u E distinguished in S;
#   (S/D)/E = S/(D u E).
def luna_color_map(sys, members, q):
    """Each color of q = sys/members to a color of sys outside members with
    the same owners and row r . g, g in q's column order; None when the two
    color multisets differ."""
    gens = kernel_generators(sys, members)
    vector = {tuple(sum(x * s.coeffs[j] for x, s in zip(g, sys.sigma))
                    for j in range(sys.rs.rank)): g for g in gens}
    columns = [vector[s.coeffs] for s in q.sigma]
    outside = {}
    for i, c in enumerate(colors(sys).colors):
        if i not in members:
            row = tuple(sum(x * y for x, y in zip(c.row, g)) for g in columns)
            outside.setdefault((c.owners, row), []).append(i)
    inside = {}
    for k, c in enumerate(colors(q).colors):
        inside.setdefault((c.owners, c.row), []).append(k)
    if {key: len(v) for key, v in inside.items()} != {key: len(v) for key, v in outside.items()}:
        return None
    return {k: i for key, ks in inside.items() for k, i in zip(ks, outside[key])}


def assert_luna_correspondence(systems):
    """The three properties for every distinguished subset of every system;
    returns the number of (S/D)/E checked."""
    checked = 0
    for sys in systems:
        dist = [frozenset(d.members) for d in enumerate_distinguished(sys)]
        by_subset = {d: quotient(sys, sorted(d)) for d in dist}
        for d, q in by_subset.items():
            phi = luna_color_map(sys, d, q)
            assert phi is not None, (emit_system(sys), sorted(d))
            images = {e: frozenset(phi[k] for k in e.members) for e in enumerate_distinguished(q)}
            assert set(images.values()) == {other - d for other in dist if other > d}, \
                (emit_system(sys), sorted(d))
            for e, image in images.items():
                assert quotient(q, e.members).key() == by_subset[d | image].key(), \
                    (emit_system(sys), sorted(d), e.members)
                checked += 1
    return checked


@pytest.mark.parametrize("spec,step", [("B3xA1", 1), ("A1xG2", 1), ("A2xA2", 1),
                                       ("F4", 10), ("D4", 10)])
def test_luna_correspondence(spec, step):
    assert assert_luna_correspondence(census(spec).systems[::step]) > 0


def test_color_map_matches_luna_on_both_routes():
    # `_color_map` matches the colors of S/D with those of S outside D on
    # both routes to S/D: a localization, whose kernel generators are all
    # unit vectors, and a kernel quotient, with a generator that is not
    module = import_module("sphsys.quotient")
    routes = {"localization": 0, "kernel": 0}
    for sys in census_systems(("F4", "D4")):
        for d in enumerate_distinguished(sys):
            q = quotient(sys, d.members)
            phi = luna_color_map(sys, d.members, q)
            assert phi is not None, (emitted(sys), d.members)
            assert module._color_map(sys, d.members, q) == [phi[k] for k in range(len(phi))], \
                (emitted(sys), d.members)
            kernel = any(sum(g) > 1 for g in kernel_generators(sys, d.members))
            routes["kernel" if kernel else "localization"] += 1
    assert routes == {"localization": 9340, "kernel": 662}


@pytest.mark.slow
@pytest.mark.parametrize("spec", ["F4", "D4", "D5"])
def test_luna_correspondence_full(spec):
    assert assert_luna_correspondence(census(spec).systems) > 0


def test_quotients_of_census_sample_are_valid(f4_census):
    sample = f4_census.systems[:: max(1, len(f4_census.systems) // 25)]
    for sys in sample:
        for d in enumerate_distinguished(sys):
            if d.minimal:
                assert validate(quotient(sys, d.members)) == []


@pytest.mark.parametrize("name", ["A3", "B3", "D4", "F4"])
def test_minimal_flags_match_definition_and_closure_search(name):
    """`enumerate_distinguished` flags the minimal ray supports, and
    `closure._profile` lists them. Both must agree with the definition, and
    with each other."""
    closed = 0
    for sys in census(name).systems:
        subsets = enumerate_distinguished(sys)
        sets = [set(d.members) for d in subsets]
        for d, members in zip(subsets, sets):
            assert d.minimal == (not any(other < members for other in sets))
        profile = _profile(sys)
        if profile is not None:
            closed += 1
            assert [sum(1 << i for i in d.members) for d in subsets if d.minimal] == \
                list(minimal_supports(profile))
    assert closed


def test_color_indices_are_checked(sl4):
    # -1 used to read the last color, and 5 to raise IndexError
    for bad in ([-1], [0, 5], [7]):
        with pytest.raises(ValueError, match="color indices"):
            is_distinguished(sl4, bad)
        with pytest.raises(ValueError, match="color indices"):
            kernel_generators(sl4, bad)
        with pytest.raises(ValueError, match="color indices"):
            quotient(sl4, bad)
        with pytest.raises(ValueError, match="color indices"):
            classify(sl4, bad)
    dist = {d.members for d in enumerate_distinguished(sl4)}
    other = next(m for size in (1, 2) for m in combinations(range(len(colors(sl4))), size)
                 if m not in dist)
    for fn in (quotient, classify):
        with pytest.raises(ValueError, match="not distinguished"):
            fn(sl4, other)
    last = len(colors(sl4)) - 1
    assert is_distinguished(sl4, [last, last]) == is_distinguished(sl4, [last])


# Frozen copy of the earlier decision of distinguishedness: feasibility of
# some x >= 1 with sum x_d * row_d >= 0, through the dual and Fourier-Motzkin
# elimination over the rationals. The reference for quotient._ray_supports.
def fm_feasible(rows, width):
    cons = []
    for j in range(width):
        cons.append((tuple(1 if i == j else 0 for i in range(width)), 0))
    for r in rows:
        cons.append((tuple(-r[j] for j in range(width)), 0))
    total = tuple(-sum(r[j] for r in rows) for j in range(width))
    cons.append((total, 1))
    return not fm_satisfiable(cons, width)


def fm_satisfiable(cons, nvars):
    for var in range(nvars):
        pos = [c for c in cons if c[0][var] > 0]
        neg = [c for c in cons if c[0][var] < 0]
        new = [c for c in cons if c[0][var] == 0]
        for cp, bp in pos:
            for cn, bn in neg:
                fp, fn = cp[var], -cn[var]
                coeffs = tuple(fn * x + fp * y for x, y in zip(cp, cn))
                new.append(fm_normalize(coeffs, fn * bp + fp * bn))
        cons = fm_dedupe(new)
        if cons is None:
            return False
    return all(b <= 0 for _, b in cons)


def fm_normalize(coeffs, b):
    g = gcd(*coeffs, b)
    if g > 1:
        coeffs = tuple(c // g for c in coeffs)
        b = b // g
    return coeffs, b


def fm_dedupe(cons):
    seen = {}
    for coeffs, b in cons:
        if not any(coeffs):
            if b > 0:
                return None
            continue
        if coeffs not in seen or seen[coeffs] < b:
            seen[coeffs] = b
    return [(c, b) for c, b in seen.items()]


def fm_distinguished(rows, width, witness, decided=None):
    """(members, minimal) for every nonempty subset of the rows that FM finds
    feasible, by size and then members, with minimality against the smaller
    ones found; witness(members) must certify each: one positive entry per
    member, and a nonnegative pairing with every column."""
    decided = {} if decided is None else decided
    out, minimal = [], []
    for size in range(1, len(rows) + 1):
        for members in combinations(range(len(rows)), size):
            sub = tuple(rows[i] for i in members)
            if sub not in decided:
                decided[sub] = fm_feasible(sub, width)
            if decided[sub]:
                is_min = not any(set(m) <= set(members) for m in minimal)
                if is_min:
                    minimal.append(members)
                w = witness(members)
                assert w is not None and len(w) == size and min(w) > 0, members
                assert all(sum(x * r[j] for x, r in zip(w, sub)) >= 0 for j in range(width))
                out.append((members, is_min))
    return out


@settings(max_examples=300, deadline=None)
@given(color_rows())
def test_ray_supports_agree_with_fourier_motzkin(case):
    rows, width = case
    cone = _ray_supports(rows, width)
    feasible = []
    for size in range(1, len(rows) + 1):
        for members in combinations(range(len(rows)), size):
            mask = sum(1 << i for i in members)
            fm = fm_feasible([rows[i] for i in members], width)
            assert (_subset(cone, members)[2] == mask) == fm, members
            if fm:
                feasible.append(members)
    brute_minimal = [m for m in feasible if not any(set(o) < set(m) for o in feasible)]
    assert _minimal(cone.supports) == [sum(1 << i for i in m) for m in brute_minimal]


@settings(max_examples=200, deadline=None)
@given(color_rows())
def test_witness_within_the_ray_sum(case):
    # the rows carry a positive solution exactly when their ray sum is positive
    rows, width = case
    assert all(ray_sum(rows, width)) == fm_feasible(rows, width)


@settings(max_examples=300, deadline=None)
@given(color_rows())
def test_ray_supports_keep_positive_columns(case):
    # what the zero sets give, against the ray vectors themselves, and the
    # nonzero columns of each row
    rows, width = case
    cone = _ray_supports(rows, width)
    positive = {}
    for ray, _ in _cone_rays(len(rows), [tuple(r[j] for r in rows) for j in range(width)]):
        s = sum(1 << d for d, x in enumerate(ray) if x)
        pairing = [sum(x * r[j] for x, r in zip(ray, rows)) for j in range(width)]
        positive[s] = positive.get(s, 0) | sum(1 << j for j, v in enumerate(pairing) if v > 0)
    assert sorted(cone.supports) == sorted(positive)
    order = [(s.bit_count(), tuple(d for d in range(len(rows)) if s >> d & 1))
             for s in cone.supports]
    assert order == sorted(order)
    assert [positive[s] for s in cone.supports] == list(cone.positive)
    assert list(cone.touched) == [sum(1 << j for j, x in enumerate(r) if x) for r in rows]


# fraction_kernel_rays sweeps the supports by increasing size, one RREF per
# support; a column outside the bitmask is closed by its unit equation e_j
@settings(max_examples=300, deadline=None)
@given(color_rows(), st.data())
def test_kernel_rays_match_support_sweep(case, data):
    rows, width = case
    columns = data.draw(st.integers(0, (1 << width) - 1), label="columns")
    closed = tuple(tuple(int(k == j) for k in range(width))
                   for j in range(width) if not columns >> j & 1)
    assert (generators_or_error(_kernel_rays, rows, columns, width)
            == generators_or_error(fraction_kernel_rays, rows + closed, width))


def assert_sweep_matches_references(spec):
    decided = {}
    checked = 0
    for sys in census(spec).systems:
        rows = tuple(c.row for c in colors(sys).colors)
        got = [(d.members, d.minimal) for d in enumerate_distinguished(sys)]
        assert got == fm_distinguished(rows, sys.rank, lambda m: is_distinguished(sys, m),
                                       decided), sys.key()
        for members, _ in got:
            sub = tuple(rows[i] for i in members)
            assert (generators_or_error(_kernel_rays, sub, (1 << sys.rank) - 1, sys.rank)
                    == generators_or_error(fraction_kernel_rays, sub, sys.rank))
            checked += 1
    return checked


def test_sweep_matches_references_small():
    assert sum(assert_sweep_matches_references(spec) for spec in ("A3", "B3", "A1xG2")) > 0


@pytest.mark.slow
def test_sweep_matches_references_d5():
    assert assert_sweep_matches_references("D5") == 48362
