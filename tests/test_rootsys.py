"""Root system construction, recognition, weights, and parabolic gradings."""

from fractions import Fraction
from itertools import permutations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphsys.rootsys import (
    ParabolicGrading,
    _admits,
    _cone_rays,
    build_root_system,
    cartan_eval,
    dual_weight,
    fundamental_weights,
    parabolic_grading,
    recognize,
    sub_root_system,
    weight_coords,
)


def test_f4_cartan_matrix(f4):
    assert f4.cartan == (
        (2, -1, 0, 0),
        (-1, 2, -1, 0),
        (0, -2, 2, -1),
        (0, 0, -1, 2),
    )


def test_f4_positive_root_count(f4):
    assert len(f4.positive_roots) == 24


@pytest.mark.parametrize(
    "name,count",
    [("A3", 6), ("B3", 9), ("C3", 9), ("D4", 12), ("G2", 6), ("A1xA2", 4)],
)
def test_positive_root_counts(name, count):
    assert len(build_root_system(name).positive_roots) == count


def test_f4_highest_roots(f4):
    # highest root and highest short root in simple-root coordinates
    assert f4.positive_roots[-1] == (2, 3, 4, 2)
    assert (1, 2, 3, 2) in f4.positive_roots


def test_f4_fundamental_weights(f4):
    assert fundamental_weights(f4) == [
        (2, 3, 4, 2),
        (3, 6, 8, 4),
        (2, 4, 6, 3),
        (1, 2, 3, 2),
    ]


def test_cartan_eval_rows(f4):
    assert [cartan_eval(f4, i, (1, 2, 3, 2)) for i in range(4)] == [0, 0, 0, 1]
    assert [cartan_eval(f4, i, (2, 3, 4, 2)) for i in range(4)] == [1, 0, 0, 0]


def test_recognize_components():
    rs = build_root_system("A1xA2")
    assert recognize(rs.cartan, (0, 1, 2)) == [("A1", (0,)), ("A2", (1, 2))]


def test_recognize_rejects_a_block_of_no_finite_type():
    # the affine A2 block: a cycle of three simple roots
    affine = [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]
    with pytest.raises(ValueError, match=r"^unrecognizable Cartan block on \[0, 1, 2\]$"):
        recognize(affine, [0, 1, 2])


def test_rank_rules_are_stated_once():
    # a letter and a rank build a root system exactly when `_admits` the
    # pair, and `recognize` names each admitted type from its own Cartan matrix
    admitted = []
    for letter in "ABCDEFG":
        for n in range(10):
            spec = f"{letter}{n}"
            if not _admits(letter, n):
                with pytest.raises(ValueError, match=f"no irreducible type {spec}"):
                    build_root_system(spec)
                continue
            rs = build_root_system(spec)
            assert rs.name == spec and rs.rank == n
            assert recognize(rs.cartan, range(n)) == [(spec, tuple(range(n)))]
            admitted.append(spec)
    assert len(admitted) == 9 + 8 + 7 + 6 + 3 + 1 + 1


def test_empty_spec_is_rank_zero(f4):
    rs = build_root_system("")
    assert (rs.rank, rs.components, rs.positive_roots) == (0, (), ())
    assert not rs.is_positive_root(())
    assert sub_root_system(f4, ()) == (rs, ())
    for spec in ("A3x", "x", "A0"):
        with pytest.raises(ValueError):
            build_root_system(spec)


def test_sub_root_system_c3(f4):
    sub, embed = sub_root_system(f4, (1, 2, 3))
    assert sub.name == "C3"
    assert embed == (3, 2, 1)


def test_sub_root_system_b3(f4):
    sub, embed = sub_root_system(f4, (0, 1, 2))
    assert sub.name == "B3"
    assert embed == (0, 1, 2)


@pytest.mark.parametrize(
    "omit,levi,dims",
    [
        (0, "C3", (14, 1)),
        (1, "A1xA2", (12, 6, 2)),
        (2, "A2xA1", (6, 9, 2, 3)),
        (3, "B3", (8, 7)),
    ],
)
def test_f4_parabolic_gradings(f4, omit, levi, dims):
    g = parabolic_grading(f4, omit)
    assert isinstance(g, ParabolicGrading)
    assert g.levi == levi
    assert g.dims == dims


@pytest.mark.parametrize("keep,alpha", [([-1], -1), ([0, 4], 4), ([7], 7), ([0, 3, -1], -1)])
def test_simple_root_indices_are_checked(f4, keep, alpha):
    # a negative index would wrap to the last simple root
    with pytest.raises(ValueError, match=rf"simple root indices \[.*{alpha}.*\] outside 0\.\.3"):
        recognize(f4.cartan, keep)
    with pytest.raises(ValueError, match=rf"simple root indices \[.*{alpha}.*\] outside 0\.\.3"):
        sub_root_system(f4, keep)
    with pytest.raises(ValueError, match=rf"simple root index {alpha} outside 0\.\.3"):
        parabolic_grading(f4, alpha)


def test_dual_weight_type_a():
    # weights given in fundamental-weight coordinates
    assert dual_weight(build_root_system("A3"), (1, 0, 0)) == (0, 0, 1)
    assert dual_weight(build_root_system("A3"), (0, 1, 0)) == (0, 1, 0)


def test_dual_weight_type_d5():
    rs = build_root_system("D5")
    assert dual_weight(rs, (0, 0, 0, 1, 0)) == (0, 0, 0, 0, 1)
    assert dual_weight(rs, (1, 0, 0, 0, 0)) == (1, 0, 0, 0, 0)


def test_dual_weight_f4_fixed(f4):
    for i in range(4):
        e = tuple(int(i == j) for j in range(4))
        assert dual_weight(f4, e) == e


def test_dual_weight_matches_longest_element_oracle():
    # -w0(weight) computed by repeatedly reflecting to the dominant chamber
    for name in ("A3", "A5", "B3", "B5", "C4", "D4", "D5", "D6", "D7", "E6", "E7", "E8",
                 "F4", "G2", "A2xA3", "D5xA1"):
        rs = build_root_system(name)
        n = len(rs.cartan)
        for k, w in enumerate(fundamental_weights(rs)):
            v = tuple(-x for x in w)
            moved = True
            while moved:
                moved = False
                for i in range(n):
                    c = cartan_eval(rs, i, v)
                    if c < 0:
                        v = tuple(
                            v[j] - (c if j == i else 0) for j in range(n)
                        )
                        moved = True
            e = tuple(int(k == j) for j in range(n))
            assert dual_weight(rs, e) == weight_coords(rs, v)


def test_weight_coords_exact(f4):
    # simple root alpha1 in fundamental-weight coordinates is its Cartan row
    assert weight_coords(f4, (1, 0, 0, 0)) == (
        Fraction(2),
        Fraction(-1),
        Fraction(0),
        Fraction(0),
    )


ALL_TYPES_THROUGH_E8 = (
    [f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 9)]
    + [f"C{n}" for n in range(3, 9)] + [f"D{n}" for n in range(4, 9)]
    + ["E6", "E7", "E8", "F4", "G2", "", "A2xA1", "B3xA1", "A1xG2", "D4xA2", "A1xA1xA1"])


@pytest.mark.parametrize("spec", ALL_TYPES_THROUGH_E8)
def test_fundamental_weights_invert_the_cartan_matrix(spec):
    # the inverse is unique, so C . omega_k = e_k pins every weight exactly
    rs = build_root_system(spec)
    weights = fundamental_weights(rs)
    assert len(weights) == rs.rank
    for k, w in enumerate(weights):
        assert all(type(x) is Fraction for x in w)
        assert [cartan_eval(rs, i, w) for i in range(rs.rank)] == \
            [int(i == k) for i in range(rs.rank)]


def _brute_force_automorphisms(rs):
    """The n! reference: every permutation of S that preserves the Cartan
    matrix, in lexicographic order."""
    n = rs.rank
    return tuple(p for p in permutations(range(n))
                 if all(rs.cartan[p[i]][p[j]] == rs.cartan[i][j]
                        for i in range(n) for j in range(n)))


@pytest.mark.parametrize(
    "spec",
    [f"A{n}" for n in range(1, 7)] + [f"B{n}" for n in range(2, 7)]
    + [f"C{n}" for n in range(3, 7)] + [f"D{n}" for n in range(4, 7)]
    + ["E6", "F4", "G2", "", "A2xA2", "A1xA1xA1", "D4xA1"])
def test_diagram_automorphisms_match_brute_force(spec):
    rs = build_root_system(spec)
    assert rs.automorphisms == _brute_force_automorphisms(rs)


@pytest.mark.parametrize("spec,order", [("E8", 1), ("A8", 2), ("D4", 6), ("A2xA2xA2", 48)])
def test_diagram_automorphism_group_orders(spec, order):
    auts = build_root_system(spec).automorphisms
    assert len(auts) == order
    assert auts[0] == tuple(range(len(auts[0])))


def test_sub_root_system_does_not_list_its_automorphisms():
    # every other simple root of A23 spans A1^12, whose group has 12! elements:
    # building it must not list them, reading them must
    sub, embedding = sub_root_system(build_root_system("A23"), range(0, 23, 2))
    assert sub.name == "x".join(["A1"] * 12)
    assert embedding == tuple(range(0, 23, 2))
    assert "automorphisms" not in vars(sub)
    small = build_root_system("A1xA1xA1")
    assert len(small.automorphisms) == 6
    assert "automorphisms" in vars(small)


def rays(width, inequalities, equations=()):
    """The rays of `_cone_rays`, without their zero sets."""
    return [r for r, _ in _cone_rays(width, inequalities, equations)]


def test_cone_rays_of_the_orthant():
    assert rays(3, ()) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert rays(0, ()) == []
    # an inequality every ray satisfies leaves the rays alone
    assert sorted(rays(2, [(1, 2)])) == [(0, 1), (1, 0)]


def test_cone_rays_skip_a_non_adjacent_pair():
    # x0 + x1 >= x2 cuts the orthant to a cone over a quadrilateral, with
    # rays e0, e1, (1,0,1), (0,1,1); e0 and (0,1,1) are opposite corners.
    # x0 >= x1 + x2 puts e0 on its positive side and e1, (0,1,1) on its
    # negative side: the pair (e0, (0,1,1)) would add (2,1,1), which is
    # (1,0,1) + (1,1,0) and not extreme
    assert sorted(rays(3, [(1, 1, -1)])) == [(0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 0, 1)]
    assert sorted(rays(3, [(1, 1, -1), (1, -1, -1)])) == [(1, 0, 0), (1, 0, 1), (1, 1, 0)]


def test_cone_rays_of_a_kernel_cone():
    assert sorted(rays(3, (), [(2, -3, 0)])) == [(0, 0, 1), (3, 2, 0)]
    # x0 + x1 = x2 + x3: a cone over a square, with four rays
    assert sorted(rays(4, (), [(1, 1, -1, -1)])) == [
        (0, 1, 0, 1), (0, 1, 1, 0), (1, 0, 0, 1), (1, 0, 1, 0)]
    # x0 >= x1 on the plane x0 + x1 = 2 x2, whose rays are (2,0,1) and (0,2,1)
    assert sorted(rays(3, [(1, -1, 0)], [(1, 1, -2)])) == [(1, 1, 1), (2, 0, 1)]
    assert rays(2, (), [(1, 0), (0, 1)]) == []


def test_cone_rays_of_a_lower_dimensional_cone():
    # x0 >= x1 and x1 >= x0: the half-line x0 = x1
    assert rays(2, [(1, -1), (-1, 1)]) == [(1, 1)]
    assert rays(3, [(1, -1, 0), (-1, 1, 0)]) == [(0, 0, 1), (1, 1, 0)]
    assert rays(3, [(1, -1, 0), (-1, 1, 0), (0, -1, 1)]) == [(0, 0, 1), (1, 1, 1)]


# Frozen copy of the double description before it split the rays by sign
# once per constraint, stopped the adjacency count at a third ray and skipped
# pairs with fewer than width - 2 common tight constraints. The current
# routine must return the same rays in the same order.

def _reference_cone_rays(width, inequalities, equations=()):
    full = (1 << width) - 1
    rays = [(tuple(int(i == j) for i in range(width)), full ^ (1 << j)) for j in range(width)]
    constraints = [(c, False) for c in inequalities] + [(c, True) for c in equations]
    for t, (c, equation) in enumerate(constraints):
        bit = 1 << (width + t)
        signed = [(sum(a * x for a, x in zip(c, r)), r, z) for r, z in rays]
        nxt = [(r, z | bit) for v, r, z in signed if v == 0]
        if not equation:
            nxt += [(r, z) for v, r, z in signed if v > 0]
        for vp, rp, zp in signed:
            if vp <= 0:
                continue
            for vn, rn, zn in signed:
                if vn >= 0:
                    continue
                common = zp & zn
                if sum(z & common == common for _, z in rays) == 2:
                    ray = [vp * y - vn * x for x, y in zip(rp, rn)]
                    g = gcd(*ray)
                    nxt.append((tuple(x // g for x in ray), common | bit))
        rays = nxt
    return [r for r, _ in rays]


@st.composite
def cones(draw):
    width = draw(st.integers(0, 5))
    row = st.tuples(*[st.integers(-3, 3)] * width)
    inequalities = draw(st.lists(row, max_size=5))
    # the negation of an inequality makes its hyperplane an implicit
    # equation, so the cone is lower-dimensional
    flipped = draw(st.lists(st.sampled_from(inequalities), max_size=2)) if inequalities else []
    inequalities += [tuple(-a for a in c) for c in flipped]
    equations = draw(st.lists(row, max_size=2))
    return width, inequalities, equations


@settings(max_examples=300, deadline=None)
@given(cones())
def test_cone_rays_match_the_reference(cone):
    width, inequalities, equations = cone
    got = _cone_rays(width, inequalities, equations)
    assert [r for r, _ in got] == _reference_cone_rays(width, inequalities, equations)
    # each zero set holds exactly the constraints its ray is tight on
    constraints = [tuple(int(i == j) for i in range(width)) for j in range(width)]
    constraints += list(inequalities) + list(equations)
    for ray, z in got:
        assert z == sum(1 << t for t, c in enumerate(constraints)
                        if sum(a * x for a, x in zip(c, ray)) == 0)
