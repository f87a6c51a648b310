"""Catalog of spherical roots per root system, supports and compatibility."""

from dataclasses import replace
from itertools import combinations

import pytest

from sphsys import rootsys, sphroots
from sphsys.enumeration import census
from sphsys.rootsys import build_root_system, cartan_eval, recognize
from sphsys.serialize import emit_system, parse_system
from sphsys.sphroots import (
    is_compatible,
    render_root,
    sp_of,
    spherical_root,
    spherical_roots_of,
    spp_of,
)

F4_SPHERICAL_ROOTS = {
    (1, 0, 0, 0): "a1",
    (0, 1, 0, 0): "a1",
    (0, 0, 1, 0): "a1",
    (0, 0, 0, 1): "a1",
    (2, 0, 0, 0): "2a1",
    (0, 2, 0, 0): "2a1",
    (0, 0, 2, 0): "2a1",
    (0, 0, 0, 2): "2a1",
    (1, 1, 0, 0): "a-sum",
    (0, 0, 1, 1): "a-sum",
    (1, 0, 1, 0): "a1xa1",
    (1, 0, 0, 1): "a1xa1",
    (0, 1, 0, 1): "a1xa1",
    (0, 1, 1, 0): "b-sum",
    (1, 1, 1, 0): "b-sum",
    (0, 2, 2, 0): "2b-sum",
    (2, 2, 2, 0): "2b-sum",
    (0, 1, 2, 1): "c-shape",
    (1, 2, 3, 0): "b3-triple",
    (1, 2, 3, 2): "f4-shape",
}


def test_f4_catalog_exact(f4):
    roots = spherical_roots_of(f4)
    assert {r.coeffs: r.shape for r in roots} == F4_SPHERICAL_ROOTS
    assert len(roots) == 20


# The D and E sizes are regression values of this engine, not reference
# values from the paper; each D4 support holds three d-shape roots.
@pytest.mark.parametrize(
    "name,count", [("A1", 2), ("A2", 5), ("A3", 11), ("B2", 6), ("G2", 7),
                   ("D4", 23), ("D5", 34), ("E6", 47), ("E8", 79), ("A20", 419)]
)
def test_catalog_sizes(name, count):
    assert len(spherical_roots_of(build_root_system(name))) == count


@pytest.mark.parametrize("name", ["A5", "D5", "E6", "F4", "B3xA1", "A2xG2"])
def test_catalog_recognizes_connected_subsets_only(name, monkeypatch):
    # the catalog grows connected supports one neighbour at a time instead of
    # recognizing all 2^n subsets; it still meets them in `combinations` order
    rs = build_root_system(name)
    connected = [sub for size in range(2, rs.rank + 1)
                 for sub in combinations(range(rs.rank), size)
                 if len(recognize(rs.cartan, sub)) == 1]
    catalog = spherical_roots_of(rs)
    seen = []

    def counted(cartan, indices):
        seen.append(tuple(indices))
        return recognize(cartan, indices)
    monkeypatch.setattr(sphroots, "recognize", counted)
    assert tuple(sphroots._by_vector.__wrapped__(rs).values()) == catalog
    assert seen == connected


@pytest.mark.parametrize(
    "name",
    [f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 9)]
    + [f"C{n}" for n in range(3, 9)] + [f"D{n}" for n in range(4, 9)]
    + ["E6", "E7", "E8", "F4", "G2", "D4xA1", "D5xD4"])
def test_catalog_closed_under_support_automorphisms(name):
    # the roots on a connected support are permuted by every automorphism
    # of that support's own Dynkin diagram
    rs = build_root_system(name)
    by_support = {}
    for sr in spherical_roots_of(rs):
        supp = tuple(i for i, c in enumerate(sr.coeffs) if c)
        by_support.setdefault(supp, set()).add(sr.coeffs)
    for supp, roots in by_support.items():
        comps = recognize(rs.cartan, supp)
        if len(comps) > 1:
            continue
        (tname, order), = comps
        for aut in build_root_system(tname).automorphisms:
            moved = set()
            for v in roots:
                w = [0] * rs.rank
                for i, a in enumerate(aut):
                    w[order[a]] = v[order[i]]
                moved.add(tuple(w))
            assert moved == roots


def test_catalog_finds_each_support_group_once(monkeypatch):
    # the diagram automorphisms of a support come with its root system, so
    # the A12 catalog searches at most one group per support type (A2..A12),
    # not one per connected subset (66); a group is the search of a Cartan
    # matrix onto itself over range(n), recognition searches a list of indices
    rs = build_root_system("A12")
    searches = []
    orders = rootsys._orders

    def counting(block, local, target):
        if isinstance(local, range):
            searches.append(len(local))
        return orders(block, local, target)

    monkeypatch.setattr(rootsys, "_orders", counting)
    tuple(sphroots._by_vector.__wrapped__(rs).values())
    assert len(searches) <= 11


def test_supports(f4):
    assert spherical_root(f4, (1, 2, 3, 2)).support == (0, 1, 2, 3)
    assert spherical_root(f4, (1, 0, 0, 1)).support == (0, 3)
    assert spherical_root(f4, (0, 2, 0, 0)).support == (1,)


def test_sp_and_spp_short_root_sum(f4):
    # sum over a B-type subdiagram: the short end of the support leaves spp
    sigma = spherical_root(f4, (0, 1, 1, 0))
    assert sp_of(sigma) == frozenset({2})
    assert spp_of(sigma) == frozenset()

    sigma = spherical_root(f4, (1, 1, 1, 0))
    assert sp_of(sigma) == frozenset({1, 2})
    assert spp_of(sigma) == frozenset({1})


def test_sp_and_spp_c_shape(f4):
    # the first support vertex (in the C-ordering of the subdiagram) leaves spp
    sigma = spherical_root(f4, (0, 1, 2, 1))
    assert sigma.shape == "c-shape"
    assert sp_of(sigma) == frozenset({1, 3})
    assert spp_of(sigma) == frozenset({1})


def test_sp_of_triple_and_full_roots(f4):
    sigma = spherical_root(f4, (1, 2, 3, 0))
    assert sp_of(sigma) == frozenset({0, 1})
    assert spp_of(sigma) == frozenset({0, 1})

    sigma = spherical_root(f4, (1, 2, 3, 2))
    assert sp_of(sigma) == frozenset({0, 1, 2})
    assert spp_of(sigma) == frozenset({0, 1, 2})


def test_compatibility_interval(f4):
    roots = spherical_roots_of(f4)
    for sigma in roots:
        assert is_compatible(sigma, sp_of(sigma))
        assert is_compatible(sigma, spp_of(sigma))
        assert not is_compatible(sigma, sp_of(sigma) | set(sigma.support))


def test_render_root(f4):
    assert render_root(spherical_root(f4, (1, 2, 3, 2))) == "a1+2a2+3a3+2a4"
    assert render_root(spherical_root(f4, (0, 0, 1, 0))) == "a3"
    assert render_root(spherical_root(f4, (0, 0, 0, 2))) == "2a4"


@pytest.mark.parametrize(
    "name",
    ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "B5", "C3", "C4", "C5",
     "D4", "D5", "E6", "G2", "F4", "A1xA1", "A2xA1", "A3xA1", "A2xA2",
     "B2xA1", "B3xA1", "A1xG2"],
)
def test_pairings_match_cartan_eval(name):
    rs = build_root_system(name)
    for sigma in spherical_roots_of(rs):
        assert sigma.pairings == tuple(
            cartan_eval(rs, i, sigma.coeffs) for i in range(rs.rank))


def test_pairings_take_no_part_in_equality(f4):
    for sigma in spherical_roots_of(f4):
        other = replace(sigma, pairings=tuple(v + 1 for v in sigma.pairings))
        assert other == sigma
        assert hash(other) == hash(sigma)
        assert "pairings" not in repr(sigma)


@pytest.mark.parametrize("name", ["F4", "B3xA1"])
def test_round_trip_keeps_pairings(name):
    for sys in census(name).systems:
        text = emit_system(sys)
        back = parse_system(text)
        assert back == sys
        assert emit_system(back) == text
        assert [s.pairings for s in back.sigma] == [s.pairings for s in sys.sigma]
