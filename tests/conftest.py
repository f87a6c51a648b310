"""Shared fixtures: root systems and the F4 census, computed once per
session; the multiplicity solver on a single target; the orbit of a count
vector under the color-swap group; the minimal distinguished subsets a
closed system's profile holds; and the JSON document of a system, dumped
whole."""

import json

import pytest

from sphsys import build_root_system, make_system
from sphsys.closure import _plan, _solve
from sphsys.enumeration import census
from sphsys.quotient import _members


def multiplicities_with_weight(weights, target):
    """All multiplicity vectors m, in lexicographic order, with
    sum_i m_i * weights[i] == target. Each weight is a list of (j, w_j) with
    w_j > 0 in ascending j, as `closure._profile` builds them; a color of
    weight zero only takes multiplicity 0."""
    plan = _plan(tuple(map(tuple, weights)), len(target))
    return [counts for counts, _ in _solve(plan, target, {})]


def gamma_orbit(group, counts):
    """Every product of a subset of the swaps of a `GammaGroup` applied to
    counts (the swaps are disjoint, so they commute)."""
    out = {tuple(counts)}
    for i, j in group.swaps:
        out |= {tuple(c[j] if k == i else c[i] if k == j else x
                      for k, x in enumerate(c)) for c in out}
    return out


def minimal_supports(profile):
    """Every minimal distinguished subset of a closed system as a color
    bitmask, by size and then members, from its `closure._Profile`: the
    projective singletons, then the face cone's supports (`faces`)."""
    return tuple(1 << i for i in _members(profile.projective)) + profile.faces()


def reference_emit(sys):
    """The document `emit_system` writes, built as a dict and dumped whole
    with sorted keys: the reference for the text it assembles from parts."""
    doc = {
        "version": "1",
        "root_system": {"components": [{"type": l, "rank": r} for l, r, _ in sys.rs.components]},
        "system": {
            "sigma": [list(s.coeffs) for s in sys.sigma],
            "sp": sorted(sys.sp),
            "a_rows": [list(r) for r in sys.a_rows],
        },
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


@pytest.fixture(scope="session")
def f4():
    return build_root_system("F4")


@pytest.fixture(scope="session")
def f4_census():
    return census("F4")


@pytest.fixture(scope="session")
def a3_census():
    return census("A3")


@pytest.fixture(scope="session")
def rank1_omega4(f4):
    # the unique rank-1 system whose spherical root is the highest short root
    return make_system(f4, [(1, 2, 3, 2)], [0, 1, 2], [])
