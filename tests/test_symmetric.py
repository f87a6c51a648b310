"""Symmetric varieties as an oracle independent of the census search.

A real form of G with Satake diagram (S_0, eps) gives the symmetric variety
G/N(G^theta), with theta = -w_{S_0} o eps on the roots. Its spherical system
has Sigma = {alpha - theta(alpha) : alpha white}, S^p = S_0 and A empty (De
Concini-Procesi, *Complete symmetric varieties*, 1983; Vust, 1990).

The Satake diagrams are the admissible pairs (Araki, 1962; Helgason, ch. X):
eps is an involutive diagram automorphism with eps(S_0) = S_0, -w_{S_0}
equals eps on S_0, and <2 rho^vee_{S_0}, alpha> is even for every white
alpha that eps fixes. Up to diagram automorphisms there is one system per
real form, compact included, and its rank is the real rank. The test
computes all of this itself, w_{S_0} from simple reflections on integer
vectors; only the system built at the end goes through `sphsys`.
"""
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import pytest

from sphsys.enumeration import canonical_form, census
from sphsys.rootsys import build_root_system, cartan_eval
from sphsys.system import dimension, make_system, validate

# The real ranks of the real forms of each type, up to diagram automorphisms:
# su(p,q), sl(m,H); so(p,q), so*(2n); sp(2n,R), sp(p,q); the exceptional
# forms from the standard tables.
REAL_RANKS = {
    "A1": [0, 1], "A2": [0, 1, 2], "A3": [0, 1, 1, 2, 3], "A4": [0, 1, 2, 4],
    "B3": [0, 1, 2, 3], "B4": [0, 1, 2, 3, 4], "C3": [0, 1, 3], "C4": [0, 1, 2, 4],
    "D4": [0, 1, 2, 3, 4], "D5": [0, 1, 2, 2, 3, 4, 5], "D6": [0, 1, 2, 3, 3, 4, 5, 6],
    "G2": [0, 2], "F4": [0, 1, 4], "E6": [0, 2, 2, 4, 6], "E7": [0, 3, 4, 7],
    "E8": [0, 4, 8],
}
# (real rank, dim G - dim K) per real form, from the tables of dim K:
# F4 compact, FII (so(9)), FI (sp(3) + su(2)); E6 compact, EIV (f4), EIII
# (so(10) + u(1)), EII (su(6) + su(2)), EI (sp(4)); E7 compact, EVII, EVI,
# EV; E8 compact, EIX, EVIII.
DIMENSIONS = {
    "F4": [(0, 0), (1, 16), (4, 28)],
    "E6": [(0, 0), (2, 26), (2, 32), (4, 40), (6, 42)],
    "E7": [(0, 0), (3, 54), (4, 64), (7, 70)],
    "E8": [(0, 0), (4, 112), (8, 128)],
}
IN_CENSUS = ["A1", "A2", "A3", "A4", "B3", "B4", "C3", "C4", "D4", "D5", "D6",
             "G2", "F4", "E6", pytest.param("E7", marks=pytest.mark.slow)]


def _reflect(rs, i, v):
    """s_i(v) for v in simple-root coordinates."""
    v = list(v)
    v[i] -= cartan_eval(rs, i, v)
    return tuple(v)


def _longest(rs, black):
    """w_{S_0} as a function on vectors: a reduced word, found by reflecting
    2 rho_{S_0} while it pairs positively with a simple root of S_0."""
    positive = [g for g in rs.positive_roots
                if all(c == 0 or j in black for j, c in enumerate(g))]
    u = tuple(map(sum, zip(*positive))) if positive else (0,) * rs.rank
    word = []
    while True:
        i = next((i for i in sorted(black) if cartan_eval(rs, i, u) > 0), None)
        if i is None:
            break
        u = _reflect(rs, i, u)
        word.append(i)

    def w(v):
        for i in word:
            v = _reflect(rs, i, v)
        return v
    return w, positive


def _norms(rs):
    """(alpha_i, alpha_i) up to a common factor, for an irreducible rs."""
    d = {0: Fraction(1)}
    while len(d) < rs.rank:
        for i, j in [(i, j) for i in list(d) for j in range(rs.rank)
                     if j not in d and rs.cartan[i][j]]:
            d[j] = d[i] * rs.cartan[i][j] / rs.cartan[j][i]
    return d


def _coroot_pairing(rs, d, g, v):
    """<g^vee, v> = 2 (g, v) / (g, g)."""
    def form(x, y):
        return sum(x[i] * y[j] * d[i] * rs.cartan[i][j] for i in range(rs.rank)
                   for j in range(rs.rank))
    return 2 * form(g, v) / form(g, g)


def _unit(n, i, c=1):
    return tuple(c if j == i else 0 for j in range(n))


@lru_cache(maxsize=None)
def symmetric_systems(name):
    """The spherical systems of the Satake diagrams of `name`, one per class
    under diagram automorphisms, sorted by key."""
    rs = build_root_system(name)
    n, d = rs.rank, _norms(rs)
    out = set()
    for eps in rs.automorphisms:
        if any(eps[eps[i]] != i for i in range(n)):
            continue
        for size in range(n + 1):
            for black in map(set, combinations(range(n), size)):
                if {eps[b] for b in black} != black:
                    continue
                w, positive = _longest(rs, black)
                if any(w(_unit(n, b)) != _unit(n, eps[b], -1) for b in black):
                    continue
                white = [a for a in range(n) if a not in black]
                if any(eps[a] == a and sum(_coroot_pairing(rs, d, g, _unit(n, a))
                                           for g in positive) % 2
                       for a in white):
                    continue
                # alpha - theta(alpha) = alpha + w_{S_0}(eps(alpha))
                sigma = {tuple(x + y for x, y in zip(_unit(n, a), w(_unit(n, eps[a]))))
                         for a in white}
                out.add(canonical_form(make_system(rs, sorted(sigma), sorted(black), [])))
    return tuple(sorted(out, key=lambda s: s.key()))


@pytest.mark.parametrize("name", sorted(REAL_RANKS))
def test_one_valid_system_per_real_form(name):
    systems = symmetric_systems(name)
    assert sorted(s.rank for s in systems) == REAL_RANKS[name]
    for s in systems:
        assert validate(s) == []
        assert s.a_rows == ()


@pytest.mark.parametrize("name", sorted(DIMENSIONS))
def test_dimension_is_dim_g_minus_dim_k(name):
    assert sorted((s.rank, dimension(s)) for s in symmetric_systems(name)) == DIMENSIONS[name]


@pytest.mark.parametrize("name", IN_CENSUS)
def test_symmetric_systems_are_in_the_census(name):
    keys = {s.key() for s in census(name).systems}
    assert all(s.key() in keys for s in symmetric_systems(name))
