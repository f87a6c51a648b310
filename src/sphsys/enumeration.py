"""Exhaustive enumeration of spherical systems of a root system."""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .rootsys import RootSystem, build_root_system, diagram_automorphisms
from .sphroots import SphericalRoot, sp_of, spherical_roots_of, spp_of
from .system import (SphericalSystem, _a1_ok, _proportional, _relabel,
                     _sigma1_ok, _sigma2_ok, make_system)

Row = Tuple[int, ...]


@dataclass(frozen=True)
class CensusReport:
    rs: RootSystem
    systems: Tuple[SphericalSystem, ...]
    by_rank: Dict[int, int]

    @property
    def total(self) -> int:
        return len(self.systems)

    def diff(self, expected: Dict[int, int]) -> Dict[int, Tuple[int, int]]:
        """Per-rank (got, expected) for every rank where they differ."""
        ranks = set(self.by_rank) | set(expected)
        return {r: (self.by_rank.get(r, 0), expected.get(r, 0))
                for r in sorted(ranks)
                if self.by_rank.get(r, 0) != expected.get(r, 0)}


def _pair_ok(s: SphericalRoot, t: SphericalRoot) -> bool:
    """Whether {s, t} can coexist in Sigma: the pairwise axioms of `system`."""
    return not _proportional(s, t) and all(
        _sigma1_ok(x, y) and _sigma2_ok(x, y) for x, y in ((s, t), (t, s)))


def _mask(indices: FrozenSet[int]) -> int:
    return sum(1 << i for i in indices)


def _sigma_candidates(rs: RootSystem) -> List[Tuple[Tuple[SphericalRoot, ...], int, int]]:
    """All (sigma, low, high) with sigma's pairwise constraints holding and
    its S^p interval [low, high] (bitmasks over S) nonempty.

    low only grows and high only shrinks as roots are added, so a subset
    whose interval is empty has no extension with a nonempty one: the
    depth-first search prunes it together with its subtree.
    """
    roots = spherical_roots_of(rs)
    k = len(roots)
    compat = [0] * k  # bitmask of the roots compatible with roots[i]
    for i, j in combinations(range(k), 2):
        if _pair_ok(roots[i], roots[j]):
            compat[i] |= 1 << j
            compat[j] |= 1 << i
    low_of = [_mask(spp_of(rs, s)) for s in roots]
    high_of = [_mask(sp_of(rs, s)) for s in roots]
    out: List[Tuple[Tuple[SphericalRoot, ...], int, int]] = []

    def rec(chosen: List[int], allowed: int, low: int, high: int):
        # allowed: roots after the last chosen one, compatible with all chosen
        out.append((tuple(roots[i] for i in chosen), low, high))
        while allowed:
            bit = allowed & -allowed
            allowed ^= bit
            i = bit.bit_length() - 1
            lo, hi = low | low_of[i], high & high_of[i]
            if not lo & ~hi:
                rec(chosen + [i], allowed & compat[i], lo, hi)

    rec([], (1 << k) - 1, 0, (1 << rs.rank) - 1)
    return out


def _sp_choices(rank: int, low: int, high: int) -> List[FrozenSet[int]]:
    """Every parabolic subset in the interval [low, high] of bitmasks."""
    base = frozenset(i for i in range(rank) if low >> i & 1)
    free = [i for i in range(rank) if (high & ~low) >> i & 1]
    out = []
    for size in range(len(free) + 1):
        for extra in combinations(free, size):
            out.append(base | frozenset(extra))
    return out


def enumerate_a_matrices(sigma: Sequence[SphericalRoot]) -> List[Tuple[Row, ...]]:
    """All multisets of rows satisfying the axioms for the given sigma.

    Rows are returned as sorted tuples over the given sigma order; two rows
    are the same color exactly when they are equal as vectors.
    """
    r = len(sigma)
    simple_cols: Dict[int, int] = {}
    for col, s in enumerate(sigma):
        if s.height == 1:
            simple_cols[s.coeffs.index(1)] = col
    owners = sorted(simple_cols)
    if not owners:
        return [()]
    cols_simple = set(simple_cols.values())
    cols = [simple_cols[a] for a in owners]

    def pair_choices(alpha: int) -> List[Tuple[Row, Row]]:
        col = simple_cols[alpha]
        cart = tuple(s.pairings[alpha] for s in sigma)
        ranges = []
        for j in range(r):
            if j == col:
                ranges.append([1])
                continue
            # v and the partner's cart[j] - v are both at most 1
            simple = j in cols_simple
            ranges.append([v for v in range(cart[j] - 1, 2)
                           if _a1_ok(v, simple) and _a1_ok(cart[j] - v, simple)])
        pairs = []
        for row in product(*ranges):
            partner = tuple(c - v for c, v in zip(cart, row))
            if row <= partner:
                pairs.append((row, partner))
        return pairs

    # Every row of a pair has value 1 at its owner's column. So the choices
    # of owners a and b agree (each row shared by A(a) and A(b) has one
    # multiplicity) exactly when the rows of A(a) with value 1 at b's column
    # and the rows of A(b) with value 1 at a's column are equal multisets.
    # The two rows of A(a) sum to <alpha_a^vee, alpha_b> <= 0 at b's
    # column, so each multiset holds at most one row: the key of the
    # choice against b.
    # With owners numbered by position in `owners`, keys[a][c][b] is that
    # key for choice c of owner a, and index[a][b] maps each key to the
    # bitmask of owner a's choices that carry it.
    choices = [pair_choices(a) for a in owners]
    m = len(owners)
    keys = [[[p if p[col] == 1 else q if q[col] == 1 else None for col in cols]
             for p, q in ch] for ch in choices]
    index: List[List[Dict[Optional[Row], int]]] = [[{} for _ in range(m)] for _ in range(m)]
    for a in range(m):
        for c, key in enumerate(keys[a]):
            for b in range(m):
                index[a][b][key[b]] = index[a][b].get(key[b], 0) | 1 << c
    results: List[Tuple[Row, ...]] = []

    def rec(assign: List[Tuple[Row, Row]], allowed: List[int]):
        # allowed[b]: owner b's choices that agree with every owner assigned
        i = len(assign)
        if i == m:
            # a row lies in the pair of every owner it has a 1 for, with one
            # multiplicity (two owners share at most one row, and a doubled
            # row has its only 1 at its owner): count it at its first owner
            results.append(tuple(sorted(
                row for k, pa in enumerate(assign) for row in pa
                if all(row[c] != 1 for c in cols[:k]))))
            return
        todo = allowed[i]
        while todo:
            bit = todo & -todo
            todo ^= bit
            c = bit.bit_length() - 1
            later = [allowed[b] & index[b][i].get(keys[i][c][b], 0) for b in range(i + 1, m)]
            # an owner left without choices ends the branch now, not at its turn
            if all(later):
                assign.append(choices[i][c])
                rec(assign, allowed[:i + 1] + later)
                assign.pop()

    rec([], [(1 << len(ch)) - 1 for ch in choices])
    return results


def canonical_form(sys: SphericalSystem) -> SphericalSystem:
    """The least image of sys, by key, under the diagram automorphisms.

    Relabeling by p gives the image under p^-1; the automorphisms form a
    group, so the images are the same set.
    """
    return min((_relabel(sys, sys.rs, p) for p in diagram_automorphisms(sys.rs)),
               key=SphericalSystem.key)


def enumerate_systems(rs: RootSystem, mod_diagram_auts: bool = False) -> CensusReport:
    """All spherical systems of rs, grouped by rank.

    The search only builds triples that satisfy the axioms: the pairwise
    ones through `_pair_ok`, (S) through the S^p interval, (A1)-(A3)
    through `pair_choices`. So no candidate is validated afterwards, and
    no triple is built twice: only the classes modulo diagram automorphisms
    need deduplicating. The A-matrices depend on sigma alone, so they are
    enumerated once per sigma and shared by its S^p choices.
    """
    built: Iterable[SphericalSystem] = (
        make_system(rs, [s.coeffs for s in sigma], sp, rows)
        for sigma, low, high in _sigma_candidates(rs)
        for rows in enumerate_a_matrices(sigma)
        for sp in _sp_choices(rs.rank, low, high))
    if mod_diagram_auts:
        built = {canonical_form(s) for s in built}
    systems = tuple(sorted(built, key=lambda s: s.key()))
    by_rank: Dict[int, int] = {}
    for s in systems:
        by_rank[s.rank] = by_rank.get(s.rank, 0) + 1
    return CensusReport(rs=rs, systems=systems, by_rank=by_rank)


@lru_cache(maxsize=None)
def census(spec: str, mod_diagram_auts: bool = False) -> CensusReport:
    """Cached full census for a root system spec string."""
    return enumerate_systems(build_root_system(spec),
                             mod_diagram_auts=mod_diagram_auts)
