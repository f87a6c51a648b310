"""Exhaustive enumeration of spherical systems of a root system."""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from typing import Dict, FrozenSet, Iterable, List, Sequence, Tuple

from .rootsys import RootSystem, build_root_system, diagram_automorphisms
from .sphroots import SphericalRoot, sp_of, spherical_roots_of, spp_of
from .quotient import _mask
from .system import (SphericalSystem, _a1_ok, _a2_ok, _proportional, _relabel,
                     _sigma1_ok, _sigma2_ok, _simple_columns, make_system)

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
    """All multisets of rows satisfying (A1)-(A3) for the given sigma.

    Rows are returned as sorted tuples over the given sigma order; two rows
    are the same color exactly when they are equal as vectors.

    The owners (the simple roots in sigma) are taken in order, and each row
    is placed at the first owner with a 1 in its column. At an owner, the
    rows already placed with a 1 in its column decide its pair A(alpha):
    two are the pair, one forces its partner <alpha^vee, Sigma> - row, and
    with none the pair is chosen among those whose 1s fall only in the
    columns of owners not yet taken. After each step a forward check ends
    the branch as soon as a later owner can no longer complete its pair.
    """
    col_of = _simple_columns(sigma)
    cols = [col_of[a] for a in sorted(col_of)]
    wants = [tuple(s.pairings[a] for s in sigma) for a in sorted(col_of)]
    m = len(cols)
    # opened[i][j]: whether column j may hold a 1 in a row placed at owner i or later
    opened = [[j in cols[i:] for j in range(len(sigma))] for i in range(m + 1)]

    def partner(i: int, row: Row) -> Row:
        return tuple(w - v for w, v in zip(wants[i], row))

    def fresh_pairs(i: int) -> List[Tuple[Row, ...]]:
        # (A1) on both rows of the pair, column by column
        ranges = [[1] if j == cols[i] else
                  [v for v in range(w - 1, 2) if _a1_ok(v, o) and _a1_ok(w - v, o)]
                  for j, (w, o) in enumerate(zip(wants[i], opened[i]))]
        return [(p, partner(i, p)) for p in product(*ranges) if p <= partner(i, p)]

    fresh = [fresh_pairs(i) for i in range(m)]

    def completable(rows: List[Row], b: int, i: int) -> bool:
        # whether owner b can still complete its pair once owners before i are taken
        mine = [r for r in rows if r[cols[b]] == 1]
        if len(mine) == 1:
            return all(_a1_ok(v, o) for v, o in zip(partner(b, mine[0]), opened[i]))
        return not mine or _a2_ok(mine, wants[b])

    results: List[Tuple[Row, ...]] = []

    def rec(i: int, placed: List[Row]):
        # every owner from i on passed `completable` against placed
        if i == m:
            results.append(tuple(sorted(placed)))
            return
        mine = [r for r in placed if r[cols[i]] == 1]
        for new in (fresh[i] if not mine else
                    [(partner(i, mine[0]),)] if len(mine) == 1 else [()]):
            grown = placed + list(new)
            if all(completable(grown, b, i + 1) for b in range(i + 1, m)):
                rec(i + 1, grown)

    rec(0, [])
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
    through `enumerate_a_matrices`. So no candidate is validated
    afterwards, and no triple is built twice: only the classes modulo
    diagram automorphisms need deduplicating. The A-matrices depend on
    sigma alone, so they are enumerated once per sigma and shared by its
    S^p choices.
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
