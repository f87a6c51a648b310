"""Exhaustive enumeration of spherical systems of a root system."""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations, product
from operator import sub
from typing import Dict, FrozenSet, List, Sequence, Tuple

from .rootsys import RootSystem, build_root_system
from .sphroots import SphericalRoot, sp_of, spherical_roots_of, spp_of
from .quotient import _mask
from .system import (SphericalSystem, _a1_ok, _a2_ok, _proportional, _relabel,
                     _sigma1_ok, _sigma2_ok, _simple_columns)

Row = Tuple[int, ...]


@dataclass(frozen=True)
class CensusReport:
    rs: RootSystem
    systems: Tuple[SphericalSystem, ...]

    @cached_property
    def by_rank(self) -> Dict[int, int]:
        return dict(Counter(s.rank for s in self.systems))

    @property
    def total(self) -> int:
        return len(self.systems)

    def diff(self, expected: Dict[int, int]) -> Dict[int, Tuple[int, int]]:
        """Per-rank (got, expected) for every rank where they differ."""
        ranks = set(self.by_rank) | set(expected)
        return {r: (self.by_rank.get(r, 0), expected.get(r, 0))
                for r in sorted(ranks)
                if self.by_rank.get(r, 0) != expected.get(r, 0)}


def _owner_ok(s: SphericalRoot, t: SphericalRoot) -> bool:
    """(A1) with (A2) at an owner: if s is a simple root alpha, the two rows
    of A(alpha) sum to <alpha^vee, t> in t's column. If t is not simple,
    (A1) keeps each row at most 0 there, so the sum is at most 0, and any
    such sum splits as 0 + sum. If t is simple, <alpha^vee, t> is a Cartan
    entry and always splits."""
    return s.shape != "a1" or t.shape == "a1" or _a1_ok(t.pairings[s.support[0]], False)


def _pair_ok(s: SphericalRoot, t: SphericalRoot) -> bool:
    """Whether {s, t} can coexist in Sigma: the pairwise axioms of `system`,
    and the consequence of (A1)+(A2) that `_owner_ok` states, which holds
    for every pair of a sigma that has an A-matrix."""
    return not _proportional(s, t) and all(
        _sigma1_ok(x, y) and _sigma2_ok(x, y) and _owner_ok(x, y)
        for x, y in ((s, t), (t, s)))


def _sigma_candidates(rs: RootSystem) -> List[Tuple[Tuple[SphericalRoot, ...], int, int]]:
    """All (sigma, low, high) with every pair of sigma passing `_pair_ok`
    and its S^p interval [low, high] (bitmasks over S) nonempty.

    `_pair_ok` is pairwise, and low only grows and high only shrinks as
    roots are added, so a subset that fails either has no extension that
    passes: the depth-first search prunes it together with its subtree.
    Every sigma that has an A-matrix passes `_pair_ok`, so none is lost.
    """
    roots = spherical_roots_of(rs)
    k = len(roots)
    compat = [0] * k  # bitmask of the roots compatible with roots[i]
    for i, j in combinations(range(k), 2):
        if _pair_ok(roots[i], roots[j]):
            compat[i] |= 1 << j
            compat[j] |= 1 << i
    low_of = [_mask(spp_of(s)) for s in roots]
    high_of = [_mask(sp_of(s)) for s in roots]
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
    """Every parabolic subset in the interval [low, high] of bitmasks, in the
    order of their sorted index tuples, which is the order of keys."""
    base = frozenset(i for i in range(rank) if low >> i & 1)
    free = [i for i in range(rank) if (high & ~low) >> i & 1]
    return sorted((base | frozenset(extra) for size in range(len(free) + 1)
                   for extra in combinations(free, size)), key=sorted)


def _a_signature(sigma: Sequence[SphericalRoot]) -> Tuple[Tuple[int, Row], ...]:
    """All that the A-matrix search reads of sigma: owner by owner in
    simple-index order, the owner's column and <alpha^vee, Sigma>."""
    col_of = _simple_columns(sigma)
    return tuple((col_of[a], tuple(s.pairings[a] for s in sigma)) for a in sorted(col_of))


@lru_cache(maxsize=None)
def _fresh_pairs(col: int, want: Row, opened: int) -> Tuple[Tuple[Row, Row], ...]:
    """Every pair (row, partner) with row <= partner that sums to want, has a 1
    at col, and satisfies (A1) when only the columns in the bitmask opened
    may hold a 1."""
    ranges = []
    for j, w in enumerate(want):
        o = bool(opened >> j & 1)
        ranges.append([1] if j == col else
                      [v for v in range(w - 1, 2) if _a1_ok(v, o) and _a1_ok(w - v, o)])
    pairs = ((row, tuple(w - v for w, v in zip(want, row))) for row in product(*ranges))
    return tuple((row, partner) for row, partner in pairs if row <= partner)


def enumerate_a_matrices(sigma: Sequence[SphericalRoot]) -> List[Tuple[Row, ...]]:
    """All multisets of rows satisfying (A1)-(A3) for the given sigma.

    Rows are returned as sorted tuples over the given sigma order; two rows
    are the same color exactly when they are equal as vectors. Sigma is
    read only through `_a_signature`, so sigmas with equal signatures have
    equal results.

    The search propagates forced partners. The pair A(alpha) of an owner
    (a simple root in sigma) is two rows with a 1 in alpha's column that
    sum to <alpha^vee, Sigma>, so it is fixed by either row: a row placed
    at an owner that holds no other forces its partner, and every row that
    is not part of a fresh pair is forced. A step takes the free owner (one
    whose column holds no row) with the lowest column and tries each fresh
    pair there, whose 1s fall only in free columns: a row with a 1 in
    another owner's column would be that owner's third row. Then, while
    some owner holds exactly one row, it places that owner's partner, one
    at a time, registering each row at every owner it hits before the next
    partner is made (two owners may force the same row). A branch ends when
    a partner fails (A1), an owner gets a third row, or an owner's two rows
    fail (A2). At the lowest free column, the fresh pair is that matrix's
    own pair there, taken with row <= partner, so every A-matrix is reached
    exactly once. Fresh pairs are built once per (column,
    <alpha^vee, Sigma>, free columns) for the process (`_fresh_pairs`).

    The matrices come in sorted order, as `enumerate_systems` lists them,
    and are searched once per signature for the process (`_a_matrices`).
    """
    return list(_a_matrices(_a_signature(sigma)))


@lru_cache(maxsize=None)
def _a_matrices(owners: Tuple[Tuple[int, Row], ...]) -> Tuple[Tuple[Row, ...], ...]:
    """`enumerate_a_matrices` of every sigma with this `_a_signature`, sorted.

    A sigma of a Levi subsystem has the same signature inside every larger
    type, so this table is shared by every census of the process.
    """
    want = dict(owners)
    results: List[Tuple[Row, ...]] = []
    partners: Dict[Row, Row] = {}  # one object per placed forced partner

    def rec(placed: Tuple[Row, ...], free: int):
        if not free:
            results.append(tuple(sorted(placed)))
            return
        col = (free & -free).bit_length() - 1
        for pair in _fresh_pairs(col, want[col], free):
            held: Dict[int, List[Row]] = {}  # owner column -> the rows placed in this step
            new: List[Row] = []

            def place(row: Row, owner: int) -> bool:
                # row is of owner's pair, whose rows sum to want[owner] by construction
                new.append(row)
                for c in want:
                    if row[c] == 1:
                        rows = held.setdefault(c, [])
                        rows.append(row)
                        if len(rows) > 1 and c != owner and not _a2_ok(rows, want[c]):
                            return False
                return True

            alive = place(pair[0], col) and place(pair[1], col)
            while alive:
                single = next((c for c, rows in held.items() if len(rows) == 1), None)
                if single is None:
                    break
                p = tuple(map(sub, want[single], held[single][0]))
                alive = (all(_a1_ok(v, bool(free >> j & 1)) for j, v in enumerate(p))
                         and place(partners.setdefault(p, p), single))
            if alive:
                rec(placed + tuple(new), free & ~_mask(held))

    rec((), _mask(want))
    return tuple(sorted(results))


def canonical_form(sys: SphericalSystem) -> SphericalSystem:
    """The least image of sys, by key, under the diagram automorphisms.

    Relabeling by p gives the image under p^-1; the automorphisms form a
    group, so the images are the same set.
    """
    return min((_relabel(sys, sys.rs, p) for p in sys.rs.automorphisms),
               key=SphericalSystem.key)


def enumerate_systems(rs: RootSystem) -> CensusReport:
    """All spherical systems of rs, grouped by rank, in key order.

    The search only builds triples that satisfy the axioms: the pairwise
    ones through `_pair_ok`, (S) through the S^p interval, (A1)-(A3)
    through `enumerate_a_matrices`, whose consequence `_owner_ok` lets
    `_pair_ok` drop most sigmas without an A-matrix before their search
    (on the census types through E8, all of them). So no candidate is
    validated afterwards, and no triple is built twice.

    The A-matrices depend on sigma only through its signature (see
    `enumerate_a_matrices`), so they are read from the process table
    `_a_matrices`, enumerated and sorted once per signature and shared by
    every sigma with it, by their S^p choices and by later censuses. The
    S^p choices depend only on sigma's interval, so they are built once
    per interval, in a table that lives only as long as the call.
    Sigma comes from `_sigma_candidates` in catalog order, which is the
    canonical (height, coefficients) order, and the rows are sorted tuples
    over it, so each triple is built as a `SphericalSystem` directly,
    already in the canonical form `make_system` would give it.

    A key is (name, sigma's coefficient vectors, sorted S^p, rows), and no
    two sigmas have the same coefficient vectors. So taking the sigmas by
    their coefficient vectors, then each one's S^p choices and A-matrices
    in order, lists the members in key order without sorting them.
    """
    by_interval: Dict[Tuple[int, int], List[FrozenSet[int]]] = {}
    systems: List[SphericalSystem] = []
    for sigma, low, high in sorted(_sigma_candidates(rs),
                                   key=lambda c: [s.coeffs for s in c[0]]):
        rows_of = _a_matrices(_a_signature(sigma))
        sps = by_interval.get((low, high))
        if sps is None:
            sps = by_interval[low, high] = _sp_choices(rs.rank, low, high)
        systems += [SphericalSystem(rs=rs, sigma=sigma, sp=sp, a_rows=rows)
                    for sp in sps for rows in rows_of]
    return CensusReport(rs=rs, systems=tuple(systems))


def census(spec: str, mod_diagram_auts: bool = False) -> CensusReport:
    """Full census for a root system spec string; mod_diagram_auts keeps the
    canonical forms of its members, sorted by key."""
    if not mod_diagram_auts:
        return enumerate_systems(build_root_system(spec))
    full = census(spec)
    if len(full.rs.automorphisms) == 1:
        return full
    forms = {canonical_form(s) for s in full.systems}
    return CensusReport(rs=full.rs, systems=tuple(sorted(forms, key=SphericalSystem.key)))
