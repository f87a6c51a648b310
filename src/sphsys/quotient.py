"""Distinguished subsets of colors, quotient systems and the quotient lattice."""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, count
from math import gcd
from typing import List, Optional, Sequence, Tuple

from .rootsys import integer_kernel
from .system import (SphericalSystem, _on_generators, colors, defect, make_system,
                     negative_colors)

Row = Tuple[int, ...]


class FreenessError(RuntimeError):
    """The kernel semigroup of a distinguished subset failed to be free."""


def _rows_of(sys: SphericalSystem, members: Sequence[int]) -> List[Row]:
    cs = colors(sys).colors
    return [cs[i].row for i in members]


def is_distinguished(sys: SphericalSystem, members: Sequence[int]) -> Optional[Tuple[int, ...]]:
    """A positive integer witness x with sum x_d * row_d >= 0, or None.

    Feasibility over the positive rationals is decided exactly by
    Fourier-Motzkin elimination; the witness itself is found by an integer
    search with a deepening coordinate bound, which ends because any rational
    solution with x >= 1 scales to an integer one.
    """
    members = sorted(set(members))
    if not members:
        return ()
    return _decide(tuple(_rows_of(sys, members)), sys.rank)


@lru_cache(maxsize=None)
def _decide(rows: Tuple[Row, ...], width: int) -> Optional[Tuple[int, ...]]:
    k = len(rows)
    if all(sum(r[j] for r in rows) >= 0 for j in range(width)):
        return (1,) * k
    # a column where every row is <= 0 and some row is < 0 cannot be fixed
    for j in range(width):
        if all(r[j] <= 0 for r in rows) and any(r[j] < 0 for r in rows):
            return None
    if not _feasible(rows, width):
        return None
    return tuple(_integer_witness(rows, width))


def _feasible(rows: Tuple[Row, ...], width: int) -> bool:
    """Whether some x >= 1 (componentwise) has sum x_d * row_d >= 0.

    Decided through the dual: the primal is infeasible exactly when some
    v >= 0 over the columns has all combined values sum_j v_j row_d[j] <= 0
    with at least one strictly negative. The dual has at most `width`
    variables, which keeps Fourier-Motzkin elimination small.
    """
    # dual constraints, as coeffs . v >= const with v eliminated by FM:
    #   v_j >= 0; for each d: -(row_d . v) >= 0; -(sum_d row_d) . v >= 1
    cons = []
    for j in range(width):
        cons.append((tuple(1 if i == j else 0 for i in range(width)), 0))
    for r in rows:
        cons.append((tuple(-r[j] for j in range(width)), 0))
    total = tuple(-sum(r[j] for r in rows) for j in range(width))
    cons.append((total, 1))
    return not _fm_feasible(cons, width)


def _fm_feasible(cons, nvars: int) -> bool:
    """Whether integer constraints coeffs . x >= const are satisfiable over Q."""
    for var in range(nvars):
        pos = [c for c in cons if c[0][var] > 0]
        neg = [c for c in cons if c[0][var] < 0]
        new = [c for c in cons if c[0][var] == 0]
        for cp, bp in pos:
            for cn, bn in neg:
                fp, fn = cp[var], -cn[var]
                coeffs = tuple(fn * x + fp * y for x, y in zip(cp, cn))
                new.append(_normalize(coeffs, fn * bp + fp * bn))
        cons = _dedupe(new)
        if cons is None:
            return False
    return all(b <= 0 for _, b in cons)


def _normalize(coeffs, b):
    g = 0
    for c in coeffs:
        g = gcd(g, abs(c))
    g = gcd(g, abs(b))
    if g > 1:
        coeffs = tuple(c // g for c in coeffs)
        b = b // g
    return coeffs, b


def _dedupe(cons):
    seen = {}
    for coeffs, b in cons:
        if not any(coeffs):
            if b > 0:
                return None  # 0 >= positive: infeasible
            continue
        if coeffs not in seen or seen[coeffs] < b:
            seen[coeffs] = b
    return [(c, b) for c, b in seen.items()]


def _integer_witness(rows: Tuple[Row, ...], width: int) -> List[int]:
    """Smallest-bound integer witness x in {1..B}^k with sum x_d row_d >= 0.

    Iterative deepening on the coordinate bound B with optimistic pruning on
    the partial column sums. The rows must be feasible over the rationals,
    or the search does not end.
    """
    k = len(rows)
    for bound in count(1):
        # best[d][j]: largest contribution of colors d..k-1 to column j
        best = [[0] * width for _ in range(k + 1)]
        for d in range(k - 1, -1, -1):
            for j in range(width):
                r = rows[d][j]
                best[d][j] = best[d + 1][j] + (bound * r if r > 0 else r)
        choice = [0] * k

        def rec(d: int, sums: Tuple[int, ...]) -> bool:
            if d == k:
                return all(v >= 0 for v in sums)
            if any(s + b < 0 for s, b in zip(sums, best[d])):
                return False
            for x in range(1, bound + 1):
                choice[d] = x
                if rec(d + 1, tuple(s + x * r for s, r in zip(sums, rows[d]))):
                    return True
            return False

        if rec(0, tuple([0] * width)):
            return choice


def kernel_generators(sys: SphericalSystem, members: Sequence[int]) -> List[Tuple[int, ...]]:
    """Free generators of {m in N^Sigma : all pairings with the members vanish}.

    The generators are the primitive extremal rays of the cone of nonnegative
    kernel vectors, found in integer arithmetic; FreenessError is raised when
    they do not generate the monoid freely.
    """
    rows = _rows_of(sys, sorted(set(members)))
    return list(_kernel_rays(tuple(rows), sys.rank))


@lru_cache(maxsize=None)
def _kernel_rays(rows: Tuple[Row, ...], width: int) -> Tuple[Tuple[int, ...], ...]:
    """Sorted primitive extremal rays of {m >= 0 : row . m = 0 for every row},
    checked to be a free basis of the monoid of its integer points.

    `integer_kernel` gives the kernel dimension d. An extremal ray is a
    nonnegative kernel vector of minimal support S: the rows restricted to S
    have a 1-dimensional kernel, whose primitive integer basis vector has one
    sign. For d = 1 that is the kernel itself; for d >= 2 supports are tried
    by increasing size, skipping those that contain one already found.
    """
    _, basis = integer_kernel(rows, width)
    if len(basis) <= 1:
        candidates = list(basis)
    else:
        candidates, found = [], []
        for size in range(1, width + 1):
            for support in combinations(range(width), size):
                if any(s <= set(support) for s in found):
                    continue
                _, sub_basis = integer_kernel([[r[j] for j in support] for r in rows], size)
                if len(sub_basis) == 1:
                    # no zero entries: a smaller support would have been found
                    v = [0] * width
                    for j, x in zip(support, sub_basis[0]):
                        v[j] = x
                    candidates.append(v)
                    found.append(set(support))
    rays = sorted(_nonnegative(v) for v in candidates
                  if all(x >= 0 for x in v) or all(x <= 0 for x in v))
    # free iff the g rays span a saturated rank-g sublattice of Z^width,
    # that is, iff their g x g minors have gcd 1
    minors_gcd = 0
    for cols in combinations(range(width), len(rays)):
        minors_gcd = gcd(minors_gcd, _det([[ray[j] for ray in rays] for j in cols]))
        if minors_gcd == 1:
            return tuple(rays)
    raise FreenessError(f"kernel rays {rays} do not generate the kernel monoid freely")


def _nonnegative(v: Sequence[int]) -> Tuple[int, ...]:
    """v or -v, whichever is nonnegative (v has one sign)."""
    return tuple(-x for x in v) if sum(v) < 0 else tuple(v)


def _det(m: List[List[int]]) -> int:
    """Determinant of a small integer matrix, by expansion along the first row."""
    if not m:
        return 1
    return sum((-1) ** j * m[0][j] * _det([r[:j] + r[j + 1:] for r in m[1:]])
               for j in range(len(m)) if m[0][j])


def quotient(sys: SphericalSystem, members: Sequence[int]) -> SphericalSystem:
    """The quotient system by a distinguished subset of colors."""
    mset = set(members)
    if is_distinguished(sys, mset) is None:
        raise ValueError("subset of colors is not distinguished")
    delta_of = colors(sys).delta_of
    vectors, rows = _on_generators(sys, kernel_generators(sys, mset))
    new_sp = sys.sp | {alpha for alpha, owned in enumerate(delta_of)
                       if owned and set(owned) <= mset}
    return make_system(sys.rs, vectors, new_sp, rows)


@dataclass(frozen=True)
class DistinguishedSubset:
    members: Tuple[int, ...]  # color indices
    witness: Tuple[int, ...]
    minimal: bool


def enumerate_distinguished(sys: SphericalSystem) -> List[DistinguishedSubset]:
    """All nonempty distinguished subsets of colors, by size and then members,
    with minimality flags.

    Every proper subset is decided before the subsets that contain it, and
    every distinguished subset contains a minimal one; so a subset is minimal
    exactly when it contains none of the minimal ones found before it.
    """
    rows = [c.row for c in colors(sys).colors]
    k = len(rows)
    out: List[DistinguishedSubset] = []
    minimal_masks: List[int] = []
    for size in range(1, k + 1):
        for members in combinations(range(k), size):
            w = _decide(tuple(rows[i] for i in members), sys.rank)
            if w is None:
                continue
            mask = sum(1 << i for i in members)
            minimal = all(m & mask != m for m in minimal_masks)
            if minimal:
                minimal_masks.append(mask)
            out.append(DistinguishedSubset(members=members, witness=w, minimal=minimal))
    return out


def classify(sys: SphericalSystem, members: Sequence[int]) -> str:
    """Type of the quotient edge by a minimal distinguished subset.

    "P" if the defect drops; "L" if it rises or a new exterior negative color
    appears; "R" if no new negative color appears (a heuristic reading,
    consistent with every worked case); "LR" when only a new interior
    negative color appears and the type is not determined.
    """
    return _edge_kind(sys, quotient(sys, members))


def _edge_kind(sys: SphericalSystem, target: SphericalSystem) -> str:
    """`classify` of the edge from sys to its quotient target."""
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


def projective_colors(sys: SphericalSystem) -> List[Tuple[int, int]]:
    """Colors with nonnegative pairing row, as (color index, comb size)."""
    out = []
    for i, c in enumerate(colors(sys).colors):
        if all(v >= 0 for v in c.row):
            out.append((i, len(c.owners)))
    return out


def is_strongly_solvable(sys: SphericalSystem) -> Tuple[bool, Optional[List[SphericalSystem]]]:
    """Whether iterated quotients by single projective colors reach (0,0,0).

    Returns the flag and a shortest witness chain of intermediate systems
    (excluding sys itself, ending in the trivial system) when it exists.
    """
    if not sys.sigma and not sys.sp:
        return True, []
    seen = {sys.key()}
    frontier = [(sys, [])]
    while frontier:
        nxt = []
        for cur, chain in frontier:
            # a projective color's row is nonnegative: {idx} is distinguished
            for idx, _ in projective_colors(cur):
                q = quotient(cur, [idx])
                if not q.sigma and not q.sp:
                    return True, chain + [q]
                if q.key() not in seen:
                    seen.add(q.key())
                    nxt.append((q, chain + [q]))
        frontier = nxt
    return False, None


@dataclass(frozen=True)
class QuotientEdge:
    source: SphericalSystem
    target: SphericalSystem
    members: Tuple[int, ...]
    minimal: bool
    kind: Optional[str]  # classification for minimal edges


@dataclass(frozen=True)
class QuotientLattice:
    nodes: Tuple[SphericalSystem, ...]
    edges: Tuple[QuotientEdge, ...]


def quotient_lattice(sys: SphericalSystem) -> QuotientLattice:
    """All systems reachable by quotients, with one edge per distinguished subset."""
    nodes = [sys]
    seen = {sys.key(): sys}
    edges: List[QuotientEdge] = []
    frontier = [sys]
    while frontier:
        nxt = []
        for cur in frontier:
            for d in enumerate_distinguished(cur):
                q = quotient(cur, d.members)
                if q.key() not in seen:
                    seen[q.key()] = q
                    nodes.append(q)
                    nxt.append(q)
                kind = _edge_kind(cur, q) if d.minimal else None
                edges.append(QuotientEdge(source=cur, target=seen[q.key()],
                                          members=d.members, minimal=d.minimal,
                                          kind=kind))
        frontier = nxt
    return QuotientLattice(nodes=tuple(nodes), edges=tuple(edges))
