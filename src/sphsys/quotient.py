"""Distinguished subsets of colors, quotient systems and the quotient lattice."""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from functools import lru_cache
from itertools import combinations, product
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from .rootsys import cartan_eval
from .sphroots import spherical_root
from .system import SphericalSystem, colors, defect, make_system, negative_colors, validate

Row = Tuple[int, ...]

GENERATOR_BOUND = 12  # coordinate bound when enumerating kernel generators


class FreenessError(RuntimeError):
    """The kernel semigroup of a distinguished subset failed to be free."""


def _rows_of(sys: SphericalSystem, members: Sequence[int]) -> List[Row]:
    cs = colors(sys).colors
    return [cs[i].row for i in members]


def is_distinguished(sys: SphericalSystem, members: Sequence[int]) -> Optional[Tuple[int, ...]]:
    """A positive integer witness x with sum x_d * row_d >= 0, or None.

    Feasibility over the positive rationals is decided exactly by
    Fourier-Motzkin elimination; the witness itself is found by a bounded
    integer search, which must succeed whenever the rational test does.
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
    witness = _integer_witness(rows, width)
    if witness is None:
        raise RuntimeError("rational feasibility without bounded integer witness")
    return tuple(witness)


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
    from math import gcd
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


def witness_bound(rows, width: int) -> int:
    """Per-coordinate search bound for integer witnesses."""
    mx = max((abs(v) for r in rows for v in r), default=0)
    return 1 + width * mx


def _integer_witness(rows: Tuple[Row, ...], width: int) -> Optional[List[int]]:
    """Smallest-bound integer witness x in {1..B}^k with sum x_d row_d >= 0.

    Iterative deepening on the coordinate bound with optimistic pruning on
    the partial column sums; the subsets reaching this point are known
    feasible, and their witnesses are small in practice.
    """
    k = len(rows)
    bmax = witness_bound(rows, width)
    for bound in range(1, bmax + 1):
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
    return None


def kernel_generators(sys: SphericalSystem, members: Sequence[int]) -> List[Tuple[int, ...]]:
    """Minimal generators of {m in N^Sigma : all pairings with the members vanish}.

    Enumerates lattice points up to GENERATOR_BOUND per coordinate, extracts
    the componentwise-minimal ones and verifies unique N-factorization.
    """
    rows = _rows_of(sys, sorted(set(members)))
    r = sys.rank
    points = _kernel_points(tuple(rows), r, GENERATOR_BOUND)
    gens = sorted(p for p in points
                  if not any(q != p and all(a <= b for a, b in zip(q, p)) for q in points))
    solve = _exact_solver(gens, r)
    if solve is None:
        raise FreenessError("minimal kernel generators are linearly dependent")
    for p in points:
        c = solve(p)
        if c is None or any(x.denominator != 1 or x < 0 for x in c):
            raise FreenessError(f"kernel point {p} is not an N-combination of generators")
    return gens


@lru_cache(maxsize=None)
def _kernel_points(rows: Tuple[Row, ...], r: int, bound: int) -> List[Tuple[int, ...]]:
    """Nonzero m in {0..bound}^r with row . m = 0 for every row.

    The common kernel is parametrized by the free columns of an exact
    reduced row echelon form, so only bound^(kernel dim) points are scanned.
    """
    mat = [[Q(v) for v in row] for row in rows]
    pivots: List[Tuple[int, int]] = []  # (row, col)
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


def _exact_solver(gens, r):
    """Exact solver for p = sum c_i gens[i]; None if the gens are dependent.

    Returns a function mapping p to the unique rational coefficient vector,
    or to None when p is outside the span.
    """
    g = len(gens)
    if g == 0:
        return lambda p: None if any(p) else ()
    mat = [[Q(gens[i][j]) for i in range(g)] for j in range(r)]  # r x g
    aug_cols = list(range(g))
    # RREF of the r x g matrix, remembering pivot positions
    pivots = []
    prow = 0
    ops = []  # row operations to replay on p
    for col in range(g):
        src_row = next((i for i in range(prow, r) if mat[i][col] != 0), None)
        if src_row is None:
            return None  # dependent columns
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
        pivots.append((prow, col))
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


def quotient(sys: SphericalSystem, members: Sequence[int]) -> SphericalSystem:
    """The quotient system by a distinguished subset of colors."""
    return _quotient_cached(sys, tuple(sorted(set(members))))


@lru_cache(maxsize=None)
def _quotient_cached(sys: SphericalSystem, members: Tuple[int, ...]) -> SphericalSystem:
    if is_distinguished(sys, members) is None:
        raise ValueError("subset of colors is not distinguished")
    cset = colors(sys)
    gens = kernel_generators(sys, members)
    n = sys.rs.rank
    new_vectors = []
    for g in gens:
        v = tuple(sum(gi * s.coeffs[j] for gi, s in zip(g, sys.sigma))
                  for j in range(n))
        new_vectors.append(v)
    mset = set(members)
    new_sp = set(sys.sp)
    for alpha in range(n):
        owned = cset.delta_of[alpha]
        if owned and set(owned) <= mset:
            new_sp.add(alpha)
    # rows of A(alpha) for simple alpha still spherical in the quotient,
    # re-expressed on the new generators
    new_simple = {v.index(1) for v in new_vectors if sum(v) == 1}
    old_simple_cols = sys.simple_sigma()
    new_rows = []
    for r in sys.a_rows:
        if any(r[c] == 1 for a, c in old_simple_cols.items() if a in new_simple):
            new_rows.append(tuple(sum(gi * ri for gi, ri in zip(g, r)) for g in gens))
    return make_system(sys.rs, new_vectors, new_sp, new_rows)


@dataclass(frozen=True)
class DistinguishedSubset:
    members: Tuple[int, ...]  # color indices
    witness: Tuple[int, ...]
    minimal: bool


def enumerate_distinguished(sys: SphericalSystem) -> List[DistinguishedSubset]:
    """All nonempty distinguished subsets of colors, with minimality flags."""
    return list(_enumerate_distinguished_cached(sys))


@lru_cache(maxsize=None)
def _enumerate_distinguished_cached(sys: SphericalSystem) -> Tuple[DistinguishedSubset, ...]:
    k = len(colors(sys).colors)
    found: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
    for size in range(1, k + 1):
        for members in combinations(range(k), size):
            w = is_distinguished(sys, members)
            if w is not None:
                found[members] = w
    out = []
    for members, w in sorted(found.items(), key=lambda kv: (len(kv[0]), kv[0])):
        minimal = not any(set(other) < set(members) for other in found)
        out.append(DistinguishedSubset(members=members, witness=w, minimal=minimal))
    return tuple(out)


def classify(sys: SphericalSystem, members: Sequence[int]) -> str:
    """Type of the quotient edge by a minimal distinguished subset.

    "P" if the defect drops; "L" if it rises or a new exterior negative color
    appears; "R" if no new negative color appears (a heuristic reading,
    consistent with every worked case); "LR" when only a new interior
    negative color appears and the type is not determined.
    """
    target = quotient(sys, members)
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
    trivial_key = (sys.rs.name, (), (), ())
    if sys.key() == trivial_key:
        return True, []
    seen = {sys.key()}
    frontier = [(sys, [])]
    while frontier:
        nxt = []
        for cur, chain in frontier:
            for idx, _ in projective_colors(cur):
                if is_distinguished(cur, [idx]) is None:
                    continue
                q = quotient(cur, [idx])
                if q.key() == trivial_key:
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
                kind = classify(cur, d.members) if d.minimal else None
                edges.append(QuotientEdge(source=cur, target=seen[q.key()],
                                          members=d.members, minimal=d.minimal,
                                          kind=kind))
        frontier = nxt
    return QuotientLattice(nodes=tuple(nodes), edges=tuple(edges))
