"""Distinguished subsets of colors, quotient systems and the quotient lattice."""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, count
from math import gcd
from typing import Iterable, List, Optional, Sequence, Tuple

from .rootsys import _cone_rays
from .serialize import emit_system
from .system import (SphericalSystem, _on_generators, colors, defect, make_system,
                     negative_colors)

Row = Tuple[int, ...]


class FreenessError(RuntimeError):
    """The kernel semigroup of a distinguished subset failed to be free."""


def _rows_of(sys: SphericalSystem, members: Sequence[int]) -> List[Row]:
    cs = colors(sys).colors
    return [cs[i].row for i in members]


def _color_indices(sys: SphericalSystem, members: Sequence[int]) -> List[int]:
    """The sorted distinct members; ValueError for one that is not a color index."""
    members = sorted(set(members))
    k = len(colors(sys))
    if members and not 0 <= members[0] <= members[-1] < k:
        raise ValueError(f"color indices {members} outside 0..{k - 1}")
    return members


def _mask(members: Iterable[int]) -> int:
    return sum(1 << i for i in members)


def _members(mask: int) -> Tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def _ray_supports(rows: Tuple[Row, ...], width: int) -> Tuple[int, ...]:
    """The supports, as bitmasks over the rows, of the extreme rays of
    {x >= 0 : sum_d x_d * row_d >= 0}, by size and then members.

    A point of the cone is a positive combination of extreme rays, and its
    support is the union of theirs. So a subset carries a positive solution
    exactly when it is the union of the ray supports inside it, and the
    minimal such subsets are the minimal ray supports.
    """
    columns = [tuple(r[j] for r in rows) for j in range(width)]
    masks = {_mask(i for i, x in enumerate(ray) if x) for ray in _cone_rays(len(rows), columns)}
    return tuple(sorted(masks, key=lambda m: (m.bit_count(), _members(m))))


def _is_union(supports: Sequence[int], mask: int) -> bool:
    """Whether mask is the union of the supports inside it."""
    union = 0
    for s in supports:
        if s | mask == mask:
            union |= s
    return union == mask


def _minimal(supports: Sequence[int]) -> List[int]:
    """The supports that contain no other one, in their order."""
    return [s for s in supports if not any(t != s and t & s == t for t in supports)]


@lru_cache(maxsize=None)
def _color_supports(sys: SphericalSystem) -> Tuple[int, ...]:
    return _ray_supports(tuple(c.row for c in colors(sys).colors), sys.rank)


def is_distinguished(sys: SphericalSystem, members: Sequence[int]) -> Optional[Tuple[int, ...]]:
    """A positive integer witness x with sum x_d * row_d >= 0, or None.

    The subset is decided exactly by the extreme rays of the colors' cone
    (`_ray_supports`); the witness of a distinguished subset is then found by
    an integer search with a deepening coordinate bound, which ends because
    any rational solution with x >= 1 scales to an integer one.
    """
    members = _color_indices(sys, members)
    if not _is_union(_color_supports(sys), _mask(members)):
        return None
    return tuple(_integer_witness(tuple(_rows_of(sys, members)), sys.rank))


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
    rows = _rows_of(sys, _color_indices(sys, members))
    return list(_kernel_rays(tuple(rows), sys.rank))


@lru_cache(maxsize=None)
def _kernel_rays(rows: Tuple[Row, ...], width: int) -> Tuple[Tuple[int, ...], ...]:
    """Sorted primitive extremal rays of {m >= 0 : row . m = 0 for every row}
    (`_cone_rays`, with the rows as equations), checked to be a free basis of
    the monoid of its integer points."""
    rays = sorted(_cone_rays(width, (), rows))
    # free iff the g rays span a saturated rank-g sublattice of Z^width,
    # that is, iff their g x g minors have gcd 1
    minors_gcd = 0
    for cols in combinations(range(width), len(rays)):
        minors_gcd = gcd(minors_gcd, _det([[ray[j] for ray in rays] for j in cols]))
        if minors_gcd == 1:
            return tuple(rays)
    raise FreenessError(f"kernel rays {rays} do not generate the kernel monoid freely")


def _det(m: List[List[int]]) -> int:
    """Determinant of a small integer matrix, by expansion along the first row."""
    if not m:
        return 1
    return sum((-1) ** j * m[0][j] * _det([r[:j] + r[j + 1:] for r in m[1:]])
               for j in range(len(m)) if m[0][j])


def quotient(sys: SphericalSystem, members: Sequence[int]) -> SphericalSystem:
    """The quotient system by a distinguished subset of colors."""
    members = _color_indices(sys, members)
    if not _is_union(_color_supports(sys), _mask(members)):
        raise ValueError("subset of colors is not distinguished")
    mset = set(members)
    delta_of = colors(sys).delta_of
    vectors, rows = _on_generators(sys, kernel_generators(sys, members))
    new_sp = sys.sp | {alpha for alpha, owned in enumerate(delta_of)
                       if owned and set(owned) <= mset}
    return make_system(sys.rs, vectors, new_sp, rows)


@dataclass(frozen=True)
class DistinguishedSubset:
    members: Tuple[int, ...]  # color indices
    minimal: bool


def enumerate_distinguished(sys: SphericalSystem) -> List[DistinguishedSubset]:
    """All nonempty distinguished subsets of colors, by size and then members,
    with minimality flags.

    They are the nonempty unions of the ray supports of the colors' cone, and
    the minimal ones are the minimal ray supports (`_ray_supports`); no
    witness is searched for (`is_distinguished` gives one).
    """
    supports = _color_supports(sys)
    unions = {0}
    for s in supports:
        unions |= {u | s for u in unions}
    minimal = set(_minimal(supports))
    return [DistinguishedSubset(members=members, minimal=_mask(members) in minimal)
            for members in sorted(map(_members, unions - {0}), key=lambda m: (len(m), m))]


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
    return [(i, len(c.owners)) for i, c in enumerate(colors(sys).colors)
            if all(v >= 0 for v in c.row)]


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
    """All systems reachable by quotients, with one edge per distinguished subset.

    By Luna's correspondence, (S/D)/E = S/(D u phi(E)) with phi from
    `_color_map`, so the nodes are S and one S/D per distinguished D of S
    (the first D of each key). A node's edges are its own distinguished
    subsets; a target missing among the S/D raises RuntimeError.
    """
    built, nodes, edges = {}, {}, []
    for members in [()] + [d.members for d in enumerate_distinguished(sys)]:
        q = quotient(sys, members) if members else sys
        built[_mask(members)] = nodes.setdefault(q.key(), (q, members))[0]
    for node, members in nodes.values():
        base, flagged = _mask(members), enumerate_distinguished(node)
        try:
            bits = [1 << i for i in _color_map(sys, members, node)]
            targets = [built[base | sum(bits[i] for i in e.members)] for e in flagged]
        except (KeyError, IndexError):
            raise RuntimeError(f"Luna's correspondence fails at D = {list(members)} of S = "
                               + emit_system(sys).strip())
        edges += [QuotientEdge(source=node, target=t, members=e.members, minimal=e.minimal,
                               kind=_edge_kind(node, t) if e.minimal else None)
                  for e, t in zip(flagged, targets)]
    return QuotientLattice(nodes=tuple(n for n, _ in nodes.values()), edges=tuple(edges))


def _color_map(sys: SphericalSystem, members: Sequence[int], q: SphericalSystem) -> List[int]:
    """phi: the colors of q = sys/members to those of sys outside members, by owners
    and row r . g (g: kernel generators in q's column order); equal ones in order."""
    gens = kernel_generators(sys, members)
    by_vector = dict(zip(_on_generators(sys, gens)[0], gens))
    columns = [by_vector[s.coeffs] for s in q.sigma]
    free = {}
    for i, c in enumerate(colors(sys).colors):
        if i not in members:
            row = tuple(sum(x * y for x, y in zip(c.row, g)) for g in columns)
            free.setdefault((c.owners, row), []).append(i)
    return [free[c.owners, c.row].pop(0) for c in colors(q).colors]
