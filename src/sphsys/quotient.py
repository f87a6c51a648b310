"""Distinguished subsets of colors, quotient systems and the quotient lattice."""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import gcd
from operator import mul
from typing import Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple

from .rootsys import _cone_rays
from .serialize import emit_system
from .sphroots import spherical_root
from .system import (SphericalSystem, _canonical, _on_columns, _vector_of, colors, defect,
                     negative_colors)

Row = Tuple[int, ...]


class FreenessError(RuntimeError):
    """The kernel semigroup of a distinguished subset failed to be free."""


def _rows_of(sys: SphericalSystem, members: Sequence[int]) -> List[Row]:
    cs = colors(sys).colors
    return [cs[i].row for i in members]


def _mask(members: Iterable[int]) -> int:
    mask = 0
    for i in members:
        mask |= 1 << i
    return mask


def _members(mask: int) -> Tuple[int, ...]:
    """The set bits of mask, ascending; one step per set bit."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


class _Cone(NamedTuple):
    """The extreme rays of a colors' cone {x >= 0 : sum_d x_d * row_d >= 0},
    grouped by support, and the bitmasks that a quotient is built from; no
    ray itself is kept."""

    supports: Tuple[int, ...]  # bitmasks over the rows, by size and then members
    # per support, the columns j where one of its rays x has sum_d x_d * row_d[j] > 0
    positive: Tuple[int, ...]
    touched: Tuple[int, ...]  # per row, the columns where it is nonzero
    # of the system (`_color_supports`): (alpha, bitmask of its colors) for
    # each simple root alpha that owns colors, and (bit of alpha's column,
    # bitmask of A(alpha)) for each simple root alpha in Sigma
    owned: Tuple[Tuple[int, int], ...] = ()
    simple: Tuple[Tuple[int, int], ...] = ()


def _ray_supports(rows: Tuple[Row, ...], width: int) -> _Cone:
    """The extreme rays of {x >= 0 : sum_d x_d * row_d >= 0}, as their
    supports (bitmasks over the rows, by size and then members), with the
    bitmask of the columns where each support's rays pair positively; and
    the bitmask of each row's nonzero columns.

    A point of the cone is a positive combination of extreme rays, and its
    support is the union of theirs. So a subset carries a positive solution
    exactly when it is the union of the ray supports inside it, and the
    minimal such subsets are the minimal ray supports.

    The support and the columns are read off each ray's zero set z: the
    support is the low k bits of ~z, and the columns where the ray pairs
    positively are the bits of ~z above them.
    """
    k = len(rows)
    full, columns = (1 << k) - 1, (1 << width) - 1
    positive = {}
    for _, z in _cone_rays(k, [tuple(r[j] for r in rows) for j in range(width)]):
        s = full & ~z
        positive[s] = positive.get(s, 0) | ~z >> k & columns
    supports = [s for _, _, s in sorted((s.bit_count(), _members(s), s) for s in positive)]
    return _Cone(supports=tuple(supports),
                 positive=tuple([positive[s] for s in supports]),
                 touched=tuple([_mask(j for j, x in enumerate(r) if x) for r in rows]))


def _minimal(supports: Sequence[int]) -> List[int]:
    """The supports that contain no other one, in their order."""
    return [s for s in supports if not any(t != s and t & s == t for t in supports)]


@lru_cache(maxsize=None)
def _color_supports(sys: SphericalSystem) -> _Cone:
    """The cone of sys's colors, with the colors each simple root owns and
    the colors of A(alpha) at each simple root's column."""
    cs = colors(sys)
    return _ray_supports(tuple(c.row for c in cs.colors), sys.rank)._replace(
        owned=tuple((alpha, _mask(owned)) for alpha, owned in enumerate(cs.delta_of) if owned),
        simple=tuple((1 << col, _mask(cs.delta_of[alpha]))
                     for alpha, col in sys.simple_sigma().items()))


def _subset(cone: _Cone, members: Sequence[int]) -> Tuple[List[int], int, int, int, int]:
    """D's sorted distinct members and bitmask, the union of the ray supports
    inside D, the columns D's rows touch, and the columns where those
    supports' rays pair positively, on which every kernel vector vanishes;
    ValueError for a member that is not a color index. Each caller reads
    its subset here once."""
    members, k = sorted(set(members)), len(cone.touched)
    if members and not 0 <= members[0] <= members[-1] < k:
        raise ValueError(f"color indices {members} outside 0..{k - 1}")
    mask = touched = union = vanish = 0
    for i in members:
        mask |= 1 << i
        touched |= cone.touched[i]
    for s, positive in zip(cone.supports, cone.positive):
        if s | mask == mask:
            union |= s
            vanish |= positive
    return members, mask, union, touched, vanish


def _distinguished(cone: _Cone, members: Sequence[int]) -> Tuple[List[int], int, int, int]:
    """`_subset` of a distinguished D, without the union, which is D itself;
    ValueError when D is not the union of the ray supports inside it."""
    members, mask, union, touched, vanish = _subset(cone, members)
    if union != mask:
        raise ValueError("subset of colors is not distinguished")
    return members, mask, touched, vanish


def is_distinguished(sys: SphericalSystem, members: Sequence[int]) -> Optional[Tuple[int, ...]]:
    """A positive integer witness x with sum x_d * row_d >= 0, or None.

    The subset is decided exactly by the extreme rays of the colors' cone
    (`_subset`). The witness is the sum of the extreme rays of the subset's
    own cone, one `_cone_rays` call on its rows: that cone is the face of
    the colors' cone where the other colors vanish, so its rays are the
    colors' rays with support inside the subset, and their supports cover it.
    """
    members, mask, union, _, _ = _subset(_color_supports(sys), members)
    if union != mask:
        return None
    rows = _rows_of(sys, members)
    rays = _cone_rays(len(rows), [tuple(r[j] for r in rows) for j in range(sys.rank)])
    return tuple(map(sum, zip(*(ray for ray, _ in rays))))


def kernel_generators(sys: SphericalSystem, members: Sequence[int]) -> List[Tuple[int, ...]]:
    """Free generators of {m in N^Sigma : all pairings with the members vanish},
    sorted; FreenessError when the monoid is not free.

    Each ray x of the colors' cone with support inside the members gives
    w = sum_d x_d * row_d >= 0 with w . m = sum_d x_d * (row_d . m) = 0 for
    every kernel vector m >= 0, so m vanishes on the columns where w is
    positive (`_subset`). The generator matrix is then block diagonal: the
    unit vectors of the columns that no member row touches, and the kernel
    cone's rays on the touched columns left open (`_kernel_rays`). `classify`
    and the lattice's color map call it; `quotient` reads the same two
    blocks from its own check of D.
    """
    members, _, _, touched, vanish = _subset(_color_supports(sys), members)
    gens = _units(sys.rank, touched)
    if touched & ~vanish:
        gens += _kernel_rays(_rows_of(sys, members), touched & ~vanish, sys.rank)
    return sorted(gens)


def _units(n: int, touched: int) -> List[Tuple[int, ...]]:
    """The unit vectors of N^n at the columns outside touched, in column order."""
    return [(0,) * j + (1,) + (0,) * (n - j - 1) for j in range(n) if not touched >> j & 1]


def _kernel_rays(rows: Sequence[Row], columns: int, width: int) -> Tuple[Tuple[int, ...], ...]:
    """Sorted primitive extremal rays of {m >= 0 : row . m = 0 for every row,
    m_j = 0 at every column j outside the bitmask columns}, at full width;
    FreenessError unless they are a free basis of the monoid of its integer
    points. This owns the kernel cone: it projects the rows onto the
    columns, runs `_cone_rays` with them as equations, embeds the rays back
    and checks freeness. No column open, no ray."""
    if not columns:
        return ()
    cols = _members(columns)
    rays = []
    for ray, _ in _cone_rays(len(cols), (), [tuple(r[j] for j in cols) for r in rows]):
        gen = [0] * width
        for j, x in zip(cols, ray):
            gen[j] = x
        rays.append(tuple(gen))
    rays.sort()
    # free iff the g rays span a saturated rank-g sublattice of Z^cols, that
    # is, iff their g x g minors have gcd 1
    minors_gcd = 0
    for picked in combinations(cols, len(rays)):
        minors_gcd = gcd(minors_gcd, _det([[ray[j] for ray in rays] for j in picked]))
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
    """The quotient system by a distinguished subset of colors, built
    directly in canonical order from the bitmasks of the colors' cone record.

    D must be the union of the ray supports inside it, and is read once
    (`_distinguished`). S^p of S/D is S^p of S and the simple roots whose
    colors all lie in D. By Luna's correspondence Sigma of S/D is
    sum_j g_j sigma_j over the kernel generators g: the unit vectors of the
    columns D's rows leave untouched, and the kernel cone's rays on the
    touched columns left open (`_kernel_rays`), each with two or more
    nonzero entries, since a unit vector there pairs nonzero with a row of
    D. So S/D is the localization of S at the untouched columns plus one
    catalog root per ray, where each row r takes r . g.
    """
    cone = _color_supports(sys)
    members, mask, touched, vanish = _distinguished(cone, members)
    new = [alpha for alpha, owned in cone.owned if owned | mask == mask]
    sp = sys.sp.union(new) if new else sys.sp
    a_rows = 0
    for bit, rows_mask in cone.simple:
        if not touched & bit:
            a_rows |= rows_mask
    cols = _members(((1 << sys.rank) - 1) & ~touched)
    rows = [sys.a_rows[i] for i in _members(a_rows)]
    if not touched & ~vanish:
        return _on_columns(sys, cols, sp, rows)
    extra = _kernel_rays(_rows_of(sys, members), touched & ~vanish, sys.rank)
    roots = [sys.sigma[j] for j in cols] + [spherical_root(sys.rs, _vector_of(sys, g))
                                            for g in extra]
    return _canonical(sys.rs, roots, sp, [tuple(r[j] for j in cols)
                                          + tuple(sum(map(mul, r, g)) for g in extra)
                                          for r in rows])


@dataclass(frozen=True)
class DistinguishedSubset:
    members: Tuple[int, ...]  # color indices
    minimal: bool


def enumerate_distinguished(sys: SphericalSystem) -> List[DistinguishedSubset]:
    """All nonempty distinguished subsets of colors, by size and then members,
    with minimality flags.

    They are the nonempty unions of the ray supports of the colors' cone, and
    the minimal ones are the minimal ray supports (`_ray_supports`); no
    witness is computed (`is_distinguished` gives one).
    """
    supports = _color_supports(sys).supports
    unions = {0}
    for s in supports:
        unions |= {u | s for u in unions}
    minimal = set(_minimal(supports))
    return [DistinguishedSubset(members=members, minimal=u in minimal)
            for _, members, u in sorted((u.bit_count(), _members(u), u) for u in unions if u)]


def classify(sys: SphericalSystem, members: Sequence[int]) -> str:
    """Type of the quotient edge by a minimal distinguished subset (`_kind`);
    ValueError when D is not distinguished, or not minimal: when it is empty
    or a ray support other than D lies inside it.

    S/D is not built. By Luna's correspondence its colors are those c of S
    outside D, with their owners and the row (c.row . g) over the kernel
    generators g, one spherical root sum_j g_j sigma_j per generator. So
    its defect is |colors| - |D| - #generators, its negative colors are the
    c outside D with every c.row . g <= 0, and its support is the union of
    the supports of the sigma_j with some g_j > 0.
    """
    cone = _color_supports(sys)
    members, mask, touched, vanish = _distinguished(cone, members)
    if not mask or any(s != mask and s | mask == mask for s in cone.supports):
        raise ValueError("subset of colors is not minimal")
    gens = kernel_generators(sys, members) if touched & ~vanish else _units(sys.rank, touched)
    cs = colors(sys).colors
    supp = {a for j, s in enumerate(sys.sigma) if any(g[j] for g in gens) for a in s.support}
    negative = {(c.owners, "interior" if supp.intersection(c.owners) else "exterior")
                for i, c in enumerate(cs) if not mask >> i & 1
                and all(sum(map(mul, c.row, g)) <= 0 for g in gens)}
    return _kind(_side(sys), (len(cs) - len(members) - len(gens), negative))


def _side(sys: SphericalSystem) -> Tuple[int, Set[Tuple[Tuple[int, ...], str]]]:
    """One end of an edge, as `_kind` reads it: the defect and the negative
    colors as (owners, interior or exterior)."""
    return defect(sys), {(c.owners, where) for c, where in negative_colors(sys)}


def _kind(source: Tuple[int, Set], target: Tuple[int, Set]) -> str:
    """The type of a minimal quotient edge from its two `_side`s.

    "P" if the defect drops; "L" if it rises or a new exterior negative color
    appears; "R" if no new negative color appears (a heuristic reading,
    consistent with every worked case); "LR" when only a new interior
    negative color appears and the type is not determined.
    """
    (d0, negative0), (d1, negative1) = source, target
    if d1 != d0:
        return "P" if d1 < d0 else "L"
    new = negative1 - negative0
    if any(where == "exterior" for _, where in new):
        return "L"
    return "LR" if new else "R"


def projective_colors(sys: SphericalSystem) -> List[Tuple[int, int]]:
    """Colors with nonnegative pairing row, as (color index, comb size)."""
    return [(i, len(c.owners)) for i, c in enumerate(colors(sys).colors)
            if all(v >= 0 for v in c.row)]


def is_strongly_solvable(sys: SphericalSystem) -> Tuple[bool, Optional[List[SphericalSystem]]]:
    """Whether iterated quotients by single projective colors reach (0,0,0).

    Returns the flag and a shortest witness chain of intermediate systems
    (excluding sys itself, ending in the trivial system) when it exists.

    The search is breadth first over chains, one system per key: a chain is
    extended by the quotient of its last system by each of that system's
    projective colors, in its color order.
    """
    if not sys.sigma and not sys.sp:
        return True, []
    seen, queue = {sys.key()}, [(sys, [])]
    for node, chain in queue:  # the queue grows as it is read: breadth first
        # a projective color's row is nonnegative: {idx} is distinguished
        for idx, _ in projective_colors(node):
            q = quotient(node, (idx,))
            if not q.sigma and not q.sp:
                return True, chain + [q]
            if q.key() not in seen:
                seen.add(q.key())
                queue.append((q, chain + [q]))
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
    `_color_map`. So the nodes are S and one S/D per distinguished D of S
    (the first D of each key), and the edges of S/D are the distinguished
    D' of S that hold D: members phi^-1(D' - D), by size and then members,
    and target S/D'. The minimal ones are the minimal nonempty s - D over
    the ray supports s of S. Each node is kept once, as (D, S/D, `_side`),
    so an edge's kind reads both ends' sides from their records. A color
    map that cannot be matched raises RuntimeError.
    """
    supports = _color_supports(sys).supports
    root = ((), sys, _side(sys))
    nodes, by_mask = {sys.key(): root}, {0: root}
    for d in enumerate_distinguished(sys):
        q = quotient(sys, d.members)
        if q.key() not in nodes:
            nodes[q.key()] = (d.members, q, _side(q))
        by_mask[_mask(d.members)] = nodes[q.key()]
    edges = []
    for members, node, side in nodes.values():
        base = _mask(members)
        try:
            inverse = {i: k for k, i in enumerate(_color_map(sys, members, node))}
            above = sorted(((tuple(sorted(inverse[i] for i in _members(m & ~base))), m & ~base, t)
                            for m, t in by_mask.items() if m != base and m & base == base),
                           key=lambda e: (len(e[0]), e[0]))
        except (KeyError, IndexError):
            raise RuntimeError(f"Luna's correspondence fails at D = {list(members)} of S = "
                               + emit_system(sys).strip())
        minimal = set(_minimal([s & ~base for s in supports if s & ~base]))
        edges += [QuotientEdge(source=node, target=t, members=e, minimal=rest in minimal,
                               kind=_kind(side, t_side) if rest in minimal else None)
                  for e, rest, (_, t, t_side) in above]
    return QuotientLattice(nodes=tuple(node for _, node, _ in nodes.values()), edges=tuple(edges))


def _color_map(sys: SphericalSystem, members: Sequence[int], q: SphericalSystem) -> List[int]:
    """phi: the colors of q = sys/members to those of sys outside members, by
    owners and row r . g, where g is the kernel generator of each Sigma
    column of q (`kernel_generators`, matched by its Sigma vector); equal
    ones in order. With no members the generators are sys's unit vectors,
    so phi is the identity."""
    by_vector = {tuple(_vector_of(sys, g)): g for g in kernel_generators(sys, members)}
    columns = [by_vector[s.coeffs] for s in q.sigma]
    free = {}
    for i, c in enumerate(colors(sys).colors):
        if i not in members:
            row = tuple(sum(map(mul, c.row, g)) for g in columns)
            free.setdefault((c.owners, row), []).append(i)
    return [free[c.owners, c.row].pop(0) for c in colors(q).colors]
