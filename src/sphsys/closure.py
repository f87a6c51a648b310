"""Loose spherical roots, spherical closure, the color-swap group and
faithful couples (system, color multiplicity) for a dominant weight."""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .rootsys import RootSystem, dual_weight
from .sphroots import SphericalRoot, is_compatible, _by_vector
from .system import Color, ColorSet, Row, SphericalSystem, colors
from .quotient import _mask, _members, _minimal, _ray_supports

Counts = Tuple[int, ...]  # multiplicity per color index
# the colors of a system without the process-lifetime cache, bound here so
# that a wrapper put over `colors` later does not hide it
_colors = colors.__wrapped__


def loose_roots(sys: SphericalSystem) -> List[SphericalRoot]:
    """Spherical roots that break closure: simple ones whose two colors, the
    rows of A(alpha), are equal, and non-simple sigma whose double is a
    spherical root compatible with Sp. ValueError if some A(alpha) is not
    two rows, which `validate` reports as (A2)."""
    out = []
    for col, s in enumerate(sys.sigma):
        if s.height == 1:  # a simple sigma's column is its own index
            first, second = [r for r in sys.a_rows if r[col] == 1]
            if first == second:
                out.append(s)
        else:
            sr2 = _by_vector(sys.rs).get(tuple(2 * c for c in s.coeffs))
            if sr2 is not None and is_compatible(sr2, sys.sp):
                out.append(s)
    return out


def is_spherically_closed(sys: SphericalSystem) -> bool:
    """No loose roots outside the simple ones."""
    return _closed(loose_roots(sys))


def _closed(loose: Sequence[SphericalRoot]) -> bool:
    return all(s.height == 1 for s in loose)


def is_strict(sys: SphericalSystem) -> bool:
    """No simple spherical roots and no loose roots at all."""
    return not sys.simple_sigma() and not loose_roots(sys)


@dataclass(frozen=True)
class GammaGroup:
    """Elementary abelian 2-group of color swaps at loose simple roots."""

    swaps: Tuple[Tuple[int, int], ...]  # pairs of color indices

    def order(self) -> int:
        return 2 ** len(self.swaps)


def gamma_group(sys: SphericalSystem) -> GammaGroup:
    return _gamma(colors(sys), loose_roots(sys))


def _gamma(cset: ColorSet, loose: Sequence[SphericalRoot]) -> GammaGroup:
    """The swaps of the two colors of A(alpha) at each loose simple root."""
    return GammaGroup(swaps=tuple(sorted(cset.delta_of[s.support[0]]
                                         for s in loose if s.height == 1)))


def omega_of_color(sys: SphericalSystem, idx: int) -> Counts:
    """Weight of one color, in fundamental-weight coordinates over S."""
    cs = colors(sys).colors
    if not 0 <= idx < len(cs):
        raise ValueError(f"color index {idx} outside 0..{len(cs) - 1}")
    weight = dict(_weight(cs[idx]))
    return tuple(weight.get(j, 0) for j in range(sys.rs.rank))


def _weight(c: Color) -> Tuple[Tuple[int, int], ...]:
    """Weight of a color as its (j, w_j) in ascending j, one per owner j:
    w_j is 2 at its owner for a 2a color, else 1 at each owner."""
    mult = 2 if c.kind == "2a" else 1
    return tuple((a, mult) for a in c.owners)


def _naturals(values: Sequence) -> bool:
    return all(isinstance(v, int) and v >= 0 for v in values)


def _counts(sys: SphericalSystem, counts: Sequence[int]) -> Counts:
    """counts as a tuple; ValueError unless it holds one nonnegative integer
    per color."""
    counts = tuple(counts)
    k = len(colors(sys))
    if len(counts) != k:
        raise ValueError(f"{len(counts)} multiplicities for {k} colors")
    if not _naturals(counts):
        raise ValueError(f"multiplicities {list(counts)} are not nonnegative integers")
    return counts


def omega_of(sys: SphericalSystem, counts: Sequence[int]) -> Counts:
    """Weight of a color multiplicity, in fundamental-weight coordinates."""
    out = [0] * sys.rs.rank
    for c, m in zip(colors(sys).colors, _counts(sys, counts)):
        for j, w in _weight(c):
            out[j] += m * w
    return tuple(out)


def is_faithful(sys: SphericalSystem, counts: Sequence[int]) -> bool:
    """Faithfulness of the couple (sys, counts): the system is spherically
    closed, every nonempty distinguished subset meets the support of the
    multiplicity, and the two colors of every loose simple root have
    different multiplicities.

    Every distinguished subset contains a minimal one, so the support only
    has to meet each minimal distinguished subset: it holds every
    projective color and meets every subset of the face cone (see
    `_Profile`).
    """
    counts = _counts(sys, counts)
    profile = _profile(sys)
    if profile is None:
        return False
    supp, projective = _mask(i for i, m in enumerate(counts) if m), profile.projective
    return (supp & projective == projective and all(m & supp for m in profile.faces())
            and all(counts[i] != counts[j] for i, j in profile.gamma.swaps))


@dataclass(frozen=True, slots=True, eq=False)  # shared by identity: hashed by id
class _Plan:
    """What solving the multiplicities of colors of given weights for a
    target needs, whatever the target (see `_solve`)."""

    # per coordinate j, the step that closes it: the factors w_j of the
    # colors whose lowest owner is j, and per such color the (k, w_k) at its
    # later owners k, or () when none of them has a later owner
    steps: Tuple[Tuple[Tuple[int, ...], Tuple[Tuple[Tuple[int, int], ...], ...]], ...]
    # `place` puts a solution, each step's composition in turn, in color order
    place: Callable[[Counts], Counts]
    bits: Tuple[int, ...]  # 1 << i per color i
    # per coordinate j, per t below the largest w_j, the colors with w_j > t
    above: Tuple[Tuple[int, ...], ...]

    def usable(self, target: Sequence[int]) -> int:
        """The colors that a multiplicity of weight target can use: those
        with w_j <= target_j at every j."""
        out = (1 << len(self.bits)) - 1
        for over, t in zip(self.above, target):
            if t < len(over):
                out &= ~over[t]
        return out


_NO_STEP = ((), ())  # the step of a coordinate that no color owns first


@lru_cache(maxsize=None)
def _plan(weights: Tuple[Tuple[Tuple[int, int], ...], ...], rank: int) -> _Plan:
    """The plan of colors given by their weights (`_weight`), one object per
    distinct tuple of weights, so that the systems with those weights share
    it. A color is in the step of its lowest owner. Every color has one: a
    Delta^a color is owned by the simple roots with a 1 in its row, which
    (A3) says it has, and a Delta^2a or Delta^b color by its simple roots."""
    n = len(weights)
    first: List[List[int]] = [[] for _ in range(rank)]  # the colors by lowest owner
    above: List[List[int]] = [[] for _ in range(rank)]
    for i, w in enumerate(weights):
        first[w[0][0]].append(i)
        for j, wj in w:
            over = above[j]
            over += [0] * (wj - len(over))
            for t in range(wj):
                over[t] |= 1 << i
    steps = []
    for cs in first:
        later = tuple(weights[i][1:] for i in cs)
        steps.append((tuple(weights[i][0][1] for i in cs), later if any(later) else ())
                     if cs else _NO_STEP)
    order = [i for cs in first for i in cs]
    return _Plan(
        steps=tuple(steps),
        # itemgetter of one index returns an item, not a tuple
        place=itemgetter(*sorted(range(n), key=order.__getitem__)) if n > 1 else tuple,
        bits=tuple(1 << i for i in range(n)),
        above=tuple(map(tuple, above)))


@dataclass(slots=True, eq=False)  # one per closed system: no __dict__
class _Profile:
    """What the faithful-couple search needs of a closed system, whatever
    the weight.

    The minimal distinguished subsets are the minimal ray supports of the
    colors' cone. A projective color, one whose row is nonnegative, is one
    of them on its own: its unit vector is an extreme ray. The others miss
    every projective color, so they are the minimal ray supports of the
    face on which the projective colors vanish: the cone of the other
    colors' rows, the face cone. Its subsets are found on first use
    (`faces`) and kept, so a system that no weight lets use all of its
    projective colors never builds it.
    """

    plan: _Plan  # of the colors' weights (`_weight`)
    gamma: GammaGroup
    projective: int  # bitmask of the projective colors
    rows: Tuple[Row, ...]  # the other colors' rows (the bits outside projective), in order
    # the face cone's minimal ray supports as color bitmasks, by size and
    # then members; None until first read
    face: Optional[Tuple[int, ...]] = None

    def faces(self) -> Tuple[int, ...]:
        """The face cone's minimal ray supports as color bitmasks, each of
        two or more colors: a non-projective row has a negative entry."""
        face = self.face
        if face is None:
            others = _members(((1 << len(self.plan.bits)) - 1) & ~self.projective)
            face = self.face = _face(self.rows, others)
        return face


def _face(rows: Tuple[Row, ...], indices: Sequence[int]) -> Tuple[int, ...]:
    """The minimal ray supports of the cone of rows (`quotient._ray_supports`),
    by size and then members, each as a bitmask of indices[d] over its
    members d; none without rows."""
    if not rows:
        return ()
    return tuple(_mask(indices[d] for d in _members(s))
                 for s in _minimal(_ray_supports(rows, len(rows[0])).supports))


@lru_cache(maxsize=None)
def _profile(sys: SphericalSystem) -> Optional[_Profile]:
    """The profile of a spherically closed system, or None if it is not
    closed. The colors are computed afresh (`_colors`) and handed to the
    swap group, so the profile leaves no `ColorSet` in the `colors` cache;
    it keeps the projective mask and the other colors' rows, but no cone
    (`quotient._color_supports`)."""
    loose = loose_roots(sys)
    if not _closed(loose):
        return None
    cset = _colors(sys)
    negative = [min(c.row, default=0) < 0 for c in cset.colors]
    plan = _plan(tuple(map(_weight, cset.colors)), sys.rs.rank)
    return _Profile(plan=plan, gamma=_gamma(cset, loose),
                    projective=_mask(i for i, n in enumerate(negative) if not n),
                    rows=tuple(compress((c.row for c in cset.colors), negative)))


@dataclass(frozen=True)
class FaithfulCouple:
    system: SphericalSystem
    counts: Counts  # lexicographically least member of its Gamma-orbit


def faithful_couples(systems: Sequence[SphericalSystem], rs: RootSystem,
                     pi_coords: Sequence[int]) -> List[Tuple[FaithfulCouple, int]]:
    """Faithful couples with color weight equal to the dual of pi, one per
    Gamma-orbit, over the given systems. Returns (couple, orbit id).
    ValueError unless pi is a dominant weight of rs and every system is of
    type rs.

    A multiplicity is faithful when its support meets every minimal
    distinguished subset and it separates the colors of every swap; the
    weight-independent part of that test is each system's cached profile.
    So the support holds every projective color and meets every subset of
    the face cone (`_Profile`).
    The swaps are disjoint pairs (i, j) with i < j of colors with equal
    weights, so each Gamma-orbit of a faithful multiplicity lies among the
    solutions, and its lexicographically least member is the one with
    counts[i] < counts[j] for every swap: only that member is kept.

    The multiplicities of a given weight depend only on the color weights.
    Every system with the same color weights shares one plan for the life
    of the process (`_plan`). No solution uses a color outside the plan's
    usable mask (`_Plan.usable`), taken once per plan in a call, so a
    system with a minimal distinguished subset outside it has no faithful
    multiplicity and is skipped. The projective colors are tested first,
    with no cone; only a system that passes reads its face subsets, which
    its profile builds the first time. A plan none of whose systems pass is
    never solved. The others are solved once per plan, with each
    solution's support bitmask, and shared by every system with that plan;
    so are the compositions of a value over the factors of one coordinate.
    The masks, solutions and compositions are kept only for the call.
    """
    target = dual_weight(rs, pi_coords)
    if not _naturals(target):
        raise ValueError(f"{list(pi_coords)} is not a dominant weight")
    out: List[Tuple[FaithfulCouple, int]] = []
    usable: Dict[_Plan, int] = {}
    solved: Dict[_Plan, List[Tuple[Counts, int]]] = {}
    compositions: Dict[Tuple[Tuple[int, ...], int], List[Counts]] = {}
    for sys in systems:
        if sys.rs is not rs and sys.rs != rs:
            raise ValueError(f"a system of type {sys.rs.name} for a weight of {rs.name}")
        profile = _profile(sys)
        if profile is None:
            continue
        plan, projective = profile.plan, profile.projective
        mask = usable.get(plan)
        if mask is None:
            mask = usable[plan] = plan.usable(target)
        if mask & projective != projective:
            continue
        face = profile.faces()
        if not all(map(mask.__and__, face)):
            continue
        sols = solved.get(plan)
        if sols is None:
            sols = solved[plan] = _solve(plan, target, compositions)
        swaps = profile.gamma.swaps
        for counts, supp in sols:
            if (supp & projective == projective and all(map(supp.__and__, face))
                    and (not swaps or all(counts[i] < counts[j] for i, j in swaps))):
                out.append((FaithfulCouple(system=sys, counts=counts), len(out)))
    return out


def _solve(plan: _Plan, target: Sequence[int],
           compositions: Dict[Tuple[Tuple[int, ...], int], List[Counts]]
           ) -> List[Tuple[Counts, int]]:
    """Every multiplicity of the colors of `plan` with weight `target`, in
    lexicographic order, with its support bitmask.

    Coordinate j is closed by the colors whose lowest owner is j: when its
    step runs, every color reaching j with a lower lowest owner is fixed,
    and no later color reaches j. So what is left of target_j is split over
    the step's factors, as its compositions from the table `compositions`,
    filled on demand; each one's share is taken from its colors' later
    owners, and a branch dies when one of them goes negative.
    """
    partial = [((), tuple(target))]  # (multiplicities so far, what is left)
    for j, (factors, later) in enumerate(plan.steps):
        grown = []
        for head, rem in partial:
            comps = compositions.get((factors, rem[j]))
            if comps is None:
                comps = compositions[factors, rem[j]] = _compositions(factors, rem[j])
            if not later:
                grown += [(head + c, rem) for c in comps]
                continue
            for c in comps:
                left = list(rem)
                for m, owners in zip(c, later):
                    for k, wk in owners:
                        left[k] -= m * wk
                if min(left) >= 0:
                    grown.append((head + c, tuple(left)))
        partial = grown
    place, bits = plan.place, plan.bits
    return [(counts, sum(compress(bits, counts)))
            for counts in sorted([place(head) for head, _ in partial])]


def _compositions(factors: Tuple[int, ...], value: int) -> List[Counts]:
    """Every (m_1, ..., m_k) >= 0 with sum_p factors[p] * m_p == value, in
    lexicographic order: [()] without factors if value is 0, else none."""
    if not factors:
        return [()] if value == 0 else []
    f = factors[0]
    return [(m,) + rest for m in range(value // f + 1)
            for rest in _compositions(factors[1:], value - m * f)]
