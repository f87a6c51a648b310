"""Loose spherical roots, spherical closure, the color-swap group and
faithful couples (system, color multiplicity) for a dominant weight."""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .rootsys import RootSystem, dual_weight
from .sphroots import SphericalRoot, is_compatible, _by_vector
from .system import SphericalSystem, colors
from .quotient import _color_supports, _mask, _minimal

Counts = Tuple[int, ...]  # multiplicity per color index


def loose_roots(sys: SphericalSystem) -> List[SphericalRoot]:
    """Spherical roots that break closure: simple ones with equal colors, and
    non-simple sigma whose double is a spherical root compatible with Sp."""
    rs = sys.rs
    out = []
    simple_cols = sys.simple_sigma()
    for s in sys.sigma:
        if s.height == 1:
            col = simple_cols[s.coeffs.index(1)]
            pair = [r for r in sys.a_rows if r[col] == 1]
            if len(pair) == 2 and pair[0] == pair[1]:
                out.append(s)
        else:
            doubled = tuple(2 * c for c in s.coeffs)
            sr2 = _by_vector(rs).get(doubled)
            if sr2 is not None and is_compatible(sr2, sys.sp):
                out.append(s)
    return out


def is_spherically_closed(sys: SphericalSystem) -> bool:
    """No loose roots outside the simple ones."""
    return all(s.height == 1 for s in loose_roots(sys))


def is_strict(sys: SphericalSystem) -> bool:
    """No simple spherical roots and no loose roots at all."""
    return not sys.simple_sigma() and not loose_roots(sys)


@dataclass(frozen=True)
class GammaGroup:
    """Elementary abelian 2-group of color swaps at loose simple roots."""

    swaps: Tuple[Tuple[int, int], ...]  # pairs of color indices

    def order(self) -> int:
        return 2 ** len(self.swaps)

    def orbit(self, counts: Counts) -> Set[Counts]:
        """Every product of a subset of the swaps applied to counts (the swaps
        are disjoint, so they commute)."""
        out = {tuple(counts)}
        for i, j in self.swaps:
            out |= {tuple(c[j] if k == i else c[i] if k == j else x
                          for k, x in enumerate(c)) for c in out}
        return out


def gamma_group(sys: SphericalSystem) -> GammaGroup:
    cset = colors(sys)
    swaps = []
    for s in loose_roots(sys):
        if s.height != 1:
            continue
        alpha = s.coeffs.index(1)
        pair = cset.delta_of[alpha]
        if len(pair) == 2:
            swaps.append((pair[0], pair[1]))
    return GammaGroup(swaps=tuple(sorted(swaps)))


def omega_of_color(sys: SphericalSystem, idx: int) -> Counts:
    """Weight of one color, in fundamental-weight coordinates over S."""
    c = colors(sys).colors[idx]
    out = [0] * sys.rs.rank
    mult = 2 if c.kind == "2a" else 1
    for a in c.owners:
        out[a] += mult
    return tuple(out)


def omega_of(sys: SphericalSystem, counts: Sequence[int]) -> Counts:
    """Weight of a color multiplicity, in fundamental-weight coordinates."""
    if len(counts) != len(colors(sys)):
        raise ValueError(f"{len(counts)} multiplicities for {len(colors(sys))} colors")
    out = [0] * sys.rs.rank
    for idx, m in enumerate(counts):
        if m:
            w = omega_of_color(sys, idx)
            out = [o + m * wi for o, wi in zip(out, w)]
    return tuple(out)


def is_faithful(sys: SphericalSystem, counts: Sequence[int]) -> bool:
    """Faithfulness of the couple (sys, counts): the system is spherically
    closed, every nonempty distinguished subset meets the support of the
    multiplicity, and the two colors of every loose simple root have
    different multiplicities.

    Every distinguished subset contains a minimal one, so the support only
    has to meet each minimal distinguished subset (see `_profile`).
    """
    counts = tuple(counts)
    k = len(colors(sys))
    if len(counts) != k:
        raise ValueError(f"{len(counts)} multiplicities for {k} colors")
    profile = _profile(sys)
    supp = _mask(i for i, m in enumerate(counts) if m)
    return profile is not None and _faithful(profile, counts, supp)


@dataclass(frozen=True)
class _Profile:
    """What the faithful-couple search needs of a closed system, whatever
    the weight."""

    weights: Tuple[Tuple[Tuple[int, int], ...], ...]  # per color: (j, w_j) with w_j > 0
    gamma: GammaGroup
    minimal: Tuple[int, ...]  # minimal distinguished subsets as color bitmasks


@lru_cache(maxsize=None)
def _profile(sys: SphericalSystem) -> Optional[_Profile]:
    """The profile of a spherically closed system, or None if it is not
    closed. The minimal distinguished subsets are the minimal ray supports
    of the colors' cone (`quotient._color_supports`), by size and then members."""
    if not is_spherically_closed(sys):
        return None
    k = len(colors(sys))
    weights = tuple(tuple((j, w) for j, w in enumerate(omega_of_color(sys, i)) if w)
                    for i in range(k))
    return _Profile(weights=weights, gamma=gamma_group(sys),
                    minimal=tuple(_minimal(_color_supports(sys))))


def _faithful(profile: _Profile, counts: Counts, supp: int) -> bool:
    return (all(m & supp for m in profile.minimal)
            and all(counts[i] != counts[j] for i, j in profile.gamma.swaps))


@dataclass(frozen=True)
class FaithfulCouple:
    system: SphericalSystem
    counts: Counts  # lexicographically least member of its Gamma-orbit


def faithful_couples(systems: Sequence[SphericalSystem], rs: RootSystem,
                     pi_coords: Sequence[int]) -> List[Tuple[FaithfulCouple, int]]:
    """Faithful couples with color weight equal to the dual of pi, one per
    Gamma-orbit, over the given systems. Returns (couple, orbit id).

    A multiplicity is faithful when its support meets every minimal
    distinguished subset and it separates the colors of every swap; the
    weight-independent part of that test is each system's cached profile.
    The swaps are disjoint pairs (i, j) with i < j of colors with equal
    weights, so each Gamma-orbit of a faithful multiplicity lies among the
    solutions, and its lexicographically least member is the one with
    counts[i] < counts[j] for every swap: only that member is kept.

    The multiplicities of a given weight depend only on the color weights,
    so within one call they are solved once per distinct color-weight vector,
    with each solution's support bitmask, and shared by every system with
    those color weights. Nothing is cached across calls.
    """
    target = dual_weight(rs, pi_coords)
    out: List[Tuple[FaithfulCouple, int]] = []
    solved: Dict[tuple, List[Tuple[Counts, int]]] = {}
    for sys in systems:
        profile = _profile(sys)
        if profile is None:
            continue
        sols = solved.get(profile.weights)
        if sols is None:
            sols = solved[profile.weights] = [
                (counts, _mask(i for i, m in enumerate(counts) if m))
                for counts in _multiplicities_with_weight(profile.weights, target)]
        for counts, supp in sols:
            if (all(counts[i] < counts[j] for i, j in profile.gamma.swaps)
                    and _faithful(profile, counts, supp)):
                out.append((FaithfulCouple(system=sys, counts=counts), len(out)))
    return out


def _multiplicities_with_weight(weights: Sequence[Sequence[Tuple[int, int]]],
                                target: Sequence[int]) -> List[Counts]:
    """All multiplicity vectors m, in lexicographic order, with
    sum_i m_i * weights[i] == target. Each weight is a list of (j, w_j) with
    w_j > 0; a color of weight zero only takes multiplicity 0.

    The multiplicity of the last color that reaches a coordinate is forced to
    rem[j] / w_j, or the branch is dead; a target coordinate that no color
    reaches must be zero.
    """
    n = len(weights)
    last = {j: i for i, w in enumerate(weights) for j, _ in w}
    if any(t and j not in last for j, t in enumerate(target)):
        return []
    closes = [[(j, wj) for j, wj in w if last[j] == i] for i, w in enumerate(weights)]
    rem = list(target)
    acc = [0] * n
    sols: List[Counts] = []

    def rec(i: int) -> None:
        if i == n:
            sols.append(tuple(acc))
            return
        w = weights[i]
        if closes[i]:
            j, wj = closes[i][0]
            m = rem[j] // wj
            if (m < 0 or any(rem[k] != m * wk for k, wk in closes[i])
                    or any(rem[k] < m * wk for k, wk in w)):
                return
            choices = (m,)
        else:
            choices = range(min((rem[j] // wj for j, wj in w), default=0) + 1)
        for m in choices:
            acc[i] = m
            for j, wj in w:
                rem[j] -= m * wj
            rec(i + 1)
            for j, wj in w:
                rem[j] += m * wj
        acc[i] = 0

    rec(0)
    return sols
