"""Loose spherical roots, spherical closure, the color-swap group and
faithful couples (system, color multiplicity) for a dominant weight."""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import List, Sequence, Set, Tuple

from .rootsys import RootSystem, dual_weight
from .sphroots import SphericalRoot, is_compatible, _by_vector
from .system import SphericalSystem, colors
from .quotient import is_distinguished

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
            if sr2 is not None and is_compatible(rs, sr2, sys.sp):
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
    different multiplicities."""
    if not is_spherically_closed(sys):
        return False
    counts = tuple(counts)
    supp = {i for i, m in enumerate(counts) if m}
    outside = [i for i in range(len(colors(sys).colors)) if i not in supp]
    for size in range(1, len(outside) + 1):
        for members in combinations(outside, size):
            if is_distinguished(sys, members) is not None:
                return False
    for i, j in gamma_group(sys).swaps:
        if counts[i] == counts[j]:
            return False
    return True


@dataclass(frozen=True)
class FaithfulCouple:
    system: SphericalSystem
    counts: Counts  # lexicographically least member of its Gamma-orbit


def faithful_couples(systems: Sequence[SphericalSystem], rs: RootSystem,
                     pi_coords: Sequence[int]) -> List[Tuple[FaithfulCouple, int]]:
    """Faithful couples with color weight equal to the dual of pi, one per
    Gamma-orbit, over the given systems. Returns (couple, orbit id)."""
    target = dual_weight(rs, pi_coords)
    out: List[Tuple[FaithfulCouple, int]] = []
    orbit_id = 0
    for sys in systems:
        if not is_spherically_closed(sys):
            continue
        gamma = gamma_group(sys)
        seen: Set[Counts] = set()
        for counts in _multiplicities_with_weight(sys, target):
            if counts in seen:
                continue
            orbit = gamma.orbit(counts)
            seen |= orbit
            if is_faithful(sys, counts):
                rep = min(orbit)
                out.append((FaithfulCouple(system=sys, counts=rep), orbit_id))
                orbit_id += 1
    return out


def _multiplicities_with_weight(sys: SphericalSystem,
                                target: Sequence[int]) -> List[Counts]:
    """All multiplicity vectors whose color weight equals target."""
    weights = [omega_of_color(sys, i) for i in range(len(colors(sys).colors))]
    sols: List[Counts] = []

    def rec(idx: int, acc: List[int], rem: List[int]):
        if idx == len(weights):
            if all(v == 0 for v in rem):
                sols.append(tuple(acc))
            return
        w = weights[idx]
        mmax = min((r // wi for r, wi in zip(rem, w) if wi > 0), default=0)
        for m in range(mmax + 1):
            rec(idx + 1, acc + [m], [r - m * wi for r, wi in zip(rem, w)])

    rec(0, [], list(target))
    return sols
