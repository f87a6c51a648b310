"""Spherical roots of a root system and their compatibility with parabolic subsets.

A spherical root is a nonnegative combination of simple roots cut out by a
fixed table of shapes, one per type of its support, or the image of such a
shape under an automorphism of the support's diagram.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import combinations
from typing import Dict, FrozenSet, Sequence, Tuple

from .rootsys import RootSystem, build_root_system, cartan_eval, recognize

Vector = Tuple[int, ...]


@dataclass(frozen=True)
class SphericalRoot:
    """A spherical root: coefficient vector, shape tag and ordered support."""

    coeffs: Vector
    shape: str
    support: Tuple[int, ...]  # ambient simple indices, in the shape's own order
    # <alpha_i^vee, sigma> for every simple index i; derived from coeffs,
    # so it takes no part in equality, hashing or keys
    pairings: Tuple[int, ...] = field(compare=False, repr=False)

    # its coefficient vector in the JSON interchange (`serialize`)
    @cached_property
    def json_text(self) -> str:
        return "[" + ",".join(map(str, self.coeffs)) + "]"

    @property
    def height(self) -> int:
        return sum(self.coeffs)

    def sort_key(self) -> tuple:
        return (self.height, self.coeffs)


def spherical_roots_of(rs: RootSystem) -> Tuple[SphericalRoot, ...]:
    """All spherical roots of rs, sorted by (height, coefficient vector)."""
    return tuple(_by_vector(rs).values())


@lru_cache(maxsize=None)
def _by_vector(rs: RootSystem) -> Dict[Vector, SphericalRoot]:
    n = rs.rank
    a = rs.cartan
    found: Dict[Vector, SphericalRoot] = {}

    def add(shape: str, support: Sequence[int], coeffs_on_support: Sequence[int]) -> None:
        v = [0] * n
        for i, c in zip(support, coeffs_on_support):
            v[i] += c
        v = tuple(v)
        if v not in found:
            found[v] = SphericalRoot(coeffs=v, shape=shape, support=tuple(support),
                                     pairings=tuple(cartan_eval(rs, i, v) for i in range(n)))

    for i in range(n):
        add("a1", (i,), (1,))
        add("2a1", (i,), (2,))
    for i, j in combinations(range(n), 2):
        if a[i][j] == 0:
            add("a1xa1", (i, j), (1, 1))

    # connected subsets of the Dynkin diagram, size >= 2, grown one neighbour
    # at a time; each shape once per automorphism of the support's own
    # diagram, the identity first, so the catalog is closed under diagram
    # automorphisms
    level = {frozenset({i}) for i in range(n)}
    for size in range(2, n + 1):
        level = {s | {j} for s in level for i in s for j in range(n) if a[i][j] and j not in s}
        for subset in sorted(tuple(sorted(s)) for s in level):
            (tname, bourbaki), = recognize(a, subset)
            r = len(bourbaki)
            letter = tname[0]
            for aut in build_root_system(tname).automorphisms:
                order = [bourbaki[i] for i in aut]
                if letter == "A":
                    add("a-sum", order, (1,) * r)
                    if r == 3:
                        add("a3-mid", order, (1, 2, 1))
                elif letter == "B":
                    add("b-sum", order, (1,) * r)
                    add("2b-sum", order, (2,) * r)
                    if r == 3:
                        add("b3-triple", order, (1, 2, 3))
                elif letter == "C":
                    add("c-shape", order, (1,) + (2,) * (r - 2) + (1,))
                elif letter == "D":
                    add("d-shape", order, (2,) * (r - 2) + (1, 1))
                elif letter == "F":
                    add("f4-shape", order, (1, 2, 3, 2))
                elif letter == "G":
                    add("g2-sum", order, (1, 1))
                    add("g2-short2", order, (2, 1))
                    add("g2-double", order, (4, 2))
    return {sr.coeffs: sr for sr in sorted(found.values(), key=SphericalRoot.sort_key)}


def spherical_root(rs: RootSystem, v: Sequence[int]) -> SphericalRoot:
    """The spherical root with coefficient vector v; raises if there is none."""
    sr = _by_vector(rs).get(tuple(v))
    if sr is None:
        raise ValueError(f"{tuple(v)} is not a spherical root of {rs.name}")
    return sr


def sp_of(sigma: SphericalRoot) -> FrozenSet[int]:
    """Largest parabolic subset compatible with sigma: simple roots orthogonal to it."""
    return frozenset(i for i, v in enumerate(sigma.pairings) if v == 0)


def spp_of(sigma: SphericalRoot) -> FrozenSet[int]:
    """Smallest parabolic subset compatible with sigma."""
    sp = sp_of(sigma)
    supp = set(sigma.support)
    if sigma.shape == "b-sum":
        return frozenset((sp & supp) - {sigma.support[-1]})
    if sigma.shape == "c-shape":
        return frozenset((sp & supp) - {sigma.support[0]})
    return frozenset(sp & supp)


def is_compatible(sigma: SphericalRoot, sp: FrozenSet[int]) -> bool:
    """Whether (sigma, sp) is a compatible couple."""
    return spp_of(sigma) <= frozenset(sp) <= sp_of(sigma)


def render_root(sigma: SphericalRoot) -> str:
    """Textual form like "a1+2a2+3a3+2a4"."""
    parts = []
    for i, c in enumerate(sigma.coeffs):
        if c == 0:
            continue
        parts.append(("" if c == 1 else str(c)) + f"a{i + 1}")
    return "+".join(parts) if parts else "0"
