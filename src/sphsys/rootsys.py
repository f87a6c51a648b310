"""Finite root systems with exact arithmetic, and the package's one exact
linear-algebra routine, `_cone_rays` (double description).

Cartan matrices follow the Bourbaki numbering; entries are a[i][j] = <alpha_i^vee, alpha_j>.
Vectors are integer coefficient tuples over the simple roots, except the
fundamental weights, whose coordinates are `Fraction`s.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction as Q
from functools import cached_property, lru_cache
from itertools import filterfalse, islice
from math import gcd
from operator import mul, sub
from typing import Iterable, Iterator, List, Sequence, Tuple

Vector = Tuple[int, ...]
QVector = Tuple[Q, ...]


def _admits(letter: str, n: int) -> bool:
    """Whether the letter and the rank n name an irreducible type."""
    return {"A": n >= 1, "B": n >= 2, "C": n >= 3, "D": n >= 4,
            "E": n in (6, 7, 8), "F": n == 4, "G": n == 2}.get(letter, False)


def _cartan_irreducible(letter: str, rank: int) -> List[List[int]]:
    """Cartan matrix of an irreducible type in Bourbaki numbering."""
    if not _admits(letter, rank):
        raise ValueError(f"no irreducible type {letter}{rank}")
    n = rank
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def link(i: int, j: int, aij: int = -1, aji: int = -1) -> None:
        a[i][j] = aij
        a[j][i] = aji

    if letter == "A":
        for i in range(n - 1):
            link(i, i + 1)
    elif letter == "B":
        for i in range(n - 2):
            link(i, i + 1)
        link(n - 2, n - 1, -1, -2)  # alpha_n short
    elif letter == "C":
        for i in range(n - 2):
            link(i, i + 1)
        link(n - 2, n - 1, -2, -1)  # alpha_n long
    elif letter == "D":
        for i in range(n - 3):
            link(i, i + 1)
        link(n - 3, n - 2)
        link(n - 3, n - 1)
    elif letter == "E":
        # chain 1-3-4-5-...-n with 2 attached to 4 (Bourbaki)
        chain = [0] + list(range(2, n))
        for u, v in zip(chain, chain[1:]):
            link(u, v)
        link(1, 3)
    elif letter == "F":
        link(0, 1)
        link(1, 2, -1, -2)  # alpha_3, alpha_4 short
        link(2, 3)
    else:
        link(0, 1, -3, -1)  # G2: alpha_1 short
    return a


def _parse_spec(spec: str) -> List[Tuple[str, int]]:
    """Parse a product spec like "F4" or "A2xA1" into (letter, rank) pairs;
    the empty spec is the rank-0 system, with no factors."""
    out = []
    for p in spec.split("x") if spec else []:
        p = p.strip()
        if len(p) < 2 or p[0] not in "ABCDEFG" or not p[1:].isdigit():
            raise ValueError(f"bad root system spec {spec!r}")
        out.append((p[0], int(p[1:])))
    return out


@dataclass(frozen=True)
class RootSystem:
    """An abstract finite root system, possibly a product of irreducible ones."""

    name: str
    cartan: Tuple[Tuple[int, ...], ...]
    # (letter, rank, simple-root indices in Bourbaki order) per irreducible factor
    components: Tuple[Tuple[str, int, Tuple[int, ...]], ...]
    positive_roots: Tuple[Vector, ...] = field(repr=False)

    @property
    def rank(self) -> int:
        return len(self.cartan)

    # listed on first read, not when built: k equal factors have k! of them
    @cached_property
    def automorphisms(self) -> Tuple[Tuple[int, ...], ...]:
        """Every p with cartan[p[i]][p[j]] == cartan[i][j], lexicographic, identity first."""
        return tuple(tuple(p) for p in _orders(self.cartan, range(self.rank), self.cartan))

    # its document in the JSON interchange (`serialize`), compact with sorted keys
    @cached_property
    def json_text(self) -> str:
        return json.dumps({"components": [{"type": l, "rank": r} for l, r, _ in self.components]},
                          sort_keys=True, separators=(",", ":"))

    def __hash__(self) -> int:
        return hash(self.name)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RootSystem) and self.name == other.name

    def is_positive_root(self, v: Vector) -> bool:
        return tuple(v) in self.positive_roots


def _positive_roots(cartan: Sequence[Sequence[int]]) -> Tuple[Vector, ...]:
    """All positive roots, by closure of the simple roots under reflections."""
    n = len(cartan)
    roots = {tuple(1 if j == i else 0 for j in range(n)) for i in range(n)}
    frontier = set(roots)
    while frontier:
        new = set()
        for beta in frontier:
            for i in range(n):
                pairing = sum(cartan[i][j] * beta[j] for j in range(n))
                refl = list(beta)
                refl[i] -= pairing
                t = tuple(refl)
                if t not in roots and all(c >= 0 for c in t) and any(t):
                    new.add(t)
        roots |= new
        frontier = new
    return tuple(sorted(roots, key=lambda v: (sum(v), v)))


@lru_cache(maxsize=None)
def build_root_system(spec: str) -> RootSystem:
    """Build a root system from a spec string such as "F4" or "A1xA2"."""
    factors = _parse_spec(spec)
    n = sum(r for _, r in factors)
    cartan = [[0] * n for _ in range(n)]
    components = []
    off = 0
    for letter, r in factors:
        block = _cartan_irreducible(letter, r)
        for i in range(r):
            for j in range(r):
                cartan[off + i][off + j] = block[i][j]
        components.append((letter, r, tuple(range(off, off + r))))
        off += r
    cartan_t = tuple(tuple(row) for row in cartan)
    name = "x".join(f"{l}{r}" for l, r in factors)
    return RootSystem(
        name=name,
        cartan=cartan_t,
        components=tuple(components),
        positive_roots=_positive_roots(cartan_t),
    )


def cartan_eval(rs: RootSystem, i: int, v: Sequence) -> object:
    """<alpha_i^vee, v> for a vector v in simple-root coordinates."""
    return sum(rs.cartan[i][j] * v[j] for j in range(rs.rank))


def _cone_rays(width: int, inequalities: Sequence[Vector],
               equations: Sequence[Vector] = ()) -> List[Tuple[Vector, int]]:
    """Primitive extreme rays of {x >= 0 : c . x >= 0 for each inequality c,
    c . x = 0 for each equation c}, by the double description method.

    The rays start as the unit vectors. Each constraint keeps the rays on its
    hyperplane, and those on its positive side if it is an inequality, and
    adds the combination on its hyperplane of every adjacent pair of rays on
    opposite sides. Each ray carries, and is returned with, its zero set z:
    the bitmask of the constraints so far that it is tight on, bit j < width
    for x_j >= 0 and bit width + t for the t-th constraint, inequalities
    first. So its support is the low width bits of ~z. The cone is pointed,
    so two rays are adjacent exactly when no other ray is tight on every
    constraint that both are tight on. The count stops at a third such ray.

    Before it, a pair is skipped when the two rays share fewer than
    width - 2 tight constraints. That never skips an adjacent pair: the
    constraints tight on both rays are those tight on the smallest face that
    holds both, whose dimension is width minus their rank, and that face has
    dimension 2 when the rays are adjacent. A lower-dimensional cone only
    adds its implicit equations to every zero set, so the bound holds there
    too.
    """
    full = (1 << width) - 1
    rays = [((0,) * j + (1,) + (0,) * (width - j - 1), full ^ (1 << j)) for j in range(width)]
    constraints = [(c, False) for c in inequalities] + [(c, True) for c in equations]
    for t, (c, equation) in enumerate(constraints):
        bit = 1 << (width + t)
        zero, pos, neg = [], [], []
        for r, z in rays:
            v = sum(map(mul, c, r))
            if v > 0:
                pos.append((v, r, z))
            elif v < 0:
                neg.append((v, r, z))
            else:
                zero.append((r, z | bit))
        nxt = zero if equation else zero + [(r, z) for _, r, z in pos]
        # the rays tight on every constraint in `common` are those whose
        # slack, the complement of the zero set, misses it
        slack = [~z for _, z in rays]
        for vp, rp, zp in pos:
            for vn, rn, zn in neg:
                common = zp & zn
                if common.bit_count() < width - 2:
                    continue
                third = next(islice(filterfalse(common.__and__, slack), 2, None), None)
                if third is None:
                    # vp * rn - vn * rp, on the hyperplane of c
                    ray = tuple(map(sub, map(vp.__mul__, rn), map(vn.__mul__, rp)))
                    g = gcd(*ray)
                    if g > 1:
                        ray = tuple(x // g for x in ray)
                    nxt.append((ray, common | bit))
        rays = nxt
    return rays


def fundamental_weights(rs: RootSystem) -> List[QVector]:
    """Fundamental weights in simple-root coordinates: the columns of the
    inverse Cartan matrix C^-1.

    C^-1 >= 0 in every finite type, so the cone {(x, y) >= 0 : C x - y = 0}
    (`_cone_rays`, with the rows of [C | -I] as equations) is simplicial,
    with rays (s C^-1 e_k, s e_k) for s > 0; omega_k is the x-part of the ray
    whose y-part is nonzero at k, divided by y_k.
    """
    n = rs.rank
    weights: List[QVector] = [()] * n
    for ray, _ in _cone_rays(2 * n, (), [row + tuple(-int(i == j) for j in range(n))
                                         for i, row in enumerate(rs.cartan)]):
        k = next(j for j in range(n) if ray[n + j])
        weights[k] = tuple(Q(x, ray[n + k]) for x in ray[:n])
    return weights


def _orders(block: Sequence[Sequence[int]], local: Sequence[int],
            target: Sequence[Sequence[int]]) -> Iterator[List[int]]:
    """Every order of `local` realizing the `target` Cartan matrix, in
    lexicographic order of positions in `local`."""
    perm: List[int] = []

    def rec() -> Iterator[List[int]]:
        pos = len(perm)
        if pos == len(local):
            yield [local[c] for c in perm]
            return
        for cand in range(len(local)):
            if cand not in perm and all(
                    block[local[cand]][local[p]] == target[pos][q]
                    and block[local[p]][local[cand]] == target[q][pos]
                    for q, p in enumerate(perm)):
                perm.append(cand)
                yield from rec()
                perm.pop()

    return rec()


def recognize(cartan: Sequence[Sequence[int]],
              indices: Iterable[int]) -> List[Tuple[str, Tuple[int, ...]]]:
    """Split `indices` into irreducible components and identify each.

    Returns (type name, indices in Bourbaki order) per component, ordered by
    smallest member index; ValueError for an index that is not a row of
    cartan.
    """
    idx = sorted(indices)
    if idx and not 0 <= idx[0] <= idx[-1] < len(cartan):
        raise ValueError(f"simple root indices {idx} outside 0..{len(cartan) - 1}")
    remaining = set(idx)
    comps: List[List[int]] = []
    while remaining:
        seed = min(remaining)
        comp = {seed}
        frontier = {seed}
        while frontier:
            nxt = {j for i in frontier for j in remaining - comp if cartan[i][j] != 0}
            comp |= nxt
            frontier = nxt
        comps.append(sorted(comp))
        remaining -= comp
    out = []
    for comp in comps:
        k = len(comp)
        for cand in (f"{letter}{k}" for letter in "ABCDEFG" if _admits(letter, k)):
            target = build_root_system(cand).cartan
            order = next(_orders(cartan, comp, target), None)
            if order is not None:
                out.append((cand, tuple(order)))
                break
        else:
            raise ValueError(f"unrecognizable Cartan block on {comp}")
    return out


def sub_root_system(rs: RootSystem, keep: Iterable[int]) -> Tuple[RootSystem, Tuple[int, ...]]:
    """Root subsystem generated by a subset of simple roots.

    Returns the abstract root system and the embedding: new simple index ->
    index in `rs`, components ordered by smallest ambient index; ValueError
    for an index that is not a simple root's (`recognize`).
    """
    comps = recognize(rs.cartan, keep)
    name = "x".join(t for t, _ in comps)
    embedding = tuple(i for _, order in comps for i in order)
    return build_root_system(name), embedding


@dataclass(frozen=True)
class ParabolicGrading:
    """Grading of a simple Lie algebra by the coefficient of one simple root."""

    levi: str
    steps: int
    dims: Tuple[int, ...]  # number of positive roots with coefficient 1..steps


def parabolic_grading(rs: RootSystem, alpha: int) -> ParabolicGrading:
    """Grading of the parabolic attached to dropping `alpha` from S."""
    if not 0 <= alpha < rs.rank:
        raise ValueError(f"simple root index {alpha} outside 0..{rs.rank - 1}")
    sub, _ = sub_root_system(rs, [i for i in range(rs.rank) if i != alpha])
    steps = max(v[alpha] for v in rs.positive_roots)
    dims = tuple(sum(1 for v in rs.positive_roots if v[alpha] == d)
                 for d in range(1, steps + 1))
    return ParabolicGrading(levi=sub.name, steps=steps, dims=dims)


def dual_weight(rs: RootSystem, coords: Sequence) -> tuple:
    """Dual of a weight given in fundamental-weight coordinates: its image
    under the involution of S induced by -w0."""
    if len(coords) != rs.rank:
        raise ValueError(f"{len(coords)} coordinates for rank {rs.rank}")
    perm = list(range(rs.rank))
    for letter, r, idx in rs.components:
        if letter == "A":
            for p, i in enumerate(idx):
                perm[i] = idx[r - 1 - p]
        elif letter == "D" and r % 2 == 1:
            perm[idx[r - 2]], perm[idx[r - 1]] = idx[r - 1], idx[r - 2]
        elif letter == "E" and r == 6:
            for p, q in ((0, 5), (2, 4)):
                perm[idx[p]], perm[idx[q]] = idx[q], idx[p]
    out = [0] * rs.rank
    for i, c in enumerate(coords):
        out[perm[i]] = c
    return tuple(out)


def weight_coords(rs: RootSystem, v: Sequence) -> tuple:
    """Fundamental-weight coordinates of a vector given in root coordinates."""
    return tuple(cartan_eval(rs, i, v) for i in range(rs.rank))
