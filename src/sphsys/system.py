"""Spherical systems: axioms, colors, defect, dimension and localizations.

A spherical system over a root system R is a triple (Sigma, Sp, A): spherical
roots without proportional pairs, a parabolic subset of simple roots, and a
multiset of integer rows over Sigma attached to the simple spherical roots.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations
from typing import Dict, FrozenSet, Iterable, List, Sequence, Tuple

from .rootsys import RootSystem, sub_root_system
from .sphroots import SphericalRoot, is_compatible, render_root, spherical_root

Row = Tuple[int, ...]


def _simple_columns(sigma: Sequence[SphericalRoot]) -> Dict[int, int]:
    """Map simple index alpha -> column of alpha in sigma, for the alpha in sigma."""
    return {s.support[0]: col for col, s in enumerate(sigma) if s.shape == "a1"}


@dataclass(frozen=True)
class SphericalSystem:
    """An immutable spherical system in canonical internal order.

    sigma is sorted by (height, coefficient vector); a_rows columns follow
    sigma and the rows are sorted lexicographically.
    """

    rs: RootSystem
    sigma: Tuple[SphericalRoot, ...]
    sp: FrozenSet[int]
    a_rows: Tuple[Row, ...]

    def key(self) -> tuple:
        return self._key

    # built once per instance: systems are hashed for every cache lookup
    @cached_property
    def _key(self) -> tuple:
        return (self.rs.name, tuple(s.coeffs for s in self.sigma),
                tuple(sorted(self.sp)), self.a_rows)

    @cached_property
    def _hash(self) -> int:
        return hash(self._key)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SphericalSystem) and self.key() == other.key()

    @property
    def rank(self) -> int:
        return len(self.sigma)

    def simple_sigma(self) -> Dict[int, int]:
        """Map simple index -> column for the sigma that are simple roots."""
        return _simple_columns(self.sigma)

    def support(self) -> FrozenSet[int]:
        return frozenset(i for s in self.sigma for i in range(self.rs.rank)
                         if s.coeffs[i])


def make_system(rs: RootSystem, sigma_vectors: Iterable[Sequence[int]],
                sp: Iterable[int], a_rows: Iterable[Sequence[int]]) -> SphericalSystem:
    """Build a system in canonical order from sigma vectors and matching rows."""
    sigmas = [spherical_root(rs, v) for v in sigma_vectors]
    sp = frozenset(sp)
    for a in sp:  # a bool is an int, but `emit_system` would write True
        if type(a) is not int:
            raise ValueError(f"Sp entry {a!r} is not an integer")
    if any(not 0 <= a < rs.rank for a in sp):
        raise ValueError(f"Sp {sorted(sp)} has an index outside 0..{rs.rank - 1}")
    rows = [tuple(r) for r in a_rows]
    if any(len(r) != len(sigmas) for r in rows):
        raise ValueError("a_rows width must equal the number of spherical roots")
    # `emit_system` caches a row's text by the row, and (True,) == (1.0,) == (1,)
    for r in rows:
        for a in r:
            if type(a) is not int:
                raise ValueError(f"A entry {a!r} is not an integer")
    return _canonical(rs, sigmas, sp, rows)


def _canonical(rs: RootSystem, sigma: Sequence[SphericalRoot], sp: FrozenSet[int],
               a_rows: Iterable[Row]) -> SphericalSystem:
    """The system with Sigma sorted by (height, coefficient vector), the
    columns of the rows following it and the rows sorted; the rows must be
    as wide as Sigma and Sp must lie in rs."""
    order = sorted(range(len(sigma)), key=lambda i: sigma[i].sort_key())
    return SphericalSystem(rs=rs, sigma=tuple(sigma[i] for i in order), sp=sp,
                           a_rows=tuple(sorted(tuple(r[i] for i in order) for r in a_rows)))


def _proportional(s: SphericalRoot, t: SphericalRoot) -> bool:
    """Whether s and t are proportional (Sigma holds no such pair)."""
    u, v = s.coeffs, t.coeffs
    return all(ui * sum(v) == vi * sum(u) for ui, vi in zip(u, v))


def _sigma1_ok(s: SphericalRoot, t: SphericalRoot) -> bool:
    """(Sigma1): if s = 2alpha, then <alpha^vee, t> is non-positive and even."""
    if s.shape != "2a1" or t == s:
        return True
    val = t.pairings[s.support[0]]
    return val <= 0 and val % 2 == 0


def _sigma2_ok(s: SphericalRoot, t: SphericalRoot) -> bool:
    """(Sigma2): if s = alpha + beta with alpha, beta orthogonal, then t pairs
    equally with alpha and beta."""
    if s.shape != "a1xa1":
        return True
    i, j = s.support
    return t.pairings[i] == t.pairings[j]


def _a1_ok(value: int, at_simple_column: bool) -> bool:
    """(A1): an entry of A is at most 1, and 1 only in a simple root's column."""
    return value < 1 or value == 1 and at_simple_column


def _a2_ok(rows: Sequence[Row], want: Row) -> bool:
    """(A2): A(alpha), the rows with a 1 in alpha's column, is two rows that
    sum to want = <alpha^vee, Sigma>."""
    return len(rows) == 2 and all(x + y == w for x, y, w in zip(*rows, want))


def validate(sys: SphericalSystem) -> List[str]:
    """All axiom violations of the triple, in a fixed report order."""
    out: List[str] = []
    for s, t in combinations(sys.sigma, 2):
        if _proportional(s, t):
            out.append(f"proportional spherical roots {render_root(s)}"
                       f" and {render_root(t)}")
    for s in sys.sigma:
        if not is_compatible(s, sys.sp):
            out.append(f"(S) Sp not compatible with {render_root(s)}")
    simple_cols = sys.simple_sigma()
    cols_simple = set(simple_cols.values())
    for r in sys.a_rows:
        for col, val in enumerate(r):
            if _a1_ok(val, col in cols_simple):
                continue
            out.append(f"(A1) value {val} > 1 in row {r}" if val > 1 else
                       f"(A1) value 1 at non-simple root"
                       f" {render_root(sys.sigma[col])} in row {r}")
    for alpha, col in sorted(simple_cols.items()):
        rows = [r for r in sys.a_rows if r[col] == 1]
        want = tuple(s.pairings[alpha] for s in sys.sigma)
        if _a2_ok(rows, want):
            continue
        if len(rows) != 2:
            out.append(f"(A2) A(a{alpha + 1}) has {len(rows)} elements, expected 2")
        else:
            got = tuple(x + y for x, y in zip(*rows))
            out.append(f"(A2) A(a{alpha + 1}) sums to {got}, expected {want}")
    for r in sys.a_rows:
        if 1 not in r:
            out.append(f"(A3) row {r} belongs to no A(alpha)")
    for s in sorted(sys.sigma, key=lambda s: s.support):  # 2alpha by alpha
        for t in sys.sigma:
            if not _sigma1_ok(s, t):
                alpha = s.support[0]
                out.append(f"(Sigma1) <a{alpha + 1}^vee, {render_root(t)}> ="
                           f" {t.pairings[alpha]} is not a non-positive even integer")
    for s in sys.sigma:
        for t in sys.sigma:
            if not _sigma2_ok(s, t):
                i, j = s.support
                out.append(f"(Sigma2) <a{i + 1}^vee,{render_root(t)}> = {t.pairings[i]}"
                           f" != <a{j + 1}^vee,{render_root(t)}> = {t.pairings[j]}")
    return out


@dataclass(frozen=True)
class Color:
    """A color: its kind (a, 2a or b), owning simple roots and pairing row."""

    kind: str  # "a" | "2a" | "b"
    owners: Tuple[int, ...]  # simple indices alpha with this color in Delta(alpha)
    row: Row  # full pairing values on sigma

    def name(self) -> str:
        tag = {"a": "", "2a": "2", "b": ""}[self.kind]
        return "d" + tag + "".join(f"a{i + 1}" for i in self.owners)


@dataclass(frozen=True)
class ColorSet:
    """The full set of colors of a system, with the ownership map."""

    colors: Tuple[Color, ...]
    delta_of: Tuple[Tuple[int, ...], ...]  # simple index -> color indices

    def __len__(self) -> int:
        return len(self.colors)


@lru_cache(maxsize=None)
def colors(sys: SphericalSystem) -> ColorSet:
    """The colors of a valid system with their pairing rows.

    Delta^a has one color per row of A, owned by the simple roots with a 1
    in their column. Delta^2a has one color per alpha with 2alpha in Sigma,
    with row <alpha^vee, Sigma> / 2. Delta^b is S^b, the simple roots in
    none of S^p, Sigma and Sigma/2, where alpha and beta are one color when
    they are orthogonal and alpha + beta is in Sigma; its row is
    <alpha^vee, Sigma>.

    Such classes have at most two members, and both lie in S^b: by (Sigma2)
    every sigma pairs equally with alpha and beta, so a second root
    alpha + gamma, which pairs 2 with alpha and at most 0 with beta, is not
    in Sigma, and neither are alpha, beta, 2alpha and 2beta. Neither end is
    in S^p by (S). So the class of alpha is alpha and the other end of the
    orthogonal sum in Sigma that holds it, if any.

    Order: the a_rows in their stored order, then type-2a colors by simple
    index, then type-b colors by smallest owner.
    """
    n = sys.rs.rank
    simple_cols = sorted(sys.simple_sigma().items())
    doubled = sorted(s.support[0] for s in sys.sigma if s.shape == "2a1")
    other_end = {}
    for s in sys.sigma:
        if s.shape == "a1xa1":
            i, j = s.support
            other_end[i], other_end[j] = j, i
    cols = [Color(kind="a", owners=tuple(a for a, c in simple_cols if r[c] == 1), row=r)
            for r in sys.a_rows]
    cols += [Color(kind="2a", owners=(a,), row=tuple(_half(s.pairings[a]) for s in sys.sigma))
             for a in doubled]
    taken = sys.sp.union(doubled, (a for a, _ in simple_cols))
    cols += [Color(kind="b", owners=tuple(sorted({a, other_end.get(a, a)})),
                   row=tuple(s.pairings[a] for s in sys.sigma))
             for a in range(n) if a not in taken and other_end.get(a, a) >= a]
    delta = tuple(tuple(k for k, c in enumerate(cols) if a in c.owners) for a in range(n))
    return ColorSet(colors=tuple(cols), delta_of=delta)


def _half(v: int) -> int:
    if v % 2 != 0:
        raise ValueError(f"odd pairing value {v} at a doubled simple root")
    return v // 2


def defect(sys: SphericalSystem) -> int:
    """Number of colors minus the rank."""
    return len(colors(sys).colors) - sys.rank


def dimension(sys: SphericalSystem) -> int:
    """rank + number of positive roots moved by the parabolic of Sp."""
    sub, _ = sub_root_system(sys.rs, sys.sp)
    return sys.rank + len(sys.rs.positive_roots) - len(sub.positive_roots)


def is_cuspidal(sys: SphericalSystem) -> bool:
    """Whether the support of Sigma together with Sp is all of S.

    Of the two notions of cuspidality in the literature this is the one
    with supp Sigma union S^p = S, not the stricter supp Sigma = S.
    """
    return sys.support() | sys.sp == frozenset(range(sys.rs.rank))


def negative_colors(sys: SphericalSystem) -> List[Tuple[Color, str]]:
    """Colors with non-positive pairing row, tagged interior or exterior."""
    supp = sys.support()
    out = []
    for c in colors(sys).colors:
        if all(v <= 0 for v in c.row):
            where = "interior" if any(a in supp for a in c.owners) else "exterior"
            out.append((c, where))
    return out


def _vector_of(sys: SphericalSystem, g: Sequence[int]) -> List[int]:
    """The coefficient vector of sum_i g_i sigma_i, one sigma_i at a time."""
    vector = [0] * sys.rs.rank
    for gi, s in zip(g, sys.sigma):
        if gi:
            vector = [v + gi * x for v, x in zip(vector, s.coeffs)]
    return vector


def _on_columns(sys: SphericalSystem, cols: Sequence[int], sp: FrozenSet[int],
                rows: Iterable[Row]) -> SphericalSystem:
    """The system on the ascending Sigma columns cols of sys, with S^p = sp
    and the given rows of sys projected onto cols: Sigma keeps its order,
    so only the rows are sorted. The localization at those columns, which is
    S/D when D's kernel generators are their unit vectors (`quotient.quotient`)."""
    return SphericalSystem(rs=sys.rs, sigma=tuple(sys.sigma[c] for c in cols), sp=sp,
                           a_rows=tuple(sorted(tuple(r[c] for c in cols) for r in rows)))


def _relabel(sys: SphericalSystem, rs: RootSystem, emb: Sequence[int]) -> SphericalSystem:
    """sys over rs, where simple root k of rs is simple root emb[k] of sys;
    Sigma and Sp must lie on the image of emb."""
    return make_system(rs, [tuple(s.coeffs[j] for j in emb) for s in sys.sigma],
                       [k for k, j in enumerate(emb) if j in sys.sp], sys.a_rows)


def localize_sigma(sys: SphericalSystem, keep_vectors: Iterable[Sequence[int]]) -> SphericalSystem:
    """Localization at a subset of Sigma: keep Sp, and the rows of A(alpha)
    for each simple alpha kept, those with a 1 in its column, restricted to
    the kept columns (`_on_columns`)."""
    keep = {tuple(v) for v in keep_vectors}
    cols = [i for i, s in enumerate(sys.sigma) if s.coeffs in keep]
    if len(cols) != len(keep):
        raise ValueError("keep_vectors must be a subset of sigma")
    simple = [c for c in sys.simple_sigma().values() if sys.sigma[c].coeffs in keep]
    return _on_columns(sys, cols, sys.sp,
                       [r for r in sys.a_rows if any(r[c] == 1 for c in simple)])


def localize_s(sys: SphericalSystem, s_keep: Iterable[int]) -> SphericalSystem:
    """Localization at a subset of S, over the corresponding root subsystem."""
    s_keep = frozenset(s_keep)
    sub, emb = sub_root_system(sys.rs, s_keep)
    local = localize_sigma(sys, [s.coeffs for s in sys.sigma if s_keep.issuperset(s.support)])
    return _relabel(local, sub, emb)
