"""JSON interchange and textual/DOT rendering of spherical systems.

Document schema (version "1"):

    {"version": "1",
     "root_system": {"components": [{"type": "F", "rank": 4}]},
     "system": {"sigma": [[1,2,3,2]], "sp": [0,1,2], "a_rows": [[...]]},
     "annotations": {...}}           # optional; accepted, ignored, never emitted

Simple-root indices are 0-based in JSON; text renderings use the 1-based
names a1, a2, ... Color memberships are derived on load from the rows.
"""
from __future__ import annotations

import json
from functools import lru_cache
from typing import TYPE_CHECKING, List

from .rootsys import RootSystem, build_root_system
from .sphroots import render_root
from .system import Row, SphericalSystem, colors, make_system, validate
if TYPE_CHECKING:  # quotient imports this module
    from .quotient import QuotientLattice

FORMAT_VERSION = "1"


class SchemaError(ValueError):
    """The document does not match the interchange schema."""


class InvalidSystemError(ValueError):
    """The document encodes an axiom-violating system."""

    def __init__(self, violations: List[str]):
        super().__init__("; ".join(violations))
        self.violations = violations


def _int(x: object, what: str) -> int:
    """x itself if it is a JSON integer; ValueError for a float, a string or
    a bool (a subclass of int)."""
    if type(x) is not int:
        raise ValueError(f"{what} {x!r} is not an integer")
    return x


def spec_from_json(doc: dict) -> RootSystem:
    """The root system of a document's components: each has a one-letter type
    in ABCDEFG and an integer rank."""
    try:
        factors = []
        for c in doc["components"]:
            letter = c["type"]
            if letter not in tuple("ABCDEFG"):
                raise ValueError(f"type {letter!r} is not one letter of ABCDEFG")
            factors.append(f"{letter}{_int(c['rank'], 'rank')}")
        return build_root_system("x".join(factors))
    except (KeyError, TypeError, ValueError) as e:
        raise SchemaError(f"bad root_system spec: {e}")


# a document as `json.dumps(doc, sort_keys=True, separators=(",", ":"))` writes
# it, keys in sorted order: root system, then the system's a_rows, sigma and sp
_DOCUMENT = ('{"root_system":%s,"system":{"a_rows":[%s],"sigma":[%s],"sp":%s},"version":'
             + json.dumps(FORMAT_VERSION) + '}\n')


# Censuses share few rows among many members (E8: 4,412 distinct rows in
# 1,113,760 row references), so each row's text is built once per process.
@lru_cache(maxsize=None)
def _row_text(row: Row) -> str:
    return "[" + ",".join(map(str, row)) + "]"


def emit_system(sys: SphericalSystem) -> str:
    """Canonical JSON document for a system; byte-deterministic. The root
    system's, each spherical root's and each row's text is built once
    (`json_text`, `_row_text`). S^p and the rows hold ints only, so their
    `str` forms are their JSON: a row's entries joined by commas, S^p's list
    less the spaces."""
    return _DOCUMENT % (sys.rs.json_text, ",".join(map(_row_text, sys.a_rows)),
                        ",".join([s.json_text for s in sys.sigma]),
                        str(sorted(sys.sp)).replace(" ", ""))


def parse_system(text: str, allow_invalid: bool = False) -> SphericalSystem:
    """Parse and validate a JSON system document; every sigma, sp and a_rows
    entry must be an integer."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:  # RecursionError: nested too deeply
        raise SchemaError(f"malformed JSON: {e}")
    if not isinstance(doc, dict) or doc.get("version") != FORMAT_VERSION:
        raise SchemaError("missing or unsupported format version")
    for key in ("root_system", "system"):
        if key not in doc:
            raise SchemaError(f"missing {key!r}")
    rs = spec_from_json(doc["root_system"])
    body = doc["system"]
    try:
        sys = make_system(rs,
                          [tuple(_int(c, "sigma entry") for c in v) for v in body["sigma"]],
                          [_int(i, "sp entry") for i in body["sp"]],
                          [tuple(_int(c, "a_rows entry") for c in r) for r in body["a_rows"]])
    except (KeyError, TypeError, ValueError) as e:
        raise SchemaError(str(e))
    if not allow_invalid:
        violations = validate(sys)
        if violations:
            raise InvalidSystemError(violations)
    return sys


def render_text(sys: SphericalSystem) -> str:
    """Human-readable rendering: spherical roots, Sp and the A-matrix block."""
    lines = []
    if sys.sigma:
        for k, s in enumerate(sys.sigma, start=1):
            lines.append(f"sigma{k} = {render_root(s)}")
    else:
        lines.append("Sigma = {}")
    sp = ", ".join(f"a{i + 1}" for i in sorted(sys.sp))
    lines.append("Sp = {" + sp + "}")
    if sys.a_rows:
        lines.append("A:      " + " ".join(f"{'s' + str(j + 1):>4}"
                                           for j in range(len(sys.sigma))))
        for r in sys.a_rows:
            lines.append("        " + " ".join(f"{v:>4}" for v in r))
    else:
        lines.append("A = {}")
    return "\n".join(lines)


def render_colors(sys: SphericalSystem) -> str:
    """Full pairing table: one line per color with its values on sigma."""
    cset = colors(sys)
    lines = ["color   kind  " + " ".join(f"{'s' + str(j + 1):>4}"
                                         for j in range(len(sys.sigma)))]
    for c in cset.colors:
        lines.append(f"{c.name():<8}{c.kind:<6}"
                     + " ".join(f"{v:>4}" for v in c.row))
    return "\n".join(lines)


def render_dot(lattice: QuotientLattice) -> str:
    """Graphviz document: minimal edges solid and labeled, others dashed."""
    ids = {node.key(): f"n{i}" for i, node in enumerate(lattice.nodes)}
    lines = ["digraph quotients {", '  node [shape=box, fontname="monospace"];']
    for node in lattice.nodes:
        label = render_text(node).replace("\\", "\\\\").replace('"', '\\"')
        label = label.replace("\n", "\\l") + "\\l"
        lines.append(f'  {ids[node.key()]} [label="{label}"];')
    for e in lattice.edges:
        attrs = []
        if e.minimal:
            if e.kind:
                attrs.append(f'label="{e.kind}"')
        else:
            attrs.append("style=dashed")
        attr = (" [" + ", ".join(attrs) + "]") if attrs else ""
        lines.append(f"  {ids[e.source.key()]} -> {ids[e.target.key()]}{attr};")
    lines.append("}")
    return "\n".join(lines) + "\n"
