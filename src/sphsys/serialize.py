"""JSON interchange and textual/DOT rendering of spherical systems.

Document schema (version "1"):

    {"version": "1",
     "root_system": {"components": [{"type": "F", "rank": 4}]},
     "system": {"sigma": [[1,2,3,2]], "sp": [0,1,2], "a_rows": [[...]]},
     "annotations": {...}}           # optional, free-form

Simple-root indices are 0-based in JSON; text renderings use the 1-based
names a1, a2, ... Color memberships are derived on load from the rows.
"""
from __future__ import annotations

import json
from typing import List, Optional

from .rootsys import RootSystem, build_root_system
from .sphroots import render_root
from .system import SphericalSystem, colors, make_system, validate
from .quotient import QuotientLattice

FORMAT_VERSION = "1"


class SchemaError(ValueError):
    """The document does not match the interchange schema."""


class InvalidSystemError(ValueError):
    """The document encodes an axiom-violating system."""

    def __init__(self, violations: List[str]):
        super().__init__("; ".join(violations))
        self.violations = violations


def spec_to_json(rs: RootSystem) -> dict:
    return {"components": [{"type": l, "rank": r} for l, r, _ in rs.components]}


def spec_from_json(doc: dict) -> RootSystem:
    """The root system of a document's components: each has a one-letter type
    in ABCDEFG and an integer rank."""
    try:
        factors = []
        for c in doc["components"]:
            letter, rank = c["type"], c["rank"]
            if letter not in tuple("ABCDEFG"):
                raise ValueError(f"type {letter!r} is not one letter of ABCDEFG")
            if type(rank) is not int:  # bool is a subclass of int
                raise ValueError(f"rank {rank!r} is not an integer")
            factors.append(f"{letter}{rank}")
        return build_root_system("x".join(factors))
    except (KeyError, TypeError, ValueError) as e:
        raise SchemaError(f"bad root_system spec: {e}")


def emit_system(sys: SphericalSystem, annotations: Optional[dict] = None) -> str:
    """Canonical JSON document for a system; byte-deterministic."""
    doc = {
        "version": FORMAT_VERSION,
        "root_system": spec_to_json(sys.rs),
        "system": {
            "sigma": [list(s.coeffs) for s in sys.sigma],
            "sp": sorted(sys.sp),
            "a_rows": [list(r) for r in sys.a_rows],
        },
    }
    if annotations:
        doc["annotations"] = annotations
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def parse_system(text: str, allow_invalid: bool = False) -> SphericalSystem:
    """Parse and validate a JSON system document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
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
                          [tuple(int(c) for c in v) for v in body["sigma"]],
                          [int(i) for i in body["sp"]],
                          [tuple(int(c) for c in r) for r in body["a_rows"]])
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
