"""JSON interchange round-trips, schema errors and text/DOT rendering."""

import json

import pytest

from sphsys import build_root_system, localize_s, make_system
from sphsys.quotient import quotient_lattice
from sphsys.serialize import (
    InvalidSystemError,
    SchemaError,
    emit_system,
    parse_system,
    render_colors,
    render_dot,
    render_text,
)


@pytest.fixture(scope="module")
def f4_example(f4):
    return make_system(
        f4,
        [(1, 0, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1)],
        [],
        [(1, 0, 0), (1, -1, 0)],
    )


def test_emit_parse_round_trip(f4_example):
    text = emit_system(f4_example)
    assert parse_system(text) == f4_example
    # byte-deterministic: a second emission is identical
    assert emit_system(parse_system(text)) == text


def test_emit_round_trip_census_sample(f4_census):
    for sys in f4_census.systems[:: max(1, len(f4_census.systems) // 30)]:
        assert parse_system(emit_system(sys)) == sys


def test_emit_is_sorted_compact_json(f4_example):
    text = emit_system(f4_example)
    assert text.endswith("\n")
    doc = json.loads(text)
    assert doc["version"] == "1"
    assert doc["root_system"] == {"components": [{"type": "F", "rank": 4}]}
    assert doc["system"]["sigma"] == [[1, 0, 0, 0], [0, 0, 1, 1], [0, 1, 1, 0]]


def test_annotations_preserved(f4_example):
    text = emit_system(f4_example, annotations={"note": "adjoint"})
    assert json.loads(text)["annotations"] == {"note": "adjoint"}
    assert parse_system(text) == f4_example


def test_schema_errors():
    with pytest.raises(SchemaError):
        parse_system("{}")
    with pytest.raises(SchemaError):
        parse_system(json.dumps({"version": "1", "root_system": {}}))
    with pytest.raises(SchemaError):
        parse_system("not json")
    for comp in ({"type": "Z", "rank": 3}, {"type": "A", "rank": 0},
                 {"type": "A", "rank": "three"}, {"type": "A1xA", "rank": 2},
                 {"type": "A", "rank": "3"}, {"type": "A", "rank": 3.0}):
        doc = {"version": "1", "root_system": {"components": [comp]},
               "system": {"sigma": [], "sp": [], "a_rows": []}}
        with pytest.raises(SchemaError):
            parse_system(json.dumps(doc))


def test_empty_localization_round_trip(f4_example):
    sys = localize_s(f4_example, [])
    text = emit_system(sys)
    assert json.loads(text)["root_system"] == {"components": []}
    assert parse_system(text) == sys
    assert emit_system(parse_system(text)) == text


def test_invalid_system_rejected(f4):
    bad = make_system(f4, [(1, 0, 0, 0), (2, 0, 0, 0)], [], [(1, 2)])
    text = emit_system(bad)
    with pytest.raises(InvalidSystemError) as exc:
        parse_system(text)
    assert exc.value.violations
    assert parse_system(text, allow_invalid=True) == bad


def test_render_text(f4_example):
    text = render_text(f4_example)
    assert "a1" in text and "Sp" in text
    lines = text.splitlines()
    assert any(line.startswith("sigma1 = ") for line in lines)


def test_render_text_empty(f4):
    sys = make_system(f4, [], [0, 3], [])
    text = render_text(sys)
    assert "Sigma = {}" in text
    assert "Sp = {a1, a4}" in text
    assert "A = {}" in text


def test_render_colors(f4_example):
    table = render_colors(f4_example)
    assert table.count("\n") >= 5


def test_render_dot(f4):
    sys = make_system(
        build_root_system("B3"), [(1, 1, 0), (0, 1, 1), (0, 0, 2)], [], []
    )
    dot = render_dot(quotient_lattice(sys))
    assert dot.startswith("digraph")
    assert "->" in dot
