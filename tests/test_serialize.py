"""JSON interchange round-trips, schema errors and text/DOT rendering."""

import json

import pytest

from conftest import reference_emit
from sphsys import build_root_system, localize_s, make_system
from sphsys.enumeration import census
from sphsys.quotient import enumerate_distinguished, quotient, quotient_lattice
from sphsys.serialize import (
    InvalidSystemError,
    SchemaError,
    _row_text,
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


# `emit_system` assembles its text from parts built once per root system and
# per spherical root; it must be the document dumped whole, byte for byte.
def _emits_reference(sys):
    text = emit_system(sys)
    assert text == reference_emit(sys)
    assert parse_system(text) == sys


# A1 and A2xA1 hold rows one column wide and A-matrices of two equal rows
@pytest.mark.parametrize("name", ["F4", "D4", "G2", "B3", "F4xA1", "A1", "A2xA1"])
def test_emit_matches_reference_on_census(name):
    for sys in census(name).systems:
        _emits_reference(sys)


# each row's text is built once per process, then read from the table
def test_row_text_built_once_per_row(f4_census):
    _row_text.cache_clear()
    for sys in f4_census.systems:
        emit_system(sys)
    distinct = len({r for sys in f4_census.systems for r in sys.a_rows})
    assert _row_text.cache_info().misses == distinct
    for sys in f4_census.systems:
        emit_system(sys)
    assert _row_text.cache_info().misses == distinct


def test_emit_matches_reference_at_rank_zero():
    sys = make_system(build_root_system(""), [], [], [])
    _emits_reference(sys)
    assert emit_system(sys) == ('{"root_system":{"components":[]},'
                                '"system":{"a_rows":[],"sigma":[],"sp":[]},"version":"1"}\n')


def test_emit_matches_reference_on_f4_quotients(f4_census):
    quotients = {quotient(sys, d.members) for sys in f4_census.systems
                 for d in enumerate_distinguished(sys)}
    for q in quotients:
        _emits_reference(q)


def test_emit_is_sorted_compact_json(f4_example):
    text = emit_system(f4_example)
    assert text.endswith("\n")
    doc = json.loads(text)
    assert doc["version"] == "1"
    assert doc["root_system"] == {"components": [{"type": "F", "rank": 4}]}
    assert doc["system"]["sigma"] == [[1, 0, 0, 0], [0, 0, 1, 1], [0, 1, 1, 0]]


def test_parse_accepts_and_ignores_annotations(f4_example):
    doc = json.loads(emit_system(f4_example))
    assert "annotations" not in doc
    doc["annotations"] = {"note": "adjoint"}
    assert parse_system(json.dumps(doc)) == f4_example


def test_schema_errors():
    with pytest.raises(SchemaError):
        parse_system("{}")
    with pytest.raises(SchemaError):
        parse_system(json.dumps({"version": "1", "root_system": {}}))
    with pytest.raises(SchemaError):
        parse_system("not json")
    # nested too deeply for the decoder, which raises RecursionError
    with pytest.raises(SchemaError, match="malformed JSON"):
        parse_system("[" * 100000 + "]" * 100000)
    for comp in ({"type": "Z", "rank": 3}, {"type": "A", "rank": 0},
                 {"type": "A", "rank": "three"}, {"type": "A1xA", "rank": 2},
                 {"type": "A", "rank": "3"}, {"type": "A", "rank": 3.0}):
        doc = {"version": "1", "root_system": {"components": [comp]},
               "system": {"sigma": [], "sp": [], "a_rows": []}}
        with pytest.raises(SchemaError):
            parse_system(json.dumps(doc))


@pytest.mark.parametrize("sigma, sp", [([], [7]), ([], [-1]), ([], [0, 4]),
                                       ([[1, 2, 3, 2]], [0, 1, 2, 4])])
def test_sp_index_out_of_range_is_schema_error(sigma, sp):
    doc = {"version": "1", "root_system": {"components": [{"type": "F", "rank": 4}]},
           "system": {"sigma": sigma, "sp": sp, "a_rows": []}}
    with pytest.raises(SchemaError, match="outside 0..3"):
        parse_system(json.dumps(doc))


def test_sigma_entry_that_is_no_spherical_root_is_schema_error():
    doc = {"version": "1", "root_system": {"components": [{"type": "F", "rank": 4}]},
           "system": {"sigma": [[5, 0, 0, 0]], "sp": [], "a_rows": []}}
    with pytest.raises(SchemaError, match=r"^\(5, 0, 0, 0\) is not a spherical root of F4$"):
        parse_system(json.dumps(doc), allow_invalid=True)


@pytest.mark.parametrize("key, value", [
    ("sigma", [[1.9, 2, 3, 2]]), ("sigma", [[1, 2, 3, 2.0]]), ("sigma", [[True, 2, 3, 2]]),
    ("sigma", [["1", 2, 3, 2]]), ("sp", ["0", 1, 2]), ("sp", [0, 1, 2.0]), ("sp", [False, 1, 2]),
    ("a_rows", [[1.0]])])
def test_non_integer_entries_are_schema_errors(key, value):
    system = {"sigma": [[1, 2, 3, 2]], "sp": [0, 1, 2], "a_rows": []}
    system[key] = value
    doc = {"version": "1", "root_system": {"components": [{"type": "F", "rank": 4}]},
           "system": system}
    with pytest.raises(SchemaError, match="is not an integer"):
        parse_system(json.dumps(doc), allow_invalid=True)


# `emit_system` writes S^p as the `str` of its list of ints, so a system is
# never built with another entry there, not even a bool,
@pytest.mark.parametrize("entry", [True, 1.0, "1"])
def test_non_integer_sp_entries_are_rejected(f4, entry):
    with pytest.raises(ValueError, match="is not an integer"):
        make_system(f4, [], [0, entry], [])


# nor with one in a row, whose text `emit_system` keeps by the row: (True,)
# equals (1,), so it would hand one its text for the other
@pytest.mark.parametrize("entry", [True, 1.0, "1"])
def test_non_integer_row_entries_are_rejected(f4, entry):
    with pytest.raises(ValueError, match="is not an integer"):
        make_system(f4, [(1, 0, 0, 0)], [], [(-1,), (entry,)])


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
