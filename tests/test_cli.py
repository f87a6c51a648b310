"""Command line interface: subcommands, exit codes, file outputs."""

import json

import pytest

from sphsys import build_root_system, make_system
from sphsys.cli import main
from sphsys.serialize import emit_system, parse_system


@pytest.fixture(scope="module")
def example_doc(tmp_path_factory, f4):
    sys = make_system(
        f4,
        [(1, 0, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1)],
        [],
        [(1, 0, 0), (1, -1, 0)],
    )
    path = tmp_path_factory.mktemp("docs") / "example.json"
    path.write_text(emit_system(sys))
    return path, sys


@pytest.fixture(scope="module")
def invalid_doc(tmp_path_factory, f4):
    bad = make_system(f4, [(1, 0, 0, 0), (2, 0, 0, 0)], [], [(1, 2)])
    path = tmp_path_factory.mktemp("docs") / "bad.json"
    path.write_text(emit_system(bad))
    return path


def test_census_counts(capsys):
    assert main(["census", "--type", "A2"]) == 0
    out = capsys.readouterr().out
    assert "rank 0: 4" in out
    assert "rank 1: 5" in out
    assert "rank 2: 3" in out
    assert "total 12" in out


def test_census_single_rank(capsys):
    assert main(["census", "--type", "A2", "--rank", "1"]) == 0
    out = capsys.readouterr().out
    assert out.strip() == "rank 1: 5"


def test_census_jsonl_output(tmp_path, capsys):
    target = tmp_path / "systems.jsonl"
    assert main(["census", "--type", "A1", "--jsonl", str(target)]) == 0
    capsys.readouterr()
    lines = target.read_text().splitlines()
    assert len(lines) == 4
    for line in lines:
        parse_system(line)


def test_validate_ok(example_doc, capsys):
    path, _ = example_doc
    assert main(["validate", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "valid"


def test_validate_invalid_exit_code(invalid_doc, capsys):
    assert main(["validate", str(invalid_doc)]) == 1
    assert capsys.readouterr().out.strip() != "valid"


def test_other_commands_reject_invalid(invalid_doc, capsys):
    assert main(["colors", str(invalid_doc)]) == 1
    capsys.readouterr()


def test_missing_file_is_usage_error(capsys):
    assert main(["validate", "/nonexistent/file.json"]) == 2
    capsys.readouterr()


def test_bad_arguments_are_usage_errors(example_doc, capsys):
    path, _ = example_doc
    assert main(["localize", str(path)]) == 2
    assert main(["localize", str(path), "--sigma", "1", "--s", "1"]) == 2
    assert main(["localize", str(path), "--sigma", "9"]) == 2
    assert main(["census"]) == 2
    assert main(["census", "--type", "Q4"]) == 2
    assert main(["census", "--type", "A0"]) == 2
    assert main(["faithful", "--type", "A3x", "--weight", "w1"]) == 2
    assert main(["faithful", "--type", "A3", "--weight", "xw1"]) == 2
    capsys.readouterr()


# A D4 census member with a quotient whose spherical root (1,2,2,1) is
# missing from the D4 catalog: an internal failure, not a usage error.
# Completing the catalog removes this failure; the test then needs another.
D4_QUOTIENT_FAILURE = (
    '{"root_system":{"components":[{"rank":4,"type":"D"}]},'
    '"system":{"a_rows":[],"sigma":[[0,1,1,0],[1,0,0,1]],"sp":[]},"version":"1"}\n'
)


def test_internal_value_error_exit_code(tmp_path, capsys):
    path = tmp_path / "d4.json"
    path.write_text(D4_QUOTIENT_FAILURE)
    assert main(["quotients", str(path)]) == 3
    assert "internal error: (1, 2, 2, 1) is not a spherical root of D4" in capsys.readouterr().err


def test_colors_table(example_doc, capsys):
    path, _ = example_doc
    assert main(["colors", str(path)]) == 0
    assert capsys.readouterr().out.count("\n") >= 5


def test_quotients_dot(example_doc, tmp_path, capsys):
    path, _ = example_doc
    target = tmp_path / "lattice.dot"
    assert main(["quotients", str(path), "--dot", str(target)]) == 0
    capsys.readouterr()
    dot = target.read_text()
    assert dot.startswith("digraph")


def test_localize_sigma(example_doc, capsys):
    path, sys = example_doc
    assert main(["localize", str(path), "--sigma", "1"]) == 0
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert len(doc["system"]["sigma"]) == 1


def test_localize_s(example_doc, capsys):
    path, _ = example_doc
    assert main(["localize", str(path), "--s", "1,2,3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["root_system"] == {"components": [{"type": "B", "rank": 3}]}


def test_localize_s_empty_reloads(example_doc, tmp_path, capsys):
    path, _ = example_doc
    assert main(["localize", str(path), "--s", ""]) == 0
    out = tmp_path / "empty.json"
    out.write_text(capsys.readouterr().out)
    assert json.loads(out.read_text())["root_system"] == {"components": []}
    assert main(["validate", str(out)]) == 0
    assert capsys.readouterr().out.strip() == "valid"


def test_bad_root_system_type_is_usage_error(tmp_path, capsys):
    path = tmp_path / "z3.json"
    path.write_text('{"root_system":{"components":[{"rank":3,"type":"Z"}]},'
                    '"system":{"a_rows":[],"sigma":[],"sp":[]},"version":"1"}\n')
    assert main(["validate", str(path)]) == 2
    assert "bad root_system spec" in capsys.readouterr().err


def test_glued_root_system_type_is_usage_error(tmp_path, capsys):
    path = tmp_path / "a1xa2.json"
    path.write_text('{"root_system":{"components":[{"rank":2,"type":"A1xA"}]},'
                    '"system":{"a_rows":[],"sigma":[],"sp":[]},"version":"1"}\n')
    assert main(["validate", str(path)]) == 2
    assert "is not one letter" in capsys.readouterr().err


def test_render(example_doc, capsys):
    path, _ = example_doc
    assert main(["render", str(path)]) == 0
    assert "sigma1 = " in capsys.readouterr().out


def test_faithful_adjoint_a3(capsys):
    assert main(["faithful", "--type", "A3", "--weight", "w1+w3"]) == 0
    out = capsys.readouterr().out
    assert out.strip().endswith("couples 5")
