"""Command line interface: subcommands, exit codes, file outputs."""

import errno
import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import sphsys
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


def test_census_rank_without_members(tmp_path, capsys):
    target = tmp_path / "systems.jsonl"
    assert main(["census", "--type", "F4", "--rank", "7", "--jsonl", str(target)]) == 0
    assert capsys.readouterr().out == "rank 7: 0\n"
    assert target.read_text() == ""


def test_census_negative_rank_is_usage_error(tmp_path, capsys):
    target = tmp_path / "systems.jsonl"
    assert main(["census", "--type", "F4", "--rank", "-1", "--jsonl", str(target)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "error: rank -1 is negative" in err
    assert not target.exists()


def test_census_jsonl_output(tmp_path, capsys):
    target = tmp_path / "systems.jsonl"
    assert main(["census", "--type", "A1", "--jsonl", str(target)]) == 0
    capsys.readouterr()
    lines = target.read_text().splitlines()
    assert len(lines) == 4
    for line in lines:
        parse_system(line)


def test_census_unwritable_jsonl_is_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "systems.jsonl"
    assert main(["census", "--type", "A1", "--jsonl", str(target)]) == 2
    out, err = capsys.readouterr()
    # the file is opened before the census, so no count is printed
    assert out == ""
    assert "error:" in err
    assert not target.exists()


needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"),
                                    reason="no /dev/full on this platform")


@needs_dev_full
def test_full_output_file_is_usage_error(example_doc, capsys):
    path, _ = example_doc
    for argv in (["census", "--type", "A2", "--jsonl", "/dev/full"],
                 ["census", "--type", "F4", "--jsonl", "/dev/full"],
                 ["quotients", str(path), "--dot", "/dev/full"]):
        assert main(argv) == 2
        assert f"error: [Errno {errno.ENOSPC}]" in capsys.readouterr().err


@needs_dev_full
@pytest.mark.parametrize("command", ["render", "colors", "quotients"])
def test_full_stdout_is_usage_error(example_doc, command):
    path, _ = example_doc
    src = str(Path(sphsys.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    with open("/dev/full", "w") as full:
        done = subprocess.run([sys.executable, "-m", "sphsys.cli", command, str(path)],
                              stdout=full, stderr=subprocess.PIPE, text=True,
                              env=env, timeout=120)
    assert done.returncode == 2
    assert done.stderr == f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"


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


def test_input_not_utf8_is_usage_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{}")
    assert main(["render", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path} is not UTF-8 text")
    assert "internal error" not in err


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
    # a negative coefficient is not a dominant weight
    assert main(["faithful", "--type", "A3", "--weight=-1w1"]) == 2
    assert main(["faithful", "--type", "A3", "--weight", "w1+-2w3"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("weight,message", [("2", "bad weight '2'"),
                                            ("w1+w9", "weight index out of range in 'w1+w9'"),
                                            ("w0", "weight index out of range in 'w0'")])
def test_bad_weight_is_usage_error(capsys, weight, message):
    assert main(["faithful", "--type", "F4", "--weight", weight]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_deeply_nested_json_is_usage_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: malformed JSON")
    assert "internal error" not in err


@pytest.mark.parametrize("sp", ["[7]", "[-1]"])
def test_sp_index_out_of_range_is_usage_error(tmp_path, capsys, sp):
    path = tmp_path / "f4.json"
    path.write_text('{"root_system":{"components":[{"rank":4,"type":"F"}]},'
                    '"system":{"a_rows":[],"sigma":[],"sp":' + sp + '},"version":"1"}\n')
    assert main(["validate", str(path)]) == 2
    assert "outside 0..3" in capsys.readouterr().err


def test_sigma_that_is_no_spherical_root_is_usage_error(tmp_path, capsys):
    path = tmp_path / "f4.json"
    path.write_text('{"root_system":{"components":[{"rank":4,"type":"F"}]},'
                    '"system":{"a_rows":[],"sigma":[[5,0,0,0]],"sp":[]},"version":"1"}\n')
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err == "error: (5, 0, 0, 0) is not a spherical root of F4\n"


def test_internal_value_error_exit_code(example_doc, monkeypatch, capsys):
    # a ValueError raised past the argument checks is an internal failure,
    # not a usage error
    def broken(sys):
        raise ValueError("no such spherical root")

    monkeypatch.setattr("sphsys.cli.quotient_lattice", broken)
    path, _ = example_doc
    assert main(["quotients", str(path)]) == 3
    assert "internal error: no such spherical root" in capsys.readouterr().err


def test_lattice_lookup_miss_exit_code(example_doc, monkeypatch, capsys):
    # a quotient whose colors cannot be matched with the system's is an
    # internal failure, reported with the system it was built from
    module = import_module("sphsys.quotient")
    path, sys = example_doc
    monkeypatch.setattr(module, "kernel_generators", lambda s, members: [])
    assert main(["quotients", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error: Luna's correspondence fails")
    assert emit_system(sys).strip() in err


# A D4 census member with a quotient whose spherical root (1,2,2,1) is a
# triality image of the d-shape root (2,2,1,1).
D4_TRIALITY_QUOTIENT = (
    '{"root_system":{"components":[{"rank":4,"type":"D"}]},'
    '"system":{"a_rows":[],"sigma":[[0,1,1,0],[1,0,0,1]],"sp":[]},"version":"1"}\n'
)


def test_d4_triality_quotient(tmp_path, capsys):
    path = tmp_path / "d4.json"
    path.write_text(D4_TRIALITY_QUOTIENT)
    assert main(["quotients", str(path)]) == 0
    assert capsys.readouterr().out.startswith("digraph")


def test_census_mod_diagram_auts_d4(capsys):
    assert main(["census", "--type", "D4", "--mod-diagram-auts"]) == 0
    assert "total 92" in capsys.readouterr().out


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


def test_quotients_unwritable_dot_is_usage_error(example_doc, tmp_path, capsys,
                                                 monkeypatch):
    def no_search(sys_):
        raise AssertionError("the lattice was built before the output was opened")

    monkeypatch.setattr("sphsys.cli.quotient_lattice", no_search)
    path, _ = example_doc
    target = tmp_path / "missing" / "lattice.dot"
    assert main(["quotients", str(path), "--dot", str(target)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "error:" in err
    assert not target.exists()


def test_localize_reports_indices_as_typed(example_doc, capsys):
    path, _ = example_doc
    assert main(["localize", str(path), "--sigma", "2,5"]) == 2
    assert "sigma index out of range: [5]" in capsys.readouterr().err
    assert main(["localize", str(path), "--s", "0,2,9"]) == 2
    assert "simple root index out of range: [0, 9]" in capsys.readouterr().err


@pytest.mark.parametrize("option", ["--sigma", "--s"])
def test_bad_index_list_is_usage_error(example_doc, capsys, option):
    path, _ = example_doc
    assert main(["localize", str(path), option, "1,x"]) == 2
    assert capsys.readouterr().err == "error: bad index list '1,x'\n"


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
