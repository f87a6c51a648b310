"""Command-line interface.

Exit codes: 0 success, 1 validation failure, 2 usage error (including any
OSError: an input file that cannot be read, or an output, a file or stdout,
that cannot be written; and an input that is not UTF-8 text), 3 internal
error: an invariant breach (a kernel that is not free) or any other
ValueError raised past the argument checks.
"""
from __future__ import annotations

import argparse
import sys as _sys
from contextlib import nullcontext
from typing import ContextManager, List, Optional, TextIO

from .closure import faithful_couples
from .enumeration import census
from .quotient import quotient_lattice
from .rootsys import build_root_system
from .serialize import (InvalidSystemError, SchemaError, emit_system,
                        parse_system, render_colors, render_dot, render_text)
from .system import localize_s, localize_sigma, validate

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _open_output(path: Optional[str]) -> ContextManager[Optional[TextIO]]:
    """The output file, opened before any search so that a path that cannot be
    written is a usage error at once; a context of None without a path."""
    return nullcontext() if path is None else open(path, "w", encoding="utf-8")


def _load(path: str, allow_invalid: bool = False):
    try:
        return parse_system(_read(path), allow_invalid=allow_invalid)
    except SchemaError as e:
        raise UsageError(str(e))
    except UnicodeDecodeError as e:
        raise UsageError(f"{path} is not UTF-8 text: {e}")


class UsageError(Exception):
    pass


def _root_system(spec: str):
    try:
        return build_root_system(spec)
    except ValueError as e:
        raise UsageError(str(e))


def cmd_census(args) -> int:
    _root_system(args.type)
    if args.rank is not None and args.rank < 0:
        raise UsageError(f"rank {args.rank} is negative")
    with _open_output(args.jsonl) as out:
        report = census(args.type, mod_diagram_auts=args.mod_diagram_auts)
        if args.rank is None:
            for r in sorted(report.by_rank):
                print(f"rank {r}: {report.by_rank[r]}")
            print(f"total {report.total}")
        else:
            print(f"rank {args.rank}: {report.by_rank.get(args.rank, 0)}")
        if out is not None:
            out.writelines(emit_system(s) for s in report.systems
                           if args.rank is None or s.rank == args.rank)
    return EXIT_OK


def cmd_validate(args) -> int:
    sys_ = _load(args.file, allow_invalid=True)
    violations = validate(sys_)
    if violations:
        for v in violations:
            print(v)
        return EXIT_INVALID
    print("valid")
    return EXIT_OK


def cmd_colors(args) -> int:
    print(render_colors(_load(args.file)))
    return EXIT_OK


def cmd_quotients(args) -> int:
    sys_ = _load(args.file)
    with _open_output(args.dot) as out:
        # print writes to stdout when out is None
        print(render_dot(quotient_lattice(sys_)), end="", file=out)
    return EXIT_OK


def _parse_indices(text: str) -> List[int]:
    try:
        return [int(p) - 1 for p in text.split(",") if p.strip()]
    except ValueError:
        raise UsageError(f"bad index list {text!r}")


def cmd_localize(args) -> int:
    sys_ = _load(args.file)
    if (args.sigma is None) == (args.s is None):
        raise UsageError("exactly one of --sigma or --s is required")
    if args.sigma is not None:
        keep = _parse_indices(args.sigma)
        bad = [i + 1 for i in keep if not 0 <= i < len(sys_.sigma)]
        if bad:
            raise UsageError(f"sigma index out of range: {bad}")
        out = localize_sigma(sys_, [sys_.sigma[i].coeffs for i in keep])
    else:
        keep = _parse_indices(args.s)
        bad = [i + 1 for i in keep if not 0 <= i < sys_.rs.rank]
        if bad:
            raise UsageError(f"simple root index out of range: {bad}")
        out = localize_s(sys_, keep)
    print(emit_system(out), end="")
    return EXIT_OK


def _parse_weight(rank: int, text: str) -> List[int]:
    """Parse a dominant weight like "w2" or "w1+w3" or "2w1"."""
    coords = [0] * rank
    for part in text.split("+"):
        part = part.strip()
        mult = 1
        if "w" not in part:
            raise UsageError(f"bad weight {text!r}")
        head, tail = part.split("w", 1)
        try:
            if head:
                mult = int(head)
            idx = int(tail) - 1
        except ValueError:
            raise UsageError(f"bad weight {text!r}")
        if not 0 <= idx < rank:
            raise UsageError(f"weight index out of range in {text!r}")
        if mult < 0:
            raise UsageError(f"negative coefficient in {text!r}: not a dominant weight")
        coords[idx] += mult
    return coords


def cmd_faithful(args) -> int:
    rs = _root_system(args.type)
    coords = _parse_weight(rs.rank, args.weight)
    report = census(args.type)
    couples = faithful_couples(report.systems, rs, coords)
    for couple, orbit in couples:
        counts = ",".join(str(m) for m in couple.counts)
        print(f"orbit {orbit}: counts [{counts}]")
        print("\n".join("  " + line for line in render_text(couple.system).splitlines()))
    print(f"couples {len(couples)}")
    return EXIT_OK


def cmd_render(args) -> int:
    print(render_text(_load(args.file)))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="sphsys",
                                description="Combinatorics of spherical systems")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("census", help="enumerate all systems of a root system")
    c.add_argument("--type", required=True, help='root system spec, e.g. "F4"')
    c.add_argument("--rank", type=int, default=None, help="restrict to one rank")
    c.add_argument("--mod-diagram-auts", action="store_true",
                   help="count up to Dynkin diagram automorphisms")
    c.add_argument("--jsonl", help="also write systems as JSON lines to a file")
    c.set_defaults(fn=cmd_census)

    c = sub.add_parser("validate", help="check the axioms of a system document")
    c.add_argument("file")
    c.set_defaults(fn=cmd_validate)

    c = sub.add_parser("colors", help="print the full pairing table")
    c.add_argument("file")
    c.set_defaults(fn=cmd_colors)

    c = sub.add_parser("quotients", help="quotient lattice as DOT")
    c.add_argument("file")
    c.add_argument("--dot", help="write the DOT document to a file")
    c.set_defaults(fn=cmd_quotients)

    c = sub.add_parser("localize", help="localize at spherical or simple roots")
    c.add_argument("file")
    c.add_argument("--sigma", help="1-based sigma indices to keep, e.g. 1,3")
    c.add_argument("--s", help="1-based simple root indices to keep")
    c.set_defaults(fn=cmd_localize)

    c = sub.add_parser("faithful", help="faithful couples for a dominant weight")
    c.add_argument("--type", required=True)
    c.add_argument("--weight", required=True, help='e.g. "w2" or "w1+w3"')
    c.set_defaults(fn=cmd_faithful)

    c = sub.add_parser("render", help="textual rendering of a system document")
    c.add_argument("file")
    c.set_defaults(fn=cmd_render)
    return p


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        code = args.fn(args)
        _sys.stdout.flush()  # so that a full stdout fails here, not at exit
        return code
    except InvalidSystemError as e:
        for v in e.violations:
            print(v, file=_sys.stderr)
        return EXIT_INVALID
    except (UsageError, OSError) as e:
        print(f"error: {e}", file=_sys.stderr)
        return EXIT_USAGE
    except (RuntimeError, ValueError) as e:
        print(f"internal error: {e}", file=_sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    _sys.exit(main())
