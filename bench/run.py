"""Benchmark of the sphsys census, quotient and faithful-couple engines.

Run from the repository root:

    python3 bench/run.py --workload census --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --seed 1                  # every workload, in turn

Workloads (see `workloads.py` for why each was chosen):

    census     enumerate_systems + emit_system on every member, per type
    quotients  every distinguished subset of the F4 and D4 censuses
    faithful   faithful_couples for every small weight over F4 and A3

With `--trace 0` the run sets up (for at least `SETUP_ROUND_S`) and runs a
timed pass, until `--seconds` have passed and at least `MIN_PASSES` passes
have run, and reports the end-to-end metrics as medians over those. Pass times are bounded in multiples of a reference loop
timed between tasks ("ref"), because on a shared machine seconds drift by a
third within a minute; seconds are printed beside them. With `--trace 1` it
runs one untraced pass and one traced pass, and reports the per-layer
metrics of the traced pass and the tracing overhead. Output checks run
after the timed passes; a failed check counts as a failed operation.

Every metric is printed with its unit; the last line of standard output is
one JSON object with the keys `correct`, `attempted`, `failed` and
`metrics`. The full result, with the failures needed to reproduce each
failed operation, goes to `bench/results/`.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

SETUP_ROUND_S = 0.4  # before each pass, set up repeatedly for at least this long
MIN_PASSES = 3
DEADLINE_S = 120  # stop adding passes past this, so that a run ends within 180 s
TAIL_BEYOND = 10  # the tail percentile leaves this many tasks beyond it


def git_sha(root: Path) -> str:
    """The commit of the checkout, read from `.git` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def tail(values, beyond: int = TAIL_BEYOND):
    """(value, percentile) of the highest percentile with `beyond` values above it,
    or the maximum when there are too few values."""
    ordered = sorted(values)
    k = len(ordered) - beyond - 1 if len(ordered) > beyond else len(ordered) - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def end_to_end(passes, setup_times, peak_rss_mb):
    """The bounded end-to-end metrics, and further timings that are reported
    but not bounded, each a median over the passes of one run.

    Pass times are bounded in reference-loop times ("ref"), which follow the
    machine's drifting speed; in seconds they do not repeat within a tenth
    here. Task percentiles do not repeat within a tenth in either unit on the
    census, which has only 22 tasks.
    """
    def per_pass(fn):
        return statistics.median(fn(p) for p in passes)

    units = passes[0].units
    wall_refs = per_pass(lambda p: p.wall_refs)
    bounded = {
        "wall_refs": wall_refs,
        "setup_s": statistics.median(setup_times),
        "units_per_kref": 1e3 * units / wall_refs,
        "peak_rss_mb": peak_rss_mb,
    }
    reported = {
        "wall_s": per_pass(lambda p: p.wall_s),
        "units_per_s": units / per_pass(lambda p: p.wall_s),
        "task_p50_ms": 1e3 * per_pass(lambda p: statistics.median(p.latencies)),
        "task_tail_ms": 1e3 * per_pass(lambda p: tail(p.latencies)[0]),
        "task_p50_refs": per_pass(lambda p: statistics.median(p.latencies) / p.ref_s),
        "task_tail_refs": per_pass(lambda p: tail(p.latencies)[0] / p.ref_s),
        "ref_ms": 1e3 * per_pass(lambda p: p.ref_s),
    }
    return bounded, reported


def run_workload(workload, seed: int, seconds: float, trace: bool,
                 results_dir: Path = RESULTS) -> dict:
    """Set up, run and check one workload; returns the full result."""
    from workloads import Failure, digest, import_sphsys, run_pass

    started = perf_counter()
    load_start = os.getloadavg()
    setup_times = []

    def set_up(at_least_s: float):
        """Import `sphsys` afresh and build the inputs, repeatedly for at least
        `at_least_s`; returns the last import and its inputs."""
        while True:
            t = perf_counter()
            api = import_sphsys()
            inputs = workload.setup(api)
            setup_times.append(perf_counter() - t)
            at_least_s -= setup_times[-1]
            if at_least_s <= 0:
                return api, inputs

    rng = random.Random(seed)
    passes, layers, tracer = [], {}, None
    if trace:
        from tracing import Tracer
        api, inputs = set_up(0.0)
        passes.append(run_pass(workload, api, inputs, rng))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        tracer = Tracer(api.package, api.modules)
        tracer.install()
        try:
            passes.append(run_pass(workload, api, inputs, rng))
        finally:
            tracer.remove()
        layers = tracer.metrics()
        layers["trace.overhead_s"] = passes[1].wall_s - passes[0].wall_s
    else:
        # set up again before every pass, so that set-up and passes see the
        # same drift of the machine's speed
        while len(passes) < MIN_PASSES or (perf_counter() - started < seconds
                                           and perf_counter() - started < DEADLINE_S):
            api, inputs = set_up(SETUP_ROUND_S)
            passes.append(run_pass(workload, api, inputs, rng))
            if len(passes) == 1:  # set-up and one pass, whatever the number of passes
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # checks, outside the timed passes
    last = passes[-1]
    digests = [digest(workload.lines(api, p.outputs())) for p in passes]
    checks, check_failures = workload.check(api, inputs, last.outputs())
    checks += 1
    if len(set(digests)) != 1 or len({p.ops for p in passes}) != 1:
        check_failures.append(Failure("passes agree", "mismatch", " ".join(digests)))
    op_failures = last.failures
    attempted = last.ops + checks
    failed = len(op_failures) + len(check_failures)

    metrics, reported = end_to_end(passes, setup_times, peak_rss_mb)
    layers["fail_ratio"] = failed / attempted
    _, tail_pct = tail(last.latencies)
    result = {
        "workload": workload.name, "seed": seed, "run_seconds": seconds, "trace": int(trace),
        "git_sha": git_sha(ROOT), "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
        "passes": len(passes), "pass_wall_s": [p.wall_s for p in passes],
        "pass_latencies": [p.latencies for p in passes], "pass_refs": [p.refs for p in passes],
        "setup_s_samples": setup_times, "process_s": perf_counter() - started,
        "tasks_per_pass": len(last.latencies), "task_tail_percentile": tail_pct,
        "units": last.units, "units_name": workload.units,
        "correct": not check_failures, "attempted": attempted, "failed": failed,
        "ops": last.ops, "checks": checks,
        "digest_sha256": digests[-1],
        "metrics": metrics, "reported": reported, "layers": layers,
        "failures": [f.record(api) for f in op_failures + check_failures],
    }
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}-seed{seed}-trace{int(trace)}"
    if tracer is not None:
        tracer.write(str(results_dir / f"{stem}.spans"))
    (results_dir / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    return result


def report(result: dict, declared: dict, prefix: str = "") -> dict:
    """Print one workload's figures; return the declared metrics with units."""
    r = result
    print(f"# {r['workload']}: seed {r['seed']}, {r['passes']} passes, sha {r['git_sha'][:12]},"
          f" python {r['python']}, nproc {r['nproc']},"
          f" loadavg {r['loadavg_start'][0]:.2f} -> {r['loadavg_end'][0]:.2f}")
    print(f"# {r['units']} {r['units_name']} per pass; {r['tasks_per_pass']} tasks per pass;"
          f" task_tail_ms is p{r['task_tail_percentile']:.1f} of each pass, median over passes")
    print(f"# attempted {r['attempted']} ({r['ops']} ops + {r['checks']} checks),"
          f" failed {r['failed']}, fail_ratio {r['layers']['fail_ratio']:.6f},"
          f" correct {str(r['correct']).lower()}")
    print(f"# digest sha256 {r['digest_sha256']}")
    print("# not bounded: " + ", ".join(f"{k} {v:.6g}" for k, v in r["reported"].items()))
    for f in r["failures"]:
        print(f"# failure: {f['what']} {f['error']}: {f['message'][:100]}")
    source = r["layers"] if r["trace"] else r["metrics"]
    out = {}
    for name, unit in declared.items():
        if name not in source:
            raise KeyError(f"metric {name!r} was not measured")
        out[prefix + name] = {"value": source[name], "unit": unit}
        print(f"{prefix}{name} {source[name]:.6g} {unit}")
    return out


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload (default: every workload, in turn)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in spec[kind]}
    names = [args.workload] if args.workload else list(WORKLOADS)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        result = run_workload(WORKLOADS[name](), args.seed, args.seconds, bool(args.trace))
        prefix = "" if args.workload else name + "."
        metrics.update(report(result, declared, prefix))
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
    if not args.workload:
        print("# peak_rss_mb is the process peak up to the first pass of each workload")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    if not (SRC / "sphsys" / "__init__.py").is_file():
        sys.exit(f"error: no sphsys sources at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    sys.exit(main())
