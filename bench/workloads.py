"""The benchmark workloads: inputs, what one pass runs, and output checks.

A workload's set-up imports `sphsys` afresh and builds the pass's inputs.
A pass starts with every `lru_cache` in `sphsys` empty, as each `sphsys`
command-line invocation does, and runs its tasks in an order shuffled by
the seed. Outputs are sorted before they are compared or hashed, so the
order never shows in a check or a digest.
"""
from __future__ import annotations

import gc
import hashlib
import importlib
import random
import statistics
import sys
from dataclasses import dataclass, field
from itertools import product
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# Enumeration-bound types up to rank 5. Rank-5 simple types are left out:
# each takes minutes until the census search prunes on S^p.
CENSUS_TYPES = ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "G2",
                "F4", "A1xA1", "A2xA1", "A2xA2", "A3xA1", "B2xA1", "B3xA1", "A1xG2",
                "A2xA3", "A4xA1", "F4xA1")
# D4 is kept although some of its quotients raise today: those failures must show.
QUOTIENT_TYPES = ("F4", "D4")
FAITHFUL_TYPES = ("F4", "A3")

# Reference results from the paper. D4 is not gated: its census is known to
# miss two triality images of a spherical root.
EXPECTED_BY_RANK = {"F4": {0: 16, 1: 41, 2: 61, 3: 77, 4: 71}}
EXPECTED_FAITHFUL = {("F4", (1, 0, 0, 0)): 3, ("F4", (0, 1, 0, 0)): 10,
                     ("F4", (0, 0, 1, 0)): 8, ("F4", (0, 0, 0, 1)): 3,
                     ("A3", (1, 0, 1)): 5}


@dataclass
class Api:
    """A fresh import of `sphsys`: the package, its modules and its caches."""

    package: object
    modules: Dict[str, object]
    caches: List[object]

    def __getattr__(self, name: str):
        return getattr(self.package, name)

    def clear_caches(self) -> None:
        for cache in self.caches:
            cache.cache_clear()


def import_sphsys() -> Api:
    """Import `sphsys` as a new process would, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "sphsys" or n.startswith("sphsys.")]:
        del sys.modules[name]
    package = importlib.import_module("sphsys")
    modules = {n.split(".", 1)[1]: m for n, m in sys.modules.items()
               if n.startswith("sphsys.")}
    caches = [obj for mod in modules.values() for obj in vars(mod).values()
              if hasattr(obj, "cache_clear") and getattr(obj, "__module__", None) == mod.__name__]
    return Api(package=package, modules=modules, caches=caches)


@dataclass
class Failure:
    """A failed operation or check, with what it takes to reproduce it."""

    what: str  # the operation or check
    error: str  # exception type, or the name of the check
    message: str
    system: Optional[object] = None  # the input system, emitted when reported
    members: Optional[Tuple[int, ...]] = None
    spec: Optional[str] = None

    def record(self, api: Api) -> dict:
        return {"what": self.what, "error": self.error, "message": self.message,
                "input": api.emit_system(self.system) if self.system is not None else self.spec,
                "members": list(self.members) if self.members is not None else None}


def _failure(what: str, exc: Exception, **where) -> Failure:
    return Failure(what=what, error=type(exc).__name__, message=str(exc), **where)


@dataclass
class TaskResult:
    ops: int = 0
    units: int = 0
    outputs: list = field(default_factory=list)
    failures: List[Failure] = field(default_factory=list)


@dataclass
class PassResult:
    """One pass: task latencies, reference-loop samples and task results."""

    latencies: List[float]
    refs: List[float]
    results: List[TaskResult]

    @property
    def wall_s(self) -> float:
        return sum(self.latencies)

    @property
    def ref_s(self) -> float:
        """The reference loop's mean time over the pass. Sampled at a steady
        rate, its mean follows the machine's mean speed during the pass,
        which its median does not."""
        return statistics.fmean(self.refs)

    @property
    def wall_refs(self) -> float:
        return self.wall_s / self.ref_s

    @property
    def ops(self) -> int:
        return sum(r.ops for r in self.results)

    @property
    def units(self) -> int:
        return sum(r.units for r in self.results)

    @property
    def failures(self) -> List[Failure]:
        return [f for r in self.results for f in r.failures]

    def outputs(self) -> list:
        return [o for r in self.results for o in r.outputs]


# The speed of a shared machine drifts by a third within tens of seconds.
# Timing a fixed piece of interpreter work between tasks, at most every
# REF_EVERY_S, lets a pass's time also be stated in multiples of it. Work
# that allocates tuples, sets and dicts, as sphsys does, followed the drift
# more closely than a tight arithmetic loop or a mix with Fractions.
REF_EVERY_S = 0.25


def reference_work() -> int:
    rows = [tuple((i * 31 + j * 17) % 11 - 5 for j in range(6)) for i in range(1500)]
    groups: Dict[frozenset, list] = {}
    for r in rows:
        groups.setdefault(frozenset(x for x in r if x > 0), []).append(r)
    rows.sort()
    return len(groups) + sum(1 for r in rows if all(v <= 3 for v in r))


def _time_reference() -> float:
    """Seconds taken by `reference_work`, with the cyclic collector held off
    so that the sample does not depend on the size of the heap."""
    gc.disable()
    try:
        t = perf_counter()
        reference_work()
        return perf_counter() - t
    finally:
        gc.enable()


def run_pass(workload, api: Api, inputs, rng: random.Random) -> PassResult:
    """One timed pass: empty caches, then every task in a shuffled order.
    Latencies and results are listed in the tasks' own order."""
    api.clear_caches()
    gc.collect()
    tasks = workload.tasks(api, inputs)
    order = list(range(len(tasks)))
    rng.shuffle(order)
    latencies, results = [0.0] * len(tasks), [None] * len(tasks)
    refs: List[float] = []
    sampled = float("-inf")
    for i in order:
        if perf_counter() - sampled >= REF_EVERY_S:
            refs.append(_time_reference())
            sampled = perf_counter()
        t = perf_counter()
        results[i] = tasks[i]()
        latencies[i] = perf_counter() - t
    return PassResult(latencies=latencies, refs=refs, results=results)


def digest(lines: Sequence[str]) -> str:
    return hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()


class Census:
    """`enumerate_systems` then `emit_system` on every member, one task per type.

    All enumeration and spherical roots, no quotient work: `sp_of`/`spp_of`
    in the S^p choices and `enumerate_a_matrices` dominate, so a faster
    census search shows here and nowhere else but in set-up times.
    """

    name = "census"
    units = "systems emitted"

    def __init__(self, types: Sequence[str] = CENSUS_TYPES):
        self.types = tuple(types)

    def setup(self, api: Api):
        return [api.build_root_system(t).name for t in self.types]

    def tasks(self, api: Api, specs) -> List[Callable[[], TaskResult]]:
        build, enumerate_systems, emit = (api.build_root_system, api.enumerate_systems,
                                          api.emit_system)

        def task(spec: str) -> TaskResult:
            try:
                report = enumerate_systems(build(spec))
                docs = [emit(s) for s in report.systems]
            except Exception as exc:
                return TaskResult(ops=1, failures=[_failure("enumerate_systems", exc, spec=spec)])
            return TaskResult(ops=1 + len(docs), units=len(docs),
                              outputs=[(spec, dict(report.by_rank), docs)])
        return [lambda s=s: task(s) for s in specs]

    def lines(self, api: Api, outputs) -> List[str]:
        return [doc for _, _, docs in outputs for doc in docs]

    def check(self, api: Api, inputs, outputs) -> Tuple[int, List[Failure]]:
        checks, failures = 0, []
        for spec, by_rank, docs in outputs:
            if spec in EXPECTED_BY_RANK:
                checks += 1
                if by_rank != EXPECTED_BY_RANK[spec]:
                    failures.append(Failure("census by rank", "count", f"{spec}: {by_rank}",
                                            spec=spec))
            for doc in docs:
                checks += 1
                try:
                    again = api.emit_system(api.parse_system(doc))
                except Exception as exc:
                    failures.append(_failure("round trip", exc, spec=doc))
                    continue
                if again != doc:
                    failures.append(Failure("round trip", "mismatch", again, spec=doc))
        return checks, failures


class Quotients:
    """Every distinguished subset of every census member, quotiented and the
    minimal ones classified; one task per member.

    Nearly all the time is in `kernel_generators`, and each quotient is
    computed once, so tasks share little work. D4 keeps today's failing
    quotients in view.
    """

    name = "quotients"
    units = "quotients built"

    def __init__(self, types: Sequence[str] = QUOTIENT_TYPES):
        self.types = tuple(types)

    def setup(self, api: Api):
        return [api.census(t) for t in self.types]

    def tasks(self, api: Api, reports) -> List[Callable[[], TaskResult]]:
        enumerate_distinguished, quotient, classify = (api.enumerate_distinguished,
                                                       api.quotient, api.classify)

        def task(sys_) -> TaskResult:
            res = TaskResult(ops=1)
            try:
                subsets = enumerate_distinguished(sys_)
            except Exception as exc:
                res.failures.append(_failure("enumerate_distinguished", exc, system=sys_))
                return res
            for d in subsets:
                res.ops += 1
                try:
                    q = quotient(sys_, d.members)
                except Exception as exc:
                    res.failures.append(_failure("quotient", exc, system=sys_, members=d.members))
                    continue
                res.units += 1
                kind = None
                if d.minimal:
                    res.ops += 1
                    try:
                        kind = classify(sys_, d.members)
                    except Exception as exc:
                        res.failures.append(_failure("classify", exc, system=sys_,
                                                     members=d.members))
                res.outputs.append((sys_, d.members, q, kind))
            return res
        return [lambda s=s: task(s) for report in reports for s in report.systems]

    def lines(self, api: Api, outputs) -> List[str]:
        emit = api.emit_system
        return [f"{emit(s).strip()} {list(m)} {kind} {emit(q).strip()}"
                for s, m, q, kind in outputs]

    def check(self, api: Api, reports, outputs) -> Tuple[int, List[Failure]]:
        members = {r.rs.name: {s.key() for s in r.systems} for r in reports}
        failures = []
        for s, m, q, _ in outputs:
            violations = api.validate(q)
            if violations:
                failures.append(Failure("quotient validates", "invalid", "; ".join(violations),
                                        system=s, members=m))
            elif q.key() not in members[q.rs.name]:
                failures.append(Failure("quotient in census", "missing", api.emit_system(q),
                                        system=s, members=m))
        return len(outputs), failures


class Faithful:
    """`faithful_couples` for every weight in {0,1,2}^n minus 0, over a census;
    one task per call.

    Closure and `is_distinguished` over memo caches (`colors`, `_decide`) hit
    again and again, and never `kernel_generators`: a change to the kernel
    should leave it unchanged, and one that costs cached reads shows here.
    """

    name = "faithful"
    units = "couples-calls completed"

    def __init__(self, types: Sequence[str] = FAITHFUL_TYPES):
        self.types = tuple(types)

    def setup(self, api: Api):
        return [api.census(t) for t in self.types]

    def tasks(self, api: Api, reports) -> List[Callable[[], TaskResult]]:
        faithful_couples = api.faithful_couples

        def task(report, weight) -> TaskResult:
            try:
                couples = faithful_couples(report.systems, report.rs, weight)
            except Exception as exc:
                return TaskResult(ops=1, failures=[_failure(
                    "faithful_couples", exc, spec=f"{report.rs.name} {list(weight)}")])
            return TaskResult(ops=1, units=1, outputs=[(report.rs.name, weight, couples)])
        return [lambda r=r, w=w: task(r, w) for r in reports
                for w in product(range(3), repeat=r.rs.rank) if any(w)]

    def lines(self, api: Api, outputs) -> List[str]:
        emit = api.emit_system
        return [f"{spec} {list(w)} {orbit} {list(c.counts)} {emit(c.system).strip()}"
                for spec, w, couples in outputs for c, orbit in couples]

    def check(self, api: Api, reports, outputs) -> Tuple[int, List[Failure]]:
        checks, failures = 0, []
        for spec, w, couples in outputs:
            want = EXPECTED_FAITHFUL.get((spec, w))
            if want is not None:
                checks += 1
                if len(couples) != want:
                    failures.append(Failure("faithful count", "count",
                                            f"{spec} {list(w)}: {len(couples)} != {want}",
                                            spec=spec))
        return checks, failures


WORKLOADS = {w.name: w for w in (Census, Quotients, Faithful)}
