"""Layer tracing of sphsys from outside the package.

`Tracer.install` replaces every public function of each `sphsys` module by
a wrapper, in every `sphsys` module that bound the function by name (the
package itself re-exports most of them). Each call of a wrapped function
records a span: name, start, end and the span that was open when it was
called. Spans are kept in flat arrays while the pass runs and are written
out afterwards. A function's self time is the time its spans cover minus
the time covered by their child spans.
"""
from __future__ import annotations

import json
from array import array
from collections import Counter
from time import perf_counter
from typing import Callable, Dict, List, Tuple

# Called millions of times per census pass: counted, not spanned, so that its
# time stays in its caller's self time and the trace stays small.
COUNT_ONLY = frozenset({"rootsys.cartan_eval"})


# Counters taken from a wrapped function's arguments and result:
# qualified name -> (counter, increment).
RESULT_COUNTERS: Dict[str, Tuple[str, Callable]] = {
    "enumeration.enumerate_systems": ("enumeration.kept", lambda a, r: len(r.systems)),
    "enumeration.enumerate_a_matrices":
        ("enumeration.enumerate_a_matrices.rows_out", lambda a, r: len(r)),
    "system.validate": ("system.validate.rejects", lambda a, r: int(bool(r))),
    "quotient.kernel_generators": ("quotient.kernel_generators.gens_out", lambda a, r: len(r)),
    "quotient.is_distinguished": ("quotient.is_distinguished.found",
                                  lambda a, r: int(r is not None)),
}
# Error types counted per layer, zero when none was raised.
ERROR_TYPES = ("ValueError", "RuntimeError", "FreenessError")


def public_functions(modules: Dict[str, object]) -> List[Tuple[str, object]]:
    """(layer.name, function) for every public function defined in a layer."""
    out = []
    for layer, mod in sorted(modules.items()):
        for attr, obj in sorted(vars(mod).items()):
            if (not attr.startswith("_") and callable(obj) and not isinstance(obj, type)
                    and getattr(obj, "__module__", None) == mod.__name__):
                out.append((f"{layer}.{attr}", obj))
    return out


class Tracer:
    """Spans and counters of one traced pass over the `sphsys` layers."""

    def __init__(self, package: object, modules: Dict[str, object]):
        self.package = package
        self.modules = modules
        self.names: List[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name_id = array("q")
        self.stack = [-1]
        self.counters: Counter = Counter()
        self.catalogs: Dict[str, int] = {}  # root system -> size of its catalog
        self.count_only: Dict[str, List[int]] = {}
        self.originals: Dict[str, object] = {}
        self._patches: List[Tuple[object, str, object]] = []

    def install(self) -> None:
        targets = [self.package] + list(self.modules.values())
        for qual, fn in public_functions(self.modules):
            self.originals[qual] = fn
            wrapper = self._counted(qual, fn) if qual in COUNT_ONLY else self._spanned(qual, fn)
            for mod in targets:
                for attr, obj in list(vars(mod).items()):
                    if obj is fn:
                        self._patches.append((mod, attr, obj))
                        setattr(mod, attr, wrapper)

    def remove(self) -> None:
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches.clear()

    def _counted(self, qual: str, fn):
        cell = self.count_only.setdefault(qual, [0])

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _spanned(self, qual: str, fn):
        nid = len(self.names)
        self.names.append(qual)
        layer = qual.split(".", 1)[0]
        start, end, parent, name_id, stack = (self.start, self.end, self.parent,
                                              self.name_id, self.stack)
        names, counters, catalogs = self.names, self.counters, self.catalogs
        counter, increment = RESULT_COUNTERS.get(qual, (None, None))
        is_catalog = qual == "sphroots.spherical_roots_of"

        def wrapper(*args, **kwargs):
            sid = len(start)
            parent.append(stack[-1])
            name_id.append(nid)
            end.append(0.0)
            stack.append(sid)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                # count an error once per layer it leaves
                up = parent[sid]
                if up < 0 or not names[name_id[up]].startswith(layer + "."):
                    counters[f"{layer}.errors.{type(exc).__name__}"] += 1
                raise
            finally:
                end[sid] = perf_counter()
                stack.pop()
            if counter is not None:
                counters[counter] += increment(args, result)
            elif is_catalog:
                catalogs[args[0].name] = len(result)
            return result
        return wrapper

    def self_times(self) -> Dict[str, Tuple[int, float]]:
        """(calls, self seconds) per spanned function that was called."""
        n = len(self.start)
        child = array("d", bytes(8 * n))
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = [0] * len(self.names)
        busy = [0.0] * len(self.names)
        for i, nid in enumerate(self.name_id):
            calls[nid] += 1
            busy[nid] += end[i] - start[i] - child[i]
        return {self.names[k]: (calls[k], busy[k]) for k in range(len(self.names)) if calls[k]}

    def metrics(self) -> Dict[str, float]:
        """Every per-layer figure of the pass: calls and self time per function,
        result counters, error counts and cache statistics."""
        out: Dict[str, float] = {}
        for qual in self.originals:
            out[f"{qual}.calls"] = 0
            if qual not in COUNT_ONLY:
                out[f"{qual}.self_s"] = 0.0
        for qual, (calls, busy) in self.self_times().items():
            out[f"{qual}.calls"] = calls
            out[f"{qual}.self_s"] = busy
        for qual, cell in self.count_only.items():
            out[f"{qual}.calls"] = cell[0]
        for qual, fn in self.originals.items():
            if hasattr(fn, "cache_info"):
                info = fn.cache_info()
                out[f"{qual}.cache_hits"] = info.hits
                out[f"{qual}.cache_size"] = info.currsize
        out["sphroots.spherical_roots_of.catalog_size"] = sum(self.catalogs.values())
        for counter, _ in RESULT_COUNTERS.values():
            out[counter] = 0
        for layer in self.modules:
            for error in ERROR_TYPES:
                out[f"{layer}.errors.{error}"] = 0
        out.update(self.counters)
        validates = out.get("system.validate.calls", 0)
        out["enumeration.kept_ratio"] = (out.get("enumeration.kept", 0) / validates
                                         if validates else 0.0)
        out["trace.spans"] = len(self.start)
        return out

    def write(self, path: str) -> None:
        """Spans as one JSON header line followed by the raw arrays."""
        header = {"names": self.names, "count": len(self.start),
                  "arrays": [["start", "d"], ["end", "d"], ["parent", "q"], ["name_id", "q"]]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.start, self.end, self.parent, self.name_id):
                arr.tofile(fh)


def read_spans(path: str) -> Tuple[List[str], Dict[str, array]]:
    """Load a span file written by `Tracer.write`."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        arrays = {}
        for name, code in header["arrays"]:
            arr = array(code)
            arr.fromfile(fh, header["count"])
            arrays[name] = arr
    return header["names"], arrays
