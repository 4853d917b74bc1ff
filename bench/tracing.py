"""Span tracer for the traced benchmark run.

The tracer patches the public functions of each fdrelay layer under the
name every calling module imports them by, so spans are recorded from the
benchmark's own files and nothing in the program changes.  Each call leaves
one span (name, start, end, parent, op id) in memory; the spans are written
out when the run ends, and a layer's self time is its spans' duration minus
the part their child spans cover.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

import numpy as np

_POWERS = ("powers_1ts", "powers_2ts", "powers_hd")
_ENERGY = ("energy_1ts", "energy_2ts", "energy_hd")
_ENERGY_AT = ("energy_1ts_at", "energy_2ts_at", "energy_hd_at")
_CAPS = ("caps_1ts", "caps_2ts", "caps_hd")
_WINDOWS = ("tmin_1ts", "tmin_2ts", "tmin_hd")

# (module, attribute, span name).  Each module is patched under the name it
# imported the function by; a class attribute patches every caller at once.
# strategies' own energy_* bindings catch the oracle's call-time import.
LAYER_PATCHES = (
    [("fdrelay.config:ScenarioParams", "build", "config.build")]
    + [(m, f, "feasibility.window") for m in ("fdrelay.solver", "fdrelay.oracle")
       for f in _WINDOWS]
    + [("fdrelay", "solve", "solver.solve"),
       ("fdrelay.sweep", "solve", "solver.solve"),
       ("fdrelay.solver", "minimize_unimodal_1d", "solver.search")]
    + [(m, f, "strategies.powers")
       for m in ("fdrelay.feasibility", "fdrelay.solver", "fdrelay.oracle")
       for f in _POWERS]
    + [(m, f, "strategies.energy")
       for m in ("fdrelay.solver", "fdrelay.strategies") for f in _ENERGY]
    + [("fdrelay.oracle", f, "strategies.energy") for f in _ENERGY_AT]
    + [("fdrelay.oracle", f, "strategies.caps") for f in _CAPS]
    + [(m, "pa_consumption", "model.pa_consumption")
       for m in ("fdrelay.strategies", "fdrelay.solver", "fdrelay.oracle")]
    + [("fdrelay", "verify", "oracle.verify"),
       ("fdrelay.oracle", "grid_search", "oracle.grid"),
       ("fdrelay.oracle", "verify_necessary_conditions", "oracle.conditions"),
       ("fdrelay.oracle", "convexity_probe", "oracle.probe"),
       ("fdrelay.cli", "run_sweep", "sweep.run_sweep"),
       ("fdrelay.cli", "emit_csv", "sweep.emit_csv"),
       ("fdrelay.cli", "cli_main", "cli")]
)

PAIR_LABELS = tuple(f"{s}-{p}" for s in ("fd1ts", "fd2ts", "hd2ts")
                    for p in ("tpa", "etpa"))

# Every per-layer metric with its unit, in output order.
PER_LAYER = (
    [("config.build.calls", "count"), ("config.build.self_ms", "ms"),
     ("feasibility.window.calls", "count"),
     ("feasibility.window.self_ms", "ms"),
     ("feasibility.window.calls_per_op", "count/op"),
     ("feasibility.infeasible_frac", "ratio"),
     ("solver.search.calls", "count"), ("solver.search.self_ms", "ms"),
     ("solver.evals_per_solve", "evals/solve"),
     ("solver.boundary_resolve_frac", "ratio")]
    + [(f"solver.solve_ms.{label}", "ms") for label in PAIR_LABELS]
    + [(f"strategies.{fn}.{kind}", unit) for fn in ("powers", "energy", "caps")
       for kind, unit in (("calls", "count"), ("self_ms", "ms"))]
    + [("model.pa_consumption.scalar_calls", "count"),
       ("model.pa_consumption.array_calls", "count"),
       ("model.pa_consumption.self_ms", "ms"),
       ("oracle.grid.calls", "count"), ("oracle.grid.self_ms", "ms"),
       ("oracle.conditions.calls", "count"),
       ("oracle.conditions.self_ms", "ms"),
       ("oracle.probe.calls", "count"), ("oracle.probe.self_ms", "ms"),
       ("oracle.probe.evals", "count"), ("oracle.verdict_failed", "count"),
       ("sweep.run_sweep.self_ms", "ms"), ("sweep.emit_csv.self_ms", "ms"),
       ("sweep.emit_csv.bytes", "B"), ("cli.self_ms", "ms"),
       ("trace.overhead_frac", "ratio")]
)


def _resolve(target: str):
    module, _, attr = target.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, attr) if attr else obj


class Tracer:
    """In-memory span recorder with per-layer counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.op_id = -1
        self.counts: Counter = Counter()
        self.solve_pairs: dict[int, str] = {}
        self._stack = [-1]
        self._undo: list[tuple] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, on_call=None, on_return=None):
        """``fn`` recording one span per call; hooks see args and results."""
        nid = self._name_id(name)
        stack, names, parents, ops = self._stack, self.name, self.parent, self.op
        starts, ends = self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                args = on_call(args)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(self.op_id)
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if on_return is not None:
                on_return(idx, args, result)
            return result

        return traced

    # -- layer hooks -------------------------------------------------------

    def _count_pa(self, args):
        p = args[1]
        if isinstance(p, np.ndarray) and p.ndim:
            self.counts["pa_array"] += 1
        else:
            self.counts["pa_scalar"] += 1
        return args

    def _counted(self, key: str):
        """on_call hook wrapping the objective argument to count its evals."""
        counts = self.counts

        def on_call(args):
            f = args[0]

            def objective(*x):
                counts[key] += 1
                return f(*x)

            return (objective,) + tuple(args[1:])

        return on_call

    def _window_result(self, idx, args, window):
        if not window.feasible:
            self.counts["window_infeasible"] += 1

    def _solve_result(self, idx, args, schedule):
        scenario = args[0]
        self.solve_pairs[idx] = (f"{scenario.strategy.value}-"
                                 f"{scenario.pa.a.kind.value}")

    def _verify_result(self, idx, args, report):
        if not report.ok:
            self.counts["verdict_failed"] += 1

    def _csv_result(self, idx, args, result):
        self.counts["csv_bytes"] += args[1].tell()

    def _hooks(self, span: str) -> dict:
        return {
            "model.pa_consumption": {"on_call": self._count_pa},
            "solver.search": {"on_call": self._counted("search_evals")},
            "oracle.probe": {"on_call": self._counted("probe_evals")},
            "feasibility.window": {"on_return": self._window_result},
            "solver.solve": {"on_return": self._solve_result},
            "oracle.verify": {"on_return": self._verify_result},
            "sweep.emit_csv": {"on_return": self._csv_result},
        }.get(span, {})

    # -- install / run / results -------------------------------------------

    def install(self) -> None:
        for target, attr, span in LAYER_PATCHES:
            obj = _resolve(target)
            original = getattr(obj, attr)
            setattr(obj, attr, self.wrap(span, original, **self._hooks(span)))
            self._undo.append((obj, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, original = self._undo.pop()
            setattr(obj, attr, original)

    def _columns(self):
        name = np.array(self.name, dtype=np.int32)
        parent = np.array(self.parent, dtype=np.int32)
        dur = (np.array(self.end, dtype=np.int64)
               - np.array(self.start, dtype=np.int64))
        return name, parent, dur

    def metrics(self, ops: int, overhead_frac: float) -> dict[str, float]:
        """Per-layer counts and self times over every span recorded."""
        name, parent, dur = self._columns()
        n, k = len(dur), len(self.names)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=n)
        self_ns = dur - child
        calls = np.bincount(name, minlength=k)
        self_ms = np.bincount(name, weights=self_ns, minlength=k) / 1e6

        def span_calls(span: str) -> int:
            return int(calls[self._ids[span]]) if span in self._ids else 0

        def span_self_ms(span: str) -> float:
            return float(self_ms[self._ids[span]]) if span in self._ids else 0.0

        c = self.counts
        windows = span_calls("feasibility.window")
        solves = len(self.solve_pairs)
        search_id = self._ids.get("solver.search", -1)
        searches = np.bincount(parent[(name == search_id) & has_parent],
                               minlength=n)
        two_slot = [i for i, pair in self.solve_pairs.items()
                    if not pair.startswith("fd1ts")]
        resolved = sum(int(searches[i]) >= 3 for i in two_slot)

        out: dict[str, float] = {
            "config.build.calls": span_calls("config.build"),
            "config.build.self_ms": span_self_ms("config.build"),
            "feasibility.window.calls": windows,
            "feasibility.window.self_ms": span_self_ms("feasibility.window"),
            "feasibility.window.calls_per_op": windows / ops,
            "feasibility.infeasible_frac": (c["window_infeasible"] / windows
                                            if windows else 0.0),
            "solver.search.calls": span_calls("solver.search"),
            "solver.search.self_ms": span_self_ms("solver.search"),
            "solver.evals_per_solve": (c["search_evals"] / solves
                                       if solves else 0.0),
            "solver.boundary_resolve_frac": (resolved / len(two_slot)
                                             if two_slot else 0.0),
        }
        for label in PAIR_LABELS:
            times = [dur[i] / 1e6 for i, pair in self.solve_pairs.items()
                     if pair == label]
            out[f"solver.solve_ms.{label}"] = (float(np.median(times))
                                               if times else 0.0)
        for fn in ("powers", "energy", "caps"):
            out[f"strategies.{fn}.calls"] = span_calls(f"strategies.{fn}")
            out[f"strategies.{fn}.self_ms"] = span_self_ms(f"strategies.{fn}")
        out.update({
            "model.pa_consumption.scalar_calls": c["pa_scalar"],
            "model.pa_consumption.array_calls": c["pa_array"],
            "model.pa_consumption.self_ms": span_self_ms("model.pa_consumption"),
            "oracle.grid.calls": span_calls("oracle.grid"),
            "oracle.grid.self_ms": span_self_ms("oracle.grid"),
            "oracle.conditions.calls": span_calls("oracle.conditions"),
            "oracle.conditions.self_ms": span_self_ms("oracle.conditions"),
            "oracle.probe.calls": span_calls("oracle.probe"),
            "oracle.probe.self_ms": span_self_ms("oracle.probe"),
            "oracle.probe.evals": c["probe_evals"],
            "oracle.verdict_failed": c["verdict_failed"],
            "sweep.run_sweep.self_ms": span_self_ms("sweep.run_sweep"),
            "sweep.emit_csv.self_ms": span_self_ms("sweep.emit_csv"),
            "sweep.emit_csv.bytes": c["csv_bytes"],
            "cli.self_ms": span_self_ms("cli"),
            "trace.overhead_frac": overhead_frac,
        })
        return out

    def write(self, path: Path, seed: int) -> None:
        """Write every span as columns of one .npz file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, seed=seed, names=np.array(self.names),
                 name=np.array(self.name, dtype=np.int32),
                 start=np.array(self.start, dtype=np.int64),
                 end=np.array(self.end, dtype=np.int64),
                 parent=np.array(self.parent, dtype=np.int32),
                 op=np.array(self.op, dtype=np.int32))
