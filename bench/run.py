"""Benchmark runner for fdrelay.

    python3 bench/run.py --workload solve-mix --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Runs one workload per process from the root of a source checkout, importing
fdrelay from its src/ directory.  With --trace 0 it measures the end-to-end
metrics with tracing off; with --trace 1 it runs a fixed number of ops once
untraced and once traced and reports per-layer counts and self times.  Every
op is checked against the committed reference outside the timed region.
Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  --workload all runs
the three workloads one after another, each in its own process.
"""

from __future__ import annotations

import time

# The set-up clock starts before fdrelay or numpy is imported.
_START = time.perf_counter_ns()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_out"

WORKLOAD_NAMES = ("solve-mix", "sweep-grid", "oracle-audit")
SETUP_PROBES = 4  # extra set-ups in fresh interpreters; setup_s is the median
CHECK_BATCH = 256  # ops held before the gate checks them, bounding memory

CAL_INTERVAL_S = 1 / 32  # wall time between calibration samples

END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MiB",
                    "latency_p50": "ref_ms", "latency_tail": "ref_ms",
                    "throughput": "1/ref_s"}
# Block statistics printed under the workload's own names.  The gated
# latency_tail is p90, the highest percentile that stays steady on a shared
# machine (p99 moves with bursts of outside load).  A sweep block is one
# call, so no percentile has ten samples beyond it and the tail is the
# median call.
WORKLOAD_METRICS = {
    "solve-mix": {"solve_ms_p50": ("p50", "ms"), "solve_ms_p90": ("p90", "ms"),
                  "solve_ms_p99": ("p99", "ms"),
                  "solves_per_s": ("throughput", "1/s")},
    "sweep-grid": {"sweep_ms_p50": ("p50", "ms"),
                   "sweep_rows_per_s": ("throughput", "rows/s")},
    "oracle-audit": {"audit_ms_p50": ("p50", "ms"),
                     "audit_ms_p90": ("p90", "ms"),
                     "audits_per_s": ("throughput", "1/s")},
}
TAIL = {"solve-mix": "p90", "oracle-audit": "p90", "sweep-grid": "p50"}


def pin_threads() -> None:
    """One BLAS/OpenMP thread: each workload is a single-threaded client."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def import_program():
    """Import fdrelay from this checkout's src/ and the workload module."""
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(SRC))
    import fdrelay

    if Path(fdrelay.__file__).resolve().parent.parent != SRC.resolve():
        raise ImportError(f"fdrelay imported from {fdrelay.__file__}, "
                          f"not from {SRC}")
    import workloads

    return workloads


def environment() -> dict:
    """Commit, interpreter and library versions, and processor count."""
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None  # a source checkout without git metadata
    return {"commit": commit, "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "threads_pinned": os.environ.get("OMP_NUM_THREADS")}


def quantile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile of an ascending list."""
    rank = math.ceil(q * len(sorted_values) - 1e-9)
    return sorted_values[min(max(rank, 1), len(sorted_values)) - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Gate:
    """Checks op records in batches, outside the timed region."""

    def __init__(self, workload):
        self.workload = workload
        self.pending: list = []
        self.checked = 0
        self.failures: list = []

    def add(self, record) -> None:
        self.pending.append(record)
        if len(self.pending) >= CHECK_BATCH:
            self.flush()

    def check_all(self, records: list) -> None:
        self.pending.extend(records)
        self.flush()

    def flush(self) -> None:
        for record in self.pending:
            failure = self.workload.check(record)
            if failure is not None:
                self.failures.append(failure)
        self.checked += len(self.pending)
        self.pending.clear()

    def correct(self) -> bool:
        return not self.failures and not self.workload.setup_mismatches


def probe_setup(args) -> float:
    """Reference-speed seconds of one full set-up in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-probe",
           "--size", args.size]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170,
                          check=True)
    return float(done.stdout.split()[-1])


def measure(workload, gate: Gate, seconds: float, cal) -> list[list[tuple]]:
    """Closed loop in blocks of ops until the ops' own time reaches
    ``seconds``; returns, per complete block, each op's (start ns, end ns,
    ns less the time the calibration kernel took inside the op)."""
    blocks: list[list[tuple]] = []
    current: list[tuple] = []
    budget = int(seconds * 1e9)
    busy = 0
    k = workload.warmup_ops
    cal.start(CAL_INTERVAL_S)
    try:
        while busy < budget or current:
            t0 = time.perf_counter_ns()
            record = workload.run_op(k)
            t1 = time.perf_counter_ns()
            latency = t1 - t0 - cal.paused_ns(t0, t1)
            current.append((t0, t1, latency))
            busy += latency
            gate.add(record)
            k += 1
            if len(current) == workload.block_ops:
                blocks.append(current)
                current = []
    finally:
        cal.stop()
    gate.flush()
    return blocks


def block_stats(ms: list[float], rows_per_op: int) -> dict[str, float]:
    ms = sorted(ms)
    stats = {f"p{q}": quantile(ms, q / 100) for q in (50, 90, 99)}
    stats["throughput"] = rows_per_op * len(ms) / (sum(ms) / 1e3)
    return stats


def end_to_end(args, workload, gate: Gate, cal, setup_s: float) -> dict:
    """Each timing is the median over blocks of that block's statistic, so
    a burst of outside load moves few blocks.  The JSON values come from op
    times scaled to the reference speed by the kernel samples around each
    op (bench/calibrate.py); the raw ones are printed."""
    blocks = measure(workload, gate, args.seconds, cal)
    raw_blocks: dict[str, list[float]] = {}
    ref_blocks: dict[str, list[float]] = {}
    for block in blocks:
        raw_ms = [latency / 1e6 for _, _, latency in block]
        scales = cal.scales([(t0, t1) for t0, t1, _ in block])
        ref_ms = [x * scale for x, scale in zip(raw_ms, scales)]
        for stats, ms in ((raw_blocks, raw_ms), (ref_blocks, ref_ms)):
            for name, value in block_stats(ms, workload.rows_per_op).items():
                stats.setdefault(name, []).append(value)
    raw = {name: statistics.median(v) for name, v in raw_blocks.items()}
    ref = {name: statistics.median(v) for name, v in ref_blocks.items()}
    values = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb(),
              "latency_p50": ref["p50"],
              "latency_tail": ref[TAIL[args.workload]],
              "throughput": ref["throughput"]}
    print(f"timed_ops          {sum(map(len, blocks))} in "
          f"{len(blocks)} blocks of {workload.block_ops}")
    print(f"setup_s            {setup_s:.6g} s (reference speed)")
    print(f"peak_rss_mb        {values['peak_rss_mb']:.6g} MiB")
    for name, (key, unit) in WORKLOAD_METRICS[args.workload].items():
        print(f"{name:<18} {raw[key]:.6g} {unit} (reference speed "
              f"{ref[key]:.6g})")
    return {name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in values.items()}


def per_layer(args, workload, gate: Gate) -> dict:
    from tracing import PER_LAYER, Tracer

    n = workload.trace_ops
    t0 = time.perf_counter()
    records = [workload.run_op(k) for k in range(n)]
    untraced = time.perf_counter() - t0
    gate.check_all(records)

    tracer = Tracer()
    tracer.install()
    try:
        op = tracer.wrap("bench.op", workload.run_op)
        records = []
        t0 = time.perf_counter()
        for k in range(n):
            tracer.op_id = k
            records.append(op(k))
        traced = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    gate.check_all(records)
    values = tracer.metrics(n, traced / untraced - 1.0)
    tracer.write(TRACE_DIR / f"spans-{args.workload}.npz", seed=args.seed)
    units = dict(PER_LAYER)
    for name, value in values.items():
        print(f"{name:<40} {value:.6g} {units[name]}")
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER}


def run_workload(args) -> int:
    import calibrate

    # Set-up is sampled too, and scaled like a timed op.
    cal = calibrate.Calibration()
    cal.start(CAL_INTERVAL_S)
    try:
        workloads = import_program()
        tol = workloads.load_spec()["tol"]
        workload = workloads.WORKLOADS[args.workload](
            args.seed, args.size == "tiny", tol)
    except ImportError as err:
        print(f"cannot import the program: {err}", file=sys.stderr)
        return 2
    finally:
        end = time.perf_counter_ns()
        cal.stop()
    own_setup = ((end - _START - cal.paused_ns(_START, end)) / 1e9
                 * cal.scales([(_START, end)])[0])
    if args.setup_probe:
        print(own_setup)
        return 0

    print("env", json.dumps(environment()))
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}")
    # The pools and references are the benchmark's own long-lived objects;
    # freezing them keeps the cyclic collector from rescanning them inside
    # timed ops.
    gc.collect()
    gc.freeze()
    if not args.trace:
        probes = 1 if args.size == "tiny" else SETUP_PROBES
        setups = [own_setup] + [probe_setup(args) for _ in range(probes)]
    gate = Gate(workload)
    gate.check_all(workload.warmup())
    if args.trace:
        metrics = per_layer(args, workload, gate)
    else:
        metrics = end_to_end(args, workload, gate, cal,
                             statistics.median(setups))
    print(f"ops                {gate.checked}")
    print(f"failed_ops         {len(gate.failures)}")
    if hasattr(workload, "false_alarms"):
        print(f"oracle_false_alarms {workload.false_alarms} of {gate.checked} "
              f"audits (known defect, bench/spec.json known_failures)")
    if workload.setup_mismatches:
        print(f"set-up: {workload.setup_mismatches} inputs disagree with the "
              f"reference on feasibility")
    for failure in gate.failures[:10]:
        print(f"failure: {failure.message}")
    print(json.dumps({"correct": gate.correct(), "attempted": gate.checked,
                      "failed": len(gate.failures), "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; the last line sums them up."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               name, "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=900)
        lines = done.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        sys.stderr.write(done.stderr)
        if done.returncode != 0 or not lines:
            print(f"[{name}] exited with code {done.returncode}",
                  file=sys.stderr)
            return done.returncode or 1
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(summary))
    return 0


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a 2x2 sweep and short traced runs, for "
                             "the self-test")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    pin_threads()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
