"""Self-test of the benchmark itself, at a tiny size.

    python3 bench/selftest.py

Checks that
  * every workload prints every end-to-end metric of BENCHMARK.json with its
    unit, the workload-specific names with their units, ops and failed_ops;
  * every traced run prints every per-layer metric with its unit, and the
    count metrics repeat exactly between two traced runs;
  * a perturbed reference entry makes failed_ops non-zero, so the gate is
    live, and the oracle's known false alarm passes only where the reference
    has it;
  * in a directory holding only BENCHMARK.json and bench/, the benchmark
    exits non-zero without printing a result.
Exits 0 when all hold.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"
SEED = 7

# The end-to-end names each workload prints on its own line, with units.
PRINTED = {
    "solve-mix": {"solve_ms_p50": "ms", "solve_ms_p99": "ms",
                  "solves_per_s": "1/s"},
    "sweep-grid": {"sweep_rows_per_s": "rows/s"},
    "oracle-audit": {"audit_ms_p50": "ms", "audit_ms_p90": "ms",
                     "audits_per_s": "1/s"},
}
COMMON = {"setup_s": "s", "peak_rss_mb": "MiB"}

# Counts that must repeat exactly between two traced runs of one seed.
COUNT_METRICS = ("solver.evals_per_solve",
                 "model.pa_consumption.scalar_calls")


def run(args: list[str], cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(RUN)] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def result_of(done: subprocess.CompletedProcess) -> dict:
    if done.returncode != 0:
        raise AssertionError(f"exit {done.returncode}: {done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_metrics(result: dict, declared: list[dict], label: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] is True, f"{label}: not correct"
    assert result["attempted"] >= 1, label
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want, f"{label}: metrics {got} != declared {want}"


def check_lines(stdout: str, units: dict[str, str], label: str) -> None:
    """Each name on its own line as `name value unit`; ops and failed_ops."""
    rows = {line.split()[0]: line.split()[1:] for line in stdout.splitlines()
            if line.strip()}
    for name, unit in units.items():
        assert name in rows and rows[name][1:2] == [unit], (
            f"{label}: no line `{name} <value> {unit}`")
    for name in ("ops", "failed_ops"):
        assert name in rows, f"{label}: no {name} line"


def test_emits_every_metric(bench: dict) -> None:
    for workload in (w["name"] for w in bench["workloads"]):
        args = ["--workload", workload, "--seed", str(SEED), "--seconds",
                "1", "--size", "tiny"]
        done = run(args + ["--trace", "0"])
        check_metrics(result_of(done), bench["end_to_end"],
                      f"{workload} trace 0")
        check_lines(done.stdout, {**PRINTED[workload], **COMMON},
                    f"{workload} trace 0")

        first = result_of(run(args + ["--trace", "1"]))
        second = result_of(run(args + ["--trace", "1"]))
        check_metrics(first, bench["per_layer"], f"{workload} trace 1")
        for name, metric in first["metrics"].items():
            if name.endswith(".calls") or name in COUNT_METRICS:
                again = second["metrics"][name]["value"]
                assert metric["value"] == again, (
                    f"{workload}: {name} {metric['value']} then {again}")
        print(f"ok  {workload}: metrics, units and repeatable counts")


def test_perturbed_reference_fails() -> None:
    sys.path.insert(0, str(HERE))
    from run import Gate, import_program

    workloads = import_program()

    tol = workloads.load_spec()["tol"]
    for name, cls in workloads.WORKLOADS.items():
        workload = cls(SEED, True, tol)
        gate = Gate(workload)
        record = workload.run_op(0)
        gate.add(record)
        gate.flush()
        assert gate.correct(), f"{name}: unperturbed op failed the gate"
        before = len(gate.failures)
        if name == "sweep-grid":
            key = next(iter(workload.expected))
            row = dict(workload.reference[key])
            row["e_total_j"] = f"{float(row['e_total_j'] or 1.0) * 1.001:.9e}"
            workload.reference[key] = row
        else:
            i = record[0]
            entry = list(workload.reference[i])
            if entry[0] == "infeasible":
                entry[1] = "not-a-node"
            elif entry[0] == "schedule":
                entry[1] *= 1.0 - 1e-6
            else:
                entry[0] *= 1.0 - 1e-6
            workload.reference[i] = entry
        gate.add(record)
        gate.flush()
        assert len(gate.failures) > before and not gate.correct(), (
            f"{name}: perturbed reference passed the gate")
        print(f"ok  {name}: a perturbed reference entry fails the op "
              f"({gate.failures[-1].message[:60]}...)")


def test_false_alarm_matches_reference() -> None:
    """The oracle's known false alarm passes the gate only on a scenario
    where the reference commit raised it too."""
    from run import Gate, import_program

    workloads = import_program()
    import fdrelay

    workload = workloads.OracleAudit(SEED, True,
                                     workloads.load_spec()["tol"])
    i = next(i for i, entry in enumerate(workload.reference)
             if entry is not None and entry[1] == "false-alarm")
    scenario = workload.scenarios[i]
    schedule = fdrelay.solve(scenario)
    record = (i, schedule, fdrelay.verify(scenario, schedule))
    gate = Gate(workload)
    gate.check_all([record])
    assert gate.correct() and workload.false_alarms == 1, (
        "oracle-audit: the reference's false alarm failed the gate")
    workload.reference[i] = [workload.reference[i][0], "ok"]
    gate.check_all([record])
    assert not gate.correct(), (
        "oracle-audit: a false alarm on an ok reference passed the gate")
    print(f"ok  oracle-audit: the false alarm on candidate {i} passes only "
          f"where the reference has it")


def test_bare_directory_fails() -> None:
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_out") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, str(bare / HERE.name / RUN.name), "--workload",
             "solve-mix", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        assert done.returncode != 0, "bare directory run exited 0"
        assert '"metrics"' not in done.stdout, "bare run printed a result"
    print("ok  bare directory: exits non-zero without a result")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    test_perturbed_reference_fails()
    test_false_alarm_matches_reference()
    test_bare_directory_fails()
    test_emits_every_metric(bench)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
