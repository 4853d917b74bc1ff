"""Regenerate the committed references the benchmark checks against.

    python3 bench/make_reference.py

Writes bench/reference/{solve-mix.json,oracle-audit.json,sweep-grid.csv}
and the oracle-audit false-alarm share in bench/spec.json.  Run it only at
a commit whose outputs are trusted: every later run is judged against what
it writes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import environment, import_program  # noqa: E402

import_program()  # puts this checkout's src/ and bench/ on sys.path
import fdrelay  # noqa: E402
from workloads import (  # noqa: E402
    ORACLE_GAP,
    REFERENCE_DIR,
    SLACK_TOL,
    SWEEP_ARGV,
    WINDOW,
    audit_candidates,
    run_cli,
    solve_mix_pool,
)


def solve_mix_entries() -> list:
    entries = []
    for params in solve_mix_pool():
        scenario = params.build()
        try:
            schedule = fdrelay.solve(scenario)
        except fdrelay.InfeasibleError as err:
            entries.append(["infeasible", err.binding_node, err.cause])
            continue
        fdrelay.verify_necessary_conditions(scenario, schedule, tol=SLACK_TOL)
        entries.append(["schedule", schedule.e_total])
    return entries


def oracle_audit_entries() -> list:
    entries = []
    for params in audit_candidates():
        scenario = params.build()
        if not WINDOW[scenario.strategy](scenario).feasible:
            entries.append(None)
            continue
        schedule = fdrelay.solve(scenario)
        report = fdrelay.verify(scenario, schedule)
        if report.ok:
            verdict = "ok"
        elif (report.relative_gap <= ORACLE_GAP
              and report.convexity_violations > 0):
            verdict = "false-alarm"
        else:
            raise RuntimeError(f"oracle rejects the solver on {params}")
        entries.append([schedule.e_total, verdict])
    return entries


def write_json(name: str, entries: list, stamp: dict) -> None:
    lines = [json.dumps(entry) for entry in entries]
    body = ",\n".join(lines)
    header = json.dumps(stamp)[1:-1]
    (REFERENCE_DIR / f"{name}.json").write_text(
        "{" + header + ',\n"entries": [\n' + body + "\n]}\n",
        encoding="utf-8")


def main() -> None:
    REFERENCE_DIR.mkdir(exist_ok=True)
    stamp = {"generated_at": environment()}

    solve_entries = solve_mix_entries()
    infeasible = sum(e[0] == "infeasible" for e in solve_entries)
    print(f"solve-mix: {len(solve_entries)} entries, "
          f"{infeasible / len(solve_entries):.3f} infeasible")
    write_json("solve-mix", solve_entries, stamp)

    audit_entries = oracle_audit_entries()
    feasible = [e for e in audit_entries if e is not None]
    alarms = sum(e[1] == "false-alarm" for e in feasible)
    share = alarms / len(feasible)
    print(f"oracle-audit: {len(feasible)} feasible of {len(audit_entries)}, "
          f"{alarms} false alarms ({share:.4f})")
    write_json("oracle-audit", audit_entries, stamp)

    code, text, err = run_cli(SWEEP_ARGV)
    if code != 0:
        raise RuntimeError(f"sweep failed: {err}")
    (REFERENCE_DIR / "sweep-grid.csv").write_text(text, encoding="utf-8")
    print(f"sweep-grid: {text.count(chr(10)) - 1} rows, {len(text)} bytes")

    spec_path = HERE / "spec.json"
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    spec["known_failures"]["oracle-audit"]["seed_commit_share"] = round(share, 6)
    spec["known_failures"]["oracle-audit"]["seed_commit"] = (
        stamp["generated_at"]["commit"])
    spec_path.write_text(json.dumps(spec, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
