"""Print sha256 digests of the program's outputs over the benchmark pools.

Run from the root of a source checkout:

    python3 tools/output_hashes.py

It imports fdrelay from that checkout's ``src/`` and the pools from
``bench/workloads.py``, and prints four digests, one per line.  Each hashes
one text per entry, each followed by a newline:

- ``windows``: ``repr(tmin_for(s))`` for every solve-mix entry, then every
  oracle-audit candidate (13,824 windows);
- ``solve-mix``: ``repr(solve(s))`` for every solve-mix entry, or
  ``message|node|cause`` of its ``InfeasibleError`` (12,288 solves);
- ``audit``: ``repr(verify(s, solve(s)))`` for every feasible oracle-audit
  candidate (1,208 reports);
- ``sweep-csv``: the CSV of the benchmark's 61x9 ``fdrelay sweep``, hashed
  as it is printed.

A change that keeps every output bit for bit prints the same four digests
as its parent.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import fdrelay  # noqa: E402
import workloads  # noqa: E402
from fdrelay import InfeasibleError  # noqa: E402


def _digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(f"{line}\n".encode())
    return h.hexdigest()


def _solve_text(s) -> str:
    try:
        return repr(fdrelay.solve(s))
    except InfeasibleError as err:
        return f"{err}|{err.binding_node}|{err.cause}"


def main() -> None:
    mix = [params.build() for params in workloads.solve_mix_pool()]
    audit = [params.build() for params in workloads.audit_candidates()]
    print("windows", _digest(repr(fdrelay.tmin_for(s)) for s in mix + audit))
    print("solve-mix", _digest(map(_solve_text, mix)))
    feasible = [s for s in audit if fdrelay.tmin_for(s).feasible]
    print("audit", _digest(repr(fdrelay.verify(s, fdrelay.solve(s)))
                           for s in feasible))
    code, out, err = workloads.run_cli(workloads.SWEEP_ARGV)
    if code != 0:
        sys.exit(f"the sweep exited {code}: {err.strip()}")
    print("sweep-csv", hashlib.sha256(out.encode()).hexdigest())


if __name__ == "__main__":
    main()
