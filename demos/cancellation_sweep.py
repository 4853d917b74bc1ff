#!/usr/bin/env python3
"""How self-interference cancellation shapes energy efficiency.

Sweeps the cancellation level for all three strategies at a balanced
65 Mbit/s demand and writes the rows as CSV next to a printed summary.
The full-duplex curves climb while cancellation is the bottleneck and
flatten once residual self-interference drops below the noise floor; the
half-duplex baseline never hears itself, so its row is exactly flat.
"""

import io

from fdrelay.config import ScenarioParams
from fdrelay.sweep import Axis, AxisKind, SweepSpec, emit_csv, run_sweep

spec = SweepSpec(
    base=ScenarioParams(),  # balanced 65 Mbps, ETPA
    axis1=Axis.from_range(AxisKind.CANCELLATION_DB, 20.0, 80.0, 5.0),
)
rows = run_sweep(spec)

buf = io.StringIO()
emit_csv(rows, buf)
csv_path = "cancellation_sweep.csv"
with open(csv_path, "w", encoding="utf-8") as sink:
    sink.write(buf.getvalue())
print(f"wrote {len(rows)} rows to {csv_path}\n")

print(f"{'alpha [dB]':>10s} {'fd1ts':>12s} {'fd2ts':>12s} {'hd2ts':>12s}")
by_alpha = {}
for row in rows:
    by_alpha.setdefault(row.axis1, {})[row.strategy.value] = row.schedule.ee
for alpha in sorted(by_alpha):
    ee = by_alpha[alpha]
    print(f"{alpha:10.0f} {ee['fd1ts']:12.5e} {ee['fd2ts']:12.5e} "
          f"{ee['hd2ts']:12.5e}")

first, last = min(by_alpha), max(by_alpha)
for name in ("fd1ts", "fd2ts"):
    gain = by_alpha[last][name] / by_alpha[first][name] - 1.0
    print(f"\n{name}: {gain:+.1%} efficiency from {first:.0f} to "
          f"{last:.0f} dB cancellation", end="")
print()
