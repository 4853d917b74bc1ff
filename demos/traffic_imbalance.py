#!/usr/bin/env python3
"""Sensitivity of each strategy to lopsided traffic.

Holds the total demand at 60 Mbit/s and sweeps the forward/reverse split
from 1:1 to 9:1.  The two-slot full-duplex design simply reapportions its
slot durations and barely moves; the single-slot design must stretch one
direction's power budget over the shared slot; the half-duplex baseline
suffers most because its broadcast slot serves both directions at once.
"""

from fdrelay.config import ScenarioParams
from fdrelay.sweep import Axis, AxisKind, SweepSpec, run_sweep

base = ScenarioParams(r_fl_mbps=30.0, r_rl_mbps=30.0)
spec = SweepSpec(
    base=base,
    axis1=Axis.from_range(AxisKind.TRAFFIC_RATIO, 1.0, 9.0, 1.0),
)
rows = run_sweep(spec)

by_ratio = {}
for row in rows:
    by_ratio.setdefault(row.axis1, {})[row.strategy.value] = row.schedule.ee

print(f"{'fl:rl':>6s} {'fd1ts':>12s} {'fd2ts':>12s} {'hd2ts':>12s}")
for ratio in sorted(by_ratio):
    ee = by_ratio[ratio]
    print(f"{ratio:6.0f} {ee['fd1ts']:12.5e} {ee['fd2ts']:12.5e} "
          f"{ee['hd2ts']:12.5e}")

print("\nchange from balanced to 9:1:")
for name in ("fd1ts", "fd2ts", "hd2ts"):
    rel = by_ratio[9.0][name] / by_ratio[1.0][name] - 1.0
    print(f"  {name}: {rel:+.1%}")
