#!/usr/bin/env python3
"""Where each strategy stops being able to carry the demand.

Sweeps the total balanced rate and marks infeasible points instead of
aborting, which traces each strategy's rate region.  The single-slot
full-duplex design sustains roughly twice the half-duplex maximum because
it never splits the frame; at low demand the half-duplex baseline is the
most efficient of the three.
"""

from fdrelay.config import ScenarioParams
from fdrelay.feasibility import tmin_for
from fdrelay.model import Strategy
from fdrelay.sweep import Axis, AxisKind, SweepSpec, run_sweep

spec = SweepSpec(
    base=ScenarioParams(),
    axis1=Axis.from_range(AxisKind.TOTAL_RATE_MBPS, 20.0, 260.0, 20.0),
)
rows = run_sweep(spec)

print(f"{'total [Mbps]':>12s} {'fd1ts':>12s} {'fd2ts':>12s} {'hd2ts':>12s}"
      f"   ('-' marks infeasible)")
by_rate = {}
for row in rows:
    by_rate.setdefault(row.axis1, {})[row.strategy.value] = row
for rate in sorted(by_rate):
    cells = []
    for name in ("fd1ts", "fd2ts", "hd2ts"):
        row = by_rate[rate][name]
        cells.append(f"{row.schedule.ee:12.4e}" if row.feasible
                     else f"{'-':>12s}")
    print(f"{rate:12.0f} " + " ".join(cells))


def max_balanced_rate(strategy):
    base = ScenarioParams(strategy=strategy)
    lo, hi = 1.0, 500.0
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        if tmin_for(base.with_total_rate(mid).build()).feasible:
            lo = mid
        else:
            hi = mid
    return lo


print()
maxima = {st: max_balanced_rate(st) for st in Strategy}
for st, mx in maxima.items():
    print(f"{st.value}: sustains up to {mx:.1f} Mbit/s total")
print(f"full-duplex single-slot vs half-duplex rate region: "
      f"{maxima[Strategy.FD1TS] / maxima[Strategy.HD2TS]:.2f}x")
