#!/usr/bin/env python3
"""Walk through one scheduling problem end to end.

Builds the default scenario, solves it under all three transmission
strategies and both amplifier models, and prints the resulting schedules
side by side.  Finishes with a brute-force oracle audit of the best one.
"""

from dataclasses import replace

from fdrelay import (
    PaKind,
    Strategy,
    solve,
    verify,
)
from fdrelay.config import ScenarioParams

base = ScenarioParams()  # 65 Mbps balanced demand over a 10 ms frame

print(f"demand: {base.r_fl_mbps} + {base.r_rl_mbps} Mbit/s, "
      f"{base.bandwidth_mhz} MHz, {base.alpha_db} dB self-cancellation\n")

header = (f"{'strategy':8s} {'pa':5s} {'t1 [ms]':>9s} {'t2 [ms]':>9s} "
          f"{'p_a [W]':>9s} {'p_b [W]':>9s} {'p_r [W]':>9s} "
          f"{'energy [J]':>12s} {'EE [bit/J]':>12s}")
print(header)
print("-" * len(header))

best = None
for strategy in Strategy:
    for pa_kind in PaKind:
        s = replace(base, strategy=strategy, pa=pa_kind).build()
        sched = solve(s)
        print(f"{strategy.value:8s} {pa_kind.value:5s} "
              f"{sched.t1 * 1e3:9.4f} {sched.t2 * 1e3:9.4f} "
              f"{sched.p_a:9.4f} {sched.p_b:9.4f} {sched.p_r_fwd:9.4f} "
              f"{sched.e_total:12.5e} {sched.ee:12.5e}")
        if best is None or sched.ee > best[2].ee:
            best = (strategy, pa_kind, sched, s)

strategy, pa_kind, sched, s = best
print(f"\nbest: {strategy.value} under {pa_kind.value} "
      f"({sched.ee:.4e} bit/J); auditing it with the brute-force oracle...")

rep = verify(s, sched)
print(f"grid best energy : {rep.grid_best_energy:.6e} J")
print(f"solver energy    : {rep.solver_energy:.6e} J")
print(f"relative gap     : {rep.relative_gap:+.3e}  (<= 0 means the solver "
      f"matched or beat the grid)")
print(f"constraint slacks: " + ", ".join(
    f"{k}={v:+.2e}" for k, v in rep.active_constraints.items()))
print(f"convexity probe  : {rep.convexity_violations} violations")
