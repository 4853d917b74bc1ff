#!/usr/bin/env python3
"""Audit the closed-form solver against the brute-force oracle.

Draws random feasible scenarios for every strategy and amplifier model,
solves each, and prices the oracle's duration grid, at the closed-form
powers, over the same instances.  The solver must never lose to the grid,
the rate constraints must be active at each optimum, and the energy
objectives must show no concavity along the way.  A deliberately concave function closes the demo
as the probe's negative control.
"""

from fdrelay import PaKind, Strategy, solve
from fdrelay.oracle import (
    convexity_probe,
    grid_search,
    random_feasible_scenarios,
    verify_necessary_conditions,
)

N_PER_COMBO = 5

worst_gap = float("-inf")
for strategy in Strategy:
    for pa_kind in PaKind:
        scenarios = random_feasible_scenarios(42, strategy, pa_kind,
                                              N_PER_COMBO)
        for i, scenario in enumerate(scenarios):
            schedule = solve(scenario)
            grid_best, _ = grid_search(scenario)
            gap = (schedule.e_total - grid_best) / grid_best
            worst_gap = max(worst_gap, gap)
            slacks = verify_necessary_conditions(scenario, schedule)
            if strategy is Strategy.FD2TS:
                active = max(abs(v) for v in slacks.values())
            else:
                # uplinks must be tight; the smaller broadcast slack vanishes
                active = max(abs(slacks["c_ar"]), abs(slacks["c_br"]),
                             abs(min(slacks["c_ra"], slacks["c_rb"])))
            print(f"{strategy.value}/{pa_kind.value} #{i}: "
                  f"solver {schedule.e_total:.4e} J, grid {grid_best:.4e} J, "
                  f"gap {gap:+.2e}, active-slack {active:.1e}")

print(f"\nworst solver-vs-grid gap: {worst_gap:+.3e} "
      f"(negative or zero means the solver never lost)")

flagged = convexity_probe(lambda t: -(t - 3.0) ** 2, (0.0, 10.0),
                          n_samples=100)
print(f"negative control: concave test function flagged at "
      f"{flagged}/100 probe points")
