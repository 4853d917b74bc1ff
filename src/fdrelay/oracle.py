"""Independent brute-force validation of solver output and model structure.

The grid oracle never trusts the closed-form power expressions: at every
gridded duration it sweeps per-node power boxes from the closed-form point
up to each budget, keeps only assignments whose capacities actually meet
the demands, and takes the cheapest survivor.  A correct solver must never
be worse than the grid; the closed-form point must never be worse than any
rate-feasible grid point at the same durations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import ScenarioParams
from .feasibility import t_floor, tmin_for
from .model import InfeasibleError, PaKind, Scenario, Schedule, Strategy
from .strategies import DESCRIPTIONS, Slot
# Unused here, but the benchmark's span tracer (bench/tracing.py) patches
# these names on this module, so they stay importable from it.
from .feasibility import tmin_1ts, tmin_2ts, tmin_hd  # noqa: F401
from .model import pa_consumption  # noqa: F401
from .strategies import (caps_1ts, caps_2ts, caps_hd, energy_1ts_at,  # noqa: F401
                         energy_2ts_at, energy_hd_at, powers_1ts, powers_2ts,
                         powers_hd)

__all__ = ["OracleReport", "grid_search", "verify_necessary_conditions",
           "convexity_probe", "verify", "random_params",
           "random_feasible_scenarios"]

# Relative slack when testing grid capacities against the demands; the
# closed-form anchor meets them with equality up to float rounding.
_RATE_SLACK = 1e-9


@dataclass(frozen=True)
class OracleReport:
    """Outcome of one oracle pass over a solved scenario."""

    grid_best_energy: float
    solver_energy: float
    relative_gap: float
    active_constraints: dict[str, float] = field(default_factory=dict)
    convexity_violations: int = 0

    @property
    def ok(self) -> bool:
        return (self.relative_gap <= 0.01 and self.convexity_violations == 0)


def _power_box(anchor: float, cap: float, n_p: int) -> np.ndarray | None:
    """Grid from the closed-form anchor up to the budget; None if over it."""
    if not math.isfinite(anchor) or anchor > cap * (1.0 + 1e-9):
        return None
    return np.linspace(min(anchor, cap), cap, n_p)


def _duration_axis(lo: float, hi: float, n_t: int,
                   extras: tuple[float, ...] = ()) -> np.ndarray:
    """Regular duration grid plus any exact boundary points worth probing.

    The extras cover feasibility windows narrower than the grid spacing,
    which a plain lattice can straddle without touching.
    """
    pts = np.linspace(lo, hi, n_t)
    keep = [e for e in extras if math.isfinite(e) and lo <= e <= hi]
    if keep:
        pts = np.unique(np.concatenate([pts, np.asarray(keep)]))
    return pts


def _slot_best(s: Scenario, slot: Slot, t_axis: np.ndarray, n_p: int):
    """Cheapest rate-feasible active power of one slot at each duration.

    At every duration each transmitting node's power sweeps a box from the
    closed-form point up to its budget; only assignments whose capacities
    meet the demands survive.  Returns the best active power per duration
    (inf where nothing survives) and the powers that reach it.
    """
    budgets = slot.budgets(s)
    best = np.full(t_axis.size, math.inf)
    best_powers: list[tuple[float, ...] | None] = [None] * t_axis.size
    for i, t in enumerate(t_axis):
        try:
            anchor = slot.powers(s, t)
        except InfeasibleError:
            continue
        boxes = [_power_box(p, cap, n_p) for p, (_, cap) in zip(anchor, budgets)]
        if any(box is None for box in boxes):
            continue
        grid = np.ix_(*boxes)
        feas = True
        for _, capacity, demand in slot.rates(s, t, *grid):
            feas = feas & (capacity >= demand * (1.0 - _RATE_SLACK))
        if not np.any(feas):
            continue
        active = np.where(feas, slot.active(s, *grid), math.inf)
        k = np.unravel_index(int(np.argmin(active)), active.shape)
        best[i] = active[k]
        best_powers[i] = tuple(float(box[j]) for box, j in zip(boxes, k))
    return best, best_powers


def grid_search(s: Scenario, n_t: int = 50, n_p: int = 20):
    """Exhaustive feasible minimum over duration and power grids.

    Power boxes are anchored at the closed-form point so the sweep can
    confirm, not assume, that equality-active powers dominate.  Every slot
    shares one duration axis.  Raises :class:`InfeasibleError` when no grid
    point is feasible.

    Returns (best_energy, best_point) with best_point a plain dict of the
    slot durations (t1, t2) and the schedule's power fields.
    """
    if n_t < 2 or n_p < 2:
        raise ValueError("need at least two grid points per axis")
    slots = DESCRIPTIONS[s.strategy].slots
    floor = t_floor(s)
    window = tmin_for(s)
    extras = (tuple(x for span in window.spans(s.frame_t) for x in span)
              if window.feasible else ())
    t_axis = _duration_axis(floor, s.frame_t - (len(slots) - 1) * floor,
                            n_t, extras)
    return _best_combination(s, slots, t_axis, [
        _slot_best(s, slot, t_axis, n_p) for slot in slots])


def _best_combination(s: Scenario, slots: tuple[Slot, ...],
                      t_axis: np.ndarray, per_slot):
    """Cheapest frame over every tuple of slot durations that fits it.

    The frame energy at duration indices (i, j, ...) is the sum of each
    slot's best active power times its duration plus the idle draw of the
    rest, evaluated for all tuples at once by broadcasting one axis per slot.
    """
    n = len(slots)
    energy, idle, busy = 0.0, s.frame_t, 0.0
    for k, (active, _) in enumerate(per_slot):
        shape = [1] * n
        shape[k] = t_axis.size
        t = t_axis.reshape(shape)
        energy = energy + active.reshape(shape) * t
        idle = idle - t
        busy = busy + t
    energy = np.where(busy > s.frame_t, math.inf,
                      energy + s.p_idle_total * idle)
    idx = np.unravel_index(int(np.argmin(energy)), energy.shape)
    if not math.isfinite(energy[idx]):
        raise InfeasibleError("no feasible point on the oracle grid")
    point = {f"t{k + 1}": float(t_axis[i]) for k, i in enumerate(idx)}
    for slot, (_, powers), i in zip(slots, per_slot, idx):
        point.update(zip(slot.fields, powers[i]))
    return float(energy[idx]), point


def verify_necessary_conditions(s: Scenario, sched: Schedule,
                                tol: float = 1e-9) -> dict[str, float]:
    """Relative rate-constraint slacks at a solved schedule.

    Every power closes at least one of the rate constraints it serves: for
    the two-slot FD strategy all four constraints must be active; for the
    single-slot and HD strategies both uplinks must be active while the
    smaller broadcast slack vanishes.  A link with no demand has no slack
    and is left out.  Returns the named slacks; raises ``ValueError`` naming
    the first violated pattern.
    """
    desc = DESCRIPTIONS[s.strategy]
    slacks = {}
    for slot, t in zip(desc.slots, (sched.t1, sched.t2)):
        powers = (getattr(sched, name) for name in slot.fields)
        for name, capacity, demand in slot.rates(s, t, *powers):
            if demand > 0:
                slacks[name] = (capacity - demand) / demand
    for group in desc.binding:
        present = [slacks[name] for name in group if name in slacks]
        if not present:
            continue
        lo = min(present)
        if abs(lo) > tol:
            if len(group) == 1:
                raise ValueError(f"constraint {group[0]} not active: "
                                 f"relative slack {lo:.3e}")
            raise ValueError(f"constraints {'/'.join(group)} not properly "
                             f"active: min slack {lo:.3e}")
    return slacks
def convexity_probe(f, domain, n_samples: int = 200, h: float | None = None,
                    rel_tol: float = 1e-6, seed: int = 0,
                    sum_cap: float | None = None) -> int:
    """Count negative central second differences of ``f`` over ``domain``.

    ``domain`` is (lo, hi) for a scalar function or a pair of such
    intervals for a two-variable one (probed along random directions).
    ``sum_cap`` optionally restricts 2-D sampling to x + y <= sum_cap.
    Returns the number of samples where (f(x+h) - 2 f(x) + f(x-h)) / h**2
    falls below ``-rel_tol * |f(x)|``.
    """
    rng = np.random.default_rng(seed)
    two_d = hasattr(domain[0], "__len__")
    if h is None:
        widths = ([domain[0][1] - domain[0][0], domain[1][1] - domain[1][0]]
                  if two_d else [domain[1] - domain[0]])
        h = 0.02 * min(widths)
    violations = 0
    count = 0
    while count < n_samples:
        if two_d:
            x = np.array([rng.uniform(domain[0][0] + h, domain[0][1] - h),
                          rng.uniform(domain[1][0] + h, domain[1][1] - h)])
            if sum_cap is not None and x[0] + x[1] + 2.0 * h > sum_cap:
                continue
            theta = rng.uniform(0.0, 2.0 * math.pi)
            e = np.array([math.cos(theta), math.sin(theta)])
            f0 = f(*x)
            fp = f(*(x + h * e))
            fm = f(*(x - h * e))
        else:
            x = rng.uniform(domain[0] + h, domain[1] - h)
            f0 = f(x)
            fp = f(x + h)
            fm = f(x - h)
        count += 1
        d2 = (fp - 2.0 * f0 + fm) / (h * h)
        if d2 < -rel_tol * abs(f0):
            violations += 1
    return violations


def verify(s: Scenario, sched: Schedule, n_t: int = 40, n_p: int = 12,
           probe_samples: int = 50, tol: float = 1e-6) -> OracleReport:
    """Full oracle pass: grid dominance, constraint slacks, convexity."""
    grid_best, _ = grid_search(s, n_t=n_t, n_p=n_p)
    slack_tol = 1e-9 if not (s.strategy is Strategy.FD1TS
                             and s.asymptotic_1ts) else math.inf
    try:
        slacks = verify_necessary_conditions(s, sched, tol=slack_tol)
    except ValueError:
        slacks = {}
    gap = (sched.e_total - grid_best) / grid_best
    violations = _probe_scenario_energy(s, probe_samples)
    return OracleReport(grid_best_energy=grid_best,
                        solver_energy=sched.e_total,
                        relative_gap=float(gap),
                        active_constraints={k: float(v) for k, v in slacks.items()},
                        convexity_violations=violations)


def _probe_scenario_energy(s: Scenario, n_samples: int) -> int:
    """Convexity/unimodality spot check of the scenario's own objective."""
    desc = DESCRIPTIONS[s.strategy]
    window = tmin_for(s)
    if not window.feasible:
        return 0
    if s.pa.a.kind is PaKind.TPA and not desc.convex_under_tpa:
        # Only quasi-convex there; second differences are not a valid probe.
        return 0
    spans = window.spans(s.frame_t)
    return convexity_probe(lambda *t: desc.energy(s, *t),
                           spans[0] if len(spans) == 1 else spans,
                           n_samples=n_samples, sum_cap=s.frame_t)


def random_params(rng: np.random.Generator, strategy: Strategy,
                  pa_kind: PaKind) -> ScenarioParams:
    """Draw one random scenario's parameters for property testing.

    Distances, demands and cancellation are sampled over wide planning
    ranges; the draw is not guaranteed feasible.
    """
    total = rng.uniform(5.0, 120.0)
    share = rng.uniform(0.25, 0.75)
    return ScenarioParams(
        d_ar_m=rng.uniform(10.0, 200.0),
        d_rb_m=rng.uniform(10.0, 200.0),
        alpha_db=rng.uniform(30.0, 80.0),
        r_fl_mbps=total * share,
        r_rl_mbps=total * (1.0 - share),
        strategy=strategy,
        pa=pa_kind,
    )


def random_feasible_scenarios(seed: int, strategy: Strategy, pa_kind: PaKind,
                              n: int, max_attempts: int = 4000) -> list[Scenario]:
    """Seeded stream of feasible scenarios for a strategy/PA combination."""
    rng = np.random.default_rng(seed)
    out: list[Scenario] = []
    for _ in range(max_attempts):
        if len(out) == n:
            break
        s = random_params(rng, strategy, pa_kind).build()
        if tmin_for(s).feasible:
            out.append(s)
    if len(out) < n:
        raise RuntimeError(
            f"could not draw {n} feasible scenarios in {max_attempts} attempts")
    return out
