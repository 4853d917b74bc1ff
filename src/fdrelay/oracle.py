"""Independent brute-force validation of solver output and model structure.

The grid oracle never trusts the closed-form power expressions: at every
gridded duration it checks the capacities of the closed-form point (the
anchor) from scratch.  At the optimum every rate constraint is active, so
the closed forms are the least powers that meet the demands (the fixed
point of a standard interference map; Yates, IEEE JSAC 1995).  An anchor
that meets every demand is therefore its duration's cheapest rate-feasible
point, because the PA draw never falls as a power grows.  An anchor within
its budget that misses a demand is a wrong closed form: :func:`verify`
counts it in ``OracleReport.anchor_misses`` and fails.  A correct solver
must never be worse than the grid.

Both the grid and the convexity probe run in array passes.  Each slot's
closed-form powers are priced over a whole duration array in one
``Slot.powers`` call.  The array powers equal the float calls bit for bit
(the exponentials go through the float power one element at a time,
because numpy's array ``2.0 ** x`` is one ULP off on some inputs), so the
reports equal those of a point-by-point run.  Where the single-slot form
raises :class:`~fdrelay.model.InfeasibleError` for a float, its array holds
NaN: the grid drops that duration, as it drops a duration whose anchor is
infinite, over budget or short of a demand.  The grid checks the anchors of
all durations in one pass.
:func:`convexity_probe` calls its function once, on one array per
coordinate holding every probe point, and refuses a value that is not
finite; :func:`verify` hands it the scenario's ``Description.energy``.
The rate constraints come grouped by the power that closes them
(``Slot.rates``), and :func:`verify_necessary_conditions` reads each
group's slacks from that one statement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .config import ScenarioParams
from .feasibility import FeasibleWindow, t_floor, tmin_for
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

# Relative tolerance of the convexity probe's second differences.
_CONVEXITY_REL_TOL = 1e-6

# The grid and probe sizes of a :func:`verify` pass: duration points per
# slot, and convexity-probe samples; and the grid size of :func:`grid_search`.
_VERIFY_N_T = 40
_VERIFY_PROBE_SAMPLES = 50
_GRID_N_T = 50

# Draws :func:`random_feasible_scenarios` makes at most.
_MAX_ATTEMPTS = 4000

# Samples a 2-D probe may reject for its ``sum_cap`` before it refuses the
# cap.  A :func:`verify` probe accepts about 46% of its draws, so its 50
# samples reject about 60.
_PROBE_MAX_REJECTS = 100_000


@dataclass(frozen=True)
class OracleReport:
    """Outcome of one oracle pass over a solved scenario.  ``ok`` needs
    every demand met too: each relative slack in ``active_constraints``,
    one per rate constraint with a demand, at least ``-_RATE_SLACK``.  It
    also needs every in-budget closed-form anchor of the grid to meet its
    demands: ``anchor_misses`` counts those that do not."""

    grid_best_energy: float
    solver_energy: float
    relative_gap: float
    active_constraints: dict[str, float] = field(default_factory=dict)
    convexity_violations: int = 0
    anchor_misses: int = 0

    @property
    def ok(self) -> bool:
        return (self.relative_gap <= 0.01 and self.convexity_violations == 0
                and self.anchor_misses == 0
                and all(v >= -_RATE_SLACK
                        for v in self.active_constraints.values()))


def _duration_axis(lo: float, hi: float, n_t: int,
                   extras: tuple[float, ...]) -> np.ndarray:
    """Regular duration grid plus any exact boundary points worth probing.

    The extras cover feasibility windows narrower than the grid spacing,
    which a plain lattice can straddle without touching.
    """
    pts = np.linspace(lo, hi, n_t)
    keep = [e for e in extras if math.isfinite(e) and lo <= e <= hi]
    if keep:
        pts = np.unique(np.concatenate([pts, np.asarray(keep)]))
    return pts


def _meets(s: Scenario, slot: Slot, t, *powers):
    """Where every rate of ``slot`` at ``t`` and ``powers`` is met."""
    met = True
    for group in slot.rates(s, t, *powers):
        for _, capacity, demand in group:
            met = met & (capacity >= demand * (1.0 - _RATE_SLACK))
    return met


def _slot_best(s: Scenario, slot: Slot, t_axis: np.ndarray):
    """Each duration's cheapest rate-feasible active power of one slot
    (inf off the grid), and how many in-budget anchors miss a demand.

    One ``slot.powers`` call prices the anchors of every duration.  An
    anchor that is not finite (NaN where the single-slot form raises) or
    over its budget leaves the grid; one within 1e-9 of its budget is
    clipped onto it.  One pass checks the capacities of the rest from
    scratch.  An anchor that misses a demand leaves the grid too, and is a
    miss unless it was clipped: a clip on the budget edge shows no wrong
    closed form.
    """
    caps = np.array([cap for _, cap in slot.budgets(s)])
    best = np.full(t_axis.size, math.inf)
    anchors = np.column_stack(slot.powers(s, t_axis))
    rows = np.flatnonzero((np.isfinite(anchors)
                           & (anchors <= caps * (1.0 + 1e-9))).all(axis=1))
    anchors = anchors[rows]
    clipped = np.minimum(anchors, caps)
    met = _meets(s, slot, t_axis[rows], *clipped.T)
    best[rows[met]] = slot.active(s, *clipped[met].T)
    return best, int(np.count_nonzero(~met & (anchors <= caps).all(axis=1)))


def grid_search(s: Scenario):
    """Exhaustive feasible minimum over a duration grid shared by every
    slot, 50 durations plus the window's edges, each duration priced at its
    closed-form powers.

    Returns (best_energy, best_point) with best_point a plain dict of the
    slot durations (t1, t2); best_energy is inf only where anchors that
    miss a demand left the grid empty.  Raises :class:`InfeasibleError`
    when the grid is empty otherwise.
    """
    energy, point, _ = _grid_search(s, tmin_for(s), _GRID_N_T)
    return energy, point


def _grid_search(s: Scenario, window: FeasibleWindow, n_t: int):
    """:func:`grid_search` at ``n_t`` regular durations per slot, given the
    scenario's feasibility window; also returns the number of anchors that
    miss a demand, over all slots."""
    slots = DESCRIPTIONS[s.strategy].slots
    floor = t_floor(s)
    extras = (tuple(x for span in window.spans(s.frame_t) for x in span)
              if window.feasible else ())
    t_axis = _duration_axis(floor, s.frame_t - (len(slots) - 1) * floor,
                            n_t, extras)
    per_slot = [_slot_best(s, slot, t_axis) for slot in slots]
    misses = sum(m for _, m in per_slot)
    energy, point = _best_combination(s, t_axis, [b for b, _ in per_slot])
    if not (math.isfinite(energy) or misses):
        raise InfeasibleError("no feasible point on the oracle grid")
    return energy, point, misses


def _best_combination(s: Scenario, t_axis: np.ndarray, per_slot):
    """Cheapest frame over every tuple of slot durations that fits it.

    The frame energy at duration indices (i, j, ...) is the sum of each
    slot's best active power times its duration plus the idle draw of the
    rest, evaluated for all tuples at once by broadcasting one axis per slot.
    Returns the energy (inf where no tuple is feasible) and its durations.
    """
    n = len(per_slot)
    energy, idle, busy = 0.0, s.frame_t, 0.0
    for k, active in enumerate(per_slot):
        shape = [1] * n
        shape[k] = t_axis.size
        t = t_axis.reshape(shape)
        energy = energy + active.reshape(shape) * t
        idle = idle - t
        busy = busy + t
    energy = np.where(busy > s.frame_t, math.inf,
                      energy + s.p_idle_total * idle)
    idx = np.unravel_index(int(np.argmin(energy)), energy.shape)
    return float(energy[idx]), {f"t{k + 1}": float(t_axis[i])
                                for k, i in enumerate(idx)}


def verify_necessary_conditions(s: Scenario, sched: Schedule,
                                tol: float = 1e-9) -> dict[str, float]:
    """Relative rate-constraint slacks at a solved schedule.

    Every power closes the rate constraints of its group in ``Slot.rates``:
    the smallest slack of each group must vanish.  So all four constraints
    of the two-slot FD strategy are active, and in the single-slot and HD
    strategies both uplinks and the smaller broadcast slack.  A link with
    no demand has no slack and is left out.  Returns the named slacks;
    raises ``ValueError`` naming the first group that is not active.
    """
    slacks = {}
    for slot, t in zip(DESCRIPTIONS[s.strategy].slots, (sched.t1, sched.t2)):
        powers = (getattr(sched, name) for name in slot.fields)
        for group in slot.rates(s, t, *powers):
            own = {name: (capacity - demand) / demand
                   for name, capacity, demand in group if demand > 0}
            slacks.update(own)
            if own and abs(lo := min(own.values())) > tol:
                names = [name for name, _, _ in group]
                if len(names) == 1:
                    raise ValueError(f"constraint {names[0]} not active: "
                                     f"relative slack {lo:.3e}")
                raise ValueError(f"constraints {'/'.join(names)} not "
                                 f"properly active: min slack {lo:.3e}")
    return slacks


def _probe_points(domain, n_samples: int, sum_cap: float | None):
    """The probe's step ``h``, 2% of the domain's narrowest side, and its
    sample points in draw order.

    The points come as an array of shape (n_samples, 3, dim): per sample
    the rows x, x + h e and x - h e, with e = 1 on a scalar domain (dim 1)
    and a random unit direction on a pair of intervals (dim 2).

    The draws are those of single ``Generator.uniform`` calls on
    ``default_rng(0)``: ``lo + (hi - lo) * u`` is the value
    ``Generator.uniform(lo, hi)`` gives for the double ``u``.  A 2-D probe
    takes its doubles in order from one stream: two for each x and, unless
    ``sum_cap`` rejects x, a third for the direction's angle.  A
    reversed domain raises ``ValueError``, and so does a ``sum_cap`` that
    rejects even the lowest x, before anything is drawn, or one that
    rejects more than ``_PROBE_MAX_REJECTS`` draws.
    """
    rng = np.random.default_rng(0)
    two_d = hasattr(domain[0], "__len__")
    widths = ([domain[0][1] - domain[0][0], domain[1][1] - domain[1][0]]
              if two_d else [domain[1] - domain[0]])
    h = 0.02 * min(widths)
    ranges = ([(lo + h, hi - h) for lo, hi in domain] if two_d
              else [(domain[0] + h, domain[1] - h)])
    if any(not lo <= hi for lo, hi in ranges):
        raise ValueError(f"probe step {h} leaves no room in {domain}")
    if not two_d:
        lo, hi = ranges[0]
        x = (lo + (hi - lo) * rng.random(n_samples))[:, None]
        return h, np.stack([x, x + h, x - h], axis=1)
    (lo0, hi0), (lo1, hi1) = ranges
    if sum_cap is not None and lo0 + lo1 + 2.0 * h > sum_cap:
        raise ValueError(f"sum_cap {sum_cap} rejects every sample of "
                         f"{domain}: the lowest gives x + y + 2h = "
                         f"{lo0 + lo1 + 2.0 * h}")
    # The candidate x at stream position p is (u[p], u[p + 1]) scaled onto
    # the box, so every candidate's verdict is one array pass; only the
    # walk that decides which positions start a candidate is a loop.
    u = np.empty(0)
    starts, pos, rejects = [], 0, 0
    while len(starts) < n_samples:
        if pos + 3 > u.size:
            # The first block holds 3 * n_samples doubles; each refill
            # doubles the stream, which draws the same doubles in order.
            u = np.concatenate([u, rng.random(max(u.size, 3 * n_samples))])
            x0, x1 = lo0 + (hi0 - lo0) * u, lo1 + (hi1 - lo1) * u
            kept = ([True] * (u.size - 1) if sum_cap is None else
                    (~(x0[:-1] + x1[1:] + 2.0 * h > sum_cap)).tolist())
        if kept[pos]:
            starts.append(pos)
            pos += 3
            continue
        pos += 2
        rejects += 1
        if rejects > _PROBE_MAX_REJECTS:
            raise ValueError(
                f"sum_cap {sum_cap} rejected {rejects} draws of {domain} "
                f"and kept {len(starts)} of {n_samples} samples")
    at = np.array(starts)
    x0, x1 = x0[at], x1[at + 1]
    theta = (2.0 * math.pi * u[at + 2]).tolist()
    # math's cos and sin, which numpy's array forms may differ from.
    e0 = h * np.array(list(map(math.cos, theta)))
    e1 = h * np.array(list(map(math.sin, theta)))
    return h, np.stack([x0, x1, x0 + e0, x1 + e1, x0 - e0, x1 - e1],
                       axis=1).reshape(n_samples, 3, 2)


def convexity_probe(f, domain, n_samples: int = 200,
                    sum_cap: float | None = None) -> int:
    """Count negative central second differences of ``f`` over ``domain``.

    ``domain`` is (lo, hi) for a scalar function or a pair of such
    intervals for a two-variable one (probed along random directions).
    The step h is 2% of the domain's narrowest side, and the samples are
    drawn from seed 0, so a probe is the same on every call.
    ``sum_cap`` optionally restricts 2-D sampling to x + y + 2h <= sum_cap;
    a cap that no sample can meet, or that rejects more than 100,000
    draws, raises ``ValueError``.
    ``f`` is called once, with one ndarray per coordinate that holds every
    sample x and its neighbours x +/- h along the probe direction, and
    returns the array of values; a value that is not finite raises
    ``ValueError``.  Returns the number of samples where
    (f(x+h) - 2 f(x) + f(x-h)) / h**2 falls below 1e-6 times -|f(x)|.
    """
    h, points = _probe_points(domain, n_samples, sum_cap)
    coords = points.reshape(-1, points.shape[-1]).T
    values = np.asarray(f(*coords), dtype=float)
    bad = ~np.isfinite(values)
    if bad.any():
        x = coords[:, bad.argmax()].tolist()
        raise ValueError(f"probed function is not finite at {x}")
    f0, fp, fm = values.reshape(-1, 3).T
    # Dividing by h twice keeps the step of a frame shorter than 1e-154 s
    # from squaring to zero.
    d2 = (fp - 2.0 * f0 + fm) / h / h
    return int(np.count_nonzero(d2 < -_CONVEXITY_REL_TOL * np.abs(f0)))


def verify(s: Scenario, sched: Schedule) -> OracleReport:
    """Full oracle pass: grid dominance, anchor misses, constraint slacks,
    convexity.  Where missing anchors leave the grid empty, the grid best
    is inf and the gap NaN.

    The grid and the probe read the scenario's feasibility window: the one
    :func:`~fdrelay.solver.solve` attached to ``sched``, or, for a schedule
    that carries none (one built by hand), :func:`tmin_for`'s.  A schedule
    solved for another scenario carries that scenario's window, so check it
    against ``s`` with ``replace(sched, window=None)``."""
    window = sched.window if sched.window is not None else tmin_for(s)
    grid_best, _, misses = _grid_search(s, window, _VERIFY_N_T)
    slacks = verify_necessary_conditions(s, sched, tol=math.inf)
    gap = (sched.e_total - grid_best) / grid_best
    violations = _probe_scenario_energy(s, window, _VERIFY_PROBE_SAMPLES)
    return OracleReport(grid_best_energy=grid_best,
                        solver_energy=sched.e_total,
                        relative_gap=float(gap),
                        active_constraints={k: float(v) for k, v in slacks.items()},
                        convexity_violations=violations,
                        anchor_misses=misses)


def _probe_scenario_energy(s: Scenario, window: FeasibleWindow,
                           n_samples: int) -> int:
    """Convexity/unimodality spot check of the scenario's own objective
    over its feasibility window."""
    desc = DESCRIPTIONS[s.strategy]
    if not window.feasible:
        return 0
    if s.pa.a.kind is PaKind.TPA and not desc.convex_under_tpa:
        # Only quasi-convex there; second differences are not a valid probe.
        return 0
    spans = window.spans(s.frame_t)
    return convexity_probe(partial(desc.energy, s),
                           spans[0] if len(spans) == 1 else spans,
                           n_samples, sum_cap=s.frame_t)


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
                              n: int) -> list[Scenario]:
    """Seeded stream of ``n >= 1`` feasible scenarios for a strategy/PA
    combination.

    Raises ``ValueError`` when ``n < 1`` or when fewer than ``n`` of the
    first 4000 draws are feasible.
    """
    if n < 1:
        raise ValueError(f"need at least one scenario, got {n}")
    rng = np.random.default_rng(seed)
    out: list[Scenario] = []
    for _ in range(_MAX_ATTEMPTS):
        if len(out) == n:
            break
        s = random_params(rng, strategy, pa_kind).build()
        if tmin_for(s).feasible:
            out.append(s)
    if len(out) < n:
        raise ValueError(
            f"could not draw {n} feasible scenarios in {_MAX_ATTEMPTS} attempts")
    return out
