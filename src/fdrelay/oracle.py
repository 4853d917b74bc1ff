"""Independent brute-force validation of solver output and model structure.

The grid oracle never trusts the closed-form power expressions: at every
gridded duration it sweeps per-node power boxes from the closed-form point
up to each budget, keeps only assignments whose capacities actually meet
the demands, and takes the cheapest survivor.  A correct solver must never
be worse than the grid; the closed-form point must never be worse than any
rate-feasible grid point at the same durations.

Both the grid and the scenario convexity probe run in array passes.  Each
slot's closed-form powers are priced over a whole duration array in one
``Slot.powers`` call: the anchors of every grid duration, then every probe
point.  The array powers equal the float calls bit for bit (the exponentials
go through the float power one element at a time, because numpy's array
``2.0 ** x`` is one ULP off on some inputs), so the reports equal those of
a point-by-point run.  Where the single-slot form raises
:class:`~fdrelay.model.InfeasibleError` for a float, its array holds NaN:
the grid drops that duration, as it drops a duration whose anchor is
infinite or over budget, and the probe calls the float form at the first
such point, which raises the error.  The grid evaluates the power boxes of
many durations in one pass, at most ``_CHUNK_ELEMENTS`` grid points at a
time so that the single-slot strategy's 3-D boxes add no resident memory;
the probe prices all of its points with one ``Description.energy_at`` call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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

# Grid points one array pass of the oracle evaluates at most; a fixed cap
# keeps the single-slot strategy's 3-D power boxes from adding resident
# memory as the grid grows.
_CHUNK_ELEMENTS = 2 ** 14

# The grid and probe sizes of a :func:`verify` pass: duration and power
# points per axis, and convexity-probe samples.
_VERIFY_N_T = 40
_VERIFY_N_P = 12
_VERIFY_PROBE_SAMPLES = 50

# Draws :func:`random_feasible_scenarios` makes at most.
_MAX_ATTEMPTS = 4000


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


def _power_boxes(lo: np.ndarray, hi: np.ndarray, n_p: int) -> np.ndarray:
    """``np.linspace(lo[i], hi[i], n_p)`` for every entry i, bit for bit.

    One ``np.linspace`` call over all entries switches every entry to its
    zero-step formula once one entry's step is zero (an anchor on its
    budget), so the zero-step entries get a call of their own.
    """
    boxes = np.empty(lo.shape + (n_p,))
    flat = (hi - lo) / (n_p - 1) == 0
    for part in (flat, ~flat):
        if part.any():
            boxes[part] = np.linspace(lo[part], hi[part], n_p, axis=-1)
    return boxes


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
    (inf where nothing survives) and the powers that reach it, one row per
    duration (NaN where nothing survives).

    One ``slot.powers`` call prices the anchors of every duration.  An
    anchor that is not finite (NaN where the single-slot form raises) or
    over its budget leaves its duration off the grid.  The boxes,
    capacities and active powers of the remaining durations go through one
    array pass, ``_CHUNK_ELEMENTS`` grid points at a time.
    """
    caps = np.array([cap for _, cap in slot.budgets(s)])
    n_w = caps.size
    best = np.full(t_axis.size, math.inf)
    best_powers = np.full((t_axis.size, n_w), math.nan)
    anchors = np.column_stack(slot.powers(s, t_axis))
    rows = np.flatnonzero((np.isfinite(anchors)
                           & (anchors <= caps * (1.0 + 1e-9))).all(axis=1))
    if not rows.size:
        return best, best_powers
    boxes = _power_boxes(np.minimum(anchors[rows], caps), np.broadcast_to(
        caps, (rows.size, n_w)), n_p)
    per_row = n_p ** n_w
    step = max(1, _CHUNK_ELEMENTS // per_row)
    for lo in range(0, rows.size, step):
        box = boxes[lo:lo + step]
        n = box.shape[0]
        t = t_axis[rows[lo:lo + step]].reshape((n,) + (1,) * n_w)
        # One open-mesh axis per power after the leading duration axis.
        grid = [box[:, w].reshape((n,) + (1,) * w + (n_p,)
                                  + (1,) * (n_w - 1 - w))
                for w in range(n_w)]
        feas = True
        for _, capacity, demand in slot.rates(s, t, *grid):
            feas = feas & (capacity >= demand * (1.0 - _RATE_SLACK))
        active = np.where(feas, slot.active(s, *grid),
                          math.inf).reshape(n, per_row)
        k = np.argmin(active, axis=1)
        won = active[np.arange(n), k]
        hit = np.flatnonzero(np.isfinite(won))
        i = rows[lo + hit]
        best[i] = won[hit]
        j = np.column_stack(np.unravel_index(k[hit], (n_p,) * n_w))
        best_powers[i] = box[hit[:, None], np.arange(n_w), j]
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
    return _grid_search(s, tmin_for(s), n_t, n_p)


def _grid_search(s: Scenario, window: FeasibleWindow, n_t: int, n_p: int):
    """:func:`grid_search` given the scenario's feasibility window."""
    if n_t < 2 or n_p < 2:
        raise ValueError("need at least two grid points per axis")
    slots = DESCRIPTIONS[s.strategy].slots
    floor = t_floor(s)
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
        point.update(zip(slot.fields, powers[i].tolist()))
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


def _probe_points(domain, n_samples: int, h: float | None, seed: int,
                  sum_cap: float | None):
    """The probe's step ``h`` and its sample points in draw order.

    The points come as an array of shape (n_samples, 3, dim): per sample
    the rows x, x + h e and x - h e, with e = 1 on a scalar domain (dim 1)
    and a random unit direction on a pair of intervals (dim 2).

    The draws are those of single ``Generator.uniform`` calls on
    ``default_rng(seed)``: a 2-D sample takes two doubles for x and, unless
    ``sum_cap`` rejects x, a third for the direction's angle.  The doubles
    come in blocks of ``3 * n_samples``; whether each stream position would
    start an accepted sample is decided for the whole block at once, and
    only the walk from one sample's start to the next runs per sample.
    ``lo + (hi - lo) * u`` is the value ``Generator.uniform(lo, hi)`` gives
    for the double ``u``; the angle's ``math.cos``/``math.sin`` run per
    sample.
    """
    rng = np.random.default_rng(seed)
    two_d = hasattr(domain[0], "__len__")
    if h is None:
        widths = ([domain[0][1] - domain[0][0], domain[1][1] - domain[1][0]]
                  if two_d else [domain[1] - domain[0]])
        h = 0.02 * min(widths)
    ranges = ([(lo + h, hi - h) for lo, hi in domain] if two_d
              else [(domain[0] + h, domain[1] - h)])
    if any(not lo <= hi for lo, hi in ranges):
        raise ValueError(f"probe step {h} leaves no room in {domain}")

    def uniform(lo: float, hi: float, u: np.ndarray) -> np.ndarray:
        return lo + (hi - lo) * u

    u = rng.random(3 * n_samples)
    if not two_d:
        x, e = uniform(*ranges[0], u[:n_samples])[:, None], 1.0
        return h, np.stack([x, x + h * e, x - h * e], axis=1)

    def accepted(u: np.ndarray) -> list[bool]:
        if sum_cap is None:
            return [True] * (u.size - 1)
        sums = uniform(*ranges[0], u[:-1]) + uniform(*ranges[1], u[1:])
        return (~(sums + 2.0 * h > sum_cap)).tolist()

    keep, starts, pos = accepted(u), [], 0
    while len(starts) < n_samples:
        if pos + 3 > u.size:
            u = np.concatenate([u, rng.random(3 * n_samples)])
            keep = accepted(u)
        if keep[pos]:
            starts.append(pos)
            pos += 3
        else:
            pos += 2
    first = np.array(starts, dtype=np.intp)
    x = np.column_stack([uniform(*ranges[0], u[first]),
                         uniform(*ranges[1], u[first + 1])])
    theta = uniform(0.0, 2.0 * math.pi, u[first + 2]).tolist()
    e = np.array([(math.cos(a), math.sin(a)) for a in theta],
                 dtype=float).reshape(n_samples, 2)
    return h, np.stack([x, x + h * e, x - h * e], axis=1)


def _count_violations(f: np.ndarray, h: float, rel_tol: float) -> int:
    """Samples whose second difference falls below ``-rel_tol * |f(x)|``,
    given one row (f(x), f(x + h e), f(x - h e)) per sample."""
    f0, fp, fm = f[:, 0], f[:, 1], f[:, 2]
    d2 = (fp - 2.0 * f0 + fm) / (h * h)
    return int(np.count_nonzero(d2 < -rel_tol * np.abs(f0)))


def convexity_probe(f, domain, n_samples: int = 200, h: float | None = None,
                    rel_tol: float = 1e-6, seed: int = 0,
                    sum_cap: float | None = None) -> int:
    """Count negative central second differences of ``f`` over ``domain``.

    ``domain`` is (lo, hi) for a scalar function or a pair of such
    intervals for a two-variable one (probed along random directions).
    ``sum_cap`` optionally restricts 2-D sampling to x + y <= sum_cap.
    ``f`` is called once per point: at each sample x and at x +/- h along
    the probe direction.  Returns the number of samples where
    (f(x+h) - 2 f(x) + f(x-h)) / h**2 falls below ``-rel_tol * |f(x)|``.
    """
    h, points = _probe_points(domain, n_samples, h, seed, sum_cap)
    values = [[f(*x) for x in triple] for triple in points.tolist()]
    return _count_violations(np.array(values, dtype=float), h, rel_tol)


def verify(s: Scenario, sched: Schedule) -> OracleReport:
    """Full oracle pass: grid dominance, constraint slacks, convexity."""
    window = tmin_for(s)
    grid_best, _ = _grid_search(s, window, _VERIFY_N_T, _VERIFY_N_P)
    slack_tol = 1e-9 if not (s.strategy is Strategy.FD1TS
                             and s.asymptotic_1ts) else math.inf
    try:
        slacks = verify_necessary_conditions(s, sched, tol=slack_tol)
    except ValueError:
        slacks = {}
    gap = (sched.e_total - grid_best) / grid_best
    violations = _probe_scenario_energy(s, window, _VERIFY_PROBE_SAMPLES)
    return OracleReport(grid_best_energy=grid_best,
                        solver_energy=sched.e_total,
                        relative_gap=float(gap),
                        active_constraints={k: float(v) for k, v in slacks.items()},
                        convexity_violations=violations)


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
    return _probe_closed_form(s, spans[0] if len(spans) == 1 else spans,
                              n_samples)


def _probe_closed_form(s: Scenario, domain, n_samples: int) -> int:
    """``convexity_probe`` of the closed-form frame energy over ``domain``,
    priced in one pass: the same points and the same count.

    One ``slot.powers`` call per slot prices every probe point, and
    ``Description.energy_at`` sums them.  Where the single-slot form raises
    :class:`InfeasibleError` at a point, its array holds NaN; the float
    form is then called at the first such point and raises the error.
    """
    desc = DESCRIPTIONS[s.strategy]
    h, points = _probe_points(domain, n_samples, None, 0, s.frame_t)
    durations = points.reshape(-1, points.shape[-1]).T
    powers = []
    for slot, t in zip(desc.slots, durations):
        p = slot.powers(s, t)
        raised = np.isnan(p).any(axis=0)
        if raised.any():
            slot.powers(s, float(t[raised.argmax()]))
        powers.append(p)
    energy = desc.energy_at(s, durations, powers)
    return _count_violations(energy.reshape(-1, 3), h, 1e-6)


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
