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

An audit prices the frame in one pass: one call of each slot's bound
closed form over the grid's durations and the convexity probe's together,
and one PA draw over every slot's grid anchors and probe powers, marked
by masks, never compacted, in one frame array.  So :func:`verify` binds
each slot's closed form once and draws once per audit, and reads the grid
best, the anchor misses and the probe's second differences off that pass.
The pass runs over the audited scenario's own feasibility window
(:func:`tmin_for`), never over one that a schedule brings.
The probe's sampler keeps its last walk over the seed-0 stream and reuses
it once every verdict that walk read is judged again, for the new window,
to the same value, so its points are those of a fresh walk.  The seed-0
stream is NumPy's PCG64 stream, the doubles ``default_rng(0).random``
draws, computed here in pure Python, so an audit imports neither
``numpy.random`` nor, since the grid merges its window edges without
``np.unique``, ``numpy.ma``.  The array powers equal
the float calls bit for bit (each rate's exponentials are one
``np.float_power``, which calls the float path's C ``pow`` once per
element; ``np.power`` and ``np.exp2`` are one ULP off it on some inputs),
so the reports equal those of a point-by-point run.  The grid is
``np.linspace``'s arithmetic, ``np.arange(n_t - 1) * step + lo`` then
``hi``; its step never underflows to 0, since a scenario refuses a frame
shorter than the least normal float.  The budgets are read once per audit.
Where the single-slot form raises :class:`~fdrelay.model.InfeasibleError`
for a float, its array holds NaN: the grid drops that duration, as it
drops a duration whose anchor is infinite, over budget or short of a
demand, and the probe's draw refuses it.  :func:`convexity_probe` calls
its function once, on one array per coordinate holding every probe point,
and refuses a value that is not finite; its count is the one
:func:`verify` takes of the scenario's frame energy at the closed-form
powers of the probe points.
The rate constraints come grouped by the power that closes them
(``Slot.rates``), and :func:`verify_necessary_conditions` reads each
group's slacks from that one statement.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .config import ScenarioParams
from .feasibility import t_floor, tmin_for
from .model import (_P_BUDGET_SLACK, InfeasibleError, PaKind, Scenario,
                    Schedule, Strategy)
from .strategies import DESCRIPTIONS, bind_actives, frame_energy
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

# The seed-0 stream is NumPy's: ``default_rng(0)`` seeds a PCG64 generator
# (the XSL-RR 128/64 member of M. E. O'Neill's family, "PCG: A family of
# simple fast space-efficient statistically good algorithms for random
# number generation", 2014) with this state and increment.  Each step
# advances the 128-bit state by one linear congruential step, then outputs
# its high and low halves XORed and rotated right by its top 6 bits; a
# double is the output's top 53 bits times 2**-53, as ``Generator.random``
# makes it.  Computing it here keeps ``numpy.random`` out of an audit.
_PCG64_MULT = (2549297995355413924 << 64) + 4865540595714422341
_PCG64_INC = 87136372517582989555478159403783844777
_PCG64_SEED0_STATE = 35399562948360463058890781895381311971
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1


def _pcg64_doubles(state: int, n: int) -> tuple[np.ndarray, int]:
    """The next ``n`` doubles of the PCG64 stream at ``state``, and the
    state after the last."""
    out = array("d")
    append = out.append
    for _ in range(n):
        state = (state * _PCG64_MULT + _PCG64_INC) & _MASK128
        rot = state >> 122
        x = ((state >> 64) ^ state) & _MASK64
        append(((((x >> rot) | (x << (64 - rot))) & _MASK64) >> 11)
               * 2.0 ** -53)
    return np.frombuffer(out, dtype=float), state


# The probe's doubles, the first ones ``default_rng(0).random`` draws, read
# only, and the generator's state after the last of them.  A longer draw
# of one seed starts with every shorter one, so :func:`_seed0_doubles`
# extends the stream to twice its length from that state, and what a caller
# reads never depends on earlier calls.  An extension replaces the pair
# whole, so threads can only extend it again, never read a stream with the
# wrong state.  The reject cap bounds its growth: a 50-sample probe that
# reaches the cap reads about 300,000 doubles (2.4 MiB).
_SEED0: tuple[np.ndarray, int] = (np.empty(0), _PCG64_SEED0_STATE)


def _seed0_doubles(n: int) -> np.ndarray:
    """The first ``n`` doubles of ``default_rng(0).random``, as a read-only
    view of one stream computed once per process, in pure Python
    (NumPy's PCG64 stream, :func:`_pcg64_doubles`), and extended by
    doubling."""
    global _SEED0
    u, state = _SEED0
    if n > u.size:
        more, state = _pcg64_doubles(state, max(n, 2 * u.size) - u.size)
        u = np.concatenate([u, more])
        u.flags.writeable = False
        _SEED0 = u, state
    return u[:n]


class _Walk(NamedTuple):
    """One 2-D walk of :func:`_probe_points` over the seed-0 stream, for a
    sample count.  At each stream position p it visited, in walk order, the
    walk read the verdict on the candidate scaled from the doubles
    ``judged`` holds, (u[p], u[p + 1]); ``verdicts`` holds those verdicts
    as the bytes of a bool array.  A kept position started a sample:
    ``drawn`` holds rows u[p] and u[p + 1] of each start and ``direction``
    the cos and sin rows of its angle 2 pi u[p + 2], from ``math``."""

    n_samples: int
    judged: tuple[np.ndarray, np.ndarray]
    verdicts: bytes
    drawn: np.ndarray
    direction: np.ndarray


# The last 2-D walk of :func:`_probe_points`.  The walk reads the stream
# only through its verdicts, so a call that gives the same verdict at every
# position this one visited makes the same walk, and reuses it.  A call
# reads it once and replaces it whole, so callers on several threads can
# only displace one another's walk, which costs a fresh walk, never a
# wrong point.
_LAST_WALK: _Walk | None = None


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
    # np.linspace's own arithmetic, k * step + lo with the end set to hi.
    pts = np.arange(n_t, dtype=float) * ((hi - lo) / (n_t - 1)) + lo
    pts[-1] = hi
    keep = [e for e in extras if math.isfinite(e) and lo <= e <= hi]
    if keep:
        # The sorted distinct points, as np.unique gives them, which
        # would import numpy.ma: each that differs from the one before.
        pts = np.sort(np.concatenate((pts, keep)))
        pts = pts[np.concatenate(([True], pts[1:] != pts[:-1]))]
    return pts


def _frame_pass(s: Scenario, slots, t_axis: np.ndarray, probes):
    """The slots' share of an audit, priced in one pass: per slot, each
    grid duration's cheapest rate-feasible active power (inf off the grid)
    and the active power at each of its probe durations (``probes``, one
    array per slot, all of one length); and how many in-budget anchors
    miss a demand, over all slots.

    Each slot's closed form is bound once, and one call of it prices the
    anchors of every grid duration and the powers of the slot's probe
    durations.  An anchor that is not finite (NaN where the single-slot
    form raises) or over its budget leaves the grid; one within the PA
    draw's budget slack of it is clipped onto it.  Masks mark the grid,
    never compacted: one pass checks the capacities of every anchor from
    scratch, clipped onto its budget by ``np.fmin`` (NaN too, so none
    warns), and reads only the marked ones.  An anchor that misses a demand
    leaves the grid too, and is a miss unless it was clipped: a clip on the
    budget edge shows no wrong closed form.  Then one PA draw prices the
    frame, one row per node: every slot's grid anchors followed by its probe
    powers, with each slot's sum of
    :func:`~fdrelay.strategies.bind_actives`.  A grid duration that left
    the grid is drawn at 0 W and never read; the draw is elementwise, so
    those rows change no other.  A probe power outside its budget raises
    the draw's ``ValueError``.
    """
    n = t_axis.size
    # Every node's budget in slot order, read once, one row per node.
    caps = np.array([[getattr(s.pa, node).p_max]
                     for slot in slots for node in slot.nodes])
    loose = caps * (1.0 + _P_BUDGET_SLACK)
    all_rows = np.logical_and.reduce
    frame = np.zeros((caps.shape[0], n + len(probes[0])))
    priced, misses, first = [], 0, 0
    for slot, t_probe in zip(slots, probes):
        end = first + len(slot.nodes)
        cap = caps[first:end]
        # One row per power: the anchors, then the probe powers.
        powers = np.array(slot.bind(s)(np.concatenate((t_axis, t_probe))))
        anchors = powers[:, :n]
        met = all_rows(np.isfinite(anchors) & (anchors <= loose[first:end]))
        clipped = np.fmin(anchors, cap)
        for group in slot.rates(s, t_axis, *clipped):
            for _, capacity, demand in group:
                met = met & (capacity >= demand * (1.0 - _RATE_SLACK))
        misses += int(np.count_nonzero(~met & all_rows(anchors <= cap)))
        frame[first:end, :n] = np.where(met, clipped, 0.0)
        frame[first:end, n:] = powers[:, n:]
        priced.append(met)
        first = end
    actives = bind_actives(s, slots)(*frame)
    return ([np.where(met, active[:n], math.inf)
             for met, active in zip(priced, actives)], misses,
            [active[n:] for active in actives])


def grid_search(s: Scenario):
    """Exhaustive feasible minimum over a duration grid shared by every
    slot, 50 durations plus the window's edges, each duration priced at its
    closed-form powers.

    Returns (best_energy, best_point) with best_point a plain dict of the
    slot durations (t1, t2); best_energy is inf only where anchors that
    miss a demand left the grid empty.  Raises :class:`InfeasibleError`
    when the grid is empty otherwise.
    """
    energy, point, _, _ = _audit_pass(s, _GRID_N_T, 0)
    return energy, point


def _audit_pass(s: Scenario, n_t: int, n_samples: int):
    """The grid at ``n_t`` regular durations per slot and the convexity
    probe at ``n_samples`` samples (none for 0), over the scenario's own
    feasibility window (:func:`tmin_for`), in one :func:`_frame_pass`: one
    closed-form call per slot and one PA draw for the whole audit.

    Returns the grid best and its durations (:func:`grid_search`), the
    number of anchors that miss a demand over all slots, and the probe's
    count of negative second differences (:func:`convexity_probe` on the
    frame energy), 0 where the probe does not run: with no samples,
    outside a feasible window, or where the strategy's energy is only
    quasi-convex under TPA.  The probe values are the frame energy
    (:func:`~fdrelay.strategies.frame_energy`) of the slots' active powers
    at the probe durations.
    The probe's points reuse the last walk of its sampler wherever that
    walk's verdicts still hold (:func:`_probe_points`).
    """
    desc = DESCRIPTIONS[s.strategy]
    slots = desc.slots
    window = tmin_for(s)
    floor = t_floor(s)
    spans = window.spans(s.frame_t) if window.feasible else ()
    t_axis = _duration_axis(floor, s.frame_t - (len(slots) - 1) * floor,
                            n_t, tuple(x for span in spans for x in span))
    # Second differences are no probe of a quasi-convex energy.
    probed = (n_samples > 0 and window.feasible
              and (s.pa.a.kind is not PaKind.TPA or desc.convex_under_tpa))
    coords = np.empty((len(slots), 0))
    if probed:
        h, points = _probe_points(spans[0] if len(spans) == 1 else spans,
                                  n_samples, s.frame_t)
        coords = points.reshape(-1, points.shape[-1]).T
    bests, misses, actives = _frame_pass(s, slots, t_axis, coords)
    energy, point = _best_combination(s, t_axis, bests)
    if not (math.isfinite(energy) or misses):
        raise InfeasibleError("no feasible point on the oracle grid")
    violations = (_concave_count(h, coords, frame_energy(s, coords, actives))
                  if probed else 0)
    return energy, point, misses, violations


def _best_combination(s: Scenario, t_axis: np.ndarray, per_slot):
    """Cheapest frame over every tuple of slot durations that fits it.

    The frame energy at duration indices (i, j, ...) is the sum of each
    slot's best active power times its duration plus the idle draw of the
    rest, evaluated for all tuples at once: each further slot adds one axis
    to each term with one outer operation.  Returns the energy (inf where
    no tuple is feasible) and its durations.
    """
    energy, idle, busy = per_slot[0] * t_axis, s.frame_t - t_axis, t_axis
    for active in per_slot[1:]:
        energy = np.add.outer(energy, active * t_axis)
        idle = np.subtract.outer(idle, t_axis)
        busy = np.add.outer(busy, t_axis)
    idle *= s.p_idle_total
    energy += idle
    energy[busy > s.frame_t] = math.inf
    k = int(energy.argmin())
    return float(energy.flat[k]), {
        f"t{j + 1}": float(t_axis[i])
        for j, i in enumerate(np.unravel_index(k, energy.shape))}


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
    ``Generator.uniform(lo, hi)`` gives for the double ``u``, read from
    :func:`_seed0_doubles`.  A 2-D probe takes its doubles in order from
    one stream: two for each x and, unless ``sum_cap`` rejects x, a third
    for the direction's angle.  Which positions start a sample is the
    walk's (:func:`_walk`).  The last walk is kept and reused once every
    verdict it read is judged again, for this box, step and cap, to the
    same value; on any other verdict, or another sample count, the walk
    runs afresh.  A reversed domain raises ``ValueError``, and so does a
    ``sum_cap`` that rejects even the lowest x, before anything is drawn,
    or one that rejects more than ``_PROBE_MAX_REJECTS`` draws.
    """
    global _LAST_WALK
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
        return h, _layout(lo + (hi - lo) * _seed0_doubles(n_samples)[None],
                          h)
    (lo0, hi0), (lo1, hi1) = ranges
    if sum_cap is not None and lo0 + lo1 + 2.0 * h > sum_cap:
        raise ValueError(f"sum_cap {sum_cap} rejects every sample of "
                         f"{domain}: the lowest gives x + y + 2h = "
                         f"{lo0 + lo1 + 2.0 * h}")
    walk = _LAST_WALK
    if (walk is None or walk.n_samples != n_samples
            or _judge(ranges, h, sum_cap, *walk.judged).tobytes()
            != walk.verdicts):
        walk = _walk(ranges, h, sum_cap, n_samples, domain)
        _LAST_WALK = walk
    x = (np.array([[lo0], [lo1]])
         + np.array([[hi0 - lo0], [hi1 - lo1]]) * walk.drawn)
    return h, _layout(x, h * walk.direction)


def _layout(x: np.ndarray, e) -> np.ndarray:
    """Points (n_samples, 3, dim) x, x + e, x - e from rows x and e, one per
    coordinate, as a view whose reshape to those rows is a view too."""
    buf = np.empty(x.shape + (3,))
    buf[..., 0] = x
    np.add(x, e, out=buf[..., 1])
    np.subtract(x, e, out=buf[..., 2])
    return buf.transpose(1, 2, 0)


def _judge(ranges, h: float, sum_cap: float | None, u0, u1) -> np.ndarray:
    """The verdict on each 2-D candidate whose doubles are ``u0`` and
    ``u1``: whether, scaled onto the box ``ranges``, it meets
    x + y + 2h <= ``sum_cap`` (always, with no cap).  The one float
    expression that both a fresh walk and a re-judged one evaluate."""
    if sum_cap is None:
        return np.ones(u0.size, dtype=bool)
    (lo0, hi0), (lo1, hi1) = ranges
    x0, x1 = lo0 + (hi0 - lo0) * u0, lo1 + (hi1 - lo1) * u1
    return ~(x0 + x1 + 2.0 * h > sum_cap)


def _walk(ranges, h: float, sum_cap: float | None, n_samples: int,
          domain) -> _Walk:
    """The 2-D probe's walk from the start of the seed-0 stream: a kept
    candidate at position p starts a sample and the walk goes on at p + 3,
    past its angle's double; a rejected one goes on at p + 2.

    The candidate at position p is (u[p], u[p + 1]), so the verdicts are
    array passes (:func:`_judge`); only the walk that decides which
    positions start a candidate is a loop.  Raises ``ValueError`` once it
    rejects more than ``_PROBE_MAX_REJECTS`` draws."""
    u = np.empty(0)
    kept, verdicts, visited, starts, pos, rejects = [], [], [], [], 0, 0
    while len(starts) < n_samples:
        if pos + 3 > u.size:
            # The first block holds 3 * n_samples doubles; each refill
            # doubles it and judges only the positions it adds.
            u = _seed0_doubles(max(2 * u.size, 3 * n_samples))
            kept += _judge(ranges, h, sum_cap, u[len(kept):-1],
                          u[len(kept) + 1:]).tolist()
        verdict = kept[pos]
        visited.append(pos)
        verdicts.append(verdict)
        if verdict:
            starts.append(pos)
            pos += 3
            continue
        pos += 2
        rejects += 1
        if rejects > _PROBE_MAX_REJECTS:
            raise ValueError(
                f"sum_cap {sum_cap} rejected {rejects} draws of {domain} "
                f"and kept {len(starts)} of {n_samples} samples")
    at, visited = np.array(starts), np.array(visited)
    theta = (2.0 * math.pi * u[at + 2]).tolist()
    # math's cos and sin, which numpy's array forms may differ from.
    return _Walk(n_samples, (u[visited], u[visited + 1]),
                 np.array(verdicts).tobytes(), u[np.array((at, at + 1))],
                 np.array((list(map(math.cos, theta)),
                           list(map(math.sin, theta)))))


def convexity_probe(f, domain, n_samples: int = 200,
                    sum_cap: float | None = None) -> int:
    """Count negative central second differences of ``f`` over ``domain``.

    ``domain`` is (lo, hi) for a scalar function or a pair of such
    intervals for a two-variable one (probed along random directions).
    The step h is 2% of the domain's narrowest side, and the samples are
    drawn from seed 0, so a probe is the same on every call: from NumPy's
    PCG64 stream of ``default_rng(0)``, computed in pure Python
    (:func:`_seed0_doubles`).
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
    return _concave_count(h, coords, np.asarray(f(*coords), dtype=float))


def _concave_count(h: float, coords: np.ndarray, values: np.ndarray) -> int:
    """The probe's count at step ``h``: ``values`` holds the probed
    function at the points of ``coords`` (one row per coordinate), three
    per sample, x then x + h e and x - h e.  A value that is not finite
    raises ``ValueError`` naming its point."""
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

    The grid and the probe run in one pass (:func:`_audit_pass`), which
    binds each slot once and draws once, over the feasibility window of
    ``s`` itself, whatever scenario ``sched`` was solved for: a schedule
    of another scenario gets a report, or :class:`InfeasibleError` where
    ``s`` has no feasible grid point.  The probe reuses its sampler's last
    walk wherever that walk's re-judged verdicts hold
    (:func:`_probe_points`)."""
    grid_best, _, misses, violations = _audit_pass(
        s, _VERIFY_N_T, _VERIFY_PROBE_SAMPLES)
    slacks = verify_necessary_conditions(s, sched, tol=math.inf)
    gap = (sched.e_total - grid_best) / grid_best
    return OracleReport(grid_best_energy=grid_best,
                        solver_energy=sched.e_total,
                        relative_gap=float(gap),
                        active_constraints={k: float(v) for k, v in slacks.items()},
                        convexity_violations=violations,
                        anchor_misses=misses)


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
