"""Each strategy described once, slot by slot, and the closed forms behind it.

At the energy optimum the rate constraints are active, so the transmit
powers collapse to closed forms in the slot durations and the frame energy
splits into one cost per slot plus the idle draw.  ``DESCRIPTIONS`` maps each
strategy to its slots, and each :class:`Slot` states only the physics: the
closed-form powers of its transmitting nodes, its static and dynamic
circuit power under the scenario's accounting, and its rate constraints
grouped by the power that closes them.  :func:`bind_actives` adds the PA
draw of each node to the circuit power, and a frame is priced only
through it: ``Description.bind_frame`` binds it for a search, and
:func:`frame_energy` adds the idle draw to its actives at given powers.
The solver's slot costs, the feasibility window and the oracle's grid all
derive from it.

Each closed form is stated once, as a binder: ``Slot.bind(s)`` reads the
scenario's channel gains, demands, frame and bandwidth once and returns the
powers as a function of the duration alone.  ``Description.bind_frame``
binds every slot's closed form and circuit power, and one PA draw over the
amplifiers of every slot's nodes (:func:`~fdrelay.model.pa_draw`), so a
search that prices the frame many times does only arithmetic on bound
values, and prices the PA draw of every node of every slot in one numpy
pass.  Each scenario has amplifiers of one kind, so one curve serves the
whole frame.  Each bound closed form has one body that serves a float
duration, in pure ``math`` for the solver, and an array of durations, bit
for bit the same numbers, for the oracle.  The single-slot strategy is one slot
like any other: its closed form picks the larger of two relay-power cases,
and the description reports which case binds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter, truediv
from typing import Callable

import numpy as np

from .model import (
    CircuitAccounting,
    InfeasibleError,
    RelayCase,
    Scenario,
    Strategy,
    pa_draw,
)
# Unused here, but the benchmark's span tracer (bench/tracing.py) patches
# this name on this module, so it stays importable from it.
from .model import pa_consumption  # noqa: F401

__all__ = [
    "Slot",
    "Description",
    "DESCRIPTIONS",
    "peak_power",
]

# 2**x overflows double precision near x ~ 1024; anything past this is an
# unmeetable spectral load, reported as an infinite power demand.
_LOAD_LIMIT = 500.0
_LN2 = math.log(2.0)

# The secant root of the coupled slots (:func:`_coupled_root`) stops
# once a step moves the root by at most this fraction, or after this many
# steps.  A root is only a seed, so these set its cost, never a digit.
_ROOT_STEP_RTOL = 1e-7
_ROOT_MAX_STEPS = 8


def _bound_exps(s: Scenario, *rates: float) -> Callable:
    """``exps(t)`` giving ``(over, exps)``: where a spectral load of the
    ``rates`` overflows within duration ``t``, and 2**load of each rate.

    The load of ``rate`` within ``t`` is ``rate * frame / (bandwidth * t)``
    bit/s/Hz, with ``rate * frame`` read once, here; zero traffic is zero
    load, also in a closed (zero-length) slot.  A float ``t`` gives a bool
    and Python floats, through which a closed form computes (float
    arithmetic never raises on inf or NaN) before :func:`_inf_where`
    replaces its result; a load past ``_LOAD_LIMIT``, or NaN, gives +inf.
    An array gives a mask and arrays with NaN, put in place, at overflows,
    which never warns where inf would meet inf - inf.  Each rate's
    exponentials are one ``np.float_power(2.0, loads)``, whose float64
    loop calls the C ``pow`` once per element, the same ``pow`` as the
    float's ``2.0 ** x``; ``np.power`` and ``np.exp2`` go through vector
    kernels that are one ULP off it on some exponents.
    """
    w = s.bandwidth_w
    bits = [(rate, rate * s.frame_t) for rate in rates]

    def exps(t):
        if isinstance(t, float):
            # A plain loop is the cheapest on the solver's path; an
            # overflow gives +inf, never NaN, so one membership test finds
            # it.
            out = []
            for rate, b in bits:
                x = b / (w * t) if rate else 0.0 * t
                out.append(2.0 ** x if x <= _LOAD_LIMIT else math.inf)
            return math.inf in out, out
        loads = [b / (w * t) if rate else 0.0 * t for rate, b in bits]
        # Where the float gives inf (NaN, or past the limit); those loads go
        # in as NaN, which pow returns as it is, with no overflow warning.
        over = ~np.logical_and.reduce([x <= _LOAD_LIMIT for x in loads])
        for load in loads:
            np.copyto(load, math.nan, where=over)
        return over, [np.float_power(2.0, load) for load in loads]

    return exps


def _budget_x(cap: float, lin: float, quad: float = 0.0) -> float:
    """The largest x >= 0 at which a power lin*x + quad*x**2 is within
    ``cap``: the positive root, as 2*cap / (lin + sqrt(lin**2 +
    4*quad*cap)), which does not cancel when quad is small; +inf where that
    denominator is 0.  Never raises, so a root is never an error."""
    den = lin + math.sqrt(lin * lin + 4.0 * quad * cap)
    return 2.0 * cap / den if den > 0 else math.inf


def _duration_at(s: Scenario, rate: float, x: float) -> float:
    """The duration within which ``rate`` gives 2**load - 1 = ``x``,
    inverting :func:`_bound_exps`'s load: rate*frame*ln2 /
    (bandwidth*log1p(x)), computed with log1p; +inf where that denominator
    is 0.  An x past 2**_LOAD_LIMIT - 1 counts as that bound, since a
    shorter duration's load reads +inf powers."""
    den = s.bandwidth_w * math.log1p(min(x, 2.0 ** _LOAD_LIMIT - 1.0))
    return rate * s.frame_t * _LN2 / den if den > 0 else math.inf


def _inf_where(over, powers: tuple) -> tuple:
    """The powers with +inf wherever :func:`_bound_exps` found an
    overflow; arrays, each the caller's own, take it in place."""
    if isinstance(over, bool):
        return (math.inf,) * len(powers) if over else powers
    for p in powers:
        np.copyto(p, math.inf, where=over)
    return powers


@dataclass(frozen=True)
class Slot:
    """One slot of a strategy.

    ``fields`` names the :class:`~fdrelay.model.Schedule` field of each
    transmit power and ``nodes`` the node that emits it, both in the order
    the closed form returns them.  ``bind(s)`` is the closed form bound to
    a scenario: it reads the scenario's constants once and returns
    ``powers(t)``, which takes a float duration and returns Python floats
    computed with ``math`` alone (the solver's path), or a 1-D ndarray of
    durations and returns one array per power, equal to the float calls
    element for element and bit for bit (the oracle's path).  A spectral
    load past ``_LOAD_LIMIT`` gives +inf powers; where the single-slot form
    raises :class:`~fdrelay.model.InfeasibleError` for a float, the array
    holds NaN.  ``circuit(s)`` is the slot's ``(static, dynamic)`` circuit
    power under the scenario's accounting; the PA draw is not part of it.
    ``rates(s, t, *powers)`` accepts ndarray powers and returns one group
    per power, in ``fields`` order: the ``(name, capacity, demand)``
    triples of the rate constraints that power closes, one of which is
    tight at the closed-form powers.  ``demand(s)`` is the traffic the slot
    carries; a slot with none stays closed.  ``root(s, powers)`` is the
    shortest duration at which every power is within its ``p_max``, given
    ``powers``, the closed form bound to ``s``; it never raises.  Each
    power rises with the load, so the budgets bound it, and so does the
    load limit, past which the powers read +inf.  Where the closed form
    inverts (each fd2ts slot, hd2ts's broadcast) the root is in closed
    form and ignores ``powers``; fd1ts and hd2ts's access slot, whose
    powers close together, take a few secant steps on ``powers`` from a
    bound below (:func:`_coupled_root`).  A root is only a seed: the
    feasibility window checks it against the powers and bisects from it
    (:mod:`~fdrelay.feasibility`), so a root that is off, NaN or infinite
    costs probes, never a digit.
    """

    fields: tuple[str, ...]
    nodes: tuple[str, ...]
    demand: Callable[[Scenario], float]
    bind: Callable[[Scenario], Callable[..., tuple]]
    circuit: Callable[[Scenario], tuple[float, float]]
    rates: Callable[..., tuple]
    root: Callable[[Scenario, Callable], float]

    def budgets(self, s: Scenario) -> tuple[tuple[str, float], ...]:
        """(node, p_max) of each transmit power."""
        return tuple((node, getattr(s.pa, node).p_max) for node in self.nodes)


def _no_case(s: Scenario, *durations: float) -> None:
    return None


@dataclass(frozen=True)
class Description:
    """A strategy as its slots; each slot's ``rates`` groups its rate
    constraints by the power that closes them.

    ``convex_under_tpa`` is False where the closed-form energy is only
    quasi-convex under TPA, so second differences do not probe it.
    ``reads_self_interference`` is False where no slot reads the residual
    self-interference gains (``gs_a``, ``gs_b``, ``gs_r``), so the
    cancellation settings leave the problem unchanged; a sweep solves such
    a strategy once per distinct problem (:func:`~fdrelay.sweep.run_sweep`).
    ``active_case(s, *durations)`` names the relay case that binds at the
    closed-form powers, for the strategy that has one.
    """

    slots: tuple[Slot, ...]
    convex_under_tpa: bool = True
    reads_self_interference: bool = True
    active_case: Callable[..., RelayCase | None] = _no_case

    def bind_frame(self, s: Scenario) -> Callable[..., tuple]:
        """The frame priced at one duration per slot, bound to ``s``:
        ``price(*durations)`` gives ``(powers, actives, costs)``, each
        slot's closed-form powers, its active power and its cost, the
        energy above the idle draw it spends over its duration.

        Each slot's closed form and the idle draw are read here, once, and
        the slots' active powers are bound once (:func:`bind_actives`), so
        a search that prices the frame many times does only arithmetic on
        bound values and one numpy pass per frame point.
        ``(active - idle) * t`` is a slot's cost.  A slot that is closed,
        or whose duration is already fixed, is priced at that duration in
        the same pass.  A power outside its budget raises the ValueError
        that pricing the slots one after another would raise first: it
        names the ``p_max`` of the first such node in slot order.
        """
        binds = [slot.bind(s) for slot in self.slots]
        frame_actives = bind_actives(s, self.slots)
        idle = s.p_idle_total

        def price(*durations):
            powers, flat = [], []
            for bind, t in zip(binds, durations):
                slot_powers = bind(t)
                powers.append(slot_powers)
                flat += slot_powers
            actives = frame_actives(*flat)
            # A loop, not a comprehension, which costs a frame per price.
            costs = []
            for active, t in zip(actives, durations):
                costs.append((active - idle) * t)
            return powers, actives, costs

        return price


def bind_actives(s: Scenario, slots) -> Callable[..., list]:
    """The active power of each of ``slots``, bound to ``s``:
    ``actives(*powers)`` takes one transmit power per node of every slot,
    in slot order, and returns one active power per slot.

    One PA draw is bound here to the amplifiers of every slot's nodes, in
    slot order (the relay of fd2ts twice; :func:`~fdrelay.model.pa_draw`),
    and each slot's circuit power is read once.  Each call makes that one
    draw, adds each slot's draws left to right, then its static and its
    dynamic circuit power: the one statement of that sum, which
    :meth:`Description.bind_frame` and the oracle's audit share.  Float
    powers give Python floats, and ndarray powers of one shape arrays of
    that shape.  A power outside its budget raises the draw's ValueError,
    naming the ``p_max`` of the first such node in slot order."""
    draw = pa_draw(*[getattr(s.pa, node)
                     for slot in slots for node in slot.nodes])
    # Per slot: the index of its first node's draw, the indices of the
    # rest, and its static and dynamic circuit power.
    layout, first = [], 0
    for slot in slots:
        end = first + len(slot.nodes)
        layout.append((first, range(first + 1, end), *slot.circuit(s)))
        first = end

    def actives(*powers):
        draws = draw(*powers)
        out = []
        for first, rest, static, dynamic in layout:
            total = draws[first]
            for k in rest:
                total = total + draws[k]
            out.append(total + static + dynamic)
        return out

    return actives


def frame_energy(s: Scenario, durations, actives):
    """Frame energy from each slot's active power (``actives``) over its
    duration, plus the idle draw over the rest of the frame, for actives
    that :func:`bind_actives` gives.  Float durations and actives give a
    Python float, and ndarrays of one shape an ndarray of that shape."""
    energy, idle = 0.0, s.frame_t
    for active, t in zip(actives, durations):
        energy += active * t
        idle -= t
    return energy + s.p_idle_total * idle


def peak_power(s: Scenario, top: dict[str, float]) -> float:
    """The most power a slot of any strategy can draw in ``s``: the PA
    draws of the slot's nodes, every amplifier at its ``p_max``, summed in
    slot order, plus the slot's static and dynamic circuit power.  ``top``
    maps each node to its amplifier's draw at ``p_max``, as
    :func:`~fdrelay.model.pa_draw_range` gives it, which a build has from
    its range check of each amplifier.  In float arithmetic, so that a
    build can check it cheaply; every strategy counts, since a sweep hands
    one built scenario to each."""
    peak = 0.0
    for nodes, circuit in _EVERY_SLOT:
        draw = 0.0
        for node in nodes:
            draw += top[node]
        static, dynamic = circuit(s)
        total = draw + static + dynamic
        if total > peak:  # max(peak, total), without the call
            peak = total
    return peak


def _total_demand(s: Scenario) -> float:
    return s.r_fl + s.r_rl


# ---------------------------------------------------------------------------
# FD two-slot strategy: only the relay is full duplex; a->r->b in slot 1 and
# b->r->a in slot 2, the relay forwarding while it receives.
# ---------------------------------------------------------------------------

def _fd2ts_slot(src: str, dst: str, rate: str, relay_field: str) -> Slot:
    """The FD2TS slot carrying demand ``rate`` over src -> r -> dst.

    Its minimum powers meet the demand with equality in both links.
    Inverting the direct relay->dst link gives the relay power, then the
    source power from the self-interference-loaded src->relay link; each is
    strictly decreasing in the slot duration.  The slot runs the source's
    transmitter, the relay's transmitter and receiver, and dst's receiver,
    all at the slot's rate: four epsilon*rate terms under either accounting
    mode.
    """
    demand = attrgetter(rate)
    # (src->relay gain, relay->dst gain, dst noise) of s.channels
    links = attrgetter(f"g_{src}r", f"g_r{dst}", f"sigma2_{dst}")

    def coefficients(s: Scenario) -> tuple[float, float, float]:
        """(src_lin, src_quad, relay_lin): the powers are
        src_lin*x + src_quad*x**2 and relay_lin*x in x = 2**load - 1."""
        ch = s.channels
        g_up, g_down, sigma2 = links(ch)
        return (ch.sigma2_r / g_up, sigma2 * ch.gs_r / (g_up * g_down),
                sigma2 / g_down)

    def bind(s: Scenario):
        exps = _bound_exps(s, demand(s))
        src_lin, src_quad, relay_lin = coefficients(s)

        def powers(t):
            over, (e,) = exps(t)
            x = e - 1.0
            return _inf_where(over, (src_lin * x + src_quad * x * x,
                                     relay_lin * x))

        return powers

    def circuit(s: Scenario):
        c = s.circuit
        return (c.a.p_base + 2.0 * c.r.p_base + c.b.p_base,
                (c.a.epsilon + 2.0 * c.r.epsilon + c.b.epsilon) * demand(s))

    def rates(s: Scenario, t: float, p_src, p_r):
        # The relay's own forwarding signal leaks into its receiver, so its
        # receive SINR carries the residual self-interference term.
        ch = s.channels
        g_up, g_down, sigma2 = links(ch)
        w = t / s.frame_t * s.bandwidth_w
        c_up = w * np.log2(1.0 + p_src * g_up / (p_r * ch.gs_r + ch.sigma2_r))
        c_down = w * np.log2(1.0 + p_r * g_down / sigma2)
        return (((f"c_{src}r", c_up, demand(s)),),
                ((f"c_r{dst}", c_down, demand(s)),))

    def root(s: Scenario, _powers: Callable) -> float:
        # The shortest duration is where x reaches the smaller of the two
        # nodes' largest x within budget.
        src_lin, src_quad, relay_lin = coefficients(s)
        x = min(_budget_x(getattr(s.pa, src).p_max, src_lin, src_quad),
                _budget_x(s.pa.r.p_max, relay_lin))
        return _duration_at(s, demand(s), x)

    return Slot(fields=(f"p_{src}", relay_field), nodes=(src, "r"),
                demand=demand, bind=bind, circuit=circuit, rates=rates,
                root=root)


_FD2TS_SLOTS = (_fd2ts_slot("a", "b", "r_fl", "p_r_fwd"),
                _fd2ts_slot("b", "a", "r_rl", "p_r_rev"))


# ---------------------------------------------------------------------------
# FD single-slot strategy: all three nodes full duplex; the relay broadcasts
# a structured combination both end nodes can strip their own data from.
# ---------------------------------------------------------------------------

def _binned_uplinks(s: Scenario, w, p_a, p_b, noise):
    """(C_ar, C_br) in bit/s over bandwidth ``w`` in the structured-binning
    multiple-access form, with ``noise`` the relay's interference plus
    noise.  Accepts ndarray powers.  The link of an end node that does not
    send carries 0 bit/s, with no warning, also where neither sends; every
    other value is the plain form's, bit for bit."""
    ch = s.channels
    sa = p_a * ch.g_ar
    sb = p_b * ch.g_br
    total = sa + sb
    # Each mask adds 1 where its term is 0, else an exact 0: the sum takes
    # no 0/0, and a silent node's log takes log2(0 + 1) = 0, not log2(0).
    total += total == 0.0
    return (w * np.log2(sa / total + sa / noise + (sa == 0.0)),
            w * np.log2(sb / total + sb / noise + (sb == 0.0)))


def _bound_relay_cases(s: Scenario) -> Callable:
    """``relay(t1)``: whether relay-power case I binds at ``t1``, and the
    powers (p_a, p_b, p_r) of the binding case, with the scenario's
    constants read once.

    Closing both uplink equalities expresses p_a and p_b as multiples of
    the relay's received interference-plus-noise level; closing one of the
    two broadcast equalities then pins p_r through a scalar linear solve.
    The binding case needs the larger relay power, case I on a tie, which
    also inflates both end-node powers; they are a function of p_r alone,
    so they are computed once, from the winner.  In asymptotic mode the
    shared factor (2^lfl + 2^lrl - 1)/(2^lfl + 2^lrl) is dropped and
    2^l - 1 becomes 2^l, matching the high-load forms.

    A 1-D array of durations gives a mask and arrays in every power, NaN
    wherever the float form of either case raises
    :class:`InfeasibleError`.
    """
    ch = s.channels
    exps = _bound_exps(s, s.r_fl, s.r_rl)
    asymptotic = s.asymptotic_1ts
    gs_r, sigma2_r, g_ar, g_br = ch.gs_r, ch.sigma2_r, ch.g_ar, ch.g_br

    def bound_relay_power(gs_self: float, g_up: float, g_down: float,
                          sigma2_self: float, side: str) -> Callable:
        """p_r(down, up, factor) closing the broadcast link to ``side``."""
        up_noise = g_up * sigma2_self
        link = g_down * g_up

        def relay_power(down, up, factor, arrays: bool):
            num = down * (factor * up * gs_self * sigma2_r + up_noise)
            den = link - down * factor * up * gs_self * gs_r
            if arrays:  # NaN where the float form raises
                return num / np.where(den > 0, den, math.nan)
            if den <= 0:
                raise InfeasibleError(
                    f"self-cancellation too weak to close the {side} "
                    f"broadcast link at this spectral load",
                    binding_node=side, cause="cancellation")
            return num / den

        return relay_power

    # Case I: reverse-link broadcast (r -> a) holds with equality.
    power_rl = bound_relay_power(ch.gs_a, g_ar, ch.g_ra, ch.sigma2_a, "a")
    # Case II: forward-link broadcast (r -> b) holds with equality.
    power_fl = bound_relay_power(ch.gs_b, g_br, ch.g_rb, ch.sigma2_b, "b")

    def relay(t1):
        arrays = not isinstance(t1, float)
        over, (e_fl, e_rl) = exps(t1)
        if not arrays and over:  # an array carries NaN instead
            raise InfeasibleError("spectral load overflows any finite power",
                                  cause="power_budget")
        total = e_fl + e_rl
        if asymptotic:
            factor = 1.0
            down_a = e_rl  # reverse-link broadcast multiplier
            down_b = e_fl  # forward-link broadcast multiplier
        else:
            factor = (total - 1.0) / total
            down_a = e_rl - 1.0
            down_b = e_fl - 1.0
        p_r_rl = power_rl(down_a, e_fl, factor, arrays)
        p_r_fl = power_fl(down_b, e_rl, factor, arrays)
        first = p_r_rl >= p_r_fl
        if arrays:  # the larger case, NaN where either is
            p_r = np.maximum(p_r_rl, p_r_fl)
        else:
            p_r = p_r_rl if first else p_r_fl
        d = p_r * gs_r + sigma2_r
        return first, (factor * e_fl * d / g_ar, factor * e_rl * d / g_br, p_r)

    return relay


def _circuit_1ts(s: Scenario):
    """All six chains (three tx, three rx) are live for the whole slot, so
    the static circuit cost is twice the per-node sum.  The printed
    accounting charges dynamic circuit power as eps*(r_fl + 2*r_rl);
    first-principles accounting charges every chain at its actual rate, with
    the relay forwarding at max(r_fl, r_rl)."""
    c = s.circuit
    if s.circuit_accounting is CircuitAccounting.PRINTED:
        dynamic = c.a.epsilon * (s.r_fl + 2.0 * s.r_rl)
    else:
        both = s.r_fl + s.r_rl
        dynamic = (c.a.epsilon * both + c.b.epsilon * both
                   + c.r.epsilon * (both + max(s.r_fl, s.r_rl)))
    return 2.0 * s.p_base_total, dynamic


def _bind_1ts(s: Scenario):
    """(p_a, p_b, p_r) of the binding relay case as a function of the
    duration (:func:`_bound_relay_cases`); a 1-D array of durations gives
    arrays, NaN wherever either relay case raises."""
    relay = _bound_relay_cases(s)

    def powers(t):
        return relay(t)[1]

    return powers


def _active_case_1ts(s: Scenario, t1: float) -> RelayCase:
    """The relay case that binds at ``t1``: case I where its relay power is
    the larger, ties included (:func:`_bound_relay_cases`)."""
    return (RelayCase.CASE_I if _bound_relay_cases(s)(t1)[0]
            else RelayCase.CASE_II)


def _root_1ts(s: Scenario, powers: Callable) -> float:
    """The shortest duration at which p_a, p_b and p_r are all within their
    budgets, from ``powers``, the slot's bound closed form.

    Self-interference only adds to each power, so each is never below its
    value without it, which is hd2ts's closed form at the same loads: the
    access slot's for p_a and p_b, the broadcast's for p_r, in either mode.
    So the latest of their budget crossings bounds the root from below: the
    broadcast's exactly (:func:`_root_hd_broadcast`), and each access
    power's through the least it can be (:func:`_access_floors`).  The
    secant steps (:func:`_coupled_root`) go on from there."""
    return _coupled_root(s, powers, (s.pa.a.p_max, s.pa.b.p_max, s.pa.r.p_max),
                         max(_access_floors(s), _root_hd_broadcast(s)))


def _coupled_root(s: Scenario, powers: Callable, caps: tuple, t: float
                  ) -> float:
    """The shortest duration at which every one of ``powers``, a closed form
    bound to ``s`` whose powers carry both demands, is within its ``caps``,
    found from ``t``, a bound at or below it.

    Secant steps in u = 1/t on g, the log of the largest power-to-budget
    ratio, which rises in u, close to linearly at high load: the first
    step takes the larger load's slope, load*ln2 per unit of u.  Gives NaN,
    or ``t``, where the steps cannot go on; never raises."""
    if not 0.0 < t < s.frame_t:
        return t

    def log_ratio(u: float) -> float:
        # Powers that raise read +inf, as does a t so far below the floor
        # that bandwidth times t underflows to 0 and the load divides by 0.
        try:
            at_u = powers(1.0 / u)
        except (InfeasibleError, ZeroDivisionError):
            return math.inf
        ratio = max(map(truediv, at_u, caps))
        return math.log(ratio) if ratio > 0 else -math.inf

    u = 1.0 / t
    g = log_ratio(u)
    slope = max(s.r_fl, s.r_rl) * s.frame_t / s.bandwidth_w * _LN2
    if not (0.0 < g < math.inf and slope > 0.0):
        return t  # within budget at the bound already, or no finite power
    u_next = u - g / slope
    for _ in range(_ROOT_MAX_STEPS):
        if not u_next > 0.0:
            break
        g_next = log_ratio(u_next)
        if not (math.isfinite(g_next) and g_next != g):
            break
        u, g, u_next = (u_next, g_next,
                        u_next - g_next * (u_next - u) / (g_next - g))
        if abs(u_next - u) <= _ROOT_STEP_RTOL * u_next:
            break
    return 1.0 / u_next if u_next > 0.0 else math.nan


def _rates_1ts(s: Scenario, t: float, p_a, p_b, p_r):
    """The two uplinks take the structured-binning multiple-access form
    (own share of the received sum plus own SINR inside the log); the
    downlinks are plain SINR links with each end node's residual
    self-interference added to its noise.  One relay power serves both
    broadcast links."""
    ch = s.channels
    w = t / s.frame_t * s.bandwidth_w
    c_ar, c_br = _binned_uplinks(s, w, p_a, p_b, p_r * ch.gs_r + ch.sigma2_r)
    c_ra = w * np.log2(1.0 + p_r * ch.g_ra / (p_a * ch.gs_a + ch.sigma2_a))
    c_rb = w * np.log2(1.0 + p_r * ch.g_rb / (p_b * ch.gs_b + ch.sigma2_b))
    return ((("c_ar", c_ar, s.r_fl),), (("c_br", c_br, s.r_rl),),
            (("c_ra", c_ra, s.r_rl), ("c_rb", c_rb, s.r_fl)))


# ---------------------------------------------------------------------------
# HD baseline: both end nodes transmit to the relay in slot 1 (multiple
# access with structured binning); the relay broadcasts in slot 2.
# ---------------------------------------------------------------------------

def _bind_hd_access(s: Scenario):
    """(p_a, p_b) closing both multiple-access equalities of slot 1."""
    exps = _bound_exps(s, s.r_fl, s.r_rl)
    ch = s.channels
    sigma2_r, g_ar, g_br = ch.sigma2_r, ch.g_ar, ch.g_br

    def powers(t):
        over, (l1, l2) = exps(t)
        return _inf_where(over, ((l1 - l1 / (l1 + l2)) * sigma2_r / g_ar,
                                 (l2 - l2 / (l1 + l2)) * sigma2_r / g_br))

    return powers


def _bind_hd_broadcast(s: Scenario):
    """(p_r,) of slot 2: the weaker broadcast link sets the relay power."""
    exps = _bound_exps(s, s.r_fl, s.r_rl)
    ch = s.channels
    sigma2_b, g_rb, sigma2_a, g_ra = ch.sigma2_b, ch.g_rb, ch.sigma2_a, ch.g_ra

    def powers(t):
        over, (l3, l4) = exps(t)
        fwd = (l3 - 1.0) * sigma2_b / g_rb
        rev = (l4 - 1.0) * sigma2_a / g_ra
        # max keeps a float duration's power a Python float
        p_r = max(fwd, rev) if isinstance(t, float) else np.maximum(fwd, rev)
        return _inf_where(over, (p_r,))

    return powers


def _root_hd_broadcast(s: Scenario) -> float:
    """The shortest broadcast at which p_r is within its budget: the longer
    of the two links' durations at p_r = p_max."""
    ch, cap = s.channels, s.pa.r.p_max
    return max(_duration_at(s, s.r_fl, _budget_x(cap, ch.sigma2_b / ch.g_rb)),
               _duration_at(s, s.r_rl, _budget_x(cap, ch.sigma2_a / ch.g_ra)))


def _access_floors(s: Scenario) -> float:
    """A bound below the shortest duration at which p_a and p_b are both
    within their budgets, in either coupled slot; +inf where no duration
    is.

    With l = 2**load of a node's own demand and l' of the other's, its
    access power is (sigma2_r/g)*l*(l + l' - 1)/(l + l'), never below
    (sigma2_r/g)*l*l/(l + 1), since l' >= 1, and fd1ts's self-interference
    only adds to it.  So with k = p_max*g/sigma2_r, the positive root of
    l*l = k*(l + 1) bounds l at the node's budget crossing from above, and
    the duration at which l reaches it bounds that crossing from below."""
    ch = s.channels
    t = 0.0
    for own, p_max, g in ((s.r_fl, s.pa.a.p_max, ch.g_ar),
                          (s.r_rl, s.pa.b.p_max, ch.g_br)):
        k = p_max * g / ch.sigma2_r
        if not k > 0.5:
            return math.inf  # the power is at least sigma2_r/(2g)
        t = max(t, _duration_at(s, own, 0.5 * (k + math.sqrt(k * (k + 4.0)))
                                - 1.0))
    return t


def _root_hd_access(s: Scenario, powers: Callable) -> float:
    """The shortest access slot at which p_a and p_b are within their
    budgets, from ``powers``, the slot's bound closed form: secant steps
    (:func:`_coupled_root`) from the later of the access floors
    (:func:`_access_floors`) and the load limit, short of which the powers
    read +inf."""
    return _coupled_root(s, powers, (s.pa.a.p_max, s.pa.b.p_max),
                         max(_access_floors(s),
                             _duration_at(s, max(s.r_fl, s.r_rl), math.inf)))


# Printed accounting charges dynamic circuit power eps*(r_fl + r_rl) in
# slot 1 and eps*max(r_fl, r_rl) in slot 2; first-principles accounting
# additionally charges the relay's slot-1 reception and the end nodes'
# slot-2 reception.  Each slot runs one chain per node.

def _circuit_hd_access(s: Scenario):
    c = s.circuit
    if s.circuit_accounting is CircuitAccounting.PRINTED:
        dyn = c.a.epsilon * (s.r_fl + s.r_rl)
    else:
        dyn = (c.a.epsilon * s.r_fl + c.b.epsilon * s.r_rl
               + c.r.epsilon * (s.r_fl + s.r_rl))
    return s.p_base_total, dyn


def _circuit_hd_broadcast(s: Scenario):
    c = s.circuit
    if s.circuit_accounting is CircuitAccounting.PRINTED:
        dyn = c.a.epsilon * max(s.r_fl, s.r_rl)
    else:
        dyn = (c.r.epsilon * max(s.r_fl, s.r_rl)
               + c.a.epsilon * s.r_rl + c.b.epsilon * s.r_fl)
    return s.p_base_total, dyn


def _rates_hd_access(s: Scenario, t: float, p_a, p_b):
    c_ar, c_br = _binned_uplinks(s, t / s.frame_t * s.bandwidth_w, p_a, p_b,
                                 s.channels.sigma2_r)
    return (("c_ar", c_ar, s.r_fl),), (("c_br", c_br, s.r_rl),)


def _rates_hd_broadcast(s: Scenario, t: float, p_r):
    ch = s.channels
    w = t / s.frame_t * s.bandwidth_w
    c_ra = w * np.log2(1.0 + p_r * ch.g_ra / ch.sigma2_a)
    c_rb = w * np.log2(1.0 + p_r * ch.g_rb / ch.sigma2_b)
    return ((("c_ra", c_ra, s.r_rl), ("c_rb", c_rb, s.r_fl)),)


_HD2TS_SLOTS = (
    Slot(fields=("p_a", "p_b"), nodes=("a", "b"), demand=_total_demand,
         bind=_bind_hd_access, circuit=_circuit_hd_access,
         rates=_rates_hd_access, root=_root_hd_access),
    Slot(fields=("p_r_fwd",), nodes=("r",), demand=_total_demand,
         bind=_bind_hd_broadcast, circuit=_circuit_hd_broadcast,
         rates=_rates_hd_broadcast,
         root=lambda s, _powers: _root_hd_broadcast(s)),
)


DESCRIPTIONS: dict[Strategy, Description] = {
    Strategy.FD1TS: Description(
        slots=(Slot(fields=("p_a", "p_b", "p_r_fwd"), nodes=("a", "b", "r"),
                    demand=_total_demand, bind=_bind_1ts,
                    circuit=_circuit_1ts, rates=_rates_1ts, root=_root_1ts),),
        active_case=_active_case_1ts),
    Strategy.FD2TS: Description(slots=_FD2TS_SLOTS),
    Strategy.HD2TS: Description(slots=_HD2TS_SLOTS, convex_under_tpa=False,
                                reads_self_interference=False),
}

# (nodes, circuit) of every slot of every strategy, for :func:`peak_power`.
_EVERY_SLOT = tuple((slot.nodes, slot.circuit)
                    for desc in DESCRIPTIONS.values() for slot in desc.slots)


# ---------------------------------------------------------------------------
# Per-strategy entry points.  Nothing in the package calls them: they stay
# only because the benchmark's span tracer (bench/tracing.py) patches them by
# name.  Each delegates to ``DESCRIPTIONS`` and takes and returns plain
# powers, slot after slot, each slot's in its ``fields`` order; the
# capacities come in the order of each slot's ``rates``.
# ---------------------------------------------------------------------------

def _powers(strategy: Strategy, s: Scenario, *durations: float) -> tuple:
    return sum((slot.bind(s)(t) for slot, t
                in zip(DESCRIPTIONS[strategy].slots, durations)), ())


def _energy(strategy: Strategy, s: Scenario, durations, powers) -> float:
    return frame_energy(s, durations, bind_actives(
        s, DESCRIPTIONS[strategy].slots)(*powers))


def _caps(strategy: Strategy, s: Scenario, durations, powers) -> tuple:
    return tuple(c for slot, t, p in zip(DESCRIPTIONS[strategy].slots,
                                         durations, powers)
                 for group in slot.rates(s, t, *p) for _, c, _ in group)


def powers_1ts(s: Scenario, t1: float) -> tuple:
    return _powers(Strategy.FD1TS, s, t1)


def powers_2ts(s: Scenario, t1: float, t2: float) -> tuple:
    return _powers(Strategy.FD2TS, s, t1, t2)


def powers_hd(s: Scenario, t1: float, t2: float) -> tuple:
    return _powers(Strategy.HD2TS, s, t1, t2)


def energy_1ts(s: Scenario, t1: float) -> float:
    return _energy(Strategy.FD1TS, s, (t1,), _powers(Strategy.FD1TS, s, t1))


def energy_2ts(s: Scenario, t1: float, t2: float) -> float:
    return _energy(Strategy.FD2TS, s, (t1, t2),
                   _powers(Strategy.FD2TS, s, t1, t2))


def energy_hd(s: Scenario, t1: float, t2: float) -> float:
    return _energy(Strategy.HD2TS, s, (t1, t2),
                   _powers(Strategy.HD2TS, s, t1, t2))


def energy_1ts_at(s: Scenario, t1: float, p_a, p_b, p_r) -> float:
    return _energy(Strategy.FD1TS, s, (t1,), (p_a, p_b, p_r))


def energy_2ts_at(s: Scenario, t1: float, t2: float, p_a, p_r_fwd, p_b,
                  p_r_rev) -> float:
    return _energy(Strategy.FD2TS, s, (t1, t2), (p_a, p_r_fwd, p_b, p_r_rev))


def energy_hd_at(s: Scenario, t1: float, t2: float, p_a, p_b, p_r) -> float:
    return _energy(Strategy.HD2TS, s, (t1, t2), (p_a, p_b, p_r))


def caps_1ts(s: Scenario, t1: float, p_a, p_b, p_r) -> tuple:
    return _caps(Strategy.FD1TS, s, (t1,), ((p_a, p_b, p_r),))


def caps_2ts(s: Scenario, t1: float, t2: float, p_a, p_r_fwd, p_b,
             p_r_rev) -> tuple:
    return _caps(Strategy.FD2TS, s, (t1, t2), ((p_a, p_r_fwd), (p_b, p_r_rev)))


def caps_hd(s: Scenario, t1: float, t2: float, p_a, p_b, p_r) -> tuple:
    return _caps(Strategy.HD2TS, s, (t1, t2), ((p_a, p_b), (p_r,)))
