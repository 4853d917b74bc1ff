"""Every slot's closed-form powers over a duration array against the float
calls they replace, and every slot's active power and the HD capacities
against the hand-written forms they replace.

A slot's bound closed form, ``Slot.bind(s)``, takes a float duration (the
solver's path, Python floats from ``math`` alone) or a 1-D array of
durations (the oracle's path).  The
array results must equal the float calls element for element, bit for bit:
+inf where a spectral load overflows, and NaN wherever the float form of the
single-slot strategy raises :class:`InfeasibleError`.  Each slot's active
power (``bind_actives``) and the HD capacities (``Slot.rates``) must equal
the forms below by ``repr`` for floats and by bytes for arrays.
"""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from fdrelay.config import ScenarioParams
from fdrelay.feasibility import t_floor
from fdrelay.model import (CircuitAccounting, InfeasibleError, PaKind,
                           Strategy, pa_consumption)
from fdrelay.oracle import random_params
from fdrelay.strategies import DESCRIPTIONS, _bound_exps

from conftest import capacities, slot_active

CASES = [(strategy, pa, accounting) for strategy in Strategy for pa in PaKind
         for accounting in CircuitAccounting]


def _durations(s, rng, n_grid=41, n_draws=40):
    """Floor to the full frame: the first durations overflow the load."""
    floor = t_floor(s)
    return np.concatenate([np.linspace(floor, s.frame_t, n_grid),
                           rng.uniform(floor, s.frame_t, n_draws)])


def _assert_parity(s, slot, t):
    """Array powers equal the float calls; returns how each point went."""
    got = slot.bind(s)(t)
    assert len(got) == len(slot.fields)
    for p in got:
        assert isinstance(p, np.ndarray)
        assert p.dtype == np.float64 and p.shape == t.shape
    kinds = set()
    for i, ti in enumerate(t.tolist()):
        row = np.array([p[i] for p in got])
        try:
            want = slot.bind(s)(ti)
        except InfeasibleError as err:
            kinds.add(f"raises:{err.cause}")
            assert np.isnan(row).all(), (ti, row)
            continue
        assert all(type(v) is float for v in want)
        assert row.tobytes() == np.array(want).tobytes(), (ti, row, want)
        kinds.add("inf" if math.inf in want else "finite")
    return kinds


@pytest.mark.parametrize("strategy,pa_kind,accounting", CASES)
def test_seeded_scenarios(strategy, pa_kind, accounting):
    rng = np.random.default_rng(17)
    kinds = set()
    for _ in range(4):
        s = replace(random_params(rng, strategy, pa_kind),
                    accounting=accounting).build()
        for slot in DESCRIPTIONS[strategy].slots:
            kinds |= _assert_parity(s, slot, _durations(s, rng))
    assert "finite" in kinds
    # The floor's load overflows: inf powers, or the single-slot raise.
    assert ("raises:power_budget" if strategy is Strategy.FD1TS
            else "inf") in kinds


def test_asymptotic_1ts():
    rng = np.random.default_rng(18)
    for pa_kind in PaKind:
        s = replace(random_params(rng, Strategy.FD1TS, pa_kind),
                    asymptotic_1ts=True).build()
        slot, = DESCRIPTIONS[Strategy.FD1TS].slots
        assert "finite" in _assert_parity(s, slot, _durations(s, rng))


@pytest.mark.parametrize("pa_kind", list(PaKind))
def test_fd1ts_weak_cancellation_is_nan(pa_kind):
    s = ScenarioParams(strategy=Strategy.FD1TS, pa=pa_kind,
                       alpha_db=30.0).with_total_rate(65.0).build()
    slot, = DESCRIPTIONS[Strategy.FD1TS].slots
    kinds = _assert_parity(s, slot, _durations(s, np.random.default_rng(19)))
    assert {"raises:cancellation", "raises:power_budget", "finite"} <= kinds


def _zero_denominator(side):
    """An fd1ts scenario and a duration at which the relay power that
    closes ``side``'s broadcast link (``strategies._bound_relay_cases``)
    has a denominator of exactly 0.0.  The relay's self-interference gain
    ``gs_r`` is stepped by ``nextafter`` from the denominator's root until
    the float expression cancels; for side b, node a's self-interference
    is halved so that a's link still has a positive denominator there."""
    base = ScenarioParams(strategy=Strategy.FD1TS).build()
    ch = base.channels
    if side == "b":
        ch = replace(ch, gs_a=0.5 * ch.gs_a)
    gs_self, link = ((ch.gs_a, ch.g_ra * ch.g_ar) if side == "a"
                     else (ch.gs_b, ch.g_rb * ch.g_br))
    exps = _bound_exps(base, base.r_fl, base.r_rl)
    for k in range(1, 20):
        t = base.frame_t * k / 20
        _, (e_fl, e_rl) = exps(t)
        down, up = (e_rl - 1.0, e_fl) if side == "a" else (e_fl - 1.0, e_rl)
        factor = (e_fl + e_rl - 1.0) / (e_fl + e_rl)
        gs_r = link / (down * factor * up * gs_self)
        for direction in (math.inf, -math.inf):
            g = gs_r
            for _ in range(8):
                if link - down * factor * up * gs_self * g == 0.0:
                    return replace(base, channels=replace(ch, gs_r=g)), t
                g = math.nextafter(g, direction)
    raise AssertionError(f"no duration cancels side {side}'s denominator")


@pytest.mark.parametrize("side", ["a", "b"])
def test_fd1ts_zero_relay_denominator(side):
    """A denominator of exactly 0 is infeasible, as a negative one is: the
    float form raises a cancellation error naming the side, and an array
    holds NaN at that duration in every power, with no warning."""
    s, t = _zero_denominator(side)
    bind = DESCRIPTIONS[Strategy.FD1TS].slots[0].bind(s)
    with pytest.raises(InfeasibleError) as err:
        bind(t)
    assert (err.value.cause, err.value.binding_node) == ("cancellation", side)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = bind(np.array([t, s.frame_t]))
    assert all(math.isnan(p[0]) and math.isfinite(p[1]) for p in got)
    assert _assert_parity(s, DESCRIPTIONS[Strategy.FD1TS].slots[0],
                          np.array([t, s.frame_t])) == {
        "raises:cancellation", "finite"}


def test_zero_demand_slot():
    s = ScenarioParams(strategy=Strategy.FD2TS, r_rl_mbps=0.0).build()
    t = _durations(s, np.random.default_rng(20))
    for slot in DESCRIPTIONS[Strategy.FD2TS].slots:
        _assert_parity(s, slot, t)
    assert all((p == 0.0).all()
               for p in DESCRIPTIONS[Strategy.FD2TS].slots[1].bind(s)(t))


@pytest.mark.parametrize("strategy", list(Strategy))
def test_float_duration_gives_python_floats(strategy):
    """The solver's path stays free of numpy scalars, overflow included."""
    s = ScenarioParams(strategy=strategy).build()
    for slot in DESCRIPTIONS[strategy].slots:
        for t in (0.4 * s.frame_t, s.frame_t):
            assert all(type(p) is float for p in slot.bind(s)(t))
        if strategy is not Strategy.FD1TS:
            overflow = slot.bind(s)(t_floor(s))
            assert overflow == (math.inf,) * len(slot.fields)
            assert all(type(p) is float for p in overflow)


# ---------------------------------------------------------------------------
# Each slot's active power and the HD capacities against the hand-written
# forms they replace: each slot's active power summed its nodes' PA draw and
# its circuit power in one expression, and one function priced all four HD
# links.
# ---------------------------------------------------------------------------

def _ref_fd2ts_active(src, rate):
    def active(s, p_src, p_r):
        c = s.circuit
        statics = c.a.p_base + 2.0 * c.r.p_base + c.b.p_base
        eps4 = c.a.epsilon + 2.0 * c.r.epsilon + c.b.epsilon
        return (pa_consumption(getattr(s.pa, src), p_src)
                + pa_consumption(s.pa.r, p_r) + statics
                + eps4 * getattr(s, rate))
    return active


def _ref_active_1ts(s, p_a, p_b, p_r):
    c = s.circuit
    statics = 2.0 * s.p_base_total
    if s.circuit_accounting is CircuitAccounting.PRINTED:
        dynamic = c.a.epsilon * (s.r_fl + 2.0 * s.r_rl)
    else:
        both = s.r_fl + s.r_rl
        dynamic = (c.a.epsilon * both + c.b.epsilon * both
                   + c.r.epsilon * (both + max(s.r_fl, s.r_rl)))
    return (pa_consumption(s.pa.a, p_a) + pa_consumption(s.pa.b, p_b)
            + pa_consumption(s.pa.r, p_r) + statics + dynamic)


def _ref_active_hd_access(s, p_a, p_b):
    c = s.circuit
    if s.circuit_accounting is CircuitAccounting.PRINTED:
        dyn = c.a.epsilon * (s.r_fl + s.r_rl)
    else:
        dyn = (c.a.epsilon * s.r_fl + c.b.epsilon * s.r_rl
               + c.r.epsilon * (s.r_fl + s.r_rl))
    return (pa_consumption(s.pa.a, p_a) + pa_consumption(s.pa.b, p_b)
            + s.p_base_total + dyn)


def _ref_active_hd_broadcast(s, p_r):
    c = s.circuit
    if s.circuit_accounting is CircuitAccounting.PRINTED:
        dyn = c.a.epsilon * max(s.r_fl, s.r_rl)
    else:
        dyn = (c.r.epsilon * max(s.r_fl, s.r_rl)
               + c.a.epsilon * s.r_rl + c.b.epsilon * s.r_fl)
    return pa_consumption(s.pa.r, p_r) + s.p_base_total + dyn


def _hd_capacities(s, t1, t2, p_a, p_b, p_r):
    """(C_ar, C_br, C_ra, C_rb) read off the two HD slots' ``rates``."""
    return capacities(s, DESCRIPTIONS[Strategy.HD2TS], (t1, t2),
                      ((p_a, p_b), (p_r,)))


def _ref_caps_hd(s, t1, t2, p_a, p_b, p_r):
    ch = s.channels
    w1 = t1 / s.frame_t * s.bandwidth_w
    w2 = t2 / s.frame_t * s.bandwidth_w
    sa = p_a * ch.g_ar
    sb = p_b * ch.g_br
    c_ar = w1 * np.log2(sa / (sa + sb) + sa / ch.sigma2_r)
    c_br = w1 * np.log2(sb / (sa + sb) + sb / ch.sigma2_r)
    c_ra = w2 * np.log2(1.0 + p_r * ch.g_ra / ch.sigma2_a)
    c_rb = w2 * np.log2(1.0 + p_r * ch.g_rb / ch.sigma2_b)
    return c_ar, c_br, c_ra, c_rb


REF_ACTIVE = {
    Strategy.FD1TS: (_ref_active_1ts,),
    Strategy.FD2TS: (_ref_fd2ts_active("a", "r_fl"),
                     _ref_fd2ts_active("b", "r_rl")),
    Strategy.HD2TS: (_ref_active_hd_access, _ref_active_hd_broadcast),
}


def _assert_same(got, want):
    """Equal by ``repr`` for scalars, by bytes and shape for arrays."""
    assert type(got) is type(want)
    if isinstance(want, np.ndarray):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    else:
        assert repr(got) == repr(want)


def _open_mesh(s, slot, t, n_p=5):
    """Durations with finite, in-budget closed-form powers, as a column,
    and a power box per node from its closed-form point up to its budget,
    one open-mesh axis per node after the duration axis (the oracle's grid).
    """
    caps = np.array([cap for _, cap in slot.budgets(s)])
    anchors = np.column_stack(slot.bind(s)(t))
    rows = (np.isfinite(anchors) & (anchors <= caps)).all(axis=1)
    n, n_w = int(rows.sum()), caps.size
    boxes = np.linspace(anchors[rows], caps, n_p, axis=-1)
    grid = [boxes[:, w].reshape((n,) + (1,) * w + (n_p,) + (1,) * (n_w - 1 - w))
            for w in range(n_w)]
    return t[rows].reshape((n,) + (1,) * n_w), anchors[rows], grid


def _assert_active_parity(s, rng):
    """Every slot's active power (``bind_actives``) equals its
    hand-written form: at float and array closed-form powers and on an
    open-mesh power grid, broadcast to one shape first.  Returns how
    many float and array points were compared."""
    floats = points = 0
    desc = DESCRIPTIONS[s.strategy]
    for slot, ref in zip(desc.slots, REF_ACTIVE[s.strategy], strict=True):
        t = _durations(s, rng)
        for ti in t.tolist():
            try:
                powers = slot.bind(s)(ti)
            except InfeasibleError:
                continue
            try:
                want = ref(s, *powers)
            except ValueError:  # a power past its budget
                with pytest.raises(ValueError):
                    slot_active(s, slot, *powers)
                continue
            got = slot_active(s, slot, *powers)
            assert type(got) is float
            _assert_same(got, want)
            floats += 1
        _, anchors, grid = _open_mesh(s, slot, t)
        _assert_same(slot_active(s, slot, *anchors.T), ref(s, *anchors.T))
        _assert_same(slot_active(s, slot, *np.broadcast_arrays(*grid)),
                     ref(s, *grid))
        points += anchors.shape[0]
    return floats, points


@pytest.mark.parametrize("strategy,pa_kind,accounting", CASES)
def test_active_equals_hand_written_forms(strategy, pa_kind, accounting):
    rng = np.random.default_rng(21)
    floats = points = 0
    for _ in range(4):
        s = replace(random_params(rng, strategy, pa_kind),
                    accounting=accounting).build()
        f, p = _assert_active_parity(s, rng)
        floats, points = floats + f, points + p
    assert floats and points


@pytest.mark.parametrize("pa_kind", list(PaKind))
def test_active_equals_hand_written_asymptotic_1ts(pa_kind):
    rng = np.random.default_rng(22)
    for accounting in CircuitAccounting:
        s = replace(random_params(rng, Strategy.FD1TS, pa_kind),
                    asymptotic_1ts=True, accounting=accounting).build()
        assert all(_assert_active_parity(s, rng))


@pytest.mark.parametrize("pa_kind", list(PaKind))
def test_caps_hd_equals_hand_written_form(pa_kind):
    rng = np.random.default_rng(23)
    access, broadcast = DESCRIPTIONS[Strategy.HD2TS].slots
    compared = 0
    for _ in range(4):
        s = random_params(rng, Strategy.HD2TS, pa_kind).build()
        t = _durations(s, rng)
        for t1, t2 in zip(t.tolist(), rng.permutation(t).tolist()):
            powers = access.bind(s)(t1) + broadcast.bind(s)(t2)
            if all(map(math.isfinite, powers)):
                for got, want in zip(_hd_capacities(s, t1, t2, *powers),
                                     _ref_caps_hd(s, t1, t2, *powers),
                                     strict=True):
                    _assert_same(got, want)
                compared += 1
        t1, _, (p_a, p_b) = _open_mesh(s, access, t)
        t2, _, (p_r,) = _open_mesh(s, broadcast, t[::-1])
        n = min(t1.shape[0], t2.shape[0])
        args = (t1[:n], t2[:n, :, None], p_a[:n], p_b[:n], p_r[:n, :, None])
        for got, want in zip(_hd_capacities(s, *args), _ref_caps_hd(s, *args),
                             strict=True):
            _assert_same(got, want)
        compared += n
    assert compared


@pytest.mark.parametrize("strategy", [Strategy.FD1TS, Strategy.HD2TS])
def test_binned_uplinks_of_silent_end_nodes(strategy):
    """The binned uplink of an end node that does not send carries 0 bit/s,
    whether the other sends or not, for a float and for an array element,
    with no warning; every other element of the array equals its float
    call, bit for bit."""
    s = ScenarioParams(strategy=strategy).build()
    slot = DESCRIPTIONS[strategy].slots[0]
    t = 0.6 * s.frame_t
    sent = slot.bind(s)(t)
    silent = (0.0, 0.0) + sent[2:]
    a_silent = (0.0,) + sent[1:]
    b_silent = sent[:1] + (0.0,) + sent[2:]
    cases = (silent, sent, a_silent, silent, b_silent)

    def caps(durations, powers):
        return {name: c for group in slot.rates(s, durations, *powers)
                for name, c, _ in group}

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        want = [caps(t, powers) for powers in cases]
        got = caps(np.full(len(cases), t),
                   [np.array(p) for p in zip(*cases)])
    assert want[0]["c_ar"] == want[0]["c_br"] == 0.0
    assert min(want[1]["c_ar"], want[1]["c_br"]) > 0.0
    assert want[2]["c_ar"] == 0.0 < want[2]["c_br"]
    assert want[4]["c_br"] == 0.0 < want[4]["c_ar"]
    for name, row in got.items():
        assert row.tobytes() == np.array([w[name] for w in want]).tobytes()


def test_active_takes_one_power_per_node():
    s = ScenarioParams().build()
    slot, = DESCRIPTIONS[Strategy.FD1TS].slots
    powers = slot.bind(s)(0.6 * s.frame_t)
    for wrong in (powers[:1], powers[:2], powers + (1.0,)):
        with pytest.raises(ValueError, match="one per amplifier"):
            slot_active(s, slot, *wrong)
