"""The oracle's array passes against the per-point code they replace.

Each audit prices the frame in one pass (``oracle._frame_pass``): one call
of each slot's closed form over the grid's durations and the probe's, and
one PA draw over every slot's grid anchors and probe powers.  The pass must
give exactly the numbers of the one-duration-at-a-time and
one-point-at-a-time code: the same best active powers and anchor misses,
and the same violation counts; and ``verify`` the report that running the
grid, the probe and the activation check apart gives.  Closed forms scaled
a hair low stand in for a wrong closed form, which ``verify`` must fail.
"""

import math
import sys
import threading
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from fdrelay import oracle, strategies
from fdrelay.config import ScenarioParams
from fdrelay.feasibility import t_floor, tmin_for
from fdrelay.model import CircuitAccounting, InfeasibleError, PaKind, Strategy
from fdrelay.oracle import (
    _CONVEXITY_REL_TOL,
    _RATE_SLACK,
    OracleReport,
    _frame_pass,
    _probe_points,
    convexity_probe,
    random_feasible_scenarios,
    verify,
    verify_necessary_conditions,
)
from fdrelay.solver import solve
from fdrelay.strategies import DESCRIPTIONS

from conftest import with_powers

PAIRS = [(strategy, pa) for strategy in Strategy for pa in PaKind]

# The grid alone: a slot pass with no probe durations.
_NO_PROBE = np.empty(0)

# The sample count of a verify probe.
_VERIFY_SAMPLES = oracle._VERIFY_PROBE_SAMPLES


def _slot_best_per_duration(s, slot, t_axis):
    """The grid's anchor check one float duration at a time: the reference
    the one-pass check must equal.  Returns each duration's active power
    (inf off the grid) and the number of in-budget anchors that miss a
    demand."""
    caps = [cap for _, cap in slot.budgets(s)]
    best = np.full(t_axis.size, math.inf)
    misses = 0
    for i, t in enumerate(t_axis):
        try:
            anchor = slot.bind(s)(t)
        except InfeasibleError:
            continue
        if not all(math.isfinite(p) and p <= cap * (1.0 + 1e-9)
                   for p, cap in zip(anchor, caps)):
            continue
        clipped = [min(p, cap) for p, cap in zip(anchor, caps)]
        if all(capacity >= demand * (1.0 - _RATE_SLACK)
               for group in slot.rates(s, t, *clipped)
               for _, capacity, demand in group):
            best[i] = slot.active(s, *clipped)
        elif all(p <= cap for p, cap in zip(anchor, caps)):
            misses += 1
    return best, misses


def _anchor_kinds(s, slot, t_axis):
    """Which ways the closed-form anchors leave the grid, over the axis."""
    kinds = set()
    for t in t_axis:
        try:
            anchor = slot.bind(s)(t)
        except InfeasibleError as err:
            kinds.add(f"raises:{err.cause}")
            continue
        caps = [cap for _, cap in slot.budgets(s)]
        if not all(math.isfinite(p) for p in anchor):
            kinds.add("infinite")
        elif any(p > cap * (1.0 + 1e-9) for p, cap in zip(anchor, caps)):
            kinds.add("over budget")
        else:
            kinds.add("in budget")
    return kinds


def _assert_same(s, slot, t_axis, priced=True, t_probe=_NO_PROBE):
    """The one-pass check equals the per-duration one; with ``priced``, at
    least one duration stays on the grid.  The active powers at the probe
    durations ``t_probe``, priced in the same pass after the grid's masked
    rows, equal one ``Slot.active`` call on their closed-form powers, byte
    for byte.  Returns the miss count."""
    (best,), misses, (active,) = _frame_pass(s, (slot,), t_axis, [t_probe])
    ref_best, ref_misses = _slot_best_per_duration(s, slot, t_axis)
    assert best.tobytes() == ref_best.tobytes()
    assert misses == ref_misses
    assert np.isfinite(best).any() or not priced
    want = slot.active(s, *slot.bind(s)(t_probe))
    assert active.size == t_probe.size
    assert active.tobytes() == np.asarray(want, dtype=float).tobytes()
    return misses


def _verify_probes(s):
    """The durations of ``verify``'s convexity probe, one array per slot, as
    an audit hands them to the frame pass, and ``_NO_PROBE`` before them:
    each slot is checked with the grid alone and with its probe."""
    _, points = _probe_points(_domain(s), _VERIFY_SAMPLES, s.frame_t)
    return [[_NO_PROBE, coord]
            for coord in points.reshape(-1, points.shape[-1]).T]


def _full_axis(s, n_t):
    """Floor to the full frame: the first durations leave the grid."""
    return np.linspace(t_floor(s), s.frame_t, n_t)


class TestSlotBestParity:
    """The real closed forms: every in-budget anchor meets its demands."""

    @pytest.mark.parametrize("strategy,pa_kind", PAIRS)
    def test_seeded_scenarios(self, strategy, pa_kind):
        for s in random_feasible_scenarios(11, strategy, pa_kind, 3):
            for slot in DESCRIPTIONS[strategy].slots:
                assert _assert_same(s, slot, _full_axis(s, 40)) == 0

    @pytest.mark.parametrize("strategy,pa_kind", PAIRS)
    def test_anchors_infinite_and_over_budget(self, strategy, pa_kind):
        s = ScenarioParams(strategy=strategy, pa=pa_kind).build()
        t_axis = _full_axis(s, 40)
        for slot, probes in zip(DESCRIPTIONS[strategy].slots,
                                _verify_probes(s)):
            kinds = _anchor_kinds(s, slot, t_axis)
            assert "over budget" in kinds and "in budget" in kinds
            if strategy is not Strategy.FD1TS:
                assert "infinite" in kinds
            for t_probe in probes:
                assert _assert_same(s, slot, t_axis, t_probe=t_probe) == 0

    @pytest.mark.parametrize("pa_kind", list(PaKind))
    def test_fd1ts_weak_cancellation_raises(self, pa_kind):
        s = ScenarioParams(strategy=Strategy.FD1TS, pa=pa_kind,
                           alpha_db=30.0).with_total_rate(65.0).build()
        slot = DESCRIPTIONS[Strategy.FD1TS].slots[0]
        t_axis = _full_axis(s, 40)
        assert {"raises:cancellation", "raises:power_budget", "over budget",
                "in budget"} <= _anchor_kinds(s, slot, t_axis)
        (probes,) = _verify_probes(s)
        for t_probe in probes:
            assert _assert_same(s, slot, t_axis, t_probe=t_probe) == 0

    def test_fd1ts_short_axis(self):
        s = ScenarioParams(strategy=Strategy.FD1TS).build()
        assert _assert_same(s, DESCRIPTIONS[Strategy.FD1TS].slots[0],
                            _full_axis(s, 12)) == 0

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_anchor_on_its_budget(self, strategy):
        """An anchor within the budget slack is clipped onto its budget,
        which must not change the prices of the other durations."""
        s = ScenarioParams(strategy=strategy).build()
        t_axis = _full_axis(s, 30)
        pinned = t_axis[20]
        for slot, probes in zip(DESCRIPTIONS[strategy].slots,
                                _verify_probes(s)):
            cap = slot.budgets(s)[0][1]

            def powers(s_, t, _slot=slot, _cap=cap):
                # A float for the per-duration reference, an array for
                # the one-pass check: pin the first power at ``pinned``.
                anchor = _slot.bind(s_)(t)
                first = np.where(t == pinned, _cap * (1.0 + 5e-10),
                                 anchor[0])
                if np.ndim(t) == 0:
                    first = float(first)
                return (first,) + anchor[1:]

            for t_probe in probes:
                assert _assert_same(s, with_powers(slot, powers), t_axis,
                                    t_probe=t_probe) == 0


def _scaled_below(slot, t_axis, at, factor=1.0 - 1e-6):
    """``slot`` with every closed-form power scaled by ``factor`` at the
    durations ``t_axis[at]``: those anchors sit just below their demands."""
    low = t_axis[at]

    def powers(s, t, _slot=slot):
        scale = np.where(np.isin(t, low), factor, 1.0)
        anchor = _slot.bind(s)(t)
        if np.ndim(t) == 0:
            return tuple(float(p * scale) for p in anchor)
        return tuple(p * scale for p in anchor)

    return with_powers(slot, powers)


def _in_budget(s, slot, t_axis):
    """How many durations of ``t_axis`` have a finite anchor within its
    budgets, with no clip."""
    caps = [cap for _, cap in slot.budgets(s)]
    count = 0
    for t in t_axis:
        try:
            anchor = slot.bind(s)(t)
        except InfeasibleError:
            continue
        count += all(math.isfinite(p) and p <= cap
                     for p, cap in zip(anchor, caps))
    return count


def _verify_axis(s):
    """The duration axis of :func:`verify`'s grid."""
    floor = t_floor(s)
    n_slots = len(DESCRIPTIONS[s.strategy].slots)
    extras = tuple(x for span in tmin_for(s).spans(s.frame_t) for x in span)
    return oracle._duration_axis(floor, s.frame_t - (n_slots - 1) * floor,
                                 oracle._VERIFY_N_T, extras)


class TestAnchorMissesDemand:
    """Anchors a hair below their demands are a wrong closed form: each one
    within its budgets is a miss, and a miss fails ``verify``."""

    @pytest.mark.parametrize("strategy,pa_kind", PAIRS)
    @pytest.mark.parametrize("every", [3, 1])
    def test_verify_fails_where_anchors_miss(self, strategy, pa_kind, every,
                                             monkeypatch):
        """The closed forms are wrong in ``verify``'s view only: the solve
        and the window read the real ones."""
        s = ScenarioParams(strategy=strategy, pa=pa_kind).build()
        sched = solve(s)
        t_axis = _verify_axis(s)
        at = slice(None, None, every)
        desc = DESCRIPTIONS[strategy]
        missing = replace(desc, slots=tuple(
            _scaled_below(slot, t_axis, at) for slot in desc.slots))
        monkeypatch.setattr(oracle, "DESCRIPTIONS",
                            {**DESCRIPTIONS, strategy: missing})
        report = oracle.verify(s, sched)
        expected = sum(_in_budget(s, slot, t_axis[at])
                       for slot in missing.slots)
        assert expected > 0
        assert report.anchor_misses == expected
        assert not report.ok
        if every == 1:
            # No anchor is left to price: the grid is empty.
            assert report.grid_best_energy == math.inf
            assert math.isnan(report.relative_gap)
        else:
            assert report.relative_gap <= 0.01

    @pytest.mark.parametrize("strategy,pa_kind", PAIRS)
    @pytest.mark.parametrize("every", [3, 1])
    def test_one_pass_counts_the_misses(self, strategy, pa_kind, every):
        s = ScenarioParams(strategy=strategy, pa=pa_kind).build()
        t_axis = _full_axis(s, 40)
        at = slice(None, None, every)
        for slot in DESCRIPTIONS[strategy].slots:
            missing = _scaled_below(slot, t_axis, at)
            misses = _assert_same(s, missing, t_axis, priced=every != 1)
            assert misses == _in_budget(s, missing, t_axis[at]) > 0

    @pytest.mark.parametrize("every", [3, 1])
    def test_fd1ts_short_axis(self, every):
        s = ScenarioParams(strategy=Strategy.FD1TS).build()
        t_axis = _full_axis(s, 12)
        at = slice(None, None, every)
        missing = _scaled_below(DESCRIPTIONS[Strategy.FD1TS].slots[0],
                                t_axis, at)
        misses = _assert_same(s, missing, t_axis, priced=every != 1)
        assert misses == _in_budget(s, missing, t_axis[at]) > 0

    @pytest.mark.parametrize("strategy,pa_kind", PAIRS)
    def test_default_scenarios_have_no_anchor_misses(self, strategy,
                                                     pa_kind):
        """Every in-budget anchor of the default scenarios meets its
        demands, on ``verify``'s grid and on ``grid_search``'s."""
        s = ScenarioParams(strategy=strategy, pa=pa_kind).build()
        report = oracle.verify(s, solve(s))
        assert report.ok and report.anchor_misses == 0
        assert oracle._audit_pass(s, 50, 0)[2] == 0

    @pytest.mark.parametrize("pa_kind", list(PaKind))
    def test_asymptotic_fd1ts_overspends_without_a_miss(self, pa_kind):
        """The asymptotic fd1ts closed form is loose on purpose: each of
        its anchors meets the demands with room to spare, so none is a
        miss."""
        s = ScenarioParams(strategy=Strategy.FD1TS, pa=pa_kind,
                           asymptotic_1ts=True).build()
        report = oracle.verify(s, solve(s))
        assert report.ok and report.anchor_misses == 0
        assert min(report.active_constraints.values()) > 1e-6

    @pytest.mark.parametrize("strategy,pa_kind", PAIRS)
    def test_clipped_anchor_beside_low_ones_is_not_a_miss(self, strategy,
                                                          pa_kind):
        """An anchor just over its first budget, with its other powers a
        hair low, misses a demand after the clip: its duration leaves the
        grid, but a clip on the budget edge shows no wrong closed form."""
        s = ScenarioParams(strategy=strategy, pa=pa_kind).build()
        t_axis = _full_axis(s, 30)
        pinned = t_axis[20]
        for slot in DESCRIPTIONS[strategy].slots:
            if len(slot.fields) < 2:
                continue
            cap = slot.budgets(s)[0][1]

            def powers(s_, t, _slot=slot, _cap=cap):
                anchor = _slot.bind(s_)(t)
                at = t == pinned
                pinned_anchor = (np.where(at, _cap * (1.0 + 5e-10), anchor[0]),
                                 *(np.where(at, p * (1.0 - 1e-6), p)
                                   for p in anchor[1:]))
                if np.ndim(t) == 0:
                    return tuple(float(p) for p in pinned_anchor)
                return pinned_anchor

            clipped = with_powers(slot, powers)
            (best,), _, _ = _frame_pass(s, (slot,), t_axis, [_NO_PROBE])
            assert math.isfinite(best[20])
            assert _assert_same(s, clipped, t_axis) == 0
            (best,), _, _ = _frame_pass(s, (clipped,), t_axis, [_NO_PROBE])
            assert best[20] == math.inf


def _probe_cases(strategy, pa_kind):
    low_load = ScenarioParams(strategy=strategy, pa=pa_kind, r_fl_mbps=1.0,
                              r_rl_mbps=1.0).build()
    return random_feasible_scenarios(5, strategy, pa_kind, 3) + [low_load]


def _domain(s):
    spans = tmin_for(s).spans(s.frame_t)
    return spans[0] if len(spans) == 1 else spans


def _probe_points_per_draw(domain, n_samples, sum_cap):
    """The probe's sampler drawing one ``Generator.uniform`` at a time from
    seed 0, with a step of 2% of the narrowest side, as it ran before it
    drew in blocks: the reference for its points."""
    rng = np.random.default_rng(0)
    two_d = hasattr(domain[0], "__len__")
    widths = ([domain[0][1] - domain[0][0], domain[1][1] - domain[1][0]]
              if two_d else [domain[1] - domain[0]])
    h = 0.02 * min(widths)
    points = []
    while len(points) < n_samples:
        if two_d:
            x = np.array([rng.uniform(domain[0][0] + h, domain[0][1] - h),
                          rng.uniform(domain[1][0] + h, domain[1][1] - h)])
            if sum_cap is not None and x[0] + x[1] + 2.0 * h > sum_cap:
                continue
            theta = rng.uniform(0.0, 2.0 * math.pi)
            e = np.array([math.cos(theta), math.sin(theta)])
            points.append((tuple(x), tuple(x + h * e), tuple(x - h * e)))
        else:
            x = rng.uniform(domain[0] + h, domain[1] - h)
            points.append(((x,), (x + h,), (x - h,)))
    return h, points


def _probe_count_per_point(s, domain, n_samples):
    """The scenario probe pricing one point at a time through the float
    ``Description.energy``: the reference for the array probe's count."""
    desc = DESCRIPTIONS[s.strategy]
    h, points = _probe_points(domain, n_samples, s.frame_t)
    values = [[desc.energy(s, *x) for x in triple]
              for triple in points.tolist()]
    f0, fp, fm = np.array(values).T
    d2 = (fp - 2.0 * f0 + fm) / h / h
    return int(np.count_nonzero(d2 < -_CONVEXITY_REL_TOL * np.abs(f0)))


class TestProbeParity:
    @pytest.mark.parametrize("domain, sum_cap", [
        ((0.001, 0.0093), None),
        (((0.002, 0.009), (0.0015, 0.0085)), 0.01),
        (((0.0, 1.0), (0.0, 1.0)), 1.0),
        (((0.0, 1.0), (0.0, 1.0)), None)])
    def test_probe_points_equal_per_draw_sampler(self, domain, sum_cap):
        want = _probe_points_per_draw(domain, 300, sum_cap)
        got = _probe_points(domain, 300, sum_cap)
        ref = np.array(want[1])
        assert got[0] == want[0]
        assert got[1].dtype == ref.dtype and got[1].shape == ref.shape
        assert got[1].tobytes() == ref.tobytes()

    def test_reversed_domain_is_rejected(self):
        """A reversed side makes the step negative, and the sampling box
        empty."""
        with pytest.raises(ValueError, match="leaves no room"):
            convexity_probe(lambda t: t * t, (1.0, 0.0))
        with pytest.raises(ValueError, match="leaves no room"):
            convexity_probe(lambda x, y: x * y, ((0.0, 1.0), (2.0, 0.0)))

    @pytest.mark.parametrize("strategy,pa_kind", PAIRS)
    def test_same_count_as_convexity_probe(self, strategy, pa_kind):
        desc = DESCRIPTIONS[strategy]
        probed = pa_kind is PaKind.ETPA or desc.convex_under_tpa
        counts = []
        for s in _probe_cases(strategy, pa_kind):
            domain = _domain(s)
            expected = _probe_count_per_point(s, domain, 50)
            counts.append(expected)
            assert convexity_probe(partial(desc.energy, s), domain,
                                   n_samples=50, sum_cap=s.frame_t) == expected
            # verify's probe is this one, where the pair is probed at all.
            assert verify(s, solve(s)).convexity_violations == (
                expected if probed else 0)
        if pa_kind is PaKind.TPA:
            # The low-load TPA objective is not convex: the probe sees it.
            assert counts[-1] > 0

    @pytest.mark.parametrize("pa_kind", list(PaKind))
    def test_raising_point_raises_its_error(self, pa_kind):
        """A probe whose domain reaches where the float single-slot form
        raises never returns a count: the array powers hold NaN there, and
        the PA draw's range check refuses them and the over-budget powers
        around them.  The reference prices the points one at a time in
        draw order."""
        s = ScenarioParams(strategy=Strategy.FD1TS, pa=pa_kind,
                           alpha_db=30.0).with_total_rate(65.0).build()
        desc = DESCRIPTIONS[Strategy.FD1TS]
        slot, = desc.slots
        domain = (t_floor(s), s.frame_t)
        _, points = _probe_points(domain, 50, s.frame_t)
        with pytest.raises(InfeasibleError):
            for t in points.ravel().tolist():
                slot.bind(s)(t)
        with pytest.raises(ValueError, match="transmit power outside"):
            convexity_probe(partial(desc.energy, s), domain, n_samples=50,
                            sum_cap=s.frame_t)

    @pytest.mark.parametrize("strategy,pa_kind", PAIRS)
    def test_energy_at_on_arrays_equals_scalar_calls(self, strategy,
                                                     pa_kind):
        desc = DESCRIPTIONS[strategy]
        s = random_feasible_scenarios(3, strategy, pa_kind, 1)[0]
        spans = tmin_for(s).spans(s.frame_t)
        n_slots = len(desc.slots)
        rng = np.random.default_rng(4)
        durations = [tuple(rng.uniform(lo, lo + (hi - lo) / n_slots)
                           for lo, hi in spans) for _ in range(25)]
        powers = [[slot.bind(s)(t[k]) for t in durations]
                  for k, slot in enumerate(desc.slots)]
        scalar = [desc.energy_at(s, t, [p[i] for p in powers])
                  for i, t in enumerate(durations)]
        assert all(type(e) is float for e in scalar)
        batched = desc.energy_at(s, np.array(durations).T,
                                 [np.array(p).T for p in powers])
        assert isinstance(batched, np.ndarray)
        assert batched.shape == (len(durations),)
        assert (batched == np.array(scalar)).all()


class TestOnePassPerSlot:
    """``verify`` prices each slot once per audit: the grid and the probe
    share one closed-form call and one PA draw, and the report is the one
    that running them apart gives."""

    @pytest.mark.parametrize("accounting", list(CircuitAccounting))
    @pytest.mark.parametrize("strategy,pa_kind", PAIRS)
    def test_report_equals_separate_paths(self, strategy, pa_kind,
                                          accounting):
        desc = DESCRIPTIONS[strategy]
        probed = pa_kind is PaKind.ETPA or desc.convex_under_tpa
        for s in random_feasible_scenarios(25, strategy, pa_kind, 4):
            s = replace(s, circuit_accounting=accounting)
            sched = solve(s)
            grid_best, _, misses, unprobed = oracle._audit_pass(s, 40, 0)
            assert unprobed == 0
            violations = (convexity_probe(partial(desc.energy, s),
                                          _domain(s), 50, sum_cap=s.frame_t)
                          if probed else 0)
            slacks = verify_necessary_conditions(s, sched, tol=math.inf)
            want = OracleReport(
                grid_best_energy=grid_best, solver_energy=sched.e_total,
                relative_gap=float((sched.e_total - grid_best) / grid_best),
                active_constraints={k: float(v) for k, v in slacks.items()},
                convexity_violations=violations, anchor_misses=misses)
            assert repr(verify(s, sched)) == repr(want)

    @pytest.mark.parametrize("strategy,pa_kind", PAIRS)
    def test_probe_actives_equal_slot_active(self, strategy, pa_kind):
        """Each slot's probe durations' active powers, drawn in the frame's
        one draw after every slot's grid anchors, equal one ``Slot.active``
        call on their closed-form powers."""
        s = random_feasible_scenarios(26, strategy, pa_kind, 1)[0]
        t_axis = _full_axis(s, 40)
        slots = DESCRIPTIONS[strategy].slots
        probes = [np.linspace(lo, hi, 31)[1:-1]
                  for lo, hi in tmin_for(s).spans(s.frame_t)]
        bests, misses, actives = _frame_pass(s, slots, t_axis, probes)
        assert misses == 0
        for slot, best, active, t_probe in zip(slots, bests, actives, probes):
            assert np.isfinite(best).any()
            want = slot.active(s, *slot.bind(s)(t_probe))
            assert active.tobytes() == want.tobytes()

    @pytest.mark.parametrize("strategy,pa_kind", PAIRS)
    def test_one_bind_per_slot_and_one_draw_per_audit(self, strategy,
                                                      pa_kind, monkeypatch):
        """Each audit binds each slot's closed form once, and binds one PA
        draw for the whole frame and calls it once.  Pricing the grid and
        the probe apart made two of each per slot wherever the probe runs,
        and one draw per slot still made two for a two-slot strategy."""
        counts = {"bind": 0, "draw bind": 0, "draw": 0}

        def counted_bind(bind):
            def counted(scenario):
                counts["bind"] += 1
                return bind(scenario)
            return counted

        def counted_pa_draw(pa_draw):
            def counted(*pas):
                counts["draw bind"] += 1
                draw = pa_draw(*pas)

                def counted_draw(*powers):
                    counts["draw"] += 1
                    return draw(*powers)

                return counted_draw
            return counted

        desc = DESCRIPTIONS[strategy]
        for s in [ScenarioParams(strategy=strategy, pa=pa_kind).build()] + (
                random_feasible_scenarios(27, strategy, pa_kind, 2)):
            sched = solve(s)
            want = repr(verify(s, sched))
            with monkeypatch.context() as m:
                m.setitem(DESCRIPTIONS, strategy, replace(desc, slots=tuple(
                    replace(slot, bind=counted_bind(slot.bind))
                    for slot in desc.slots)))
                m.setattr(strategies, "pa_draw",
                          counted_pa_draw(strategies.pa_draw))
                # The window a solve under these slots keeps, as
                # ``solve(s)`` leaves it for the audit that follows.
                tmin_for(s)
                counts.update(dict.fromkeys(counts, 0))
                assert repr(verify(s, sched)) == want
            assert counts == {"bind": len(desc.slots), "draw bind": 1,
                              "draw": 1}

    @pytest.mark.parametrize("strategy,pa_kind", PAIRS)
    def test_empty_grid_raises_before_the_probe(self, strategy, pa_kind):
        """A schedule solved for another scenario brings its window, whose
        probe points may price powers over the budgets of ``s``.  Where the
        grid of ``s`` is empty, that is the error, as when the grid was
        priced before the probe."""
        good = ScenarioParams(strategy=strategy, pa=pa_kind).build()
        bad = ScenarioParams(strategy=strategy, pa=pa_kind, alpha_db=20.0,
                             r_fl_mbps=100.0, r_rl_mbps=100.0).build()
        assert not tmin_for(bad).feasible
        with pytest.raises(InfeasibleError, match="no feasible point"):
            verify(bad, solve(good))


def _per_draw_bytes(domain, n_samples, sum_cap):
    """The per-draw sampler's step and the bytes of its points."""
    h, points = _probe_points_per_draw(domain, n_samples, sum_cap)
    return h, np.array(points).tobytes()


def _count_fresh_walks(monkeypatch):
    """A list that gets one entry per walk the sampler runs afresh."""
    walks, walk = [], oracle._walk

    def counted(*args):
        walks.append(args)
        return walk(*args)

    monkeypatch.setattr(oracle, "_walk", counted)
    return walks


class TestWalkReuse:
    """The 2-D probe keeps its last walk and reuses it only where every
    verdict the walk read is judged the same for the new box, step and cap;
    its points are then those of the per-draw sampler, byte for byte."""

    @pytest.mark.parametrize("domain, sum_cap", [
        ((0.001, 0.0093), None),
        (((0.002, 0.009), (0.0015, 0.0085)), 0.01),
        (((0.0, 1.0), (0.0, 1.0)), 1.0),
        (((0.0, 1.0), (0.0, 1.0)), None)])
    def test_cleared_and_warm_equal_per_draw_sampler(self, domain, sum_cap,
                                                     monkeypatch):
        """Cleared, then warm, then at another sample count, which walks
        afresh."""
        walks = _count_fresh_walks(monkeypatch)
        monkeypatch.setattr(oracle, "_LAST_WALK", None)
        for n_samples in (300, 300, 50, 50):
            h, points = _probe_points(domain, n_samples, sum_cap)
            assert (h, points.tobytes()) == _per_draw_bytes(domain, n_samples,
                                                            sum_cap)
        # A scalar domain makes no walk; a 2-D one walks once per count.
        assert len(walks) == 2 * isinstance(domain[0], tuple)

    @pytest.mark.parametrize("strategy,pa_kind", PAIRS)
    def test_verify_windows_equal_per_draw_sampler(self, strategy, pa_kind,
                                                   monkeypatch):
        """On each pair's verify window, cleared, warm from itself and warm
        from the other pairs' windows."""
        cases = [ScenarioParams(strategy=st, pa=pa).build()
                 for st, pa in PAIRS]
        s = ScenarioParams(strategy=strategy, pa=pa_kind).build()
        monkeypatch.setattr(oracle, "_LAST_WALK", None)
        want = _per_draw_bytes(_domain(s), _VERIFY_SAMPLES, s.frame_t)
        for other in [s, s] + cases + [s]:
            _probe_points(_domain(other), _VERIFY_SAMPLES, other.frame_t)
            h, points = _probe_points(_domain(s), _VERIFY_SAMPLES, s.frame_t)
            assert (h, points.tobytes()) == want

    @pytest.mark.parametrize("flip", ["kept to rejected", "rejected to kept"])
    def test_flipped_verdict_walks_afresh(self, flip, monkeypatch):
        """A cap that changes one verdict of the kept walk, and no other,
        makes the sampler walk afresh, and the new walk matches too."""
        domain = ((0.002, 0.009), (0.0015, 0.0085))
        monkeypatch.setattr(oracle, "_LAST_WALK", None)
        walks = _count_fresh_walks(monkeypatch)
        h, _ = _probe_points(domain, 300, 0.01)
        walk = oracle._LAST_WALK
        ranges = [(lo + h, hi - h) for lo, hi in domain]
        (lo0, hi0), (lo1, hi1) = ranges
        u0, u1 = walk.judged
        sums = lo0 + (hi0 - lo0) * u0 + (lo1 + (hi1 - lo1) * u1) + 2.0 * h
        verdicts = np.frombuffer(walk.verdicts, dtype=bool)
        if flip == "kept to rejected":
            cap = np.nextafter(sums[verdicts].max(), -math.inf)
        else:
            cap = sums[~verdicts].min()
        flipped = oracle._judge(ranges, h, float(cap), u0, u1) != verdicts
        assert np.count_nonzero(flipped) == 1
        got = _probe_points(domain, 300, float(cap))
        assert len(walks) == 2
        assert oracle._LAST_WALK is not walk
        assert (got[0], got[1].tobytes()) == _per_draw_bytes(domain, 300,
                                                             float(cap))

    def test_walk_past_the_reject_cap_is_not_kept(self, monkeypatch):
        domain = ((0.0, 1.0), (0.0, 1.0))
        walks = _count_fresh_walks(monkeypatch)
        monkeypatch.setattr(oracle, "_LAST_WALK", None)
        _probe_points(domain, 10, 1.0)
        kept = oracle._LAST_WALK
        with pytest.raises(ValueError, match="rejected 100001 draws"):
            _probe_points(domain, 10, 0.0800001)
        assert oracle._LAST_WALK is kept
        _probe_points(domain, 10, 1.0)
        assert len(walks) == 2

    def test_threads_sharing_the_kept_walk(self, monkeypatch):
        """Threads that sample different boxes replace one another's kept
        walk; each still gets the per-draw sampler's points."""
        domains = [(((0.002, 0.009), (0.0015, 0.0085)), 0.01),
                   (((0.0, 1.0), (0.0, 1.0)), 1.0),
                   (((0.0, 1.0), (0.0, 1.0)), None),
                   (((0.001, 0.004), (0.002, 0.008)), 0.009)]
        want = [_per_draw_bytes(domain, 50, cap) for domain, cap in domains]
        monkeypatch.setattr(oracle, "_LAST_WALK", None)
        wrong = []

        def sample(k):
            domain, cap = domains[k % len(domains)]
            for _ in range(40):
                h, points = _probe_points(domain, 50, cap)
                if (h, points.tobytes()) != want[k % len(domains)]:
                    wrong.append(k)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=sample, args=(k,))
                       for k in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []

    @pytest.mark.parametrize("accounting", list(CircuitAccounting))
    @pytest.mark.parametrize("strategy,pa_kind", PAIRS)
    def test_verify_same_cleared_and_warm(self, strategy, pa_kind,
                                          accounting, monkeypatch):
        cases = [replace(s, circuit_accounting=accounting) for s in
                 [ScenarioParams(strategy=strategy, pa=pa_kind).build()]
                 + random_feasible_scenarios(28, strategy, pa_kind, 3)]
        for s in cases:
            sched = solve(s)
            monkeypatch.setattr(oracle, "_LAST_WALK", None)
            want = repr(verify(s, sched))
            for other in cases:
                verify(other, solve(other))
                assert repr(verify(s, sched)) == want
