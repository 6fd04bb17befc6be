"""Governor tests: mode selection, hysteresis machine, escalation, rollout guard."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latgov.governor import (
    MODE_ORDER,
    GovernorState,
    Mode,
    Reason,
    RolloutState,
    apply_slo_escalation,
    decide_simple,
    mode_shares,
    modes,
    next_mode,
    rollout_guard,
    select_mode_by_trust,
    step,
)
from latgov.model import ModelParams, trust_score
from latgov.telemetry import ESCALATION_WINDOWS, ROLLING_BLOCK, SloStatus

PARAMS = ModelParams()  # budget 2.0, soft limit 3.0, h 0.25, k 0.8

# Inside this band the machine may enter Soft but can neither fall back to
# Instant nor spill into Deferred.
BAND_LO = PARAMS.budget_b_l - PARAMS.hysteresis_h   # 1.75
BAND_HI = PARAMS.budget_soft - PARAMS.hysteresis_h  # 2.75


# Every boundary of the hysteresis rule, and values on and within 1e-12 of them.
THRESHOLDS = (BAND_LO, PARAMS.budget_b_l, BAND_HI, PARAMS.budget_soft)
near_threshold = st.builds(
    lambda t, d: t + d,
    st.sampled_from(THRESHOLDS),
    st.sampled_from([0.0, -1e-12, 1e-12]) | st.floats(min_value=-1e-12, max_value=1e-12),
)
lp_streams = st.lists(near_threshold | st.floats(min_value=0.0, max_value=6.0), max_size=120)


def run_sequence(lps, state=None, params=PARAMS):
    state = state or GovernorState()
    modes = []
    for lp in lps:
        state, decision = step(state, lp, params)
        modes.append(decision.mode)
    return state, modes


class TestSelectModeByTrust:
    @pytest.mark.parametrize(
        "trust,expected",
        [
            (0.5, Mode.INSTANT),    # boundary inclusive
            (0.9, Mode.INSTANT),
            (0.35, Mode.SOFT),
            (0.2, Mode.SOFT),       # theta2 boundary inclusive
            (0.1, Mode.DEFERRED),
            (0.0, Mode.DEFERRED),
        ],
    )
    def test_thresholds(self, trust, expected):
        assert select_mode_by_trust(trust, PARAMS) is expected

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            select_mode_by_trust(1.2, PARAMS)
        with pytest.raises(ValueError):
            select_mode_by_trust(-0.1, PARAMS)


class TestDecideSimple:
    @pytest.mark.parametrize(
        "mean,std,expected",
        [
            (1.4, 0.0, Mode.INSTANT),
            (2.2, 0.0, Mode.SOFT),
            (4.7, 0.0, Mode.DEFERRED),
            (2.0, 0.0, Mode.INSTANT),   # budget boundary stays instant
            (3.0, 0.0, Mode.SOFT),      # soft boundary stays soft
            (2.0, 1.2, Mode.SOFT),      # jitter pushes perceived to 2.96
            (2.3, 1.2, Mode.DEFERRED),  # 2.3 + 0.96 > 3.0
        ],
    )
    def test_rule(self, mean, std, expected):
        assert decide_simple(mean, std, PARAMS) is expected

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            decide_simple(-1.0, 0.0, PARAMS)


class TestStep:
    @pytest.mark.parametrize(
        "start,lp,expected_mode,expected_reason",
        [
            (Mode.INSTANT, 2.1, Mode.SOFT, Reason.BUDGET_EXCEEDED),
            (Mode.INSTANT, 2.0, Mode.INSTANT, Reason.WITHIN_BUDGET),
            (Mode.INSTANT, 0.5, Mode.INSTANT, Reason.WITHIN_BUDGET),
            (Mode.SOFT, 1.80, Mode.SOFT, Reason.HYSTERESIS_HOLD),
            (Mode.SOFT, 1.75, Mode.SOFT, Reason.HYSTERESIS_HOLD),
            (Mode.SOFT, 1.74, Mode.INSTANT, Reason.WITHIN_BUDGET),
            (Mode.SOFT, 2.0, Mode.SOFT, Reason.HYSTERESIS_HOLD),      # budget boundary
            (Mode.SOFT, 2.5, Mode.SOFT, Reason.BUDGET_EXCEEDED),
            (Mode.SOFT, 3.2, Mode.DEFERRED, Reason.SOFT_LIMIT_EXCEEDED),
            (Mode.SOFT, 3.0, Mode.SOFT, Reason.BUDGET_EXCEEDED),
            (Mode.DEFERRED, 2.70, Mode.SOFT, Reason.BUDGET_EXCEEDED),
            (Mode.DEFERRED, 2.75, Mode.DEFERRED, Reason.HYSTERESIS_HOLD),
            (Mode.DEFERRED, 3.0, Mode.DEFERRED, Reason.HYSTERESIS_HOLD),  # soft boundary
            (Mode.DEFERRED, 3.5, Mode.DEFERRED, Reason.SOFT_LIMIT_EXCEEDED),
            (Mode.DEFERRED, 1.0, Mode.SOFT, Reason.HYSTERESIS_HOLD),  # one hop only
            (Mode.INSTANT, 3.5, Mode.SOFT, Reason.BUDGET_EXCEEDED),   # one hop only
        ],
    )
    def test_transitions(self, start, lp, expected_mode, expected_reason):
        state = GovernorState(mode=start)
        next_state, decision = step(state, lp, PARAMS)
        assert next_state.mode is expected_mode
        assert decision.mode is expected_mode
        assert decision.reason is expected_reason
        assert decision.perceived_latency == lp
        assert decision.trust == trust_score(lp, PARAMS)

    def test_transition_counter(self):
        state, _ = run_sequence([1.0, 2.5, 2.5, 3.5, 1.0, 1.0])
        # instant -> soft -> deferred -> soft -> instant
        assert state.transitions == 4

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            step(GovernorState(), -0.1, PARAMS)

    @given(
        st.lists(
            st.floats(min_value=BAND_LO + 1e-6, max_value=BAND_HI),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=120)
    def test_no_flapping_inside_band(self, lps):
        state, modes = run_sequence(lps)
        assert state.transitions <= 1
        for previous, current in zip(modes, modes[1:]):
            assert not (previous is Mode.SOFT and current is Mode.INSTANT)
            assert current is not Mode.DEFERRED

    def test_alternating_half_margin_transitions_once(self):
        high = PARAMS.budget_b_l + PARAMS.hysteresis_h / 2  # 2.125
        low = PARAMS.budget_b_l - PARAMS.hysteresis_h / 2   # 1.875
        state, modes = run_sequence([high, low] * 20)
        assert state.transitions == 1
        assert modes[0] is Mode.SOFT
        assert all(m is Mode.SOFT for m in modes)

    @given(st.lists(st.floats(min_value=0.0, max_value=6.0), min_size=1, max_size=80))
    @settings(max_examples=120)
    def test_single_step_locality(self, lps):
        state = GovernorState()
        for lp in lps:
            previous = state.mode.index
            state, _ = step(state, lp, PARAMS)
            assert abs(state.mode.index - previous) <= 1

    @pytest.mark.parametrize("lp", [0.0, 0.5, 1.0, 1.74, 2.1, 2.5, 2.74, 3.01, 3.5, 4.7])
    def test_steady_state_matches_stateless_rule(self, lp):
        # Constant input outside the hysteresis bands: two steps from a fresh
        # governor land on the stateless decision.
        state = GovernorState()
        for _ in range(2):
            state, _ = step(state, lp, PARAMS)
        assert state.mode is decide_simple(lp, 0.0, PARAMS)


def step_fold(lps, params=PARAMS):
    """(mode codes, transitions) of :func:`step` run over ``lps`` from a fresh governor."""
    state, codes = run_sequence(lps, GovernorState(), params)
    return [m.index for m in codes], state.transitions


@st.composite
def tight_thresholds(draw):
    """Params with the thresholds as close as ``ModelParams`` allows, and a stream on or
    1 ulp off them that flips one threshold comparison on every value (then each value
    repeated 1-3 times)."""
    budget = draw(st.floats(min_value=1e-323, max_value=1e3))
    below_budget = math.nextafter(budget, 0.0)
    h = draw(st.sampled_from([5e-324, below_budget]) | st.floats(5e-324, below_budget))
    above_budget = math.nextafter(budget, math.inf)
    soft = draw(st.just(above_budget) | st.floats(above_budget, 4.0 * budget))
    params = ModelParams(budget_b_l=budget, budget_soft=soft, hysteresis_h=h)
    greater = (budget, soft)        # the rule asks lp > t
    less = (budget - h, soft - h)   # the rule asks lp < t
    lp = draw(st.sampled_from(greater + less))
    stream = []
    for which, on in draw(st.lists(st.tuples(st.integers(0, 3), st.booleans()), max_size=60)):
        if which < 2:
            t = greater[which]
            if lp > t:
                lp = t if on else math.nextafter(t, -math.inf)
            else:
                lp = math.nextafter(t, math.inf)
        else:
            t = less[which - 2]
            if lp < t:
                lp = t if on else math.nextafter(t, math.inf)
            else:
                lp = math.nextafter(t, -math.inf)
        stream.append(lp)
    repeat = draw(st.integers(1, 3))
    return params, [value for value in stream for _ in range(repeat)]


def run_modes(lps, params=PARAMS):
    """(mode codes, transitions) of one :func:`modes` call over ``lps``."""
    out = np.empty(len(lps), dtype=np.int8)
    transitions = modes(lps, params, out)
    return out.tolist(), transitions


class TestModes:
    @pytest.mark.parametrize(
        "lps, codes, transitions",
        [
            ([3.5], [1], 1),
            ([3.5, 3.5, 3.5], [1, 2, 2], 2),
            ([1.0, 3.5, 3.5, 1.0], [0, 1, 2, 1], 3),
            ([], [], 0),
        ],
    )
    def test_hand_written(self, lps, codes, transitions):
        out = np.full(len(lps), -1, dtype=np.int8)
        got = modes(lps, PARAMS, out)
        assert type(got) is int
        assert (out.tolist(), got) == (codes, transitions)

    def test_array_and_list_agree(self):
        lps = np.random.default_rng(4).uniform(0.0, 4.0, 500)
        assert run_modes(lps) == run_modes(lps.tolist())

    @given(case=tight_thresholds())
    @settings(derandomize=True, max_examples=300)
    def test_matches_step_fold_on_tight_thresholds(self, case):
        params, lps = case
        assert run_modes(lps, params) == step_fold(lps, params=params)

    def test_next_mode_calls_bounded_by_patterns(self, monkeypatch):
        # Each of the 16 threshold patterns asks next_mode once per mode, however
        # long the stream and however many blocks it spans: a loop over every value
        # would make 200k calls.
        calls = []

        def counting(*args):
            calls.append(args)
            return next_mode(*args)

        monkeypatch.setattr("latgov.governor.next_mode", counting)
        lps = np.random.default_rng(9).choice([0.0, *THRESHOLDS, 2.5, 3.5], size=200_000)
        codes, _ = run_modes(lps)
        assert len(codes) == 200_000
        assert 0 < len(calls) <= 48

    @given(lps=lp_streams)
    @settings(derandomize=True, max_examples=300)
    def test_matches_step_fold(self, lps):
        assert run_modes(lps) == step_fold(lps)

    @pytest.mark.parametrize("n", [ROLLING_BLOCK - 1, ROLLING_BLOCK + 1, 3 * ROLLING_BLOCK + 7])
    def test_blocks_carry_the_mode(self, n):
        """The walk goes a block at a time; a mode change on a block's first value is
        made and counted against the mode the block before it ended in."""
        i = np.arange(n)
        lps = np.where(i // ROLLING_BLOCK % 2 == 0, 3.5, 1.0)
        lps[i % ROLLING_BLOCK % 5 == 2] = 2.5  # runs inside each block, none first in one
        codes, transitions = run_modes(lps)
        assert (codes, transitions) == step_fold(lps.tolist())
        assert codes[0] != Mode.INSTANT.index
        for first in range(ROLLING_BLOCK, n, ROLLING_BLOCK):
            assert codes[first] != codes[first - 1]

    @pytest.mark.parametrize("size", [2, 4])
    def test_out_of_another_length_is_rejected(self, size):
        with pytest.raises(ValueError, match="out holds"):
            modes([1.0, 3.5, 3.5], PARAMS, np.empty(size, dtype=np.int8))

    def test_scratch_does_not_grow_with_the_stream(self):
        lps = np.random.default_rng(3).uniform(0.0, 4.0, 1_000_000)
        out = np.empty(len(lps), dtype=np.int8)
        modes(lps, PARAMS, out)  # first-call allocations are not the walk's
        tracemalloc.start()
        try:
            modes(lps, PARAMS, out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024, peak

    def test_mode_shares_name_every_mode(self):
        codes = np.array([1, 2, 2, 2], dtype=np.int8)  # soft, then deferred
        assert mode_shares(codes) == {"instant": 0.0, "soft": 0.25, "deferred": 0.75}

    def test_mode_shares_of_no_codes_is_rejected(self):
        with pytest.raises(ValueError, match="no codes"):
            mode_shares(np.zeros(0, dtype=np.int8))


class TestSloEscalation:
    ESCALATED = SloStatus(consecutive_breaches=ESCALATION_WINDOWS)
    CALM = SloStatus()

    def test_forces_instant_to_soft(self):
        state = apply_slo_escalation(GovernorState(), self.ESCALATED)
        assert state.mode is Mode.SOFT
        assert state.transitions == 1

    def test_never_relaxes_deferred(self):
        start = GovernorState(mode=Mode.DEFERRED)
        assert apply_slo_escalation(start, self.ESCALATED) == start

    def test_soft_unchanged(self):
        start = GovernorState(mode=Mode.SOFT)
        assert apply_slo_escalation(start, self.ESCALATED) == start

    def test_no_escalation_no_change(self):
        start = GovernorState()
        assert apply_slo_escalation(start, self.CALM) == start

    def test_never_moves_toward_instant(self):
        for mode in MODE_ORDER:
            for slo in (self.ESCALATED, self.CALM):
                state = apply_slo_escalation(GovernorState(mode=mode), slo)
                assert state.mode.index >= mode.index


class TestRolloutGuard:
    def test_low_trust_pauses(self):
        state = rollout_guard(trust=0.3, conv_drop=0.0, theta=0.5)
        assert state.stage == "pause"
        assert state.forced_mode is Mode.SOFT

    def test_healthy_continues(self):
        state = rollout_guard(trust=0.8, conv_drop=0.0, theta=0.5)
        assert state.stage == "continue"
        assert state.forced_mode is None

    def test_conversion_drop_pauses(self):
        state = rollout_guard(trust=0.8, conv_drop=0.05, theta=0.5, max_drop=0.02)
        assert state.stage == "pause"
        assert state.forced_mode is Mode.SOFT

    def test_boundaries_do_not_trigger(self):
        # trust == theta and conv_drop == max_drop are still healthy
        assert rollout_guard(0.5, 0.02, 0.5).stage == "continue"

    def test_monotone(self):
        import numpy as np

        rng = np.random.default_rng(31)
        for _ in range(200):
            trust = float(rng.uniform(0, 1))
            drop = float(rng.uniform(-0.05, 0.1))
            worse_trust = trust - float(rng.uniform(0, trust))
            worse_drop = drop + float(rng.uniform(0, 0.1))
            if rollout_guard(trust, drop, 0.5).stage == "pause":
                assert rollout_guard(worse_trust, drop, 0.5).stage == "pause"
                assert rollout_guard(trust, worse_drop, 0.5).stage == "pause"

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            rollout_guard(float("nan"), 0.0, 0.5)
        with pytest.raises(ValueError):
            rollout_guard(0.5, float("inf"), 0.5)

    def test_pause_requires_soft(self):
        assert RolloutState("pause").forced_mode is Mode.SOFT
        assert RolloutState("continue").forced_mode is None
        with pytest.raises(ValueError):
            RolloutState(stage="rollback")


class TestStateValidation:
    def test_negative_transitions_rejected(self):
        with pytest.raises(ValueError):
            GovernorState(transitions=-1)

    def test_mode_index_order(self):
        assert [m.index for m in MODE_ORDER] == [0, 1, 2]
        assert [m.value for m in MODE_ORDER] == ["instant", "soft", "deferred"]
