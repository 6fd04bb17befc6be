"""Simulator tests: rail sampling, determinism, conservation, coupled-policy
monotonicity, direction checks, and the analytic closed-form cross-check."""

import math
import tracemalloc
from collections import Counter
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest

from latgov.governor import GovernorState, Mode, mode_shares, step
from latgov import simulator
from latgov.config import (
    POLICY_KINDS,
    Mitigation,
    PolicySpec,
    RailDistribution,
    SimConfig,
    SimResult,
    quantile_mode_rows,
)
from latgov.model import ContextProfile, ModelParams, sigmoid
from latgov.simulator import (
    compare_policies,
    draw_variates,
    quantile_mode_report,
    run_burst,
    run_simulation,
    simulate_paths,
)
from latgov.telemetry import ROLLING_BLOCK, WindowStats, nearest_rank, perceived_stream
from reference import simulate_session

Z90 = 1.2815515655446004
Z99 = 2.3263478740408408

BURST_RAIL = RailDistribution.from_median(2.8, 0.3569356868633699)


def small_cfg(**overrides):
    base = dict(sessions=4000, seed=101)
    base.update(overrides)
    return SimConfig(**base)


class TestRailDistribution:
    def test_defaults_anchor_median(self):
        rail = RailDistribution()
        assert rail.quantile(0.5) == pytest.approx(1.4, abs=1e-12)

    def test_analytic_p99(self):
        rail = RailDistribution()
        oracle = 1.4 * math.exp(0.5207 * Z99)
        assert rail.quantile(0.99) == pytest.approx(oracle, rel=1e-9)

    def test_shift_applies(self):
        rail = RailDistribution.from_median(1.0, 0.0, shift_s=0.5)
        assert rail.quantile(0.5) == pytest.approx(1.5, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            RailDistribution(sigma_log=-0.1)
        with pytest.raises(ValueError):
            RailDistribution(shift_s=-0.1)
        with pytest.raises(ValueError):
            RailDistribution.from_median(0.0, 0.5)
        with pytest.raises(ValueError):
            RailDistribution().quantile(0.0)

    def test_degenerate_sampling(self):
        rng = np.random.default_rng(1)
        rail = RailDistribution.from_median(1.4, 0.0)
        for _ in range(5):
            assert rail.latency(rng.standard_normal()) == pytest.approx(1.4, abs=1e-12)

    def test_sampling_matches_formula(self):
        rail = RailDistribution.from_median(1.4, 0.5207)
        z = np.random.default_rng(9).standard_normal(100)
        expected = np.exp(rail.mu_log + rail.sigma_log * z)
        got = rail.latency(np.random.default_rng(9).standard_normal(100))
        assert np.array_equal(got, expected)

    def test_latency_float_and_array_agree(self):
        rail = RailDistribution.from_median(1.4, 0.5207, shift_s=0.3)
        z = np.random.default_rng(5).standard_normal(50)
        want = [rail.latency(v) for v in z.tolist()]  # math.exp; np.exp may differ by an ulp
        assert rail.latency(z).tolist() == pytest.approx(want, rel=1e-15)

    def test_empirical_quantiles(self):
        rail = RailDistribution()
        samples = np.sort(rail.latency(np.random.default_rng(4).standard_normal(200_000)))
        median = samples[len(samples) // 2 - 1]
        p99 = samples[math.ceil(0.99 * len(samples)) - 1]
        assert median == pytest.approx(1.40, abs=0.02)
        assert p99 == pytest.approx(rail.quantile(0.99), abs=0.15)


class TestConfigValidation:
    def test_sessions_must_be_positive(self):
        with pytest.raises(ValueError, match="sessions must be positive"):
            SimConfig(sessions=0)

    def test_other_invariants(self):
        with pytest.raises(ValueError):
            SimConfig(sessions=10, seed=-1)
        with pytest.raises(ValueError, match="beta"):
            SimConfig(sessions=10, params=ModelParams(beta=1e308), ctx=ContextProfile(m_c=1e10))
        with pytest.raises(ValueError):
            SimConfig(sessions=10, engagement_ceiling=0.0)
        with pytest.raises(ValueError):
            SimConfig(sessions=10, window_capacity=0)
        with pytest.raises(ValueError):
            Mitigation(rho_soft=0.3, rho_deferred=0.6)
        with pytest.raises(ValueError):
            Mitigation(rho_soft=1.2, rho_deferred=0.3)
        with pytest.raises(ValueError):
            PolicySpec(kind="manual")
        with pytest.raises(ValueError):
            PolicySpec(static_threshold_s=0.0)

    def test_dict_round_trip(self):
        cfg = SimConfig(
            sessions=123,
            seed=9,
            rail=RailDistribution.from_median(2.8, 0.35),
            policy=PolicySpec(kind="static_messaging", static_threshold_s=1.5),
            params=ModelParams(alpha=1.5),
            ctx=ContextProfile(m_c=1.3),
            mitigation=Mitigation(rho_soft=0.7, rho_deferred=0.2),
            engagement_ceiling=0.2,
            window_capacity=64,
        )
        assert SimConfig.from_dict(cfg.to_dict()) == cfg

    def test_to_dict_keys_are_the_dataclass_fields(self):
        """A field added to any config dataclass must reach ``--out``."""

        def check(obj, doc, where):
            assert set(doc) == {f.name for f in fields(obj)}, where
            for f in fields(obj):
                value = getattr(obj, f.name)
                if is_dataclass(value):
                    check(value, doc[f.name], f"{where}.{f.name}")
                else:
                    assert not isinstance(doc[f.name], dict), f"{where}.{f.name}"

        check(SimConfig(sessions=5), SimConfig(sessions=5).to_dict(), "config")
        result = run_simulation(small_cfg())
        doc = result.to_dict()
        assert set(doc) == {f.name for f in fields(SimResult)}
        assert doc["mode_shares"] == result.mode_shares
        assert doc["mode_shares"] is not result.mode_shares

    def test_from_dict_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown"):
            SimConfig.from_dict({"sessions": 10, "velocity": 3})
        with pytest.raises(ValueError, match="unknown"):
            SimConfig.from_dict({"sessions": 10, "params": {"alfa": 2}})

    def test_values_json_cannot_hold_keep_their_repr(self):
        # From a Python caller; a --config document's values are named as JSON.
        for doc, message in (
            ({"seed": float("nan")}, "simulation config field seed must be int, got nan"),
            ({"sessions": 2j}, "simulation config field sessions must be int, got 2j"),
        ):
            with pytest.raises(ValueError) as error:
                SimConfig.from_dict(doc)
            assert str(error.value) == message


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        cfg = small_cfg()
        a = simulate_paths(cfg)
        b = simulate_paths(cfg)
        for name in ("latency_s", "perceived_s", "trust"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        for name in ("mode", "abandoned", "converted", "repeated"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_same_seed_same_result(self):
        cfg = small_cfg()
        assert run_simulation(cfg) == run_simulation(cfg)

    def test_different_seed_differs(self):
        a = simulate_paths(small_cfg(seed=1))
        b = simulate_paths(small_cfg(seed=2))
        assert not np.array_equal(a.latency_s, b.latency_s)

    def test_seeds_agree_within_noise(self):
        r1 = run_simulation(small_cfg(sessions=50_000, seed=1))
        r2 = run_simulation(small_cfg(sessions=50_000, seed=2))
        sigma = math.sqrt(0.25 / 50_000)
        assert abs(r1.conversion_rate - r2.conversion_rate) < 6 * sigma


class TestOutcomeStructure:
    def test_conservation(self):
        trace = simulate_paths(small_cfg())
        n = len(trace.latency_s)
        abandoned = int(np.count_nonzero(trace.abandoned))
        converted = int(np.count_nonzero(trace.converted))
        neither = int(np.count_nonzero(~trace.abandoned & ~trace.converted))
        assert abandoned + converted + neither == n
        assert not np.any(trace.abandoned & trace.converted)

    def test_repeat_requires_conversion(self):
        trace = simulate_paths(small_cfg())
        assert not np.any(trace.repeated & ~trace.converted)

    def test_single_session_rates_are_binary(self):
        result = run_simulation(SimConfig(sessions=1, seed=3))
        assert result.conversion_rate in (0.0, 1.0)
        assert result.abandonment_rate in (0.0, 1.0)

    def test_mode_shares_sum_to_one(self):
        result = run_simulation(small_cfg())
        assert sum(result.mode_shares.values()) == pytest.approx(1.0, abs=1e-9)
        assert result.conversion_rate + result.abandonment_rate <= 1.0

    def test_result_dict_round_trip(self):
        result = run_simulation(small_cfg())
        assert SimResult.from_dict(result.to_dict()) == result

    def test_result_invariants_enforced(self):
        valid = dict(
            conversion_rate=0.5, abandonment_rate=0.1, repeat_rate=0.1, mean_trust=0.5,
            mode_shares={"instant": 1.0}, latency_p50=1.0, latency_p90=2.0, latency_p99=3.0,
        )
        SimResult(**valid)
        for bad, message in (
            ({"conversion_rate": 0.8, "abandonment_rate": 0.4}, "cannot exceed 1 combined"),
            ({"mode_shares": {"instant": 0.5, "soft": 0.2}}, "must sum to 1"),
            ({"conversion_rate": -5}, "conversion_rate must be inside"),
            ({"abandonment_rate": 1.5}, "abandonment_rate must be inside"),
            ({"repeat_rate": -0.1}, "repeat_rate must be inside"),
            ({"mean_trust": 2.0}, "mean_trust must be inside"),
            ({"mode_shares": {"instant": 1.5, "soft": -0.5}}, "mode share instant"),
            ({"latency_p50": -1.0}, "quantiles must be ordered"),
            ({"latency_p90": 0.5}, "quantiles must be ordered"),
            ({"latency_p99": 1.5}, "quantiles must be ordered"),
            ({"mode_shares": {"bogus": 1.0}}, "mode_shares key 'bogus' must be one of"),
        ):
            with pytest.raises(ValueError, match=message):
                SimResult(**{**valid, **bad})
        # A share that is not a JSON number (a boolean is not one) is refused on decoding.
        for share in ("x", None, True):
            doc = {**valid, "mode_shares": {"instant": share, "soft": 0.0, "deferred": 0.0}}
            with pytest.raises(ValueError, match=r"field mode_shares\['instant'\] must be float"):
                SimResult.from_dict(doc)


class TestPolicyCoupling:
    def test_unit_mitigation_matches_no_governance(self):
        # With rho == 1 the governor changes modes but not outcomes.
        kwargs = dict(sessions=6000, seed=5, mitigation=Mitigation(rho_soft=1.0, rho_deferred=1.0))
        letw = simulate_paths(SimConfig(policy=PolicySpec(kind="letw"), **kwargs))
        none = simulate_paths(SimConfig(policy=PolicySpec(kind="none"), **kwargs))
        for name in ("abandoned", "converted", "repeated"):
            assert np.array_equal(getattr(letw, name), getattr(none, name))
        assert not np.array_equal(letw.mode, none.mode)

    def test_fast_rail_policies_identical(self):
        # Latencies pinned below every threshold: governance never triggers.
        rail = RailDistribution.from_median(1.0, 0.0)
        results = {
            kind: simulate_paths(
                SimConfig(sessions=3000, seed=8, rail=rail, policy=PolicySpec(kind=kind))
            )
            for kind in ("none", "static_messaging", "letw")
        }
        reference = results["none"]
        assert np.all(reference.mode == 0)
        for trace in results.values():
            for name in ("mode", "abandoned", "converted", "repeated"):
                assert np.array_equal(getattr(trace, name), getattr(reference, name))

    def test_mitigation_monotone_in_rho(self):
        strong = SimConfig(
            sessions=20_000, seed=13, rail=BURST_RAIL,
            mitigation=Mitigation(rho_soft=0.5, rho_deferred=0.3),
        )
        weak = replace(strong, mitigation=Mitigation(rho_soft=0.9, rho_deferred=0.3))
        t_strong = simulate_paths(strong)
        t_weak = simulate_paths(weak)
        # Per-session: anything abandoned under the stronger mitigation is
        # also abandoned under the weaker one.
        assert np.all(t_weak.abandoned | ~t_strong.abandoned)
        assert run_simulation(strong).abandonment_rate <= run_simulation(weak).abandonment_rate


class TestDirections:
    def test_jitter_lowers_conversion(self):
        lo = run_simulation(
            SimConfig(sessions=30_000, seed=2, rail=RailDistribution.from_median(1.4, 0.3),
                      policy=PolicySpec(kind="none"))
        )
        hi = run_simulation(
            SimConfig(sessions=30_000, seed=2, rail=RailDistribution.from_median(1.4, 0.8),
                      policy=PolicySpec(kind="none"))
        )
        assert hi.conversion_rate < lo.conversion_rate

    def test_burst_directions(self):
        ungoverned, governed = run_burst(SimConfig(sessions=20_000, seed=3), BURST_RAIL)
        assert governed.abandonment_rate < ungoverned.abandonment_rate
        assert governed.repeat_rate > ungoverned.repeat_rate

    def test_burst_without_mitigation_coincides(self):
        base = SimConfig(sessions=5000, seed=4, mitigation=Mitigation(rho_soft=1.0, rho_deferred=1.0))
        ungoverned, governed = run_burst(base, BURST_RAIL)
        assert ungoverned.conversion_rate == governed.conversion_rate
        assert ungoverned.abandonment_rate == governed.abandonment_rate
        assert ungoverned.repeat_rate == governed.repeat_rate

    def test_policy_comparison_ordering(self):
        results = compare_policies(SimConfig(sessions=30_000, seed=6))
        trust = {kind: r.mean_trust for kind, r in results.items()}
        assert trust["letw"] >= trust["static_messaging"] >= trust["none"]
        assert results["letw"].repeat_rate > results["none"].repeat_rate


class TestAnalyticCrossCheck:
    def test_degenerate_rail_matches_closed_form(self):
        params = ModelParams()
        n = 50_000
        result = run_simulation(
            SimConfig(
                sessions=n,
                seed=5,
                rail=RailDistribution.from_median(1.0, 0.0),
                policy=PolicySpec(kind="none"),
                params=params,
            )
        )
        rate = params.lambda0 * math.exp(params.gamma * 1.0)
        survival = math.exp(-rate * 1.0)
        conv_expected = survival * sigmoid(params.alpha - params.beta * 1.0)
        aband_expected = 1.0 - survival
        sigma_c = math.sqrt(conv_expected * (1 - conv_expected) / n)
        sigma_a = math.sqrt(aband_expected * (1 - aband_expected) / n)
        assert abs(result.conversion_rate - conv_expected) <= 3 * sigma_c
        assert abs(result.abandonment_rate - aband_expected) <= 3 * sigma_a


class TestSimulateSession:
    CFG = SimConfig(sessions=10, seed=0)

    @staticmethod
    def draws(rng):
        """One session's patience, conversion and repeat values, in lane order."""
        return rng.standard_exponential(), rng.random(), rng.random()

    def test_zero_latency_never_abandons(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            outcome, _ = simulate_session(
                0.0, *self.draws(rng), WindowStats(5, 1.0, 0.2, 1.0, 1.2, 1.3), GovernorState(),
                self.CFG,
            )
            assert not outcome.abandoned

    def test_static_policy_uses_raw_latency(self):
        cfg = replace(self.CFG, policy=PolicySpec(kind="static_messaging", static_threshold_s=2.0))
        rng = np.random.default_rng(1)
        stats = WindowStats(5, 1.0, 0.0, 1.0, 1.0, 1.0)
        fast, _ = simulate_session(1.9, *self.draws(rng), stats, GovernorState(), cfg)
        slow, _ = simulate_session(2.1, *self.draws(rng), stats, GovernorState(), cfg)
        assert fast.mode is Mode.INSTANT
        assert slow.mode is Mode.SOFT

    def test_burst_regime_defers(self):
        # Perceived latency ~3.9 s from a soft state lands in deferred mode.
        stats = WindowStats(50, 3.0, 1.125, 3.0, 4.3, 5.0)  # lp = 3.0 + 0.8 * 1.125 = 3.9
        outcome, gov = simulate_session(
            2.8, *self.draws(np.random.default_rng(2)), stats, GovernorState(mode=Mode.SOFT),
            self.CFG,
        )
        assert outcome.mode is Mode.DEFERRED
        assert gov.mode is Mode.DEFERRED
        assert outcome.perceived_s == pytest.approx(3.9, abs=1e-12)

    def test_none_policy_keeps_governor(self):
        cfg = replace(self.CFG, policy=PolicySpec(kind="none"))
        gov = GovernorState(mode=Mode.SOFT)
        outcome, next_gov = simulate_session(
            1.0, *self.draws(np.random.default_rng(3)), WindowStats(5, 1.0, 0.0, 1.0, 1.0, 1.0),
            gov, cfg,
        )
        assert outcome.mode is Mode.INSTANT
        assert next_gov == gov


def test_letw_mode_carries_across_blocks():
    # A rail median near the budget keeps letw off instant at block edges.
    cfg = SimConfig(
        sessions=3 * ROLLING_BLOCK + 17, seed=3, rail=RailDistribution.from_median(1.17, 0.5207)
    )
    trace = simulate_paths(cfg)
    state, codes = GovernorState(), []
    for lp in trace.perceived_s.tolist():
        state, decision = step(state, lp, cfg.params)
        codes.append(decision.mode.index)
    assert trace.mode.tolist() == codes
    assert trace.governor_transitions == state.transitions
    assert trace.mode[ROLLING_BLOCK - 1 :: ROLLING_BLOCK].any()


@pytest.mark.parametrize("sessions, window", [(1, 256), (2, 256), (ROLLING_BLOCK + 3, 7)])
def test_sessions_read_the_window_one_session_late(sessions, window):
    """Session 0 sees the empty window; session i the one ending with session i - 1."""
    trace = simulate_paths(SimConfig(sessions=sessions, seed=9, window_capacity=window))
    assert trace.perceived_s.shape == (sessions,)
    assert trace.perceived_s[0] == 0.0
    want = perceived_stream(trace.latency_s[:-1], window, ModelParams().k)
    assert np.array_equal(trace.perceived_s[1:], want)


@pytest.mark.parametrize("draw", ["standard_normal", "standard_exponential", "random"])
@pytest.mark.parametrize("n", [1, ROLLING_BLOCK, ROLLING_BLOCK + 1, 3 * ROLLING_BLOCK + 7])
def test_block_draws_join_to_one_draw(draw, n):
    """The fact the lanes' byte identity rests on: a Generator draws k values then m
    values exactly as it draws k + m, and ends in the same state."""
    blocks, whole = np.random.default_rng(12), np.random.default_rng(12)
    sizes = [min(ROLLING_BLOCK, n - start) for start in range(0, n, ROLLING_BLOCK)]
    joined = np.concatenate([getattr(blocks, draw)(size) for size in sizes])
    assert joined.tobytes() == getattr(whole, draw)(n).tobytes()
    assert blocks.bit_generator.state == whole.bit_generator.state


def test_lanes_are_drawn_in_order_each_block_when_taken():
    n = 2 * ROLLING_BLOCK + 5
    rng, fresh = np.random.default_rng(8), np.random.default_rng(8)
    lanes = draw_variates(rng, n)
    for draw in (fresh.standard_normal, fresh.standard_exponential, fresh.random, fresh.random):
        lane = next(lanes)
        assert rng.bit_generator.state == fresh.bit_generator.state  # nothing drawn yet
        for size in (ROLLING_BLOCK, ROLLING_BLOCK, 5):
            assert np.array_equal(next(lane), draw(size))
            assert rng.bit_generator.state == fresh.bit_generator.state  # one block at a time
        assert next(lane, None) is None
    assert next(lanes, None) is None


def test_overflow_in_the_last_latency_is_rejected(monkeypatch):
    """No window holds the last session's latency, so perceived latency cannot catch it."""

    def lanes(rng, n):
        latency_z = np.zeros(n)
        latency_z[-1] = 1e4  # exp(0.52 * 1e4) overflows
        return iter([[latency_z], [np.ones(n)], [np.full(n, 0.5)], [np.full(n, 0.5)]])

    monkeypatch.setattr("latgov.simulator.draw_variates", lanes)
    with pytest.raises(ValueError, match="latencies overflow a float"):
        simulate_paths(SimConfig(sessions=10))


NEAR_BUDGET_RAIL = RailDistribution.from_median(1.17, 0.5207)


def with_policy(cfg, kind):
    return replace(cfg, policy=replace(cfg.policy, kind=kind))


@pytest.mark.parametrize("window", [1, 256])
def test_compare_policies_equals_one_run_per_policy(window):
    cfg = SimConfig(
        sessions=2 * ROLLING_BLOCK + 101, seed=17, rail=NEAR_BUDGET_RAIL, window_capacity=window
    )
    results = compare_policies(cfg)
    assert list(results) == list(POLICY_KINDS)
    for kind, result in results.items():
        assert result == run_simulation(with_policy(cfg, kind)), kind
    assert results["letw"] != results["none"] != results["static_messaging"]


@pytest.mark.parametrize("window", [1, 256])
def test_run_burst_equals_one_run_per_policy(window):
    base = SimConfig(sessions=2 * ROLLING_BLOCK + 101, seed=23, window_capacity=window)
    ungoverned, governed = run_burst(base, NEAR_BUDGET_RAIL)
    burst = replace(base, rail=NEAR_BUDGET_RAIL)
    assert ungoverned == run_simulation(with_policy(burst, "none"))
    assert governed == run_simulation(with_policy(burst, "letw"))
    assert governed != ungoverned


def test_policies_share_one_draw_and_one_window_pass(monkeypatch):
    calls = Counter()

    def counted(name):
        real = getattr(simulator, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    def counted_blocks(lane):
        calls["lanes"] += 1
        for block in lane:
            calls["blocks"] += 1
            yield block

    def counted_lanes(rng, n):
        calls["draw_variates"] += 1
        return map(counted_blocks, draw_variates(rng, n))

    monkeypatch.setattr(simulator, "perceived_stream", counted("perceived_stream"))
    monkeypatch.setattr(simulator, "draw_variates", counted_lanes)
    cfg = SimConfig(sessions=ROLLING_BLOCK + 7, seed=5, rail=NEAR_BUDGET_RAIL)
    want = {"draw_variates": 1, "lanes": 4, "blocks": 4 * 2, "perceived_stream": 1}
    compare_policies(cfg)
    assert calls == want
    calls.clear()
    run_burst(cfg, BURST_RAIL)
    assert calls == want


def sorted_quantiles(latencies):
    ordered = np.sort(latencies)
    return tuple(nearest_rank(ordered, q) for q in (0.50, 0.90, 0.99))


@pytest.mark.parametrize("sessions", [1, 2, ROLLING_BLOCK + 7])
def test_carried_quantiles_are_nearest_rank_of_the_sorted_latencies(sessions):
    cfg = SimConfig(sessions=sessions, seed=29, rail=NEAR_BUDGET_RAIL)
    trace = simulate_paths(cfg)
    want = sorted_quantiles(trace.latency_s)
    assert trace.latency_quantiles == want
    assert all(type(q) is float for q in trace.latency_quantiles)
    burst = simulate_paths(with_policy(replace(cfg, rail=BURST_RAIL), "none"))
    results = [*compare_policies(cfg).values(), *run_burst(cfg, BURST_RAIL)]
    wants = [want] * len(POLICY_KINDS) + [sorted_quantiles(burst.latency_s)] * 2
    for result, quantiles in zip(results, wants):
        assert (result.latency_p50, result.latency_p90, result.latency_p99) == quantiles


@pytest.mark.parametrize("kind", POLICY_KINDS)
@pytest.mark.parametrize("sessions, window", [(1, 256), (ROLLING_BLOCK, 7), (2 * ROLLING_BLOCK + 9, 256)])
def test_trace_and_result_are_folds_of_one_pass(kind, sessions, window):
    cfg = SimConfig(
        sessions=sessions, seed=31, rail=NEAR_BUDGET_RAIL, window_capacity=window,
        policy=PolicySpec(kind=kind),
    )
    trace, result = simulate_paths(cfg), run_simulation(cfg)
    assert len(trace.latency_s) == sessions
    assert result.conversion_rate == np.count_nonzero(trace.converted) / sessions
    assert result.abandonment_rate == np.count_nonzero(trace.abandoned) / sessions
    assert result.repeat_rate == np.count_nonzero(trace.repeated) / sessions
    assert result.mean_trust == float(np.mean(trace.trust))
    assert result.mode_shares == mode_shares(trace.mode)
    assert (result.latency_p50, result.latency_p90, result.latency_p99) == trace.latency_quantiles


@pytest.mark.parametrize("kind", POLICY_KINDS)
def test_trace_keeps_its_types(kind):
    n = 2 * ROLLING_BLOCK + 9
    trace = simulate_paths(
        SimConfig(sessions=n, seed=37, rail=NEAR_BUDGET_RAIL, policy=PolicySpec(kind=kind))
    )
    arrays = {
        "mode": np.int8, "abandoned": np.bool_, "converted": np.bool_, "repeated": np.bool_,
        "latency_s": np.float64, "perceived_s": np.float64, "trust": np.float64,
    }
    assert sorted(vars(trace)) == sorted([*arrays, "governor_transitions", "latency_quantiles"])
    for name, dtype in arrays.items():
        value = getattr(trace, name)
        assert type(value) is np.ndarray and value.shape == (n,) and value.dtype == dtype, name
    assert type(trace.governor_transitions) is int
    assert (trace.governor_transitions != 0) == (kind == "letw")
    assert type(trace.latency_quantiles) is tuple
    assert [type(q) for q in trace.latency_quantiles] == [float] * 3


@pytest.mark.parametrize("run, budget", [(compare_policies, 24), (run_simulation, 21)])
def test_pass_memory_budget(run, budget):
    """The pass keeps only what the results need: bytes per session at its tracemalloc peak."""
    n = 200_000
    cfg = SimConfig(sessions=n, seed=3, policy=PolicySpec(kind="letw"))
    run(cfg)  # first-call allocations are not the pass's
    tracemalloc.start()
    try:
        run(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= budget * n, peak / n


class TestQuantileModeReport:
    def test_default_rail_modes(self):
        rows = quantile_mode_report(SimConfig(sessions=10))
        by_name = {r.statistic: r for r in rows}
        assert by_name["p50"].mode is Mode.INSTANT
        assert by_name["p90"].mode is Mode.SOFT
        assert by_name["p99"].mode is Mode.DEFERRED
        assert by_name["p50"].latency_s == pytest.approx(1.4, abs=1e-9)

    def test_explicit_quantiles(self):
        quantiles = {"p50": 1.4, "p90": 2.2, "p99": 4.7}
        rows = quantile_mode_rows(quantiles, ModelParams(), ContextProfile())
        assert [r.mode for r in rows] == [Mode.INSTANT, Mode.SOFT, Mode.DEFERRED]
        assert rows[0].conversion == pytest.approx(sigmoid(1.95 - 0.45 * 1.4), abs=1e-12)
        assert rows[0].conversion == pytest.approx(0.789182, abs=1e-6)

    def test_degenerate_rail_all_instant(self):
        cfg = SimConfig(sessions=10, rail=RailDistribution.from_median(1.4, 0.0))
        rows = quantile_mode_report(cfg)
        assert all(r.latency_s == pytest.approx(1.4, abs=1e-12) for r in rows)
        assert all(r.mode is Mode.INSTANT for r in rows)

    def test_context_scales_conversion(self):
        ctx = ContextProfile(m_c=1.3)
        rows = quantile_mode_rows({"p50": 2.0}, ModelParams(), ctx)
        assert rows[0].conversion == pytest.approx(sigmoid(1.95 - 0.45 * 1.3 * 2.0), abs=1e-12)
