"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion. Expected values come from independent oracles
(closed-form arithmetic, brute-force statistics, binomial intervals)
computed inline, save the window statistics, whose brute-force oracle is
``oracle_stats`` of ``tests/reference.py``.
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from latgov.config import PolicySpec, RailDistribution, SimConfig
from latgov.governor import GovernorState, Mode, decide_simple, step
from latgov.model import (
    ModelParams,
    RevenueParams,
    calibrate_lambda0,
    conversion_probability,
    expected_revenue,
    fit_logistic_two_point,
    latency_budget,
    median_abandon_time,
    revenue_gradient,
    sigmoid,
    trust_score,
)
from latgov.simulator import compare_policies, run_burst, run_simulation
from latgov.telemetry import SloStatus, slo_track, window_stats
from reference import breach_window, oracle_stats, run_latgov, write_telemetry

PARAMS = ModelParams()
BURST_RAIL = RailDistribution.from_median(2.8, 0.3569356868633699)


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"[{label}] FAIL")
        raise
    print(f"[{label}] PASS")


def test_c01_closed_form_exactness():
    with criterion("criterion 01: closed-form exactness"):
        start = time.perf_counter()
        assert abs(conversion_probability(2.0, PARAMS) - 0.740775) < 1e-6
        assert abs(trust_score(PARAMS.budget_b_l, PARAMS) - 0.5) < 1e-6
        assert abs(latency_budget(0.5, PARAMS) - PARAMS.alpha / PARAMS.beta) < 1e-6
        assert abs(calibrate_lambda0(1.0, 7.0, 0.38) - 0.067717) < 1e-6
        assert time.perf_counter() - start < 1.0


def test_c02_round_trip_suite():
    with criterion("criterion 02: round-trip suite (1,000 draws each)"):
        start = time.perf_counter()
        rng = np.random.default_rng(2024)

        # budget <-> conversion (tau restricted to non-negative budgets)
        for _ in range(1000):
            alpha = float(rng.uniform(-2.0, 3.0))
            beta = float(rng.uniform(0.1, 2.0))
            params = ModelParams(alpha=alpha, beta=beta)
            tau = float(rng.uniform(0.02, sigmoid(alpha) - 1e-9))
            lat = latency_budget(tau, params)
            assert lat >= 0.0
            assert abs(conversion_probability(lat, params) - tau) < 1e-9

        # lambda0 <-> median abandonment
        for _ in range(1000):
            anchor_lat = float(rng.uniform(0.0, 5.0))
            anchor_median = float(rng.uniform(0.5, 30.0))
            gamma = float(rng.uniform(0.0, 1.0))
            lam0 = calibrate_lambda0(anchor_lat, anchor_median, gamma)
            params = ModelParams(gamma=gamma, lambda0=lam0)
            assert abs(median_abandon_time(anchor_lat, params) - anchor_median) < 1e-9

        # two-point fit <-> conversion
        for _ in range(1000):
            l1 = float(rng.uniform(0.0, 6.0))
            l2 = l1 + float(rng.uniform(0.1, 6.0))
            p1 = float(rng.uniform(0.1, 0.98))
            p2 = float(rng.uniform(0.02, p1 * 0.95))  # decreasing => beta > 0
            alpha, beta = fit_logistic_two_point((l1, p1), (l2, p2))
            fitted = ModelParams(alpha=alpha, beta=beta)
            assert abs(conversion_probability(l1, fitted) - p1) < 1e-9
            assert abs(conversion_probability(l2, fitted) - p2) < 1e-9

        assert time.perf_counter() - start < 5.0


def test_c03_hazard_anchor():
    with criterion("criterion 03: median abandonment at L=1 is 7.000 s"):
        assert abs(median_abandon_time(1.0, PARAMS) - 7.0) < 1e-6


def test_c04_quantile_mode_mapping():
    with criterion("criterion 04: (1.4, 2.2, 4.7) -> (instant, soft, deferred)"):
        modes = [decide_simple(lat, 0.0, PARAMS) for lat in (1.4, 2.2, 4.7)]
        assert modes == [Mode.INSTANT, Mode.SOFT, Mode.DEFERRED]


def test_c05_rail_distribution_anchors():
    with criterion("criterion 05: rail median 1.40 +/- 0.02, p99 4.7 +/- 0.15 (1e6 samples)"):
        start = time.perf_counter()
        n = 1_000_000
        rng = np.random.default_rng(4242)
        samples = np.sort(np.exp(math.log(1.4) + 0.5207 * rng.standard_normal(n)))
        median = samples[math.ceil(Fraction(1, 2) * n) - 1]
        p99 = samples[math.ceil(Fraction(99, 100) * n) - 1]
        assert abs(median - 1.40) <= 0.02
        assert abs(p99 - 4.7) <= 0.15
        assert time.perf_counter() - start < 10.0


def test_c06_hysteresis_no_flapping():
    with criterion("criterion 06: <= 1 transition inside the hysteresis band (1e4 sequences)"):
        lo = PARAMS.budget_b_l - PARAMS.hysteresis_h
        hi = PARAMS.budget_soft - PARAMS.hysteresis_h
        rng = np.random.default_rng(66)
        for _ in range(10_000):
            length = int(rng.integers(2, 32))
            lps = rng.uniform(lo + 1e-9, hi, size=length)
            state = GovernorState()
            for lp in lps:
                before = state.mode
                state, _ = step(state, float(lp), PARAMS)
                assert not (before is Mode.SOFT and state.mode is Mode.INSTANT)
            assert state.transitions <= 1

        state = GovernorState()
        high = PARAMS.budget_b_l + PARAMS.hysteresis_h / 2
        low = PARAMS.budget_b_l - PARAMS.hysteresis_h / 2
        for lp in [high, low] * 25:
            state, _ = step(state, lp, PARAMS)
        assert state.transitions == 1


def test_c07_revenue_gradient_matches_finite_differences():
    with criterion("criterion 07: gradient vs central differences, rel err <= 1e-6"):
        rng = np.random.default_rng(7)
        rev = RevenueParams(n_intents=5000, revenue_per_payment=1.75)
        for _ in range(20):
            lat = float(rng.uniform(0.05, 8.0))
            eps = 1e-5 * max(1.0, lat)
            fd = (
                expected_revenue(rev, lat + eps, PARAMS)
                - expected_revenue(rev, lat - eps, PARAMS)
            ) / (2.0 * eps)
            grad = revenue_gradient(rev, lat, PARAMS)
            assert abs(grad - fd) <= 1e-6 * abs(fd)


def test_c08_direction_suite():
    with criterion("criterion 08: jitter/burst/policy directions, 5 seeds x 1e5 sessions"):
        start = time.perf_counter()
        sessions = 100_000
        for seed in (11, 23, 37, 41, 53):
            low_jitter = run_simulation(
                SimConfig(sessions=sessions, seed=seed, policy=PolicySpec(kind="none"),
                          rail=RailDistribution.from_median(1.4, 0.3))
            )
            high_jitter = run_simulation(
                SimConfig(sessions=sessions, seed=seed, policy=PolicySpec(kind="none"),
                          rail=RailDistribution.from_median(1.4, 0.8))
            )
            assert high_jitter.conversion_rate < low_jitter.conversion_rate

            ungoverned, governed = run_burst(
                SimConfig(sessions=sessions, seed=seed), BURST_RAIL
            )
            assert governed.abandonment_rate < ungoverned.abandonment_rate
            assert governed.repeat_rate > ungoverned.repeat_rate

            results = compare_policies(SimConfig(sessions=sessions, seed=seed))
            trust = {kind: r.mean_trust for kind, r in results.items()}
            assert trust["letw"] >= trust["static_messaging"] >= trust["none"]
        assert time.perf_counter() - start < 60.0


def test_c09_simulator_analytic_cross_check():
    with criterion("criterion 09: degenerate rail matches survival x conversion closed form"):
        n = 100_000
        result = run_simulation(
            SimConfig(sessions=n, seed=5, rail=RailDistribution.from_median(1.0, 0.0),
                      policy=PolicySpec(kind="none"))
        )
        rate = PARAMS.lambda0 * math.exp(PARAMS.gamma * 1.0)
        survival = math.exp(-rate * 1.0)
        conv_expected = survival * sigmoid(PARAMS.alpha - PARAMS.beta * 1.0)
        aband_expected = 1.0 - survival
        sigma_c = math.sqrt(conv_expected * (1.0 - conv_expected) / n)
        sigma_a = math.sqrt(aband_expected * (1.0 - aband_expected) / n)
        assert abs(result.conversion_rate - conv_expected) <= 3.0 * sigma_c
        assert abs(result.abandonment_rate - aband_expected) <= 3.0 * sigma_a


def test_c10_telemetry_oracle_equivalence():
    with criterion("criterion 10: window stats vs brute-force oracle; escalation on 3rd breach"):
        rng = np.random.default_rng(10)
        for _ in range(1000):
            size = int(rng.integers(1, 64))
            capacity = int(rng.integers(1, 64))
            values = rng.uniform(0.0, 30.0, size=size)
            retained = [float(v) for v in values[-capacity:]]
            mean, std, p50, p90, p99 = oracle_stats(retained)
            stats = window_stats(retained)
            assert math.isclose(stats.mean_s, mean, rel_tol=1e-12, abs_tol=1e-12)
            assert math.isclose(stats.std_s, std, rel_tol=1e-12, abs_tol=1e-12)
            assert stats.p50_s == p50
            assert stats.p90_s == p90
            assert stats.p99_s == p99

        status = SloStatus()
        breaches = frozenset({"p90"})
        status = slo_track(status, breaches)
        assert not status.escalated
        status = slo_track(status, breaches)
        assert not status.escalated
        status = slo_track(status, breaches)
        assert status.escalated  # exactly the 3rd consecutive breaching window


def test_c11_end_to_end_determinism(tmp_path):
    with criterion("criterion 11: CLI determinism and SLO escalation exit code"):
        for out in ("run1.json", "run2.json"):
            proc = run_latgov(["simulate", "--sessions", "20000", "--seed", "42", "--out", out],
                              tmp_path)
            assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "run1.json").read_bytes() == (tmp_path / "run2.json").read_bytes()

        write_telemetry(tmp_path / "breaches.jsonl", breach_window(20) * 3)
        proc = run_latgov(["slo", "--telemetry", "breaches.jsonl", "--window", "20"], tmp_path)
        assert proc.returncode == 3, proc.stdout + proc.stderr
