"""Model-curve tests: frozen oracle values, round trips, shape invariants.

Expected numbers were computed from independent oracles (plain-form
sigmoid/logit arithmetic, numpy linear solves, central finite
differences) and frozen here; the oracles are re-run inline wherever
that is cheap.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latgov.model import (
    ContextProfile,
    ModelParams,
    RevenueParams,
    UserProfile,
    abandonment_hazard,
    calibrate_lambda0,
    context_conversion,
    conversion_probability,
    effective_budget,
    expected_revenue,
    fit_logistic_two_point,
    latency_budget,
    latency_elasticity,
    latency_utility,
    median_abandon_time,
    perceived_latency,
    revenue_gradient,
    sigmoid,
    trust_score,
    update_sensitivity,
)

PARAMS = ModelParams()
LN2 = math.log(2.0)


def naive_sigmoid(x: float) -> float:
    """Independent single-branch oracle; fine at the magnitudes tested."""
    return 1.0 / (1.0 + math.exp(-x))


class TestConversion:
    def test_zero_latency(self):
        assert conversion_probability(0.0, PARAMS) == pytest.approx(
            naive_sigmoid(1.95), abs=1e-12
        )
        assert conversion_probability(0.0, PARAMS) == pytest.approx(0.875446, abs=1e-6)

    def test_two_seconds(self):
        assert conversion_probability(2.0, PARAMS) == pytest.approx(
            naive_sigmoid(1.95 - 0.45 * 2.0), abs=1e-12
        )
        assert conversion_probability(2.0, PARAMS) == pytest.approx(0.740775, abs=1e-6)

    def test_beta_zero_is_constant(self):
        flat = ModelParams(beta=0.0)
        for lp in (0.0, 1.0, 5.0, 42.0):
            assert conversion_probability(lp, flat) == pytest.approx(
                naive_sigmoid(1.95), abs=1e-12
            )

    @pytest.mark.parametrize("bad", [-0.1, -5.0, float("nan")])
    def test_rejects_bad_latency(self, bad):
        with pytest.raises(ValueError):
            conversion_probability(bad, PARAMS)

    @given(
        lp1=st.floats(min_value=0.0, max_value=50.0),
        lp2=st.floats(min_value=0.0, max_value=50.0),
    )
    def test_strictly_decreasing(self, lp1, lp2):
        if abs(lp1 - lp2) < 1e-9:
            return
        lo, hi = sorted((lp1, lp2))
        assert conversion_probability(lo, PARAMS) > conversion_probability(hi, PARAMS)


class TestElasticity:
    def test_zero_latency(self):
        assert latency_elasticity(0.0, PARAMS) == 0.0

    def test_two_seconds(self):
        p = naive_sigmoid(1.95 - 0.9)
        oracle = -0.45 * 2.0 * (1.0 - p)
        assert latency_elasticity(2.0, PARAMS) == pytest.approx(oracle, abs=1e-12)
        assert latency_elasticity(2.0, PARAMS) == pytest.approx(-0.233303, abs=1e-6)

    def test_beta_zero(self):
        assert latency_elasticity(2.0, ModelParams(beta=0.0)) == 0.0

    def test_never_positive(self):
        rng = np.random.default_rng(5)
        for lat in rng.uniform(0.0, 20.0, size=200):
            assert latency_elasticity(float(lat), PARAMS) <= 0.0


class TestHazard:
    def test_zero_latency_is_baseline(self):
        assert abandonment_hazard(0.0, PARAMS) == PARAMS.lambda0
        assert PARAMS.lambda0 == pytest.approx(0.067717, abs=1e-6)

    def test_one_second(self):
        oracle = PARAMS.lambda0 * math.exp(0.38)
        assert abandonment_hazard(1.0, PARAMS) == pytest.approx(oracle, abs=1e-15)
        assert abandonment_hazard(1.0, PARAMS) == pytest.approx(0.099021, abs=1e-6)

    def test_gamma_zero_is_flat(self):
        flat = ModelParams(gamma=0.0, lambda0=0.2)
        assert {abandonment_hazard(lat, flat) for lat in (0.0, 1.0, 9.0)} == {0.2}

    def test_non_decreasing(self):
        grid = np.linspace(0.0, 12.0, 50)
        values = [abandonment_hazard(float(g), PARAMS) for g in grid]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            abandonment_hazard(-1.0, PARAMS)


class TestMedianAbandonTime:
    def test_anchor_is_exact(self):
        assert median_abandon_time(1.0, PARAMS) == pytest.approx(7.0, abs=1e-9)

    def test_three_seconds(self):
        oracle = LN2 / (PARAMS.lambda0 * math.exp(0.38 * 3.0))
        assert median_abandon_time(3.0, PARAMS) == pytest.approx(oracle, abs=1e-12)
        assert median_abandon_time(3.0, PARAMS) == pytest.approx(3.273665, abs=1e-6)

    def test_flat_hazard_ln2(self):
        flat = ModelParams(gamma=0.0, lambda0=LN2)
        for lat in (0.0, 1.0, 4.0):
            assert median_abandon_time(lat, flat) == pytest.approx(1.0, abs=1e-12)


class TestCalibrateLambda0:
    def test_seven_second_anchor(self):
        oracle = LN2 / (7.0 * math.exp(0.38))
        got = calibrate_lambda0(1.0, 7.0, 0.38)
        assert got == pytest.approx(oracle, abs=1e-15)
        assert got == pytest.approx(0.067717, abs=1e-6)

    def test_zero_latency_anchor(self):
        assert calibrate_lambda0(0.0, LN2, 0.77) == pytest.approx(1.0, abs=1e-12)

    def test_gamma_zero(self):
        assert calibrate_lambda0(1.0, 7.0, 0.0) == pytest.approx(LN2 / 7.0, abs=1e-15)

    @given(
        anchor_lat=st.floats(min_value=0.0, max_value=5.0),
        anchor_median=st.floats(min_value=0.5, max_value=30.0),
        gamma=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_round_trip(self, anchor_lat, anchor_median, gamma):
        lam0 = calibrate_lambda0(anchor_lat, anchor_median, gamma)
        params = ModelParams(gamma=gamma, lambda0=lam0)
        assert median_abandon_time(anchor_lat, params) == pytest.approx(
            anchor_median, abs=1e-9
        )

    @pytest.mark.parametrize("median", [0.0, -3.0])
    def test_rejects_bad_median(self, median):
        with pytest.raises(ValueError):
            calibrate_lambda0(1.0, median, 0.38)

    def test_rejects_negative_latency(self):
        with pytest.raises(ValueError):
            calibrate_lambda0(-1.0, 7.0, 0.38)

    @pytest.mark.parametrize("anchor_lat,gamma", [(5000.0, 0.38), (1.0, 5000.0), (1.0, -5000.0)])
    def test_out_of_float_range_is_value_error(self, anchor_lat, gamma):
        with pytest.raises(ValueError, match="out of float range"):
            calibrate_lambda0(anchor_lat, 7.0, gamma)


class TestPerceivedLatency:
    def test_high_jitter(self):
        assert perceived_latency(2.0, 1.2, 0.8) == pytest.approx(2.96, abs=1e-12)

    def test_zero_jitter(self):
        assert perceived_latency(1.4, 0.0, 0.8) == 1.4

    def test_sensitivity_scaling(self):
        assert perceived_latency(2.0, 0.3, 0.8, s_u=2.0) == pytest.approx(2.48, abs=1e-12)

    @pytest.mark.parametrize("mean,std,k,s_u", [(-1, 0, 0.8, 1), (1, -1, 0.8, 1), (1, 1, -0.1, 1), (1, 1, 0.8, 0)])
    def test_rejects_bad_inputs(self, mean, std, k, s_u):
        with pytest.raises(ValueError):
            perceived_latency(mean, std, k, s_u)


class TestArrayCurves:
    """Each curve takes a NumPy array and matches its float path elementwise."""

    LAT = np.array([0.0, 0.4, 1.4, 2.0, 3.3, 8.0])
    STD = np.array([0.0, 0.1, 0.5, 1.2, 0.0, 2.0])

    @pytest.mark.parametrize(
        "curve",
        [
            lambda lat, std: perceived_latency(lat, std, 0.8, 1.5),
            lambda lat, std: trust_score(lat, PARAMS),
            lambda lat, std: abandonment_hazard(lat, PARAMS),
            lambda lat, std: context_conversion(lat, ContextProfile(m_c=1.3), PARAMS),
            lambda lat, std: conversion_probability(lat, PARAMS),
        ],
    )
    def test_matches_floats(self, curve):
        got = curve(self.LAT, self.STD)
        assert isinstance(got, np.ndarray)
        want = [curve(a, b) for a, b in zip(self.LAT.tolist(), self.STD.tolist())]
        assert got.tolist() == pytest.approx(want, rel=1e-15)

    def test_overflowing_hazard_is_infinite_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert abandonment_hazard(np.array([1.0, 5000.0]), PARAMS)[1] == math.inf
        assert abandonment_hazard(1.0, ModelParams(gamma=5000.0, lambda0=0.07)) == math.inf


class TestLatencyBudget:
    def test_half(self):
        assert latency_budget(0.5, PARAMS) == pytest.approx(1.95 / 0.45, abs=1e-9)

    def test_inverse_of_conversion(self):
        tau = conversion_probability(2.0, PARAMS)
        assert latency_budget(tau, PARAMS) == pytest.approx(2.0, abs=1e-9)

    def test_round_trip_grid(self):
        # Restrict to taus whose budget is non-negative (tau <= sigmoid(alpha)),
        # since the conversion curve rejects negative latencies.
        for tau in np.linspace(0.05, sigmoid(PARAMS.alpha) - 1e-6, 40):
            lat = latency_budget(float(tau), PARAMS)
            assert lat >= 0.0
            assert conversion_probability(lat, PARAMS) == pytest.approx(
                float(tau), abs=1e-9
            )

    @pytest.mark.parametrize("tau", [0.0, 1.0, -0.2, 1.5])
    def test_rejects_bad_tau(self, tau):
        with pytest.raises(ValueError):
            latency_budget(tau, PARAMS)

    def test_rejects_beta_zero(self):
        with pytest.raises(ValueError):
            latency_budget(0.5, ModelParams(beta=0.0))


class TestSigmoid:
    def test_float_in_float_out(self):
        assert type(sigmoid(0.3)) is float
        assert sigmoid(0.0) == 0.5

    def test_array_matches_scalar_elementwise(self):
        x = np.array([-800.0, -40.0, -1.5, 0.0, 0.25, 3.0, 40.0, 800.0])
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            got = sigmoid(x)
        assert got.shape == x.shape
        assert got.tolist() == pytest.approx([sigmoid(float(v)) for v in x], rel=1e-15)
        assert got[0] == 0.0 and got[-1] == 1.0

    def test_array_is_bit_identical_to_the_two_division_form(self):
        x = np.concatenate([
            np.random.default_rng(5).standard_normal(200_000) * 40.0,
            [np.inf, -np.inf, 0.0, -0.0, np.nan, 745.0, -745.0, 1e308, -1e308],
        ])
        z = np.exp(-np.abs(x))
        want = np.where(x >= 0.0, 1.0 / (1.0 + z), z / (1.0 + z))
        assert sigmoid(x).tobytes() == want.tobytes()


class TestTrustScore:
    def test_half_at_budget(self):
        assert trust_score(PARAMS.budget_b_l, PARAMS) == 0.5

    def test_one_second_past_budget(self):
        assert trust_score(PARAMS.budget_b_l + 1.0, PARAMS) == pytest.approx(
            naive_sigmoid(-2.0), abs=1e-12
        )
        assert trust_score(3.0, PARAMS) == pytest.approx(0.119203, abs=1e-6)

    def test_symmetry(self):
        for d in np.linspace(0.0, 5.0, 60):
            total = trust_score(PARAMS.budget_b_l + d, PARAMS) + trust_score(
                PARAMS.budget_b_l - d, PARAMS
            )
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_strictly_decreasing(self):
        grid = np.linspace(0.0, 6.0, 40)
        values = [trust_score(float(g), PARAMS) for g in grid]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_nan_is_refused(self):
        with pytest.raises(ValueError, match="must not be NaN"):
            trust_score(float("nan"), PARAMS)


class TestLatencyUtility:
    def test_zero(self):
        assert latency_utility(0.0, 0.0, 0.0, PARAMS) == 0.0

    def test_weighted(self):
        params = ModelParams(lambda1=1.0, lambda2=0.5)
        assert latency_utility(0.05, 0.02, 0.01, params) == pytest.approx(0.025, abs=1e-12)

    def test_zero_weights(self):
        params = ModelParams(lambda1=0.0, lambda2=0.0)
        assert latency_utility(0.05, 0.02, 0.01, params) == pytest.approx(0.05, abs=1e-12)


class TestContextConversion:
    def test_neutral_context(self):
        ctx = ContextProfile(m_c=1.0)
        assert context_conversion(2.0, ctx, PARAMS) == conversion_probability(2.0, PARAMS)

    def test_high_intensity(self):
        ctx = ContextProfile(m_c=1.3)
        oracle = naive_sigmoid(1.95 - 0.45 * 1.3 * 2.0)
        assert context_conversion(2.0, ctx, PARAMS) == pytest.approx(oracle, abs=1e-12)
        assert context_conversion(2.0, ctx, PARAMS) == pytest.approx(0.685680, abs=1e-6)

    def test_zero_latency(self):
        assert context_conversion(0.0, ContextProfile(m_c=2.2), PARAMS) == pytest.approx(
            naive_sigmoid(1.95), abs=1e-12
        )

    @pytest.mark.parametrize("m_c", [0.0, -1.0])
    def test_rejects_bad_multiplier(self, m_c):
        with pytest.raises(ValueError):
            ContextProfile(m_c=m_c)


class TestEffectiveBudget:
    @pytest.mark.parametrize(
        "m_c,expected", [(1.0, 2.0), (1.3, 2.0 / 1.3), (0.8, 2.5)]
    )
    def test_values(self, m_c, expected):
        assert effective_budget(PARAMS, ContextProfile(m_c=m_c)) == pytest.approx(
            expected, abs=1e-12
        )


class TestRevenue:
    def test_zero_intents(self):
        rev = RevenueParams(n_intents=0, revenue_per_payment=5.0)
        assert expected_revenue(rev, 2.0, PARAMS) == 0.0
        assert revenue_gradient(rev, 2.0, PARAMS) == 0.0

    def test_expected_value(self):
        rev = RevenueParams(n_intents=1000, revenue_per_payment=1.0)
        oracle = 1000.0 * naive_sigmoid(1.05)
        assert expected_revenue(rev, 2.0, PARAMS) == pytest.approx(oracle, abs=1e-9)
        assert expected_revenue(rev, 2.0, PARAMS) == pytest.approx(740.775, abs=1e-3)

    def test_linear_in_revenue(self):
        base = expected_revenue(RevenueParams(1000, 1.0), 2.0, PARAMS)
        scaled = expected_revenue(RevenueParams(1000, 2.5), 2.0, PARAMS)
        assert scaled == pytest.approx(2.5 * base, abs=1e-9)

    def test_gradient_at_half(self):
        rev = RevenueParams(n_intents=1000, revenue_per_payment=1.0)
        lat = latency_budget(0.5, PARAMS)  # P = 0.5 here
        assert revenue_gradient(rev, lat, PARAMS) == pytest.approx(-112.5, abs=1e-6)

    def test_gradient_at_two_seconds(self):
        rev = RevenueParams(n_intents=1000, revenue_per_payment=1.0)
        p = naive_sigmoid(1.05)
        oracle = -1000.0 * 0.45 * p * (1.0 - p)
        assert revenue_gradient(rev, 2.0, PARAMS) == pytest.approx(oracle, abs=1e-9)
        assert revenue_gradient(rev, 2.0, PARAMS) == pytest.approx(-86.412, abs=1e-3)

    def test_matches_finite_differences(self):
        rev = RevenueParams(n_intents=1000, revenue_per_payment=2.0)
        rng = np.random.default_rng(17)
        for lat in rng.uniform(0.05, 8.0, size=20):
            lat = float(lat)
            eps = 1e-5 * max(1.0, lat)
            fd = (
                expected_revenue(rev, lat + eps, PARAMS)
                - expected_revenue(rev, lat - eps, PARAMS)
            ) / (2.0 * eps)
            grad = revenue_gradient(rev, lat, PARAMS)
            assert abs(grad - fd) <= 1e-6 * abs(fd)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            RevenueParams(n_intents=-1, revenue_per_payment=1.0)
        with pytest.raises(ValueError):
            RevenueParams(n_intents=1, revenue_per_payment=-1.0)


class TestTwoPointFit:
    def test_bucket_midpoints(self):
        # Independent oracle: linear solve of logit(P) = alpha - beta * L.
        pts = [(0.5, 0.16), (2.5, 0.104)]
        a_mat = np.array([[1.0, -pts[0][0]], [1.0, -pts[1][0]]])
        y = np.array([math.log(p / (1 - p)) for _, p in pts])
        alpha_o, beta_o = np.linalg.solve(a_mat, y)
        alpha, beta = fit_logistic_two_point(*pts)
        assert alpha == pytest.approx(alpha_o, abs=1e-12)
        assert beta == pytest.approx(beta_o, abs=1e-12)
        assert alpha == pytest.approx(-1.534398, abs=1e-6)
        assert beta == pytest.approx(0.247661, abs=1e-6)
        fitted = ModelParams(alpha=alpha, beta=beta)
        for lat, prob in pts:
            assert conversion_probability(lat, fitted) == pytest.approx(prob, abs=1e-9)

    def test_flat_curve(self):
        alpha, beta = fit_logistic_two_point((1.0, 0.3), (2.0, 0.3))
        assert beta == 0.0
        assert alpha == pytest.approx(math.log(0.3 / 0.7), abs=1e-12)

    def test_recovers_default_params(self):
        p0 = conversion_probability(0.0, PARAMS)
        p2 = conversion_probability(2.0, PARAMS)
        alpha, beta = fit_logistic_two_point((0.0, p0), (2.0, p2))
        assert alpha == pytest.approx(1.95, abs=1e-9)
        assert beta == pytest.approx(0.45, abs=1e-9)

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            fit_logistic_two_point((1.0, 0.5), (1.0, 0.6))
        with pytest.raises(ValueError):
            fit_logistic_two_point((1.0, 0.0), (2.0, 0.5))
        with pytest.raises(ValueError):
            fit_logistic_two_point((1.0, 0.5), (2.0, 1.0))
        with pytest.raises(ValueError, match="too close"):  # beta = inf, alpha = nan
            fit_logistic_two_point((0.0, 0.1), (5e-324, 0.9))

    @pytest.mark.parametrize("points", [((-1e308, 0.6), (1e308, 0.5)), ((1.0, 0.6), (-0.5, 0.5))])
    def test_rejects_negative_latency(self, points):
        # l2 - l1 of the first pair overflows to inf, which made beta 0 and a wrong fit.
        with pytest.raises(ValueError, match="latency must be non-negative"):
            fit_logistic_two_point(*points)

    @given(
        l1=st.floats(min_value=0.0, max_value=6.0),
        dl=st.floats(min_value=0.1, max_value=6.0),
        p1=st.floats(min_value=0.02, max_value=0.98),
        p2=st.floats(min_value=0.02, max_value=0.98),
    )
    @settings(max_examples=60)
    def test_round_trip(self, l1, dl, p1, p2):
        alpha, beta = fit_logistic_two_point((l1, p1), (l1 + dl, p2))
        for lat, prob in ((l1, p1), (l1 + dl, p2)):
            got = sigmoid(alpha - beta * lat)
            assert got == pytest.approx(prob, abs=1e-9)


class TestUpdateSensitivity:
    def test_completed_past_budget_relaxes(self):
        profile = UserProfile(s_u=1.0)
        updated = update_sensitivity(profile, "completed", 2.5, PARAMS, delta=0.05)
        assert updated.s_u == pytest.approx(0.95, abs=1e-12)
        assert updated.completed_count == 1
        assert updated.abandoned_count == 0

    def test_completed_within_budget_unchanged(self):
        profile = UserProfile(s_u=1.0)
        updated = update_sensitivity(profile, "completed", 1.0, PARAMS, delta=0.05)
        assert updated.s_u == 1.0
        assert updated.completed_count == 1

    def test_abandoned_tightens(self):
        profile = UserProfile(s_u=1.0)
        updated = update_sensitivity(profile, "abandoned", 0.5, PARAMS, delta=0.05)
        assert updated.s_u == pytest.approx(1.05, abs=1e-12)
        assert updated.abandoned_count == 1

    def test_clamp_floor(self):
        profile = UserProfile(s_u=0.25)
        updated = update_sensitivity(profile, "completed", 3.0, PARAMS, delta=0.05)
        assert updated.s_u == 0.25

    def test_clamp_ceiling(self):
        profile = UserProfile(s_u=4.0)
        updated = update_sensitivity(profile, "abandoned", 3.0, PARAMS, delta=0.05)
        assert updated.s_u == 4.0

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            update_sensitivity(UserProfile(), "completed", 2.5, PARAMS, delta=0.6)

    def test_rejects_bad_outcome(self):
        with pytest.raises(ValueError):
            update_sensitivity(UserProfile(), "timeout", 2.5, PARAMS)


class TestParamValidation:
    def test_default_lambda0_is_derived(self):
        assert ModelParams().lambda0 == pytest.approx(
            calibrate_lambda0(1.0, 7.0, 0.38), abs=1e-15
        )
        assert ModelParams(gamma=0.5).lambda0 == pytest.approx(
            calibrate_lambda0(1.0, 7.0, 0.5), abs=1e-15
        )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"beta": -0.1},
            {"gamma": -0.1},
            {"k": -0.1},
            {"eta": 0.0},
            {"lambda0": 0.0},
            {"budget_b_l": 3.0, "budget_soft": 2.0},
            {"budget_b_l": 0.0},
            {"hysteresis_h": 0.0},
            {"hysteresis_h": 2.5},
            {"theta1": 0.2, "theta2": 0.5},
            {"theta1": 1.5},
            {"theta2": -0.1},
        ],
    )
    def test_invariants_enforced(self, kwargs):
        with pytest.raises(ValueError):
            ModelParams(**kwargs)

    def test_user_profile_validation(self):
        with pytest.raises(ValueError):
            UserProfile(s_u=0.0)
        with pytest.raises(ValueError):
            UserProfile(completed_count=-1)
