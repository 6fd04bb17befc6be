"""Closed-form behavioral latency curves.

Conversion, abandonment hazard, perceived latency, trust, utility and
revenue models, plus the two calibration helpers (two-point logistic fit
and hazard-anchor inversion). Everything here is a pure function of its
arguments; the parameter structs are frozen dataclasses validated on
construction, so results are safe to share across threads.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from typing import Literal, Optional, Tuple

LN2 = math.log(2.0)

# Baseline hazard anchor: lambda0 is chosen so the median time-to-abandon
# at 1 s confirmation latency is 7 s.
HAZARD_ANCHOR_LATENCY_S = 1.0
HAZARD_ANCHOR_MEDIAN_S = 7.0

# Clamp bounds for the per-user jitter-sensitivity multiplier.
SENSITIVITY_FLOOR = 0.25
SENSITIVITY_CEIL = 4.0


def numpy_for(x):
    """The ``numpy`` module when ``x`` is a NumPy array, else ``None``; never imports
    NumPy, since no value can be an array before it is imported."""
    np = sys.modules.get("numpy")
    return np if np is not None and isinstance(x, np.ndarray) else None


def sigmoid(x):
    """Logistic function in the branch form that never overflows exp().

    Takes a float (and returns a float) or a NumPy array (and returns an
    array of the same shape, elementwise).
    """
    if (np := numpy_for(x)) is not None:
        z = np.exp(-np.abs(x))  # exp(-x) where x >= 0, exp(x) where x < 0
        return np.where(x >= 0.0, 1.0, z) / (1.0 + z)
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    z = math.exp(x)
    return z / (1.0 + z)


def logit(p: float) -> float:
    """Inverse of :func:`sigmoid`; defined on (0, 1) only."""
    if not (0.0 < p < 1.0):
        raise ValueError(f"probability must be strictly inside (0, 1), got {p!r}")
    return math.log(p / (1.0 - p))


def check_latency(value: float, name: str = "latency") -> float:
    """``value`` as a float; raises ``ValueError`` when it is NaN or negative."""
    value = float(value)
    if math.isnan(value):
        raise ValueError(f"{name} must not be NaN")
    if value < 0.0:
        raise ValueError(f"{name} must be non-negative, got {value}")
    return value


@dataclass(frozen=True)
class ModelParams:
    """Behavioral coefficients plus budgets and mode thresholds.

    ``lambda0`` defaults to the hazard-anchor derivation (median abandon
    time of 7 s at 1 s latency for the configured ``gamma``); pass an
    explicit value to override.
    """

    alpha: float = 1.95          # conversion intercept
    beta: float = 0.45           # latency sensitivity, 1/s
    gamma: float = 0.38          # abandonment sensitivity, 1/s
    k: float = 0.8               # jitter weight in perceived latency
    eta: float = 2.0             # trust-score steepness, 1/s
    lambda0: Optional[float] = None  # baseline abandonment hazard, 1/s
    budget_b_l: float = 2.0      # trust-window budget, s
    budget_soft: float = 3.0     # soft limit, s
    hysteresis_h: float = 0.25   # hysteresis margin, s
    theta1: float = 0.5          # instant-mode trust threshold
    theta2: float = 0.2          # deferred-mode trust threshold
    lambda1: float = 1.0         # utility weight on churn delta
    lambda2: float = 0.5         # utility weight on trust delta

    def __post_init__(self) -> None:
        if self.lambda0 is None:
            derived = calibrate_lambda0(
                HAZARD_ANCHOR_LATENCY_S, HAZARD_ANCHOR_MEDIAN_S, self.gamma
            )
            object.__setattr__(self, "lambda0", derived)
        if self.beta < 0.0:
            raise ValueError(f"beta must be >= 0, got {self.beta}")
        if self.gamma < 0.0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")
        if self.k < 0.0:
            raise ValueError(f"k must be >= 0, got {self.k}")
        if not self.eta > 0.0:
            raise ValueError(f"eta must be > 0, got {self.eta}")
        if not self.lambda0 > 0.0:
            raise ValueError(f"lambda0 must be > 0, got {self.lambda0}")
        if not (0.0 < self.budget_b_l < self.budget_soft):
            raise ValueError(
                "budgets must satisfy 0 < budget_b_l < budget_soft, got "
                f"{self.budget_b_l} / {self.budget_soft}"
            )
        if not (0.0 < self.hysteresis_h < self.budget_b_l):
            raise ValueError(
                "hysteresis_h must be inside (0, budget_b_l), got "
                f"{self.hysteresis_h}"
            )
        if not (0.0 <= self.theta2 < self.theta1 <= 1.0):
            raise ValueError(
                f"thresholds must satisfy 0 <= theta2 < theta1 <= 1, got "
                f"theta1={self.theta1}, theta2={self.theta2}"
            )


@dataclass(frozen=True)
class ContextProfile:
    """Content-context latency sensitivity multiplier."""

    m_c: float = 1.0

    def __post_init__(self) -> None:
        if not self.m_c > 0.0:
            raise ValueError(f"m_c must be > 0, got {self.m_c}")


@dataclass(frozen=True)
class UserProfile:
    """Per-user jitter sensitivity plus outcome counters."""

    s_u: float = 1.0
    completed_count: int = 0
    abandoned_count: int = 0

    def __post_init__(self) -> None:
        if not self.s_u > 0.0:
            raise ValueError(f"s_u must be > 0, got {self.s_u}")
        if self.completed_count < 0 or self.abandoned_count < 0:
            raise ValueError("outcome counters must be non-negative")


@dataclass(frozen=True)
class RevenueParams:
    """Payment-intent volume and value per successful payment."""

    n_intents: int
    revenue_per_payment: float

    def __post_init__(self) -> None:
        if self.n_intents < 0:
            raise ValueError(f"n_intents must be >= 0, got {self.n_intents}")
        if self.revenue_per_payment < 0.0:
            raise ValueError(
                f"revenue_per_payment must be >= 0, got {self.revenue_per_payment}"
            )


def conversion_probability(perceived_latency, params: ModelParams):
    """P(convert) = sigmoid(alpha - beta * perceived latency): the neutral context."""
    return context_conversion(perceived_latency, ContextProfile(), params)


def latency_elasticity(latency: float, params: ModelParams) -> float:
    """-beta * L * (1 - P), the proportional conversion sensitivity; <= 0."""
    lat = check_latency(latency)
    p = conversion_probability(lat, params)
    return -params.beta * lat * (1.0 - p)


def abandonment_hazard(latency, params: ModelParams):
    """Instantaneous abandon rate lambda0 * exp(gamma * L), per second; float or array."""
    if (np := numpy_for(latency)) is not None:
        with np.errstate(over="ignore"):  # an infinite hazard abandons at once
            return params.lambda0 * np.exp(params.gamma * latency)
    lat = check_latency(latency)
    try:
        return params.lambda0 * math.exp(params.gamma * lat)
    except OverflowError:  # as in the array branch
        return math.inf


def median_abandon_time(latency: float, params: ModelParams) -> float:
    """Median of the exponential patience clock at the given latency (the
    hazard is at least ``lambda0`` > 0)."""
    return LN2 / abandonment_hazard(latency, params)


def calibrate_lambda0(
    anchor_latency: float, anchor_median: float, gamma: float
) -> float:
    """Invert the hazard model through one (latency, median abandon time) anchor.

    Round-trips: ``median_abandon_time(anchor_latency)`` with the returned
    baseline equals ``anchor_median``.
    """
    lat = check_latency(anchor_latency, "anchor_latency")
    if not anchor_median > 0.0:
        raise ValueError(f"anchor_median must be > 0, got {anchor_median}")
    try:
        lambda0 = LN2 / (anchor_median * math.exp(gamma * lat))
    except (OverflowError, ZeroDivisionError):
        lambda0 = 0.0
    if not 0.0 < lambda0 < math.inf:
        raise ValueError(f"lambda0 for gamma={gamma} at latency {lat} is out of float range")
    return lambda0


def perceived_latency(mean_latency, std_latency, k: float, s_u: float = 1.0):
    """Jitter-penalized effective delay: mean + s_u * k * std; floats
    (non-negative) or arrays (elementwise, unchecked)."""
    if numpy_for(mean_latency) is None:
        mean_latency = check_latency(mean_latency, "mean_latency")
        std_latency = check_latency(std_latency, "std_latency")
    if k < 0.0:
        raise ValueError(f"k must be >= 0, got {k}")
    if not s_u > 0.0:
        raise ValueError(f"s_u must be > 0, got {s_u}")
    return mean_latency + s_u * k * std_latency


def latency_budget(tau: float, params: ModelParams) -> float:
    """Largest latency keeping modeled conversion at or above tau."""
    if not (0.0 < tau < 1.0):
        raise ValueError(f"tau must be inside (0, 1), got {tau!r}")
    if not params.beta > 0.0:
        raise ValueError("latency budget needs beta > 0")
    return (params.alpha - logit(tau)) / params.beta


def trust_score(perceived_latency, params: ModelParams):
    """Map the gap between perceived latency and the budget into (0, 1);
    float (not NaN) or array (elementwise)."""
    if (np := numpy_for(perceived_latency)) is not None:
        with np.errstate(over="ignore"):  # the sigmoid of +-inf is exact
            return sigmoid(-params.eta * (perceived_latency - params.budget_b_l))
    if math.isnan(perceived_latency):
        raise ValueError("perceived_latency must not be NaN")
    return sigmoid(-params.eta * (perceived_latency - params.budget_b_l))


def latency_utility(
    delta_conv: float, delta_churn: float, delta_trust: float, params: ModelParams
) -> float:
    """Net utility of a latency state relative to a caller-chosen baseline."""
    return delta_conv - params.lambda1 * delta_churn - params.lambda2 * delta_trust


def context_conversion(latency, ctx: ContextProfile, params: ModelParams):
    """Conversion with the context multiplier applied to latency sensitivity;
    float (non-negative) or array (elementwise, unchecked)."""
    if (np := numpy_for(latency)) is not None:
        with np.errstate(over="ignore"):  # the sigmoid of -inf is exactly 0
            return sigmoid(params.alpha - params.beta * ctx.m_c * latency)
    return sigmoid(params.alpha - params.beta * ctx.m_c * check_latency(latency))


def effective_budget(params: ModelParams, ctx: ContextProfile) -> float:
    """Budget rescaled so beta * m_c * B_eff matches beta * B_L."""
    return params.budget_b_l / ctx.m_c


def expected_revenue(
    rev: RevenueParams, perceived_latency: float, params: ModelParams
) -> float:
    """N * R * P(convert at the given perceived latency)."""
    return (
        rev.n_intents
        * rev.revenue_per_payment
        * conversion_probability(perceived_latency, params)
    )


def revenue_gradient(
    rev: RevenueParams, perceived_latency: float, params: ModelParams
) -> float:
    """d(expected revenue)/d(latency) = -N * R * beta * P * (1 - P)."""
    p = conversion_probability(perceived_latency, params)
    return -rev.n_intents * rev.revenue_per_payment * params.beta * p * (1.0 - p)


def fit_logistic_two_point(
    point1: Tuple[float, float], point2: Tuple[float, float]
) -> Tuple[float, float]:
    """Solve logit(P) = alpha - beta * L exactly through two (L, P) points, L >= 0."""
    (l1, p1), (l2, p2) = point1, point2
    l1, l2 = check_latency(l1), check_latency(l2)  # so l2 - l1 cannot overflow
    if l1 == l2:
        raise ValueError("latencies must be distinct for a two-point fit")
    g1 = logit(p1)
    g2 = logit(p2)
    beta = (g1 - g2) / (l2 - l1)
    alpha = g1 + beta * l1
    if not (math.isfinite(alpha) and math.isfinite(beta)):
        raise ValueError(f"points {point1} and {point2} are too close for a finite fit")
    return alpha, beta


Outcome = Literal["completed", "abandoned"]


def update_sensitivity(
    profile: UserProfile,
    outcome: Outcome,
    perceived_latency: float,
    params: ModelParams,
    delta: float = 0.05,
) -> UserProfile:
    """Multiplicative sensitivity update from one observed outcome.

    A completion endured past the budget relaxes s_u by (1 - delta); an
    abandonment tightens it by (1 + delta). The multiplier is clamped to
    [0.25, 4.0] and the matching outcome counter is incremented.
    """
    if not (0.0 <= delta <= 0.5):
        raise ValueError(f"delta must be inside [0, 0.5], got {delta}")
    lp = check_latency(perceived_latency, "perceived_latency")
    if outcome == "completed":
        s_u = profile.s_u * (1.0 - delta) if lp > params.budget_b_l else profile.s_u
        counts = {"completed_count": profile.completed_count + 1}
    elif outcome == "abandoned":
        s_u = profile.s_u * (1.0 + delta)
        counts = {"abandoned_count": profile.abandoned_count + 1}
    else:
        raise ValueError(f"outcome must be 'completed' or 'abandoned', got {outcome!r}")
    s_u = min(max(s_u, SENSITIVITY_FLOOR), SENSITIVITY_CEIL)
    return replace(profile, s_u=s_u, **counts)
