"""latgov: latency governance toolkit.

Behavioral latency curves (:mod:`latgov.model`), telemetry ingestion and
SLO tracking (:mod:`latgov.telemetry`), the UX mode governor
(:mod:`latgov.governor`), simulation scenarios and results
(:mod:`latgov.config`), a seeded Monte-Carlo session simulator
(:mod:`latgov.simulator`), and a CLI (:mod:`latgov.cli`).
Importing the package does not import NumPy: the simulator's functions are
imported on first use, and the other modules load NumPy only for arrays.
"""

from .model import (
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
    trust_score,
    update_sensitivity,
)
from .telemetry import (
    SloConfig,
    SloStatus,
    TelemetryEvent,
    TelemetryError,
    WindowStats,
    confirmation_latency,
    parse_event,
    slo_evaluate,
    slo_track,
)
from .governor import (
    Decision,
    GovernorState,
    Mode,
    Reason,
    RolloutState,
    apply_slo_escalation,
    decide_simple,
    rollout_guard,
    select_mode_by_trust,
    step,
)
from .config import Mitigation, PolicySpec, RailDistribution, SimConfig, SimResult

__version__ = "0.1.0"

_SIMULATOR_NAMES = frozenset(
    {"compare_policies", "quantile_mode_report", "run_burst", "run_simulation", "simulate_session"}
)


def __getattr__(name: str):
    """The simulator's functions, imported on first use (PEP 562)."""
    if name in _SIMULATOR_NAMES:
        from . import simulator

        return getattr(simulator, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
