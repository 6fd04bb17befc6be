"""Seeded Monte-Carlo session simulator.

Confirmation latencies are drawn from a (optionally shifted) log-normal
rail; each session then races an exponential patience clock against its
latency, converts with the jitter-penalized logistic probability, and may
produce a repeat engagement. This module owns variate layout, the array
simulation, aggregation and the experiment drivers (burst and policy
comparison); the scenario and result types are in :mod:`latgov.config`.
Policies simulated together (``--policy all``, :func:`run_burst`) share one
pass: one draw, one window pass, and one computation of trust, hazard and
conversion probability; each policy adds only its modes, its hazard
multipliers and its outcome comparisons.

Determinism: a run is a pure function of ``(config, seed)``. All random
variates are drawn up front from one seeded generator in four fixed lanes
(latency normals, patience exponentials, conversion uniforms, repeat
uniforms); session ``i`` always consumes slot ``i`` of each lane, so two
policies compared under the same seed see identical per-session draws.

Trust window: a session sees only earlier sessions, so session ``i`` perceives the
:func:`telemetry.perceived_stream` window ending with session ``i - 1`` (one session
late), and session 0 the empty window, 0.

Outcome composition (documented in output metadata): a session first
survives or loses the patience race, then converts via a Bernoulli draw,
and only converted sessions can repeat.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Tuple

import numpy as np

from .config import (  # NumPy-free; callers may import these names from here too
    POLICY_KINDS, Mitigation, PolicySpec, QuantileModeRow, RailDistribution, SimConfig, SimResult,
    quantile_mode_rows,
)
from .governor import GovernorState, Mode, mode_shares, modes, step
from .model import abandonment_hazard, context_conversion, perceived_latency, trust_score
from .telemetry import ROLLING_BLOCK, WindowStats, nearest_rank, perceived_stream

OUTCOME_MODEL = "survive-then-convert"


@dataclass
class SessionTrace:
    """Per-session arrays of one policy (for inspection and tests).

    Traces of policies simulated in one pass share their ``latency_s``,
    ``perceived_s`` and ``trust`` arrays: these do not depend on the policy.
    """

    latency_s: np.ndarray
    perceived_s: np.ndarray
    trust: np.ndarray
    mode: np.ndarray       # int8 indexes into governor.MODE_ORDER
    abandoned: np.ndarray
    converted: np.ndarray
    repeated: np.ndarray
    governor_transitions: int

    def __len__(self) -> int:
        return int(self.latency_s.shape[0])


@dataclass(frozen=True)
class SessionOutcome:
    """Result of one simulated session (reference path)."""

    latency_s: float
    perceived_s: float
    trust: float
    mode: Mode
    abandoned: bool
    converted: bool
    repeated: bool


def draw_variates(
    rng: np.random.Generator, n: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The four per-session variate lanes, in their fixed draw order."""
    latency_z = rng.standard_normal(n)
    patience = rng.standard_exponential(n)
    u_convert = rng.random(n)
    u_repeat = rng.random(n)
    return latency_z, patience, u_convert, u_repeat


def simulate_session(
    rng: np.random.Generator,
    latency: float,
    stats: WindowStats,
    gov: GovernorState,
    cfg: SimConfig,
) -> Tuple[SessionOutcome, GovernorState]:
    """Reference semantics for one session of :func:`simulate_paths`.

    Draws exactly three variates in fixed order (patience exponential,
    conversion uniform, repeat uniform) regardless of the outcome. Fed each session's slots
    of the :func:`draw_variates` lanes, not a real generator, it matches the array path.
    """
    patience = rng.standard_exponential()
    u_convert = rng.random()
    u_repeat = rng.random()

    lp = perceived_latency(stats.mean_s, stats.std_s, cfg.params.k)
    if cfg.policy.kind == "none":
        mode = Mode.INSTANT
        next_gov = gov
    elif cfg.policy.kind == "static_messaging":
        mode = Mode.SOFT if latency > cfg.policy.static_threshold_s else Mode.INSTANT
        next_gov = gov
    else:
        next_gov, decision = step(gov, lp, cfg.params)
        mode = decision.mode

    rate = cfg.mitigation.multipliers[mode.index] * abandonment_hazard(lp, cfg.params)
    abandoned = rate > 0.0 and patience / rate < latency  # a zero hazard never abandons

    trust = trust_score(lp, cfg.params)
    converted = bool(
        not abandoned and u_convert < context_conversion(lp, cfg.ctx, cfg.params)
    )
    repeated = bool(converted and u_repeat < cfg.engagement_ceiling * trust)
    outcome = SessionOutcome(
        latency_s=latency,
        perceived_s=lp,
        trust=trust,
        mode=mode,
        abandoned=bool(abandoned),
        converted=converted,
        repeated=repeated,
    )
    return outcome, next_gov


def _simulate_policies(cfg: SimConfig, kinds: Tuple[str, ...]) -> Dict[str, SessionTrace]:
    """Simulate every session under each policy in ``kinds`` from one shared pass.

    The variate lanes, latencies, perceived latency, trust, hazard and conversion
    probability do not depend on the policy, so they are computed once. Each policy
    adds only its mode array (for ``letw``, :func:`governor.modes` over the whole
    stream), the hazard multiplier and the outcome comparisons, done in blocks of
    :data:`telemetry.ROLLING_BLOCK` sessions.
    """
    n = cfg.sessions
    params = cfg.params
    rng = np.random.default_rng(cfg.seed)
    latency_z, patience, u_convert, u_repeat = draw_variates(rng, n)
    with np.errstate(over="ignore"):  # checked below: no window holds the last latency
        latencies = cfg.rail.latency(latency_z)
    del latency_z
    if not np.isfinite(latencies).all():
        raise ValueError("latencies overflow a float; lower the rail's mu_log, sigma_log or shift_s")
    perceived = np.concatenate(  # one session late: see the module docstring
        ([0.0], perceived_stream(latencies[:-1], cfg.window_capacity, params.k)))

    mode, transitions = {}, dict.fromkeys(kinds, 0)
    for kind in kinds:
        if kind == "letw":
            mode[kind], transitions[kind] = modes(perceived, params)
        elif kind == "static_messaging":
            mode[kind] = (latencies > cfg.policy.static_threshold_s).astype(np.int8)
        else:
            mode[kind] = np.zeros(n, dtype=np.int8)
    trust = np.empty(n)
    outcomes = {kind: [np.empty(n, dtype=np.bool_) for _ in range(3)] for kind in kinds}
    multipliers = np.array(cfg.mitigation.multipliers)
    for start in range(0, n, ROLLING_BLOCK):
        b = slice(start, start + ROLLING_BLOCK)
        lp = perceived[b]
        trust[b] = trust_score(lp, params)
        hazard = abandonment_hazard(lp, params)
        convertible = u_convert[b] < context_conversion(lp, cfg.ctx, params)
        engages = u_repeat[b] < cfg.engagement_ceiling * trust[b]
        for kind in kinds:
            abandoned, converted, repeated = outcomes[kind]
            rate = multipliers[mode[kind][b]] * hazard
            with np.errstate(divide="ignore", over="ignore"):  # a zero hazard never abandons
                abandoned[b] = patience[b] / rate < latencies[b]
            converted[b] = ~abandoned[b] & convertible
            repeated[b] = converted[b] & engages
    return {
        kind: SessionTrace(latencies, perceived, trust, mode[kind], *outcomes[kind], transitions[kind])
        for kind in kinds
    }


def simulate_paths(cfg: SimConfig) -> SessionTrace:
    """Simulate every session under ``cfg.policy`` and return per-session arrays."""
    return _simulate_policies(cfg, (cfg.policy.kind,))[cfg.policy.kind]


def summarize_trace(trace: SessionTrace) -> SimResult:
    n = len(trace)
    ordered = np.sort(trace.latency_s)
    return SimResult(
        conversion_rate=float(np.count_nonzero(trace.converted)) / n,
        abandonment_rate=float(np.count_nonzero(trace.abandoned)) / n,
        repeat_rate=float(np.count_nonzero(trace.repeated)) / n,
        mean_trust=float(np.mean(trace.trust)),
        mode_shares=mode_shares(trace.mode),
        latency_p50=nearest_rank(ordered, 0.50),
        latency_p90=nearest_rank(ordered, 0.90),
        latency_p99=nearest_rank(ordered, 0.99),
    )


def run_simulation(cfg: SimConfig) -> SimResult:
    """Simulate ``cfg.sessions`` sessions; deterministic per (config, seed)."""
    return summarize_trace(simulate_paths(cfg))


def run_burst(base: SimConfig, burst_rail: RailDistribution) -> Tuple[SimResult, SimResult]:
    """Run the congested regime ungoverned and governed under the same seed."""
    traces = _simulate_policies(replace(base, rail=burst_rail), ("none", "letw"))
    return summarize_trace(traces["none"]), summarize_trace(traces["letw"])


def compare_policies(cfg: SimConfig) -> Dict[str, SimResult]:
    """Run all three policies under the same seed; keyed by policy kind."""
    traces = _simulate_policies(cfg, POLICY_KINDS)
    return {kind: summarize_trace(trace) for kind, trace in traces.items()}


def quantile_mode_report(cfg: SimConfig) -> List[QuantileModeRow]:
    """Analytic rail quantiles mapped to modes and expected conversion."""
    quantiles = {
        "p50": cfg.rail.quantile(0.50),
        "p90": cfg.rail.quantile(0.90),
        "p99": cfg.rail.quantile(0.99),
    }
    return quantile_mode_rows(quantiles, cfg.params, cfg.ctx)
