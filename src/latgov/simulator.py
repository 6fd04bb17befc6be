"""Seeded Monte-Carlo session simulator.

Confirmation latencies are drawn from a (optionally shifted) log-normal
rail; each session then races an exponential patience clock against its
latency, converts with the jitter-penalized logistic probability, and may
produce a repeat engagement. This module owns variate layout, the array
simulation, aggregation and the experiment drivers (burst and policy
comparison); the scenario and result types are in :mod:`latgov.config`.
Policies simulated together (``--policy all``, :func:`run_burst`) share one
pass: one draw, one window pass, one computation of trust, hazard and
conversion probability, and one summary pass (one sort, one mean trust); each
policy adds only its modes, its hazard multipliers and its outcome comparisons.

Determinism: a run is a pure function of ``(config, seed)``. All random
variates come from one seeded generator in four lanes of one value per
session, each drawn whole in a fixed order (latency normals, patience
exponentials, conversion uniforms, repeat uniforms) when the pass first uses
it (:func:`draw_variates`); session ``i`` always consumes slot ``i`` of each
lane, so two policies compared under the same seed see identical per-session
draws.

Trust window: a session sees only earlier sessions, so session ``i`` perceives the
:func:`telemetry.perceived_stream` window ending with session ``i - 1`` (one session
late), and session 0 the empty window, 0.

Outcome composition (documented in output metadata): a session first
survives or loses the patience race, then converts via a Bernoulli draw,
and only converted sessions can repeat.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Sequence, Tuple

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


def draw_variates(rng: np.random.Generator, n: int) -> Iterator[np.ndarray]:
    """The four per-session variate lanes, in their fixed draw order; each is
    drawn when the caller takes it, so a lane can be freed before the next."""
    yield rng.standard_normal(n)
    yield rng.standard_exponential(n)
    yield rng.random(n)
    yield rng.random(n)


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
    stream), the hazard multiplier and the outcome comparisons. Lanes are taken one
    at a time: patience decides each policy's abandonment, and each uniform lane is
    reduced to its policy-independent boolean (``u_convert < P_conv``,
    ``u_repeat < engagement_ceiling * trust``) before the next is drawn. The work
    on each lane runs in blocks of :data:`telemetry.ROLLING_BLOCK` sessions.
    """
    n = cfg.sessions
    params = cfg.params
    lanes = iter(draw_variates(np.random.default_rng(cfg.seed), n))
    with np.errstate(over="ignore"):  # checked below: no window holds the last latency
        latencies = cfg.rail.latency(next(lanes))
    if not np.isfinite(latencies).all():
        raise ValueError("latencies overflow a float; lower the rail's mu_log, sigma_log or shift_s")
    perceived = np.empty(n)
    perceived[:1] = 0.0  # one session late: see the module docstring
    perceived_stream(latencies[:-1], cfg.window_capacity, params.k, out=perceived[1:])

    mode, transitions = {}, dict.fromkeys(kinds, 0)
    for kind in kinds:
        if kind == "letw":
            mode[kind], transitions[kind] = modes(perceived, params)
        elif kind == "static_messaging":
            mode[kind] = (latencies > cfg.policy.static_threshold_s).view(np.int8)
        else:
            mode[kind] = np.zeros(n, dtype=np.int8)
    blocks = [slice(start, start + ROLLING_BLOCK) for start in range(0, n, ROLLING_BLOCK)]
    multipliers = np.array(cfg.mitigation.multipliers)
    trust = np.empty(n)
    abandoned = {kind: np.empty(n, dtype=np.bool_) for kind in kinds}
    lane = next(lanes)  # patience
    with np.errstate(divide="ignore", over="ignore"):  # a zero hazard never abandons
        for b in blocks:
            lp = perceived[b]
            trust[b] = trust_score(lp, params)
            hazard = abandonment_hazard(lp, params)
            for kind in kinds:
                rate = multipliers[mode[kind][b]] * hazard
                np.less(lane[b] / rate, latencies[b], out=abandoned[kind][b])
    del lane
    convertible = np.empty(n, dtype=np.bool_)
    lane = next(lanes)
    for b in blocks:
        np.less(lane[b], context_conversion(perceived[b], cfg.ctx, params), out=convertible[b])
    del lane
    engages = np.empty(n, dtype=np.bool_)
    lane = next(lanes)
    for b in blocks:
        np.less(lane[b], cfg.engagement_ceiling * trust[b], out=engages[b])
    del lane
    traces = {}
    for kind in kinds:
        converted = ~abandoned[kind] & convertible
        traces[kind] = SessionTrace(
            latencies, perceived, trust, mode[kind], abandoned[kind], converted,
            converted & engages, transitions[kind],
        )
    return traces


def simulate_paths(cfg: SimConfig) -> SessionTrace:
    """Simulate every session under ``cfg.policy`` and return per-session arrays."""
    return _simulate_policies(cfg, (cfg.policy.kind,))[cfg.policy.kind]


def _summarize_pass(traces: Sequence[SessionTrace]) -> List[SimResult]:
    """The results of traces simulated in one pass, in order. Such traces share
    ``latency_s`` and ``trust``, so the latency quantiles take one sort and the
    mean trust one mean, both of the first trace's arrays."""
    shared = traces[0]
    n = len(shared)
    ordered = np.sort(shared.latency_s)
    p50, p90, p99 = (nearest_rank(ordered, q) for q in (0.50, 0.90, 0.99))
    del ordered
    mean_trust = float(np.mean(shared.trust))
    return [
        SimResult(
            conversion_rate=float(np.count_nonzero(trace.converted)) / n,
            abandonment_rate=float(np.count_nonzero(trace.abandoned)) / n,
            repeat_rate=float(np.count_nonzero(trace.repeated)) / n,
            mean_trust=mean_trust,
            mode_shares=mode_shares(trace.mode),
            latency_p50=p50,
            latency_p90=p90,
            latency_p99=p99,
        )
        for trace in traces
    ]


def summarize_trace(trace: SessionTrace) -> SimResult:
    return _summarize_pass([trace])[0]


def run_simulation(cfg: SimConfig) -> SimResult:
    """Simulate ``cfg.sessions`` sessions; deterministic per (config, seed)."""
    return summarize_trace(simulate_paths(cfg))


def run_burst(base: SimConfig, burst_rail: RailDistribution) -> Tuple[SimResult, SimResult]:
    """Run the congested regime ungoverned and governed under the same seed."""
    traces = _simulate_policies(replace(base, rail=burst_rail), ("none", "letw"))
    ungoverned, governed = _summarize_pass([traces["none"], traces["letw"]])
    return ungoverned, governed


def compare_policies(cfg: SimConfig) -> Dict[str, SimResult]:
    """Run all three policies under the same seed; keyed by policy kind."""
    traces = _simulate_policies(cfg, POLICY_KINDS)
    return dict(zip(traces, _summarize_pass(list(traces.values()))))


def quantile_mode_report(cfg: SimConfig) -> List[QuantileModeRow]:
    """Analytic rail quantiles mapped to modes and expected conversion."""
    quantiles = {
        "p50": cfg.rail.quantile(0.50),
        "p90": cfg.rail.quantile(0.90),
        "p99": cfg.rail.quantile(0.99),
    }
    return quantile_mode_rows(quantiles, cfg.params, cfg.ctx)
