"""Seeded Monte-Carlo session simulator.

Confirmation latencies are drawn from a (optionally shifted) log-normal
rail; each session then races an exponential patience clock against its
latency, converts with the jitter-penalized logistic probability, and may
produce a repeat engagement. This module owns configuration, variate
layout, the array simulation, aggregation and the experiment drivers
(burst and policy comparison). Policies simulated together (``--policy all``,
:func:`run_burst`) share one pass: one draw, one window pass, and one
computation of trust, hazard and conversion probability; each policy adds
only its modes, its hazard multipliers and its outcome comparisons.

Determinism: a run is a pure function of ``(config, seed)``. All random
variates are drawn up front from one seeded generator in four fixed lanes
(latency normals, patience exponentials, conversion uniforms, repeat
uniforms); session ``i`` always consumes slot ``i`` of each lane, so two
policies compared under the same seed see identical per-session draws.

Outcome composition (documented in output metadata): a session first
survives or loses the patience race, then converts via a Bernoulli draw,
and only converted sessions can repeat.
"""

from __future__ import annotations

import math
import typing
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from statistics import NormalDist
from typing import Dict, List, Optional, Tuple

import numpy as np

from .governor import MODE_ORDER, GovernorState, Mode, decide_simple, modes, step
from .model import (
    ContextProfile,
    ModelParams,
    abandonment_hazard,
    context_conversion,
    perceived_latency,
    trust_score,
)
from .telemetry import (
    DEFAULT_WINDOW_CAPACITY, ROLLING_BLOCK, WindowStats, json_type, nearest_rank, perceived_stream
)

OUTCOME_MODEL = "survive-then-convert"

POLICY_KINDS = ("none", "static_messaging", "letw")

_STD_NORMAL = NormalDist()


def _fits(value, hint) -> bool:
    """Whether a decoded JSON value fits an annotated field type."""
    if typing.get_origin(hint) is typing.Union:  # Optional[...]
        return any(_fits(value, arg) for arg in typing.get_args(hint))
    types = (int, float) if hint is float else typing.get_origin(hint) or hint
    return isinstance(value, types) and (hint is bool or not isinstance(value, bool))


def _from_doc(cls, doc: dict, what: str):
    """Build a dataclass from a plain dict, rejecting unknown keys and
    values that do not fit their field's annotated type; a dataclass-typed
    field is decoded from its own dict the same way."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object, got {json_type(doc)}")
    hints = typing.get_type_hints(cls)
    known = {f.name for f in fields(cls)}
    unknown = sorted(set(doc) - known)
    if unknown:
        raise ValueError(f"unknown {what} field(s): {', '.join(unknown)}")
    values = {}
    for name, value in doc.items():
        hint = hints[name]
        if is_dataclass(hint):
            value = _from_doc(hint, value, name)
        elif not _fits(value, hint):
            raise ValueError(
                f"{what} field {name} must be {getattr(hint, '__name__', hint)}, got {value!r}"
            )
        values[name] = value
    return cls(**values)


@dataclass(frozen=True)
class RailDistribution:
    """Log-normal confirmation-time model, optionally shifted by congestion."""

    mu_log: float = math.log(1.4)   # log of the median latency
    sigma_log: float = 0.5207      # log-space std, fit to the p99 tail anchor
    shift_s: float = 0.0           # additive congestion shift, seconds

    def __post_init__(self) -> None:
        if self.sigma_log < 0.0:
            raise ValueError(f"sigma_log must be >= 0, got {self.sigma_log}")
        if self.shift_s < 0.0:
            raise ValueError(f"shift_s must be >= 0, got {self.shift_s}")

    @classmethod
    def from_median(cls, median_s: float, sigma_log: float, shift_s: float = 0.0):
        if not median_s > 0.0:
            raise ValueError(f"median must be > 0, got {median_s}")
        return cls(mu_log=math.log(median_s), sigma_log=sigma_log, shift_s=shift_s)

    def latency(self, z):
        """Latency exp(mu + sigma * z) + shift at standard-normal z; float or array."""
        exp = np.exp if isinstance(z, np.ndarray) else math.exp
        return exp(self.mu_log + self.sigma_log * z) + self.shift_s

    def quantile(self, q: float) -> float:
        """Analytic quantile of the latency distribution."""
        if not (0.0 < q < 1.0):
            raise ValueError(f"q must be inside (0, 1), got {q}")
        return self.latency(_STD_NORMAL.inv_cdf(q))


@dataclass(frozen=True)
class PolicySpec:
    """Governance policy under simulation."""

    kind: str = "letw"
    static_threshold_s: float = 2.0  # spinner threshold for static_messaging

    def __post_init__(self) -> None:
        if self.kind not in POLICY_KINDS:
            raise ValueError(f"policy kind must be one of {POLICY_KINDS}, got {self.kind!r}")
        if not self.static_threshold_s > 0.0:
            raise ValueError(f"static_threshold_s must be > 0, got {self.static_threshold_s}")


@dataclass(frozen=True)
class Mitigation:
    """Hazard multipliers applied while soft / deferred feedback is shown."""

    rho_soft: float = 0.6
    rho_deferred: float = 0.3

    def __post_init__(self) -> None:
        if not (0.0 < self.rho_deferred <= self.rho_soft <= 1.0):
            raise ValueError(
                "mitigation must satisfy 0 < rho_deferred <= rho_soft <= 1, got "
                f"rho_soft={self.rho_soft}, rho_deferred={self.rho_deferred}"
            )

    @property
    def multipliers(self) -> Tuple[float, float, float]:
        """Hazard multiplier per mode, in governor.MODE_ORDER order."""
        return (1.0, self.rho_soft, self.rho_deferred)


@dataclass(frozen=True)
class SimConfig:
    """One simulation scenario; JSON documents use these exact field names."""

    sessions: int = 10_000
    seed: int = 42
    rail: RailDistribution = field(default_factory=RailDistribution)
    policy: PolicySpec = field(default_factory=PolicySpec)
    params: ModelParams = field(default_factory=ModelParams)
    ctx: ContextProfile = field(default_factory=ContextProfile)
    mitigation: Mitigation = field(default_factory=Mitigation)
    engagement_ceiling: float = 0.12
    window_capacity: int = DEFAULT_WINDOW_CAPACITY

    def __post_init__(self) -> None:
        if self.sessions <= 0:
            raise ValueError("sessions must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not (0.0 < self.engagement_ceiling < 1.0):
            raise ValueError(
                f"engagement_ceiling must be inside (0, 1), got {self.engagement_ceiling}"
            )
        if self.window_capacity < 1:
            raise ValueError(f"window_capacity must be >= 1, got {self.window_capacity}")
        if not math.isfinite(self.params.beta * self.ctx.m_c):
            raise ValueError("params.beta * ctx.m_c overflows a float; lower either")

    @classmethod
    def from_dict(cls, doc: dict) -> "SimConfig":
        return _from_doc(cls, doc, "simulation config")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class SimResult:
    """Aggregate outcomes of one run."""

    conversion_rate: float
    abandonment_rate: float
    repeat_rate: float
    mean_trust: float
    mode_shares: Dict[str, float]
    latency_p50: float
    latency_p90: float
    latency_p99: float

    def __post_init__(self) -> None:
        if self.conversion_rate + self.abandonment_rate > 1.0 + 1e-9:
            raise ValueError("conversion and abandonment cannot exceed 1 combined")
        share_sum = sum(self.mode_shares.values())
        if abs(share_sum - 1.0) > 1e-9:
            raise ValueError(f"mode shares must sum to 1, got {share_sum}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "SimResult":
        return _from_doc(cls, doc, "simulation result")


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
    perceived = perceived_stream(latencies, cfg.window_capacity, include_current=False, k=params.k)

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
    counts = np.bincount(trace.mode, minlength=3)
    shares = {m.value: float(counts[i]) / n for i, m in enumerate(MODE_ORDER)}
    ordered = np.sort(trace.latency_s)
    return SimResult(
        conversion_rate=float(np.count_nonzero(trace.converted)) / n,
        abandonment_rate=float(np.count_nonzero(trace.abandoned)) / n,
        repeat_rate=float(np.count_nonzero(trace.repeated)) / n,
        mean_trust=float(np.mean(trace.trust)),
        mode_shares=shares,
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


@dataclass(frozen=True)
class QuantileModeRow:
    """One row of the quantile -> mode -> expected-conversion report."""

    statistic: str
    latency_s: float
    mode: Mode
    conversion: float


def quantile_mode_rows(
    quantiles: Dict[str, float],
    params: ModelParams,
    ctx: Optional[ContextProfile] = None,
) -> List[QuantileModeRow]:
    """Map given latency quantiles through the budget rule and the
    conversion curve (model-implied, not observed, conversion)."""
    ctx = ctx or ContextProfile()
    rows = []
    for name, latency in quantiles.items():
        rows.append(
            QuantileModeRow(
                statistic=name,
                latency_s=latency,
                mode=decide_simple(latency, 0.0, params),
                conversion=context_conversion(latency, ctx, params),
            )
        )
    return rows


def quantile_mode_report(cfg: SimConfig) -> List[QuantileModeRow]:
    """Analytic rail quantiles mapped to modes and expected conversion."""
    quantiles = {
        "p50": cfg.rail.quantile(0.50),
        "p90": cfg.rail.quantile(0.90),
        "p99": cfg.rail.quantile(0.99),
    }
    return quantile_mode_rows(quantiles, cfg.params, cfg.ctx)
