"""Test oracles: plain scalar forms of what the library computes over arrays or
parses from the wire. The tests compare the library against these.

- :func:`simulate_session` is one session of the simulator's pass, written out
  one value at a time; ``test_simulator_reference.py`` feeds it each session's
  slots of the :func:`latgov.simulator.draw_variates` lanes and compares it
  with :func:`latgov.simulator.simulate_paths`.
- :func:`event_to_json` is an event's wire form, for the parse round trip.
- :func:`fsum_window_stats` is a window's mean and std over ``math.fsum``, for
  :func:`latgov.telemetry.rolling_mean_std`.
- :func:`oracle_stats` is a window's textbook mean and std with its nearest-rank
  quantiles, for :func:`latgov.telemetry.window_stats`.
"""

import json
import math
from dataclasses import dataclass
from typing import Tuple

from latgov.config import SimConfig
from latgov.governor import GovernorState, Mode, step
from latgov.model import abandonment_hazard, context_conversion, perceived_latency, trust_score
from latgov.telemetry import TelemetryEvent, WindowStats


@dataclass(frozen=True)
class SessionOutcome:
    """Result of one simulated session."""

    latency_s: float
    perceived_s: float
    trust: float
    mode: Mode
    abandoned: bool
    converted: bool
    repeated: bool


def simulate_session(
    latency: float,
    patience: float,
    u_convert: float,
    u_repeat: float,
    stats: WindowStats,
    gov: GovernorState,
    cfg: SimConfig,
) -> Tuple[SessionOutcome, GovernorState]:
    """One session: its four lane values in draw order, the window ``stats`` of the
    sessions before it and the governor state they left."""
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


def event_to_json(event: TelemetryEvent) -> str:
    """An event's wire form: its fields but the optional ones that are ``None``."""
    doc = {k: v for k, v in event._asdict().items() if v is not None}
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def fsum_window_stats(values):
    """Two-pass mean and sample std over math.fsum; (0, 0) for no values."""
    n = len(values)
    if n == 0:
        return 0.0, 0.0
    mean = math.fsum(values) / n
    if n == 1:
        return mean, 0.0
    return mean, math.sqrt(math.fsum((v - mean) ** 2 for v in values) / (n - 1))


def oracle_stats(values):
    """Textbook two-pass mean/std plus exact-rational nearest-rank quantiles."""
    n = len(values)
    mean = sum(values) / n
    std = math.sqrt(sum((v - mean) ** 2 for v in values) / (n - 1)) if n > 1 else 0.0
    ordered = sorted(values)

    def rank_quantile(q_num, q_den):
        rank = -((-q_num * n) // q_den)  # ceil of the exact rational q * n
        return ordered[rank - 1]

    return mean, std, rank_quantile(1, 2), rank_quantile(9, 10), rank_quantile(99, 100)
