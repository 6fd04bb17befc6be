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

Below them, the helpers the test modules share, from telemetry lines to child processes.
"""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import sysconfig
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Tuple

from hypothesis import strategies as st

import latgov
from latgov.cli import main
from latgov.config import SimConfig
from latgov.governor import GovernorState, Mode, step
from latgov.model import abandonment_hazard, context_conversion, perceived_latency, trust_score
from latgov.telemetry import TelemetryEvent, WindowStats, reject_non_finite


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


def make_event(session_id, latency_s, engaged=False, base_ts=0):
    return json.dumps(
        {
            "session_id": session_id,
            "intent_ts": base_ts,
            "confirm_ts": base_ts + int(round(latency_s * 1000)),
            "media_rtt_ms": 80,
            "media_jitter_ms": 12,
            "ux_mode": "instant",
            "engaged_60s": engaged,
        }
    )


def write_telemetry(path, latencies, engaged_every=None):
    lines = []
    for i, latency in enumerate(latencies):
        engaged = engaged_every is not None and i % engaged_every == 0
        lines.append(make_event(f"s{i}", latency, engaged=engaged))
    path.write_text("\n".join(lines) + "\n")


def breach_window(count=20):
    """One window whose p90 lands at 2.6 s (>= 2.0 target, > 2.5 alert)."""
    return [1.5] * (count - 3) + [2.6] * 3


GOOD_EVENT = json.loads(make_event("s0", 1.0))
HUGE = 10**400
WILD = st.sampled_from(
    [HUGE, 2**64, -(2**64), 1e308, -1e308, 5e-324, 1e-300, "x", "", True, False, None]
)


def run_quietly(argv):
    """(exit code, stdout, stderr, RuntimeWarnings) of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    runtime = [w for w in caught if issubclass(w.category, RuntimeWarning)]
    return code, out.getvalue(), err.getvalue(), runtime


def assert_no_non_finite(path):
    """Every JSON document (or JSONL line) in ``path`` parses without NaN or Infinity."""
    if not path.exists():
        return
    text = path.read_text()
    for doc in text.splitlines() if path.suffix == ".jsonl" else [text]:
        json.loads(doc, parse_constant=reject_non_finite)


def latgov_env():
    """A child's environment: the package under test's source root first on
    ``PYTHONPATH``, as an absolute path, so the child imports it from any working
    directory, even where a relative ``PYTHONPATH`` was inherited or another latgov
    is installed."""
    src = str(Path(latgov.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path}


def latgov_argv():
    """The console script an install put beside this interpreter, else ``python -m
    latgov``; either imports the package under test (:func:`latgov_env`)."""
    script = Path(sysconfig.get_path("scripts")) / "latgov"
    return [str(script)] if script.exists() else [sys.executable, "-m", "latgov"]


def run_latgov(args, cwd):
    """``latgov ARGS`` as a child process in ``cwd``, its output captured as text."""
    return subprocess.run(latgov_argv() + args, cwd=cwd, env=latgov_env(), capture_output=True,
                          text=True, timeout=120)
