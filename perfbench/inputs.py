"""Seeded inputs for the benchmark workloads.

Everything here is a pure function of the benchmark seed: the same seed
writes byte-identical files. The program under test only ever sees these
files; it never receives the seed itself.
"""

from __future__ import annotations

import json
import math

import numpy as np

# Rail median for the simulate config. With the default 1.4 s median the
# governor leaves `instant` once per 1M sessions and then sits in `soft`;
# a median of 1.15-1.2 s keeps perceived latency (mean + 0.8 std over the
# last 256 sessions) hovering at the 2 s trust budget, so `letw` keeps
# crossing it and the hysteresis branches run.
SIM_RAIL_MEDIAN_S = 1.17
SIM_RAIL_SIGMA_LOG = 0.5207

# Telemetry segments: (median latency s, log-space sigma). Calm segments
# keep every SLO metric compliant and perceived latency under the 2 s
# budget; `moderate` lands perceived latency between the budget and the
# 3 s soft limit and breaches the p90 SLO; `severe` pushes it past the
# soft limit. Segments cycle calm, moderate, calm, severe, so every seed
# visits all three governor modes and escalates the SLO gate.
SEGMENT_SHAPES = {
    "calm": (0.8, 0.35),
    "moderate": (1.75, 0.45),
    "severe": (2.9, 0.45),
}
SEGMENT_CYCLE = ("calm", "moderate", "calm", "severe")
# At least four 256-event windows per segment, so a congested segment
# always holds three consecutive breaching windows.
SEGMENT_MIN_EVENTS = 1_280
SEGMENT_MAX_EVENTS = 6_000

REGIONS = ("eu-west", "eu-central", "us-east", "us-west", "ap-south")
DEVICES = ("android", "ios", "web")
EPOCH_MS = 1_760_000_000_000


def sim_config(seed: int, sessions: int) -> dict:
    """The `--config` document for `latgov simulate --policy all`."""
    return {
        "sessions": sessions,
        "seed": seed,
        "rail": {
            "mu_log": math.log(SIM_RAIL_MEDIAN_S),
            "sigma_log": SIM_RAIL_SIGMA_LOG,
            "shift_s": 0.0,
        },
    }


def segment_plan(rng: np.random.Generator, events: int) -> list:
    """[(shape name, length)] covering exactly ``events`` events."""
    plan = []
    left = events
    index = 0
    while left > 0:
        length = int(rng.integers(SEGMENT_MIN_EVENTS, SEGMENT_MAX_EVENTS + 1))
        length = min(length, left)
        plan.append((SEGMENT_CYCLE[index % len(SEGMENT_CYCLE)], length))
        left -= length
        index += 1
    return plan


def telemetry_lines(seed: int, events: int) -> list:
    """JSONL lines (with newline) in the README wire format."""
    rng = np.random.default_rng([seed, 0x7E1E])
    plan = segment_plan(rng, events)
    latency_ms = np.empty(events, dtype=np.int64)
    congested = np.empty(events, dtype=bool)
    start = 0
    for shape, length in plan:
        median_s, sigma = SEGMENT_SHAPES[shape]
        draws = median_s * np.exp(sigma * rng.standard_normal(length))
        latency_ms[start : start + length] = np.rint(draws * 1000.0).astype(np.int64)
        congested[start : start + length] = shape != "calm"
        start += length

    gaps = rng.integers(5, 400, size=events)
    intent = EPOCH_MS + np.cumsum(gaps)
    confirm = intent + latency_ms
    rtt = np.round(rng.gamma(4.0, 20.0, size=events) * np.where(congested, 2.5, 1.0), 1)
    jitter = np.round(rng.gamma(2.0, 4.0, size=events) * np.where(congested, 3.0, 1.0), 1)
    engaged = rng.random(events) < np.where(congested, 0.06, 0.11)
    region = rng.integers(0, len(REGIONS) + 1, size=events)  # last index: field omitted
    device = rng.integers(0, len(DEVICES) + 1, size=events)  # last index: explicit null
    extra = rng.random(events) < 0.05  # unknown field readers must ignore

    lines = []
    for i in range(events):
        latency_s = latency_ms[i] / 1000.0
        mode = "instant" if latency_s <= 2.0 else ("soft" if latency_s <= 3.0 else "deferred")
        doc = {
            "session_id": f"s{seed}-{i:06d}",
            "intent_ts": int(intent[i]),
            "confirm_ts": int(confirm[i]),
            "media_rtt_ms": float(rtt[i]),
            "media_jitter_ms": float(jitter[i]),
            "ux_mode": mode,
            "engaged_60s": bool(engaged[i]),
        }
        if region[i] < len(REGIONS):
            doc["region"] = REGIONS[region[i]]
        doc["device"] = DEVICES[device[i]] if device[i] < len(DEVICES) else None
        if extra[i]:
            doc["app_build"] = int(rng.integers(100, 999))
        lines.append(json.dumps(doc, separators=(",", ":")) + "\n")
    return lines

