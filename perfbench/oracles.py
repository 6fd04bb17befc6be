"""Output checks computed apart from the program.

Nothing here imports latgov: each check recomputes what the command's
output must be from the generated input (NumPy, ``statistics.NormalDist``
and plain loops) and returns a list of problems, each prefixed with the
name of the check that found it. An empty list means the output passed.

The model constants below are the program's documented defaults (README
"Config files"); the benchmark's inputs never override them.
"""

from __future__ import annotations

import json
import math
import re
from statistics import NormalDist

import numpy as np

POLICIES = ("none", "static_messaging", "letw")
STATIC_THRESHOLD_S = 2.0
JITTER_K = 0.8
TRUST_ETA = 2.0
BUDGET_S = 2.0
SOFT_LIMIT_S = 3.0
HYSTERESIS_S = 0.25
WINDOW = 256
SLO_P90_MAX_S = 2.0
SLO_JITTER_MAX_S = 0.7
ESCALATE_AFTER = 3

# Sampling tolerance, in standard errors, for statistics of a random sample
# compared with their analytic values (two-sided miss chance ~6e-7).
N_SE = 5.0
REL_TOL = 1e-9

_STD_NORMAL = NormalDist()


def _close(got, want, rel=REL_TOL) -> np.ndarray:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    return np.abs(got - want) <= rel * np.maximum(np.abs(want), 1e-12)


# ---------------------------------------------------------------- simulate


def check_simulate(doc: dict, config: dict) -> list:
    """`simulate --policy all` output against the log-normal rail it was given."""
    problems = []
    policies = doc.get("policies", {})
    if sorted(policies) != sorted(POLICIES):
        return [f"policies: expected {sorted(POLICIES)}, got {sorted(policies)}"]
    n = config["sessions"]
    mu = config["rail"]["mu_log"]
    sigma = config["rail"]["sigma_log"]
    echoed = doc.get("config", {})
    if echoed.get("sessions") != n or echoed.get("seed") != config["seed"]:
        problems.append("config: output does not echo the sessions and seed it was given")

    res = {kind: policies[kind] for kind in POLICIES}
    for q_name in ("latency_p50", "latency_p90", "latency_p99"):
        values = {res[kind][q_name] for kind in POLICIES}
        if len(values) != 1:
            problems.append(f"shared_latency: {q_name} differs across policies: {sorted(values)}")

    for q_name, q in (("latency_p50", 0.50), ("latency_p90", 0.90), ("latency_p99", 0.99)):
        z = _STD_NORMAL.inv_cdf(q)
        x_q = math.exp(mu + sigma * z)
        density = _STD_NORMAL.pdf(z) / (x_q * sigma)
        se = math.sqrt(q * (1.0 - q) / n) / density
        got = res["letw"][q_name]
        if abs(got - x_q) > N_SE * se:
            problems.append(
                f"analytic_quantile: {q_name}={got:.6f} vs analytic {x_q:.6f} "
                f"(tolerance {N_SE * se:.6f})"
            )

    if res["none"]["mode_shares"].get("instant") != 1.0:
        problems.append(f"none_instant: instant share {res['none']['mode_shares']}")

    p_soft = 1.0 - _STD_NORMAL.cdf((math.log(STATIC_THRESHOLD_S) - mu) / sigma)
    tol = N_SE * math.sqrt(p_soft * (1.0 - p_soft) / n)
    static_soft = res["static_messaging"]["mode_shares"].get("soft", -1.0)
    if abs(static_soft - p_soft) > tol:
        problems.append(
            f"static_soft_share: {static_soft:.6f} vs P(L > {STATIC_THRESHOLD_S}) "
            f"{p_soft:.6f} (tolerance {tol:.6f})"
        )

    trusts = [res[kind]["mean_trust"] for kind in POLICIES]
    if not np.all(_close(trusts, trusts[0], rel=1e-12)):
        problems.append(f"equal_trust: mean_trust differs across policies: {trusts}")

    none = res["none"]
    for kind in ("letw", "static_messaging"):
        if res[kind]["abandonment_rate"] > none["abandonment_rate"]:
            problems.append(
                f"coupled_order: {kind} abandonment {res[kind]['abandonment_rate']} "
                f"> none {none['abandonment_rate']}"
            )
        if res[kind]["conversion_rate"] < none["conversion_rate"]:
            problems.append(
                f"coupled_order: {kind} conversion {res[kind]['conversion_rate']} "
                f"< none {none['conversion_rate']}"
            )

    for kind in POLICIES:
        r = res[kind]
        if r["conversion_rate"] + r["abandonment_rate"] > 1.0:
            problems.append(f"outcome_total: {kind} conversion + abandonment > 1")
        if r["repeat_rate"] > r["conversion_rate"]:
            problems.append(f"outcome_total: {kind} repeat rate above conversion rate")

    letw_modes = res["letw"]["mode_shares"]
    if not (letw_modes.get("instant", 0.0) > 0.0 and letw_modes.get("soft", 0.0) > 0.0):
        problems.append(f"letw_transitions: letw never left one mode: {letw_modes}")
    return problems


# ------------------------------------------------------------- telemetry


def load_telemetry(path) -> tuple:
    """(session ids, confirmation latencies in seconds) read from the JSONL file."""
    ids = []
    intent = []
    confirm = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            if raw.strip():
                doc = json.loads(raw)
                ids.append(doc["session_id"])
                intent.append(doc["intent_ts"])
                confirm.append(doc["confirm_ts"])
    latencies = (np.asarray(confirm, dtype=np.int64) - np.asarray(intent, dtype=np.int64)) / 1000.0
    return ids, latencies


def sliding_mean_std(values: np.ndarray, window: int = WINDOW) -> tuple:
    """Mean and sample std of values[max(0, i-window+1) .. i] for every i."""
    n = values.shape[0]
    mean = np.empty(n)
    std = np.zeros(n)
    head = min(window - 1, n)
    for i in range(head):
        chunk = values[: i + 1]
        mean[i] = chunk.mean()
        if i > 0:
            std[i] = chunk.std(ddof=1)
    if n >= window:
        views = np.lib.stride_tricks.sliding_window_view(values, window)
        for lo in range(0, views.shape[0], 4096):
            block = views[lo : lo + 4096]
            mean[window - 1 + lo : window - 1 + lo + block.shape[0]] = block.mean(axis=1)
            std[window - 1 + lo : window - 1 + lo + block.shape[0]] = block.std(axis=1, ddof=1)
    return mean, std


def hysteresis_modes(lp: np.ndarray, reported: list) -> tuple:
    """The paper's three-state rule over ``lp``; (problems, transitions).

    Where the reported mode differs and ``lp`` sits within REL_TOL of a
    threshold, the two computations may round either way: the difference
    is accepted and the oracle follows the reported mode from there.
    """
    thresholds = (BUDGET_S, SOFT_LIMIT_S, BUDGET_S - HYSTERESIS_S, SOFT_LIMIT_S - HYSTERESIS_S)
    mode = "instant"
    transitions = 0
    problems = []
    for i, x in enumerate(lp.tolist()):
        if mode == "instant":
            nxt = "soft" if x > BUDGET_S else "instant"
        elif mode == "soft":
            if x > SOFT_LIMIT_S:
                nxt = "deferred"
            elif x < BUDGET_S - HYSTERESIS_S:
                nxt = "instant"
            else:
                nxt = "soft"
        else:
            nxt = "soft" if x < SOFT_LIMIT_S - HYSTERESIS_S else "deferred"
        if nxt != reported[i]:
            if not any(abs(x - t) <= REL_TOL * t for t in thresholds) and len(problems) < 5:
                problems.append(f"mode: event {i} lp={x!r} expected {nxt}, got {reported[i]}")
            nxt = reported[i]
        transitions += nxt != mode
        mode = nxt
    return problems, transitions


_SUMMARY = re.compile(r"events=(\d+) transitions=(\d+)")


def check_replay(out_text: str, stdout: str, ids: list, latencies: np.ndarray) -> list:
    """`replay` decisions against a sliding-window and hysteresis recomputation."""
    records = [json.loads(line) for line in out_text.splitlines() if line.strip()]
    if len(records) != len(ids):
        return [f"event_count: {len(records)} decisions for {len(ids)} events"]
    if [r["session_id"] for r in records] != ids:
        return ["session_order: decision session ids are not the input ids in order"]

    mean, std = sliding_mean_std(latencies)
    want_lp = mean + JITTER_K * std
    got_lp = np.array([r["perceived_latency_s"] for r in records])
    bad = np.flatnonzero(~_close(got_lp, want_lp))
    problems = []
    if bad.size:
        i = int(bad[0])
        problems.append(
            f"perceived_latency: {bad.size} events off, first {i}: "
            f"{got_lp[i]!r} vs {want_lp[i]!r}"
        )
    want_trust = 1.0 / (1.0 + np.exp(TRUST_ETA * (want_lp - BUDGET_S)))
    got_trust = np.array([r["trust"] for r in records])
    bad = np.flatnonzero(~_close(got_trust, want_trust))
    if bad.size:
        problems.append(f"trust: {bad.size} events off, first {int(bad[0])}")

    modes = [r["mode"] for r in records]
    mode_problems, transitions = hysteresis_modes(want_lp, modes)
    problems.extend(mode_problems)
    match = _SUMMARY.search(stdout)
    if match is None:
        problems.append("summary: no 'events=N transitions=T' line on stdout")
    elif (int(match.group(1)), int(match.group(2))) != (len(ids), transitions):
        problems.append(
            f"summary: reported events={match.group(1)} transitions={match.group(2)}, "
            f"expected events={len(ids)} transitions={transitions}"
        )
    return problems


def slo_windows(latencies: np.ndarray, window: int = WINDOW) -> list:
    """Per tumbling window: count, mean, sample std, nearest-rank p50/p90/p99."""
    rows = []
    for start in range(0, latencies.shape[0], window):
        chunk = latencies[start : start + window]
        n = chunk.shape[0]
        ordered = np.sort(chunk)
        # Nearest rank ceil(q * n) in exact integer arithmetic.
        rank = {"p50_s": -(-n // 2), "p90_s": -(-9 * n // 10), "p99_s": -(-99 * n // 100)}
        rows.append(
            {
                "count": n,
                "mean_s": float(chunk.mean()),
                "std_s": float(chunk.std(ddof=1)) if n > 1 else 0.0,
                **{key: float(ordered[r - 1]) for key, r in rank.items()},
            }
        )
    return rows


def slo_escalations(rows: list) -> list:
    """Indexes of windows that end a run of >= 3 p90/jitter-breaching windows."""
    escalated = []
    streak = 0
    for index, row in enumerate(rows):
        if row["p90_s"] >= SLO_P90_MAX_S or row["std_s"] >= SLO_JITTER_MAX_S:
            streak += 1
        else:
            streak = 0
        if streak >= ESCALATE_AFTER:
            escalated.append(index)
    return escalated


def check_slo(doc: dict, exit_code: int, latencies: np.ndarray) -> list:
    """`slo` windows, escalations and exit code against a tumbling-window oracle."""
    want = slo_windows(latencies)
    got = doc.get("windows", [])
    if doc.get("window_size") != WINDOW or len(got) != len(want):
        return [f"window_count: {len(got)} windows of {doc.get('window_size')}, expected "
                f"{len(want)} of {WINDOW}"]
    problems = []
    for index, (g, w) in enumerate(zip(got, want)):
        for key in ("count", "p50_s", "p90_s", "p99_s"):
            if g[key] != w[key]:
                problems.append(f"window_stats: window {index} {key}={g[key]!r}, expected {w[key]!r}")
        for key in ("mean_s", "std_s"):
            if not _close(g[key], w[key]):
                problems.append(f"window_stats: window {index} {key}={g[key]!r}, expected {w[key]!r}")
        if len(problems) >= 5:
            break
    escalations = slo_escalations(want)
    if doc.get("escalation_windows") != escalations or doc.get("escalated") != bool(escalations):
        problems.append(
            f"escalation: reported {doc.get('escalation_windows')}, expected {escalations}"
        )
    want_exit = 3 if escalations else 0
    if exit_code != want_exit:
        problems.append(f"exit_code: {exit_code}, expected {want_exit}")
    return problems
