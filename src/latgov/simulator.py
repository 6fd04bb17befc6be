"""Seeded Monte-Carlo session simulator.

Confirmation latencies are drawn from a (optionally shifted) log-normal
rail; each session then races an exponential patience clock against its
latency, converts with the jitter-penalized logistic probability, and may
produce a repeat engagement. This module owns variate layout, the array
simulation, aggregation and the experiment drivers (burst and policy
comparison); the scenario and result types are in :mod:`latgov.config`.
:func:`_pass` is the library's only implementation of a session; the tests
check it against a scalar one-session reference in ``tests/reference.py``.
Policies simulated together (``--policy all``, :func:`run_burst`) share that
one pass, in which each policy is one row of the mode and outcome arrays. The
pass yields each field once, whole, as its stage finishes: the results count
each field as it comes, and :func:`simulate_paths` keeps one attribute per field.

Determinism: a run is a pure function of ``(config, seed)``. All random
variates come from one seeded generator in four lanes of one value per
session, in a fixed order (latency normals, patience exponentials,
conversion uniforms, repeat uniforms), each drawn in blocks as the pass uses
it (:func:`draw_variates`); session ``i`` always consumes slot ``i`` of each
lane, so two policies compared under the same seed see identical draws.

Trust window: a session sees only earlier sessions, so session ``i`` perceives the
:func:`telemetry.perceived_stream` window ending with session ``i - 1`` (one session
late), and session 0 the empty window, 0.

Outcome composition (documented in output metadata): a session first
survives or loses the patience race, then converts via a Bernoulli draw,
and only converted sessions can repeat.
"""

from __future__ import annotations

from copy import copy
from dataclasses import replace
from itertools import repeat
from types import SimpleNamespace
from typing import Dict, Iterator, List, Tuple

import numpy as np

from .config import (
    POLICY_KINDS, QuantileModeRow, RailDistribution, SimConfig, SimResult, quantile_mode_rows,
)
from .governor import mode_shares, modes
from .model import abandonment_hazard, context_conversion, trust_score
from .telemetry import QUANTILES, ROLLING_BLOCK, nearest_rank, perceived_stream

OUTCOME_MODEL = "survive-then-convert"


def draw_variates(rng: np.random.Generator, n: int) -> Iterator[Iterator[np.ndarray]]:
    """The four per-session variate lanes, in their fixed draw order, each as its
    :data:`telemetry.ROLLING_BLOCK`-session blocks, drawn when the caller takes them.
    A ``Generator`` draws k values then m values as it draws k + m, so the blocks of
    a lane join to its whole draw. The block sizes are made lazily too, so no count is
    too large to start on."""
    for draw in (rng.standard_normal, rng.standard_exponential, rng.random, rng.random):
        yield map(draw, map(min, repeat(ROLLING_BLOCK), range(n, 0, -ROLLING_BLOCK)))


def _pass(cfg: SimConfig, kinds: Tuple[str, ...]) -> Iterator[Tuple[str, object]]:
    """Simulate every session under each policy in ``kinds`` in one shared pass, yielding
    ``(field, value)`` for each field as a stage makes it. ``latency_quantiles`` holds the
    nearest-rank ``QUANTILES`` of ``latency_s``, in order; ``mode`` holds int8 indexes into
    ``governor.MODE_ORDER``. Each policy is one row of the mode and outcome arrays, in
    ``kinds`` order; ``governor_transitions`` holds one count per row. Lanes are taken in
    :data:`telemetry.ROLLING_BLOCK` blocks, and each field is yielded once, whole, in stage
    order. Each per-session array is held once: each outcome stage writes its flags block by
    block over the mode rows' bytes (abandoned, then converted, then repeated), so a per-policy
    array is valid until the next field. Latencies are freed after the patience lane,
    perceived latency after the conversion lane.
    """
    n, params = cfg.sessions, cfg.params
    latencies = np.empty(n)  # first: a count too large to hold fails before `blocks` grows
    blocks = [slice(start, start + ROLLING_BLOCK) for start in range(0, n, ROLLING_BLOCK)]
    lanes = draw_variates(np.random.default_rng(cfg.seed), n)
    with np.errstate(over="ignore"):  # checked below: no window holds the last latency
        for b, z in zip(blocks, next(lanes)):
            latencies[b] = cfg.rail.latency(z)
    if not np.isfinite(latencies).all():
        raise ValueError("latencies overflow a float; lower the rail's mu_log, sigma_log or shift_s")
    ordered = np.sort(latencies)
    yield "latency_quantiles", tuple(nearest_rank(ordered, q) for q in QUANTILES.values())
    del ordered
    perceived = np.empty(n)
    perceived[:1] = 0.0  # one session late: see the module docstring
    perceived_stream(latencies[:-1], cfg.window_capacity, params.k, out=perceived[1:])
    yield "latency_s", latencies
    yield "perceived_s", perceived
    mode, transitions = np.zeros((len(kinds), n), dtype=np.int8), [0] * len(kinds)  # none: 0
    if "static_messaging" in kinds:
        mode[kinds.index("static_messaging")] = latencies > cfg.policy.static_threshold_s
    if "letw" in kinds:
        row = kinds.index("letw")
        transitions[row] = modes(perceived, params, mode[row])
    yield "mode", mode
    yield "governor_transitions", transitions
    multipliers = np.array(cfg.mitigation.multipliers)
    kept = mode.view(np.bool_)  # each block's modes, then its abandoned, converted, repeated flags
    for b, patience in zip(blocks, next(lanes)):
        with np.errstate(divide="ignore", over="ignore"):  # a zero hazard never abandons
            hazard = abandonment_hazard(perceived[b], params)
            kept[:, b] = patience / (multipliers[mode[:, b]] * hazard) < latencies[b]
    yield "abandoned", kept
    del latencies, mode
    trust = np.empty(n)
    for b, u_convert in zip(blocks, next(lanes)):
        trust[b] = trust_score(perceived[b], params)
        kept[:, b] = (u_convert < context_conversion(perceived[b], cfg.ctx, params)) & ~kept[:, b]
    yield "converted", kept
    del perceived
    for b, u_repeat in zip(blocks, next(lanes)):
        kept[:, b] &= u_repeat < cfg.engagement_ceiling * trust[b]
    yield "repeated", kept
    yield "trust", trust


_RATES = {"abandoned": "abandonment_rate", "converted": "conversion_rate", "repeated": "repeat_rate"}
_PER_POLICY = ("mode", "governor_transitions", *_RATES)


def simulate_paths(cfg: SimConfig) -> SimpleNamespace:
    """Simulate ``cfg.policy``: an attribute per :func:`_pass` field, a per-policy field's
    one row copied, since the pass writes its next field over it."""
    return SimpleNamespace(**{field: copy(value[0]) if field in _PER_POLICY else value
                              for field, value in _pass(cfg, (cfg.policy.kind,))})


def _results(cfg: SimConfig, kinds: Tuple[str, ...]) -> Dict[str, SimResult]:
    """The :class:`SimResult` of each policy in ``kinds``, summarized as :func:`_pass` runs."""
    rates, shared = {}, {}
    for field, value in _pass(cfg, kinds):
        if field in _RATES:
            rates[_RATES[field]] = [int(np.count_nonzero(row)) / cfg.sessions for row in value]
        elif field == "mode":
            shares = [mode_shares(row) for row in value]
        elif field == "trust":
            shared["mean_trust"] = float(np.mean(value))
        elif field == "latency_quantiles":
            shared.update(zip((f"latency_{q}" for q in QUANTILES), value))
    return {kind: SimResult(mode_shares=shares[i], **shared, **{r: v[i] for r, v in rates.items()})
            for i, kind in enumerate(kinds)}


def run_simulation(cfg: SimConfig) -> SimResult:
    """Simulate ``cfg.sessions`` sessions; deterministic per (config, seed)."""
    return _results(cfg, (cfg.policy.kind,))[cfg.policy.kind]


def run_burst(base: SimConfig, burst_rail: RailDistribution) -> Tuple[SimResult, SimResult]:
    """Run the congested regime ungoverned and governed under the same seed."""
    return tuple(_results(replace(base, rail=burst_rail), ("none", "letw")).values())


def compare_policies(cfg: SimConfig) -> Dict[str, SimResult]:
    """Run all three policies under the same seed; keyed by policy kind."""
    return _results(cfg, POLICY_KINDS)


def quantile_mode_report(cfg: SimConfig) -> List[QuantileModeRow]:
    """Analytic rail quantiles mapped to modes and expected conversion."""
    quantiles = {name: cfg.rail.quantile(q) for name, q in QUANTILES.items()}
    return quantile_mode_rows(quantiles, cfg.params, cfg.ctx)
