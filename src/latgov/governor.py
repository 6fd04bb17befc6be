"""UX mode governance: hysteresis state machine, trust-threshold selection,
the stateless budget rule, SLO escalation, and the sequential rollout guard.

One :class:`GovernorState` per session; steps for a session are strictly
ordered, different sessions are independent. States are immutable values,
so they can be handed between threads freely.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from .model import ModelParams, check_latency, perceived_latency, trust_score

if TYPE_CHECKING:  # telemetry imports Mode from here; NumPy loads only in modes()
    import numpy as np

    from .telemetry import SloStatus

DEFAULT_MAX_CONV_DROP = 0.02


class Mode(enum.Enum):
    """Confirmation UX modes, ordered from least to most protective."""

    INSTANT = "instant"
    SOFT = "soft"
    DEFERRED = "deferred"

    @property
    def index(self) -> int:
        return MODE_ORDER.index(self)


MODE_ORDER = tuple(Mode)  # the declaration order: least to most protective


class Reason(enum.Enum):
    """Why a decision landed in its mode."""

    WITHIN_BUDGET = "within_budget"
    BUDGET_EXCEEDED = "budget_exceeded"
    SOFT_LIMIT_EXCEEDED = "soft_limit_exceeded"
    HYSTERESIS_HOLD = "hysteresis_hold"


@dataclass(frozen=True)
class GovernorState:
    """Current mode plus transition count; fresh governors start optimistic."""

    mode: Mode = Mode.INSTANT
    transitions: int = 0

    def __post_init__(self) -> None:
        if self.transitions < 0:
            raise ValueError("transitions must be >= 0")


@dataclass(frozen=True)
class Decision:
    """One governance outcome: mode, trust, input latency, and the reason."""

    mode: Mode
    trust: float
    perceived_latency: float
    reason: Reason


@dataclass(frozen=True)
class RolloutState:
    """Continue/pause verdict of the sequential rollout guard."""

    stage: str  # "continue" | "pause"

    def __post_init__(self) -> None:
        if self.stage not in ("continue", "pause"):
            raise ValueError(f"stage must be 'continue' or 'pause', got {self.stage!r}")

    @property
    def forced_mode(self) -> Optional[Mode]:
        """Soft confirmation while paused; no forced mode otherwise."""
        return Mode.SOFT if self.stage == "pause" else None


def select_mode_by_trust(trust: float, params: ModelParams) -> Mode:
    """Threshold selection on the trust score; boundaries are inclusive upward."""
    if not (0.0 <= trust <= 1.0):
        raise ValueError(f"trust must be inside [0, 1], got {trust}")
    if trust >= params.theta1:
        return Mode.INSTANT
    if trust >= params.theta2:
        return Mode.SOFT
    return Mode.DEFERRED


def decide_simple(
    mean_latency: float, std_latency: float, params: ModelParams
) -> Mode:
    """Stateless budget rule on perceived latency mean + k * std."""
    lp = perceived_latency(mean_latency, std_latency, params.k)
    if lp <= params.budget_b_l:
        return Mode.INSTANT
    if lp <= params.budget_soft:
        return Mode.SOFT
    return Mode.DEFERRED


def next_mode(mode: Mode, perceived_latency: float, params: ModelParams) -> Mode:
    """The hysteresis rule: the mode after one observation in ``mode``.

    Strict inequalities, at most one hop per step: Instant->Soft when
    L_p > budget; Soft->Deferred when L_p > soft limit; Soft->Instant when
    L_p < budget - h; Deferred->Soft when L_p < soft limit - h.
    """
    lp = perceived_latency
    if mode is Mode.INSTANT:
        return Mode.SOFT if lp > params.budget_b_l else Mode.INSTANT
    if mode is Mode.SOFT:
        if lp > params.budget_soft:
            return Mode.DEFERRED
        if lp < params.budget_b_l - params.hysteresis_h:
            return Mode.INSTANT
        return Mode.SOFT
    return Mode.SOFT if lp < params.budget_soft - params.hysteresis_h else Mode.DEFERRED


def reason_table(params: ModelParams) -> Tuple[Tuple[float, Reason, Reason], ...]:
    """Per mode in :data:`MODE_ORDER`: ``(limit, held, crossed)``; a perceived
    latency above ``limit`` explains the mode as ``crossed``, any other as ``held``."""
    return (
        (math.inf, Reason.WITHIN_BUDGET, Reason.WITHIN_BUDGET),
        (params.budget_b_l, Reason.HYSTERESIS_HOLD, Reason.BUDGET_EXCEEDED),
        (params.budget_soft, Reason.HYSTERESIS_HOLD, Reason.SOFT_LIMIT_EXCEEDED),
    )


def reason_for(mode: Mode, lp: float, params: ModelParams) -> Reason:
    """Why the hysteresis rule landed in ``mode`` on observing perceived latency ``lp``."""
    limit, held, crossed = reason_table(params)[mode.index]
    return crossed if lp > limit else held


def modes(perceived: Sequence[float], params: ModelParams, out: np.ndarray) -> int:
    """Run :func:`next_mode` over perceived latencies from :attr:`Mode.INSTANT`, unchecked:
    write the :data:`MODE_ORDER` index after each value into the int8 ``out``, one code per
    value, and return the number of mode changes.

    :func:`next_mode` sees a value only through four strict comparisons, so values are packed
    into a 4-bit threshold pattern and the governor walks runs of one pattern, a
    :data:`telemetry.ROLLING_BLOCK` block at a time with the mode carried on, so its scratch
    does not grow with the stream. ``0 < h < budget_b_l < budget_soft`` leaves the rule no
    cycle, so within a run the mode settles after at most two hops: the first value takes one,
    every later value the second. Each pattern's hops come from :func:`next_mode` on the first
    value seen with it (at most 16 x 3 calls per stream), so the cost grows with the runs.
    """
    import numpy as np
    from .telemetry import ROLLING_BLOCK  # imported here: telemetry imports Mode from here
    lp = np.asarray(perceived, dtype=np.float64)
    if len(out) != len(lp):
        raise ValueError(f"out holds {len(out)} codes for {len(lp)} perceived latencies")
    hops: List[Optional[List[int]]] = [None] * 16  # pattern -> next code per code
    code = transitions = 0  # Mode.INSTANT
    for lo in range(0, len(lp), ROLLING_BLOCK):
        block, codes = lp[lo : lo + ROLLING_BLOCK], out[lo : lo + ROLLING_BLOCK]
        pattern = (block > params.budget_b_l).view(np.int8)
        pattern |= (block > params.budget_soft).view(np.int8) << 1
        pattern |= (block < params.budget_b_l - params.hysteresis_h).view(np.int8) << 2
        pattern |= (block < params.budget_soft - params.hysteresis_h).view(np.int8) << 3
        starts = np.flatnonzero(np.concatenate(([True], pattern[1:] != pattern[:-1])))
        lengths = np.diff(starts, append=len(block))
        firsts, lasts = bytearray(), bytearray()  # one code a byte
        for i, p, length in zip(starts, pattern[starts].tolist(), lengths.tolist()):
            hop = hops[p]
            if hop is None:
                hop = hops[p] = [next_mode(m, float(block[i]), params).index for m in MODE_ORDER]
            first = hop[code]
            last = hop[first] if length > 1 else first
            transitions += (first != code) + (last != first)
            code = last
            firsts.append(first)
            lasts.append(last)
        codes[:] = np.repeat(lasts, lengths)
        codes[starts] = firsts
    return transitions


def mode_shares(codes: np.ndarray) -> Dict[str, float]:
    """Each mode's share of :func:`modes` codes, keyed by mode name in :data:`MODE_ORDER`.
    Counts compare the codes in their own dtype, so no wider copy of them is made."""
    import numpy as np
    if len(codes) == 0:
        raise ValueError("cannot take mode shares of no codes")
    return {
        mode.value: int(np.count_nonzero(codes == i)) / len(codes)
        for i, mode in enumerate(MODE_ORDER)
    }


def step(
    state: GovernorState, perceived_latency: float, params: ModelParams
) -> Tuple[GovernorState, Decision]:
    """Advance the hysteresis state machine (:func:`next_mode`) by one
    observation and explain the resulting mode (:func:`reason_for`)."""
    lp = check_latency(perceived_latency, "perceived latency")

    new_mode = next_mode(state.mode, lp, params)
    next_state = GovernorState(new_mode, state.transitions + (new_mode is not state.mode))
    decision = Decision(
        mode=new_mode,
        trust=trust_score(lp, params),
        perceived_latency=lp,
        reason=reason_for(new_mode, lp, params),
    )
    return next_state, decision


def apply_slo_escalation(state: GovernorState, slo: SloStatus) -> GovernorState:
    """Force Instant down to Soft on sustained SLO breach; never relaxes."""
    if slo.escalated and state.mode is Mode.INSTANT:
        return GovernorState(mode=Mode.SOFT, transitions=state.transitions + 1)
    return state


def rollout_guard(
    trust: float,
    conv_drop: float,
    theta: float,
    max_drop: float = DEFAULT_MAX_CONV_DROP,
) -> RolloutState:
    """Sequential ramp gate: pause (forcing soft confirmation) when trust
    falls below theta or conversion declines more than max_drop.

    ``conv_drop`` is baseline conversion minus current conversion, in
    absolute probability units; positive means decline.
    """
    for name, value in (("trust", trust), ("conv_drop", conv_drop),
                        ("theta", theta), ("max_drop", max_drop)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    if trust < theta or conv_drop > max_drop:
        return RolloutState(stage="pause")
    return RolloutState(stage="continue")
