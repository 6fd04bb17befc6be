"""Telemetry ingestion, sliding-window latency statistics, and SLO tracking.

Wire format is one JSON object per line (JSONL, UTF-8) with snake_case
fields; see :data:`REQUIRED_FIELDS`. Unknown fields are ignored so the
schema can grow without breaking old readers.

:func:`event_from_dict` is the schema: the one source of every rule and
every message. There are two readers over it. :func:`iter_events` streams
one :class:`TelemetryEvent` per line. :func:`read_columns`, the reader of
the CLI, returns only the columns it is asked for. It decodes a chunk of
:data:`READ_CHUNK` lines at a time and checks the chunk's columns in bulk
against every rule. A chunk that fails any check is read again line by
line through :func:`parse_event`. So both readers accept, number and drop
the same lines with the same messages.
"""

from __future__ import annotations

import json
import math
import sys
from collections import deque
from dataclasses import dataclass, fields
from itertools import islice
from operator import ge, itemgetter
from typing import (
    TYPE_CHECKING, Deque, Dict, FrozenSet, Iterable, Iterator, List, NamedTuple, Optional,
    Sequence, Tuple,
)

from .governor import Mode
from .model import check_latency, perceived_latency

if TYPE_CHECKING:  # NumPy loads only in the array functions that use it
    import numpy as np

UX_MODES = tuple(m.value for m in Mode)

DEFAULT_WINDOW_CAPACITY = 256

# Values per pass of array work (rolling_mean_std's outputs, rounded to
# whole windows; perceived_stream's; the simulator's sessions); passes
# keep the temporaries small.
ROLLING_BLOCK = 4_096

# Metric names used in SLO breach sets.
METRIC_P50 = "p50"
METRIC_P90 = "p90"
METRIC_P99 = "p99"
METRIC_JITTER = "jitter_std"

# Metric name -> (WindowStats field, SloConfig target field, SloConfig alert field or None).
SLO_METRICS = {
    METRIC_P50: ("p50_s", "p50_max_s", None),
    METRIC_P90: ("p90_s", "p90_max_s", "p90_alert_s"),
    METRIC_P99: ("p99_s", "p99_max_s", "p99_alert_s"),
    METRIC_JITTER: ("std_s", "jitter_std_max_s", "jitter_alert_s"),
}

# Only sustained p90 / jitter violations drive automatic escalation.
ESCALATION_METRICS = frozenset({METRIC_P90, METRIC_JITTER})
ESCALATION_WINDOWS = 3  # escalate on the 3rd consecutive breaching window


class TelemetryError(ValueError):
    """Base error for telemetry ingestion; carries the 1-based line number."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class TelemetryParseError(TelemetryError):
    """The line is not valid UTF-8 or not valid JSON."""


class TelemetrySchemaError(TelemetryError):
    """The JSON object violates the event schema."""


class TelemetryEvent(NamedTuple):
    """One payment intent -> confirmation record with media stats (immutable)."""

    session_id: str
    intent_ts: int          # ms since epoch
    confirm_ts: int         # ms since epoch
    media_rtt_ms: float
    media_jitter_ms: float
    ux_mode: str
    engaged_60s: bool
    region: Optional[str] = None
    device: Optional[str] = None

    def to_dict(self) -> dict:
        return {k: v for k, v in self._asdict().items() if v is not None}


OPTIONAL_FIELDS = tuple(TelemetryEvent._field_defaults)
REQUIRED_FIELDS = tuple(f for f in TelemetryEvent._fields if f not in OPTIONAL_FIELDS)


def _require_int(doc: dict, field: str, line: Optional[int]) -> int:
    value = doc[field]
    if isinstance(value, bool) or not isinstance(value, int) or not -(2**63) <= value < 2**63:
        raise TelemetrySchemaError(
            f"field '{field}' must be a signed 64-bit integer millisecond timestamp, "
            f"got {value!r}",
            line,
        )
    return value


def _require_number(doc: dict, field: str, line: Optional[int]) -> float:
    value = doc[field]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TelemetrySchemaError(f"field '{field}' must be numeric, got {value!r}", line)
    if not 0.0 <= value <= sys.float_info.max:  # exact for a huge int; float() would overflow
        raise TelemetrySchemaError(f"field '{field}' must be finite and >= 0, got {value}", line)
    return float(value)


_JSON_TYPE_NAMES = {
    dict: "object", list: "array", str: "string", int: "number", float: "number",
    bool: "boolean", type(None): "null",
}


def json_type(value) -> str:
    """JSON's name for the type of a decoded value, for messages: object,
    array, string, number, boolean or null."""
    return _JSON_TYPE_NAMES.get(type(value), type(value).__name__)


def event_from_dict(doc: dict, line: Optional[int] = None) -> TelemetryEvent:
    """Validate one decoded JSON object against the event schema."""
    if not isinstance(doc, dict):
        raise TelemetrySchemaError(f"event must be a JSON object, got {json_type(doc)}", line)
    for field in REQUIRED_FIELDS:
        if field not in doc:
            raise TelemetrySchemaError(f"missing required field '{field}'", line)

    session_id = doc["session_id"]
    if not isinstance(session_id, str):
        raise TelemetrySchemaError(f"field 'session_id' must be a string, got {session_id!r}", line)
    intent_ts = _require_int(doc, "intent_ts", line)
    confirm_ts = _require_int(doc, "confirm_ts", line)
    if confirm_ts < intent_ts:
        raise TelemetrySchemaError(
            f"confirm before intent (confirm_ts={confirm_ts} < intent_ts={intent_ts})", line
        )
    ux_mode = doc["ux_mode"]
    if ux_mode not in UX_MODES:
        raise TelemetrySchemaError(f"field 'ux_mode' must be one of {UX_MODES}, got {ux_mode!r}", line)
    engaged = doc["engaged_60s"]
    if not isinstance(engaged, bool):
        raise TelemetrySchemaError(f"field 'engaged_60s' must be a boolean, got {engaged!r}", line)

    optional = {}
    for field in OPTIONAL_FIELDS:
        value = doc.get(field)
        if value is not None and not isinstance(value, str):
            raise TelemetrySchemaError(f"field '{field}' must be a string, got {value!r}", line)
        optional[field] = value

    return TelemetryEvent(
        session_id=session_id,
        intent_ts=intent_ts,
        confirm_ts=confirm_ts,
        media_rtt_ms=_require_number(doc, "media_rtt_ms", line),
        media_jitter_ms=_require_number(doc, "media_jitter_ms", line),
        ux_mode=ux_mode,
        engaged_60s=engaged,
        **optional,
    )


def reject_non_finite(token: str):
    """``parse_constant`` hook for ``json``: NaN and Infinity are not JSON."""
    raise ValueError(f"non-finite number {token}")


# Built once: json.loads with a hook would build a decoder for every line.
_DECODER = json.JSONDecoder(parse_constant=reject_non_finite)


def parse_event(line: str, lineno: Optional[int] = None) -> TelemetryEvent:
    """Parse one JSONL telemetry line; unknown fields are ignored."""
    if not line.isascii():  # undecodable bytes arrive as lone surrogates (surrogateescape)
        try:
            line.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise TelemetryParseError("line is not valid UTF-8", lineno) from exc
    try:
        doc = _DECODER.decode(line)
    except json.JSONDecodeError as exc:
        raise TelemetryParseError(f"malformed JSON: {exc.msg}", lineno) from exc
    except (ValueError, RecursionError) as exc:  # a hook's error, or nested too deep
        raise TelemetryParseError(f"malformed JSON: {exc}", lineno) from exc
    return event_from_dict(doc, lineno)


def event_to_json(event: TelemetryEvent) -> str:
    """Serialize an event back to its wire form (lossless round trip)."""
    return json.dumps(event.to_dict(), sort_keys=True, separators=(",", ":"))


def iter_events(
    lines: Iterable[str], skip_bad: bool = False, start: int = 1
) -> Iterator[TelemetryEvent]:
    """Yield events from JSONL lines, the first numbered ``start``; blank lines
    are skipped but counted.

    With ``skip_bad`` malformed lines are dropped instead of raising.
    """
    for lineno, raw in enumerate(lines, start=start):
        raw = raw.strip()
        if not raw:
            continue
        try:
            yield parse_event(raw, lineno)
        except TelemetryError:
            if not skip_bad:
                raise


def _latency_s(confirm_ts: int, intent_ts: int) -> float:
    return (confirm_ts - intent_ts) / 1000.0


def confirmation_latency(event: TelemetryEvent) -> float:
    """Intent-to-confirmation latency in seconds."""
    return _latency_s(event.confirm_ts, event.intent_ts)


# Lines per bulk check in read_columns. A chunk's decoded documents are the
# reader's working set: on `slo` over 100k events, peak RSS was 34.8 MB with
# 256-line chunks, 35.9 MB with 1,024 and 43.3 MB with 4,096 (34.6 MB reading
# line by line), at no gain in speed past 256.
READ_CHUNK = 256

# The columns read_columns can return: the event fields and the latency.
COLUMNS = TelemetryEvent._fields + ("latency_s",)
_MEDIA_FIELDS = ("media_rtt_ms", "media_jitter_ms")
_required_values = itemgetter(*REQUIRED_FIELDS)
_UX_MODE_SET = frozenset(UX_MODES)
_OPTIONAL_TYPES = frozenset({str, type(None)})


def _valid_chunk(lines: List[str]) -> Optional[Dict[str, Sequence]]:
    """Field name -> values of the events on ``lines``, when every non-blank
    line is a UTF-8 JSON object that :func:`event_from_dict` accepts; else
    ``None``. Media values stay as decoded (int or float).

    The checks run per field over the whole chunk. They never accept a line
    :func:`event_from_dict` rejects; a chunk they refuse, good or not, takes
    the line-by-line path. They refuse no good chunk.
    """
    try:
        "".join(lines).encode("utf-8")  # undecodable bytes arrive as lone surrogates
    except UnicodeEncodeError:
        return None
    text = [s for s in map(str.strip, lines) if s]
    if not text:
        return {}
    scan = _DECODER.scan_once
    try:
        decoded = [scan(s, 0) for s in text]  # raises on the first bad line
        if [end for _, end in decoded] != list(map(len, text)):  # a trailing value
            return None
        docs = [doc for doc, _ in decoded]
        # A value that is not an object, or one missing a field, raises here.
        columns = dict(zip(REQUIRED_FIELDS, zip(*map(_required_values, docs))))
        for field in OPTIONAL_FIELDS:
            columns[field] = [doc.get(field) for doc in docs]
        intent, confirm = columns["intent_ts"], columns["confirm_ts"]
        media = columns["media_rtt_ms"] + columns["media_jitter_ms"]
        valid = (
            set(map(type, columns["session_id"])) == {str}
            and set(map(type, intent + confirm)) == {int}
            and -(2**63) <= min(intent)
            and max(confirm) < 2**63
            and all(map(ge, confirm, intent))
            and set(map(type, media)) <= {int, float}
            and 0.0 <= min(media)
            and max(media) <= sys.float_info.max
            and set(columns["ux_mode"]) <= _UX_MODE_SET
            and set(map(type, columns["engaged_60s"])) == {bool}
            and all(set(map(type, columns[f])) <= _OPTIONAL_TYPES for f in OPTIONAL_FIELDS)
        )
    except (StopIteration, ValueError, LookupError, TypeError, RecursionError):
        # Not JSON, not finite, too deep, not an object, a field missing, an
        # unhashable mode: the line-by-line path says what, and where.
        return None
    return columns if valid else None


def read_columns(
    lines: Iterable[str], names: Sequence[str], skip_bad: bool = False
) -> Tuple[list, ...]:
    """The columns ``names`` (from :data:`COLUMNS`) of the events in JSONL ``lines``.

    Accepts, rejects and numbers lines exactly as :func:`iter_events`, without
    an event object per line: each chunk of :data:`READ_CHUNK` lines is
    decoded and checked in bulk (:func:`_valid_chunk`), and a chunk that does
    not pass is read again through :func:`parse_event`, which raises (or, with
    ``skip_bad``, drops) its bad lines with their messages and line numbers.
    The idea is from Langdale & Lemire, "Parsing Gigabytes of JSON per
    Second" (VLDB J. 2019): validate in bulk, fall back on failure.
    """
    columns: Tuple[list, ...] = tuple([] for _ in names)
    lines = iter(lines)
    start = 1
    for chunk in iter(lambda: list(islice(lines, READ_CHUNK)), []):
        values = _valid_chunk(chunk)
        if values is None:
            events = list(iter_events(chunk, skip_bad, start))
            values = dict(zip(TelemetryEvent._fields, zip(*events))) if events else {}
        start += len(chunk)
        if not values:
            continue
        for name, column in zip(names, columns):
            if name == "latency_s":
                column.extend(map(_latency_s, values["confirm_ts"], values["intent_ts"]))
            elif name in _MEDIA_FIELDS:
                column.extend(map(float, values[name]))
            else:
                column.extend(values[name])
    return columns


def nearest_rank(sorted_values: Sequence[float], q: float) -> float:
    """Exact nearest-rank quantile: element at 1-based rank ceil(q * n).

    The small epsilon keeps ranks stable when q * n lands on an integer up
    to floating-point rounding.
    """
    n = len(sorted_values)
    if n == 0:
        raise ValueError("cannot take a quantile of an empty sequence")
    if not (0.0 < q <= 1.0):
        raise ValueError(f"q must be inside (0, 1], got {q}")
    rank = math.ceil(q * n - 1e-9)
    if rank < 1:
        rank = 1
    return float(sorted_values[rank - 1])


@dataclass(frozen=True)
class WindowStats:
    """Summary of the retained window: mean, sample std, nearest-rank quantiles."""

    count: int
    mean_s: float
    std_s: float
    p50_s: float
    p90_s: float
    p99_s: float

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ValueError("count must be >= 0")
        if self.std_s < 0.0:
            raise ValueError("std_s must be >= 0")
        if not (self.p50_s <= self.p90_s <= self.p99_s):
            raise ValueError("quantiles must be ordered p50 <= p90 <= p99")


EMPTY_STATS = WindowStats(count=0, mean_s=0.0, std_s=0.0, p50_s=0.0, p90_s=0.0, p99_s=0.0)


def window_stats(values: Sequence[float]) -> WindowStats:
    """Mean (fsum), sample std (n-1) and nearest-rank p50/p90/p99 of ``values``."""
    n = len(values)
    if n == 0:
        return EMPTY_STATS
    mean = math.fsum(values) / n
    if n > 1:
        std = math.sqrt(math.fsum((v - mean) ** 2 for v in values) / (n - 1))
    else:
        std = 0.0
    ordered = sorted(values)
    return WindowStats(
        count=n,
        mean_s=mean,
        std_s=std,
        p50_s=nearest_rank(ordered, 0.50),
        p90_s=nearest_rank(ordered, 0.90),
        p99_s=nearest_rank(ordered, 0.99),
    )


def rolling_mean_std(
    x, window: int, include_current: bool
) -> Tuple[np.ndarray, np.ndarray]:
    """Mean and sample std (n-1) of the last ``window`` values at every index.

    With ``include_current`` the window at index i ends with x[i] (push,
    then stats: replay). Without it the window ends with x[i-1], so index 0
    sees an empty window (a simulated session sees only earlier sessions).
    Empty windows read mean 0 and one-value windows std 0, as in
    :meth:`LatencyWindow.stats`.

    The values are cut into rows of ``window`` values, so every full window
    is the tail of one row plus the head of the next. Running sums over
    each row give every head (about the row's first value) and every tail
    (about its last value); the two parts are then merged with the pairwise
    update of Chan, Golub & LeVeque (1979). Each sum runs over at most
    ``window`` values about a value of its own part, so precision does not
    depend on the length of ``x``, on a latency shift, or on how small the
    window's spread is next to the data's.
    """
    import numpy as np
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    mean = np.zeros(n)
    std = np.zeros(n)
    lag = 0 if include_current else 1
    window = min(window, max(n, 1))  # a longer window sees the same values
    block = max(1, ROLLING_BLOCK // window) * window
    for start in range(0, n, block):
        stop = min(start + block, n)
        lo = max(0, start + 1 - lag - window) // window * window  # a row boundary
        ends = np.arange(start + 1 - lag, stop + 1 - lag) - lo  # exclusive, from lo
        seg = x[lo : lo + ends[-1]]
        flat = np.zeros(max(1, -(-seg.shape[0] // window)) * window)
        flat[: seg.shape[0]] = seg
        rows = flat.reshape(-1, window)
        dev = rows - rows[:, :1]
        head1 = np.cumsum(dev, axis=1).ravel()
        head2 = np.cumsum(dev * dev, axis=1).ravel()
        dev = rows[:, ::-1] - rows[:, -1:]
        tail1 = np.cumsum(dev, axis=1)[:, ::-1].ravel()
        tail2 = np.cumsum(dev * dev, axis=1)[:, ::-1].ravel()

        # Head: the window's values in its last row, [ends - n_head, ends);
        # tail: the rest, [ends - window, ends - n_head), ending the row before.
        n_head = ends % window
        n_tail = np.where(ends >= window, window - n_head, 0)
        count = n_head + n_tail
        i_head = np.maximum(ends - 1, 0)
        h1 = np.where(n_head > 0, head1[i_head], 0.0)
        h2 = np.where(n_head > 0, head2[i_head], 0.0)
        mean_head = flat[np.minimum(ends - n_head, flat.size - 1)] + h1 / np.maximum(n_head, 1)
        i_tail = np.maximum(ends - window, 0)
        r1 = np.where(n_tail > 0, tail1[i_tail], 0.0)
        r2 = np.where(n_tail > 0, tail2[i_tail], 0.0)
        mean_tail = flat[i_tail - n_head + window - 1] + r1 / np.maximum(n_tail, 1)

        delta = np.where((n_head > 0) & (n_tail > 0), mean_head - mean_tail, 0.0)
        size = np.maximum(count, 1)
        m2 = (
            (h2 - h1 * h1 / np.maximum(n_head, 1))
            + (r2 - r1 * r1 / np.maximum(n_tail, 1))
            + delta * delta * n_head * n_tail / size
        )
        merged = np.where(n_tail > 0, mean_tail + delta * n_head / size, mean_head)
        mean[start:stop] = np.where(count > 0, merged, 0.0)
        var = np.maximum(m2, 0.0) / np.maximum(count - 1, 1)
        std[start:stop] = np.where(count > 1, np.sqrt(var), 0.0)
    return mean, std


def perceived_stream(latencies, window: int, include_current: bool, k: float) -> np.ndarray:
    """:func:`model.perceived_latency` over the :func:`rolling_mean_std` window at
    every index; raises ``ValueError`` where it overflows a float."""
    import numpy as np
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite values are rejected below
        perceived, std = rolling_mean_std(latencies, window, include_current)
        for start in range(0, perceived.shape[0], ROLLING_BLOCK):
            b = slice(start, start + ROLLING_BLOCK)
            perceived[b] = perceived_latency(perceived[b], std[b], k)
    if not np.isfinite(perceived).all():
        raise ValueError("perceived latency overflows a float; lower params.k or the latencies")
    return perceived


class LatencyWindow:
    """Bounded count-based window of confirmation latencies (seconds).

    Pushing past capacity evicts the oldest value; retained order is
    preserved. Single-writer; distinct sessions get distinct windows.
    """

    def __init__(self, capacity: int = DEFAULT_WINDOW_CAPACITY):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._values: Deque[float] = deque(maxlen=capacity)

    def __len__(self) -> int:
        return len(self._values)

    def values(self) -> tuple:
        return tuple(self._values)

    def push(self, latency_s: float) -> "LatencyWindow":
        self._values.append(check_latency(latency_s))
        return self

    def stats(self) -> WindowStats:
        return window_stats(self._values)


@dataclass(frozen=True)
class SloConfig:
    """Latency SLO targets plus dashboard alert thresholds.

    Targets bound the streaming window check; alert thresholds mark the
    more severe dashboard level. ``conv_min`` / ``repeat_min`` are
    behavioral alert floors evaluated only in batch reports because they
    need outcome labels.
    """

    p50_max_s: float = 1.0
    p90_max_s: float = 2.0
    p99_max_s: float = 4.0
    jitter_std_max_s: float = 0.7
    p90_alert_s: float = 2.5
    p99_alert_s: float = 5.0
    jitter_alert_s: float = 1.0
    conv_min: float = 0.08
    repeat_min: float = 0.04

    def __post_init__(self) -> None:
        for f in fields(self):
            if not getattr(self, f.name) > 0.0:
                raise ValueError(f"{f.name} must be > 0")
        for _, target, alert in SLO_METRICS.values():
            if alert is not None and not getattr(self, target) < getattr(self, alert):
                raise ValueError(f"{target} must be below {alert}")


@dataclass(frozen=True)
class SloStatus:
    """Consecutive-breach tracking state for one telemetry stream."""

    consecutive_breaches: int = 0
    breached_metrics: FrozenSet[str] = frozenset()
    escalated: bool = False


def slo_evaluate(stats: WindowStats, cfg: SloConfig) -> FrozenSet[str]:
    """Names of metrics at or beyond their SLO targets; empty when compliant."""
    return frozenset(
        name
        for name, (stat, target, _) in SLO_METRICS.items()
        if getattr(stats, stat) >= getattr(cfg, target)
    )


def slo_alerts(stats: WindowStats, cfg: SloConfig) -> FrozenSet[str]:
    """Metrics strictly beyond the dashboard alert thresholds."""
    return frozenset(
        name
        for name, (stat, _, alert) in SLO_METRICS.items()
        if alert is not None and getattr(stats, stat) > getattr(cfg, alert)
    )


def slo_track(status: SloStatus, breaches: FrozenSet[str]) -> SloStatus:
    """Advance consecutive-breach state for one evaluated window.

    Only p90 and jitter breaches count toward escalation; a clean window
    resets the streak. Escalation fires on the 3rd consecutive breaching
    window ("more than two" read strictly).
    """
    if breaches & ESCALATION_METRICS:
        consecutive = status.consecutive_breaches + 1
    else:
        consecutive = 0
    return SloStatus(
        consecutive_breaches=consecutive,
        breached_metrics=frozenset(breaches),
        escalated=consecutive >= ESCALATION_WINDOWS,
    )
