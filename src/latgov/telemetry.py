"""Telemetry ingestion, sliding-window latency statistics, and SLO tracking.

Wire format is one JSON object per line (JSONL, UTF-8) with snake_case
fields; see :data:`REQUIRED_FIELDS`. Unknown fields are ignored so the
schema can grow without breaking old readers.

The schema is the types of :class:`TelemetryEvent`'s annotations (see
:func:`json_types`) plus :data:`SCHEMA`, one table of the other rules and
their messages. Two readers walk it: :func:`iter_events` a value at a time
(:func:`event_from_dict`), one event per line; :func:`read_columns`, the
reader of the CLI, a column at a time over :data:`READ_CHUNK` decoded lines,
returning only the columns asked for. A chunk that fails any check is read
again line by line through :func:`parse_event`. So both readers accept,
number and drop the same lines with the same messages.

:data:`QUANTILES` names the latency quantiles that every summary reports.
"""

from __future__ import annotations

import json
import math
import sys
import typing
from dataclasses import dataclass, fields
from itertools import islice, repeat
from operator import ge, itemgetter
from typing import (
    TYPE_CHECKING, Dict, FrozenSet, Iterable, Iterator, List, NamedTuple, Optional, Sequence,
    Tuple,
)

from .governor import Mode
from .model import perceived_latency

if TYPE_CHECKING:  # NumPy loads only in the array functions that use it
    import numpy as np

UX_MODES = tuple(m.value for m in Mode)

DEFAULT_WINDOW_CAPACITY = 256

# Values per pass of array work (the window's outputs, rounded to whole
# windows; the simulator's sessions); passes keep the temporaries small.
ROLLING_BLOCK = 4_096

# Latency quantile name -> nearest-rank level; every quantile list derives from it.
QUANTILES = {"p50": 0.50, "p90": 0.90, "p99": 0.99}

# Metric names used in SLO breach sets: the quantile names and this one.
METRIC_JITTER = "jitter_std"

# Metric name -> (WindowStats field, SloConfig target field, SloConfig alert field
# or None: the median has no alert).
SLO_METRICS = {
    **{q: (f"{q}_s", f"{q}_max_s", None if q == "p50" else f"{q}_alert_s") for q in QUANTILES},
    METRIC_JITTER: ("std_s", "jitter_std_max_s", "jitter_alert_s"),
}

# Only sustained p90 / jitter violations drive automatic escalation.
ESCALATION_METRICS = frozenset({"p90", METRIC_JITTER})
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


OPTIONAL_FIELDS = tuple(TelemetryEvent._field_defaults)
REQUIRED_FIELDS = tuple(f for f in TelemetryEvent._fields if f not in OPTIONAL_FIELDS)


def json_types(hint) -> FrozenSet[type]:
    """The types of decoded JSON values that fit an annotation, exactly (so
    ``int`` takes no ``bool``): ``float`` takes ``int`` too, ``Optional``
    adds ``NoneType``, and ``Dict[str, float]`` is ``dict``."""
    if typing.get_origin(hint) is typing.Union:
        return frozenset().union(*map(json_types, typing.get_args(hint)))
    if hint is float:
        return frozenset({int, float})
    return frozenset({typing.get_origin(hint) or hint})


_HINTS = typing.get_type_hints(TelemetryEvent)
_FIELD_TYPES = {f: json_types(h) for f, h in _HINTS.items()}
_FLOAT_INDEXES = tuple(i for i, h in enumerate(_HINTS.values()) if h is float)
_MUST = "field '{field}' must be %s, got {value!r}"
_TIMESTAMP = _MUST % "a signed 64-bit integer millisecond timestamp"
_INT64 = (-(2**63), 2**63 - 1)
_FINITE = (0.0, sys.float_info.max)

# The event schema beyond the types of TelemetryEvent's annotations: one rule
# a row, in the order event_from_dict checks them. A value keeps a row's rule
# when its type is in the field's json_types, it is one of ``values`` and
# ``low <= value <= high``, each part unless None (a field name as low stands
# for that field's value). Else ``message``, formatted with the field, the
# value and low, says why.
SCHEMA = (
    # field            values               low, high              message
    ("session_id",      None,                None, None,            _MUST % "a string"),
    ("intent_ts",       None,                *_INT64,               _TIMESTAMP),
    ("confirm_ts",      None,                *_INT64,               _TIMESTAMP),
    ("confirm_ts",      None,                "intent_ts", None,
     "confirm before intent (confirm_ts={value} < intent_ts={low})"),
    ("ux_mode",         frozenset(UX_MODES), None, None,            _MUST % f"one of {UX_MODES}"),
    ("engaged_60s",     None,                None, None,            _MUST % "a boolean"),
    ("region",          None,                None, None,            _MUST % "a string"),
    ("device",          None,                None, None,            _MUST % "a string"),
    ("media_rtt_ms",    None,                None, None,            _MUST % "numeric"),
    ("media_rtt_ms",    None,                *_FINITE,              _MUST % "finite and >= 0"),
    ("media_jitter_ms", None,                None, None,            _MUST % "numeric"),
    ("media_jitter_ms", None,                *_FINITE,              _MUST % "finite and >= 0"),
)

# SCHEMA as event_from_dict walks it, over the event's values in field
# order: each row led by its field's index and the JSON types it takes.
_RULES = tuple((TelemetryEvent._fields.index(f), _FIELD_TYPES[f], *r) for f, *r in SCHEMA)

_JSON_TYPE_NAMES = {
    dict: "object", list: "array", str: "string", int: "number", float: "number",
    bool: "boolean", type(None): "null",
}


def json_type(value) -> str:
    """JSON's name for the type of a decoded value, for messages: object,
    array, string, number, boolean or null."""
    return _JSON_TYPE_NAMES.get(type(value), type(value).__name__)


def event_from_dict(doc: dict, line: Optional[int] = None) -> TelemetryEvent:
    """Validate one decoded JSON object against the event schema: every
    required field present, then :data:`SCHEMA` a row at a time."""
    if not isinstance(doc, dict):
        raise TelemetrySchemaError(f"event must be a JSON object, got {json_type(doc)}", line)
    event = list(map(doc.get, TelemetryEvent._fields))
    for index, types, values, low, high, message in _RULES:
        value = event[index]
        if type(value) in types and (values is None or value in values):
            if low is None:
                continue
            if isinstance(low, str):
                low = doc[low]
            if low <= value and (high is None or value <= high):
                continue
        # A missing field is None, which no required field's type takes: so
        # the walk fails on it, and the missing field is the first message.
        for field in REQUIRED_FIELDS:
            if field not in doc:
                raise TelemetrySchemaError(f"missing required field '{field}'", line)
        field = TelemetryEvent._fields[index]
        raise TelemetrySchemaError(message.format(field=field, value=value, low=low), line)
    for index in _FLOAT_INDEXES:
        event[index] = float(event[index])
    return TelemetryEvent._make(event)


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


# What JSON counts as whitespace: a line is stripped of these and no more.
JSON_WS = " \t\r\n"


def iter_events(
    lines: Iterable[str], skip_bad: bool = False, start: int = 1
) -> Iterator[TelemetryEvent]:
    """Yield events from JSONL lines, the first numbered ``start``; blank lines
    (only :data:`JSON_WS`) are skipped but counted.

    With ``skip_bad`` malformed lines are dropped instead of raising.
    """
    for lineno, raw in enumerate(lines, start=start):
        raw = raw.strip(JSON_WS)
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
_required_values = itemgetter(*REQUIRED_FIELDS)


def _valid_chunk(lines: List[str]) -> Optional[Dict[str, Sequence]]:
    """Field name -> values of the events on ``lines``, when every non-blank
    line is a UTF-8 JSON object that :func:`event_from_dict` accepts; else
    ``None``. Float fields stay as decoded (int or float).

    The checks walk :data:`SCHEMA` a column at a time over the whole chunk.
    They never accept a line :func:`event_from_dict` rejects; a chunk they
    refuse, good or not, takes the line-by-line path. They refuse no good
    chunk.
    """
    try:
        "".join(lines).encode("utf-8")  # undecodable bytes arrive as lone surrogates
    except UnicodeEncodeError:
        return None
    text = list(filter(None, map(str.strip, lines, repeat(JSON_WS))))
    if not text:
        return {}
    try:
        # A line that is not JSON ends the map early (scan_once raises
        # StopIteration), so fewer ends come back than there are lines.
        docs, ends = zip(*map(_DECODER.scan_once, text, repeat(0)))
        if ends != tuple(map(len, text)):  # a line not JSON, or with a trailing value
            return None
        # A value that is not an object, or one missing a field, raises here.
        columns = dict(zip(REQUIRED_FIELDS, zip(*map(_required_values, docs))))
    except (ValueError, LookupError, TypeError, RecursionError):
        # Not JSON, not finite, too deep, not an object, a field missing: the
        # line-by-line path says what, and where.
        return None
    for field in OPTIONAL_FIELDS:
        columns[field] = list(map(dict.get, docs, repeat(field)))
    for field, types in _FIELD_TYPES.items():
        if not set(map(type, columns[field])) <= types:
            return None
    # The intent_ts high bound and the confirm_ts low bound never refuse a chunk
    # that another row would pass: with confirm_ts >= intent_ts, the other
    # timestamp's bound implies each. They stay in SCHEMA because they fix which
    # message event_from_dict gives first.
    for field, values, low, high, _ in SCHEMA:
        column = columns[field]
        if values is not None and not set(column) <= values:
            return None
        if low is None:
            continue
        above = all(map(ge, column, columns[low])) if isinstance(low, str) else low <= min(column)
        if not above or (high is not None and max(column) > high):
            return None
    return columns


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
            elif _HINTS.get(name) is float:
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


EMPTY_STATS = WindowStats(0, 0.0, 0.0, *(0.0 for _ in QUANTILES))


# Below this std some squared deviation may have fallen under the normal float
# range (a deviation under 2**-511 does) and lost its bits; at or above it, the
# lost part is under 2**-100 of the sum of squares.
_STD_UNDERFLOW = 2.0**-480


def _mean_std(values: Sequence[float]) -> Tuple[float, float]:
    """Mean (fsum) and sample std (n-1); raises ``OverflowError`` when a sum overflows."""
    n = len(values)
    mean = math.fsum(values) / n
    if n == 1:
        return mean, 0.0
    return mean, math.sqrt(math.fsum((v - mean) ** 2 for v in values) / (n - 1))


def window_stats(values: Sequence[float]) -> WindowStats:
    """Mean (fsum), sample std (n-1) and the nearest-rank :data:`QUANTILES` of ``values``.

    A window of finite values whose sums overflow (``[1e200, -1e200]``), or
    whose differing values are so close to 0 that their squared deviations
    underflow (``[1e-300, 2e-300]``), is summed again over its values scaled
    by a power of two into [0.5, 1), and the mean and std are scaled back. The
    scaling is exact but for values that underflow in it, far below the
    window's largest; every other window takes the plain sums and pays
    nothing. A std past the float range reads inf.
    """
    n = len(values)
    if n == 0:
        return EMPTY_STATS
    ordered = sorted(values)
    try:
        mean, std = _mean_std(values)
        finite = math.isfinite(mean) and math.isfinite(std)
        rescale = not finite and all(map(math.isfinite, values))
    except OverflowError:
        rescale = True
    if rescale or (std < _STD_UNDERFLOW and ordered[0] != ordered[-1]):
        shift = math.frexp(max(-ordered[0], ordered[-1]))[1]
        mean, std = _mean_std([math.ldexp(v, -shift) for v in values])
        mean = math.ldexp(mean, shift)
        try:
            std = math.ldexp(std, shift)
        except OverflowError:
            std = math.inf
    return WindowStats(n, mean, std, *(nearest_rank(ordered, q) for q in QUANTILES.values()))


def _running_moments(rows: np.ndarray, counts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Running mean and sum of squared deviations along each row, summed about the
    row's first value: column c covers the first ``counts[c]`` (c + 1) values."""
    import numpy as np
    dev = rows - rows[:, :1]
    s1 = np.cumsum(dev, axis=1)
    m2 = np.cumsum(np.square(dev, out=dev), axis=1)
    mean = np.divide(s1, counts)
    mean += rows[:, :1]
    np.square(s1, out=s1)
    s1 /= counts
    m2 -= s1
    return mean, m2


def _window_passes(x, window: int) -> Iterator[Tuple[int, int, np.ndarray, np.ndarray]]:
    """Yield ``(start, stop, mean, std)`` a pass at a time for :func:`rolling_mean_std`:
    the arrays hold the windows ending at ``x[start:stop]``."""
    import numpy as np
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    window = min(window, max(n, 1))  # a longer window sees the same values
    n_head = np.arange(1.0, window + 1.0)  # by column: values in the window's own row
    step = max(1, ROLLING_BLOCK // window) * window
    for start in range(0, n, step):
        stop = min(start + step, n)
        lo = max(start - window, 0)  # a later pass rereads the row before for its tails
        rows = x[lo:stop]
        if rows.shape[0] % window:
            rows = np.concatenate((rows, np.zeros(-rows.shape[0] % window)))
        rows = rows.reshape(-1, window)
        first = lo == start  # else rows[0] is the row before, read for its tails
        # Heads; a window at a row's end, and every window of the first row, is
        # all head.
        mean, m2 = _running_moments(rows if first else rows[1:], n_head)
        # Tails, of the row before summed from its end back: reversed column c
        # holds its last c + 1 values.
        mean_tail, t2 = _running_moments(rows[:-1, :0:-1], n_head[:-1])
        # Merge each window of a later row, but the row's last, with its tail
        # (n_tail from window - 1 down to 1): m2 += m2_tail + delta**2 * n_head *
        # n_tail / window and mean = mean_tail + delta * n_head / window, in
        # that order of operations, which fixes the last bits.
        full = slice(1 if first else 0, None), slice(None, -1)
        mean_tail = mean_tail[:, ::-1]
        delta = mean[full] - mean_tail
        m2[full] += t2[:, ::-1]
        t2 = np.square(delta, out=t2[:, ::-1])
        t2 *= n_head[:-1]
        t2 *= n_head[-2::-1]
        t2 /= window
        m2[full] += t2
        delta *= n_head[:-1]
        delta /= window
        np.add(mean_tail, delta, out=mean[full])
        np.maximum(m2, 0.0, out=m2)
        if window == 1:  # one-value windows read std 0, a non-finite value too
            m2.fill(0.0)
        elif first:  # the first row's windows hold 1 to `window` values
            m2[0, 0] = 0.0
            m2[0, 1:] /= n_head[:-1]
            m2[1:] /= window - 1
        else:
            m2 /= window - 1
        np.sqrt(m2, out=m2)  # the std
        yield start, stop, mean.ravel()[: stop - start], m2.ravel()[: stop - start]


def rolling_mean_std(x, window: int) -> Tuple[np.ndarray, np.ndarray]:
    """Mean and sample std (n-1) of the last ``window`` values at every index.

    The window at index i holds the last ``window`` values up to and including
    x[i], ``x[max(0, i - window + 1) : i + 1]``, so no window is empty; one-value
    windows read std 0. (The simulator reads it one index late; see
    :mod:`latgov.simulator`.) A window that holds inf, -inf or NaN reads a mean of
    NaN or +-inf (NaN for one such value alone) and a std of NaN (0 for one
    value); the windows that hold none are unaffected. A window whose spread
    squares past the float range reads a std of NaN or inf, and one whose squared
    deviations underflow reads std 0: ``rolling_mean_std([1e-300, 2e-300, 3e-300],
    2)`` reads std ``[0, 0, 0]``. None of these warns.

    The values are cut into rows of ``window`` values, so every window is the
    head of one row, up to x[i], plus the tail of the row before, empty at a
    row's end and in the first row. Running sums over each row give every head
    (about the row's first value) and every tail (about its last value); the
    two parts are then merged with the pairwise update of Chan, Golub &
    LeVeque (1979). Each sum runs over at most ``window`` values about a value
    of its own part, so precision does not depend on the length of ``x``, on a
    latency shift, or on how small the window's spread is next to the data's.
    """
    import numpy as np
    x = np.asarray(x, dtype=np.float64)
    mean, std = np.empty(x.shape[0]), np.empty(x.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):
        for start, stop, m, s in _window_passes(x, window):
            mean[start:stop], std[start:stop] = m, s
    return mean, std


def perceived_stream(latencies, window: int, k: float, out=None) -> np.ndarray:
    """:func:`model.perceived_latency` over the :func:`rolling_mean_std` window
    ending at every index, written into ``out`` when given; raises
    ``ValueError`` where it overflows a float."""
    import numpy as np
    latencies = np.asarray(latencies, dtype=np.float64)
    if out is None:
        out = np.empty(latencies.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite values are rejected below
        for start, stop, mean, std in _window_passes(latencies, window):
            got = perceived_latency(mean, std, k)
            if not np.isfinite(got).all():
                raise ValueError("perceived latency overflows a float; lower params.k or the latencies")
            out[start:stop] = got
    return out


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

    @property
    def escalated(self) -> bool:
        """From the ``ESCALATION_WINDOWS``-th consecutive breaching window on."""
        return self.consecutive_breaches >= ESCALATION_WINDOWS


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
    return SloStatus(status.consecutive_breaches + 1 if breaches & ESCALATION_METRICS else 0)
