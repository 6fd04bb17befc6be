"""Telemetry parsing, window statistics (vs brute-force oracles), SLO tracking."""

import json
import math
import sys
import warnings
from dataclasses import fields
from fractions import Fraction
from typing import Dict, Optional, get_type_hints

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latgov.config import SimResult
from latgov.model import perceived_latency
from latgov.telemetry import (
    EMPTY_STATS,
    ESCALATION_WINDOWS,
    OPTIONAL_FIELDS,
    QUANTILES,
    REQUIRED_FIELDS,
    ROLLING_BLOCK,
    SCHEMA,
    SLO_METRICS,
    SloConfig,
    SloStatus,
    TelemetryError,
    TelemetryEvent,
    TelemetryParseError,
    TelemetrySchemaError,
    WindowStats,
    confirmation_latency,
    event_from_dict,
    iter_events,
    json_types,
    nearest_rank,
    parse_event,
    perceived_stream,
    rolling_mean_std,
    slo_alerts,
    slo_evaluate,
    slo_track,
    window_stats,
)
from reference import event_to_json, fsum_window_stats, make_event, oracle_stats

GOOD_LINE = make_event("s1", 1.4, engaged=True, base_ts=1000)


MISSING = object()
_TIMESTAMP = "must be a signed 64-bit integer millisecond timestamp, got"

# (field, value put in GOOD_LINE or MISSING to remove it, the message),
# one break of each rule, in the order event_from_dict checks them.
VIOLATIONS = [
    *((f, MISSING, f"missing required field '{f}'") for f in REQUIRED_FIELDS),
    ("session_id", 42, "field 'session_id' must be a string, got 42"),
    ("session_id", None, "field 'session_id' must be a string, got None"),
    ("intent_ts", 1000.5, f"field 'intent_ts' {_TIMESTAMP} 1000.5"),
    ("intent_ts", True, f"field 'intent_ts' {_TIMESTAMP} True"),
    ("intent_ts", -(2**63) - 1, f"field 'intent_ts' {_TIMESTAMP} -9223372036854775809"),
    ("confirm_ts", "2400", f"field 'confirm_ts' {_TIMESTAMP} '2400'"),
    ("confirm_ts", 2**63, f"field 'confirm_ts' {_TIMESTAMP} 9223372036854775808"),
    ("confirm_ts", -(2**63) - 1, f"field 'confirm_ts' {_TIMESTAMP} -9223372036854775809"),
    ("confirm_ts", 999, "confirm before intent (confirm_ts=999 < intent_ts=1000)"),
    ("ux_mode", "urgent",
     "field 'ux_mode' must be one of ('instant', 'soft', 'deferred'), got 'urgent'"),
    ("ux_mode", ["soft"],
     "field 'ux_mode' must be one of ('instant', 'soft', 'deferred'), got ['soft']"),
    ("engaged_60s", "yes", "field 'engaged_60s' must be a boolean, got 'yes'"),
    ("engaged_60s", 1, "field 'engaged_60s' must be a boolean, got 1"),
    ("region", 7, "field 'region' must be a string, got 7"),
    ("device", {"os": "android"}, "field 'device' must be a string, got {'os': 'android'}"),
    ("media_rtt_ms", "low", "field 'media_rtt_ms' must be numeric, got 'low'"),
    ("media_rtt_ms", True, "field 'media_rtt_ms' must be numeric, got True"),
    ("media_rtt_ms", -1, "field 'media_rtt_ms' must be finite and >= 0, got -1"),
    ("media_jitter_ms", None, "field 'media_jitter_ms' must be numeric, got None"),
    ("media_jitter_ms", -0.5, "field 'media_jitter_ms' must be finite and >= 0, got -0.5"),
    ("media_jitter_ms", 10**400,
     f"field 'media_jitter_ms' must be finite and >= 0, got {10**400}"),
]


class TestParsing:
    def test_good_line(self):
        event = parse_event(GOOD_LINE)
        assert event.session_id == "s1"
        assert confirmation_latency(event) == pytest.approx(1.4, abs=1e-12)
        assert event.ux_mode == "instant"
        assert event.engaged_60s is True
        assert event.region is None

    def test_zero_latency_boundary(self):
        doc = json.loads(GOOD_LINE)
        doc["confirm_ts"] = doc["intent_ts"]
        event = parse_event(json.dumps(doc))
        assert confirmation_latency(event) == 0.0

    def test_confirm_before_intent(self):
        doc = json.loads(GOOD_LINE)
        doc["confirm_ts"] = 900
        with pytest.raises(TelemetrySchemaError, match="confirm before intent"):
            parse_event(json.dumps(doc))

    def test_malformed_json_carries_line(self):
        with pytest.raises(TelemetryParseError, match="line 7"):
            parse_event("{not json", lineno=7)

    @pytest.mark.parametrize("field", ["session_id", "intent_ts", "confirm_ts", "ux_mode", "engaged_60s"])
    def test_missing_field_named(self, field):
        doc = json.loads(GOOD_LINE)
        del doc[field]
        with pytest.raises(TelemetrySchemaError, match=field):
            parse_event(json.dumps(doc))

    def test_unknown_fields_ignored(self):
        doc = json.loads(GOOD_LINE)
        doc["rail"] = "lightning"
        doc["retry_count"] = 3
        assert parse_event(json.dumps(doc)).session_id == "s1"

    @pytest.mark.parametrize(
        "field,value",
        [
            ("intent_ts", 1000.5),
            ("intent_ts", True),
            ("engaged_60s", "yes"),
            ("ux_mode", "urgent"),
            ("media_rtt_ms", -1),
            ("media_jitter_ms", "low"),
            ("session_id", 42),
            ("region", 7),
            ("confirm_ts", 10**400),
            ("confirm_ts", 2**63),
            ("intent_ts", -(2**63) - 1),
            ("media_rtt_ms", 10**400),
        ],
    )
    def test_bad_types_rejected(self, field, value):
        doc = json.loads(GOOD_LINE)
        doc[field] = value
        with pytest.raises(TelemetrySchemaError):
            parse_event(json.dumps(doc))

    def test_first_broken_rule_names_the_message(self):
        """Every single break gives its exact message; two breaks give the
        message of the one checked first (VIOLATIONS is in check order)."""
        good = json.loads(GOOD_LINE)
        mismatches = []
        for i, (field_a, value_a, message) in enumerate(VIOLATIONS):
            for field_b, value_b, _ in [(None, None, None), *VIOLATIONS[i + 1:]]:
                if field_b == field_a:
                    continue
                doc = {**good, field_a: value_a}
                if field_b is not None:
                    doc[field_b] = value_b
                doc = {k: v for k, v in doc.items() if v is not MISSING}
                try:
                    event_from_dict(doc)
                    got = None
                except TelemetrySchemaError as exc:
                    got = str(exc)
                if got != message:
                    mismatches.append((field_a, value_a, field_b, value_b, got))
        assert not mismatches

    def test_schema_covers_every_event_field(self):
        assert {f for f, *_ in SCHEMA} == set(TelemetryEvent._fields)
        # So a missing required field (read as None) fails a row.
        hints = get_type_hints(TelemetryEvent)
        assert not any(type(None) in json_types(hints[f]) for f in REQUIRED_FIELDS)

    def test_json_types_follow_the_annotation(self):
        assert json_types(str) == {str}
        assert json_types(int) == {int}
        assert json_types(bool) == {bool}
        assert json_types(float) == {int, float}
        assert json_types(Optional[str]) == {str, type(None)}
        assert json_types(Optional[float]) == {int, float, type(None)}
        assert json_types(Dict[str, float]) == {dict}
        assert type(np.float64(1.0)) not in json_types(float)  # no JSON value decodes to it

    def test_field_lists_follow_the_event_dataclass(self):
        assert REQUIRED_FIELDS == (
            "session_id",
            "intent_ts",
            "confirm_ts",
            "media_rtt_ms",
            "media_jitter_ms",
            "ux_mode",
            "engaged_60s",
        )
        assert OPTIONAL_FIELDS == ("region", "device")

    def test_round_trip_lossless(self):
        event = parse_event(GOOD_LINE)
        assert parse_event(event_to_json(event)) == event
        doc = json.loads(GOOD_LINE)
        doc["region"] = "eu-west"
        doc["device"] = "android"
        event2 = parse_event(json.dumps(doc))
        assert parse_event(event_to_json(event2)) == event2
        assert event2.region == "eu-west"

    def test_non_utf8_line_is_a_parse_error(self):
        line = b'{"session_id":"\xff\xfe"}'.decode("utf-8", errors="surrogateescape")
        with pytest.raises(TelemetryParseError, match="^line 3: line is not valid UTF-8$"):
            parse_event(line, lineno=3)
        doc = json.loads(GOOD_LINE)
        doc["session_id"] = "caf\u00e9"
        assert parse_event(json.dumps(doc, ensure_ascii=False)).session_id == "caf\u00e9"

    def test_event_fields_cannot_be_assigned(self):
        event = parse_event(GOOD_LINE)
        with pytest.raises(AttributeError):
            event.session_id = "s2"

    def test_iter_events_counts_lines(self):
        lines = [GOOD_LINE, "", "  ", GOOD_LINE, "oops"]
        with pytest.raises(TelemetryError, match="line 5"):
            list(iter_events(lines))
        assert len(list(iter_events(lines, skip_bad=True))) == 2

    def test_eight_second_tail(self):
        doc = json.loads(GOOD_LINE)
        doc["intent_ts"] = 0
        doc["confirm_ts"] = 8000
        assert confirmation_latency(parse_event(json.dumps(doc))) == 8.0


SIGNED_MAGNITUDE = st.builds(
    lambda sign, mantissa, exponent: sign * mantissa * 10.0**exponent,
    st.sampled_from([1.0, -1.0]), st.floats(1.0, 9.99), st.integers(-300, 299),
)
# Values a few units of 2**-52 apart around one base: a spread far below the mean.
CLUSTERED = st.builds(
    lambda base, steps: [base * (1.0 + k * 2.0**-52) for k in steps],
    SIGNED_MAGNITUDE, st.lists(st.integers(-4, 4), min_size=2, max_size=12),
)


def fraction_sqrt(x):
    """The square root of a non-negative ``Fraction`` to at least 100 significant bits."""
    k = 110 - (x.numerator.bit_length() - x.denominator.bit_length()) // 2
    return Fraction(math.isqrt(int(x * Fraction(4) ** k))) / Fraction(2) ** k


class TestWindowStats:
    def test_single_push(self):
        stats = window_stats([1.0])
        assert (stats.count, stats.mean_s, stats.std_s) == (1, 1.0, 0.0)

    def test_empty_stats(self):
        assert window_stats([]) == EMPTY_STATS

    def test_one_to_ten_quantiles(self):
        stats = window_stats([float(value) for value in range(1, 11)])
        assert (stats.p50_s, stats.p90_s, stats.p99_s) == (5.0, 9.0, 10.0)

    def test_constant_values(self):
        stats = window_stats([2.0, 2.0])
        assert stats.mean_s == 2.0
        assert stats.std_s == 0.0

    @pytest.mark.parametrize("x", [0.1, 0.5, 1.7])
    def test_two_point_std(self, x):
        stats = window_stats([2.0 - x, 2.0 + x])
        assert stats.mean_s == pytest.approx(2.0, abs=1e-12)
        assert stats.std_s == pytest.approx(x * math.sqrt(2.0), abs=1e-12)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            size = int(rng.integers(1, 40))
            capacity = int(rng.integers(1, 40))
            values = rng.uniform(0.0, 30.0, size=size)
            retained = [float(v) for v in values[-capacity:]]
            mean, std, p50, p90, p99 = oracle_stats(retained)
            stats = window_stats(retained)
            assert stats.count == len(retained)
            assert math.isclose(stats.mean_s, mean, rel_tol=1e-12, abs_tol=1e-12)
            assert math.isclose(stats.std_s, std, rel_tol=1e-12, abs_tol=1e-12)
            assert stats.p50_s == p50
            assert stats.p90_s == p90
            assert stats.p99_s == p99

    @given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=50))
    def test_quantile_ordering(self, values):
        stats = window_stats(values)
        assert stats.p50_s <= stats.p90_s <= stats.p99_s

    # The bound: the mean and the std each within 8 units of 2**-53 of the
    # window's own scale, |mean| + std (a rounded mean shifts a spread far
    # below the mean by that much), plus one subnormal step; a std past the
    # float range reads inf.
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.lists(SIGNED_MAGNITUDE, min_size=1, max_size=12) | CLUSTERED)
    @example([1e200, -1e200])
    @example([1.7e308, -1.7e308, -1.7e308])
    @example([1.7e308, 1.7e308])
    @example([1e-300, 2e-300])
    def test_matches_exact_oracle_at_every_magnitude(self, values):
        stats = window_stats(values)
        xs = [Fraction(v) for v in values]
        mean = sum(xs) / len(xs)
        var = sum((x - mean) ** 2 for x in xs) / (len(xs) - 1) if len(xs) > 1 else Fraction(0)
        std = fraction_sqrt(var)
        slack = 8 * Fraction(2) ** -53 * (abs(mean) + std) + Fraction(2) ** -1074
        assert abs(Fraction(stats.mean_s) - mean) <= slack
        if stats.std_s == math.inf:
            assert std > Fraction(sys.float_info.max) - slack
        else:
            assert abs(Fraction(stats.std_s) - std) <= slack



def read_as(replay, window_fn, x, *args):
    """``window_fn(x, window, ...)``'s arrays as ``replay`` reads them (the
    window at i ends with x[i]) or else as ``simulate`` does, one index late:
    index i reads the window over x[:-1] that ends with x[i - 1], and index 0
    the empty window (0.0)."""
    if replay:
        return window_fn(x, *args)
    got = window_fn(x[:-1], *args)
    if isinstance(got, tuple):
        return tuple(np.concatenate(([0.0], a)) for a in got)
    return np.concatenate(([0.0], got))


def assert_rolling_matches_oracle(x, window, replay, indexes):
    mean, std = read_as(replay, rolling_mean_std, x, window)
    assert mean.shape == std.shape == (len(x),)
    values = x.tolist()
    for i in indexes:
        end = i + 1 if replay else i
        want_mean, want_std = fsum_window_stats(values[max(0, end - window) : end])
        assert mean[i] == pytest.approx(want_mean, rel=1e-9, abs=1e-12), i
        assert std[i] == pytest.approx(want_std, rel=1e-9, abs=1e-12), i


class TestRollingMeanStd:
    @pytest.mark.parametrize("replay", [True, False])
    @pytest.mark.parametrize("window", [1, 2, 7, 64, 256, 5000])
    def test_matches_fsum_oracle(self, window, replay):
        x = np.random.default_rng(window).lognormal(np.log(1.4), 0.6, size=3000)
        assert_rolling_matches_oracle(x, window, replay, range(len(x)))

    @pytest.mark.parametrize("replay", [True, False])
    @pytest.mark.parametrize("window", [1, 3, 256, ROLLING_BLOCK, ROLLING_BLOCK + 1])
    def test_row_and_pass_edges_match_fsum_oracle(self, window, replay):
        """Lengths that end on either side of a row or a pass, read at every index
        next to a row's or a pass's edge (and a sample between)."""
        step = max(1, ROLLING_BLOCK // window) * window  # values per pass
        rng = np.random.default_rng(window)
        sizes = {window - 1, window, window + 1, ROLLING_BLOCK - 1, ROLLING_BLOCK, ROLLING_BLOCK + 1,
                 2 * ROLLING_BLOCK}
        for n in sorted(sizes - {0}):
            x = rng.lognormal(np.log(1.4), 0.6, size=n)
            edges = {*range(0, n + 1, window), *range(0, n + 1, step), n}
            indexes = {e + d for e in edges for d in (-2, -1, 0, 1)} | set(range(0, n, 97))
            assert_rolling_matches_oracle(x, window, replay, sorted(i for i in indexes if 0 <= i < n))

    @pytest.mark.parametrize("replay", [True, False])
    def test_fewer_values_than_window(self, replay):
        x = np.array([1.0, 4.0, 2.5, 0.5])
        for window in (10, 10**12):
            assert_rolling_matches_oracle(x, window, replay, range(len(x)))

    def test_window_is_push_then_stats(self):
        """The window at i holds the last values up to and including x[i];
        the simulator reads it one index late, so index 0 sees no values."""
        x = np.array([1.0, 2.0, 3.0, 6.0])
        mean, std = rolling_mean_std(x, 2)
        assert mean.tolist() == [1.0, 1.5, 2.5, 4.5]
        for i in range(len(x)):
            stats = window_stats(x[max(0, i - 1) : i + 1].tolist())
            assert (mean[i], std[i]) == (stats.mean_s, stats.std_s)
        mean, std = read_as(False, rolling_mean_std, x, 2)
        assert mean.tolist() == [0.0, 1.0, 1.5, 2.5]
        assert std[:2].tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_one_value_windows_read_std_0_for_a_non_finite_value(self, value):
        x = np.array([value, 1.0, 2.0])
        assert rolling_mean_std(x, 1)[1].tolist() == [0.0, 0.0, 0.0]
        assert rolling_mean_std(x, 3)[1][0] == 0.0

    @pytest.mark.parametrize("window", [1, 3, 256, ROLLING_BLOCK + 1])
    def test_non_finite_values_read_quietly_and_only_in_their_windows(self, window):
        """No RuntimeWarning; a window that holds inf, -inf or NaN reads a
        non-finite mean and (past one value) a NaN std, and every other window
        is bit for bit the window of the same values with 1.0 in their place."""
        bad = {4_095: np.inf, 10_001: -np.inf, 16_384: np.nan}
        finite = np.random.default_rng(45).lognormal(np.log(1.4), 0.6, size=20_000)
        finite[list(bad)] = 1.0
        x = finite.copy()
        x[list(bad)] = list(bad.values())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mean, std = rolling_mean_std(x, window)
        holds = np.zeros(len(x), dtype=bool)
        for i in bad:
            holds[i : i + window] = True
        assert not np.isfinite(mean[holds]).any()
        assert np.isnan(std[holds]).all() if window > 1 else not std.any()
        want_mean, want_std = rolling_mean_std(finite, window)
        assert mean[~holds].tobytes() == want_mean[~holds].tobytes()
        assert std[~holds].tobytes() == want_std[~holds].tobytes()

    def test_stable_at_a_million_values_under_a_large_shift(self):
        x = 1000.0 + np.random.default_rng(1).lognormal(np.log(1.4), 0.52, size=1_000_000)
        indexes = [*range(0, len(x), 997), *range(len(x) - 300, len(x))]
        for replay in (True, False):
            assert_rolling_matches_oracle(x, 256, replay, indexes)

    def test_empty_input_and_bad_window(self):
        mean, std = rolling_mean_std([], 4)
        assert mean.shape == std.shape == (0,)
        with pytest.raises(ValueError):
            rolling_mean_std([1.0], 0)


class TestPerceivedStream:
    @pytest.mark.parametrize("replay", [True, False])
    @pytest.mark.parametrize("window", [1, 16, 256])
    def test_is_rolling_mean_std_then_perceived_latency(self, window, replay):
        x = np.random.default_rng(window).lognormal(np.log(1.4), 0.6, size=3 * ROLLING_BLOCK + 17)
        mean, std = read_as(replay, rolling_mean_std, x, window)
        want = perceived_latency(mean, std, 0.8)
        assert np.array_equal(read_as(replay, perceived_stream, x, window, 0.8), want)

    def test_writes_into_out(self):
        x = np.random.default_rng(2).lognormal(np.log(1.4), 0.6, size=ROLLING_BLOCK + 5)
        out = np.full(len(x) + 1, -1.0)
        assert perceived_stream(x, 16, 0.8, out=out[1:]).base is out
        assert out[0] == -1.0
        assert np.array_equal(out[1:], perceived_stream(x, 16, 0.8))

    def test_overflow_is_a_value_error_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="overflows a float"):
                perceived_stream([1.0, 1.0, 100.0, 1.0], 256, 1e308)


class TestNearestRank:
    def test_exact_integer_ranks(self):
        values = list(range(1, 11))
        assert nearest_rank(values, 0.5) == 5.0
        assert nearest_rank(values, 0.9) == 9.0
        assert nearest_rank(values, 0.99) == 10.0
        assert nearest_rank(values, 1.0) == 10.0

    def test_matches_fraction_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(1, 400))
            values = sorted(rng.uniform(0, 10, size=n).tolist())
            for q_num, q_den in ((1, 2), (9, 10), (99, 100), (3, 4)):
                rank = math.ceil(Fraction(q_num, q_den) * n)
                assert nearest_rank(values, q_num / q_den) == values[rank - 1]

    def test_single_element(self):
        assert nearest_rank([3.3], 0.5) == 3.3

    def test_tiny_q_is_the_first_rank(self):
        # q * n below the rank epsilon rounds to rank 0, which is clamped to 1.
        assert nearest_rank([1.0, 2.0, 3.0], 1e-12) == 1.0

    def test_rejects_empty_and_bad_q(self):
        with pytest.raises(ValueError):
            nearest_rank([], 0.5)
        with pytest.raises(ValueError):
            nearest_rank([1.0], 0.0)
        with pytest.raises(ValueError):
            nearest_rank([1.0], 1.5)


class TestQuantilesTable:
    """The fields that QUANTILES names, and the field order that window_stats's
    positional WindowStats(...) relies on."""

    def test_window_stats_fields(self):
        names = [f.name for f in fields(WindowStats)]
        assert names == ["count", "mean_s", "std_s", *(f"{q}_s" for q in QUANTILES)]

    def test_sim_result_fields(self):
        names = {f.name for f in fields(SimResult)}
        assert {f"latency_{q}" for q in QUANTILES} <= names

    def test_slo_metrics_name_existing_fields(self):
        assert set(QUANTILES) < set(SLO_METRICS)
        stats_fields = {f.name for f in fields(WindowStats)}
        slo_fields = {f.name for f in fields(SloConfig)}
        for stat, target, alert in SLO_METRICS.values():
            assert stat in stats_fields
            assert target in slo_fields
            assert alert is None or alert in slo_fields


def make_stats(p50=0.5, p90=1.0, p99=2.0, std=0.2):
    return WindowStats(count=100, mean_s=p50, std_s=std, p50_s=p50, p90_s=p90, p99_s=p99)


class TestSloEvaluate:
    def test_compliant(self):
        stats = make_stats(p50=0.9, p90=1.8, p99=3.5, std=0.5)
        assert slo_evaluate(stats, SloConfig()) == frozenset()

    def test_p90_breach(self):
        stats = make_stats(p50=0.9, p90=2.2, p99=3.5, std=0.5)
        assert slo_evaluate(stats, SloConfig()) == frozenset({"p90"})

    def test_boundary_is_breach(self):
        stats = make_stats(p50=0.9, p90=2.0, p99=3.5, std=0.5)
        assert slo_evaluate(stats, SloConfig()) == frozenset({"p90"})

    def test_all_zero_stats_compliant(self):
        assert slo_evaluate(EMPTY_STATS, SloConfig()) == frozenset()

    def test_multiple_breaches(self):
        stats = make_stats(p50=1.2, p90=2.6, p99=4.4, std=0.9)
        assert slo_evaluate(stats, SloConfig()) == frozenset(
            {"p50", "p90", "p99", "jitter_std"}
        )

    # (metric, WindowStats field, default target, default alert or None)
    BOUNDARIES = [
        ("p50", "p50_s", 1.0, None),
        ("p90", "p90_s", 2.0, 2.5),
        ("p99", "p99_s", 4.0, 5.0),
        ("jitter_std", "std_s", 0.7, 1.0),
    ]

    @staticmethod
    def stats_with(field, value):
        """Zero stats except ``field`` (and any higher quantile) at ``value``."""
        quantiles = ("p50_s", "p90_s", "p99_s")
        doc = dict(count=100, mean_s=0.0, std_s=0.0, p50_s=0.0, p90_s=0.0, p99_s=0.0)
        if field in quantiles:
            doc.update((q, value) for q in quantiles[quantiles.index(field) :])
        else:
            doc[field] = value
        return WindowStats(**doc)

    @pytest.mark.parametrize("metric, field, target, alert", BOUNDARIES)
    def test_target_is_a_breach_and_below_is_not(self, metric, field, target, alert):
        cfg = SloConfig()
        assert slo_evaluate(self.stats_with(field, target), cfg) == frozenset({metric})
        below = math.nextafter(target, 0.0)
        assert slo_evaluate(self.stats_with(field, below), cfg) == frozenset()

    @pytest.mark.parametrize("metric, field, target, alert", BOUNDARIES[1:])
    def test_alert_threshold_is_not_an_alert_and_above_is(self, metric, field, target, alert):
        cfg = SloConfig()
        assert slo_alerts(self.stats_with(field, alert), cfg) == frozenset()
        above = math.nextafter(alert, math.inf)
        assert slo_alerts(self.stats_with(field, above), cfg) == frozenset({metric})

    def test_p50_never_alerts(self):
        assert slo_alerts(self.stats_with("p50_s", 100.0), SloConfig()) == frozenset({"p90", "p99"})

    def test_alerts_are_strict(self):
        cfg = SloConfig()
        assert slo_alerts(make_stats(p90=2.6, p99=3.0), cfg) == frozenset({"p90"})
        assert slo_alerts(make_stats(p90=2.5, p99=3.0), cfg) == frozenset()
        assert slo_alerts(make_stats(p99=5.2, std=1.2), cfg) == frozenset(
            {"p99", "jitter_std"}
        )


class TestSloTrack:
    BREACH = frozenset({"p90"})
    CLEAN = frozenset()

    def test_two_breaches_do_not_escalate(self):
        status = SloStatus()
        for _ in range(2):
            status = slo_track(status, self.BREACH)
        assert status.consecutive_breaches == 2
        assert not status.escalated

    def test_third_breach_escalates(self):
        status = SloStatus()
        for _ in range(3):
            status = slo_track(status, self.BREACH)
        assert status.escalated
        assert status.consecutive_breaches == 3

    def test_stays_escalated_while_breaching(self):
        status = SloStatus()
        for _ in range(4):
            status = slo_track(status, self.BREACH)
        assert status.escalated

    def test_clean_window_resets(self):
        status = SloStatus()
        status = slo_track(status, self.BREACH)
        status = slo_track(status, self.CLEAN)
        status = slo_track(status, self.BREACH)
        assert status.consecutive_breaches == 1
        assert not status.escalated

    def test_reset_clears_escalation(self):
        status = SloStatus()
        for _ in range(3):
            status = slo_track(status, self.BREACH)
        status = slo_track(status, self.CLEAN)
        assert not status.escalated
        assert status.consecutive_breaches == 0

    def test_only_p90_and_jitter_escalate(self):
        status = SloStatus()
        for _ in range(5):
            status = slo_track(status, frozenset({"p50", "p99"}))
        assert status.consecutive_breaches == 0
        assert not status.escalated

    @pytest.mark.parametrize("k", range(6))
    def test_escalated_follows_the_streak(self, k):
        assert SloStatus(consecutive_breaches=k).escalated == (k >= ESCALATION_WINDOWS)

    def test_jitter_counts(self):
        status = SloStatus()
        for _ in range(3):
            status = slo_track(status, frozenset({"jitter_std"}))
        assert status.escalated


class TestConfigValidation:
    def test_target_must_be_below_alert(self):
        with pytest.raises(ValueError):
            SloConfig(p90_max_s=2.5, p90_alert_s=2.5)
        with pytest.raises(ValueError):
            SloConfig(jitter_std_max_s=1.5)

    @pytest.mark.parametrize(
        "target, alert",
        [("p90_max_s", "p90_alert_s"), ("p99_max_s", "p99_alert_s"),
         ("jitter_std_max_s", "jitter_alert_s")],
    )
    def test_each_target_must_be_below_its_alert(self, target, alert):
        for gap in (0.0, 0.5):  # target == alert, target > alert
            with pytest.raises(ValueError, match=f"{target} must be below {alert}"):
                SloConfig(**{target: 3.0 + gap, alert: 3.0})

    def test_positive_required(self):
        with pytest.raises(ValueError):
            SloConfig(p50_max_s=0.0)

    def test_window_stats_ordering_enforced(self):
        with pytest.raises(ValueError):
            WindowStats(count=3, mean_s=1.0, std_s=0.1, p50_s=2.0, p90_s=1.0, p99_s=3.0)
        with pytest.raises(ValueError):
            WindowStats(count=3, mean_s=1.0, std_s=-0.1, p50_s=1.0, p90_s=1.0, p99_s=1.0)
        with pytest.raises(ValueError, match="count must be >= 0"):
            WindowStats(count=-1, mean_s=1.0, std_s=0.1, p50_s=1.0, p90_s=1.0, p99_s=1.0)
