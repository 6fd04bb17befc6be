"""The columnar telemetry reader against the line-by-line one it stands in for.

``read_columns`` must accept, reject, number and drop lines exactly as
``iter_events`` (that is, ``parse_event``) does, and give the columns of the
events it would yield.
"""

import codecs
import gzip
import json
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latgov import cli, telemetry
from latgov.telemetry import (
    COLUMNS,
    DEFAULT_WINDOW_CAPACITY,
    OPTIONAL_FIELDS,
    READ_CHUNK,
    REQUIRED_FIELDS,
    SCHEMA,
    TelemetryError,
    TelemetrySchemaError,
    _FIELD_TYPES,
    _valid_chunk,
    confirmation_latency,
    event_from_dict,
    iter_events,
    parse_event,
    read_columns,
    reject_non_finite,
)
from reference import GOOD_EVENT, WILD, run_quietly

NON_UTF8 = b'{"session_id":"\xff\xfe"}'.decode("utf-8", errors="surrogateescape")


def good(i, **fields):
    """A valid event line; ``fields`` override the defaults (non-ASCII kept as is)."""
    doc = {**GOOD_EVENT, "session_id": f"s{i}", "confirm_ts": 1000 + i, **fields}
    return json.dumps(doc, ensure_ascii=False)


def is_event(line):
    try:
        parse_event(line.strip(" \t\r\n"))
    except TelemetryError:
        return False
    return True


def event_columns(events):
    """All of COLUMNS, built from events."""
    return tuple([getattr(e, name) for e in events] for name in COLUMNS[:-1]) + (
        [confirmation_latency(e) for e in events],
    )


def outcome(lines, skip_bad, columnar):
    """The columns read from ``lines``, or the TelemetryError message."""
    try:
        if columnar:
            return read_columns(iter(lines), COLUMNS, skip_bad)
        return event_columns(list(iter_events(lines, skip_bad)))
    except TelemetryError as exc:
        return f"error: {exc}"


def assert_same_as_events(lines):
    for skip_bad in (False, True):
        want = outcome(lines, skip_bad, columnar=False)
        got = outcome(lines, skip_bad, columnar=True)
        assert got == want
        if not isinstance(want, str):  # and the same types: int, float, bool, None
            assert [list(map(type, c)) for c in got] == [list(map(type, c)) for c in want]


def near_misses():
    """Per field, values that break one of its rules in the good event: one of
    each JSON type the field does not take, one past each of its SCHEMA bounds,
    and a string outside its SCHEMA values."""
    misses = {
        field: [v for v in ("x", 1, 0.5, True, None, [], {}) if type(v) not in types]
        for field, types in _FIELD_TYPES.items()
    }
    for field, values, low, high, _ in SCHEMA:
        if values is not None:
            misses[field].append("x")
        if low is not None:
            misses[field].append((GOOD_EVENT[low] if isinstance(low, str) else low) - 1)
        if high is not None:
            misses[field].append(int(high) + 1)
    return misses


def with_near_misses(test):
    """``test`` on one chunk per near miss, as explicit examples besides its
    draws, which reach each of them too rarely."""
    for field, values in near_misses().items():
        for value in values:
            test = example(docs=[GOOD_EVENT, {**GOOD_EVENT, field: value}])(test)
    return test


# A suspect document: the good event with one or two fields set to wild
# values or removed (``...``), or a wild value in place of the object. A chunk
# holds one, among good events, so it alone decides whether the chunk is good.
suspect_docs = (
    st.dictionaries(
        st.sampled_from(REQUIRED_FIELDS + OPTIONAL_FIELDS), WILD | st.just(...),
        min_size=1, max_size=2,
    ).map(lambda bad: {k: v for k, v in {**GOOD_EVENT, **bad}.items() if v is not ...})
    | WILD
)
chunks = st.builds(
    lambda before, suspect, after: [GOOD_EVENT] * before + [suspect] + [GOOD_EVENT] * after,
    st.integers(0, 3), suspect_docs, st.integers(0, 3),
)


class TestBulkCheck:
    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(docs=chunks)
    @with_near_misses
    def test_accepts_only_what_event_from_dict_accepts(self, docs):
        lines = [json.dumps(doc) for doc in docs]
        accepted = _valid_chunk(lines) is not None
        try:
            events = [event_from_dict(doc) for doc in docs]
        except TelemetryError:
            assert not accepted
            return
        # Exact on ASCII lines, so good input stays on the fast path.
        assert accepted
        assert read_columns(lines, COLUMNS) == event_columns(events)

    def test_blank_chunk_has_no_values(self):
        assert _valid_chunk(["\n", "  \n"]) == {}

    @pytest.mark.parametrize(
        "line",
        [NON_UTF8, good(0) + " " + good(1), good(0) + "]"],
        ids=["non_utf8", "two_values", "trailing_bracket"],
    )
    def test_refuses_a_chunk_that_needs_a_closer_look(self, line):
        assert _valid_chunk([good(1), line, good(2)]) is None

    def test_reads_non_ascii_lines_in_bulk(self):
        lines = chunk_lines(NON_ASCII_LINES)
        want = event_columns(list(iter_events(lines)))
        with mock.patch.object(telemetry, "iter_events", side_effect=AssertionError("per line")):
            assert read_columns(iter(lines), COLUMNS) == want


def chunk_lines(bad, count=READ_CHUNK + 8):
    """``count`` good lines, across the first chunk boundary, with ``bad``
    (1-based line number -> text) put in place."""
    return [bad.get(n, good(n)) for n in range(1, count + 1)]


NON_ASCII_LINES = {
    n: good(n, session_id=f"café-{n}", region="São Paulo") for n in range(1, READ_CHUNK + 9)
}
EDGE_CASES = {
    "bad_first_line": {1: "{broken"},
    "bad_last_line_of_chunk": {READ_CHUNK: "[1, 2]"},
    "bad_first_line_of_next_chunk": {READ_CHUNK + 1: good(0, confirm_ts=-1)},
    "bad_on_both_sides": {READ_CHUNK: "null", READ_CHUNK + 1: "{broken"},
    "blank_lines_counted": {2: "", 3: "   ", READ_CHUNK: "", READ_CHUNK + 2: "oops"},
    "non_utf8_mid_chunk": {100: NON_UTF8},
    "non_ascii_id_mid_chunk": {100: good(100, session_id="café")},
    "non_ascii_lines": NON_ASCII_LINES,
    "non_utf8_among_non_ascii_lines": {**NON_ASCII_LINES, 100: NON_UTF8},
    "two_values_on_a_line": {7: good(7) + " " + good(8)},
    "missing_field": {9: json.dumps({"session_id": "s9"})},
    "huge_timestamp": {11: good(11, intent_ts=2**63)},
    "bool_for_int": {12: good(12, intent_ts=True)},
    "infinity": {13: good(13, media_rtt_ms=1e999)},
    "int64_bounds": {14: good(14, intent_ts=-(2**63), confirm_ts=2**63 - 1)},
    "below_int64": {15: good(15, intent_ts=-(2**63) - 1)},
    "negative_media": {16: good(16, media_jitter_ms=-0.5)},
    "largest_media": {17: good(17, media_rtt_ms=1.7976931348623157e308)},
    "number_for_region": {18: good(18, region=5)},
    "object_for_mode": {19: good(19, ux_mode={"instant": 1})},
    "unknown_mode": {20: good(20, ux_mode="urgent")},
    "number_for_session_id": {21: good(21, session_id=21)},
    "huge_confirm_ts": {22: good(22, confirm_ts=2**63)},
    "int_for_engaged": {23: good(23, engaged_60s=1)},
    "number_for_device": {24: good(24, device=5)},
    "string_for_rtt": {25: good(25, media_rtt_ms="80")},
    "media_past_float_max": {26: good(26, media_rtt_ms=10**400)},
    "bool_for_jitter": {27: good(27, media_jitter_ms=True)},
    "float_for_confirm_ts": {28: good(28, confirm_ts=1028.0)},
    "negative_rtt": {29: good(29, media_rtt_ms=-0.5)},
    "jitter_past_float_max": {30: good(30, media_jitter_ms=10**400)},
    # A bare \r is JSON whitespace, not a line end: the line is one event, and
    # the lines after it keep their numbers.
    "bare_cr_in_a_line": {31: good(31).replace(",", ",\r", 1)},
    "bare_cr_then_a_bad_line": {31: good(31).replace(",", ",\r", 1), 33: "{broken"},
}
# SCHEMA index -> the EDGE_CASES case whose one bad line breaks that row first.
SCHEMA_ROW_CASES = {
    0: "number_for_session_id",
    1: "huge_timestamp",
    2: "huge_confirm_ts",
    3: "bad_first_line_of_next_chunk",
    4: "unknown_mode",
    5: "int_for_engaged",
    6: "number_for_region",
    7: "number_for_device",
    8: "string_for_rtt",
    9: "media_past_float_max",
    10: "bool_for_jitter",
    11: "negative_media",
}


class TestReadColumns:
    @pytest.mark.parametrize("case", sorted(EDGE_CASES))
    def test_edge_case_same_as_parse_event(self, case):
        assert_same_as_events(chunk_lines(EDGE_CASES[case]))

    @pytest.mark.parametrize("case", sorted(EDGE_CASES))
    def test_edge_case_on_the_command_line(self, tmp_path, case):
        lines = chunk_lines(EDGE_CASES[case])
        runs = {}
        for name, kept, flags in (
            ("strict", lines, []),
            ("skip_bad", lines, ["--skip-bad"]),
            ("clean", [line for line in lines if is_event(line)], []),
        ):
            path, out = tmp_path / f"{name}.jsonl", tmp_path / f"{name}.out"
            path.write_text("\n".join(kept) + "\n", encoding="utf-8", errors="surrogateescape")
            code, stdout, stderr, _ = run_quietly(
                ["replay", "--telemetry", str(path), *flags, "--out", str(out)]
            )
            runs[name] = (code, stdout, stderr, out.read_bytes() if out.exists() else None)

        # Under --skip-bad the bad lines are dropped: the output of the clean file.
        assert runs["skip_bad"] == runs["clean"]
        assert runs["clean"][0] == 0
        bad = [
            n for n, line in enumerate(lines, start=1) if line.strip(" \t\r\n") and not is_event(line)
        ]
        if not bad:
            assert runs["strict"] == runs["clean"]
            return
        # Strictly: the first bad line's parse_event message, numbered as in the file.
        with pytest.raises(TelemetryError) as first:
            parse_event(lines[bad[0] - 1].strip(" \t\r\n"), bad[0])
        assert runs["strict"] == (2, "", f"error: {first.value}\n", None)
        assert str(first.value).startswith(f"line {bad[0]}: ")

    def test_every_schema_row_has_a_case_that_breaks_it(self):
        assert sorted(SCHEMA_ROW_CASES) == list(range(len(SCHEMA)))
        for index, case in SCHEMA_ROW_CASES.items():
            (line,) = EDGE_CASES[case].values()
            field, *_, message = SCHEMA[index]
            with pytest.raises(TelemetrySchemaError) as error:
                parse_event(line)
            assert str(error.value).startswith(message.split("{value")[0].format(field=field))

    @pytest.mark.parametrize("skip_bad", [False, True])
    def test_bare_cr_line_ends_read_as_one_line(self, tmp_path, skip_bad):
        path = tmp_path / "cr.jsonl"
        path.write_bytes("\r".join(chunk_lines({}, 3)).encode() + b"\r")
        code, stdout, stderr, _ = run_quietly(
            ["replay", "--telemetry", str(path), *(["--skip-bad"] if skip_bad else [])]
        )
        if skip_bad:
            assert (code, stderr) == (1, "error: no telemetry events\n")
        else:
            assert code == 2 and stderr.startswith("error: line 1: "), stderr

    @pytest.mark.parametrize("bad_lines", [1, 3, READ_CHUNK + 2])
    def test_skip_bad_drop_counts(self, bad_lines):
        lines = [good(n) for n in range(4 * READ_CHUNK)]
        for n in range(bad_lines):
            lines[2 * n] = "{bad"
        (ids,) = read_columns(iter(lines), ("session_id",), skip_bad=True)
        assert len(ids) == len(lines) - bad_lines
        assert ids == [e.session_id for e in iter_events(lines, skip_bad=True)]

    def test_returns_only_the_named_columns_in_order(self):
        lines = [good(1, engaged_60s=True, media_rtt_ms=5), good(2, region="eu")]
        assert read_columns(lines, ("engaged_60s", "session_id")) == ([True, False], ["s1", "s2"])
        assert read_columns(lines, ("region", "media_rtt_ms", "latency_s")) == (
            [None, "eu"], [5.0, 80.0], [1.001, 1.002]
        )

    @pytest.mark.parametrize("lines", [[], ["{bad"], None])
    def test_an_unknown_name_is_a_value_error_before_any_line(self, lines):
        """A name outside ``COLUMNS`` fails at once, naming it, on empty input, on input
        whose every line is dropped, and before the reader takes a line."""
        if lines is None:
            lines = mock.MagicMock()
            lines.__iter__.side_effect = AssertionError("a line was read")
        with pytest.raises(ValueError, match=r"unknown columns \['bogus'\]"):
            read_columns(lines, ("session_id", "bogus"), skip_bad=True)

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(
        lines=st.lists(
            st.sampled_from([
                good(1), good(2, ux_mode="soft", device=None), "", "  ", "{bad", "[1]", NON_UTF8,
                good(3, session_id="café"), good(4, confirm_ts=0), good(5) + " 1",
            ]),
            max_size=12,
        )
    )
    def test_small_chunks_same_as_parse_event(self, lines):
        with mock.patch.object(telemetry, "READ_CHUNK", 3):
            assert_same_as_events(lines)


# A byte-level differential fuzz of the readers. The base is the first 600
# lines of the golden telemetry (a blank line 256 and a bad line 257 among
# them), so it crosses the first two chunk edges.
GOLDEN_LINES = gzip.decompress(
    (Path(__file__).resolve().parent / "golden" / "telemetry.jsonl.gz").read_bytes()
).split(b"\n")
FUZZ_BASE = b"\n".join(GOLDEN_LINES[:600]) + b"\n"
HOSTILE = [
    b"\r", b"\n", b"\x00", b"\x0b", b"\x0c", b"\x1c", "\x85".encode(), "\u2028".encode(),
    codecs.BOM_UTF8, b"\xff", b"\xc3", b'"', b"\\", b"0", b"7", b"{", b"}",
]
_LINE_ENDS = [i for i, byte in enumerate(FUZZ_BASE) if byte == ord("\n")]
# Byte offsets at the chunk edges: the end of the last line of a chunk, the
# newline after it, and the start of the next chunk's first line.
CHUNK_EDGES = sorted(
    _LINE_ENDS[n - 1] + d for k in (1, 2) for n in (k * READ_CHUNK, k * READ_CHUNK + 1)
    for d in (-1, 0, 1)
)
_REFERENCE_DECODER = json.JSONDecoder(parse_constant=reject_non_finite)


def byte_edits(data, edits):
    """``data`` with each ``(kind, offset, token)`` edit applied in turn: an
    insert before, a replacement of, or a deletion of the byte at ``offset``."""
    for kind, offset, token in edits:
        offset = min(offset, len(data) - 1)
        if kind == "insert":
            data = data[:offset] + token + data[offset:]
        else:
            data = data[:offset] + (token if kind == "replace" else b"") + data[offset + 1 :]
    return data


def reference_read(data, skip_bad):
    """(all of COLUMNS, None), or (None, the first error's message) when not
    ``skip_bad``, by a reference reader of the file's bytes: lines end at
    the newline byte only, a leading BOM is dropped, a line must be strict UTF-8, and a
    line left empty by stripping JSON whitespace (space, tab, CR, LF) is skipped."""
    if data.startswith(codecs.BOM_UTF8):
        data = data[len(codecs.BOM_UTF8) :]
    events = []
    for lineno, raw in enumerate(data.split(b"\n"), start=1):
        try:
            text = raw.decode("utf-8").strip(" \t\r\n")
            if not text:
                continue
            try:
                doc = _REFERENCE_DECODER.decode(text)
            except json.JSONDecodeError as exc:
                raise TelemetryError(f"malformed JSON: {exc.msg}", lineno)
            except ValueError as exc:
                raise TelemetryError(f"malformed JSON: {exc}", lineno)
            events.append(event_from_dict(doc, lineno))
        except UnicodeDecodeError:
            if not skip_bad:
                return None, f"line {lineno}: line is not valid UTF-8"
        except TelemetryError as exc:
            if not skip_bad:
                return None, str(exc)
    return event_columns(events), None


def reader_read(path, skip_bad):
    """What ``cli._read_lines`` plus ``read_columns`` read from ``path``, in the
    form of :func:`reference_read`."""
    try:
        with cli._read_lines(str(path)) as lines:
            return read_columns(lines, COLUMNS, skip_bad), None
    except TelemetryError as exc:
        return None, str(exc)


EDITS = st.lists(
    st.tuples(
        st.sampled_from(["insert", "replace", "delete"]),
        st.sampled_from(CHUNK_EDGES) | st.integers(0, len(FUZZ_BASE) - 1),
        st.sampled_from(HOSTILE),
    ),
    min_size=1,
    max_size=3,
)


# Edits that the search may miss, each once: a byte that is not UTF-8 inside a
# string of a chunk that is otherwise good, a line end that str.strip() would
# take and JSON does not, a second BOM, and a bare \r that joins two lines.
_IN_AN_ID = FUZZ_BASE.index(b'"g0009"') + 3


class TestByteFuzz:
    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(edits=EDITS)
    @example(edits=[("replace", _IN_AN_ID, b"\xff")])
    @example(edits=[("insert", _IN_AN_ID, b"\xc3"), ("insert", _LINE_ENDS[-2], b"\xff")])
    @example(edits=[("insert", _LINE_ENDS[2 * READ_CHUNK - 1], "\u2028".encode())])
    @example(edits=[("insert", 0, codecs.BOM_UTF8), ("insert", 0, codecs.BOM_UTF8)])
    @example(edits=[("replace", _LINE_ENDS[99], b"\r")])
    def test_reader_same_as_reference(self, tmp_path_factory, edits):
        data = byte_edits(FUZZ_BASE, edits)
        path = tmp_path_factory.mktemp("fuzz") / "t.jsonl"
        path.write_bytes(data)
        for skip_bad in (False, True):
            want = reference_read(data, skip_bad)
            got = reader_read(path, skip_bad)
            assert got == want
            if want[0] is not None:  # and the same types: int, float, bool, None
                assert [list(map(type, c)) for c in got[0]] == [list(map(type, c)) for c in want[0]]

    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(edits=EDITS)
    def test_command_line_same_as_reference(self, tmp_path_factory, edits):
        data = byte_edits(FUZZ_BASE, edits)
        path = tmp_path_factory.mktemp("fuzz") / "t.jsonl"
        path.write_bytes(data)
        for flags in ([], ["--skip-bad"]):
            columns, error = reference_read(data, skip_bad=bool(flags))
            code, stdout, stderr, _ = run_quietly(["slo", "--telemetry", str(path), *flags])
            if error is not None:
                assert (code, stdout, stderr) == (2, "", f"error: {error}\n")
            elif not columns[0]:
                assert (code, stdout, stderr) == (1, "", "error: no telemetry events\n")
            else:
                windows = -(-len(columns[0]) // DEFAULT_WINDOW_CAPACITY)  # slo's default --window
                assert code in (0, 3) and stderr == ""
                assert stdout.splitlines()[-1].startswith(f"windows={windows} ")
