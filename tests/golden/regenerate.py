#!/usr/bin/env python3
"""Write the golden outputs that ``tests/test_golden.py`` compares against.

    python tests/golden/regenerate.py           # expected outputs
    python tests/golden/regenerate.py --inputs  # inputs too

Every case runs ``latgov.cli.main`` from this tree's ``src`` in this process
on the committed inputs, and records its exit code, stdout, stderr and
``--out`` file in ``expected.json.gz``. Regenerate only when an output
changes on purpose, and say which outputs changed in the commit that does it.

The inputs are a pure function of ``SEED`` through the stdlib ``random``
module; they are committed, so a reader never depends on this generator.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import io
import json
import math
import random
import shutil
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent
sys.path.insert(0, str(GOLDEN.parents[1] / "src"))

from latgov.cli import main as latgov_main  # noqa: E402

SEED = 20261018

SIM_CONFIG = {
    # A rail median near the trust budget, so letw keeps crossing it.
    "sessions": 20_000,
    "seed": 11,
    "rail": {"mu_log": math.log(1.17), "sigma_log": 0.5207, "shift_s": 0.0},
}

# (median latency s, log-space sigma, events): calm, moderate and severe
# segments, so replay visits every mode and slo escalates.
SEGMENTS = [
    (0.8, 0.35, 520), (1.75, 0.45, 480), (0.8, 0.35, 300), (2.9, 0.45, 500), (0.8, 0.35, 200),
]
EPOCH_MS = 1_760_000_000_000
# 1-based line -> text put there; the reader works in chunks of a few
# hundred lines, so these sit on and next to chunk boundaries.
SPECIAL_LINES = {
    256: "",                                          # blank, last line of a 256-line chunk
    257: "[1, 2]",                                    # not an object, first line of the next
    768: '{"session_id": "bad", "intent_ts": 1',      # malformed JSON, last line of a chunk
    1025: "",                                         # blank, first line of a chunk
    1500: json.dumps(  # confirm before intent, mid-chunk
        {"session_id": "bad", "intent_ts": 2000, "confirm_ts": 1000, "media_rtt_ms": 1,
         "media_jitter_ms": 1, "ux_mode": "instant", "engaged_60s": False}
    ),
}
NON_ASCII_EVENT = 1234  # this event's session id carries an accented letter

TELEMETRY = "telemetry.jsonl"
TELEMETRY_BOM = "telemetry_bom.jsonl"


def telemetry_text() -> str:
    rng = random.Random(SEED)
    events = []
    ts = EPOCH_MS
    for median, sigma, count in SEGMENTS:
        for _ in range(count):
            i = len(events)
            ts += rng.randrange(5, 400)
            latency_ms = round(median * math.exp(sigma * rng.gauss(0.0, 1.0)) * 1000)
            doc = {
                "session_id": f"g{i:04d}" + ("-é" if i == NON_ASCII_EVENT else ""),
                "intent_ts": ts,
                "confirm_ts": ts + latency_ms,
                "media_rtt_ms": round(rng.gammavariate(4.0, 20.0), 1),
                "media_jitter_ms": rng.randrange(0, 40),
                "ux_mode": "instant" if latency_ms <= 2000 else "soft",
                "engaged_60s": rng.random() < 0.1,
            }
            if i % 3 == 0:
                doc["region"] = "eu-west"
            if i % 5 == 0:
                doc["device"] = None
            if i % 97 == 0:
                doc["app_build"] = 7  # an unknown field, ignored
            events.append(json.dumps(doc, ensure_ascii=False, separators=(",", ":")))
    lines = []
    while events or len(lines) + 1 in SPECIAL_LINES:
        lineno = len(lines) + 1
        lines.append(SPECIAL_LINES[lineno] if lineno in SPECIAL_LINES else events.pop(0))
    return "\n".join(lines) + "\n"


def write_gzip(path: Path, data: bytes) -> None:
    """Byte-reproducible gzip: no file name, no time stamp."""
    with open(path, "wb") as raw, gzip.GzipFile(filename="", mode="wb", fileobj=raw, mtime=0) as gz:
        gz.write(data)


def write_inputs() -> None:
    (GOLDEN / "sim_config.json").write_text(json.dumps(SIM_CONFIG, indent=2) + "\n")
    text = telemetry_text().encode("utf-8")
    write_gzip(GOLDEN / (TELEMETRY + ".gz"), text)


def unpack_inputs(into: Path) -> None:
    """Copy the committed inputs into ``into``, the telemetry decompressed, and
    write beside it the same telemetry behind a UTF-8 byte order mark."""
    text = gzip.decompress((GOLDEN / (TELEMETRY + ".gz")).read_bytes())
    (into / TELEMETRY).write_bytes(text)
    (into / TELEMETRY_BOM).write_bytes(b"\xef\xbb\xbf" + text)
    for name in ("sim_config.json", "sim_result.json"):
        shutil.copy(GOLDEN / name, into / name)


def cases() -> dict:
    """Case name -> argv; ``{dir}`` is the directory holding the inputs."""
    sim = ["--config", "{dir}/sim_config.json"]
    out = ["--out", "{dir}/out"]
    runs = {}
    for policy in ("none", "static", "letw", "all"):
        runs[f"simulate_{policy}"] = ["simulate", *sim, "--policy", policy, *out]
    for name in (TELEMETRY, TELEMETRY_BOM):
        tel = ["--telemetry", "{dir}/" + name]
        stem = name.split(".")[0]
        for window in (1, 16, 256) if name == TELEMETRY else (16,):
            for flags in ([], ["--skip-bad"]):
                mode = "skip_bad" if flags else "strict"
                runs[f"replay_{stem}_w{window}_{mode}"] = [
                    "replay", *tel, "--window", str(window), *flags, *out
                ]
        for window in (64, 256):
            runs[f"slo_{stem}_w{window}_skip_bad"] = [
                "slo", *tel, "--window", str(window), "--skip-bad", *out
            ]
        runs[f"slo_{stem}_strict"] = ["slo", *tel, *out]
        runs[f"report_{stem}_skip_bad"] = ["report", *tel, "--skip-bad", *out]
        runs[f"report_{stem}_strict"] = ["report", *tel, *out]
    runs["report_sim"] = ["report", "--sim", "{dir}/sim_result.json", *out]
    runs["fit"] = ["fit", "--points", "1.0:0.3,4.0:0.1", "--hazard-anchor", "3.0:8.0", *out]
    return runs


def run_case(argv: list, directory: Path) -> dict:
    """Exit code, stdout, stderr and the decoded ``--out`` of one in-process run."""
    argv = [arg.replace("{dir}", str(directory)) for arg in argv]
    out_path = directory / "out"
    out_path.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = latgov_main(argv)
    out = None
    if out_path.exists():
        text = out_path.read_text(encoding="utf-8")
        if argv[0] == "replay":
            out = [json.loads(line) for line in text.splitlines()]
        else:
            out = json.loads(text)
    return {"code": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue(), "out": out}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--inputs", action="store_true", help="rewrite the inputs as well")
    args = parser.parse_args()
    if args.inputs:
        write_inputs()
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        if args.inputs:
            shutil.copy(GOLDEN / "sim_config.json", directory)
            run_case(["simulate", "--config", "{dir}/sim_config.json", "--policy", "letw",
                      "--out", "{dir}/out"], directory)
            (directory / "out").replace(GOLDEN / "sim_result.json")
        unpack_inputs(directory)
        expected = {name: {"argv": argv, **run_case(argv, directory)}
                    for name, argv in cases().items()}
    data = json.dumps(expected, indent=1, sort_keys=True, ensure_ascii=False).encode("utf-8")
    write_gzip(GOLDEN / "expected.json.gz", data + b"\n")
    print(f"{len(expected)} cases written to {GOLDEN / 'expected.json.gz'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
