"""The README as written: its CLI block, the one list of end-to-end commands, runs
line by line through :func:`reference.run_latgov`, and its config example names
every config field."""

import json
import re
import shlex
from dataclasses import fields
from pathlib import Path

from latgov import cli
from latgov.config import SimConfig
from latgov.telemetry import SloConfig
from reference import assert_no_non_finite, run_latgov, write_telemetry

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def block_after(heading, language):
    """The first ``language`` code block after the line ``heading``."""
    start = README.index(f"\n{heading}\n")
    return re.compile(rf"^```{language}\n(.*?)^```$", re.M | re.S).search(README, start).group(1)


def dotted(doc, prefix=""):
    """The dotted names of a nested document's leaves."""
    names = set()
    for key, value in doc.items():
        names |= dotted(value, f"{prefix}{key}.") if isinstance(value, dict) else {prefix + key}
    return names


CLI_LINES = [
    shlex.split(line)[1:]
    for line in block_after("## CLI", "bash").splitlines()
    if line.startswith("latgov ")
]


def test_cli_block_runs_as_documented(tmp_path):
    # A clean stream whose later windows breach p90, so slo escalates: exit 3.
    write_telemetry(tmp_path / "events.jsonl", [0.8] * 512 + [2.9] * 768)
    assert CLI_LINES[0] == ["--help"]
    for args in CLI_LINES:
        proc = run_latgov(args, tmp_path)
        assert proc.returncode == (3 if args[0] == "slo" else 0), (args, proc.stderr)
        assert "Traceback" not in proc.stderr, (args, proc.stderr)
        if "--out" in args:
            out = tmp_path / args[args.index("--out") + 1]
            assert out.exists(), args
            assert_no_non_finite(out)


def test_config_example_names_every_field(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(block_after("### Config files", "json"))
    cli._load_config(str(path))  # a config every command accepts
    # lambda0 is left out: its default is derived from gamma.
    want = dotted(SimConfig().to_dict()) - {"params.lambda0"}
    want |= {f"slo.{f.name}" for f in fields(SloConfig)}
    assert dotted(json.loads(path.read_text())) == want
