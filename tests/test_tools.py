"""Tests of the repository tools under ``tools/``."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bench_pairs_usage_error(tmp_path, monkeypatch, capsys, flags):
    """The stderr of ``bench_pairs`` with ``flags``, which must exit 2 before any
    ``git`` call or export and write no ``--out``."""
    bench_pairs = load_tool("bench_pairs")

    def no_work(*args):
        raise AssertionError(f"ran {args} before rejecting {flags}")

    monkeypatch.setattr(bench_pairs, "git", no_work)
    monkeypatch.setattr(bench_pairs, "export", no_work)
    monkeypatch.chdir(TOOLS.parent)  # the tool reads ./BENCHMARK.json
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["HEAD~1", "HEAD", *flags, "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()
    return capsys.readouterr().err


@pytest.mark.parametrize("pairs", ["1", "0"])
def test_bench_pairs_rejects_fewer_than_two_pairs(tmp_path, monkeypatch, capsys, pairs):
    """Quartiles need two runs a side, so too few pairs is a usage error before any work."""
    err = bench_pairs_usage_error(tmp_path, monkeypatch, capsys, ["--pairs", pairs])
    assert f"--pairs must be >= 2, got {pairs}" in err


def test_bench_pairs_rejects_an_unknown_workload(tmp_path, monkeypatch, capsys):
    """A misspelt workload is a usage error that lists the known names, before
    any pairs of the valid workloads named ahead of it run."""
    known = [w["name"] for w in json.loads((TOOLS.parent / "BENCHMARK.json").read_text())["workloads"]]
    flags = ["--workload", known[0], "--workload", "slo_100K"]
    err = bench_pairs_usage_error(tmp_path, monkeypatch, capsys, flags)
    assert "invalid choice: 'slo_100K'" in err
    assert all(name in err.split("choose from", 1)[1] for name in known)


def test_bench_pairs_records_the_bytecode_variables(tmp_path, monkeypatch):
    """Each file holds the bytecode variables' values, null when unset, and is added
    to only under the same values."""
    bench_pairs = load_tool("bench_pairs")
    benchmark = json.loads((TOOLS.parent / "BENCHMARK.json").read_text())
    result = {"metrics": {m["name"]: {"value": 1.0} for m in benchmark["end_to_end"]},
              "attempted": 1, "failed": 0, "correct": True}
    monkeypatch.setattr(bench_pairs, "git", lambda *args: args[-1] * 40)
    monkeypatch.setattr(bench_pairs, "export", lambda sha, root: root / sha)
    monkeypatch.setattr(bench_pairs, "run", lambda *args: result)
    monkeypatch.chdir(TOOLS.parent)  # the tool reads ./BENCHMARK.json
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    monkeypatch.setenv("PYTHONPYCACHEPREFIX", str(tmp_path / "pycache"))
    out = tmp_path / "bench.json"
    argv = ["a", "b", "--pairs", "2", "--workload", benchmark["workloads"][0]["name"], "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    assert json.loads(out.read_text())["bytecode_env"] == {
        "PYTHONDONTWRITEBYTECODE": None, "PYTHONPYCACHEPREFIX": str(tmp_path / "pycache"),
    }
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    with pytest.raises(SystemExit, match="was written under"):
        bench_pairs.main(argv)
