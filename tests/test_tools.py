"""Tests of the repository tools under ``tools/``."""

import importlib.util
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("pairs", ["1", "0"])
def test_bench_pairs_rejects_fewer_than_two_pairs(tmp_path, monkeypatch, capsys, pairs):
    """Quartiles need two runs a side, so too few pairs is a usage error before any work."""
    bench_pairs = load_tool("bench_pairs")

    def no_work(*args):
        raise AssertionError(f"ran {args} before rejecting --pairs {pairs}")

    monkeypatch.setattr(bench_pairs, "git", no_work)
    monkeypatch.setattr(bench_pairs, "export", no_work)
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["HEAD~1", "HEAD", "--pairs", pairs, "--out", str(out)])
    assert exc.value.code == 2
    assert f"--pairs must be >= 2, got {pairs}" in capsys.readouterr().err
    assert not out.exists()
