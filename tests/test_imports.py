"""Which imports and commands load NumPy and the simulator.

``slo``, ``report`` and ``fit`` do no array work, so they start without
NumPy; only ``simulate`` and ``replay`` load it. Each case runs in a fresh
interpreter, because this test process has imported both already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_cli import make_event

SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY = ("numpy", "latgov.simulator")


def loaded_after(code, cwd):
    """Which of HEAVY are in ``sys.modules`` after ``code`` runs in a fresh interpreter."""
    probe = f"{code}\nimport json, sys\nprint(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", probe], cwd=cwd, env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def run_main(argv):
    return f"from latgov.cli import main\nmain({argv!r})"


@pytest.fixture
def inputs(tmp_path):
    (tmp_path / "t.jsonl").write_text(
        "\n".join(make_event(f"s{i}", 1.0 + i / 10) for i in range(5)) + "\n"
    )
    result = {
        "conversion_rate": 0.5, "abandonment_rate": 0.1, "repeat_rate": 0.05, "mean_trust": 0.7,
        "mode_shares": {"instant": 1.0}, "latency_p50": 1.0, "latency_p90": 2.0,
        "latency_p99": 3.0,
    }
    (tmp_path / "sim.json").write_text(json.dumps({"result": result}))
    return tmp_path


@pytest.mark.parametrize(
    "code",
    [
        "import latgov",
        "import latgov.cli",
        run_main(["slo", "--telemetry", "t.jsonl", "--window", "2", "--out", "o.json"]),
        run_main(["fit", "--points", "1:0.5,2:0.3", "--hazard-anchor", "1:7"]),
        run_main(["report", "--telemetry", "t.jsonl"]),
        run_main(["report", "--sim", "sim.json"]),
    ],
    ids=["import_latgov", "import_cli", "slo", "fit", "report_telemetry", "report_sim"],
)
def test_loads_neither_numpy_nor_the_simulator(inputs, code):
    assert loaded_after(code, inputs) == []


@pytest.mark.parametrize(
    "argv,loaded",
    [
        (["simulate", "--sessions", "100"], ["numpy", "latgov.simulator"]),
        (["replay", "--telemetry", "t.jsonl", "--out", "d.jsonl"], ["numpy"]),
    ],
    ids=["simulate", "replay"],
)
def test_array_commands_load_numpy(inputs, argv, loaded):
    assert loaded_after(run_main(argv), inputs) == loaded


def test_simulator_names_resolve_from_the_package():
    import latgov
    from latgov import run_simulation, simulator

    assert run_simulation is simulator.run_simulation
    assert latgov.compare_policies is simulator.compare_policies
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        latgov.nope


def test_config_types_are_the_simulators():
    from latgov import config, simulator

    assert simulator.SimConfig is config.SimConfig
    assert simulator.quantile_mode_rows is config.quantile_mode_rows
