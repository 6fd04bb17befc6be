"""Which imports and commands load NumPy, the simulator and latgov's modules,
and what they leave to run at exit.

``import latgov`` loads none of its modules, and each module imports on its
own. ``slo``, ``report`` and ``fit`` do no array work, so they start without
NumPy; only ``simulate`` and ``replay`` load it. Each case runs in a fresh
interpreter, because this test process has imported all of them already.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from reference import latgov_env, write_telemetry

ROOT = Path(__file__).resolve().parents[1]
HEAVY = ("numpy", "latgov.simulator")


def run_fresh(code, cwd=None):
    """The last stdout line of ``code`` run in a fresh interpreter, decoded as JSON."""
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, env=latgov_env(), capture_output=True, text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def loaded_after(code, cwd):
    """Which of HEAVY are in ``sys.modules`` after ``code`` runs in a fresh interpreter."""
    probe = f"{code}\nimport json, sys\nprint(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))"
    return run_fresh(probe, cwd)


def run_main(argv):
    return f"from latgov.cli import main\nmain({argv!r})"


@pytest.fixture
def inputs(tmp_path):
    write_telemetry(tmp_path / "t.jsonl", [1.0 + i / 10 for i in range(5)])
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


def test_import_registers_no_exit_callback():
    # A library importer keeps the interpreter's own exit-time collection.
    code = (
        "import atexit\nbefore = atexit._ncallbacks()\nimport latgov, latgov.cli\n"
        "print(atexit._ncallbacks() - before)"
    )
    assert run_fresh(code) == 0


def test_main_registers_one_heap_freeze_however_often_it_runs():
    # gc.freeze is swapped for a counter after the import, so a freeze registered
    # at import is not counted; atexit runs last in, first out, so the report,
    # registered before any main call, runs after every callback main added.
    calls = "\n".join(
        f"main({argv!r})" for argv in (["fit", "--hazard-anchor", "1:7"], [], ["fit"], ["fit", "-h"])
    )
    code = (
        "import atexit, gc, json, sys\nfrom latgov.cli import main\nfreezes = []\n"
        "atexit.register(lambda: print(json.dumps(len(freezes)), file=sys.__stdout__))\n"
        f"gc.freeze = lambda: freezes.append(1)\n{calls}"
    )
    assert run_fresh(code) == 1


@pytest.mark.parametrize(
    "module,loaded",
    [
        ("latgov", []),
        ("latgov.model", ["model"]),
        ("latgov.governor", ["governor", "model"]),
        ("latgov.telemetry", ["governor", "model", "telemetry"]),
        ("latgov.config", ["config", "governor", "model", "telemetry"]),
        ("latgov.simulator", ["config", "governor", "model", "simulator", "telemetry"]),
        ("latgov.cli", ["cli", "config", "governor", "model", "telemetry"]),
    ],
    ids=["package", "model", "governor", "telemetry", "config", "simulator", "cli"],
)
def test_module_imports_on_its_own(module, loaded):
    # The package imports none of its modules, so nothing fixes their import order.
    code = (
        f"import json, sys\nimport {module}\n"
        "loaded = [m.removeprefix('latgov.') for m in sys.modules if m.startswith('latgov.')]\n"
        "print(json.dumps(sorted(loaded)))"
    )
    assert run_fresh(code) == loaded


def test_one_version_string():
    import latgov

    # Python 3.10 has no tomllib.
    pyproject = (ROOT / "pyproject.toml").read_text()
    assert re.findall(r'^version = "([^"]+)"$', pyproject, re.MULTILINE) == [latgov.__version__]


def test_config_types_are_the_simulators():
    from latgov import config, simulator

    assert simulator.SimConfig is config.SimConfig
    assert simulator.quantile_mode_rows is config.quantile_mode_rows
