#!/usr/bin/env python3
"""latgov benchmark: one command per workload, checked, timed and traced.

    python3 perfbench/run.py --workload replay_20k --seed 1 --seconds 35 --trace 0

Run from the root of a latgov source tree; the program is imported from
``./src``. With ``--trace 0`` each timed operation is one fresh
``python -m latgov ...`` process, as a user runs it, and the run reports
the end-to-end metrics. With ``--trace 1`` the same command runs in this
process through ``latgov.cli.main``, once plain and once with the layer
boundaries wrapped by span recorders (``spans.py``), and the run reports
the per-layer metrics. Either way the command's outputs are checked
against ``oracles.py`` and the last stdout line is the result object:

    {"correct": true, "attempted": 3, "failed": 0, "metrics": {...}}

Everything the run writes goes under ``.bench_out/`` in the tree. The
generated inputs and the command's outputs are deleted when it ends; the
run's report (``<run>-report.json``) and, for a traced run, its spans
(``<run>-spans.npz``) stay.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

# latgov does no BLAS work, but OpenBLAS starts a thread pool when NumPy is
# imported, and at its default size that start-up made a process's import
# time depend on the load on the other core (medians of 0.14-0.20 s, against
# 0.133-0.139 s with one thread, in interleaved imports). One BLAS thread,
# for this process and every process it starts, keeps the measured set-up
# time to latgov's own work.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import oracles  # noqa: E402
import spans  # noqa: E402

# Workload -> input size: sessions for simulate, telemetry events otherwise.
# Each command takes 1-3 s, so that a run times a dozen or more of them and
# the pace measured around each one is the pace it ran at.
WORKLOADS = {"simulate_all_200k": 200_000, "replay_20k": 20_000, "slo_100k": 100_000}
END_TO_END = {"items_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = {
    "simulator.simulate_paths.self_s": "s",
    "simulator.simulate_paths.letw.self_s": "s",
    "simulator.simulate_paths.none.self_s": "s",
    "simulator.simulate_paths.static_messaging.self_s": "s",
    "simulator.draw_variates.self_s": "s",
    "simulator.draw_variates.calls": "count",
    "simulator.summarize_trace.self_s": "s",
    "simulator.sessions": "count",
    "governor.transitions": "count",
    "governor.step.self_s": "s",
    "governor.step.calls": "count",
    "telemetry.parse.self_s": "s",
    "telemetry.parse.calls": "count",
    "telemetry.window.push.self_s": "s",
    "telemetry.window.push.calls": "count",
    "telemetry.window.stats.self_s": "s",
    "telemetry.window.stats.calls": "count",
    "telemetry.slo.self_s": "s",
    "telemetry.slo.windows": "count",
    "telemetry.slo.escalated_windows": "count",
    "cli.read.self_s": "s",
    "cli.bytes_read": "B",
    "cli.bytes_written": "B",
    "cli.cmd_simulate.self_s": "s",
    "cli.cmd_replay.self_s": "s",
    "cli.cmd_slo.self_s": "s",
    "cli.main.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}
SETUP_REPEATS = 12         # fresh `import latgov.cli` processes per run
COMMAND_TIMEOUT_S = 100.0  # one command; a hung command counts as failed
SELF_TIME_TOLERANCE = 0.01  # self times must sum to the traced wall within 1%

# The pace of the machine. On a shared 2-core host one core ran CPU-bound
# Python up to 1.7x slower than at other times, per core, changing within a
# second and holding a level for seconds to minutes, with CPU time tracking
# wall time; so ten runs' medians of raw wall time spread by 20-30%. The
# benchmark therefore runs on one core and times, after every command and
# every set-up sample, `pace()`: a fixed mix of bytecode, JSON and NumPy
# work in this process that runs no latgov code. The end-to-end times are
# each wall time scaled by PACE_REFERENCE_S over the mean of the paces
# measured just before and just after it: the wall time the command would
# have taken had `pace()` taken PACE_REFERENCE_S. The raw figures stay in
# the report under `unscaled_metrics`.
PACE_REFERENCE_S = 0.060
_PACE_DOC = json.dumps(
    [{"session_id": f"s{i:06d}", "rtt_ms": [1.5, 2.25], "region": "eu-west"} for i in range(200)]
)
_PACE_ARRAY = np.random.default_rng(0).random(20_000)


class BenchError(Exception):
    """The tree cannot be benchmarked (no sources, import fails)."""


class Workload:
    """One CLI command on generated inputs, with the check of its outputs."""

    def __init__(self, name: str, seed: int, workdir: Path):
        self.name = name
        self.out = workdir / "out.json"
        size = WORKLOADS[name]
        if name.startswith("simulate"):
            self.config = inputs.sim_config(seed, size)
            path = workdir / "sim_config.json"
            path.write_text(json.dumps(self.config, indent=2) + "\n", encoding="utf-8")
            self.argv = ["simulate", "--policy", "all", "--config", str(path), "--out", str(self.out)]
            self.items = len(oracles.POLICIES) * self.config["sessions"]
            self.sizes = {"sessions": self.config["sessions"], "policies": len(oracles.POLICIES)}
            self.ok_codes = (0,)
        else:
            path = workdir / "telemetry.jsonl"
            path.write_text("".join(inputs.telemetry_lines(seed, size)), encoding="utf-8")
            self.ids, self.latencies = oracles.load_telemetry(path)
            command = name.split("_")[0]
            self.argv = [command, "--telemetry", str(path), "--out", str(self.out)]
            self.items = len(self.ids)
            self.sizes = {"events": self.items, "window": oracles.WINDOW,
                          "telemetry_bytes": path.stat().st_size}
            # `slo` exits 3 when the stream escalates: a result, not a failure.
            self.ok_codes = (0,) if command == "replay" else (0, 3)

    def check(self, code: int, stdout: str, out: bytes) -> list:
        try:
            if self.name.startswith("simulate"):
                problems = [] if code == 0 else [f"exit_code: {code}, expected 0"]
                return problems + oracles.check_simulate(json.loads(out), self.config)
            if self.name.startswith("replay"):
                problems = [] if code == 0 else [f"exit_code: {code}, expected 0"]
                return problems + oracles.check_replay(
                    out.decode("utf-8"), stdout, self.ids, self.latencies
                )
            return oracles.check_slo(json.loads(out), code, self.latencies)
        except (ValueError, KeyError, TypeError) as exc:
            return [f"output: unreadable ({type(exc).__name__}: {exc})"]


class Checker:
    """Checks the first completed output in full, later ones for identity."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self.first = None
        self.first_key = None
        self.problems = []

    def record(self, code: int, stdout: str) -> None:
        out = self.workload.out.read_bytes() if self.workload.out.exists() else b""
        self.workload.out.unlink(missing_ok=True)
        key = (code, stdout, hashlib.sha256(out).digest())
        if self.first is None:
            self.first, self.first_key = (code, stdout, out), key
        elif key != self.first_key:
            self.problems.append("determinism: a rerun gave different output")

    def finish(self) -> list:
        if self.first is None:
            return self.problems + ["no command completed"]
        return self.problems + self.workload.check(*self.first)


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def run_process(argv: list, env: dict, workdir: Path) -> tuple:
    """(exit code, wall s, peak RSS MB, stdout) of one process; killed after the timeout."""
    out_path = workdir / "stdout.txt"
    with open(out_path, "wb") as out_fh, open(workdir / "stderr.txt", "wb") as err_fh:
        begin = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out_fh, stderr=err_fh, env=env, cwd=workdir)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted or terminated: take the command down too
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - begin
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0, out_path.read_text(encoding="utf-8")


def pace() -> float:
    """Wall seconds of a fixed mix of bytecode, JSON and NumPy work; no latgov code runs."""
    begin = time.perf_counter()
    total = 0
    for i in range(360_000):
        total += i * i % 7
    for _ in range(120):
        json.loads(_PACE_DOC)
    for _ in range(120):
        np.sort(_PACE_ARRAY)
    return time.perf_counter() - begin


class Pacer:
    """Scales each timed interval to the reference pace by the pace measured around it."""

    def __init__(self):
        self.last = pace()
        self.paces = [self.last]

    def factor(self) -> float:
        """Reference over measured pace for the interval that just ended."""
        now = pace()
        factor = PACE_REFERENCE_S / ((self.last + now) / 2)
        self.last = now
        self.paces.append(now)
        return factor


def measure_setup(env: dict, workdir: Path, count: int, pacer=None) -> list:
    """[(wall s, wall s at the reference pace)] of ``count`` fresh interpreters importing latgov.cli."""
    argv = [sys.executable, "-c", "import latgov.cli"]
    times = []
    for _ in range(count):
        code, wall, _, _ = run_process(argv, env, workdir)
        if code != 0:
            err = (workdir / "stderr.txt").read_text(encoding="utf-8").strip()
            raise BenchError(f"`import latgov.cli` failed: {err[-500:]}")
        times.append((wall, wall * pacer.factor() if pacer else wall))
    return times


def timed_runs(workload: Workload, seconds: float, env: dict, workdir: Path) -> dict:
    """Fresh `python -m latgov` processes until the next would overrun ``seconds``.

    The set-up samples are spread over the same interval, between commands,
    so that they see the machine in the same state as the commands do. Every
    command and every set-up sample is followed by a pace measurement, and
    its metrics use its wall time scaled to the reference pace.
    """
    checker = Checker(workload)
    argv = [sys.executable, "-m", "latgov", *workload.argv]
    samples = []
    failed = 0
    measure_setup(env, workdir, 1)  # warm-up: the first import writes bytecode caches
    setup = []
    pacer = Pacer()
    begin = time.perf_counter()
    while True:
        code, wall, rss_mb, stdout = run_process(argv, env, workdir)
        scaled = wall * pacer.factor()
        if code in workload.ok_codes:
            checker.record(code, stdout)
            samples.append({"wall_s": wall, "scaled_s": scaled, "peak_rss_mb": rss_mb,
                            "exit": code})
        else:
            failed += 1
            samples.append({"wall_s": wall, "scaled_s": scaled, "exit": code})
        share = min(1.0, (time.perf_counter() - begin) / seconds)
        setup += measure_setup(env, workdir, math.ceil(SETUP_REPEATS * share) - len(setup), pacer)
        typical = statistics.median(s["wall_s"] for s in samples)
        if time.perf_counter() - begin + typical > seconds:
            break
    setup += measure_setup(env, workdir, SETUP_REPEATS - len(setup), pacer)
    done = [s for s in samples if "peak_rss_mb" in s]
    metrics = unscaled = {}
    if done:
        metrics = {
            "items_per_s": statistics.median(workload.items / s["scaled_s"] for s in done),
            "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in done),
            "setup_s": statistics.median(scaled for _, scaled in setup),
        }
        unscaled = {
            "items_per_s": statistics.median(workload.items / s["wall_s"] for s in done),
            "setup_s": statistics.median(wall for wall, _ in setup),
        }
    check_begin = time.perf_counter()
    problems = checker.finish()
    return {"samples": samples, "setup_s": setup, "pace_s": pacer.paces,
            "pace_reference_s": PACE_REFERENCE_S, "unscaled_metrics": unscaled,
            "attempted": len(samples), "failed": failed, "problems": problems,
            "check_s": time.perf_counter() - check_begin, "metrics": metrics}


def import_latgov(root: Path) -> dict:
    src = str(root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import latgov.cli
    import latgov.simulator
    import latgov.telemetry

    if not Path(latgov.__file__).resolve().is_relative_to((root / "src").resolve()):
        raise BenchError(f"latgov was imported from {latgov.__file__}, not from ./src")
    return {"cli": latgov.cli, "simulator": latgov.simulator, "telemetry": latgov.telemetry}


def in_process(modules: dict, workload: Workload, rec=None) -> tuple:
    """(exit code, wall s, stdout) of ``cli.main`` run here, traced when ``rec`` is given."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        if rec is None:
            begin = time.perf_counter()
            code = modules["cli"].main(list(workload.argv))
            wall = time.perf_counter() - begin
        else:
            code, wall, _ = spans.traced_call(rec, modules, list(workload.argv))
    return code, wall, stdout.getvalue()


def traced_runs(workload: Workload, seconds: float, root: Path, workdir: Path) -> dict:
    """Plain then traced in-process calls, in pairs, until the next pair would overrun."""
    modules = import_latgov(root)
    checker = Checker(workload)
    plain_walls, traced_walls, layers = [], [], []
    attempted = failed = 0
    problems = []
    rec = None
    begin = time.perf_counter()
    while True:
        pair_begin = time.perf_counter()
        for traced in (False, True):
            rec = spans.Recorder() if traced else None
            code, wall, stdout = in_process(modules, workload, rec)
            attempted += 1
            if code not in workload.ok_codes:
                failed += 1
                continue
            written = len(stdout.encode("utf-8")) + (
                workload.out.stat().st_size if workload.out.exists() else 0
            )
            checker.record(code, stdout)
            if not traced:
                plain_walls.append(wall)
                continue
            traced_walls.append(wall)
            metrics, self_total = spans.layer_metrics(rec)
            if abs(self_total - wall) > SELF_TIME_TOLERANCE * wall:
                problems.append(
                    f"self_time_sum: layers add up to {self_total:.6f} s of {wall:.6f} s traced"
                )
            metrics["cli.bytes_written"] = written
            metrics["trace.wall_s"] = wall
            metrics["trace.spans"] = len(rec.start)
            layers.append(metrics)
        pair = time.perf_counter() - pair_begin
        if time.perf_counter() - begin + pair > seconds:
            break
    if rec is not None:
        rec.save(workdir.parent / f"{workdir.name}-spans.npz")
    metrics = {}
    if layers and plain_walls:
        metrics = {
            name: (statistics.median_low if PER_LAYER[name] in ("count", "B") else statistics.median)(
                m[name] for m in layers
            )
            for name in layers[0]
        }
        metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(
            plain_walls
        )
    return {"plain_walls": plain_walls, "traced_walls": traced_walls, "attempted": attempted,
            "failed": failed, "problems": checker.finish() + problems, "metrics": metrics}


def metadata(root: Path, args, workload: Workload) -> dict:
    sha = None
    if (root / ".git").exists():  # a plain source tree has no commit to name
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
                timeout=30,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    import_latgov(root)
    try:
        from latgov import backends
        backend = backends.resolve()[0]
    except ImportError:
        backend = "no backend selection"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "backend": backend,
        "latgov_version": getattr(sys.modules.get("latgov"), "__version__", None),
        "command": ["python", "-m", "latgov", *workload.argv],
        "sizes": workload.sizes,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM unwind as on an exception, so the running command is killed
    # and waited for and the inputs are removed.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))

    root = Path.cwd()
    if not (root / "src" / "latgov" / "cli.py").is_file():
        print("error: no latgov sources under ./src; run from the root of the tree",
              file=sys.stderr)
        return 2
    # One core for this process and every process it starts, so that `pace()`
    # measures the core the commands run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workdir = root / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    begin = time.perf_counter()
    try:
        workload = Workload(args.workload, args.seed, workdir)
        inputs_s = time.perf_counter() - begin
        report = metadata(root, args, workload)
        if args.trace:
            result = traced_runs(workload, args.seconds, root, workdir)
            names = PER_LAYER
        else:
            result = timed_runs(workload, args.seconds, child_env(root), workdir)
            names = END_TO_END
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        for path in workdir.iterdir():
            path.unlink()
        workdir.rmdir()

    problems = result.pop("problems")
    missing = sorted(set(names) - set(result["metrics"]))
    if missing:
        problems.append(f"metrics: no value for {missing}")
    report.update(result, problems=problems, inputs_s=inputs_s,
                  run_s=time.perf_counter() - begin)
    report_path = workdir.parent / f"{workdir.name}-report.json"
    report_path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    for line in problems:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps(report, separators=(",", ":")))
    print(json.dumps({
        "correct": not problems,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": result["metrics"][name], "unit": unit}
            for name, unit in names.items() if name in result["metrics"]
        },
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
