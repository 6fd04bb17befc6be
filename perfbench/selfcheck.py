#!/usr/bin/env python3
"""Show that each output check passes real output and fails perturbed output.

    python3 perfbench/selfcheck.py

Run from the root of a latgov source tree. It runs the three workload
commands on small seeded inputs, confirms the checks in ``oracles.py``
accept their outputs, then perturbs one thing at a time (a flipped mode,
a shifted quantile, a dropped escalation, ...) and confirms the named
check rejects it. It also runs the tracer on a tree with a layer
boundary missing, and checks that BENCHMARK.json names the metrics
``run.py`` prints. Exits 1 if anything is not as expected.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import subprocess
import sys
import tempfile
import types
from pathlib import Path

import inputs
import oracles
import run
import spans

SEED = 7
SESSIONS = 100_000
EVENTS = 12_000  # long enough that a congested segment escalates the SLO gate


def cli(argv: list, root: Path) -> tuple:
    proc = subprocess.run(
        [sys.executable, "-m", "latgov", *argv], env=run.child_env(root),
        capture_output=True, text=True, timeout=300,
    )
    return proc.returncode, proc.stdout


def _edit(doc, fn):
    doc = copy.deepcopy(doc)
    fn(doc)
    return doc


def simulate_cases(doc: dict) -> list:
    def shift_p90(d):
        for res in d["policies"].values():
            res["latency_p90"] *= 1.05

    def move_soft(d):
        shares = d["policies"]["static_messaging"]["mode_shares"]
        shares["soft"] += 0.01
        shares["instant"] -= 0.01

    def letw_abandons_more(d):
        d["policies"]["letw"]["abandonment_rate"] = d["policies"]["none"]["abandonment_rate"] + 1e-3

    def overfull(d):
        res = d["policies"]["static_messaging"]
        res["conversion_rate"] = 1.0 - res["abandonment_rate"] + 0.01

    def pin_letw(d):
        d["policies"]["letw"]["mode_shares"] = {"instant": 0.0, "soft": 1.0, "deferred": 0.0}

    return [
        ("config", _edit(doc, lambda d: d["config"].update(seed=d["config"]["seed"] + 1))),
        ("shared_latency", _edit(doc, lambda d: d["policies"]["none"].update(
            latency_p50=d["policies"]["none"]["latency_p50"] + 1e-6))),
        ("analytic_quantile", _edit(doc, shift_p90)),
        ("none_instant", _edit(doc, lambda d: d["policies"]["none"].update(
            mode_shares={"instant": 0.99999, "soft": 0.00001, "deferred": 0.0}))),
        ("static_soft_share", _edit(doc, move_soft)),
        ("equal_trust", _edit(doc, lambda d: d["policies"]["letw"].update(
            mean_trust=d["policies"]["letw"]["mean_trust"] * (1 + 1e-9)))),
        ("coupled_order", _edit(doc, letw_abandons_more)),
        ("outcome_total", _edit(doc, overfull)),
        ("letw_transitions", _edit(doc, pin_letw)),
    ]


def replay_cases(text: str, stdout: str) -> list:
    lines = text.splitlines(keepends=True)

    def with_record(index: int, **changes) -> str:
        rec = json.loads(lines[index])
        rec.update(changes)
        return "".join(lines[:index] + [json.dumps(rec) + "\n"] + lines[index + 1:])

    mid = len(lines) // 2
    rec = json.loads(lines[mid])
    flipped = "deferred" if rec["mode"] == "instant" else "instant"
    swapped = lines[:]
    swapped[1], swapped[2] = swapped[2], swapped[1]
    bumped = oracles._SUMMARY.sub(
        lambda m: f"events={m.group(1)} transitions={int(m.group(2)) + 1}", stdout
    )
    return [
        ("event_count", "".join(lines[:-1]), stdout),
        ("session_order", "".join(swapped), stdout),
        ("perceived_latency", with_record(
            mid, perceived_latency_s=rec["perceived_latency_s"] * (1 + 1e-7)), stdout),
        ("trust", with_record(mid, trust=rec["trust"] + 1e-6), stdout),
        ("mode", with_record(mid, mode=flipped), stdout),
        ("summary", text, bumped),
    ]


def slo_cases(doc: dict, code: int) -> list:
    def shift_quantile(d):
        d["windows"][3]["p90_s"] += 0.001

    def scale_std(d):
        d["windows"][5]["std_s"] *= 1 + 1e-7

    return [
        ("window_count", _edit(doc, lambda d: d["windows"].pop()), code),
        ("window_stats", _edit(doc, shift_quantile), code),
        ("window_stats", _edit(doc, scale_std), code),
        ("escalation", _edit(doc, lambda d: d["escalation_windows"].pop(0)), code),
        ("exit_code", doc, 0 if code == 3 else 3),
    ]


def expect(label: str, problems: list, check: str, failures: list) -> None:
    """``check`` empty: the output must pass; otherwise that check must fire."""
    if not check:
        ok = not problems
        print(f"{'ok  ' if ok else 'FAIL'} {label}: real output passes {problems[:2] if problems else ''}")
    else:
        ok = any(p.startswith(check + ":") for p in problems)
        print(f"{'ok  ' if ok else 'FAIL'} {label}: perturbed output fails '{check}'")
    if not ok:
        failures.append(label)


def check_tracer(root: Path, workdir: Path, failures: list) -> None:
    """Self times add up, and a missing boundary reads as zero calls."""
    telemetry = workdir / "telemetry.jsonl"
    out = workdir / "trace_out.json"
    modules = run.import_latgov(root)
    argv = ["replay", "--telemetry", str(telemetry), "--out", str(out)]
    for label, mods in (
        ("tracer", modules),
        ("tracer without LatencyWindow", dict(modules, telemetry=types.SimpleNamespace())),
    ):
        rec = spans.Recorder()
        with contextlib.redirect_stdout(io.StringIO()):
            code, wall, missing = spans.traced_call(rec, mods, argv)
        metrics, total = spans.layer_metrics(rec)
        ok = code == 0 and abs(total - wall) <= run.SELF_TIME_TOLERANCE * wall
        if mods is modules:
            ok = ok and not missing and metrics["telemetry.window.stats.calls"] == EVENTS
        else:
            ok = ok and missing == ["push", "stats"] and metrics["telemetry.window.stats.calls"] == 0
        print(f"{'ok  ' if ok else 'FAIL'} {label}: self times {total:.4f} s of {wall:.4f} s, "
              f"stats calls {metrics['telemetry.window.stats.calls']}, missing {missing}")
        if not ok:
            failures.append(label)


def check_benchmark_json(root: Path, failures: list) -> None:
    path = root / "BENCHMARK.json"
    if not path.exists():
        print("skip BENCHMARK.json: not in this tree")
        return
    doc = json.loads(path.read_text(encoding="utf-8"))
    listed = (
        {m["name"]: m["unit"] for m in doc["end_to_end"]},
        {m["name"]: m["unit"] for m in doc["per_layer"]},
        [w["name"] for w in doc["workloads"]],
    )
    ok = listed == (run.END_TO_END, run.PER_LAYER, list(run.WORKLOADS))
    print(f"{'ok  ' if ok else 'FAIL'} BENCHMARK.json lists the metrics and workloads run.py reports")
    if not ok:
        failures.append("BENCHMARK.json")


def main() -> int:
    root = Path.cwd()
    if not (root / "src" / "latgov" / "cli.py").is_file():
        print("error: run from the root of the latgov tree", file=sys.stderr)
        return 2
    failures = []
    (root / ".bench_out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=root / ".bench_out") as tmp:
        workdir = Path(tmp)
        config = inputs.sim_config(SEED, SESSIONS)
        (workdir / "cfg.json").write_text(json.dumps(config))
        out = workdir / "out.json"
        code, _ = cli(["simulate", "--policy", "all", "--config", str(workdir / "cfg.json"),
                       "--out", str(out)], root)
        doc = json.loads(out.read_text())
        expect("simulate", oracles.check_simulate(doc, config) + (
            [] if code == 0 else [f"exit_code: {code}"]), "", failures)
        for check, bad in simulate_cases(doc):
            expect(f"simulate/{check}", oracles.check_simulate(bad, config), check, failures)

        telemetry = workdir / "telemetry.jsonl"
        telemetry.write_text("".join(inputs.telemetry_lines(SEED, EVENTS)))
        ids, latencies = oracles.load_telemetry(telemetry)
        code, stdout = cli(["replay", "--telemetry", str(telemetry), "--out", str(out)], root)
        text = out.read_text()
        expect("replay", oracles.check_replay(text, stdout, ids, latencies), "", failures)
        for check, bad_text, bad_stdout in replay_cases(text, stdout):
            expect(f"replay/{check}", oracles.check_replay(bad_text, bad_stdout, ids, latencies),
                   check, failures)

        code, _ = cli(["slo", "--telemetry", str(telemetry), "--out", str(out)], root)
        doc = json.loads(out.read_text())
        expect("slo", oracles.check_slo(doc, code, latencies), "", failures)
        if code != 3 or not doc["escalation_windows"]:
            print(f"FAIL slo: the seeded stream did not escalate (exit {code})")
            failures.append("slo escalation")
        for check, bad, bad_code in slo_cases(doc, code):
            expect(f"slo/{check}", oracles.check_slo(bad, bad_code, latencies), check, failures)

        check_tracer(root, workdir, failures)
    check_benchmark_json(root, failures)
    print(f"{len(failures)} unexpected result(s)" if failures else "all checks behave")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
