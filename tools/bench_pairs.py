"""Alternating parent/change pairs of perfbench runs, summarised as a BENCH_*.json file.

    python3 tools/bench_pairs.py PARENT CHANGE [--pairs 10] [--seed 3] \
        [--workload W ...] --out BENCH_17.json

Each commit is run from its own ``git archive`` in a temporary directory, with
the unmodified ``python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0`` of its own tree, T being ``run_seconds`` of ``BENCHMARK.json``. Pair
i runs the parent first when i is even and the change first otherwise. For each
workload and end-to-end metric of ``BENCHMARK.json`` the file holds each side's
median, quartiles and runs (in pair order), and the two sides compared
(:func:`pairs`): how many pairs the change won, the change of the medians in
percent, the sign test's p-value, a bootstrap interval of the median ratio, and
the metric's verdict, a report that gates nothing.

An existing ``--out`` of the same two commits is added to, not replaced: the
file's first seed keeps its workloads under ``workloads``, another seed's go
under ``other_seeds``, and ``commands`` lists every invocation that wrote the
file. The file is rewritten after every workload, so a cut run keeps what it
finished. ``bytecode_env`` records the values (null when unset) of the variables
that decide whether the runs compile ``src`` again or read a bytecode cache; a
file is added to only under the same values.
"""

import argparse
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BYTECODE_VARS = ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], check=True, capture_output=True, text=True).stdout.strip()


def export(sha: str, root: Path) -> Path:
    """The tree of ``sha``, extracted from ``git archive`` into ``root / sha``."""
    tree = root / sha
    tree.mkdir(parents=True)
    archive = subprocess.Popen(["git", "archive", sha], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(tree)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait():
        raise SystemExit(f"git archive {sha} failed")
    return tree


def run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result object (the last line of stdout) of one perfbench run."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if done.returncode:
        raise SystemExit(f"{' '.join(argv)} in {tree} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def value(result: dict, metric: str) -> float:
    return result["metrics"][metric]["value"]


def side(results: list, metrics: dict) -> dict:
    summary = {}
    for name in metrics:
        runs = [value(r, name) for r in results]
        q1, _, q3 = statistics.quantiles(runs, n=4)
        summary[name] = {"median": round(statistics.median(runs), 6), "q1": round(q1, 6),
                         "q3": round(q3, 6), "runs": runs}
    summary["attempted"] = sum(r["attempted"] for r in results)
    summary["failed"] = sum(r["failed"] for r in results)
    summary["correct"] = all(r["correct"] for r in results)
    return summary


def pairs(parent_runs: list, change_runs: list, better: str, bound: float) -> dict:
    """One metric's ``pairs`` entry, from the runs of each side in pair order: the pairs the
    change won (a tie counts for neither side), the change of the medians in percent, the
    exact two-sided sign-test p-value with ties dropped (``sign_p``), a bootstrap 95% interval
    of the median of the per-pair ``change / parent`` ratios (``ratio_ci95``), and the verdict.
    The interval's 2,000 resamples come from ``random.Random(0)``, so it is a function of the
    runs alone.

    The verdict is ``better`` when the change wins at least 90% of the pairs and its median
    beats the parent's by more than the parent's quartile spread; ``worse`` when its median
    is worse than the parent's by more than ``bound`` times the parent's median; else
    ``within bound``."""
    sign = 1 if better == "higher" else -1
    gains = [sign * (c - p) for p, c in zip(parent_runs, change_runs)]
    wins, losses = sum(g > 0 for g in gains), sum(g < 0 for g in gains)
    p_med, c_med = statistics.median(parent_runs), statistics.median(change_runs)
    gain = sign * (c_med - p_med)
    q1, _, q3 = statistics.quantiles(parent_runs, n=4)
    if wins >= math.ceil(0.9 * len(change_runs)) and gain > q3 - q1:
        verdict = "better"
    elif -gain > bound * p_med:
        verdict = "worse"
    else:
        verdict = "within bound"
    untied = wins + losses
    tail = sum(math.comb(untied, k) for k in range(min(wins, losses) + 1))
    ratios, draw = [c / p for p, c in zip(parent_runs, change_runs)], random.Random(0)
    medians = [statistics.median(draw.choices(ratios, k=len(ratios))) for _ in range(2000)]
    cuts = statistics.quantiles(medians, n=40, method="inclusive")
    return {"change_better_pairs": wins, "pairs": len(change_runs),
            "median_change_pct": round(100.0 * (c_med / p_med - 1.0), 2),
            "sign_p": min(1.0, 2 * tail / 2**untied),
            "ratio_ci95": [round(cuts[0], 6), round(cuts[-1], 6)], "verdict": verdict}


def main(argv=None) -> int:
    benchmark = json.loads(Path("BENCHMARK.json").read_text())
    known = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--pairs", type=int, default=10, help="at least 2, for the quartiles")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--workload", action="append", choices=known,
                        help="default: every workload of BENCHMARK.json")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:  # before any run: statistics.quantiles needs two runs a side
        parser.error(f"--pairs must be >= 2, got {args.pairs}")

    metrics = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    seconds = benchmark["run_seconds"]
    workloads = args.workload or known
    shas = {name: git("rev-parse", rev) for name, rev in (("parent", args.parent), ("change", args.change))}
    command = "python3 tools/bench_pairs.py " + " ".join(argv if argv is not None else sys.argv[1:])
    bytecode_env = {name: os.environ.get(name) for name in BYTECODE_VARS}
    out = Path(args.out)
    if out.exists():
        doc = json.loads(out.read_text())
        if (doc["parent_sha"], doc["change_sha"]) != (shas["parent"], shas["change"]):
            raise SystemExit(f"{out} holds other commits; name a new --out")
        if doc.get("bytecode_env") != bytecode_env:
            raise SystemExit(f"{out} was written under {doc.get('bytecode_env')}; name a new --out")
        doc["commands"].append(command)
    else:
        numpy_version = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                                       capture_output=True, text=True).stdout.strip()
        doc = {
            "what": ("Medians and quartiles of unmodified `python3 perfbench/run.py --workload W --seed "
                     f"S --seconds {seconds:g} --trace 0`, parent and change alternating which runs "
                     "first in each pair; each tree run from a `git archive` of its commit; runs "
                     "listed in pair order."),
            "commands": [command],
            "parent_sha": shas["parent"],
            "change_sha": shas["change"],
            "python": platform.python_version(),
            "numpy": numpy_version,
            "nproc": os.cpu_count(),
            "bytecode_env": bytecode_env,
            "seed": args.seed,
            "seconds": seconds,
            "workloads": {},
        }
    if args.seed == doc["seed"]:
        done = doc["workloads"]
    else:
        done = doc.setdefault("other_seeds", {}).setdefault(str(args.seed), {})
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as root:
        trees = {name: export(sha, Path(root)) for name, sha in shas.items()}
        for workload in workloads:
            results = {"parent": [], "change": []}
            for i in range(args.pairs):
                for name in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                    results[name].append(run(trees[name], workload, args.seed, seconds))
                print(f"{workload} pair {i + 1}/{args.pairs}", file=sys.stderr, flush=True)
            parent, change = side(results["parent"], metrics), side(results["change"], metrics)
            compared = {name: pairs(parent[name]["runs"], change[name]["runs"], better, bounds[name])
                        for name, better in metrics.items()}
            done[workload] = {"parent": parent, "change": change, "pairs": compared}
            out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
