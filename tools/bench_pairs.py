"""Alternating parent/change pairs of perfbench runs, summarised as a BENCH_*.json file.

    python3 tools/bench_pairs.py PARENT CHANGE [--pairs 10] [--seed 3] \
        [--workload W ...] --out BENCH_17.json

Each commit is run from its own ``git archive`` in a temporary directory, with
the unmodified ``python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0`` of its own tree, T being ``run_seconds`` of ``BENCHMARK.json``. Pair
i runs the parent first when i is even and the change first otherwise. For each
workload and end-to-end metric of ``BENCHMARK.json`` the file holds each side's
median, quartiles and runs (in pair order), and how many pairs the change won
and the change of the medians in percent.

An existing ``--out`` of the same two commits is added to, not replaced: the
file's first seed keeps its workloads under ``workloads``, another seed's go
under ``other_seeds``, and ``commands`` lists every invocation that wrote the
file. The file is rewritten after every workload, so a cut run keeps what it
finished.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


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


def pairs(parent: list, change: list, metrics: dict) -> dict:
    out = {}
    for name, better in metrics.items():
        sign = 1 if better == "higher" else -1
        wins = sum(sign * (value(c, name) - value(p, name)) > 0 for p, c in zip(parent, change))
        p_med = statistics.median(value(r, name) for r in parent)
        c_med = statistics.median(value(r, name) for r in change)
        out[name] = {"change_better_pairs": wins, "pairs": len(change),
                     "median_change_pct": round(100.0 * (c_med / p_med - 1.0), 2)}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--pairs", type=int, default=10, help="at least 2, for the quartiles")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--workload", action="append", help="default: every workload of BENCHMARK.json")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:  # before any run: statistics.quantiles needs two runs a side
        parser.error(f"--pairs must be >= 2, got {args.pairs}")

    benchmark = json.loads(Path("BENCHMARK.json").read_text())
    metrics = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    seconds = benchmark["run_seconds"]
    workloads = args.workload or [w["name"] for w in benchmark["workloads"]]
    shas = {name: git("rev-parse", rev) for name, rev in (("parent", args.parent), ("change", args.change))}
    command = "python3 tools/bench_pairs.py " + " ".join(argv if argv is not None else sys.argv[1:])
    out = Path(args.out)
    if out.exists():
        doc = json.loads(out.read_text())
        if (doc["parent_sha"], doc["change_sha"]) != (shas["parent"], shas["change"]):
            raise SystemExit(f"{out} holds other commits; name a new --out")
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
            done[workload] = {
                "parent": side(results["parent"], metrics),
                "change": side(results["change"], metrics),
                "pairs": pairs(results["parent"], results["change"], metrics),
            }
            out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
