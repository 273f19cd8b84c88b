"""Paired benchmark runs of a parent commit and the working tree.

    python3 tools/bench_pair.py --parent REV --workload NAME --seed N --pairs K \
        --layer LAYER --out BENCH_<n>.json [--traced-pairs T]

Runs the repository's benchmark (the command in BENCHMARK.json, that is
``perfbench/run.py``) K times on each side with ``--trace 0`` and the
benchmark's own ``run_seconds``, alternating which side goes first: pair 0
runs the parent first, pair 1 the change, and so on.  The parent is the
committed tree of REV, exported with ``git archive`` into a temporary
directory; the change is this repository's working tree.  Both sides run
their own copy of ``perfbench/``, unchanged.  Each side records the git tree
hash of the ``src/`` it ran: ``REV:src`` for the parent, and for the change
the working tree's ``src/`` staged into a temporary index, so uncommitted
edits get their own hash.

The result is merged into the --out file under the key "WORKLOAD/seed", so
one file collects every workload and seed.  Per metric and side it records
each run's value, the median and the quartiles, and how many pairs the
change won (ties count for neither side); ``better`` and ``bound`` come
from BENCHMARK.json.  Per side it also records each run's ``failed`` and
``attempted`` counts and the pooled share failed / attempted over all runs.
A run counts failures per pass times its passes, so the pooled share
weights each run by how many passes it made.

With --traced-pairs T (default 0, none), T more pairs of ``--trace 1`` runs
follow, alternating in the same way, and each per-layer metric of
BENCHMARK.json is recorded under "layers" with the same per-side runs,
median, quartiles and ``change_wins``.  One traced run is too noisy to
resolve a per-layer change of a few tens of percent; the quartiles of
several show whether the change is larger than the spread.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _git(*args: str, env: dict | None = None) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True, env=env
    ).stdout.strip()


def _worktree_tree(path: str) -> str:
    """The tree hash of the working tree's ``path`` as ``git add -A`` would stage it.

    Staged into a temporary index, so the repository's own index is untouched.
    """
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, GIT_INDEX_FILE=os.path.join(tmp, "index"))
        _git("add", "-A", "--", path, env=env)
        return _git("write-tree", f"--prefix={path}/", env=env)


def _export(rev: str, checkout: str) -> None:
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=ROOT, check=True, capture_output=True
    ).stdout
    os.makedirs(checkout)
    subprocess.run(["tar", "-x", "-C", checkout], input=archive, check=True)


def _run(checkout: str, command: list, workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if argv[0] in ("python", "python3"):
        argv[0] = sys.executable
    done = subprocess.run(argv, cwd=checkout, check=True, capture_output=True, text=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def _summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def _wins(parent: list, change: list, better: str) -> int:
    sign = 1 if better == "higher" else -1
    return sum(1 for a, b in zip(parent, change) if sign * (b - a) > 0)


def _compare(specs: list, runs: dict) -> dict:
    """Per metric of BENCHMARK.json: both sides' runs, medians, quartiles and the change's wins."""
    report = {}
    for spec in specs:
        name = spec["name"]
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in runs}
        report[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "bound": spec.get("bound"),
            "parent": _summary(values["parent"]),
            "change": _summary(values["change"]),
            "change_wins": _wins(values["parent"], values["change"], spec["better"]),
        }
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--layer", required=True, help="the layer the change moved, e.g. modular")
    parser.add_argument("--out", required=True, help="BENCH_<n>.json to create or extend")
    parser.add_argument("--traced-pairs", type=int, default=0, help="pairs of --trace 1 runs for per-layer metrics")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 for quartiles")
    if args.traced_pairs == 1 or args.traced_pairs < 0:
        parser.error("--traced-pairs must be 0 or at least 2 for quartiles")

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    parent_commit = _git("rev-parse", args.parent)
    sides = {
        "parent": {"commit": parent_commit, "src_tree": _git("rev-parse", f"{parent_commit}:src")},
        "change": {
            "commit": _git("rev-parse", "HEAD"),
            "src_tree": _worktree_tree("src"),
            "src_uncommitted_changes": bool(_git("status", "--porcelain", "--", "src")),
        },
    }
    out = {"runs": {}}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as handle:
            out = json.load(handle)
        if {side: out.get(side) for side in sides} != sides:
            parser.error(f"{args.out} records other commits; write a new file")

    runs = {"parent": [], "change": []}
    traced = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory() as tmp:
        checkouts = {"parent": os.path.join(tmp, "parent"), "change": ROOT}
        _export(parent_commit, checkouts["parent"])
        for trace, pairs, results in ((0, args.pairs, runs), (1, args.traced_pairs, traced)):
            for i in range(pairs):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    result = _run(checkouts[side], bench["command"], args.workload, args.seed, bench["run_seconds"], trace)
                    results[side].append(result)
                    values = {name: m["value"] for name, m in result["metrics"].items()}
                    print(f"trace {trace} pair {i} {side}: " + json.dumps(values, sort_keys=True), file=sys.stderr)

    report = _compare(bench["end_to_end"], runs)
    failures = {}
    for side, results in runs.items():
        failed = [r["failed"] for r in results]
        attempted = [r["attempted"] for r in results]
        failures[side] = {"failed": failed, "attempted": attempted, "pooled_share": sum(failed) / sum(attempted)}
    entry = {
        "workload": args.workload,
        "seed": args.seed,
        "pairs": args.pairs,
        "run_seconds": bench["run_seconds"],
        "metrics": report,
        "failures": failures,
    }
    if args.traced_pairs:
        entry["traced_pairs"] = args.traced_pairs
        entry["layers"] = _compare(bench["per_layer"], traced)
    out.update(
        sides,
        layer=args.layer,
        python=platform.python_version(),
        nproc=len(os.sched_getaffinity(0)),
        machine=platform.machine(),
    )
    out["runs"][f"{args.workload}/{args.seed}"] = entry
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(out, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
