"""Determinism self-check: the same commit and seed must give the same run.

    python3 perfbench/selfcheck.py [--seed N] [--seconds S] [WORKLOAD ...]

For each workload it makes two traced runs and one untraced run with one
seed and checks that

* every request's report bytes are identical across the three runs
  (compared by SHA-256 digest), so tracing does not change a report;
* error_rate (failed / attempted) is identical;
* every count metric of the traced runs (*.calls, reps, cosets, coeffs,
  primes, terms, built) is identical.

Exits 0 when all hold and 1 otherwise, naming each difference.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import spans  # noqa: E402
import workloads  # noqa: E402


def _run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=os.path.dirname(HERE), timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(HERE, "out", f"{workload}-seed{seed}-trace{trace}.json"), encoding="utf-8") as handle:
        return result, json.load(handle)


def check(workload: str, seed: int, seconds: float) -> list[str]:
    runs = [_run(workload, seed, seconds, trace) for trace in (1, 1, 0)]
    problems = []
    digests = [detail["digests"] for _, detail in runs]
    for i, (a, b, c) in enumerate(zip(*digests)):
        if not a == b == c:
            problems.append(f"{workload}: request {i} report bytes differ between runs")
    rates = {result["failed"] / result["attempted"] for result, _ in runs}
    if len(rates) != 1:
        problems.append(f"{workload}: error_rate differs between runs: {sorted(rates)}")
    (first, _), (second, _) = runs[0], runs[1]
    for name, entry in first["metrics"].items():
        if spans.is_count(name) and entry["value"] != second["metrics"][name]["value"]:
            problems.append(
                f"{workload}: {name} differs: {entry['value']} vs {second['metrics'][name]['value']}"
            )
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("workloads", nargs="*", default=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=1.0)
    args = parser.parse_args(argv)
    problems = []
    for workload in args.workloads:
        found = check(workload, args.seed, args.seconds)
        print(f"{workload}: {'ok' if not found else f'{len(found)} differences'}", flush=True)
        problems += found
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
