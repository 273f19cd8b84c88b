"""Compare the CLI's output bytes between a parent commit and the working tree.

    python3 tools/report_diff.py --parent REV

Replays the same requests on both sides through ``padic_lseries.cli.run``:
every request of ``perfbench/workloads.generate(w, s)`` for the three
workloads and seeds 1 and 2, then ``selftest``, the ``padic-lseries``
examples in README.md, the heavy requests of ``HEAVY``: large-p gamma
and kernel checks and Euler products at the prime cap, which the
workloads never draw, the slow baseline invocations of ROADMAP.md,
gamma and a kernel check at the first prime past ``COSET_CAP``, a
modular series at its default length, a kernel whose gamma denominator
passes the float range, two reports whose remainder bound is infinite, a
character trace at the truncation cap, the two lseries requests with a
setting their method does not read and a --character its kind does not
read, the ``--format tsv`` requests of ``TSV``, which the workloads never
ask for, and the argv forms of ``FALLBACK``, which argparse parses in
place of the CLI's fast path, -h of the top level and of each subcommand
among them.
Each side runs in one fresh process with its own ``src/``.  The parent is
the committed tree of REV, exported with ``git archive`` as
``tools/bench_pair.py`` does; the change is this repository's working tree.
The request lists are built once, from the working tree's
``perfbench/workloads.py`` and README.md.

For each request stdout, stderr and the exit code are compared.  The argv
of every request that differs is printed; where stdout differs and parses
as JSON on both sides, the dotted paths of the report fields that differ
follow it, such as ``value[0]`` or ``checks[13].residual``.  A tally of the
differing paths over all requests closes the output.  The exit status is 1
if any request differs, else 0.  Nothing under ``perfbench/`` is changed.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import re
import subprocess
import sys
import tempfile

from bench_pair import ROOT, _export

SEEDS = (1, 2)

HEAVY = (
    "gamma --p 99991 --k 1 --chi 0 --s 2",
    "lseries --kind modular --s 8 --prime-bound 100000",
    # Euler products the workloads never draw: zeta's float and complex
    # chains at the prime cap, chi = 0 factors in the float chain, and a
    # small bound asked after the cap in the same process
    "lseries --kind zeta --s 2 --prime-bound 10000000",
    "lseries --kind zeta --s 2+3i --prime-bound 10000000",
    "lseries --kind dirichlet --character 12:0 --s 3 --prime-bound 5000",
    "lseries --kind dirichlet --character 4:1 --s 2 --prime-bound 100",
    "lseries --kind dirichlet --character 4:1 --s 1 --method series",
    "gamma --p 9973 --k 5 --chi 1 --s 2+1i",
    "eigencheck --kind plain --p 307 --alpha 1",
    # Hecke-root powers T^(-t) pass the float range from t = 24 at p = 251
    "eigencheck --kind modular_a1 --p 251 --alpha 1 --radius 40 --points 1 --max-ket 0",
    # p = 1000003 is the first prime past COSET_CAP: gamma's outer circle
    # and the kernel's support shell are refused at once, and a divergent s
    # fails its convergence check before the cap is reached
    "gamma --p 1000003 --k 1 --chi 0 --s 2",
    "gamma --p 1000003 --k 1 --chi 0 --s=-1",
    "eigencheck --kind plain --p 1000003 --alpha 1 --points 1 --max-ket 0",
    # the modular series at its default table length, which the config echoes
    "lseries --kind modular --s 8 --method series",
    # T p^150 passes the float range in Gamma(-alpha)'s denominator
    "eigencheck --kind modular_a2 --p 101 --alpha 150 --radius 5 --points 1 --max-ket 0",
    # |Im s| = 1e17 makes the certified rounding radius infinite: a report
    # with no strict-JSON form
    "gamma --p 2 --k 1 --chi 0 --s 0.5+1e17i",
    "lseries --kind zeta --s 2+1e17i --method series --series-length 100",
    # a character trace at the truncation cap, a million terms of one chain
    "local-factor --kind dirichlet --p 3 --s 0.5+14.1i --character 7:1 --truncation 1000000",
    # a setting the method does not read: exit 1 here, and 0 at a parent
    # that took both
    "lseries --kind zeta --s 2 --series-length 300",
    "lseries --kind zeta --s 2 --method series --prime-bound 5",
    # a --character the kind does not read, malformed here: exit 1, and 0 at
    # a parent that ignored it
    "local-factor --kind zeta --p 3 --s 2 --character garbage",
)

# one report of each shape: sample-point strings, complex pairs, a quoted
# integer past 2^53 (tau(997)), nested check lists
TSV = (
    "eigencheck --kind plain --p 17 --alpha 1 --format tsv",
    "gamma --p 7 --k 5 --chi 1 --s 2+1i --format tsv",
    "factorize --p 997 --format tsv",
    "selftest --format tsv",
)

# an abbreviation, a negative value, a repeated or unknown flag, -h, a bad
# choice or int and a missing required flag: argparse's bytes on both sides;
# -h of the top level and of every subcommand
FALLBACK = (
    "local-factor --kind zeta --p 3 --s 2 --tol 0.1",
    "local-factor --kind zeta --p 3 --s -1",
    "factorize --p 5 --p 7",
    "tau --max 10 --bogus 1",
    "-h",
    "gamma -h",
    "eigencheck -h",
    "local-factor -h",
    "lseries -h",
    "tau -h",
    "factorize -h",
    "hecke-trace -h",
    "selftest -h",
    "local-factor --kind bogus --p 3 --s 2",
    "factorize --p 7.5",
    "local-factor --kind zeta --p 3",
)

# Run in each side's process: argv lists arrive as JSON on stdin, one
# [exit code, stdout, stderr] triple per request leaves on stdout.  A
# request that raises out of run() records the exception's repr as its
# exit code, as perfbench/run.py counts it as raising.
_REPLAY = """
import contextlib, io, json, os, sys
sys.path.insert(0, os.path.join(sys.argv[1], "src"))
from padic_lseries import cli
if not os.path.abspath(cli.__file__).startswith(os.path.abspath(sys.argv[1]) + os.sep):
    raise ImportError(f"padic_lseries resolved to {cli.__file__}, not to {sys.argv[1]}")
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(list(argv))
    except (Exception, SystemExit) as exc:
        code = repr(exc)
    results.append([code, out.getvalue(), err.getvalue()])
sys.__stdout__.write(json.dumps(results))
"""


def _requests() -> list[list[str]]:
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import workloads

    requests = []
    for workload in workloads.WHY:
        for seed in SEEDS:
            requests += workloads.generate(workload, seed)
    requests.append(["selftest"])
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as handle:
        readme = handle.read()
    requests += [line.split()[1:] for line in re.findall(r"^padic-lseries .*$", readme, re.M)]
    requests += [line.split() for line in HEAVY + TSV + FALLBACK]
    return requests


def _replay(checkout: str, requests: list[list[str]]) -> list[list]:
    env = dict(os.environ)
    env.pop("PADIC_LSERIES_OUTPUT", None)  # reports must reach the captured stdout
    done = subprocess.run(
        [sys.executable, "-c", _REPLAY, checkout],
        input=json.dumps(requests),
        capture_output=True,
        text=True,
        check=True,
        cwd=checkout,
        env=env,
    )
    return json.loads(done.stdout)


def _field_paths(before, after, path: str = ""):
    """The dotted paths of the leaves where two parsed JSON values differ."""
    if isinstance(before, dict) and isinstance(after, dict):
        for key in sorted(before.keys() | after.keys()):
            sub = f"{path}.{key}" if path else key
            if key in before and key in after:
                yield from _field_paths(before[key], after[key], sub)
            else:
                yield sub
    elif isinstance(before, list) and isinstance(after, list) and len(before) == len(after):
        for i, (a, b) in enumerate(zip(before, after)):
            yield from _field_paths(a, b, f"{path}[{i}]")
    elif type(before) is not type(after) or before != after:
        yield path or "(whole report)"


def _report_paths(before: str, after: str) -> list[str]:
    """Field paths that differ between two stdout texts, if both are JSON reports."""
    try:
        paths = list(_field_paths(json.loads(before), json.loads(after)))
    except json.JSONDecodeError:
        return ["(stdout is not JSON)"]
    return paths or ["(formatting only)"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
    args = parser.parse_args(argv)

    requests = _requests()
    with tempfile.TemporaryDirectory() as tmp:
        parent_checkout = os.path.join(tmp, "parent")
        _export(args.parent, parent_checkout)
        parent = _replay(parent_checkout, requests)
    change = _replay(ROOT, requests)

    differences = 0
    tally = collections.Counter()
    for argv, before, after in zip(requests, parent, change):
        if before != after:
            differences += 1
            parts = [name for name, a, b in zip(("exit code", "stdout", "stderr"), before, after) if a != b]
            print(f"differs ({', '.join(parts)}): {' '.join(argv)}")
            if "stdout" in parts:
                paths = _report_paths(before[1], after[1])
                tally.update(paths)
                print(f"    fields: {', '.join(paths)}")
    for path, count in sorted(tally.items()):
        print(f"field {path} differs in {count} requests")
    print(f"{len(requests)} requests, {differences} differ")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
