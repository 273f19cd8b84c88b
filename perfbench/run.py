"""Closed-loop benchmark of the padic-lseries CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client, one thread: each request is one in-process
``padic_lseries.cli.run(argv)`` call with stdout and stderr captured, and
the next request starts when the previous one returns.  A pass replays the
seeded request list of the workload (workloads.py) in a fresh worker
process, so no state survives from one pass to the next; passes repeat
until S seconds have gone by, give or take half a pass.  Every pass
replays the same list, so the failure share of a run is that of one pass.

Times are reported at the reference speed of reference.py: the worker
runs a fixed kernel between every two requests, and a request's time is
scaled by the kernel's time around it, so that the host's changes of speed
cancel.  A request's latency is its median over the passes; set-up is
timed on every worker launch, ten of which stop once set up, and setup_s
is the median.

After the last pass, and outside every timed region, the reports of the
first pass are checked against independent references (verify.py) and the
reports of later passes are compared with them by digest.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
passes with passes that record spans through spans.py, and prints the
per-layer metrics of the first traced pass.  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  Details go to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
PACKAGE_INIT = os.path.join(SRC, "padic_lseries", "__init__.py")

WORKER_TIMEOUT_S = 170.0
MAX_ELAPSED_S = 120.0  # no new pass starts after this, whatever --seconds says
SETUP_LAUNCHES = 10  # set-up-only workers per untraced run, besides one per pass

sys.path.insert(0, HERE)
import reference  # noqa: E402
import workloads  # noqa: E402

END_TO_END = (
    ("requests_per_s", "1/s"),
    ("request_p50_ms", "ms"),
    ("request_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("error_rate", "share"),
)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", choices=("setup", "untraced", "traced"), help=argparse.SUPPRESS)
    parser.add_argument("--keep-text", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--result", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ---------------------------------------------------------------- worker


def _import_cli():
    sys.path.insert(0, SRC)
    from padic_lseries import cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"padic_lseries resolved to {cli.__file__}, not to {SRC}")
    return cli


def _worker(args) -> int:
    """One pass: set up, signal ready, replay the list, write the raw results."""
    cli = _import_cli()
    requests = workloads.generate(args.workload, args.seed)
    recorder = None
    if args.worker == "traced":
        import spans

        recorder = spans.install()
        request_span = recorder.name_id(spans.REQUEST_SPAN)
    print("ready", flush=True)
    # the host's speed right after set-up, which the client scales it by
    print(reference.kernel_median_ns(), flush=True)
    if args.worker == "setup":
        return 0

    run = cli.run
    codes, raised, latency, digests = [], [], [], []
    # the kernel runs before every request and after the last, outside the
    # requests' timed regions
    kernel = [reference.kernel_ns()]
    report_bytes = 0
    # the first pass streams its reports to disk for verification, so no
    # pass keeps them in memory
    texts = open(args.result + ".texts", "w", encoding="utf-8") if args.keep_text else None
    for index, argv in enumerate(requests):
        out, err = io.StringIO(), io.StringIO()
        exception = None
        if recorder is not None:
            recorder.begin_request(index)
            span = recorder.open(request_span)
        t0 = time.perf_counter_ns()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run(list(argv))
        # a request that raises out of run() fails and the pass goes on;
        # run() lets argparse's SystemExit through, so that counts as raising
        except (Exception, SystemExit) as exc:
            code, exception = None, repr(exc)
        latency.append(time.perf_counter_ns() - t0)
        if recorder is not None:
            recorder.close(span)
        kernel.append(reference.kernel_ns())
        text = out.getvalue()
        codes.append(code)
        raised.append(exception)
        digests.append(hashlib.sha256(text.encode()).hexdigest())
        report_bytes += len(text.encode())
        if texts is not None:
            texts.write(json.dumps({"stdout": text, "stderr": err.getvalue()}) + "\n")
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if texts is not None:
        texts.close()

    result = {
        "requests": requests,
        "latency_ns": latency,
        "kernel_ns": kernel,
        "rss_kb": rss_kb,
        "codes": codes,
        "raised": raised,
        "digests": digests,
        "report_bytes": report_bytes,
    }
    if recorder is not None:
        result["trace"] = recorder.summary()
        recorder.dump(os.path.join(OUT_DIR, f"spans-{args.workload}.json"))
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


# ---------------------------------------------------------------- client


def _launch(args, kind: str, extra: list[str]) -> float:
    """Start a worker, wait for it to end; returns its set-up time, launch to
    ready, at the reference speed."""
    cmd = [
        sys.executable, os.path.abspath(__file__), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--worker", kind,
    ] + extra
    env = dict(os.environ)
    env.pop("PADIC_LSERIES_OUTPUT", None)  # reports must reach the captured stdout
    launched = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        kernel = proc.stdout.readline()
        proc.stdout.read()
        code = proc.wait(timeout=WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"{kind} worker failed (exit {code})")
    return reference.scale(ready - launched, float(kernel))


def _run_pass(args, kind: str, keep_text: bool, index: int) -> dict:
    """One pass in a fresh worker; its raw results and set-up time."""
    result_path = os.path.join(OUT_DIR, f"pass-{args.workload}-{os.getpid()}-{index}.json")
    setup_s = _launch(args, kind, ["--result", result_path] + (["--keep-text"] if keep_text else []))
    with open(result_path, encoding="utf-8") as handle:
        result = json.load(handle)
    os.remove(result_path)
    if keep_text:
        with open(result_path + ".texts", encoding="utf-8") as handle:
            result["texts"] = [json.loads(line) for line in handle]
        os.remove(result_path + ".texts")
    # the wall time of the request list: the requests themselves, without
    # the client's capture and digest work between them
    result["pass_ns"] = sum(result["latency_ns"])
    result["kind"] = kind
    result["setup_s"] = setup_s
    return result


def _verify(first: dict, passes: list[dict]):
    """Per-request failure flags and the overall correctness of the run."""
    from verify import Verifier

    with open(os.path.join(HERE, "refs.json"), encoding="utf-8") as handle:
        verifier = Verifier(json.load(handle))
    failed, notes, correct = [], [], True
    for i, argv in enumerate(first["requests"]):
        if first["raised"][i] is not None:
            verdict_ok, exact_ok, note = False, False, f"raised {first['raised'][i]}"
        else:
            report = first["texts"][i]
            verdict = verifier.check(argv, first["codes"][i], report["stdout"])
            verdict_ok, exact_ok, note = verdict.claim_ok, verdict.exact_ok, verdict.note
            if first["codes"][i] != 0:
                note += ": " + report["stderr"].strip()[:200]
        repeats = all(p["digests"][i] == first["digests"][i] and p["codes"][i] == first["codes"][i] for p in passes)
        if not repeats:
            exact_ok, note = False, note + " (report bytes differ between passes)"
        failed.append(not (verdict_ok and exact_ok))
        correct = correct and exact_ok
        if note:
            notes.append({"request": i, "argv": argv, "note": note, "claim_ok": verdict_ok, "exact_ok": exact_ok})
    return failed, notes, correct


def _scaled_ns(result: dict) -> list[float]:
    """A pass's latencies at the reference speed, each scaled by the mean of
    the kernel runs just before and just after the request."""
    kernel = result["kernel_ns"]
    return [reference.scale(t, (kernel[i] + kernel[i + 1]) / 2) for i, t in enumerate(result["latency_ns"])]


def _request_ms(passes: list[dict]) -> list[float]:
    """Each request's latency: the median over the passes of its latency at
    the reference speed."""
    return [statistics.median(sample) / 1e6 for sample in zip(*(_scaled_ns(p) for p in passes))]


def _end_to_end(passes: list[dict], setups: list[float], n_failed: int) -> dict:
    latency_ms = _request_ms(passes)
    attempted = sum(len(p["latency_ns"]) for p in passes)
    return {
        "requests_per_s": len(latency_ms) / (sum(latency_ms) / 1e3),
        "request_p50_ms": statistics.median(latency_ms),
        "request_p90_ms": statistics.quantiles(latency_ms, n=10, method="inclusive")[8],
        "setup_s": statistics.median(setups + [p["setup_s"] for p in passes]),
        "peak_rss_mb": statistics.median(p["rss_kb"] for p in passes) / 1024.0,
        "error_rate": n_failed / attempted,
    }


def _per_layer(untraced: list[dict], traced: list[dict]) -> dict:
    import spans

    metrics = dict(traced[0]["trace"])
    metrics["cli.report_bytes"] = traced[0]["report_bytes"]
    requests = untraced[0]["requests"]
    untraced_ms = _request_ms(untraced)
    for sub in spans.SUBCOMMANDS:
        samples = [ms for argv, ms in zip(requests, untraced_ms) if argv[0] == sub]
        metrics[f"request.{sub}.p50_ms"] = statistics.median(samples) if samples else 0.0
    metrics["trace.overhead_share"] = 1.0 - sum(untraced_ms) / sum(_request_ms(traced))
    units = {name: unit for name, unit, _ in spans.per_layer_metrics()}
    return {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}


def main(argv=None) -> int:
    args = _parse_args(argv)
    # on SIGTERM unwind through the finally blocks that stop the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(PACKAGE_INIT):
        print(f"error: the package source {PACKAGE_INIT} is missing", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.worker:
        return _worker(args)

    kinds = ("untraced",) if args.trace == 0 else ("untraced", "traced")
    # set-up is timed on every launch; a worker that stops at "ready" adds
    # samples at a fraction of a pass's cost
    setups = [_launch(args, "setup", []) for _ in range(SETUP_LAUNCHES if args.trace == 0 else 0)]
    passes = []
    started = time.perf_counter()
    while True:
        kind = kinds[len(passes) % len(kinds)]
        passes.append(_run_pass(args, kind, keep_text=not passes, index=len(passes)))
        elapsed = time.perf_counter() - started
        # stop when one more pass would end past the target by more than
        # half a pass, so a run lasts --seconds give or take half a pass
        last = passes[-1]["pass_ns"] / 1e9
        if len(passes) >= len(kinds) and (elapsed + last / 2 >= args.seconds or elapsed >= MAX_ELAPSED_S):
            break

    first = passes[0]
    failed, notes, correct = _verify(first, passes)
    attempted = sum(len(p["latency_ns"]) for p in passes)
    n_failed = sum(failed) * len(passes)
    untraced = [p for p in passes if p["kind"] == "untraced"]
    if args.trace == 0:
        values = _end_to_end(passes, setups, n_failed)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    else:
        metrics = _per_layer(untraced, [p for p in passes if p["kind"] == "traced"])

    detail = {
        "workload": args.workload,
        "why": workloads.WHY[args.workload],
        "seed": args.seed,
        "trace": args.trace,
        "passes": [{"kind": p["kind"], "pass_s": p["pass_ns"] / 1e9, "setup_s": p["setup_s"]} for p in passes],
        "setup_only_s": setups,
        "requests": len(first["requests"]),
        "failed_per_pass": sum(failed),
        "digests": first["digests"],
        "latency_ms": [[ns / 1e6 for ns in p["latency_ns"]] for p in passes],
        "kernel_ms": [[ns / 1e6 for ns in p["kernel_ns"]] for p in passes],
        "misses": notes,
        "metrics": metrics,
    }
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w",
              encoding="utf-8") as handle:
        json.dump(detail, handle, indent=1)
    print(
        f"{args.workload} seed {args.seed}: {len(passes)} passes of {len(first['requests'])} requests, "
        f"{sum(failed)} failed per pass",
        file=sys.stderr,
    )
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": n_failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
