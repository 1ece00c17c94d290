"""One benchmark workload, run in a fresh child process.

Usage (started by run.py with ``src`` on PYTHONPATH and BLAS pinned to one
thread):

    python3 bench/workload.py setup  --workload NAME --seed S
    python3 bench/workload.py golden
    python3 bench/workload.py run    --workload NAME --seed S --seconds T --trace 0|1

``setup`` imports effectkit.cli and writes the workload's inputs, nothing
else; run.py times it from outside.  ``golden`` prints the size and sha256
of the golden report.  ``run`` repeats whole passes over the workload's
requests for ``--seconds`` seconds, checks every output, and prints one
JSON object.  With ``--trace 1`` the first half of the time runs untraced
and the second half traced, so the tracing overhead is measured in the same
process.

Timing.  Every pass sends the same requests, one client, closed loop.  On a
shared host other tenants slow the CPU in bursts of milliseconds, so a
request's cost is taken as its fastest repeat in the run: interference only
ever adds time.  ``run_s`` is the sum of these over one pass, the latency
percentiles are taken over the requests of a pass, and ``req_per_s`` is
requests per pass over ``run_s``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import sys
import tempfile
import time

import effectkit.cli
import numpy as np

import checks
import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_DIR = os.path.join(ROOT, ".bench_work")
TRACE_DIR = os.path.join(ROOT, ".bench_traces")


def call(argv: list[str]) -> tuple[int, str]:
    """One request through the public entry point, output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = effectkit.cli.main(argv)
    return rc, out.getvalue()


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("openblas configuration") or f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
    }


def make_requests(workload: str, seed: int, directory: str) -> list[dict]:
    if workload == "cli-docs":
        return inputs.cli_requests(seed, directory)
    if workload in inputs.VERIFY:
        return inputs.verify_requests(workload, seed)
    raise SystemExit(f"unknown workload {workload!r}")


def operations(request: dict) -> int:
    """A verify request counts one operation per suite entry, others one."""
    return checks.expected_entry_count(request["argv"]) if request["kind"] == "verify" else 1


class Passes:
    """Repeated passes over the requests; outputs are compared to the first pass."""

    def __init__(self, requests: list[dict], first: list[tuple[int, str]] | None = None, recorder=None) -> None:
        self.requests = requests
        self.first = first
        self.recorder = recorder
        self.count = 0
        self.best = [float("inf")] * len(requests)
        self.differing = 0

    def until(self, deadline: float) -> None:
        """Run passes, at least one, until ``deadline`` on the perf_counter clock."""
        while True:
            if self.recorder is not None:
                self.recorder.run_id = self.count
            outputs = []
            for i, request in enumerate(self.requests):
                t0 = time.perf_counter()
                outputs.append(call(request["argv"]))
                self.best[i] = min(self.best[i], time.perf_counter() - t0)
            self.count += 1
            if self.first is None:
                self.first = outputs
            else:
                self.differing += sum(
                    operations(r) for r, a, b in zip(self.requests, self.first, outputs) if a != b
                )
            if time.perf_counter() >= deadline:
                return


def check_outputs(requests: list[dict], outputs: list[tuple[int, str]], known: list[dict]) -> tuple[list, list]:
    """Failed operations and unsatisfied known-defect entries of one pass."""
    failed, known_hits = [], []
    for request, (rc, text) in zip(requests, outputs):
        if request["kind"] == "verify":
            bad, hits = checks.check_verify(request["argv"], rc, text, known)
            failed += bad
            known_hits += hits
        else:
            why = checks.check_cli(request, rc, text)
            if why is not None:
                failed.append(f"{request['kind']} n={request['n']}: {why}")
    return failed, known_hits


def quantile(sorted_values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (the inclusive method)."""
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def measure(requests: list[dict], args, known: list[dict]) -> dict:
    start = time.perf_counter()
    plain = Passes(requests)
    plain.until(start + (args.seconds / 2 if args.trace else args.seconds))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    traced = None
    if args.trace:
        import tracer as tracing

        recorder = tracing.Tracer()
        traced = Passes(requests, first=plain.first, recorder=recorder)
        recorder.install()
        try:
            traced.until(start + args.seconds)
        finally:
            recorder.uninstall()

    runs = [plain] + ([traced] if traced else [])
    n_passes = sum(r.count for r in runs)
    per_pass = sum(operations(r) for r in requests)
    failed, known_hits = check_outputs(requests, plain.first, known)
    differing = sum(r.differing for r in runs)
    best_ms = sorted(t * 1000.0 for t in plain.best)
    run_s = sum(plain.best)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": plain.count,
        "traced_passes": traced.count if traced else 0,
        "requests_per_pass": len(requests),
        "latency_samples": len(best_ms),
        "operations_per_pass": per_pass,
        "attempted": per_pass * n_passes,
        "failed": len(failed) * n_passes + differing,
        "failed_names": failed[:20],
        "differing_between_passes": differing,
        "known_defects": known_hits,
        "metrics": {
            "run_s": run_s,
            "req_p50_ms": quantile(best_ms, 0.50),
            "req_p90_ms": quantile(best_ms, 0.90),
            "req_per_s": len(requests) / run_s,
            "peak_rss_mb": peak_rss_mb,
        },
    }
    if traced:
        os.makedirs(TRACE_DIR, exist_ok=True)
        recorder.save(os.path.join(TRACE_DIR, f"{args.workload}.npz"))
        layer = recorder.metrics(traced.count)
        layer["cli.report_bytes"] = sum(len(text.encode("utf-8")) for _, text in plain.first) / len(requests)
        layer["ops.fail_share"] = (len(failed) + len(known_hits)) / per_pass
        layer["ops.known_defects"] = len(known_hits)
        layer["trace.overhead_s"] = sum(traced.best) - run_s
        result["layer_metrics"] = layer
    return result


def cmd_setup(args) -> int:
    os.makedirs(WORK_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as directory:
        make_requests(args.workload, args.seed, directory)
    return 0


def cmd_golden(args) -> int:
    rc, text = call(list(inputs.GOLDEN_ARGV))
    data = text.encode("utf-8")
    print(json.dumps({"rc": rc, "bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}))
    return 0


def cmd_run(args) -> int:
    with open(os.path.join(HERE, "baseline.json"), "r", encoding="utf-8") as fh:
        known = json.load(fh)["known_defects"]["patterns"]
    os.makedirs(WORK_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as directory:
        result = measure(make_requests(args.workload, args.seed, directory), args, known)
    result["environment"] = environment()
    print(json.dumps(result))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one effectkit benchmark workload.")
    parser.add_argument("mode", choices=("setup", "golden", "run"))
    parser.add_argument("--workload", default="verify-small")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    return {"setup": cmd_setup, "golden": cmd_golden, "run": cmd_run}[args.mode](args)


if __name__ == "__main__":
    sys.exit(main())
