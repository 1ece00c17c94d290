"""effectkit benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload verify-small --seed 7 --seconds 30 --trace 0

Run from anywhere inside a checkout that holds ``src/effectkit``; nothing
needs installing.  Steps:

1. Golden gate (untimed, fresh process): the fixed report of
   ``bench/baseline.json`` must match in size and sha256, or the benchmark
   exits 1 without a result.
2. Set-up (``--trace 0`` only): several fresh interpreters each import
   effectkit.cli and write the workload's inputs; ``setup_s`` is the median
   wall time.
3. The workload in a fresh child process with BLAS pinned to one thread
   (see workload.py), between the first and the second half of the set-up
   repeats.  ``--trace 0`` prints the end-to-end metrics of
   BENCHMARK.json, ``--trace 1`` the per-layer ones.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it carries the details: environment, sample counts, the
names of failed operations and of known-defect entries.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 9
DEADLINE_S = 170.0  # the whole run, children included, ends within this
SETUP_RESERVE_S = 20.0  # kept for the set-up repeats after the workload


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def child(mode: str, *extra: str, timeout: float) -> str:
    """Run workload.py in a fresh interpreter and return its stdout."""
    cmd = [sys.executable, os.path.join(HERE, "workload.py"), mode, *extra]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc.stdout


def golden_gate(expected: dict) -> str | None:
    got = json.loads(child("golden", timeout=60.0).strip().splitlines()[-1])
    if got["bytes"] != expected["bytes"] or got["sha256"] != expected["sha256"]:
        return f"golden report is {got['bytes']} bytes, sha256 {got['sha256']}; expected {expected['bytes']}, {expected['sha256']}"
    return None


def setup_seconds(workload: str, seed: int, repeats: int) -> list[float]:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        child("setup", "--workload", workload, "--seed", str(seed), timeout=60.0)
        times.append(time.perf_counter() - t0)
    return times


def main() -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description="Run one effectkit benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "effectkit", "cli.py")):
        sys.stderr.write(f"error: no effectkit sources under {os.path.join(ROOT, 'src')}\n")
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    with open(os.path.join(HERE, "baseline.json"), "r", encoding="utf-8") as fh:
        baseline = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        sys.stderr.write(f"error: unknown workload {args.workload!r}\n")
        return 2

    mismatch = golden_gate(baseline["golden"])
    if mismatch is not None:
        sys.stderr.write(f"golden gate failed: {mismatch}\n")
        return 1

    # Set-up is timed half before and half after the workload, so that its
    # median spans the run rather than one moment of the host's load.
    setup = [] if args.trace else setup_seconds(args.workload, args.seed, SETUP_REPEATS // 2)
    timeout = max(1.0, DEADLINE_S - SETUP_RESERVE_S - (time.perf_counter() - started))
    out = json.loads(
        child(
            "run",
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            timeout=timeout,
        ).strip().splitlines()[-1]
    )

    if args.trace:
        wanted, values = spec["per_layer"], out.pop("layer_metrics")
    else:
        setup += setup_seconds(args.workload, args.seed, SETUP_REPEATS - len(setup))
        wanted, values = spec["end_to_end"], dict(out["metrics"], setup_s=statistics.median(setup))
        out["setup_samples_s"] = setup
    out.pop("metrics")
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in wanted}
    print(json.dumps({"details": out}))
    print(json.dumps({
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
