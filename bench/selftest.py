"""Fast self-test of the benchmark harness (about ten seconds).

    python3 bench/selftest.py

With tiny trial counts it checks that
- traced and untraced passes print byte-identical stdout (a traced pass is
  compared with the untraced first pass, as in every traced run), and every
  output passes its check;
- the tracer restores every attribute it patched, and sees a call made
  through a second module name (``autos.leq`` for ``effects.leq``);
- the metric names the harness prints are exactly those of BENCHMARK.json;
- the output checks reject a wrong answer and a wrong exit code.
Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import effectkit.autos  # noqa: E402
import effectkit.effects  # noqa: E402
import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
import workload  # noqa: E402

TINY_VERIFY = {
    "kind": "verify",
    "n": 2,
    "argv": ["verify", "--suite", "all", "--dims", "2", "--p=-1e6,0,0.5", "--trials", "2", "--seed", "5"],
}


def snapshot() -> dict:
    """Every attribute the tracer may patch."""
    out = {"numpy.linalg": dict(vars(np.linalg)), "VerificationReport": dict(vars(effectkit.autos.VerificationReport))}
    for name, module in sorted(sys.modules.items()):
        if name == "effectkit" or name.startswith("effectkit."):
            out[name] = dict(vars(module))
    return out


def main() -> int:
    problems = []
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    with open(os.path.join(HERE, "baseline.json"), "r", encoding="utf-8") as fh:
        known = json.load(fh)["known_defects"]["patterns"]
    os.makedirs(workload.WORK_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=workload.WORK_DIR) as directory:
        requests = [TINY_VERIFY] + workload.make_requests("cli-docs", 3, directory)
        before = snapshot()
        args = argparse.Namespace(workload="selftest", seed=3, seconds=0.01, trace=1)
        result = workload.measure(requests, args, known)
        if snapshot() != before:
            problems.append("tracer left patched attributes behind")
        if result["traced_passes"] < 1 or result["differing_between_passes"]:
            problems.append("traced output differs from untraced output")
        if result["failed"]:
            problems.append(f"output checks failed: {result['failed_names']}")

        printed = set(result["metrics"]) | {"setup_s"}
        if printed != {m["name"] for m in spec["end_to_end"]}:
            problems.append("end-to-end names differ from BENCHMARK.json")
        layer = result["layer_metrics"]
        declared = {m["name"] for m in spec["per_layer"]}
        if set(layer) != declared:
            problems.append(f"per-layer names differ from BENCHMARK.json: {sorted(set(layer) ^ declared)}")
        if layer["strength.psd_leq_per_bisect"] <= 0 or layer["suite.order.s"] <= 0:
            problems.append("ancestor or suite attribution found nothing")

        recorder = tracing.Tracer()
        recorder.install()
        try:
            effectkit.autos.leq(effectkit.effects.scalar_effect(2, 0.2), effectkit.effects.scalar_effect(2, 0.4))
        finally:
            recorder.uninstall()
        if recorder.metrics(1)["effects.leq.calls"] != 1:
            problems.append("a call through autos.leq was not traced")

        apply_request = next(r for r in requests if r["kind"] == "apply")
        rc, text = workload.call(apply_request["argv"])
        if checks.check_cli(apply_request, rc, text.replace("0.", "0.1", 1)) is None:
            problems.append("a wrong apply image was accepted")
        if checks.check_cli(apply_request, 2, "") is None:
            problems.append("a wrong exit code was accepted")

    for p in problems:
        print("FAIL:", p)
    print("selftest:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
