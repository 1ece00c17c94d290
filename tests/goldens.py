"""The golden store, tests/goldens.json: every byte pin of a report, one record each.

A record runs an ``argv`` through ``cli.main`` or a ``call`` of CALLS.
It holds the exit code (argv) or failure count (call), the report's
``bytes`` and ``sha256``, its ``overall`` (null for a call) and one
verdict row per report entry: suite label, failures, satisfied (null for
a call), worst violation and the counterexample's check.
tests/test_golden.py runs every record.  ``PYTHONPATH=src python3
tests/goldens.py`` runs them all again, rewrites the store and prints the
verdict diff.
"""

import contextlib
import functools
import hashlib
import io
import json
import warnings
from pathlib import Path

import numpy as np

from effectkit import strength
from effectkit.autos import verify_order, verify_scalar_pair, verify_zero_product
from effectkit.cli import dump_json, main
from effectkit.effects import make_effect, make_ray, orthocomplement
from effectkit.numkern import DEFAULT_TOL

STORE = Path(__file__).with_name("goldens.json")


def _shrink(A):
    return make_effect(0.5 * A.matrix + 0.25 * np.eye(A.dim))


def _smear(A):
    P = make_ray(np.array([1.0, 0.0, 0.0])).projection
    return make_effect(0.5 * A.matrix + 0.25 * P.matrix)


@contextlib.contextmanager
def mutated_closed():
    """The closed-form strength off by 1e-5 relative, which both checks of
    the strength-oracle suite catch at the default tolerances."""
    real = strength._closed

    def off(*args):
        value, in_range, near = real(*args)
        return value * (1.0 + 1e-5), in_range, near

    strength._closed = off
    try:
        yield
    finally:
        strength._closed = real


def _mutated_oracle(n):
    with mutated_closed():
        return strength._STRENGTH_ORACLE.run([7], 70, [7], n, DEFAULT_TOL)[0]


# The black-box controls, and the strength-oracle suite (seed 7, 70 trials) under the mutated closed form.
CALLS = {
    "orthocomplement": lambda: verify_order(orthocomplement, 30, 63, dim=3),
    "shrink": lambda: verify_zero_product(_shrink, 30, 65, dim=3),
    "smear": lambda: verify_scalar_pair(_smear, 0.3, 10, 67, dim=3),
    **{f"mutated-oracle-n{n}": functools.partial(_mutated_oracle, n) for n in (2, 3, 8)},
}


def load() -> list[dict]:
    return json.loads(STORE.read_text(encoding="utf-8"))


def run(record: dict) -> tuple[dict, str]:
    """The record as this tree makes it, with warnings as errors, and what the run wrote to stderr."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        if "argv" in record:
            head = {"argv": record["argv"], "exit": main(list(record["argv"]))}
            text = out.getvalue()
            doc = json.loads(text)
            entries, overall = doc["suites"], doc["overall"]
        else:
            report = CALLS[record["call"]]().to_dict()
            head, text = {"call": record["call"], "failures": report["failures"]}, dump_json(report)
            entries, overall = [report], None
    data = text.encode("utf-8")
    rows = [
        [e["suite"], e["failures"], e.get("satisfied"), e["worst_violation"], (e["counterexample"] or {}).get("check")]
        for e in entries
    ]
    got = {"id": record["id"], **head, "bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}
    return {**got, "overall": overall, "verdicts": rows}, err.getvalue()


def dump(records: list[dict]) -> str:
    """The store's text: each record's fields on one line, then one line per verdict row."""
    parts = []
    for r in records:
        head = json.dumps({key: value for key, value in r.items() if key != "verdicts"})
        rows = ",\n".join(json.dumps(row) for row in r["verdicts"])
        parts.append(f'{head[:-1]}, "verdicts": [\n{rows}\n]}}')
    return "[\n" + ",\n".join(parts) + "\n]\n"


def diff(old: list[dict], new: list[dict]) -> list[str]:
    """The verdict diff from old to new records, matched by id: the records
    whose bytes changed, the entries whose failures or satisfied changed,
    and the largest |change| of worst_violation per suite name."""
    before, lines, moved = {r["id"]: r for r in old}, [], {}
    for r in new:
        was = before[r["id"]]
        if (was["bytes"], was["sha256"]) != (r["bytes"], r["sha256"]):
            lines.append(f"bytes {r['id']}: {was['bytes']} -> {r['bytes']}")
        rows = {row[0]: row for row in was["verdicts"]}
        for label, failures, satisfied, worst, _ in r["verdicts"]:
            _, old_failures, old_satisfied, old_worst, _ = rows.get(label, (label, None, None, worst, None))
            if (old_failures, old_satisfied) != (failures, satisfied):
                change = f"failures {old_failures} -> {failures}, satisfied {old_satisfied} -> {satisfied}"
                lines.append(f"verdict {r['id']} {label}: {change}")
            name = label.split("[")[0]
            moved[name] = max(moved.get(name, 0.0), abs(worst - old_worst))
    return lines + [f"worst_violation {name}: max |change| {delta:.3g}" for name, delta in moved.items() if delta > 0]


if __name__ == "__main__":
    old = load()
    runs = [run(record) for record in old]
    STORE.write_text(dump([got for got, _ in runs]), encoding="utf-8")
    for line in [f"stderr {got['id']}: {err.strip()}" for got, err in runs if err] + diff(old, [got for got, _ in runs]):
        print(line)
