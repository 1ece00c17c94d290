"""Byte identity of reports: every record of the golden store, tests/goldens.json.

The records sweep p over the range the paper claims (effect validation
clamps and rebuilds at p = -1e6 and 0.999999; at p = -1e308 f_p divides by
zero at eigenvalue 1), reach n = 64, cross a trial-block boundary at n = 8
(32 trials a block), and run the black-box maps and a mutated closed form.
At --tol 1e3 the strength oracle passes: the bisection's slack widens the
gap to 2.1e-5, and the limit, 100 * eps_rank, widens to 1e-3.  A failure
shows the verdict diff; tests/goldens.py re-records the store.
bench/baseline.json keeps its own copy of the default record, which
bench/run.py, bench/selftest.py and bench/workload.py read.
"""

import json
from pathlib import Path

import pytest

import goldens

BASELINE = Path(__file__).resolve().parents[1] / "bench" / "baseline.json"
RECORDS = goldens.load()


@pytest.mark.parametrize("record", RECORDS, ids=[record["id"] for record in RECORDS])
def test_report_matches_its_golden(record):
    got, err = goldens.run(record)
    assert got == record, "\n".join(["verdict diff against tests/goldens.json:", *goldens.diff([record], [got])])
    assert err == ""


def test_default_record_is_the_benchmark_golden():
    golden = json.loads(BASELINE.read_text(encoding="utf-8"))["golden"]
    default = next(record for record in RECORDS if record["id"] == "default")
    assert {key: default[key] for key in golden} == golden, (
        "the store's default record differs from bench/baseline.json's golden, which bench/run.py gates on"
    )
