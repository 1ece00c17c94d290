"""Byte identity of verify reports.

The golden verify report's size and sha256 are recorded in
bench/baseline.json, which is only read here.  The wider cases below sweep
p over the whole range the paper claims (the clamp-and-rebuild branch of
effect validation is reached at p = -1e6 and p = 0.999999), reach n = 64,
and run the negative controls (black-box maps, a mutated closed form);
their exit codes, failure counts, sizes and hashes are recorded in this
file.  Any change that alters a bit of these outputs fails here, before it
reaches the benchmark's own golden gate.
"""

import hashlib
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from effectkit import strength
from effectkit.autos import verify_order, verify_scalar_pair, verify_zero_product
from effectkit.cli import dump_json, main
from effectkit.effects import make_effect, make_ray, orthocomplement
from effectkit.numkern import DEFAULT_TOL

BASELINE = Path(__file__).resolve().parents[1] / "bench" / "baseline.json"


def _run(capsys, argv):
    code = main(list(argv))
    return code, capsys.readouterr().out.encode("utf-8")


def test_golden_report_unchanged(capsys):
    golden = json.loads(BASELINE.read_text(encoding="utf-8"))["golden"]
    code, report = _run(capsys, golden["argv"])
    assert code == 0
    assert len(report) == golden["bytes"]
    assert hashlib.sha256(report).hexdigest() == golden["sha256"]


WIDE_REPORTS = [
    (
        ["verify", "--suite", "all", "--dims", "2,3,8", "--p=-1e6,0,1e-8,0.5,0.999999",
         "--trials", "10", "--seed", "1"],
        1,
        259637,
        "c3fa12b68a3438af3d293e7db10e631fe88bc861caa8781129b5dae3c68cee33",
    ),
    (
        ["verify", "--suite", "all", "--dims", "64", "--p", "0,0.5", "--trials", "2", "--seed", "1"],
        0,
        1739144,
        "b02b9fddde0fd911ce7f886f82e646d36e7d6a629b6a4f3c2f624ab7e858d78f",
    ),
]


# One report per suite that does not sweep p, crossing a trial-block
# boundary at n = 8 (32 trials a block).  The last one passes: at --tol 1e3
# the bisection's slack widens the oracle gap to 2.1e-5, and the limit,
# 100 * eps_rank, widens with it to 1e-3.
SUITE_REPORTS = [
    (
        ["verify", "--suite", "coexist", "--dims", "2,3,8", "--trials", "70", "--seed", "7"],
        0,
        750,
        "3d54867b81eff82b2e3d2ada1665264dc633daa842ca804e2a1f4e8a7aacb094",
    ),
    (
        ["verify", "--suite", "strength-oracle", "--dims", "1,2,3,8", "--trials", "70", "--seed", "7"],
        0,
        1089,
        "15cfc92c3e6226de11f873e91cfd90eaa3ffe5cc0c531ea9a76ab6ebcaccc135",
    ),
    (
        ["verify", "--suite", "pexider", "--trials", "70", "--seed", "7"],
        0,
        321,
        "0a6ca933533cbf1fbdb9dc38563d98bcd1659a39b8c221ca848d5d327d09e960",
    ),
    (
        ["verify", "--suite", "strength-oracle", "--dims", "2,3,8", "--trials", "70", "--seed", "7",
         "--tol", "1e3"],
        0,
        837,
        "4920690b92cddc46cb2f09adbc61b268ffd1368284275c5b198a764077b28dcd",
    ),
]


@pytest.mark.parametrize(
    "argv,exit_code,size,digest",
    WIDE_REPORTS + SUITE_REPORTS,
    ids=["p-sweep-n8", "n64", "coexist", "strength-oracle", "pexider", "strength-oracle-tol-1e3"],
)
def test_wide_reports_unchanged(capsys, argv, exit_code, size, digest):
    code, report = _run(capsys, argv)
    assert code == exit_code
    assert len(report) == size
    assert hashlib.sha256(report).hexdigest() == digest


def test_p_far_below_minus_two_to_the_53_reports_without_a_warning(capsys):
    # At p = -1e308 the denominator of f_p rounds to zero at eigenvalue 1;
    # the report is the one the division by zero gave, and stderr stays empty.
    argv = ["verify", "--suite", "all", "--dims", "2,3", "--p=-1e308,-3.7,0.3", "--trials", "10", "--seed", "4"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    out, err = capsys.readouterr()
    assert (code, err) == (1, "")
    assert len(out.encode("utf-8")) == 55688
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "2ac11a7e65d41ff12dd4af40e63147e6b34a1dcf6612d1f547988d84f4ef360b"
    )


def _shrink(A):
    return make_effect(0.5 * A.matrix + 0.25 * np.eye(A.dim))


def _smear(A):
    P = make_ray(np.array([1.0, 0.0, 0.0])).projection
    return make_effect(0.5 * A.matrix + 0.25 * P.matrix)


NEGATIVE_CONTROLS = [
    (lambda: verify_order(orthocomplement, 30, 63, dim=3), 34, 1879,
     "41e9f0604283f030c51bc4f3d5c0a19ee613000ab5921dd4121941bab4c5d243"),
    (lambda: verify_zero_product(_shrink, 30, 65, dim=3), 30, 1893,
     "26c4fb8bfa3cd36c78b73de2fa190e13a28b740d4071882bd8d77153baaa9ca2"),
    (lambda: verify_scalar_pair(_smear, 0.3, 10, 67, dim=3), 11, 798,
     "b76b51d33a7f7668653c4a514aae73b30fa3e689df6c4325abf3abfec461a086"),
]


@pytest.mark.parametrize(
    "run,failures,size,digest", NEGATIVE_CONTROLS, ids=["orthocomplement", "shrink", "smear"]
)
def test_black_box_reports_unchanged(run, failures, size, digest):
    report = run()
    text = dump_json(report.to_dict()).encode("utf-8")
    assert report.failures == failures
    assert len(text) == size
    assert hashlib.sha256(text).hexdigest() == digest


# The strength-oracle suite at the default tolerances, seed 7, 70 trials,
# with the closed form off by 1e-5 relative: both of its checks catch it.
MUTATED_ORACLE = [
    (2, 128, 596, "9a91aa93df7fb6115effa51cd64492c8108fcc93885f32a4316669576b4a853e"),
    (3, 126, 1056, "38248d67e162b37e86a46843310a9b9f4fbdf5761ff76abea4cc1159fce70f69"),
    (8, 128, 6147, "8c248ea792fb09c59cfc210bd7bb368e820a106023abe3676e063df4391b9c38"),
]


@pytest.mark.parametrize("n,failures,size,digest", MUTATED_ORACLE, ids=["n2", "n3", "n8"])
def test_mutated_closed_form_fails_the_oracle_suite(monkeypatch, n, failures, size, digest):
    real = strength._closed

    def off(*args):
        value, in_range, near = real(*args)
        return value * (1.0 + 1e-5), in_range, near

    monkeypatch.setattr(strength, "_closed", off)
    report = strength._STRENGTH_ORACLE.run([7], 70, [7], n, DEFAULT_TOL)[0]
    text = dump_json(report.to_dict()).encode("utf-8")
    assert report.failures == failures
    assert len(text) == size
    assert hashlib.sha256(text).hexdigest() == digest
