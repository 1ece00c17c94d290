"""The suite recorder against a reference written from its documented rule,
and the driver's refusal of a trial count that would run no trial.

The reference keeps the two kinds of check the recorder once took: an
analog check fails where its residual is above the limit (NaN passes) and
raises the worst violation to that residual; a boolean check fails where
its decision does not hold and counts 1.0 towards the worst violation.
Every check is taken in trial order and, within a trial, in the order
given; the first failure gives the counterexample, its inputs read entry
by entry.
"""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effectkit import autos, coexist, effects, fracfun, numkern, strength, suites
from effectkit.effects import make_effect
from effectkit.errors import DimensionError, DomainError
from effectkit.numkern import DEFAULT_TOL
from effectkit.suites import _block_cap, _SuiteState, _trial_blocks

LIMITS = [0.0, 1e-9, 0.5, 1e3]


def _rows(M):
    return [[[float(z.real), float(z.imag)] for z in row] for row in M]


class ReferenceRecorder:
    def __init__(self):
        self.failures = 0
        self.worst = 0.0
        self.counterexample = None

    def record(self, trials, checks):
        """``checks`` holds (name, kind, values, limit, inputs), kind
        "analog" with residuals or "boolean" with decisions."""
        for k in range(trials):
            for name, kind, values, limit, inputs in checks:
                if kind == "boolean":
                    ok, amount = bool(values[k]), 0.0 if values[k] else 1.0
                else:
                    amount = float(values[k])
                    ok = not amount > limit
                if not math.isnan(amount):
                    self.worst = max(self.worst, amount)
                if not ok:
                    self.failures += 1
                    if self.counterexample is None:
                        rows = {key: _rows(stack[k]) for key, stack in inputs.items()}
                        self.counterexample = {"check": name, "inputs": rows}


@st.composite
def _check(draw, trials, name):
    kind = draw(st.sampled_from(["analog", "boolean"]))
    limit = draw(st.sampled_from(LIMITS))
    if kind == "boolean":
        values = draw(st.lists(st.booleans(), min_size=trials, max_size=trials))
    else:
        picks = st.sampled_from(["zero", "below", "at", "above", "inf", "nan"])
        residual = {
            "zero": 0.0, "below": limit / 2, "at": limit, "above": 2 * limit + 1e-12,
            "inf": math.inf, "nan": math.nan,
        }
        values = [residual[pick] for pick in draw(st.lists(picks, min_size=trials, max_size=trials))]
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    keys = draw(st.sampled_from([(), ("A",), ("P", "Q")]))
    inputs = {key: rng.normal(size=(trials, 2, 2)) + 1j * rng.normal(size=(trials, 2, 2)) for key in keys}
    return name, kind, values, limit, inputs


def _as_data(check, form):
    """The check as the recorder takes it: a boolean check gives its
    failures as floats or as bools, against limit 0."""
    name, kind, values, limit, inputs = check
    if kind == "analog":
        return name, values, limit, inputs
    failed = np.logical_not(values)
    return name, failed.astype(float) if form else failed, 0.0, inputs


@st.composite
def _blocks(draw):
    blocks = []
    for call in range(draw(st.integers(1, 4))):
        trials = draw(st.integers(1, 6))
        checks = [draw(_check(trials, f"check-{call}-{j}")) for j in range(draw(st.integers(1, 3)))]
        blocks.append((trials, checks, draw(st.booleans())))
    return blocks


@settings(max_examples=200, deadline=None)
@given(_blocks())
def test_the_recorder_follows_the_reference_rule(blocks):
    state, reference = _SuiteState("suite", 0, 0), ReferenceRecorder()
    for trials, checks, form in blocks:
        state.record(*(_as_data(check, form) for check in checks))
        reference.record(trials, checks)
    assert state.failures == reference.failures
    assert state.worst.hex() == reference.worst.hex()
    assert state.counterexample == reference.counterexample



_PHI = autos.random_automorphism(2, 0.5, False, 1)
SUITES = {
    "verify_order": lambda trials: autos.verify_order(_PHI, trials, 1),
    "verify_zero_product": lambda trials: autos.verify_zero_product(_PHI, trials, 1),
    "verify_ortho": lambda trials: autos.verify_ortho(_PHI, trials, 1),
    "verify_sequential": lambda trials: autos.verify_sequential(_PHI, trials, 1),
    "verify_transition": lambda trials: autos.verify_transition(_PHI, trials, 1),
    "verify_scalar_pair": lambda trials: autos.verify_scalar_pair(_PHI, 0.3, trials, 1),
    "coexist": lambda trials: coexist._COEXIST.run([1], trials, [1], 2, DEFAULT_TOL),
    "strength-oracle": lambda trials: strength._STRENGTH_ORACLE.run([1], trials, [1], 2, DEFAULT_TOL),
    "pexider": lambda trials: fracfun._PEXIDER.run([1], trials, [1], 1, DEFAULT_TOL),
}


@pytest.mark.parametrize("trials", [0, -3, 2.5, True])
@pytest.mark.parametrize("suite", SUITES)
def test_a_suite_refuses_a_trial_count_that_is_not_a_positive_int(suite, trials):
    # Without trials a report would pass vacuously; 2.5 and True are not counts.
    with pytest.raises(DomainError, match="trials must be a positive integer"):
        SUITES[suite](trials)


def test_a_group_of_no_entries_runs_nothing_and_reports_nothing():
    # Controls are called once per group of at least one entry.
    from effectkit.cli import SUITES as ALL

    assert [suite.run([], 3, [], 2, DEFAULT_TOL) for suite in ALL] == [[]] * len(ALL)


_ATOM = make_effect(0.9 * np.diag([1.0, 0.0]))
# Each caller that takes a count, with the count it is called with, its
# error and the start of its message.
COUNT_CALLERS = {
    "Suite.run": (lambda k: autos.verify_order(_PHI, k, 1), 3, DomainError, "trials must be a positive integer"),
    "coexists_with_all_probe": (
        lambda k: coexist.coexists_with_all_probe(_ATOM, k, 5), 20, DomainError, "trials must be an integer of at least 2"
    ),
    "interior_grid": (fracfun.interior_grid, 4, DomainError, "grid must be a positive integer"),
    "_require_dim": (lambda k: numkern.random_effect(k, 3), 3, DimensionError, "dimension must be a positive integer"),
    "fit_p": (lambda k: autos.fit_p(_PHI, k), 25, DomainError, "grid must be an integer of at least 3"),
    "dim=": (lambda k: autos.verify_order(_PHI, 3, 1, dim=k), 2, DimensionError, "dimension must be a positive integer"),
}


@pytest.mark.parametrize("caller", COUNT_CALLERS)
def test_one_count_rule_takes_numpy_integers_and_refuses_bools(caller):
    call, count, error, message = COUNT_CALLERS[caller]
    expected, got = call(count), call(np.int64(count))
    if isinstance(expected, np.ndarray):
        assert got.tobytes() == expected.tobytes()
    else:
        assert got == expected
    if caller == "Suite.run":
        assert type(got.trials) is int  # a report holds a Python int
    for flag in (True, np.True_):
        with pytest.raises(error, match=message):
            call(flag)


# Each caller that takes a seed, called with it.
SEED_CALLERS = {
    "Suite.run": lambda seed: autos.verify_order(_PHI, 3, seed),
    "coexists_with_all_probe": lambda seed: coexist.coexists_with_all_probe(_ATOM, 20, seed),
    "_as_generator": lambda seed: effects.sample_effect(2, seed),
    "random_automorphism": lambda seed: autos.random_automorphism(2, 0.5, False, seed),
}


@pytest.mark.parametrize("seed", [True, np.True_, -1, 1.5, "1"], ids=["True", "np.True_", "-1", "1.5", "'1'"])
@pytest.mark.parametrize("caller", SEED_CALLERS)
def test_one_seed_rule_refuses_what_is_not_a_count_of_at_least_zero(caller, seed):
    # True would run as seed 1, and numpy would refuse -1 and 1.5 without naming them.
    SEED_CALLERS[caller](np.int64(0))
    with pytest.raises(DomainError, match=re.escape(f"seed must be a non-negative integer, got {seed!r}") + "$"):
        SEED_CALLERS[caller](seed)


def test_a_report_holds_a_numpy_integer_seed_as_a_python_int():
    # The stdlib json module cannot write a numpy integer.
    report = autos.verify_order(_PHI, 3, np.int64(1))
    assert type(report.seed) is int and json.dumps(report.to_dict()) == json.dumps(autos.verify_order(_PHI, 3, 1).to_dict())


def test_a_bad_seed_is_refused_before_any_map_call_or_share_thread(monkeypatch):
    # An n = 64 group of two entries runs on two share threads; the seeds are
    # checked before the controls, the blocks and the threads.
    calls = []
    monkeypatch.setattr(suites, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(suites.Suite, "_run_shares", lambda self, walks: calls.append("shares"))
    phi = autos.random_automorphism(64, 0.5, False, 1)
    seen = lambda A: calls.append("map") or phi(A)  # noqa: E731
    with pytest.raises(DomainError, match="got -1"):
        autos._ORDER.run([seen, seen], 2, [1, -1], 64, DEFAULT_TOL)
    assert calls == []


def test_trial_blocks_take_a_range_longer_than_sys_maxsize():
    # len() of such a range raises OverflowError; the count is read from
    # its start, stop and step, so a search's doubling blocks stay those of
    # a short range.
    block = next(_trial_blocks([1], range(0, 10**20), 2))
    assert len(block.rngs) == _block_cap(2)
    assert block.parts == [(0, slice(0, _block_cap(2)))]
    short, long = (_trial_blocks([1], range(1, stop, 2), 2, first=1) for stop in (200, 10**20))
    for _ in range(4):
        a, b = next(short), next(long)
        assert a.parts == b.parts
        assert [r.bit_generator.state for r in a.rngs] == [r.bit_generator.state for r in b.rngs]
