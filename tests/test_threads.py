"""The threaded path of ``Suite.run``: from ``suites._THREAD_DIM`` up, a
group is cut into shares of consecutive entries, and each share runs the
block loop, the first on the caller's thread and each later one on a
worker thread.  Reports, exit codes and errors equal the serial loop's, a
caller's map runs on the caller's thread, and a failing entry or an
interrupt stops the later shares, or every share, at their next block."""

import signal
import sys
import threading
import time

import numpy as np
import pytest

from effectkit import suites
from effectkit.autos import random_automorphism, verify_order
from effectkit.cli import main
from effectkit.numkern import DEFAULT_TOL
from effectkit.suites import Suite


def _count_threaded_runs(monkeypatch):
    # Every group goes through _run_shares; a threaded one has more than one walk.
    calls = []
    run_shares = Suite._run_shares

    def spy(self, walks):
        if len(walks) > 1:
            calls.append(self.name)
        return run_shares(self, walks)

    monkeypatch.setattr(Suite, "_run_shares", spy)
    return calls


@pytest.mark.parametrize(
    "argv",
    [
        ["--dims", f"{suites._THREAD_DIM},64,96", "--p", "0,0.5", "--trials", "2", "--seed", "3"],
        ["--dims", "64", "--p", "0,0.5", "--trials", "2", "--seed", "3", "--tol", "1e-7"],
    ],
    ids=["reports", "tol-1e-7"],
)
def test_threaded_verify_equals_serial(monkeypatch, capsys, argv):
    # The host's usable CPUs; three shares of the four (p, conj) entries
    # of each family group, so the last share holds two entries, whatever
    # the host; and one usable CPU, the serial loop.
    calls = _count_threaded_runs(monkeypatch)
    default = main(["verify", "--suite", "all", *argv]), capsys.readouterr()
    monkeypatch.setattr(suites, "_usable_cpus", lambda: 3)
    del calls[:]
    threaded = main(["verify", "--suite", "all", *argv]), capsys.readouterr()
    threaded_groups = len(calls)
    monkeypatch.setattr(suites, "_usable_cpus", lambda: 1)
    serial = main(["verify", "--suite", "all", *argv]), capsys.readouterr()
    assert len(calls) == threaded_groups > 0
    assert default == threaded == serial
    if "--tol" in argv:
        assert serial == (2, ("", "error: --tol 1e-07 is below the round-off of the values verify builds\n"))
    else:  # each family suite at each of the three dimensions
        assert threaded_groups == 6 * 3
        assert serial[0] == 0


def test_a_callers_map_runs_on_the_callers_thread(monkeypatch):
    # Every public verify_* runs one entry: one share, on the caller's thread.
    monkeypatch.setattr(suites, "_usable_cpus", lambda: 4)
    phi = random_automorphism(64, 0.5, False, 1)
    threads = []

    def black_box(A):
        threads.append(threading.get_ident())
        return phi(A)

    assert verify_order(black_box, 3, 5, dim=64).failures == 0
    assert threads and set(threads) == {threading.get_ident()}


def _effectkit_threads():
    return [t for t in threading.enumerate() if t.name.startswith("effectkit-")]


def test_the_first_share_runs_on_the_callers_thread_and_one_share_starts_no_thread(monkeypatch):
    # Two shares of two entries each: entries 0 and 1 step on the caller's
    # thread, entries 2 and 3 on the one worker.  With one usable CPU the
    # group is one share, and no effectkit-* thread runs while it steps.
    caller = threading.get_ident()
    seen = []

    def step(subjects, n, tol, block):
        seen.append((subjects[0], threading.get_ident() == caller, len(_effectkit_threads())))
        return _check(block)

    suite = Suite("where", ("n",), step)
    monkeypatch.setattr(suites, "_usable_cpus", lambda: 2)
    suite.run([0, 1, 2, 3], 3, [1, 2, 3, 4], suites._THREAD_DIM, DEFAULT_TOL)
    assert {(subject, on_caller) for subject, on_caller, _ in seen} == {(0, True), (2, False)}
    monkeypatch.setattr(suites, "_usable_cpus", lambda: 1)
    del seen[:]
    suite.run([0, 1, 2, 3], 3, [1, 2, 3, 4], suites._THREAD_DIM, DEFAULT_TOL)
    assert seen and set(seen) == {(0, True, 0)}
    assert not _effectkit_threads()


def _check(block):
    """One check that never fails: a zero residual per member of the block."""
    zeros = np.zeros(len(block.rngs))
    return [("zero", zeros, 0.0, {"A": zeros[:, None, None]})]


def test_the_first_failing_entry_raises_and_stops_the_later_entries(monkeypatch):
    # Entry 3 fails at once and entry 1 after a pause: the serial loop
    # raises entry 1's error, and so do the threads, with shares of one
    # entry (4 CPUs) or two (2 CPUs: [ok, slow failure] and [long, fast
    # failure]).  Entry 2 would take about a second; it stops at its next
    # block once entry 1 fails.
    blocks = []

    def step(subjects, n, tol, block):
        for subject, _ in block.runs(subjects):
            if subject == "slow failure":
                time.sleep(0.2)
                raise ValueError(subject)
            if subject == "fast failure":
                raise ValueError(subject)
            if subject == "long":
                blocks.append(subject)
                time.sleep(0.005)
        return _check(block)

    suite = Suite("failing", ("n",), step)
    subjects = ["ok", "slow failure", "long", "fast failure"]
    for cpus in (1, 2, 4):
        monkeypatch.setattr(suites, "_usable_cpus", lambda: cpus)
        del blocks[:]
        with pytest.raises(ValueError, match="slow failure"):
            suite.run(subjects, 200, [1, 2, 3, 4], suites._THREAD_DIM, DEFAULT_TOL)
        assert blocks == [] if cpus == 1 else len(blocks) < 200
    assert not _effectkit_threads()


@pytest.mark.skipif(not hasattr(signal, "pthread_kill"), reason="needs signal.pthread_kill")
def test_an_interrupt_stops_every_entry_at_its_next_block(monkeypatch):
    # Entry 0 delivers SIGINT to the caller's thread on its first block;
    # each of the four entries would take about a second.
    caller = threading.get_ident()
    blocks = []

    def step(subjects, n, tol, block):
        blocks.append(subjects[0])
        if subjects[0] == 0 and blocks.count(0) == 1:
            signal.pthread_kill(caller, signal.SIGINT)
        time.sleep(0.002)
        return _check(block)

    monkeypatch.setattr(suites, "_usable_cpus", lambda: 4)
    previous = signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        with pytest.raises(KeyboardInterrupt):
            Suite("interrupted", ("n",), step).run([0, 1, 2, 3], 500, [1, 2, 3, 4], suites._THREAD_DIM, DEFAULT_TOL)
    finally:
        signal.signal(signal.SIGINT, previous)
    assert len(blocks) < 100
    assert not _effectkit_threads()


def test_more_workers_than_cores_record_every_trial_of_their_entry(monkeypatch):
    # Eight shares of two entries each read the shared stop marks; with
    # the interpreter switching threads every microsecond, each entry's
    # report still equals the serial loop's, failures and counterexample
    # included.
    def step(subjects, n, tol, block):
        r = np.array([rng.random() for rng in block.rngs])
        return [("draw", r, 0.5, {"A": r[:, None, None]})]

    suite = Suite("draws", ("n",), step)
    seeds = list(range(16))
    monkeypatch.setattr(suites, "_usable_cpus", lambda: 1)
    serial = suite.run(seeds, 40, seeds, suites._THREAD_DIM, DEFAULT_TOL)
    monkeypatch.setattr(suites, "_usable_cpus", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = suite.run(seeds, 40, seeds, suites._THREAD_DIM, DEFAULT_TOL)
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial
    assert all(report.failures > 0 for report in serial)
