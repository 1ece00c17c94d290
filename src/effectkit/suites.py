"""The protocol of the verify suites.

A suite samples seeded inputs, checks one claim of the paper, and returns
a VerificationReport per entry.  Each trial draws from its own generator
``default_rng([seed, k])``, in the order a lone trial draws, and the
trials run in blocks (``_trial_blocks``) as stacked LAPACK and matmul
calls.  The entries of one group, which share a suite and a dimension,
share blocks: a block holds their trials concatenated entry by entry, and
each member keeps its entry's generator, subject and state.  A block
takes all its sampled effects from one sampler call (one QR, one
eigendecomposition), and built effects skip the hermiticity check.  A
suite is one ``Suite`` value: a step, which turns a block into its
checks, plus fixed controls, which give the group's checks in the same
shape, one residual per entry; ``Suite.run`` is the one driver, which
hands each entry's ``_SuiteState`` its part of the controls and of every
block's checks.  A check is data: its name, one residual per trial (or
entry), a limit, and the input stacks.  The recorder alone judges
checks and builds counterexamples, in trial order, and
``_SuiteState.report`` is the one builder of reports, so a report depends
neither on the block size nor on the entries it shares blocks with.

One runner, ``Suite._run_shares``, walks every group's blocks: the first
share on the caller's thread, each later one on a thread of its own.  A
group is one share below ``_THREAD_DIM``; from there up, where a block
holds one trial and the LAPACK and matmul calls (which release the GIL)
outweigh the Python glue, it is cut into shares of consecutive entries,
as many as the entries or the usable CPUs allow, and a share's blocks are
the ones the whole group's loop gives its entries.  Every public
``verify_*`` runs one entry, so a caller's map is only called on the
caller's thread; only ``effectkit verify`` runs groups, of maps it builds.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import Any, Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import DomainError
from .numkern import ToleranceConfig, _is_count, _require_seed

__all__ = ["VerificationReport", "Suite"]


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one suite: failure count, worst violation, evidence.

    worst_violation is the largest residual of any check, 1.0 for a
    boolean mismatch; counterexample is present iff failures > 0 and
    names the first failing check with its trial's inputs.
    """

    suite: str
    trials: int
    failures: int
    worst_violation: float
    counterexample: dict | None
    seed: int

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "trials": self.trials,
            "failures": self.failures,
            "worst_violation": self.worst_violation,
            "counterexample": self.counterexample,
            "seed": self.seed,
        }


def _matrix_rows(M: np.ndarray) -> list:
    """Rows of [re, im] pairs: the one serialization of a matrix's entries.

    Read as one ``tolist`` of the complex matrix's float64 view, which
    holds each entry's real and imaginary parts side by side.
    """
    M = np.ascontiguousarray(M, dtype=np.complex128)
    return M.view(np.float64).reshape(M.shape + (2,)).tolist()


class _SuiteState:
    """Failure bookkeeping shared by the suites: the one place that judges
    a check and builds its counterexample."""

    def __init__(self, name: str, trials: int, seed: int) -> None:
        self.name, self.trials, self.seed = name, trials, seed
        self.failures = 0
        self.worst = 0.0
        self.counterexample: dict | None = None

    def record(self, *checks: tuple[str, Sequence[float], float, dict], part: slice = slice(None)) -> None:
        """The checks of a block of trials, in trial order and, within a
        trial, in the order given.  Each is ``(name, residuals, limit,
        inputs)``: one residual per trial, a residual above ``limit``
        fails and NaN passes, and member k of each stack in ``inputs`` is
        trial k's counterexample.  A boolean check gives 1.0 (or True)
        where it fails and 0.0 where it holds, against limit 0.0.  Every
        residual raises the worst violation (NaN is skipped, as ``max``
        skips it); a failure counts, and the first gives the
        counterexample.  Only the trials in ``part`` of the block count."""
        checks = [(name, np.asarray(r, dtype=float)[part].tolist(), limit, inputs) for name, r, limit, inputs in checks]
        for k in range(len(checks[0][1])):
            for name, residuals, limit, inputs in checks:
                self.worst = max(self.worst, residuals[k])
                if residuals[k] > limit:
                    self.failures += 1
                    if self.counterexample is None:
                        rows = {key: _matrix_rows(stack[part][k]) for key, stack in inputs.items()}
                        self.counterexample = {"check": name, "inputs": rows}

    def report(self) -> VerificationReport:
        return VerificationReport(self.name, self.trials, self.failures, self.worst, self.counterexample, self.seed)


# A block of stacked trials holds at most this many matrix entries per
# stacked array (and at least one trial), so memory grows neither with the
# trial count nor with the entries of a group, nor, at large dimensions, by
# more than one trial's temporaries: 32 trials at n = 8, one at n = 64.  A
# sampler call that draws m effects per trial holds up to 4 times as many
# entries (m = 4 for the order suite).  Reports do not depend on the block
# size.  ``autos.fit_p`` maps its grid of scalar effects in blocks under the
# same cap.
_BLOCK_ENTRIES = 2048


# From this dimension up, ``Suite.run`` cuts a group into shares of
# consecutive entries, one per worker thread.  There a block holds one
# trial, and the eigh, QR and matmul calls of a step, inside which numpy
# releases the GIL, outweigh its Python glue.  Chosen by timing the six
# family suites (p = 0.5, 4 trials) serial and threaded in one process,
# alternating, on 2 cores with one BLAS thread: the threaded side lost at
# n = 32-40 (e.g. n = 40, median 160 -> 180 ms), broke even at 44-48, won
# narrowly at 52 (7 of 9 and 9 of 11 pairs), and won from 56 up (56: 10 of
# 11 pairs, 225 -> 202 ms; 64: 349 -> 309 ms; 96: 914 -> 655 ms).  A
# cap-based rule would thread from n = 33.
_THREAD_DIM = 56


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _block_cap(n: int) -> int:
    """The most members a stacked block of n x n matrices holds:
    ``_BLOCK_ENTRIES // n**2``, and at least one."""
    return max(1, _BLOCK_ENTRIES // (n * n))


class _Block(NamedTuple):
    """A block of trials: one generator per member and, for each entry
    with trials in the block, ``(entry index, slice of its members)``."""

    rngs: list[np.random.Generator]
    parts: list[tuple[int, slice]]

    def runs(self, subjects: Sequence[Any]) -> list[tuple[Any, int]]:
        """``(subject, count of members)`` for each entry with trials in the block, in order."""
        return [(subjects[entry], part.stop - part.start) for entry, part in self.parts]


def _trial_blocks(
    seeds: Sequence[int], streams: range, n: int, first: int | None = None
) -> Iterator[_Block]:
    """The generators ``default_rng([seed, k])`` for each entry's seed in
    turn and k in ``streams``, in blocks whose n x n matrices hold at most
    ``_BLOCK_ENTRIES`` entries (at least one trial); a block may end one
    entry's trials and begin the next one's.  With ``first``, the blocks
    start at that many trials and double, for a search that stops at its
    first find."""
    cap = _block_cap(n)
    block = cap if first is None else min(first, cap)
    per = max(0, -((streams.start - streams.stop) // streams.step))  # len(streams), past sys.maxsize too
    start, total = 0, per * len(seeds)
    while start < total:
        stop = min(total, start + block)
        rngs = [np.random.default_rng([seeds[i // per], streams[i % per]]) for i in range(start, stop)]
        parts = [
            (entry, slice(max(start, entry * per) - start, min(stop, entry * per + per) - start))
            for entry in range(start // per, (stop - 1) // per + 1)
        ]
        yield _Block(rngs, parts)
        start, block = stop, min(cap, 2 * block)


@dataclass(frozen=True)
class Suite:
    """A verify suite: its name, the axes its entries sweep (of "n", "p"
    and "conj", in that order), its step and its fixed controls.

    An entry's subject is its map when the suite maps effects, and its
    seed otherwise.  ``step(subjects, n, tol, block)`` turns a block of
    trials into its checks, and ``controls(subjects, n, tol)`` gives the
    checks the entries record before their trials, one residual per entry.
    Trial k of an entry draws from stream ``first_stream + k``.
    """

    name: str
    axes: tuple[str, ...]
    step: Callable[[Sequence[Any], int, ToleranceConfig, _Block], list[tuple]]
    controls: Callable[[Sequence[Any], int, ToleranceConfig], list[tuple]] | None = None
    first_stream: int = 0

    def run(
        self, subjects: Sequence[Any], trials: int, seeds: Sequence[int], n: int, tol: ToleranceConfig
    ) -> list[VerificationReport]:
        """The one driver of the suites: a report per entry (subject,
        seed) of a group at dimension n, in order.  Each entry records its
        part of the controls first, then its part of every block's checks.

        The controls, one call for the group, run on the caller's thread.
        The block loop runs in ``_run_shares``: as one share on the
        caller's thread, or, at n >= ``_THREAD_DIM`` with more than one
        entry and more than one usable CPU, in shares of consecutive
        entries, each over its own blocks; the reports, and the error
        raised if an entry raises (the first failing entry's), are the
        one-share run's."""
        if not _is_count(trials):
            raise DomainError(f"trials must be a positive integer, got {trials!r}")
        for seed in seeds:
            _require_seed(seed)
        trials = int(trials)  # a report holds Python ints
        states = [_SuiteState(self.name, trials, int(seed)) for seed in seeds]
        if self.controls is not None and states:
            controls = self.controls(subjects, n, tol)
            for entry, state in enumerate(states):
                state.record(*controls, part=slice(entry, entry + 1))
        streams = range(self.first_stream, self.first_stream + trials)

        def walk(a: int, b: int, blocks: Iterator[_Block]) -> Iterator[None]:
            """Record, for each entry from a to b - 1, its part of every block's checks."""
            for block in blocks:
                yield  # a stopped share ends here, before the block's step
                checks = self.step(subjects[a:b], n, tol, block)
                for entry, part in block.parts:
                    states[a + entry].record(*checks, part=part)

        shares = max(1, min(len(states), _usable_cpus())) if n >= _THREAD_DIM else 1
        cuts = [len(states) * k // shares for k in range(shares + 1)]
        self._run_shares([walk(a, b, _trial_blocks(seeds[a:b], streams, n)) for a, b in zip(cuts, cuts[1:])])
        return [state.report() for state in states]

    def _run_shares(self, walks: Sequence[Iterator[None]]) -> None:
        """Each share's walk: the first on the caller's thread, each later
        one on a thread of its own, so one share starts no thread.

        A share that raises stops the shares after it at their next
        block, and the first failing share's exception is raised, as in
        the serial loop; an interrupt of the caller stops every share at
        its next block, and every started thread is joined first."""
        errors: list[BaseException | None] = [None] * len(walks)
        marks = [len(walks)]  # a share stops at its next block once a mark is below its index

        def work(i: int) -> None:
            try:
                for _ in walks[i]:
                    if min(marks) < i:
                        return
            except BaseException as exc:  # handed to the caller below
                errors[i] = exc
                marks.append(i)

        threads = [
            threading.Thread(target=work, args=(i,), name=f"effectkit-{self.name}-{i}") for i in range(1, len(walks))
        ]
        try:
            for thread in threads:
                thread.start()
            work(0)  # an interrupt here stops the later shares as a failure of share 0
            for thread in threads:
                thread.join()
        except BaseException:  # an interrupt: every share stops at its next block
            marks.append(-1)
            for thread in threads:
                if thread.ident is not None:  # started
                    thread.join()
            raise
        for exc in errors:
            if exc is not None:
                raise exc


def _suite_seed(seed: int, index: int) -> int:
    """Child seed ``index`` of ``seed``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])
