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
checks, plus each entry's fixed controls; ``Suite.run`` is the one
driver, which hands each entry's ``_SuiteState`` its controls and its
part of every block's checks.  A check is data: its name, one residual
per trial, a limit, and the input stacks.  The recorder alone judges
checks and builds counterexamples, in trial order, and
``_SuiteState.report`` is the one builder of reports, so a report depends
neither on the block size nor on the entries it shares blocks with.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import DomainError
from .numkern import ToleranceConfig, _is_count

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
    per = len(streams)
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
    trials into its checks, and ``controls(subject, n, tol)`` gives an
    entry the checks it records before its trials.  Trial k of an entry
    draws from stream ``first_stream + k``.
    """

    name: str
    axes: tuple[str, ...]
    step: Callable[[Sequence[Any], int, ToleranceConfig, _Block], list[tuple]]
    controls: Callable[[Any, int, ToleranceConfig], list[tuple]] | None = None
    first_stream: int = 0

    def run(
        self, subjects: Sequence[Any], trials: int, seeds: Sequence[int], n: int, tol: ToleranceConfig
    ) -> list[VerificationReport]:
        """The one driver of the suites: a report per entry (subject,
        seed) of a group at dimension n, in order.  Each entry records its
        fixed controls first, then its part of every block's checks."""
        if not _is_count(trials):
            raise DomainError(f"trials must be a positive integer, got {trials!r}")
        trials = int(trials)  # a report holds a Python int
        states = [_SuiteState(self.name, trials, seed) for seed in seeds]
        if self.controls is not None:
            for state, subject in zip(states, subjects):
                state.record(*self.controls(subject, n, tol))
        streams = range(self.first_stream, self.first_stream + trials)
        for block in _trial_blocks(seeds, streams, n):
            checks = self.step(subjects, n, tol, block)
            for entry, part in block.parts:
                states[entry].record(*checks, part=part)
        return [state.report() for state in states]


def _suite_seed(seed: int, index: int) -> int:
    """Child seed ``index`` of ``seed``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])
