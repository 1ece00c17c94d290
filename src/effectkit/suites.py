"""The protocol of the verify suites.

A suite samples seeded inputs, checks one claim of the paper, and returns
a VerificationReport.  Each trial draws from its own generator
``default_rng([seed, k])``, in the order a lone trial draws, and the
trials run in blocks (``_trial_blocks``) as stacked LAPACK and matmul
calls.  ``_SuiteState.record`` is the one recorder of checks, taken in
trial order, and ``_SuiteState.report`` the one builder of reports, so a
report depends neither on the block size nor on the order of evaluation;
a suite that runs another suite's trials records them into its own state.
``Suite`` names a suite for ``effectkit verify`` and the axes it sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

__all__ = ["VerificationReport", "Suite"]


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one suite: failure count, worst violation, evidence.

    worst_violation is the largest residual for analog checks and 1.0
    for a boolean mismatch; counterexample is present iff failures > 0
    and serializes the first failing input.
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


@dataclass(frozen=True)
class Suite:
    """A verify suite: its name, the axes it sweeps (of "n", "p" and
    "conj", in that order) and ``run(trials, seed, tol, *axis_values)``."""

    name: str
    axes: tuple[str, ...]
    run: Callable[..., VerificationReport]


def _matrix_rows(M: np.ndarray) -> list:
    """Rows of [re, im] pairs: the one serialization of a matrix's entries.

    Read as one ``tolist`` of the complex matrix's float64 view, which
    holds each entry's real and imaginary parts side by side.
    """
    M = np.ascontiguousarray(M, dtype=np.complex128)
    return M.view(np.float64).reshape(M.shape + (2,)).tolist()


def _example(check: str, **mats: np.ndarray) -> dict:
    return {"check": check, "inputs": {k: _matrix_rows(v) for k, v in mats.items()}}


def _boolean(ok: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A boolean check as (ok, amounts): a failure counts 1.0 towards the worst violation."""
    ok = np.asarray(ok, dtype=bool)
    return ok, np.where(ok, 0.0, 1.0)


def _analog(residuals: np.ndarray, limit: float) -> tuple[np.ndarray, np.ndarray]:
    """An analog check as (ok, amounts): a residual above ``limit`` fails, NaN passes."""
    residuals = np.asarray(residuals, dtype=float)
    return ~(residuals > limit), residuals


class _SuiteState:
    """Failure bookkeeping shared by the suites.

    Every check raises the worst violation to its amount (a NaN amount is
    skipped, as ``max`` skips it); a failed check counts, and the first
    one gives the counterexample.
    """

    def __init__(self, name: str, trials: int, seed: int) -> None:
        self.name, self.trials, self.seed = name, trials, seed
        self.failures = 0
        self.worst = 0.0
        self.counterexample: dict | None = None

    def record(self, *checks: tuple[tuple[np.ndarray, np.ndarray], Callable[[int], dict]]) -> None:
        """The checks of a block of trials, in trial order and, within a
        trial, in the order given.  Each is ``((ok, amounts), example)``
        with one entry per trial; ``example(k)`` builds the counterexample
        of trial k.  A check a trial skipped passes with amount 0."""
        c = len(checks)
        ok = np.stack([check[0] for check, _ in checks], axis=-1).ravel()
        amounts = np.stack([amounts for (_, amounts), _ in checks], axis=-1).ravel()
        for i, (passed, amount) in enumerate(zip(ok.tolist(), amounts.tolist())):
            self.worst = max(self.worst, amount)
            if not passed:
                self.failures += 1
                if self.counterexample is None:
                    self.counterexample = checks[i % c][1](i // c)

    def report(self) -> VerificationReport:
        return VerificationReport(
            self.name, self.trials, self.failures, self.worst, self.counterexample, self.seed
        )


# A block of stacked trials holds at most this many matrix entries per
# stacked array (and at least one trial), so memory grows neither with the
# trial count nor, at large dimensions, by more than one trial's
# temporaries: 32 trials at n = 8, one at n = 64.  Reports do not depend
# on the block size.
_BLOCK_ENTRIES = 2048


def _trial_blocks(
    seed: int, streams: range, n: int, first: int | None = None
) -> Iterator[list[np.random.Generator]]:
    """The generators ``default_rng([seed, k])`` for k in ``streams``, in
    blocks whose n x n matrices hold at most ``_BLOCK_ENTRIES`` entries (at
    least one trial).  With ``first``, the blocks start at that many trials
    and double, for a search that stops at its first find."""
    cap = max(1, _BLOCK_ENTRIES // (n * n))
    block = cap if first is None else min(first, cap)
    start = 0
    while start < len(streams):
        yield [np.random.default_rng([seed, k]) for k in streams[start : start + block]]
        start, block = start + block, min(cap, 2 * block)


def _suite_seed(seed: int, index: int) -> int:
    """Child seed ``index`` of ``seed``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])
