"""The bisection oracle skips the Loewner tests that earlier tests decide.

Each skipped outcome must be the one the test gives, so the oracle returns
the float that running every test returns: ``_bisect_reference`` in
tests/test_stacks.py, which runs all of them.
"""

import numpy as np
import pytest
from test_stacks import _bisect_reference

from effectkit import numkern, strength
from effectkit.effects import _ray_matrix, _sample_effect_stack, make_effect, make_ray
from effectkit.numkern import DEFAULT_TOL, haar_unitary, hermitize
from effectkit.strength import _bisect, _closed, strength_bisect
from effectkit.suites import _suite_seed, _trial_blocks

TOLS = {"default": DEFAULT_TOL, "tol-1e3": DEFAULT_TOL.scaled(1e3)}
SPECTRA = ("random", "singular", "tiny", "near-one")
RAYS = ("random", "bottom-leak", "top")


def _case(n, spectrum, ray, k):
    """An effect with the named spectrum and a ray of the named kind: random,
    along the bottom eigenvector with a 1e-5 leak, or along the top
    eigenvector of an effect whose top eigenvalue is 1 (strength 1)."""
    rng = np.random.default_rng([12, n, SPECTRA.index(spectrum), RAYS.index(ray), k])
    Q = haar_unitary(n, rng)
    w = {
        "random": rng.uniform(0.0, 1.0, n),
        "singular": np.where(np.arange(n) < max(1, n // 3), 0.0, rng.uniform(0.0, 1.0, n)),
        "tiny": 1e-7 * rng.uniform(0.0, 1.0, n),
        "near-one": 1.0 - 1e-7 * rng.uniform(0.0, 1.0, n),
    }[spectrum]
    w = np.sort(w)
    if ray == "top":
        w[-1] = 1.0
    A = make_effect(hermitize((Q * w) @ Q.conj().T))
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    if ray == "bottom-leak":
        v = A.eigenvectors[:, 0] + 1e-5 * v
    elif ray == "top":
        v = A.eigenvectors[:, -1]
    return A, make_ray(v)


def _counting_kernel(monkeypatch):
    """Count the Loewner tests run through the one numkern kernel."""
    calls = []
    real = numkern._loewner_spectrum
    monkeypatch.setattr(numkern, "_loewner_spectrum", lambda *args: calls.append(1) or real(*args))
    return calls


@pytest.mark.parametrize("n", (1, 2, 3, 8, 32, 64))
def test_bisection_equals_running_every_test(monkeypatch, n):
    bisections = []  # (Loewner tests run, result) per lone bisection
    for tol in TOLS.values():
        for spectrum in SPECTRA:
            for ray_kind in RAYS:
                for k in range(2):
                    A, ray = _case(n, spectrum, ray_kind, k)
                    want = _bisect_reference(A.matrix, ray.projection.matrix, tol)
                    with monkeypatch.context() as patch:
                        calls = _counting_kernel(patch)
                        got = strength_bisect(A, ray, tol)
                    assert np.float64(got).tobytes() == np.float64(want).tobytes(), (spectrum, ray_kind, k)
                    bisections.append((len(calls), got))
                    if ray_kind == "top":
                        assert got == 1.0

    # The suite route: every member of the strength-oracle suite's stacks.
    members = []

    def recording(P, A, tol):
        members.append((P, A, tol, _bisect(P, A, tol)))
        return members[-1][-1]

    monkeypatch.setattr(strength, "_bisect", recording)
    for tol in TOLS.values():
        strength._STRENGTH_ORACLE.run([12], 4, [12], n, tol)
    assert len(members) == 2 * 4
    for P, A, tol, got in members:
        want = _bisect_reference(A, P, tol)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

    # A bisection that does not stop at t = 1 runs 28 tests without skips.
    if n == 32:
        tests = [count for count, got in bisections if got < 1.0]
        assert len(tests) >= 20 and np.mean(tests) <= 12


def _n128_trial(k):
    """Trial k of ``verify --suite strength-oracle --dims 128 --trials 60
    --seed 1``: its effect matrix, ray projection and closed-form value."""
    ((rngs, _),) = _trial_blocks([_suite_seed(1, 0)], range(k, k + 1), 128)
    A = _sample_effect_stack(128, rngs, DEFAULT_TOL)
    vec, P = _ray_matrix(numkern._random_ray_stack(128, rngs))
    return A.matrix[0], P[0], float(_closed(A.eigenvalues, A.eigenvectors, vec, DEFAULT_TOL)[0][0])


# The two trials of that run that fail closed-vs-bisect, gaps 2.8e-6 and 1.5e-6.
N128_FAILING_TRIALS = (21, 49)


@pytest.mark.parametrize("k", N128_FAILING_TRIALS)
def test_n128_failing_trials_bisect_as_every_test(k):
    A, P, _ = _n128_trial(k)
    assert np.float64(_bisect(P, A, DEFAULT_TOL)).tobytes() == np.float64(
        _bisect_reference(A, P, DEFAULT_TOL)
    ).tobytes()


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 1: the oracle gap limit does not read the operands' conditioning, "
    "so the Loewner slack's overshoot fails these n = 128 trials",
)
@pytest.mark.parametrize("k", N128_FAILING_TRIALS)
def test_n128_oracle_gap_within_limit(k):
    A, P, closed = _n128_trial(k)
    assert abs(closed - _bisect(P, A, DEFAULT_TOL)) <= DEFAULT_TOL.estimate_limit
