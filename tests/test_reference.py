"""The strength routes and the Loewner order against a 40-digit reference.

``reference.py`` computes the strength 1 / <v, A^-1 v> and lambda_min(B - A)
with mpmath from the stored floats and calls no effectkit routine, so each
route is judged against the truth for its own inputs:

* ``strength_closed`` agrees with the reference to max(1e-13, n eps S2 / S1)
  relative, with S1 = sum |c_i|^2 / lambda_i and S2 = sum |c_i|^2 / lambda_i^2
  = ||A^-1 v||^2.  An absolute error of about n eps in each eigenvalue moves
  S1 by n eps S2 to first order, so a small eigenvalue with weight on it
  widens the bound.  The worst seen was 0.61 of it, over 644 seeded pairs at
  n = 1 to 8; the four ``@example`` pairs at n = 8 err by 1.0e-13 to 1.6e-12
  relative, 0.02-0.14 of n eps S2 / S1;
* ``strength_bisect`` lies within the bound its docstring states: at most
  2^-27 below the reference t, and above it by at most the slack's
  overshoot.  lambda(t) = lambda_min(A - t P) is concave, zero at t, with
  slope -1 / (t^2 ||A^-1 v||^2) there, so a test that accepts lambda down
  to minus the slack s accepts at most t^2 ||A^-1 v||^2 s past t; 5% covers
  the eigenvalue error (0.95 of the overshoot was the worst seen);
* the eigenvalue that decides ``leq`` and ``psd_leq`` is within
  4 n eps max(1, ||B - A||_F) of the reference (0.5 n eps ||B - A||_F the
  worst seen), and ``psd_leq`` decides as the Loewner rule, applied to the
  reference, decides wherever the two are further apart than that.

* ``fp_eval``, and the eigenvalues of ``fp_apply``, are within the forward
  error of f_p's formula x / (x p + 1 - p): relative, eps for the division
  plus 2 eps (|x p| + |1 - p|) / |x p + 1 - p| for the denominator (0.31 of
  it the worst seen, over 2100 x for each p).  The second term grows where
  the denominator cancels, near x = 1 for p far below 0, where f_p
  saturates: at p = -1e6 the error reaches 5.8e-11 relative at x = 1 - 2^-40;
* ``inverse_param`` is within 2 eps (|q| + 1 / |1 - p|) of q = 1 - 1 / (1 - p),
  and a round trip returns p to within that error carried by
  |dp/dq| = (1 - p)^2, plus 2 eps (|p| + |1 - p|) for p's own rounding;
* ||AB||_F, the quantity ``zero_product`` compares with its limit, is within
  n eps ||A||_F ||B||_F of the reference (0.29 of it the worst seen), and
  ``zero_product`` decides as its rule, applied to the reference, decides
  wherever the two are further apart than that.

Hypothesis draws the pairs at n <= 8; seeded pairs cover n = 16 and 32,
where one mpmath solve or eigenvalue problem takes about 0.4 s at n = 32.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from effectkit import numkern
from effectkit.effects import leq, make_effect, sample_effect, sample_ray, zero_product
from effectkit.fracfun import fp_apply, fp_eval, inverse_param
from effectkit.numkern import DEFAULT_TOL, haar_unitary
from effectkit.sequential import seq_product
from effectkit.strength import BISECT_ITERATIONS, strength_bisect, strength_closed

EPS = np.finfo(float).eps
SEEDS = st.integers(0, 2**32 - 1)


def check_strength(n: int, seed: int) -> None:
    A, ray = sample_effect(n, seed), sample_ray(n, seed + 1)
    truth, solved = reference.strength(A.matrix, ray.vector)
    closed = strength_closed(A, ray)
    assert closed.in_range and abs(closed.value - truth) <= max(1e-13, n * EPS * solved * truth) * truth
    slack = DEFAULT_TOL.eps_psd * max(1.0, numkern.frobenius(A.matrix - truth * ray.projection.matrix))
    bisected = strength_bisect(A, ray)
    assert truth - 2.0**-BISECT_ITERATIONS - 4 * EPS <= bisected <= truth + 1.05 * truth**2 * solved * slack


# Where lambda_min(B - A) lies: a generic pair is rarely ordered, and for
# Y o X <= Y it is at or just above zero; the last two move it to half a
# slack and one and a half slacks below zero, where the rule must hold and fail.
KINDS = {"generic": None, "ordered": None, "inside": 0.5, "outside": 1.5}


def check_order(n: int, seed: int, kind: str) -> None:
    X, Y = sample_effect(n, seed), sample_effect(n, seed + 1)
    L = X if kind == "generic" else seq_product(Y, X)
    A, B = L.matrix, Y.matrix
    if KINDS[kind] is not None:
        w, V = np.linalg.eigh(B - A)
        shift = w[0] + KINDS[kind] * DEFAULT_TOL.eps_psd * max(1.0, np.linalg.norm(B - A))
        A = A + shift * np.outer(V[:, 0], V[:, 0].conj())
        A = 0.5 * (A + A.conj().T)
    w, _ = numkern._loewner_spectrum(A, B, DEFAULT_TOL)
    truth = reference.lambda_min(A, B)
    error = 4 * n * EPS * max(1.0, np.linalg.norm(B - A))
    assert abs(w[0] - truth) <= error
    slack = -DEFAULT_TOL.eps_psd * max(1.0, np.linalg.norm(B - A))  # the Loewner rule as README states it
    if abs(truth - slack) > error:
        assert numkern.psd_leq(A, B) == (truth >= slack)
        if KINDS[kind] is None:  # A is the effect L's matrix
            assert leq(L, Y) == (truth >= slack)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(1, 8), seed=SEEDS, kind=st.sampled_from(sorted(KINDS)))
# Pairs whose closed form errs by more than 1e-13 relative, lambda_min down to 6.3e-5.
@example(n=8, seed=1984, kind="generic")
@example(n=8, seed=938971949, kind="generic")
@example(n=8, seed=2877893728, kind="generic")
@example(n=8, seed=310376951, kind="generic")
def test_small_dimensions_against_the_reference(n, seed, kind):
    check_strength(n, seed)
    check_order(n, seed, kind)


@pytest.mark.parametrize("n, seed", [(16, 1), (16, 2), (32, 1)])
def test_strength_against_the_reference(n, seed):
    check_strength(n, seed)


@pytest.mark.parametrize(
    "n, seed, kind", [(16, 1, "generic"), (16, 2, "ordered"), (16, 3, "inside"), (32, 1, "outside")]
)
def test_order_against_the_reference(n, seed, kind):
    check_order(n, seed, kind)


F_P = [-1e6, -1e3, -1.0, 0.0, 0.5, 0.999999]


def fp_bound(p: float, x: float) -> float:
    """The forward error of x / (x p + 1 - p), relative."""
    return EPS + 2 * EPS * (abs(x * p) + abs(1 - p)) / abs(x * p + 1 - p)


@pytest.mark.parametrize("p", F_P)
def test_f_p_against_the_reference(p):
    rng = np.random.default_rng(7)
    xs = np.concatenate([rng.uniform(0.0, 1.0, 2000), 1.0 - 2.0 ** -np.arange(1, 51), 2.0 ** -np.arange(1, 51)])
    pairs = [(x, fp_eval(p, x)) for x in xs.tolist()]
    for A in (sample_effect(8, rng) for _ in range(5)):
        pairs += zip(A.eigenvalues.tolist(), fp_apply(p, A).eigenvalues.tolist())
    for x, got in pairs:
        truth = reference.fp(p, x)
        assert abs(got - truth) <= fp_bound(p, x) * truth


@pytest.mark.parametrize("p", F_P + [-(2.0**53 + 2), -1e-8, 1e-8, 0.3])
def test_inverse_param_against_the_reference(p):
    q = inverse_param(p).p
    error = 2 * EPS * (abs(q) + 1 / abs(1 - p))
    assert abs(q - reference.inverse_param(p)) <= error
    assert abs(inverse_param(q).p - p) <= (1 - p) ** 2 * error + 2 * EPS * (abs(p) + abs(1 - p))


# Where ||AB||_F lies: a generic pair is far from zero, a pair of orthogonal
# ranges at round-off, and the last two put a leak of half and one and a
# half times the rule's limit on the range of A, where the rule must hold and fail.
PRODUCT_KINDS = {"generic": None, "orthogonal": 0.0, "inside": 0.5, "outside": 1.5}


def check_zero_product(n: int, seed: int, kind: str) -> None:
    rng = np.random.default_rng([seed, n])
    if PRODUCT_KINDS[kind] is None:
        A, B = sample_effect(n, rng).matrix, sample_effect(n, rng).matrix
    else:
        V = haar_unitary(n, rng)
        k = max(1, n // 2)
        a, b = np.zeros(n), np.zeros(n)
        a[:k], b[k:] = rng.uniform(0.1, 1.0, k), rng.uniform(0.1, 1.0, n - k)
        A, B = (V * a) @ V.conj().T, (V * b) @ V.conj().T
        limit = DEFAULT_TOL.eps_eq * max(1.0, np.linalg.norm(A) * np.linalg.norm(B))
        B = B + PRODUCT_KINDS[kind] * limit / a[0] * np.outer(V[:, 0], V[:, 0].conj())
        A, B = 0.5 * (A + A.conj().T), 0.5 * (B + B.conj().T)
    X, Y = make_effect(A), make_effect(B)
    A, B = X.matrix, Y.matrix
    truth = reference.frobenius_product(A, B)
    error = n * EPS * np.linalg.norm(A) * np.linalg.norm(B)
    assert abs(numkern.frobenius(A @ B) - truth) <= error
    limit = DEFAULT_TOL.eps_eq * max(1.0, np.linalg.norm(A) * np.linalg.norm(B))  # the rule as README states it
    if abs(truth - limit) > error:
        assert zero_product(X, Y) == (truth <= limit)


@pytest.mark.parametrize("kind", sorted(PRODUCT_KINDS))
@pytest.mark.parametrize("n, seed", [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (8, 1), (8, 2), (16, 1)])
def test_zero_product_against_the_reference(n, seed, kind):
    check_zero_product(n, seed, kind)
