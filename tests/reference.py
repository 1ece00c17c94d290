"""A 40-digit reference for the strength along a ray, the Loewner order,
f_p and the zero product.

Each value is computed with mpmath from the float matrices and vectors as
stored, every float read exactly, so the reference judges each effectkit
route against the truth for its own inputs rather than against another
float route.  No effectkit routine is called here.

* ``strength(A, v)``: 1 / <v, A^-1 v> for an invertible effect matrix A and
  a unit vector v, with A^-1 v from ``mpmath.lu_solve``; also returns
  ||A^-1 v||^2, which sets how far a slack in the Loewner test moves the
  largest accepted t.
* ``lambda_min(A, B)``: the smallest eigenvalue of B - A, from
  ``mpmath.eighe``, which decides A <= B.
* ``fp(p, x)``: f_p(x) = x / (x p + 1 - p), and ``inverse_param(p)``:
  q = 1 - 1 / (1 - p), the parameter of f_p's inverse.
* ``frobenius_product(A, B)``: ||AB||_F, which decides whether A and B
  have a zero product.
"""

from __future__ import annotations

import mpmath
import numpy as np

DIGITS = 40


def _matrix(M: np.ndarray) -> mpmath.matrix:
    return mpmath.matrix([[mpmath.mpc(z) for z in row] for row in np.asarray(M, dtype=complex).tolist()])


def strength(A: np.ndarray, v: np.ndarray) -> tuple[float, float]:
    """(1 / <v, A^-1 v>, ||A^-1 v||^2) for invertible A, each rounded to a float."""
    with mpmath.workdps(DIGITS):
        b = mpmath.matrix([mpmath.mpc(z) for z in np.asarray(v, dtype=complex).tolist()])
        x = mpmath.lu_solve(_matrix(A), b)
        quadratic = mpmath.re(mpmath.fsum(mpmath.conj(b[i]) * x[i] for i in range(len(b))))
        return float(1 / quadratic), float(mpmath.fsum(abs(x[i]) ** 2 for i in range(len(b))))


def lambda_min(A: np.ndarray, B: np.ndarray) -> float:
    """The smallest eigenvalue of B - A, for Hermitian A and B, rounded to a float."""
    with mpmath.workdps(DIGITS):
        return float(min(mpmath.eighe(_matrix(B) - _matrix(A), eigvals_only=True)))


def fp(p: float, x: float) -> float:
    """f_p(x) = x / (x p + 1 - p), rounded to a float."""
    with mpmath.workdps(DIGITS):
        x, p = mpmath.mpf(x), mpmath.mpf(p)
        return float(x / (x * p + 1 - p))


def inverse_param(p: float) -> float:
    """q = 1 - 1 / (1 - p), rounded to a float."""
    with mpmath.workdps(DIGITS):
        return float(1 - 1 / (1 - mpmath.mpf(p)))


def frobenius_product(A: np.ndarray, B: np.ndarray) -> float:
    """||AB||_F, rounded to a float."""
    with mpmath.workdps(DIGITS):
        M = _matrix(A) * _matrix(B)
        return float(mpmath.sqrt(mpmath.fsum(abs(z) ** 2 for z in M)))
