"""A 40-digit reference for the strength along a ray and for the Loewner order.

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
