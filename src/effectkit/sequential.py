"""Sequential product of effects and the order-via-quotient probe.

The sequential product is A o B = sqrt(A) B sqrt(A).  It vanishes exactly
when the plain operator product AB vanishes, and it characterizes the
Loewner order: A <= B iff A = B o C for some effect C.  The witness C is
produced by the Douglas-style quotient pinv_sqrt(B) A pinv_sqrt(B).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numkern
from .effects import Effect, _effect, _same_dim, _spectral, _vanishes, leq, zero_product
from .errors import OrderViolation, QuotientFailure
from .numkern import DEFAULT_TOL, ToleranceConfig

__all__ = [
    "SeqQuotient",
    "seq_product",
    "seq_zero_iff_zero",
    "douglas_quotient",
    "order_via_seq",
]


@dataclass(frozen=True)
class SeqQuotient:
    """Quotient effect C with B o C = A, plus the achieved residual."""

    quotient: Effect
    residual: float


def _sqrt_matrix(A: Effect) -> np.ndarray:
    V = A.eigenvectors
    return (V * np.sqrt(A.eigenvalues)[..., None, :]) @ V.conj().swapaxes(-1, -2)


def seq_product(A: Effect, B: Effect, tol: ToleranceConfig = DEFAULT_TOL) -> Effect:
    """The sequential product sqrt(A) B sqrt(A), validated as an effect.

    For two stacks of effects, the stack of the member products.
    """
    _same_dim(A, B)
    S = _sqrt_matrix(A)
    return _spectral(numkern.hermitize(S @ B.matrix @ S), tol)


def seq_zero_iff_zero(A: Effect, B: Effect, tol: ToleranceConfig = DEFAULT_TOL) -> tuple[bool, bool]:
    """Return (sequential product vanishes, operator product vanishes).

    The two booleans agree for genuine effects; returning both lets test
    suites check the equivalence instead of assuming it.
    """
    seq_is_zero = _vanishes(seq_product(A, B, tol).matrix, A.matrix, B.matrix, tol)
    return bool(seq_is_zero), zero_product(A, B, tol)


def _quotient_candidate(A: Effect, B: Effect, tol: ToleranceConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Raw Douglas quotient of A by B: eigenvalues unclamped, basis, sqrt(B)."""
    S = numkern._pinv_sqrt_spectrum(B.eigenvalues, B.eigenvectors, tol)
    raw = numkern.hermitize(S @ A.matrix @ S)
    w, V = np.linalg.eigh(raw)
    return w, V, _sqrt_matrix(B)


def douglas_quotient(A: Effect, B: Effect, tol: ToleranceConfig = DEFAULT_TOL) -> SeqQuotient:
    """Effect C with B o C = A, canonical on the range of B.

    Requires A <= B.  The candidate pinv_sqrt(B) A pinv_sqrt(B) may carry
    round-off just outside [0, 1]; it is clamped back, but only within
    eps_psd.  A clamp beyond that, or a reconstruction residual above
    eps_eq, raises QuotientFailure.
    """
    if not leq(A, B, tol):
        raise OrderViolation("douglas_quotient requires A <= B")
    w, V, sqrtB = _quotient_candidate(A, B, tol)
    if w[0] < -tol.eps_psd or w[-1] > 1.0 + tol.eps_psd:
        raise QuotientFailure(
            f"quotient spectrum [{w[0]:.12g}, {w[-1]:.12g}] needs clamping beyond eps_psd"
        )
    clamped = np.clip(w, 0.0, 1.0)
    C = _effect(numkern._from_spectrum(V, clamped), clamped, V)
    residual = numkern.frobenius(sqrtB @ C.matrix @ sqrtB - A.matrix)
    if residual > tol.eps_eq:
        raise QuotientFailure(f"reconstruction residual {residual:.3e} exceeds eps_eq")
    return SeqQuotient(quotient=C, residual=float(residual))


def order_via_seq(A: Effect, B: Effect, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Decide A <= B through the quotient construction alone.

    Builds the Douglas candidate, projects its spectrum onto [0, 1]
    unconditionally, and accepts iff the best reconstruction lands back
    on A.  No direct eigenvalue comparison of B - A is consulted, which
    makes this an independent cross-check of ``leq``.
    """
    _same_dim(A, B)
    w, V, sqrtB = _quotient_candidate(A, B, tol)
    clamped = np.clip(w, 0.0, 1.0)
    best = numkern._from_spectrum(V, clamped)
    residual = numkern.frobenius(sqrtB @ best @ sqrtB - A.matrix)
    return residual <= tol.eps_eq * max(1.0, numkern.frobenius(A.matrix))
