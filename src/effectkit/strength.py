"""Strength of an effect along a ray.

The strength of effect A along the ray of unit vector phi is the largest
t in [0, 1] such that t * |phi><phi| stays below A in the Loewner order.
Two independent routes are provided and kept separate on purpose:

* ``strength_closed``   spectral closed form (reciprocal of the weighted
                        inverse-eigenvalue sum when phi lies in the range
                        of A, zero otherwise);
* ``strength_bisect``   oracle that bisects the scalar against the raw
                        PSD comparison and never looks at the formula.

``strength_two_block`` covers the special two-dimensional configuration
mu * P + Q with orthogonal rank-one P and Q, where the value along a ray
R inside the span reduces to mu / (mu + (1 - mu) tr(PR)).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, log2

import numpy as np

from . import numkern
from .effects import Effect, RayProjection, zero_product
from .errors import (
    DimensionError,
    DomainError,
    OrthogonalityError,
    SpanError,
)
from .numkern import DEFAULT_TOL, ToleranceConfig

__all__ = [
    "StrengthValue",
    "strength_closed",
    "strength_bisect",
    "strength_two_block",
    "BISECT_ITERATIONS",
]

# Fixed iteration count bringing the bracket width below 1e-8.
BISECT_ITERATIONS = ceil(log2(1e8))


@dataclass(frozen=True)
class StrengthValue:
    """Result of the closed-form strength computation.

    value        the strength, in [0, 1]; zero whenever in_range is False
    in_range     whether the ray lies in the range of the effect
    near_cutoff  diagnostic: the range-membership decision relied on a
                 coefficient or eigenvalue within a factor 10 of its
                 cutoff, so the value is numerically ill-posed
    """

    value: float
    in_range: bool
    near_cutoff: bool = False

    def __post_init__(self) -> None:
        if not (0.0 <= self.value <= 1.0):
            raise ValueError("strength must lie in [0, 1]")
        if not self.in_range and self.value != 0.0:
            raise ValueError("out-of-range strength must be zero")


def _check_dims(A: Effect, ray: RayProjection) -> None:
    if A.dim != ray.dim:
        raise DimensionError(f"dimension mismatch: effect {A.dim}, ray {ray.dim}")


def strength_closed(A: Effect, ray: RayProjection, tol: ToleranceConfig = DEFAULT_TOL) -> StrengthValue:
    """Closed-form strength of A along the ray.

    Works in the eigenbasis of A.  Eigenvalues at or below the relative
    cutoff eps_rank * max eigenvalue count as kernel; if the ray has a
    coefficient of magnitude above eps_rank on the kernel, it is outside
    the range and the strength is zero.  Otherwise the value is
    1 / sum(|c_i|^2 / lambda_i) over the range eigenvalues.
    """
    _check_dims(A, ray)
    w = A.eigenvalues
    coeff = A.eigenvectors.conj().T @ ray.vector
    mags = np.abs(coeff)
    cutoff = tol.eps_rank * float(w[-1])
    kernel = w <= cutoff

    near = False
    if np.any(kernel):
        kmax = float(mags[kernel].max())
        near = tol.eps_rank / 10.0 <= kmax <= tol.eps_rank * 10.0
        if kmax > tol.eps_rank:
            return StrengthValue(0.0, False, near)
    kept = ~kernel
    # An eigenvalue barely above the cutoff with real weight on it makes
    # 1/lambda blow up unstably; flag that situation as well.
    shaky = kept & (w <= 10.0 * cutoff) & (mags > tol.eps_rank)
    near = near or bool(np.any(shaky))

    total = float(np.sum(mags[kept] ** 2 / w[kept]))
    value = min(1.0, max(0.0, 1.0 / total))
    return StrengthValue(value, True, near)


def strength_bisect(A: Effect, ray: RayProjection, tol: ToleranceConfig = DEFAULT_TOL) -> float:
    """Oracle strength via bisection of t against the Loewner test t P <= A.

    Runs a fixed number of iterations so the returned bracket endpoint is
    within 1e-8 of the supremum.  Independent of strength_closed by
    construction: only the raw Loewner comparison is consulted.
    """
    _check_dims(A, ray)
    P = ray.projection.matrix

    def fits(t: float) -> bool:
        return numkern._psd_leq_hermitian(t * P, A.matrix, tol)

    if fits(1.0):
        return 1.0
    lo, hi = 0.0, 1.0
    for _ in range(BISECT_ITERATIONS):
        mid = 0.5 * (lo + hi)
        if fits(mid):
            lo = mid
        else:
            hi = mid
    return lo


def strength_two_block(
    mu: float,
    P: RayProjection,
    Q: RayProjection,
    R: RayProjection,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> float:
    """Strength of mu * P + Q along R for orthogonal rank-one P, Q.

    R must lie in the span of the two rays.  The value is
    mu / (mu + (1 - mu) * tr(PR)); degenerate positions of R (equal or
    orthogonal to P) are rejected since the two-block reduction is meant
    for genuinely mixed rays.
    """
    if not (0.0 < mu < 1.0):
        raise DomainError(f"weight mu must lie strictly between 0 and 1, got {mu!r}")
    if P.dim != Q.dim or P.dim != R.dim:
        raise DimensionError("rays must share one dimension")
    if not zero_product(P.projection, Q.projection, tol):
        raise OrthogonalityError("P and Q must be orthogonal rank-one projections")

    p, q, r = P.vector, Q.vector, R.vector
    cp = np.vdot(p, r)
    cq = np.vdot(q, r)
    residual = r - cp * p - cq * q
    if float(np.linalg.norm(residual)) > tol.eps_rank:
        raise SpanError("R lies outside the span of P and Q")

    overlap = float(np.abs(cp) ** 2)
    if overlap <= tol.eps_rank or overlap >= 1.0 - tol.eps_rank:
        raise DomainError("R coincides with or is orthogonal to P; two-block form needs a mixed ray")
    return mu / (mu + (1.0 - mu) * overlap)
