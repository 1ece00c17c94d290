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

Each route is one routine for a lone effect and ray or for stacks of
them; the strength-oracle suite runs its trials through the stacked
routes, bit for bit as one by one.  Every Loewner test is the first
decision of ``numkern._psd_leq_both``.  The bisection of one effect
keeps lone tests on purpose: it makes 28, and each costs more as a
one-member stack (1-23 us more at n = 2-32 on a shared 2-vCPU host).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numkern
from .effects import Effect, RayProjection, _make_effect_stack, _ray_matrix, _sample_effect_stack, _zero_product
from .errors import (
    DimensionError,
    DomainError,
    OrthogonalityError,
    SpanError,
)
from .numkern import DEFAULT_TOL, ToleranceConfig
from .suites import VerificationReport, _analog, _example, _SuiteState, _trial_blocks

__all__ = [
    "StrengthValue",
    "strength_closed",
    "strength_bisect",
    "strength_two_block",
    "BISECT_ITERATIONS",
]

# Fixed iteration count bringing the bracket width below 1e-8.
BISECT_ITERATIONS = math.ceil(math.log2(1e8))


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
    value, in_range, near = _closed(A.eigenvalues, A.eigenvectors, ray.vector, tol)
    return StrengthValue(float(value), bool(in_range), bool(near))


def _closed(w: np.ndarray, V: np.ndarray, vec: np.ndarray, tol: ToleranceConfig):
    """``strength_closed`` of the effect with ascending eigenvalues w and
    eigenvectors V along the unit vector vec, as (value, in_range, near);
    for stacks of them, arrays with one entry per member."""
    mags = np.abs(V.conj().swapaxes(-1, -2) @ vec[..., None])[..., 0]
    cutoff = tol.eps_rank * w[..., -1:]
    kernel = w <= cutoff  # a prefix of each row, the eigenvalues ascending
    # An eigenvalue barely above the cutoff with real weight on it makes
    # 1/lambda blow up unstably; flag that situation as well.
    near = (~kernel & (w <= 10.0 * cutoff) & (mags > tol.eps_rank)).any(axis=-1)
    if not kernel.any():
        return _inverse_sum(mags, w), np.ones_like(near), near
    kmax = np.where(kernel, mags, 0.0).max(axis=-1)
    in_range = ~(kmax > tol.eps_rank)
    near = ((tol.eps_rank / 10.0 <= kmax) & (kmax <= tol.eps_rank * 10.0)) | (in_range & near)
    # Summed over the range eigenvalues, per kernel size, so that each sum
    # adds the terms of a lone effect in the same order.
    sizes = np.count_nonzero(kernel, axis=-1)
    value = np.zeros(np.shape(sizes))
    for size in set(np.ravel(sizes).tolist()):
        rows = (sizes == size) & in_range
        value[rows] = _inverse_sum(mags[..., size:][rows], w[..., size:][rows])
    return value, in_range, near


def _inverse_sum(mags: np.ndarray, w: np.ndarray) -> np.ndarray:
    """1 / sum(mags^2 / w) along the last axis, clamped to [0, 1]."""
    return np.minimum(1.0, np.maximum(0.0, 1.0 / np.sum(mags**2 / w, axis=-1)))


def strength_bisect(A: Effect, ray: RayProjection, tol: ToleranceConfig = DEFAULT_TOL) -> float:
    """Oracle strength via bisection of t against the Loewner test t P <= A.

    Runs a fixed number of iterations so the returned bracket endpoint is
    within 1e-8 of the supremum.  Independent of strength_closed by
    construction: only the raw Loewner comparison is consulted.
    """
    _check_dims(A, ray)
    return float(_bisect(ray.projection.matrix, A.matrix, tol))


def _bisect(P: np.ndarray, A: np.ndarray, tol: ToleranceConfig):
    """``strength_bisect`` of the ray projection P against the effect matrix
    A, or of each member of stacks of them, each step one stacked Loewner
    test of t_k P_k against A_k.

    The bracket [lo, lo + step] halves exactly, its ends being multiples of
    step, so lo + step is its midpoint bit for bit.
    """
    # Kept lone: `strength --oracle` bisects one effect, and a one-member stack costs more per test.
    stacked = P.ndim == 3

    def fits(t):
        return numkern._psd_leq_both((t[:, None, None] if stacked else t) * P, A, tol)[0]

    top = fits(np.ones(len(P)) if stacked else 1.0)
    if np.all(top):
        return top * 1.0
    # A NumPy float step multiplies the NumPy bool of a lone test quickly.
    lo, step = np.zeros(len(P)) if stacked else 0.0, np.float64(1.0)
    for _ in range(BISECT_ITERATIONS):
        step *= 0.5
        lo = lo + step * fits(lo + step)
    return np.where(top, 1.0, lo)


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
    vectors = (P.vector[None], Q.vector[None], R.vector[None])
    return float(_two_block(np.array([mu]), *vectors, P.projection.matrix, Q.projection.matrix, tol)[0])


def _two_block(
    mu: np.ndarray, p: np.ndarray, q: np.ndarray, r: np.ndarray, P, Q, tol: ToleranceConfig
) -> np.ndarray:
    """``strength_two_block`` of each member: weights mu (T,), unit vectors
    p, q, r (T, n), and P, Q the projection matrices onto p and q."""
    if not np.all(_zero_product(P, Q, tol)):
        raise OrthogonalityError("P and Q must be orthogonal rank-one projections")
    cp, cq = numkern._vdot(p, r), numkern._vdot(q, r)
    residual = r - cp[:, None] * p - cq[:, None] * q
    if (numkern._vector_norm(residual) > tol.eps_rank).any():
        raise SpanError("R lies outside the span of P and Q")
    overlap = numkern._overlaps(p, r)
    if ((overlap <= tol.eps_rank) | (overlap >= 1.0 - tol.eps_rank)).any():
        raise DomainError("R coincides with or is orthogonal to P; two-block form needs a mixed ray")
    return mu / (mu + (1.0 - mu) * overlap)


def _oracle_gap_limit(tol: ToleranceConfig) -> float:
    """The largest gap between the closed form and bisection that passes:
    100 * eps_rank, 1e-6 at the default tolerances."""
    return 100 * tol.eps_rank


def _strength_oracle_suite(trials: int, seed: int, tol: ToleranceConfig, n: int) -> VerificationReport:
    """Closed form against bisection, and the two-block reduction."""
    state = _SuiteState("strength-oracle", trials, seed)
    for rngs in _trial_blocks(seed, range(trials), n):
        A = _sample_effect_stack(n, rngs, tol)
        vec, ray = _ray_matrix(numkern._random_ray_stack(n, rngs))
        gap = np.abs(_closed(A.eigenvalues, A.eigenvectors, vec, tol)[0] - _bisect(ray, A.matrix, tol))
        check = _analog(gap, _oracle_gap_limit(tol))
        checks = [(check, lambda k: _example("closed-vs-bisect", A=A.matrix[k]))]
        if n >= 2:
            V = numkern._haar_unitary_stack(n, rngs)
            theta = [rng.uniform(0.15, math.pi / 2 - 0.15) for rng in rngs]
            phase = [rng.uniform(0.0, 2.0 * math.pi) for rng in rngs]
            mu = np.array([rng.uniform(0.05, 0.95) for rng in rngs])
            p, P = _ray_matrix(V[..., 0])
            q, Q = _ray_matrix(V[..., 1])
            cos = np.array([math.cos(t) for t in theta])[:, None]
            sin = np.array([math.sin(t) * np.exp(1j * f) for t, f in zip(theta, phase)])[:, None]
            r, _ = _ray_matrix(cos * V[..., 0] + sin * V[..., 1])
            E = _make_effect_stack(mu[:, None, None] * P + Q, tol)
            closed = _closed(E.eigenvalues, E.eigenvectors, r, tol)[0]
            check = _analog(np.abs(closed - _two_block(mu, p, q, r, P, Q, tol)), tol.eps_rank)
            checks.append((check, lambda k: _example("two-block", E=E.matrix[k])))
        state.record(*checks)
    return state.report()
