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
R inside the span reduces to mu / (mu + (1 - mu) tr(PR)).  No route reads
the basis of ``ray.projection``; the CLI's ``strength`` runs the first two.

The closed form and the two-block reduction are each one routine for a
lone effect and ray or for stacks of them; the strength-oracle suite runs
its trials through them, bit for bit as one by one.  The bisection is one
routine for one effect, which the suite maps over its members.  Each of
its Loewner tests reads lambda_min(A - t P) from ``numkern._loewner_spectrum``,
the one Loewner kernel, and a test runs only when the earlier tests leave
its outcome open: on average 6 of the 28 at n = 2 and 12 at n = 128 for
sampled effects and rays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numkern
from .effects import Effect, RayProjection, _operands, _ray_matrix, _sample_effect_stack, _spectral, _zero_product
from .errors import DomainError, OrthogonalityError, SpanError
from .numkern import DEFAULT_TOL, ToleranceConfig
from .suites import Suite, _Block

__all__ = [
    "StrengthValue",
    "strength_closed",
    "strength_bisect",
    "strength_two_block",
    "BISECT_ITERATIONS",
]

# Fixed iteration count bringing the bracket width below 1e-8.
BISECT_ITERATIONS = math.ceil(math.log2(1e8))
# LAPACK bounds the error of a computed Hermitian eigenvalue by
# p(n) * eps * ||D||_2, p(n) a modestly growing function of n (LAPACK Users'
# Guide, 3rd ed., section 4.7); the bisection takes p(n) = 1e3 n.
_EIGVALSH_ERROR = 1e3 * np.finfo(float).eps


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


def strength_closed(A: Effect, ray: RayProjection, tol: ToleranceConfig = DEFAULT_TOL) -> StrengthValue:
    """Closed-form strength of A along the ray.

    Works in the eigenbasis of A.  Eigenvalues at or below the relative
    cutoff eps_rank * max eigenvalue count as kernel; if the ray has a
    coefficient of magnitude above eps_rank on the kernel, it is outside
    the range and the strength is zero.  Otherwise the value is
    1 / sum(|c_i|^2 / lambda_i) over the range eigenvalues.
    """
    _operands(A, ray, lone="strength_closed")
    value, in_range, near = _closed(A.eigenvalues, A.eigenvectors, ray.vector, tol)
    return StrengthValue(float(value), bool(in_range), bool(near))


def _closed(w: np.ndarray, V: np.ndarray, vec: np.ndarray, tol: ToleranceConfig):
    """``strength_closed`` of the effect with ascending eigenvalues w and
    eigenvectors V along the unit vector vec, as (value, in_range, near);
    for stacks of them, arrays with one entry per member."""
    mags = np.abs(V.conj().swapaxes(-1, -2) @ vec[..., None])[..., 0]
    cutoff = numkern._rank_cutoff(w, tol)
    kernel = w <= cutoff  # a prefix of each row, the eigenvalues ascending
    # An eigenvalue barely above the cutoff with real weight on it makes
    # 1/lambda blow up unstably; flag that situation as well.
    near = (~kernel & (w <= 10.0 * cutoff) & (mags > tol.eps_rank)).any(axis=-1)
    # Kept: the loop gives an empty kernel the same floats 13-21 us later at n = 2, 3;
    # without this return cli-docs req_p50_ms rose 5% (median, 10 of 12 alternating rounds).
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

    The result lies within 2^-27 below the largest t the Loewner test accepts,
    which overshoots the supremum by about t^2 sum(|c_i|^2 / lambda_i^2) times
    the test's slack and so grows with n: by up to 9.3e-10 at n = 2 and 1.5e-8
    at n = 16 against a 40-digit reference.  No 1e-8 bound holds; the fix is
    open.  Independent of strength_closed by
    construction: only the raw Loewner comparison is consulted.  A test
    whose outcome the values lambda_min(A - t P) at earlier tested points
    already fix is skipped.  The skip reads only those values and the
    Frobenius norms of A and P, never A's eigenvalues or eigenvectors, and
    it changes no outcome, so the result is the float that running every
    test gives.
    """
    _operands(A, ray, lone="strength_bisect")
    return float(_bisect(ray.matrix, A.matrix, tol))


def _bisect(P: np.ndarray, A: np.ndarray, tol: ToleranceConfig) -> float:
    """``strength_bisect`` of the ray projection P against the matrix A.

    The bracket [lo, lo + step] halves BISECT_ITERATIONS times by the
    Loewner test of t P <= A at t = lo + step, which is its midpoint bit for
    bit, its ends being multiples of step.  The test holds iff
    lambda(t) = lambda_min(A - t P) is at least the kernel's slack, and
    lambda is concave in t, as the smallest eigenvalue of an affine family
    (Bhatia, Matrix Analysis, ch. III).  So the values computed at the two
    tested points nearest the bracket on each side bound lambda(t): from
    below by the chord through the nearest point on each side, from above by
    the line through the two points of one side.  A test runs only when
    these bounds, widened by the eigenvalue error of each computed value,
    leave its outcome open; every other outcome is the one the test gives,
    so the result is the same float as with every test run.
    """
    lam, slack = _lambda_min(P, A, tol)
    if lam >= slack:
        return 1.0
    norm_a, norm_p = numkern.frobenius(A), numkern.frobenius(P)
    # Each computed lambda is within delta of the exact one, rounding of
    # A - t P included.  So the test holds at t if the exact lambda(t) is at
    # least -eps_psd + delta, and fails if it is below the slack's least
    # value less delta, ||A - t P||_F being at most ||A||_F + t ||P||_F.
    delta = _EIGVALSH_ERROR * len(A) * max(1.0, norm_a + norm_p)
    holds_from = -tol.eps_psd + delta
    left: list[tuple[float, float]] = []  # tested points (t, lambda) that held, the nearest last
    right = [(1.0, lam)]  # those that failed, the nearest first
    lo, step = 0.0, 1.0
    for _ in range(BISECT_ITERATIONS):
        step *= 0.5
        t = lo + step
        fails_below = -tol.eps_psd * max(1.0, norm_a + t * norm_p) * (1.0 + 1e-9) - delta
        # Two more bounds never decide: the chord from lambda(0) >= -eps_psd
        # to a failed point stays below -eps_psd, and lambda(t) <= lambda at
        # a held point (P >= 0) allows the slack that point passed, which is
        # no lower than the least slack at t.
        if left and _chord(left[-1], right[0], t) - delta >= holds_from:
            holds = True
        elif (len(left) == 2 and _extended(*left, t, delta) < fails_below) or (
            len(right) == 2 and _extended(right[1], right[0], t, delta) < fails_below
        ):
            holds = False
        else:
            lam, slack = _lambda_min(t * P, A, tol)
            holds = lam >= slack
            if holds:
                left = [*left[-1:], (t, lam)]
            else:
                right = [(t, lam), right[0]]
        if holds:
            lo = t
    return lo


def _lambda_min(tP: np.ndarray, A: np.ndarray, tol: ToleranceConfig) -> tuple[float, float]:
    """lambda_min(A - tP) and the slack it is tested against."""
    w, slack = numkern._loewner_spectrum(tP, A, tol)
    return float(w[0]), float(slack)


def _chord(a: tuple[float, float], b: tuple[float, float], t: float) -> float:
    """The line through the points a and b at t."""
    (t0, l0), (t1, l1) = a, b
    return l0 + (t - t0) * (l1 - l0) / (t1 - t0)


def _extended(far: tuple[float, float], near: tuple[float, float], t: float, delta: float) -> float:
    """Upper bound on lambda(t) for t beyond near, from the line through two
    tested points and their error delta: lambda(near) is at least the chord
    from lambda(far) to lambda(t).  Each error counts 1 + r or r times, r
    being the ratio of the extension to the points' spacing."""
    (t0, l0), (t1, l1) = far, near
    r = (t - t1) / (t1 - t0)
    return l1 + r * (l1 - l0) + delta * (1.0 + 2.0 * r)


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
    if not (numkern._is_number(mu) and 0.0 < mu < 1.0):
        raise DomainError(f"weight mu must lie strictly between 0 and 1, got {mu!r}")
    _operands(P, Q, R)
    vectors = (P.vector[None], Q.vector[None], R.vector[None])
    return float(_two_block(np.array([mu]), *vectors, P.matrix, Q.matrix, tol)[0])


def _two_block(
    mu: np.ndarray, p: np.ndarray, q: np.ndarray, r: np.ndarray, P, Q, tol: ToleranceConfig
) -> np.ndarray:
    """``strength_two_block`` of each member: weights mu (T,), unit vectors
    p, q, r (T, n), and P, Q the projection matrices onto p and q."""
    if not np.all(_zero_product(P, Q, tol)):
        raise OrthogonalityError("P and Q must be orthogonal rank-one projections")
    cp, cq = numkern._vdot(p, r), numkern._vdot(q, r)
    residual = r - cp[:, None] * p - cq[:, None] * q
    if (numkern._norms(residual) > tol.eps_rank).any():
        raise SpanError("R lies outside the span of P and Q")
    overlap = numkern._overlaps(p, r)
    if ((overlap <= tol.eps_rank) | (overlap >= 1.0 - tol.eps_rank)).any():
        raise DomainError("R coincides with or is orthogonal to P; two-block form needs a mixed ray")
    return mu / (mu + (1.0 - mu) * overlap)


def _strength_oracle_step(seeds: list[int], n: int, tol: ToleranceConfig, block: _Block) -> list[tuple]:
    """Closed form against bisection, and the two-block reduction."""
    rngs = block.rngs
    A = _sample_effect_stack(n, rngs, tol)
    vec, ray = _ray_matrix(numkern._random_ray_stack(n, rngs))
    bisected = np.array([_bisect(P, a, tol) for P, a in zip(ray, A.matrix)])
    gap = np.abs(_closed(A.eigenvalues, A.eigenvectors, vec, tol)[0] - bisected)
    checks = [("closed-vs-bisect", gap, tol.estimate_limit, {"A": A.matrix, "v": vec})]
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
        E = _spectral(mu[:, None, None] * P + Q, tol)
        closed = _closed(E.eigenvalues, E.eigenvectors, r, tol)[0]
        two_block = np.abs(closed - _two_block(mu, p, q, r, P, Q, tol))
        checks.append(("two-block", two_block, tol.eps_rank, {"E": E.matrix, "r": r}))
    return checks


_STRENGTH_ORACLE = Suite("strength-oracle", ("n",), _strength_oracle_step)
