"""Effects on a finite-dimensional complex Hilbert space.

An effect is a Hermitian matrix with spectrum inside [0, 1].  This module
owns the validated Effect value type plus the order-theoretic basics: the
Loewner comparison, orthocomplement, zero-product test, projections,
range projections, scalar detection, and the rank-one dominance fact
(anything under a rank-one effect is a scalar multiple of it).

Every Effect carries its spectral decomposition, computed once at
construction, so downstream functional calculus never re-diagonalizes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numkern
from .errors import (
    DimensionError,
    DomainError,
    OrderViolation,
    RankError,
    SpectrumOutOfRange,
)
from .numkern import DEFAULT_TOL, ToleranceConfig

__all__ = [
    "Effect",
    "RayProjection",
    "WeakAtom",
    "make_effect",
    "identity_effect",
    "zero_effect",
    "scalar_effect",
    "make_ray",
    "sample_effect",
    "sample_ray",
    "leq",
    "effects_equal",
    "orthocomplement",
    "zero_product",
    "is_projection",
    "range_projection",
    "rank_of",
    "is_scalar",
    "scalar_multiple_of_rank_one",
]


def _locked(a: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(a)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class Effect:
    """Hermitian matrix with spectrum in [0, 1], plus its cached eigensystem.

    ``eigenvalues`` are ascending and already clamped to [0, 1];
    ``eigenvectors`` holds the matching orthonormal columns.  Arrays are
    read-only; treat instances as immutable values.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def trace(self) -> float:
        return float(np.trace(self.matrix).real)


def _effect(matrix: np.ndarray, eigenvalues: np.ndarray, eigenvectors: np.ndarray) -> Effect:
    """Assemble an Effect from parts that are already known to be valid."""
    return Effect(
        matrix=_locked(matrix),
        eigenvalues=_locked(np.real(eigenvalues)),
        eigenvectors=_locked(eigenvectors),
    )


def make_effect(M: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> Effect:
    """Validate ``M`` as an effect and return it with its eigensystem.

    Hermiticity is required within eps_herm.  Eigenvalues may stick out of
    [0, 1] by at most eps_psd; such excursions are clamped and the stored
    matrix is rebuilt from the clamped spectrum.  Anything further out
    raises SpectrumOutOfRange.
    """
    dec = numkern.eig_hermitian(M, tol)
    w = dec.eigenvalues
    if not (w[0] >= -tol.eps_psd and w[-1] <= 1.0 + tol.eps_psd):
        raise SpectrumOutOfRange(
            f"spectrum [{w[0]:.12g}, {w[-1]:.12g}] not within [0, 1] plus eps_psd"
        )
    clamped = np.clip(w, 0.0, 1.0)
    if np.array_equal(clamped, w):
        matrix = numkern.hermitize(numkern.as_complex_matrix(M))
    else:
        V = dec.eigenvectors
        matrix = numkern.hermitize((V * clamped) @ V.conj().T)
    return _effect(matrix, clamped, dec.eigenvectors)


def identity_effect(n: int) -> Effect:
    eye = np.eye(n, dtype=np.complex128)
    return _effect(eye, np.ones(n), eye.copy())


def zero_effect(n: int) -> Effect:
    eye = np.eye(n, dtype=np.complex128)
    return _effect(np.zeros((n, n), dtype=np.complex128), np.zeros(n), eye)


def scalar_effect(n: int, lam: float) -> Effect:
    """The effect lam * I; lam must lie in [0, 1]."""
    if not (0.0 <= lam <= 1.0):
        raise SpectrumOutOfRange(f"scalar {lam!r} outside [0, 1]")
    eye = np.eye(n, dtype=np.complex128)
    return _effect(lam * eye, np.full(n, float(lam)), eye.copy())


@dataclass(frozen=True, eq=False)
class RayProjection:
    """Unit vector together with the rank-one projection onto its line."""

    vector: np.ndarray
    projection: Effect

    @property
    def dim(self) -> int:
        return self.vector.shape[0]


def make_ray(v: np.ndarray) -> RayProjection:
    """Build a RayProjection from any nonzero vector (normalized here)."""
    vec = np.asarray(v, dtype=np.complex128).reshape(-1)
    if vec.shape[0] < 1:
        raise DimensionError("ray vector must have positive length")
    norm = np.linalg.norm(vec)
    if norm < 1e-300:
        raise DomainError("cannot build a ray from the zero vector")
    vec = vec / norm
    n = vec.shape[0]
    # Complete to an orthonormal basis: QR puts the ray (up to phase) in
    # the first column, so the remaining columns span its orthocomplement.
    Q = np.linalg.qr(vec.reshape(n, 1), mode="complete")[0]
    basis = np.column_stack([Q[:, 1:], vec]) if n > 1 else vec.reshape(1, 1)
    w = np.zeros(n)
    w[-1] = 1.0
    P = np.outer(vec, vec.conj())
    return RayProjection(vector=_locked(vec), projection=_effect(numkern.hermitize(P), w, basis))


@dataclass(frozen=True, eq=False)
class WeakAtom:
    """Scalar multiple of a rank-one projection: weight * |ray><ray|."""

    weight: float
    ray: RayProjection

    def __post_init__(self) -> None:
        if not (0.0 <= self.weight <= 1.0):
            raise DomainError(f"weak atom weight {self.weight!r} outside [0, 1]")

    def to_effect(self) -> Effect:
        P = self.ray.projection
        w = P.eigenvalues * self.weight
        return _effect(self.weight * P.matrix, w, P.eigenvectors)


def sample_effect(n: int, seed: int | np.random.Generator, tol: ToleranceConfig = DEFAULT_TOL) -> Effect:
    """Seeded random Effect (Haar eigenbasis, uniform spectrum)."""
    return make_effect(numkern.random_effect(n, seed), tol)


def sample_ray(n: int, seed: int | np.random.Generator) -> RayProjection:
    """Seeded random RayProjection, uniform on the unit sphere."""
    return make_ray(numkern.random_ray(n, seed))


def _same_dim(A: Effect, B: Effect) -> None:
    if A.dim != B.dim:
        raise DimensionError(f"dimension mismatch: {A.dim} vs {B.dim}")


def leq(A: Effect, B: Effect, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Loewner order on effects: True iff B - A is PSD within tolerance.

    Effect matrices are exactly Hermitian, so they are compared without
    validating them again.
    """
    _same_dim(A, B)
    return numkern._psd_leq_hermitian(A.matrix, B.matrix, tol)


def effects_equal(A: Effect, B: Effect, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Equality convention: Frobenius distance at most eps_eq."""
    _same_dim(A, B)
    return numkern.frobenius(A.matrix - B.matrix) <= tol.eps_eq


def orthocomplement(A: Effect) -> Effect:
    """The complementary effect I - A."""
    n = A.dim
    matrix = np.eye(n, dtype=np.complex128) - A.matrix
    w = (1.0 - A.eigenvalues)[::-1].copy()
    V = A.eigenvectors[:, ::-1].copy()
    return _effect(matrix, w, V)


def zero_product(A: Effect, B: Effect, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """True iff the operator product AB vanishes within tolerance.

    For effects this is symmetric in A and B and equivalent to the range
    projections being orthogonal.
    """
    _same_dim(A, B)
    norm = numkern.frobenius(A.matrix @ B.matrix)
    scale = max(1.0, numkern.frobenius(A.matrix) * numkern.frobenius(B.matrix))
    return norm <= tol.eps_eq * scale


def is_projection(A: Effect, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """True iff every eigenvalue is within eps_psd of 0 or 1."""
    w = A.eigenvalues
    return bool(np.all(np.minimum(w, 1.0 - w) <= tol.eps_psd))


def _kept_mask(A: Effect, tol: ToleranceConfig) -> np.ndarray:
    w = A.eigenvalues
    return w > tol.eps_rank * float(w[-1])


def rank_of(A: Effect, tol: ToleranceConfig = DEFAULT_TOL) -> int:
    """Numerical rank: eigenvalues above the relative cutoff eps_rank * max."""
    return int(np.count_nonzero(_kept_mask(A, tol)))


def range_projection(A: Effect, tol: ToleranceConfig = DEFAULT_TOL) -> Effect:
    """Orthogonal projection onto the numerical range of A."""
    kept = _kept_mask(A, tol)
    V = A.eigenvectors
    Vk = V[:, kept]
    matrix = numkern.hermitize(Vk @ Vk.conj().T)
    order = np.argsort(kept, kind="stable")  # kernel vectors first, range last
    w = np.zeros(A.dim)
    w[np.count_nonzero(~kept):] = 1.0
    return _effect(matrix, w, V[:, order])


def is_scalar(A: Effect, tol: ToleranceConfig = DEFAULT_TOL) -> tuple[bool, float | None]:
    """Detect A = lam * I; returns (True, lam) or (False, None)."""
    lam = A.trace() / A.dim
    if numkern.frobenius(A.matrix - lam * np.eye(A.dim)) <= tol.eps_eq:
        return True, float(lam)
    return False, None


def scalar_multiple_of_rank_one(A: Effect, B: Effect, tol: ToleranceConfig = DEFAULT_TOL) -> float | None:
    """Given rank-one B and A <= B, return t in [0, 1] with A = t B.

    Rank-one dominance makes such a t exist; it is recovered from traces.
    Returns None if the reconstruction residual fails the eps_eq bound,
    which signals numerically inconsistent inputs.
    """
    _same_dim(A, B)
    if rank_of(B, tol) != 1:
        raise RankError("B must have rank one")
    if not leq(A, B, tol):
        raise OrderViolation("A is not below B in the Loewner order")
    denom = B.trace()
    t = min(1.0, max(0.0, A.trace() / denom))
    if numkern.frobenius(A.matrix - t * B.matrix) > tol.eps_eq:
        return None
    return t
