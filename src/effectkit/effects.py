"""Effects on a finite-dimensional complex Hilbert space.

An effect is a Hermitian matrix with spectrum inside [0, 1].  This module
owns the validated Effect value type plus the order-theoretic basics: the
Loewner comparison, orthocomplement, zero-product test, projections,
range projections, scalar detection, and the rank-one dominance fact
(anything under a rank-one effect is a scalar multiple of it).

Every Effect carries its spectral decomposition, computed once at
construction, so downstream functional calculus never re-diagonalizes.
A RayProjection is a unit vector and its projection matrix; the Effect
``ray.projection``, whose basis costs a complete QR, is built on first read.

An Effect also holds a stack of T effects of one dimension, as (T, n, n)
matrices, (T, n) eigenvalues and (T, n, n) eigenvectors, so the
verification suites can run each LAPACK and matmul step once for all their
trials.  ``stack[k]`` is member k, and ``leq``, ``zero_product`` and
``orthocomplement`` take stacks as well as lone effects, deciding each
member on its own.  Every member equals, bit for bit, the Effect built from
the same matrix alone.  A stacked sampler draws member k from the k-th
generator, so each trial keeps its own random stream and a report does
not depend on how trials are grouped; m effects per generator come as one
(m, T, n, n) stack of stacks, under one QR and one eigendecomposition.
``sample_effect`` and ``scalar_effect`` (``identity_effect`` and
``zero_effect`` too) are the one-member cases of the stacked sampler and of
``_scalar_stack``, ``leq`` reads the first decision of the one Loewner
kernel, ``numkern._psd_leq_both``, ``is_scalar`` is the one-matrix case of
the scalar rule ``_scalar_rule``, and ``rank_of`` and ``range_projection``
split the spectrum at the one rank cutoff, ``numkern._rank_cutoff``.

Validation follows where a matrix comes from.  Outside input goes through
``make_effect`` one matrix at a time: hermiticity, then the spectral
rules.  A matrix or stack the program builds is its own hermitization bit
for bit, so it takes the spectral rules alone, in one ``_spectral`` call.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

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
    """Hermitian matrix with spectrum in [0, 1], plus its cached eigensystem;
    or a stack of them, the arrays led by the same stack axes, (T,) or (m, T).

    ``eigenvalues`` are ascending and already clamped to [0, 1];
    ``eigenvectors`` holds the matching orthonormal columns.  Arrays are
    read-only; treat instances as immutable values.  ``len()`` and indexing
    read a stack, ``trace()`` a lone effect; the other shape raises TypeError.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[-1]

    def trace(self) -> float:
        if self.matrix.ndim != 2:
            raise TypeError("trace() takes a lone effect, not a stack")
        return float(np.trace(self.matrix).real)

    def __bool__(self) -> bool:  # every effect is true; len() would raise on a lone one
        return True

    def __len__(self) -> int:
        if self.matrix.ndim == 2:
            raise TypeError("a lone effect has no len()")
        return self.matrix.shape[0]

    def __getitem__(self, k: int | slice) -> Effect:
        if self.matrix.ndim == 2:
            raise TypeError("a lone effect cannot be indexed")
        return _effect(self.matrix[k], self.eigenvalues[k], self.eigenvectors[k])


def _effect(matrix: np.ndarray, eigenvalues: np.ndarray, eigenvectors: np.ndarray) -> Effect:
    """Assemble an Effect, lone or stacked, known to be valid."""
    return Effect(
        matrix=_locked(matrix),
        eigenvalues=_locked(np.real(eigenvalues)),
        eigenvectors=_locked(eigenvectors),
    )


def _decision(ok: np.ndarray) -> bool | np.ndarray:
    """A decision about two effects as a bool; about two stacks, one per member."""
    return bool(ok) if ok.ndim == 0 else ok


def make_effect(M: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> Effect:
    """Validate ``M`` as an effect and return it with its eigensystem.

    Hermiticity is required within eps_herm.  Eigenvalues may stick out of
    [0, 1] by at most eps_psd; such excursions are clamped and the stored
    matrix is rebuilt from the clamped spectrum.  Anything further out
    raises SpectrumOutOfRange.
    """
    return _spectral(numkern.require_hermitian(M, tol), tol)


def _spectral(H: np.ndarray, tol: ToleranceConfig) -> Effect:
    """The spectral rules of ``make_effect``, for a complex matrix or stack
    that ``hermitize`` returns bit for bit, as it returns its own output."""
    w, V = np.linalg.eigh(H)
    lo, hi = w[..., 0], w[..., -1]
    ok = (lo >= -tol.eps_psd) & (hi <= 1.0 + tol.eps_psd)
    if not ok.all():
        raise SpectrumOutOfRange(
            f"spectrum [{numkern._first(lo, ~ok):.12g}, {numkern._first(hi, ~ok):.12g}]"
            " not within [0, 1] plus eps_psd"
        )
    clamped = np.clip(w, 0.0, 1.0)
    kept = (clamped == w).all(axis=-1)
    if not kept.all():
        H = np.where(kept[..., None, None], H, numkern._from_spectrum(V, clamped))
    return _effect(H, clamped, V)


def _stack_effects(effects: Sequence[Effect]) -> Effect:
    """The stack of a sequence of lone effects of one dimension."""
    return _effect(
        np.stack([E.matrix for E in effects]),
        np.stack([E.eigenvalues for E in effects]),
        np.stack([E.eigenvectors for E in effects]),
    )


def identity_effect(n: int) -> Effect:
    return scalar_effect(n, 1.0)


def zero_effect(n: int) -> Effect:
    return scalar_effect(n, 0.0)


def scalar_effect(n: int, lam: float) -> Effect:
    """The effect lam * I; lam must be a number in [0, 1], not a bool."""
    if not numkern._is_weight(lam):
        raise SpectrumOutOfRange(f"scalar must be a number in [0, 1], got {lam!r}")
    return _scalar_stack(n, np.array([float(lam)]))[0]


def _scalar_stack(n: int, lams: np.ndarray) -> Effect:
    """The one builder of lam * I: the stack of these effects for each lam
    of a 1-d float array, every lam in [0, 1]."""
    eye = np.eye(n, dtype=np.complex128)
    V = np.broadcast_to(eye, (len(lams), n, n))  # made contiguous by _effect
    return _effect(lams[:, None, None] * eye, np.repeat(lams[:, None], n, axis=1), V)


@dataclass(frozen=True, eq=False)
class RayProjection:
    """Unit vector and the rank-one projection matrix onto its line; the Effect
    ``projection``, its basis from a complete QR, is built on first read."""

    vector: np.ndarray
    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.vector.shape[0]

    @functools.cached_property
    def projection(self) -> Effect:
        return _ray(self.vector, self.matrix)


def make_ray(v: np.ndarray) -> RayProjection:
    """Build a RayProjection from a nonzero vector, normalized here.  ``v``
    passes the array rule (``numkern._outside_array``); its faults but shape
    raise DomainError, as the zero vector does."""
    vec, P = _ray_matrix(numkern._outside_array(v, 1, "ray vector", DomainError)[0])
    return RayProjection(vector=_locked(vec), matrix=_locked(P))


def _ray(vec: np.ndarray, P: np.ndarray) -> Effect:
    """The Effect of the projection P onto the unit vector vec, or of each in a stack."""
    # Complete to an orthonormal basis: QR puts the ray (up to phase) in
    # the first column, so the remaining columns span its orthocomplement.
    Q = np.linalg.qr(vec[..., None], mode="complete")[0]
    basis = np.concatenate([Q[..., 1:], vec[..., None]], axis=-1)
    w = np.zeros(vec.shape)
    w[..., -1] = 1.0
    return _effect(P, w, basis)


def _ray_matrix(vec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Normalized vector and its projection matrix, for a vector or a (T, n)
    stack: a ray without its eigenbasis (``_ray``).

    The norm is summed from squares, so it holds only where its square is a
    normal float.  A vector of finite entries whose norm leaves that range
    (a sampled one never does) is divided by its largest real or imaginary
    part first."""
    with np.errstate(over="ignore"):
        norm = numkern._norms(vec)
    outside = ~((2.0**-511 <= norm) & (norm < 2.0**512))  # [2**-511, 2**512): roots of the normal floats
    if outside.any():
        scale = np.maximum(np.abs(vec.real), np.abs(vec.imag)).max(axis=-1, keepdims=True)
        if (scale == 0.0).any():
            raise DomainError("cannot build a ray from the zero vector")
        # Part by part: a complex division by a subnormal scale overflows.
        parts = np.stack((vec.real / scale, vec.imag / scale), axis=-1).view(np.complex128)[..., 0]
        vec = np.where(outside[..., None], parts, vec)
        norm = numkern._norms(vec)
    vec = vec / norm[..., None]
    return vec, numkern.hermitize(vec[..., :, None] * vec.conj()[..., None, :])


@dataclass(frozen=True, eq=False)
class WeakAtom:
    """Scalar multiple of a rank-one projection: weight * |ray><ray|."""

    weight: float
    ray: RayProjection

    def __post_init__(self) -> None:
        if not numkern._is_weight(self.weight):
            raise DomainError(f"weak atom weight must be a number in [0, 1], got {self.weight!r}")

    def to_effect(self) -> Effect:
        P = self.ray.projection
        w = P.eigenvalues * self.weight
        return _effect(self.weight * P.matrix, w, P.eigenvectors)


def sample_effect(n: int, seed: int | np.random.Generator, tol: ToleranceConfig = DEFAULT_TOL) -> Effect:
    """Seeded random Effect (Haar eigenbasis, uniform spectrum)."""
    return _sample_effect_stack(n, [numkern._as_generator(seed)], tol)[0]


def _sample_effect_stack(
    n: int, rngs: Sequence[np.random.Generator], tol: ToleranceConfig = DEFAULT_TOL, m: int | None = None
) -> Effect:
    """Stack of ``sample_effect(n, rng, tol)`` for each generator, drawn as
    it draws; with m, the stack of the m stacks drawn from each in turn."""
    return _spectral(numkern._random_effect_stack(n, rngs, m), tol)


def sample_ray(n: int, seed: int | np.random.Generator) -> RayProjection:
    """Seeded random RayProjection, uniform on the unit sphere."""
    return make_ray(numkern.random_ray(n, seed))


def _sample_ray_stack(n: int, rngs: Sequence[np.random.Generator], m: int | None = None) -> Effect:
    """Stack of the projections ``sample_ray(n, rng).projection`` for each
    generator; with m, the stack of the m stacks drawn from each in turn."""
    return _ray(*_ray_matrix(numkern._random_ray_stack(n, rngs, m)))


def _same_dim(A: Effect | RayProjection, B: Effect | RayProjection) -> None:
    if A.dim != B.dim:
        raise DimensionError(f"dimension mismatch: {A.dim} vs {B.dim}")


def leq(A: Effect, B: Effect, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Loewner order on effects: True iff B - A is PSD within tolerance.

    Effect matrices are exactly Hermitian, so they are compared without
    validating them again.  For two stacks, a bool array with one
    decision per member pair.
    """
    _same_dim(A, B)
    return _decision(numkern._psd_leq_both(A.matrix, B.matrix, tol)[0])


def effects_equal(A: Effect, B: Effect, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Equality convention: Frobenius distance at most eps_eq."""
    _same_dim(A, B)
    return numkern.frobenius(A.matrix - B.matrix) <= tol.eps_eq


def orthocomplement(A: Effect) -> Effect:
    """The complementary effect I - A (of each member, for a stack)."""
    n = A.dim
    matrix = np.eye(n, dtype=np.complex128) - A.matrix
    w = (1.0 - A.eigenvalues)[..., ::-1].copy()
    V = A.eigenvectors[..., ::-1].copy()
    return _effect(matrix, w, V)


def zero_product(A: Effect, B: Effect, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """True iff the operator product AB vanishes within tolerance.

    For effects this is symmetric in A and B and equivalent to the range
    projections being orthogonal.  For two stacks, a bool array with one
    decision per member pair.
    """
    _same_dim(A, B)
    return _decision(_zero_product(A.matrix, B.matrix, tol))


def _zero_product(A: np.ndarray, B: np.ndarray, tol: ToleranceConfig) -> np.ndarray:
    """The decision of ``zero_product`` on two matrices or stacks, as a bool array."""
    return _vanishes(A @ B, A, B, tol)


def _vanishes(M: np.ndarray, A: np.ndarray, B: np.ndarray, tol: ToleranceConfig) -> np.ndarray:
    """The one zero-product rule, for M a product of A and B (matrices or
    stacks of one shape): ||M||_F <= eps_eq * max(1, ||A||_F ||B||_F)."""
    return numkern.frobenius(M) <= tol.eps_eq * np.maximum(1.0, numkern.frobenius(A) * numkern.frobenius(B))


def is_projection(A: Effect, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """True iff every eigenvalue is within eps_psd of 0 or 1."""
    w = A.eigenvalues
    return bool(np.all(np.minimum(w, 1.0 - w) <= tol.eps_psd))


def rank_of(A: Effect, tol: ToleranceConfig = DEFAULT_TOL) -> int:
    """Numerical rank: eigenvalues above the relative cutoff eps_rank * max."""
    return int(np.count_nonzero(A.eigenvalues > numkern._rank_cutoff(A.eigenvalues, tol)))


def range_projection(A: Effect, tol: ToleranceConfig = DEFAULT_TOL) -> Effect:
    """Orthogonal projection onto the numerical range of A."""
    kept = A.eigenvalues > numkern._rank_cutoff(A.eigenvalues, tol)
    V = A.eigenvectors
    Vk = V[:, kept]
    matrix = numkern.hermitize(Vk @ Vk.conj().T)
    order = np.argsort(kept, kind="stable")  # kernel vectors first, range last
    w = np.zeros(A.dim)
    w[np.count_nonzero(~kept):] = 1.0
    return _effect(matrix, w, V[:, order])


def is_scalar(A: Effect, tol: ToleranceConfig = DEFAULT_TOL) -> tuple[bool, float | None]:
    """Detect A = lam * I; returns (True, lam) or (False, None)."""
    ok, lam = _scalar_rule(A.matrix, tol)
    return (True, float(lam)) if ok else (False, None)


def _scalar_rule(M: np.ndarray, tol: ToleranceConfig) -> tuple[np.ndarray, np.ndarray]:
    """The one scalar rule, for a matrix or each member of a stack: with
    lam = tr(M) / n, M is lam * I when ||M - lam I||_F <= eps_eq.  Returns
    the decisions and the lams."""
    n = M.shape[-1]
    lam = np.trace(M, axis1=-2, axis2=-1).real / n
    return numkern.frobenius(M - lam[..., None, None] * np.eye(n)) <= tol.eps_eq, lam


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
