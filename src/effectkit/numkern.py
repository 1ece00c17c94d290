"""Dense Hermitian numeric kernel.

Small self-contained layer over numpy used by every other module:
eigendecomposition of Hermitian matrices, the Loewner comparison test,
matrix square roots and pseudo-inverse square roots, and seeded sampling
of Haar unitaries, random effects, and random rays.

All randomness flows through numpy's PCG64 generator
(``numpy.random.default_rng``), so every sampler is reproducible from an
integer seed.  Samplers also accept an already-constructed
``numpy.random.Generator`` so that composite experiments can derive
per-trial streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DimensionError,
    HermiticityViolation,
    NotPositiveSemidefinite,
)

__all__ = [
    "ToleranceConfig",
    "DEFAULT_TOL",
    "EigenDecomp",
    "as_complex_matrix",
    "frobenius",
    "hermitize",
    "require_hermitian",
    "eig_hermitian",
    "psd_leq",
    "mat_sqrt",
    "pinv_sqrt",
    "haar_unitary",
    "random_effect",
    "random_ray",
]


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical tolerances shared across the package.

    eps_psd   slack for positive semidefiniteness tests and eigenvalue clamping
    eps_rank  relative eigenvalue cutoff separating range from kernel
    eps_eq    Frobenius-norm threshold for matrix equality
    eps_herm  relative threshold for the hermiticity check
    """

    eps_psd: float = 1e-9
    eps_rank: float = 1e-8
    eps_eq: float = 1e-9
    eps_herm: float = 1e-10

    def __post_init__(self) -> None:
        for name in ("eps_psd", "eps_rank", "eps_eq", "eps_herm"):
            value = getattr(self, name)
            if not (0.0 < value < 1e-3):
                raise ValueError(f"{name} must lie strictly between 0 and 1e-3, got {value!r}")

    def scaled(self, factor: float) -> "ToleranceConfig":
        """Return a copy with every threshold multiplied by ``factor``."""
        if factor <= 0.0:
            raise ValueError("tolerance scale factor must be positive")
        return replace(
            self,
            eps_psd=self.eps_psd * factor,
            eps_rank=self.eps_rank * factor,
            eps_eq=self.eps_eq * factor,
            eps_herm=self.eps_herm * factor,
        )


DEFAULT_TOL = ToleranceConfig()


@dataclass(frozen=True)
class EigenDecomp:
    """Eigenvalues (real, ascending) and matching orthonormal column eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def as_complex_matrix(M: np.ndarray) -> np.ndarray:
    """Coerce to a square complex128 array, raising DimensionError otherwise."""
    A = np.asarray(M, dtype=np.complex128)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] < 1:
        raise DimensionError(f"expected a square matrix, got shape {A.shape}")
    return A


def frobenius(M: np.ndarray) -> float:
    return float(np.linalg.norm(M))


def hermitize(M: np.ndarray) -> np.ndarray:
    """Symmetrize round-off: return (M + M*)/2."""
    return 0.5 * (M + M.conj().T)


def require_hermitian(M: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Validate hermiticity of ``M`` and return the hermitized copy.

    The defect ||M - M*|| is measured relative to max(1, ||M||) so the
    check is scale-aware without going vacuous near zero.  A matrix whose
    norm is not finite (a NaN or inf entry) is rejected first: an inf
    entry would otherwise meet the infinite bound.
    """
    A = as_complex_matrix(M)
    scale = frobenius(A)
    if not math.isfinite(scale):
        raise HermiticityViolation(f"matrix norm is {scale}: non-finite entries or overflow")
    defect = frobenius(A - A.conj().T)
    if not (defect <= tol.eps_herm * max(1.0, scale)):
        raise HermiticityViolation(f"matrix is not Hermitian: defect {defect:.3e}")
    return hermitize(A)


def eig_hermitian(M: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> EigenDecomp:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    Backed by LAPACK via numpy.linalg.eigh; the returned eigenvector
    columns are orthonormal and V diag(w) V* reconstructs the input to
    machine precision at the matrix sizes this package targets.
    """
    A = require_hermitian(M, tol)
    w, V = np.linalg.eigh(A)
    return EigenDecomp(eigenvalues=w, eigenvectors=V)


def psd_leq(M: np.ndarray, N: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Loewner comparison: True iff N - M is PSD within tolerance.

    The slack is eps_psd * max(1, ||N - M||_F), so the test is reflexive
    and tolerant of round-off on the scale of the difference itself.
    """
    A = require_hermitian(M, tol)
    B = require_hermitian(N, tol)
    if A.shape != B.shape:
        raise DimensionError(f"shape mismatch: {A.shape} vs {B.shape}")
    return _psd_leq_hermitian(A, B, tol)


def _psd_leq_hermitian(A: np.ndarray, B: np.ndarray, tol: ToleranceConfig) -> bool:
    """The comparison of ``psd_leq`` without validation.

    ``A`` and ``B`` must be complex matrices of one shape that are exactly
    Hermitian, such as Effect matrices or real multiples of one: hermitize
    then returns them bit for bit, so the result equals ``psd_leq``'s.
    """
    D = hermitize(B - A)
    w = np.linalg.eigvalsh(D)
    return bool(w[0] >= -tol.eps_psd * max(1.0, frobenius(D)))


def _clamped_psd_eigenvalues(M: np.ndarray, tol: ToleranceConfig) -> EigenDecomp:
    dec = eig_hermitian(M, tol)
    w = dec.eigenvalues
    if w[0] < -tol.eps_psd:
        raise NotPositiveSemidefinite(f"minimum eigenvalue {w[0]:.3e} below -eps_psd")
    return EigenDecomp(np.clip(w, 0.0, None), dec.eigenvectors)


def mat_sqrt(M: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Principal square root of a PSD matrix via its spectral decomposition."""
    dec = _clamped_psd_eigenvalues(M, tol)
    V = dec.eigenvectors
    return hermitize((V * np.sqrt(dec.eigenvalues)) @ V.conj().T)


def pinv_sqrt(M: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Pseudo-inverse square root of a PSD matrix.

    Eigenvalues above the relative cutoff eps_rank * max eigenvalue map to
    1/sqrt(eigenvalue); the rest are treated as kernel and map to zero.
    """
    dec = _clamped_psd_eigenvalues(M, tol)
    w = dec.eigenvalues
    cutoff = tol.eps_rank * float(w[-1])
    inv = np.zeros_like(w)
    kept = w > cutoff
    inv[kept] = 1.0 / np.sqrt(w[kept])
    V = dec.eigenvectors
    return hermitize((V * inv) @ V.conj().T)


def _as_generator(seed: int | np.random.Generator) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _require_dim(n: int) -> None:
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise DimensionError(f"dimension must be a positive integer, got {n!r}")


def haar_unitary(n: int, seed: int | np.random.Generator) -> np.ndarray:
    """Haar-distributed n x n unitary, deterministic for a fixed seed.

    Complex Gaussian matrix, QR orthonormalization, then each column is
    rescaled by the phase of the corresponding diagonal entry of R so the
    factorization is the canonical one with positive diagonal.
    """
    _require_dim(n)
    rng = _as_generator(seed)
    Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q, R = np.linalg.qr(Z)
    d = np.diagonal(R).copy()
    d[d == 0] = 1.0
    return Q * (d / np.abs(d))


def random_effect(n: int, seed: int | np.random.Generator) -> np.ndarray:
    """Random effect matrix: Haar eigenbasis with iid uniform [0,1] eigenvalues."""
    _require_dim(n)
    rng = _as_generator(seed)
    Q = haar_unitary(n, rng)
    d = rng.uniform(0.0, 1.0, size=n)
    return hermitize((Q * d) @ Q.conj().T)


def random_ray(n: int, seed: int | np.random.Generator) -> np.ndarray:
    """Unit vector drawn uniformly from the sphere in C^n."""
    _require_dim(n)
    rng = _as_generator(seed)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)
