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

The norm, Loewner and sampling rules also work on stacks: (T, n, n)
arrays of T matrices.  A stacked sampler draws m samples (one by
default) from each of T generators, each generator in turn and in the order
lone draws take them, straight into one block buffer (``_draws``), and
then runs each LAPACK and matmul step once for all m x T samples.  numpy
applies these steps to each matrix of a stack exactly as to a lone matrix,
so a stacked result equals the per-matrix results bit for bit; the
Frobenius norm is summed as ``np.linalg.norm`` sums it for the same reason.
``require_hermitian`` and ``eig_hermitian`` are for outside input, which is
validated one matrix at a time, after the one array rule ``_outside_array``.
What ``hermitize`` and ``_from_spectrum`` build is exactly Hermitian, so
effects built from it skip the check, and the Loewner kernel takes it as is.

A lone entry point is the one-member case of its stacked routine: each
sampler is one call of its stacked form on ``[generator]``, and
``psd_leq`` reads the first decision of ``_psd_leq_both``, built on
``_loewner_spectrum``, the one Loewner kernel.  One lone path is kept on
purpose: ``_norms`` takes a lone vector's norm as one ``dot``, since each
lone matrix validated takes this norm and a one-row matmul costs more per
call.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import (
    DimensionError,
    DomainError,
    HermiticityViolation,
    InputError,
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


def _is_number(value) -> bool:
    """The one number rule of the package: a ``numbers.Real``, not a bool, finite and within the float range."""
    try:
        return not isinstance(value, (bool, np.bool_)) and isinstance(value, numbers.Real) and math.isfinite(value)
    except OverflowError:  # an int beyond the float range is refused, not raised
        return False


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
            if not (_is_number(value) and 0.0 < value < 1e-3):
                raise ValueError(f"{name} must lie strictly between 0 and 1e-3, got {value!r}")

    def scaled(self, factor: float) -> "ToleranceConfig":
        """Return a copy with every threshold multiplied by ``factor``."""
        if not (_is_number(factor) and factor > 0.0):
            raise ValueError(f"tolerance scale factor must be positive, got {factor!r}")
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


def _outside_array(x, ndim: int, what: str, error: type[InputError]) -> tuple[np.ndarray, float]:
    """The one array rule: ``x``, a matrix (``ndim`` 2) or vector (``ndim`` 1)
    from outside, as complex128 with its norm (inf over finite entries, for the
    caller to judge).  A dtype not int, unsigned, float or complex, or a NaN or
    inf entry, raises ``error``; a shape not square or empty, DimensionError."""
    try:
        A = np.asarray(x)
    except ValueError:  # a ragged nested list
        raise DimensionError(f"{what} is not a rectangular array") from None
    if A.dtype.kind not in "iufc":
        raise error(f"{what} must hold numbers, got dtype {A.dtype}")
    if A.ndim != ndim or A.shape[0] != A.shape[-1] or A.size == 0:
        fault = "must have positive length" if A.ndim == 1 else f"must be 1-D, got shape {A.shape}"
        raise DimensionError(f"expected a square matrix, got shape {A.shape}" if ndim == 2 else f"{what} {fault}")
    A = A.astype(np.complex128, copy=False)
    with np.errstate(over="ignore"):  # a norm past the float range is inf
        norm = frobenius(A)
    if not math.isfinite(norm) and not np.isfinite(A).all():
        raise error(f"{what} has non-finite entries")
    return A, norm


def as_complex_matrix(M: np.ndarray) -> np.ndarray:
    """The matrix case of the array rule, ``_outside_array``, raising DimensionError for every fault."""
    return _outside_array(M, 2, "matrix", DimensionError)[0]


def _norms(x: np.ndarray) -> np.ndarray:
    """2-norm along the last axis, summed as ``np.linalg.norm`` sums one vector.

    numpy takes that norm as the real dot product plus the imaginary one.
    A lone vector takes the same ``dot``; a stack takes it as a (1, k) by
    (k, 1) matmul per row, which runs the same dot kernel, so the result
    equals the per-row ``np.linalg.norm`` bit for bit.  A plain sum or
    einsum adds in another order and does not.
    """
    xr, xi = x.real, x.imag
    # Kept lone: 1.4 us against 3.8 us as a one-row matmul, four per lone validation;
    # without it cli-docs req_p50_ms rose 3.3% (median, 12 of 16 alternating rounds).
    if x.ndim == 1:
        return np.sqrt(xr.dot(xr) + xi.dot(xi))
    rows = xr[..., None, :] @ xr[..., :, None] + xi[..., None, :] @ xi[..., :, None]
    return np.sqrt(rows[..., 0, 0])


def frobenius(M: np.ndarray) -> float | np.ndarray:
    """Frobenius norm of a matrix, or the array of norms of a (T, n, n) stack.

    A matrix is flattened in memory order, as ``np.linalg.norm`` does, so
    a transposed or Fortran-ordered matrix gets its exact norm too; the
    members of a stack are summed in row order, which is memory order for
    the C-ordered stacks the suites build.
    """
    M = np.asarray(M)
    if M.ndim <= 2:
        return float(_norms(M.ravel(order="K")))
    return _norms(M.reshape(M.shape[:-2] + (-1,)))


def _vdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.vdot`` of each pair of rows of two (T, n) stacks, either of
    which may be one vector: a (1, n) by (n, 1) matmul per pair runs the
    dot kernel ``np.vdot`` runs, so each result equals it bit for bit."""
    return (a.conj()[..., None, :] @ b[..., :, None])[..., 0, 0]


def _overlaps(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|<a_k, b_k>|^2 for the pairs of ``_vdot``, one entry per pair (one
    for two lone vectors), each taken as a lone pair's scalar gives it."""
    return np.array([float(np.abs(c) ** 2) for c in np.ravel(_vdot(a, b))])


def hermitize(M: np.ndarray) -> np.ndarray:
    """Symmetrize round-off: return (M + M*)/2, for a matrix or each matrix of a stack."""
    return 0.5 * (M + M.conj().swapaxes(-1, -2))


def _from_spectrum(V: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The Hermitian matrix V diag(w) V*, hermitized, for orthonormal columns V.

    V is n x k with k values w, or a (T, n, k) stack with (T, k) values.
    """
    return hermitize((V * w[..., None, :]) @ V.conj().swapaxes(-1, -2))


def _first(values, bad: np.ndarray):
    """The entry of ``values`` at the first True of ``bad`` (both scalars or stacks)."""
    return np.ravel(values)[np.argmax(np.ravel(bad))]


def require_hermitian(M: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Validate hermiticity of the matrix ``M`` and return the hermitized copy.

    This is the check for outside input, one matrix at a time, after the
    array rule (``_outside_array``): its faults but shape, and a norm past
    the float range, raise HermiticityViolation.  The defect ||M - M*|| is
    measured relative to max(1, ||M||) so the check is scale-aware without
    going vacuous near zero.
    """
    A, scale = _outside_array(M, 2, "matrix", HermiticityViolation)
    if not math.isfinite(scale):
        raise HermiticityViolation(f"matrix norm is {scale}: non-finite entries or overflow")
    with np.errstate(over="ignore"):  # ||M - M*|| may pass the float range when ||M|| nearly does
        defect = frobenius(A - A.conj().T)
    if not defect <= tol.eps_herm * max(1.0, scale):
        raise HermiticityViolation(f"matrix is not Hermitian: defect {defect:.3e}")
    return hermitize(A)


def eig_hermitian(M: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> EigenDecomp:
    """Eigendecomposition of a Hermitian matrix from outside, eigenvalues ascending.

    The matrix is validated by ``require_hermitian`` first.  Backed by
    LAPACK via numpy.linalg.eigh; the returned eigenvector columns are
    orthonormal and V diag(w) V* reconstructs the input to machine
    precision at the matrix sizes this package targets.
    """
    A = require_hermitian(M, tol)
    w, V = np.linalg.eigh(A)
    return EigenDecomp(eigenvalues=w, eigenvectors=V)


def psd_leq(M: np.ndarray, N: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Loewner comparison: True iff N - M is PSD within tolerance.

    The slack is eps_psd * max(1, ||N - M||_F), so the test is reflexive
    and tolerant of round-off on the scale of the difference itself.
    """
    A, B = require_hermitian(M, tol), require_hermitian(N, tol)
    if A.shape != B.shape:
        raise DimensionError(f"dimension mismatch: {A.shape[-1]} vs {B.shape[-1]}")
    return bool(_psd_leq_both(A, B, tol)[0])


def _psd_leq_both(A: np.ndarray, B: np.ndarray, tol: ToleranceConfig) -> tuple[np.ndarray, np.ndarray]:
    """The comparisons A <= B and B <= A of ``psd_leq`` without validation,
    as bool arrays from one spectrum, for inputs as ``_loewner_spectrum``
    takes them; a stack gives one decision per member.

    ``A - B`` is ``-D`` for ``D = B - A`` (up to the sign of zero entries),
    of the same Frobenius norm, and LAPACK gives its spectrum as D's negated
    and reversed, bit for bit (tests/test_numkern.py checks this on seeded
    stacks).  So D's negated top eigenvalue decides B <= A.
    """
    w, slack = _loewner_spectrum(A, B, tol)
    return w[..., 0] >= slack, -w[..., -1] >= slack


def _loewner_spectrum(A: np.ndarray, B: np.ndarray, tol: ToleranceConfig):
    """The one Loewner kernel: the ascending spectrum w of D = B - A and the
    slack -eps_psd * max(1, ||D||_F); A <= B holds iff w[..., 0] >= slack.

    A and B are complex matrices or stacks of one shape, each exactly
    Hermitian: an effect matrix, a real multiple of one, or a sum of these.
    Then D equals ``hermitize(D)`` entry for entry; ``eigvalsh`` reads only
    its lower triangle and real diagonal, and the norm squares every part,
    so each result equals ``psd_leq``'s, which hermitizes its inputs.
    """
    D = B - A
    return np.linalg.eigvalsh(D), -tol.eps_psd * np.maximum(1.0, frobenius(D))


def _clamped_psd_eigenvalues(M: np.ndarray, tol: ToleranceConfig) -> EigenDecomp:
    dec = eig_hermitian(M, tol)
    w = dec.eigenvalues
    if w[0] < -tol.eps_psd:
        raise NotPositiveSemidefinite(f"minimum eigenvalue {w[0]:.3e} below -eps_psd")
    return EigenDecomp(np.clip(w, 0.0, None), dec.eigenvectors)


def mat_sqrt(M: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Principal square root of a PSD matrix via its spectral decomposition."""
    dec = _clamped_psd_eigenvalues(M, tol)
    return _from_spectrum(dec.eigenvectors, np.sqrt(dec.eigenvalues))


def pinv_sqrt(M: np.ndarray, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Pseudo-inverse square root of a PSD matrix.

    Eigenvalues above the relative cutoff eps_rank * max eigenvalue map to
    1/sqrt(eigenvalue); the rest are treated as kernel and map to zero.
    """
    dec = _clamped_psd_eigenvalues(M, tol)
    return _pinv_sqrt_spectrum(dec.eigenvalues, dec.eigenvectors, tol)


def _pinv_sqrt_spectrum(w: np.ndarray, V: np.ndarray, tol: ToleranceConfig) -> np.ndarray:
    """``pinv_sqrt`` of the matrix with ascending spectrum w >= 0 and
    eigenvectors V, for a caller that holds them, such as an Effect."""
    inv = np.zeros_like(w)
    kept = w > _rank_cutoff(w, tol)
    inv[kept] = 1.0 / np.sqrt(w[kept])
    return _from_spectrum(V, inv)


def _rank_cutoff(w: np.ndarray, tol: ToleranceConfig) -> np.ndarray:
    """The one rank rule: in each ascending row of w, values at or below this are kernel."""
    return tol.eps_rank * w[..., -1:]


def _as_generator(seed: int | np.random.Generator) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    _require_seed(seed)
    return np.random.default_rng(seed)


def _require_seed(seed) -> None:
    """The one seed rule: a count of at least 0."""
    if not _is_count(seed, 0):
        raise DomainError(f"seed must be a non-negative integer, got {seed!r}")


def _is_count(value, least: int = 1) -> bool:
    """The one count rule of the package: an int or numpy integer of at
    least ``least``, and not a bool (True is not a count)."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= least


def _is_weight(value) -> bool:
    """The one weight rule of the package: a number (``_is_number``) in [0, 1]."""
    return _is_number(value) and 0.0 <= value <= 1.0


def _require_dim(n: int) -> None:
    if not _is_count(n):
        raise DimensionError(f"dimension must be a positive integer, got {n!r}")


def _draws(rngs: Sequence[np.random.Generator], shape: tuple, m: int = 1, spectra: bool = False):
    """The (m, T) + shape complex Gaussians and, with ``spectra``, the
    (m, T, shape[-1]) uniform [0, 1) spectra of m samples from each generator
    in turn, drawn as lone samplers draw them: one ``standard_normal(out=)``
    gives the real and imaginary parts as two ``standard_normal(shape)`` do,
    and ``random`` the bits of ``uniform(0.0, 1.0)``, 0.0 + 1.0 u being exact."""
    _require_dim(shape[-1])
    X = np.empty((m, len(rngs), 2) + shape)
    w = np.empty((m, len(rngs), shape[-1])) if spectra else None
    for k, rng in enumerate(rngs):
        for j in range(m):
            rng.standard_normal(out=X[j, k])
            if spectra:
                rng.random(out=w[j, k])
    return X[:, :, 0] + 1j * X[:, :, 1], w


def _phase_fixed_qr(Z: np.ndarray) -> np.ndarray:
    """Q of Z = QR with each column rescaled by the phase of R's diagonal
    entry, so the factorization is the canonical one with positive
    diagonal (Mezzadri, Notices AMS 54, 2007).  Z is a matrix or a stack."""
    Q, R = np.linalg.qr(Z)
    d = np.diagonal(R, axis1=-2, axis2=-1).copy()
    d[d == 0] = 1.0
    return Q * (d / np.abs(d))[..., None, :]


def haar_unitary(n: int, seed: int | np.random.Generator) -> np.ndarray:
    """Haar-distributed n x n unitary, deterministic for a fixed seed.

    Complex Gaussian matrix, then QR orthonormalization with the phase
    fix of ``_phase_fixed_qr``.
    """
    return _haar_unitary_stack(n, [_as_generator(seed)])[0]


def _haar_unitary_stack(n: int, rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """(T, n, n) stack of ``haar_unitary(n, rng)`` for each of the T generators."""
    return _phase_fixed_qr(_draws(rngs, (n, n))[0][0])


def random_effect(n: int, seed: int | np.random.Generator) -> np.ndarray:
    """Random effect matrix: Haar eigenbasis with iid uniform [0,1] eigenvalues."""
    return _random_effect_stack(n, [_as_generator(seed)])[0]


def _random_effect_stack(n: int, rngs: Sequence[np.random.Generator], m: int | None = None) -> np.ndarray:
    """(T, n, n) stack of ``random_effect(n, rng)`` for each of the T
    generators; with m, the (m, T, n, n) stacks of m effects drawn from each."""
    Z, w = _draws(rngs, (n, n), m or 1, spectra=True)
    M = _from_spectrum(_phase_fixed_qr(Z), w)
    return M if m else M[0]


def random_ray(n: int, seed: int | np.random.Generator) -> np.ndarray:
    """Unit vector drawn uniformly from the sphere in C^n."""
    return _random_ray_stack(n, [_as_generator(seed)])[0]


def _random_ray_stack(n: int, rngs: Sequence[np.random.Generator], m: int | None = None) -> np.ndarray:
    """(T, n) stack of ``random_ray(n, rng)`` for each of the T generators;
    with m, the (m, T, n) stacks of m rays drawn from each."""
    v = _draws(rngs, (n,), m or 1)[0]
    v = v / _norms(v)[..., None]
    return v if m else v[0]
