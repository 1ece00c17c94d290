"""Fractional order automorphisms of the effect algebra, with seeded
verification suites.

A family member is determined by a unitary U, an optional entrywise
complex conjugation (the antiunitary case), and an order parameter
p < 1:

    map(A) = U f_p(K(A)) U*

where K conjugates entries in the standard basis when the flag is set
and f_p acts through the spectral calculus.  Every member is an order
automorphism and preserves zero products and ray transition
probabilities; the orthocomplement and the sequential product are
additionally preserved exactly when p = 0.

The verify_* suites sample seeded inputs, check one invariance each, and
return a VerificationReport.  They accept either an EffectAutomorphism
or any callable Effect -> Effect (pass ``dim=`` for the latter), so a
harness can feed deliberately broken maps as negative controls.  Each
trial derives its generator from (seed, trial index), so reports do not
depend on evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import numkern
from .effects import (
    Effect,
    RayProjection,
    WeakAtom,
    _effect,
    is_scalar,
    leq,
    make_effect,
    make_ray,
    orthocomplement,
    sample_effect,
    sample_ray,
    scalar_effect,
    zero_product,
)
from .errors import (
    DimensionError,
    DomainError,
    NotInFamily,
    NotScalarAction,
    UnitarityViolation,
)
from .fracfun import FpParam, FracFit, fit_frac, fp_apply, fp_eval, interior_grid, inverse_param
from .numkern import DEFAULT_TOL, ToleranceConfig, hermitize
from .sequential import seq_product

__all__ = [
    "EffectAutomorphism",
    "VerificationReport",
    "random_automorphism",
    "apply",
    "apply_to_ray",
    "inverse",
    "extract_scalar_action",
    "fit_p",
    "verify_order",
    "verify_zero_product",
    "verify_ortho",
    "verify_sequential",
    "verify_transition",
    "verify_scalar_pair",
]

_FIT_C_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class EffectAutomorphism:
    """Family member (U, conjugate, p); callable on effects."""

    U: np.ndarray
    conjugate: bool
    p: FpParam

    def __post_init__(self) -> None:
        U = numkern.as_complex_matrix(self.U)
        n = U.shape[0]
        defect = numkern.frobenius(U.conj().T @ U - np.eye(n))
        if not (defect <= 1e-10 * n):
            if not np.isfinite(U).all():
                raise UnitarityViolation("U has non-finite entries")
            raise UnitarityViolation(f"U is not unitary: defect {defect:.3e}")
        U = U.copy()
        U.setflags(write=False)
        object.__setattr__(self, "U", U)
        if not isinstance(self.p, FpParam):
            object.__setattr__(self, "p", FpParam(float(self.p)))

    @property
    def dim(self) -> int:
        return self.U.shape[0]

    def __call__(self, A: Effect) -> Effect:
        return apply(self, A)


def random_automorphism(
    n: int, p: float, conjugate: bool, seed: int | np.random.Generator
) -> EffectAutomorphism:
    """Family member with a Haar-random unitary, deterministic per seed."""
    return EffectAutomorphism(U=numkern.haar_unitary(n, seed), conjugate=conjugate, p=FpParam(p))


def apply(phi: EffectAutomorphism, A: Effect) -> Effect:
    """Image of A: conjugate entries if flagged, apply f_p, rotate by U."""
    if A.dim != phi.dim:
        raise DimensionError(f"dimension mismatch: effect {A.dim}, map {phi.dim}")
    if phi.conjugate:
        A = _effect(np.conj(A.matrix), A.eigenvalues, np.conj(A.eigenvectors))
    mapped = fp_apply(phi.p, A)
    U = phi.U
    matrix = hermitize(U @ mapped.matrix @ U.conj().T)
    return _effect(matrix, mapped.eigenvalues, U @ mapped.eigenvectors)


def apply_to_ray(phi: EffectAutomorphism, ray: RayProjection) -> RayProjection:
    """Image of a ray; the image projection equals the image of the projection."""
    if ray.dim != phi.dim:
        raise DimensionError(f"dimension mismatch: ray {ray.dim}, map {phi.dim}")
    v = np.conj(ray.vector) if phi.conjugate else ray.vector
    return make_ray(phi.U @ v)


def inverse(phi: EffectAutomorphism) -> EffectAutomorphism:
    """The inverse family member: same conjugation flag, parameter
    q = 1 - 1/(1-p), and the unitary transposed or adjointed to undo U
    across the conjugation."""
    U_inv = phi.U.T if phi.conjugate else phi.U.conj().T
    return EffectAutomorphism(U=U_inv, conjugate=phi.conjugate, p=inverse_param(phi.p))


EffectMap = Callable[[Effect], Effect]


def _map_dim(phi: EffectMap, dim: int | None) -> int:
    if dim is not None:
        return int(dim)
    if isinstance(phi, EffectAutomorphism):
        return phi.dim
    raise DimensionError("dim= is required when verifying a black-box map")


def extract_scalar_action(
    phi: EffectMap, P: RayProjection, t: float, tol: ToleranceConfig = DEFAULT_TOL
) -> float:
    """Scalar by which the map rescales the weak atom t * P.

    Recovered as tr(phi(tP) phi(P)); if phi(tP) is not that multiple of
    phi(P) within eps_eq the map has no scalar action on this ray and
    NotScalarAction is raised.  For family members the value is f_p(t)
    for every ray.
    """
    if not (0.0 <= t <= 1.0):
        raise DomainError(f"weight t must lie in [0, 1], got {t!r}")
    img_atom = phi(WeakAtom(t, P).to_effect())
    img_proj = phi(P.projection)
    value = float(np.trace(img_atom.matrix @ img_proj.matrix).real)
    residual = numkern.frobenius(img_atom.matrix - value * img_proj.matrix)
    if residual > tol.eps_eq:
        raise NotScalarAction(f"residual {residual:.3e} exceeds eps_eq on the tested ray")
    return value


def fit_p(
    phi: EffectMap,
    grid: int,
    *,
    dim: int | None = None,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> FpParam:
    """Recover p from a black-box map by fitting its action on scalars.

    Samples phi(x I) on an endpoint-free grid, requires each image to be
    a scalar, and fits the general family in logit coordinates.  The
    fitted exponent must equal 1 within 1e-6, otherwise the map is not in
    the order-form family and NotInFamily is raised; the multiplier gives
    p = 1 - a.
    """
    return _fit_family(phi, grid, dim, tol)[0]


def _fit_family(
    phi: EffectMap, grid: int, dim: int | None, tol: ToleranceConfig
) -> tuple[FpParam, FracFit]:
    """The work of ``fit_p``; also returns the fit it accepted."""
    n = _map_dim(phi, dim)
    samples = []
    for x in interior_grid(grid):
        ok, mu = is_scalar(phi(scalar_effect(n, float(x))), tol)
        if not ok:
            raise NotInFamily(f"image of {x:.6g} * I is not scalar")
        if not (0.0 < mu < 1.0):
            raise NotInFamily(f"scalar image {mu!r} leaves the open unit interval")
        samples.append((float(x), float(mu)))
    fit = fit_frac(samples)
    if abs(fit.c - 1.0) > _FIT_C_TOL:
        raise NotInFamily(f"fitted exponent {fit.c!r} deviates from 1 beyond {_FIT_C_TOL}")
    return FpParam(1.0 - fit.a), fit


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one suite: failure count, worst violation, evidence.

    worst_violation is the largest residual for analog checks and 1.0
    for a boolean mismatch; counterexample is present iff failures > 0
    and serializes the first failing input.
    """

    suite: str
    trials: int
    failures: int
    worst_violation: float
    counterexample: dict | None
    seed: int

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "trials": self.trials,
            "failures": self.failures,
            "worst_violation": self.worst_violation,
            "counterexample": self.counterexample,
            "seed": self.seed,
        }


def _matrix_rows(M: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(M)]


def _example(check: str, **mats: np.ndarray) -> dict:
    return {"check": check, "inputs": {k: _matrix_rows(v) for k, v in mats.items()}}


class _SuiteState:
    """Failure bookkeeping shared by the verify_* drivers."""

    def __init__(self) -> None:
        self.failures = 0
        self.worst = 0.0
        self.counterexample: dict | None = None

    def boolean(self, ok: bool, example: Callable[[], dict]) -> None:
        if not ok:
            self.failures += 1
            self.worst = max(self.worst, 1.0)
            if self.counterexample is None:
                self.counterexample = example()

    def analog(self, residual: float, limit: float, example: Callable[[], dict]) -> None:
        self.worst = max(self.worst, residual)
        if residual > limit:
            self.failures += 1
            if self.counterexample is None:
                self.counterexample = example()


def _trial_rng(seed: int, k: int) -> np.random.Generator:
    return np.random.default_rng([seed, k])


def verify_order(
    phi: EffectMap,
    trials: int,
    seed: int,
    *,
    dim: int | None = None,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> VerificationReport:
    """Biconditional order preservation on constructed and generic pairs.

    Each trial builds one genuinely ordered pair (through the sequential
    quotient construction, not rejection sampling) and one generic pair,
    then demands leq agree with leq-of-images in both directions.
    """
    n = _map_dim(phi, dim)
    state = _SuiteState()
    for k in range(trials):
        rng = _trial_rng(seed, k)
        B = sample_effect(n, rng, tol)
        A = seq_product(B, sample_effect(n, rng, tol), tol)
        X = sample_effect(n, rng, tol)
        Y = sample_effect(n, rng, tol)
        for L, R in ((A, B), (X, Y)):
            iL, iR = phi(L), phi(R)
            ok = leq(L, R, tol) == leq(iL, iR, tol) and leq(R, L, tol) == leq(iR, iL, tol)
            state.boolean(ok, lambda L=L, R=R: _example("order-biconditional", A=L.matrix, B=R.matrix))
    return VerificationReport("order", trials, state.failures, state.worst, state.counterexample, seed)


def verify_zero_product(
    phi: EffectMap,
    trials: int,
    seed: int,
    *,
    dim: int | None = None,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> VerificationReport:
    """Biconditional zero-product preservation.

    Each trial checks one orthogonal pair assembled from complementary
    blocks of a Haar basis and one generic pair.
    """
    n = _map_dim(phi, dim)
    if n < 2:
        raise DimensionError("zero-product suite needs dimension at least 2")
    state = _SuiteState()
    for k in range(trials):
        rng = _trial_rng(seed, k)
        V = numkern.haar_unitary(n, rng)
        split = int(rng.integers(1, n))
        left, right = V[:, :split], V[:, split:]
        A = _effect_from_frame(left, rng.uniform(0.0, 1.0, split))
        B = _effect_from_frame(right, rng.uniform(0.0, 1.0, n - split))
        X = sample_effect(n, rng, tol)
        Y = sample_effect(n, rng, tol)
        for L, R in ((A, B), (X, Y)):
            ok = zero_product(L, R, tol) == zero_product(phi(L), phi(R), tol)
            state.boolean(ok, lambda L=L, R=R: _example("zero-product-biconditional", A=L.matrix, B=R.matrix))
    return VerificationReport("zero-product", trials, state.failures, state.worst, state.counterexample, seed)


def _effect_from_frame(frame: np.ndarray, weights: np.ndarray) -> Effect:
    """Effect with the given orthonormal columns as eigenvectors."""
    return make_effect(hermitize((frame * weights) @ frame.conj().T))


def verify_ortho(
    phi: EffectMap,
    trials: int,
    seed: int,
    *,
    dim: int | None = None,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> VerificationReport:
    """Compatibility with the orthocomplement; preserved only at p = 0.

    Checks phi(I - A) = I - phi(A) on random effects, plus the fixed
    point phi(I/2) = I/2 that any complement-preserving member must have.
    """
    n = _map_dim(phi, dim)
    state = _SuiteState()
    half = scalar_effect(n, 0.5)
    res0 = numkern.frobenius(phi(half).matrix - half.matrix)
    state.analog(res0, tol.eps_eq, lambda: _example("half-identity-fixed-point", A=half.matrix))
    for k in range(trials):
        rng = _trial_rng(seed, k)
        A = sample_effect(n, rng, tol)
        residual = numkern.frobenius(phi(orthocomplement(A)).matrix - orthocomplement(phi(A)).matrix)
        state.analog(residual, tol.eps_eq, lambda A=A: _example("orthocomplement", A=A.matrix))
    return VerificationReport("ortho", trials, state.failures, state.worst, state.counterexample, seed)


def verify_sequential(
    phi: EffectMap,
    trials: int,
    seed: int,
    *,
    dim: int | None = None,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> VerificationReport:
    """Compatibility with the sequential product; preserved only at p = 0.

    The scalar pair (I/2, I/2) is checked first since it already
    witnesses failure for every p != 0; random pairs follow.
    """
    n = _map_dim(phi, dim)
    state = _SuiteState()
    half = scalar_effect(n, 0.5)
    res0 = numkern.frobenius(
        phi(seq_product(half, half, tol)).matrix - seq_product(phi(half), phi(half), tol).matrix
    )
    state.analog(res0, tol.eps_eq, lambda: _example("sequential-scalar-pair", A=half.matrix, B=half.matrix))
    for k in range(trials):
        rng = _trial_rng(seed, k)
        A = sample_effect(n, rng, tol)
        B = sample_effect(n, rng, tol)
        residual = numkern.frobenius(
            phi(seq_product(A, B, tol)).matrix - seq_product(phi(A), phi(B), tol).matrix
        )
        state.analog(residual, tol.eps_eq, lambda A=A, B=B: _example("sequential", A=A.matrix, B=B.matrix))
    return VerificationReport("sequential", trials, state.failures, state.worst, state.counterexample, seed)


def verify_transition(
    phi: EffectMap,
    trials: int,
    seed: int,
    *,
    dim: int | None = None,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> VerificationReport:
    """Invariance of ray transition probabilities tr(PQ).

    Family members of every parameter preserve these, unitary and
    antiunitary alike.
    """
    n = _map_dim(phi, dim)
    state = _SuiteState()
    for k in range(trials):
        rng = _trial_rng(seed, k)
        P = sample_ray(n, rng)
        Q = sample_ray(n, rng)
        before = float(np.trace(P.projection.matrix @ Q.projection.matrix).real)
        after = float(np.trace(phi(P.projection).matrix @ phi(Q.projection).matrix).real)
        state.analog(
            abs(before - after),
            tol.eps_eq,
            lambda P=P, Q=Q: _example("transition", P=P.projection.matrix, Q=Q.projection.matrix),
        )
    return VerificationReport("transition", trials, state.failures, state.worst, state.counterexample, seed)


def verify_scalar_pair(
    phi: EffectMap,
    lam: float,
    trials: int,
    seed: int,
    *,
    dim: int | None = None,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> VerificationReport:
    """Scalar image check at lam, then the zero-product suite.

    Confirms phi(lam I) is a scalar (equal to f_p(lam) I for family
    members) before delegating to verify_zero_product with the same
    budget.
    """
    if not (0.0 <= lam <= 1.0):
        raise DomainError(f"lam must lie in [0, 1], got {lam!r}")
    n = _map_dim(phi, dim)
    state = _SuiteState()
    image = phi(scalar_effect(n, lam))
    ok, mu = is_scalar(image, tol)
    if ok and isinstance(phi, EffectAutomorphism):
        expected = fp_eval(phi.p, lam)
        state.analog(abs(mu - expected), tol.eps_eq, lambda: _example("scalar-image-value", A=image.matrix))
    else:
        state.boolean(ok, lambda: _example("scalar-image", A=image.matrix))
    zp = verify_zero_product(phi, trials, seed, dim=n, tol=tol)
    failures = state.failures + zp.failures
    worst = max(state.worst, zp.worst_violation)
    counterexample = state.counterexample if state.counterexample is not None else zp.counterexample
    return VerificationReport("scalar-pair", trials, failures, worst, counterexample, seed)
