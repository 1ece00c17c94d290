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
harness can feed deliberately broken maps as negative controls.

The suites follow the protocol of ``effectkit.suites``: they run their
trials as EffectStacks, in blocks, and each sampling, validation, map
and decision step is one stacked LAPACK or matmul call for the whole
block; a family member maps a stack in one pass, and a black-box map is
applied to each member as an Effect.  Every member is the effect the
trial would have built alone, bit for bit, so reports equal those of
running trials one by one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import numkern
from .effects import (
    Effect,
    EffectStack,
    RayProjection,
    WeakAtom,
    _effect,
    _make_effect_stack,
    _same_dim,
    _sample_effect_stack,
    _sample_ray_stack,
    _stack_effects,
    is_scalar,
    leq,  # bench/selftest.py traces a call made through autos.leq
    make_ray,
    orthocomplement,
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
from .suites import VerificationReport, _analog, _boolean, _example, _SuiteState, _trial_blocks

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
        if not np.isfinite(U).all():
            raise UnitarityViolation("U has non-finite entries")
        n = U.shape[0]
        defect = numkern.frobenius(U.conj().T @ U - np.eye(n))
        if not (defect <= 1e-10 * n):
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
    """Image of A: conjugate entries if flagged, apply f_p, rotate by U.

    For an EffectStack, the stack of the member images.
    """
    if A.dim != phi.dim:
        raise DimensionError(f"dimension mismatch: effect {A.dim}, map {phi.dim}")
    if phi.conjugate:  # f_p reads only the eigensystem, so only that is conjugated
        A = numkern.EigenDecomp(A.eigenvalues, np.conj(A.eigenvectors))
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


def _record_pairs(state: _SuiteState, check: str, pairs, ok: list[np.ndarray]) -> None:
    """Boolean checks ``ok[j]`` of each stack pair ``pairs[j]``, taken in
    trial order and, within a trial, pair by pair."""
    state.record(
        *[
            (_boolean(o), lambda k, L=L, R=R: _example(check, A=L.matrix[k], B=R.matrix[k]))
            for (L, R), o in zip(pairs, ok)
        ]
    )


def _image(phi: EffectMap, S: EffectStack) -> EffectStack:
    """phi of each member: one stacked pass for a family member, else per item."""
    if isinstance(phi, EffectAutomorphism):
        return apply(phi, S)
    return _stack_effects([phi(S[k]) for k in range(len(S))])


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
    state = _SuiteState("order", trials, seed)
    for rngs in _trial_blocks(seed, range(trials), n):
        B = _sample_effect_stack(n, rngs, tol)
        A = seq_product(B, _sample_effect_stack(n, rngs, tol), tol)
        X = _sample_effect_stack(n, rngs, tol)
        Y = _sample_effect_stack(n, rngs, tol)
        pairs = ((A, B), (X, Y))
        ok = []
        for L, R in pairs:
            below, above = numkern._psd_leq_both(L.matrix, R.matrix, tol)
            image_L, image_R = _image(phi, L), _image(phi, R)
            _same_dim(image_L, image_R)  # a black-box map may change the dimension
            image_below, image_above = numkern._psd_leq_both(image_L.matrix, image_R.matrix, tol)
            ok.append((below == image_below) & (above == image_above))
        _record_pairs(state, "order-biconditional", pairs, ok)
    return state.report()


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
    state = _SuiteState("zero-product", trials, seed)
    _zero_product_trials(state, phi, _map_dim(phi, dim), trials, seed, tol)
    return state.report()


def _zero_product_trials(
    state: _SuiteState, phi: EffectMap, n: int, trials: int, seed: int, tol: ToleranceConfig
) -> None:
    """The trials of ``verify_zero_product``, recorded into ``state``."""
    if n < 2:
        raise DimensionError("zero-product suite needs dimension at least 2")
    for rngs in _trial_blocks(seed, range(trials), n):
        V = numkern._haar_unitary_stack(n, rngs)
        splits = np.array([int(rng.integers(1, n)) for rng in rngs])
        weights = [(rng.uniform(0.0, 1.0, s), rng.uniform(0.0, 1.0, n - s)) for rng, s in zip(rngs, splits)]
        A = np.empty_like(V)
        B = np.empty_like(V)
        # Trials are stacked per split: padding the frames with zero
        # weights would change the matmul's inner dimension and its bits.
        for split in np.unique(splits):
            group = np.flatnonzero(splits == split)
            A[group] = numkern._from_spectrum(V[group][..., :split], np.stack([weights[k][0] for k in group]))
            B[group] = numkern._from_spectrum(V[group][..., split:], np.stack([weights[k][1] for k in group]))
        A, B = _make_effect_stack(A, tol), _make_effect_stack(B, tol)
        X = _sample_effect_stack(n, rngs, tol)
        Y = _sample_effect_stack(n, rngs, tol)
        pairs = ((A, B), (X, Y))
        ok = [zero_product(L, R, tol) == zero_product(_image(phi, L), _image(phi, R), tol) for L, R in pairs]
        _record_pairs(state, "zero-product-biconditional", pairs, ok)


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
    state = _SuiteState("ortho", trials, seed)
    half = scalar_effect(n, 0.5)
    res0 = numkern.frobenius(phi(half).matrix - half.matrix)
    state.record((_analog([res0], tol.eps_eq), lambda k: _example("half-identity-fixed-point", A=half.matrix)))
    for rngs in _trial_blocks(seed, range(trials), n):
        A = _sample_effect_stack(n, rngs, tol)
        residuals = numkern.frobenius(
            _image(phi, orthocomplement(A)).matrix - orthocomplement(_image(phi, A)).matrix
        )
        state.record((_analog(residuals, tol.eps_eq), lambda k: _example("orthocomplement", A=A.matrix[k])))
    return state.report()


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
    state = _SuiteState("sequential", trials, seed)
    half = scalar_effect(n, 0.5)
    res0 = numkern.frobenius(
        phi(seq_product(half, half, tol)).matrix - seq_product(phi(half), phi(half), tol).matrix
    )
    state.record(
        (_analog([res0], tol.eps_eq), lambda k: _example("sequential-scalar-pair", A=half.matrix, B=half.matrix))
    )
    for rngs in _trial_blocks(seed, range(trials), n):
        A = _sample_effect_stack(n, rngs, tol)
        B = _sample_effect_stack(n, rngs, tol)
        residuals = numkern.frobenius(
            _image(phi, seq_product(A, B, tol)).matrix
            - seq_product(_image(phi, A), _image(phi, B), tol).matrix
        )
        state.record(
            (_analog(residuals, tol.eps_eq), lambda k: _example("sequential", A=A.matrix[k], B=B.matrix[k]))
        )
    return state.report()


def _transition(P: EffectStack, Q: EffectStack) -> np.ndarray:
    """tr(PQ) of each member pair."""
    return np.trace(P.matrix @ Q.matrix, axis1=-2, axis2=-1).real


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
    state = _SuiteState("transition", trials, seed)
    for rngs in _trial_blocks(seed, range(trials), n):
        P = _sample_ray_stack(n, rngs)
        Q = _sample_ray_stack(n, rngs)
        residuals = np.abs(_transition(P, Q) - _transition(_image(phi, P), _image(phi, Q)))
        state.record(
            (_analog(residuals, tol.eps_eq), lambda k: _example("transition", P=P.matrix[k], Q=Q.matrix[k]))
        )
    return state.report()


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
    members), then runs the trials of verify_zero_product with the same
    budget and records them into the same report.
    """
    if not (0.0 <= lam <= 1.0):
        raise DomainError(f"lam must lie in [0, 1], got {lam!r}")
    n = _map_dim(phi, dim)
    state = _SuiteState("scalar-pair", trials, seed)
    image = phi(scalar_effect(n, lam))
    ok, mu = is_scalar(image, tol)
    if ok and isinstance(phi, EffectAutomorphism):
        expected = fp_eval(phi.p, lam)
        check = _analog([abs(mu - expected)], tol.eps_eq)
        state.record((check, lambda k: _example("scalar-image-value", A=image.matrix)))
    else:
        state.record((_boolean([ok]), lambda k: _example("scalar-image", A=image.matrix)))
    _zero_product_trials(state, phi, n, trials, seed, tol)
    return state.report()
