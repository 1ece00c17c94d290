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
harness can feed deliberately broken maps as negative controls.  The order
and zero-product suites check "in both directions" through one routine,
``_biconditional``.

Each suite is a ``suites.Suite`` value (``_ORDER`` and the like), a step
and its fixed controls, run by the one driver ``Suite.run``: a step turns
a block of trials (stacked Effects) into checks, each sampling, validation,
map and decision one stacked call, and the controls map one stack, a
member per entry (I/2 or lam I).  Each ``verify_*`` is the one-entry run
of its suite, and ``effectkit verify`` runs a suite once for all the
(p, conj) entries at one dimension: every entry keeps its map, seed,
generators and report, and the entries share blocks.
One routine, ``_images``, makes every image of a caller's map: family
members map a stack in one ``_map_members`` pass (``apply`` is its
one-map case; f_p acts through ``fracfun._fp_spectral``, for p already
checked), and a black-box map is called on each member as an
Effect, its image held to the member's dimension.  Every member is the
effect the trial would have built alone, bit for bit, so reports equal
those of running trials one by one.  ``fit_p`` maps its grid of scalar
effects x I in blocks under the suites' cap, deciding each block with
the one stacked scalar rule of ``is_scalar``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import numkern
from .effects import (
    Effect,
    RayProjection,
    WeakAtom,
    _effect,
    _locked,
    _same_dim,
    _sample_effect_stack,
    _sample_ray_stack,
    _scalar_rule,
    _scalar_stack,
    _spectral,
    _stack_effects,
    leq,  # bench/selftest.py traces a call made through autos.leq
    make_ray,
    orthocomplement,
    zero_product,
)
from .errors import (
    DimensionError,
    DomainError,
    NotInFamily,
    NotScalarAction,
    ParamError,
    UnitarityViolation,
)
from .fracfun import FpParam, FracFit, _fp_spectral, fit_frac, fp_eval, interior_grid, inverse_param
from .numkern import DEFAULT_TOL, ToleranceConfig, hermitize
from .sequential import seq_product
from .suites import Suite, VerificationReport, _Block, _block_cap

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


@dataclass(frozen=True, eq=False)
class EffectAutomorphism:
    """Family member (U, conjugate, p); callable on effects.  U passes the
    array rule (``numkern._outside_array``), its faults but shape raising
    UnitarityViolation, and is unitary within eps_herm * n."""

    U: np.ndarray
    conjugate: bool
    p: FpParam

    def __post_init__(self) -> None:
        if not isinstance(self.conjugate, (bool, np.bool_)):
            raise ParamError(f"conjugate must be a bool, got {self.conjugate!r}")
        object.__setattr__(self, "conjugate", bool(self.conjugate))  # a map document holds a JSON boolean
        U = numkern._outside_array(self.U, 2, "U", UnitarityViolation)[0]
        n = U.shape[0]
        with np.errstate(over="ignore", invalid="ignore"):  # huge entries give defect inf or nan, refused below
            defect = numkern.frobenius(U.conj().T @ U - np.eye(n))
        # A map validates itself when built, before any tol is given: the default bound.
        if not (defect <= DEFAULT_TOL.eps_herm * n):
            raise UnitarityViolation(f"U is not unitary: defect {defect:.3e}")
        object.__setattr__(self, "U", _locked(U.copy()))
        if not isinstance(self.p, FpParam):
            object.__setattr__(self, "p", FpParam(self.p))

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

    For a stack of effects, the stack of the member images.
    """
    return _map_members(phi.U, phi.conjugate, phi.p.p, A)


def _map_members(U: np.ndarray, conjugate, p, A: Effect) -> Effect:
    """U f_p(K(A)) U* for an effect or each member of a (T, n, n) stack,
    with the map given once, or per member as a (T, n, n) stack of unitaries,
    T conjugation flags and (T, 1) floats p, each checked by an FpParam: the one routine that maps."""
    if A.dim != U.shape[-1]:
        raise DimensionError(f"dimension mismatch: {U.shape[-1]} vs {A.dim}")
    V = A.eigenvectors  # f_p reads only the eigensystem, so only that is conjugated
    if isinstance(conjugate, np.ndarray):
        V = np.where(conjugate[:, None, None], np.conj(V), V)
    elif conjugate:
        V = np.conj(V)
    mapped = _fp_spectral(p, A.eigenvalues, V)
    matrix = hermitize(U @ mapped.matrix @ U.conj().swapaxes(-1, -2))
    return _effect(matrix, mapped.eigenvalues, U @ mapped.eigenvectors)


def apply_to_ray(phi: EffectAutomorphism, ray: RayProjection) -> RayProjection:
    """Image of a ray; the image projection equals the image of the projection."""
    _same_dim(phi, ray)
    v = np.conj(ray.vector) if phi.conjugate else ray.vector
    return make_ray(phi.U @ v)


def inverse(phi: EffectAutomorphism) -> EffectAutomorphism:
    """The inverse family member: same conjugation flag, parameter
    q = 1 - 1/(1-p), and the unitary transposed or adjointed to undo U
    across the conjugation."""
    U_inv = phi.U.T if phi.conjugate else phi.U.conj().T
    return EffectAutomorphism(U=U_inv, conjugate=phi.conjugate, p=inverse_param(phi.p))


EffectMap = Callable[[Effect], Effect]
# The axes of a family suite's entries: dimension, order parameter, conjugation flag.
_FAMILY = ("n", "p", "conj")


def _map_dim(phi: EffectMap, dim: int | None) -> int:
    if dim is not None:
        numkern._require_dim(dim)
        return int(dim)
    if isinstance(phi, EffectAutomorphism):
        return phi.dim
    raise DimensionError("dim= is required when verifying a black-box map")


def _images(runs: Sequence[tuple[EffectMap, int]]) -> EffectMap:
    """The one routine that applies a caller's maps: ``runs`` gives the maps
    of a stack's members, (map, count) in member order, and the result maps
    such a stack to its images.  Family members map in one ``_map_members``
    pass, several maps with U, flag and p per member; any other map is
    called on each member as an Effect, in order, and an image not of its
    member's dimension raises DimensionError."""
    maps, counts = zip(*runs)
    if all(isinstance(phi, EffectAutomorphism) for phi in maps):
        # One map maps as ``apply`` does: at n = 64, where a block holds
        # one trial, per-member arrays cost about 6% of a verify run.
        if len(maps) == 1:
            return functools.partial(_map_members, maps[0].U, maps[0].conjugate, maps[0].p.p)
        U = np.repeat(np.stack([phi.U for phi in maps]), counts, axis=0)
        conjugate = np.repeat([phi.conjugate for phi in maps], counts)
        p = np.repeat([phi.p.p for phi in maps], counts)[:, None]
        return functools.partial(_map_members, U, conjugate, p)
    members = [phi for phi, count in runs for _ in range(count)]

    def images(S: Effect) -> Effect:
        out = [phi(S[k]) for k, phi in enumerate(members)]
        wrong = [B.dim for B in out if B.dim != S.dim]
        if wrong:
            raise DimensionError(f"the map sends an effect of dimension {S.dim} to dimension {wrong[0]}")
        return _stack_effects(out)

    return images


def extract_scalar_action(
    phi: EffectMap, P: RayProjection, t: float, tol: ToleranceConfig = DEFAULT_TOL
) -> float:
    """Scalar by which the map rescales the weak atom t * P.

    Recovered as tr(phi(tP) phi(P)); if phi(tP) is not that multiple of
    phi(P) within eps_eq the map has no scalar action on this ray and
    NotScalarAction is raised.  For family members the value is f_p(t)
    for every ray.
    """
    if not numkern._is_weight(t):
        raise DomainError(f"weight t must be a number in [0, 1], got {t!r}")
    img_atom, img_proj = _images([(phi, 2)])(_stack_effects([WeakAtom(t, P).to_effect(), P.projection])).matrix
    value = float(np.trace(img_atom @ img_proj).real)
    residual = numkern.frobenius(img_atom - value * img_proj)
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
    fitted exponent must equal 1 within 100 * eps_rank (1e-6 at the
    default tolerances), otherwise the map is not in the order-form family
    and NotInFamily is raised; the multiplier gives p = 1 - a.  The grid is
    mapped as the suites map, in blocks of bounded memory: a family member
    maps up to the suites' block cap of points per call, a black-box map
    one point at a time.  A grid below 3 raises DomainError before any map.
    """
    return _fit_family(phi, grid, dim, tol)[0]


def _fit_family(
    phi: EffectMap, grid: int, dim: int | None, tol: ToleranceConfig
) -> tuple[FpParam, FracFit]:
    """The work of ``fit_p``; also returns the fit it accepted."""
    n = _map_dim(phi, dim)
    if not numkern._is_count(grid, 3):
        raise DomainError(f"grid must be an integer of at least 3, got {grid!r}")
    xs = interior_grid(grid)
    # A black-box map is called once per point, so no further than a failing one.
    cap = _block_cap(n) if isinstance(phi, EffectAutomorphism) else 1
    samples = []
    for start in range(0, grid, cap):
        block = xs[start : start + cap]
        ok, mus = _scalar_rule(_images([(phi, len(block))])(_scalar_stack(n, block)).matrix, tol)
        for x, holds, mu in zip(block.tolist(), ok.tolist(), mus.tolist()):
            if not holds:
                raise NotInFamily(f"image of {x:.6g} * I is not scalar")
            if not (0.0 < mu < 1.0):
                raise NotInFamily(f"scalar image {mu!r} leaves the open unit interval")
            samples.append((x, mu))
    fit = fit_frac(samples)
    limit = 100 * tol.eps_rank
    if abs(fit.c - 1.0) > limit:
        raise NotInFamily(f"fitted exponent {fit.c!r} deviates from 1 beyond {limit}")
    return FpParam(1.0 - fit.a), fit


def _biconditional(maps: list[EffectMap], block: _Block, check: str, pairs, decide) -> list[tuple]:
    """For each stack pair (L, R), the check that every decision in
    ``decide(L, R)`` holds for the images exactly when it holds for the
    pair: within a trial, pair by pair."""
    image = _images(block.runs(maps))
    checks = []
    for L, R in pairs:
        ok = np.all(np.equal(decide(L, R), decide(image(L), image(R))), axis=0)
        checks.append((check, ~ok, 0.0, {"A": L.matrix, "B": R.matrix}))
    return checks


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
    return _ORDER.run([phi], trials, [seed], _map_dim(phi, dim), tol)[0]


def _order_step(maps: list[EffectMap], n: int, tol: ToleranceConfig, block: _Block) -> list[tuple]:
    B, C, X, Y = _sample_effect_stack(n, block.rngs, tol, 4)
    pairs = ((seq_product(B, C, tol), B), (X, Y))
    return _biconditional(
        maps, block, "order-biconditional", pairs, lambda L, R: numkern._psd_leq_both(L.matrix, R.matrix, tol)
    )


_ORDER = Suite("order", _FAMILY, _order_step)


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
    return _ZERO_PRODUCT.run([phi], trials, [seed], _map_dim(phi, dim), tol)[0]


def _zero_product_step(maps: list[EffectMap], n: int, tol: ToleranceConfig, block: _Block) -> list[tuple]:
    """The checks of a block of ``verify_zero_product`` trials, which scalar-pair runs too."""
    if n < 2:
        raise DimensionError("zero-product suite needs dimension at least 2")
    rngs = block.rngs
    V = numkern._haar_unitary_stack(n, rngs)
    splits = np.array([int(rng.integers(1, n)) for rng in rngs])
    weights = [(rng.uniform(0.0, 1.0, s), rng.uniform(0.0, 1.0, n - s)) for rng, s in zip(rngs, splits)]
    M = np.empty((4,) + V.shape, dtype=V.dtype)
    # Trials are stacked per split: padding the frames with zero
    # weights would change the matmul's inner dimension and its bits.
    for split in np.unique(splits):
        group = np.flatnonzero(splits == split)
        M[0, group] = numkern._from_spectrum(V[group][..., :split], np.stack([weights[k][0] for k in group]))
        M[1, group] = numkern._from_spectrum(V[group][..., split:], np.stack([weights[k][1] for k in group]))
    # The frames and the generic pair, validated as one stack.
    M[2:] = numkern._random_effect_stack(n, rngs, 2)
    A, B, X, Y = _spectral(M, tol)
    pairs = ((A, B), (X, Y))
    return _biconditional(maps, block, "zero-product-biconditional", pairs, lambda L, R: [zero_product(L, R, tol)])


_ZERO_PRODUCT = Suite("zero-product", _FAMILY, _zero_product_step)


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
    return _ORTHO.run([phi], trials, [seed], _map_dim(phi, dim), tol)[0]


def _ortho_controls(maps: list[EffectMap], n: int, tol: ToleranceConfig) -> list[tuple]:
    half = _scalar_stack(n, np.full(len(maps), 0.5))
    residuals = numkern.frobenius(_images([(phi, 1) for phi in maps])(half).matrix - half.matrix)
    return [("half-identity-fixed-point", residuals, tol.eps_eq, {"A": half.matrix})]


def _ortho_step(maps: list[EffectMap], n: int, tol: ToleranceConfig, block: _Block) -> list[tuple]:
    image = _images(block.runs(maps))
    A = _sample_effect_stack(n, block.rngs, tol)
    residuals = numkern.frobenius(image(orthocomplement(A)).matrix - orthocomplement(image(A)).matrix)
    return [("orthocomplement", residuals, tol.eps_eq, {"A": A.matrix})]


_ORTHO = Suite("ortho", _FAMILY, _ortho_step, _ortho_controls)


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
    return _SEQUENTIAL.run([phi], trials, [seed], _map_dim(phi, dim), tol)[0]


def _sequential_controls(maps: list[EffectMap], n: int, tol: ToleranceConfig) -> list[tuple]:
    half = _scalar_stack(n, np.full(len(maps), 0.5))
    image_half, product = map(_images([(phi, 1) for phi in maps]), (half, seq_product(half, half, tol)))
    residuals = numkern.frobenius(product.matrix - seq_product(image_half, image_half, tol).matrix)
    return [("sequential-scalar-pair", residuals, tol.eps_eq, {"A": half.matrix, "B": half.matrix})]


def _sequential_step(maps: list[EffectMap], n: int, tol: ToleranceConfig, block: _Block) -> list[tuple]:
    image = _images(block.runs(maps))
    A, B = _sample_effect_stack(n, block.rngs, tol, 2)
    residuals = numkern.frobenius(image(seq_product(A, B, tol)).matrix - seq_product(image(A), image(B), tol).matrix)
    return [("sequential", residuals, tol.eps_eq, {"A": A.matrix, "B": B.matrix})]


_SEQUENTIAL = Suite("sequential", _FAMILY, _sequential_step, _sequential_controls)


def _transition(P: Effect, Q: Effect) -> np.ndarray:
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
    return _TRANSITION.run([phi], trials, [seed], _map_dim(phi, dim), tol)[0]


def _transition_step(maps: list[EffectMap], n: int, tol: ToleranceConfig, block: _Block) -> list[tuple]:
    image = _images(block.runs(maps))
    P, Q = _sample_ray_stack(n, block.rngs, 2)
    residuals = np.abs(_transition(P, Q) - _transition(image(P), image(Q)))
    return [("transition", residuals, tol.eps_eq, {"P": P.matrix, "Q": Q.matrix})]


_TRANSITION = Suite("transition", _FAMILY, _transition_step)


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
    if not numkern._is_weight(lam):
        rule = "be a number, not a bool" if isinstance(lam, (bool, np.bool_)) else "lie in [0, 1]"
        raise DomainError(f"lam must {rule}, got {lam!r}")
    return _scalar_pair_suite(lam).run([phi], trials, [seed], _map_dim(phi, dim), tol)[0]


def _scalar_pair_suite(lam: float) -> Suite:
    """The scalar-pair suite at lam: its scalar image control, then the zero-product step."""
    return Suite("scalar-pair", _FAMILY, _zero_product_step, functools.partial(_scalar_pair_controls, lam))


def _scalar_pair_controls(lam: float, maps: list[EffectMap], n: int, tol: ToleranceConfig) -> list[tuple]:
    """|mu - f_p(lam)| where phi(lam I) = mu I and phi is a family member
    (NaN, which passes, elsewhere), then whether the image is a scalar."""
    image = _images([(phi, 1) for phi in maps])(_scalar_stack(n, np.full(len(maps), float(lam)))).matrix
    ok, mu = _scalar_rule(image, tol)
    f = [fp_eval(phi.p, lam) if isinstance(phi, EffectAutomorphism) else np.nan for phi in maps]
    value = np.where(ok, np.abs(mu - f), np.nan)
    return [("scalar-image-value", value, tol.eps_eq, {"A": image}), ("scalar-image", ~ok, 0.0, {"A": image})]
