"""The fractional function family on [0, 1] and its functional equation.

Two parameterizations are used throughout the package:

* general form   f(x) = x^c / (x^c + a (1-x)^c)         (a, c > 0)
* order form     f_p(x) = x / (x p + (1 - p))           (p < 1)

which coincide when c = 1 and a = 1 - p.  Every member fixes 0 and 1,
is strictly increasing, and in logit coordinates u = ln((1-x)/x) acts
affinely: u maps to c u + ln a.  That linearity is what the fitter
exploits and what turns the multiplicative functional equation

    f(x / (x + (1 - x) y)) = f(x) / (f(x) + (1 - f(x)) g(y))

into a Pexider-type additive equation after the substitutions
alpha(t) = 1/(1 + e^t), beta(x) = ln((1-x)/x), gamma(y) = ln y.

Rigidity probes search small grids for witnesses that a given f_p fails
the fixed-point, symmetry, or multiplicativity identities; only p = 0
passes all of them.  A probe evaluates f_p on its whole grid as arrays,
with the floats of a loop over the points, and returns that loop's first
witness.  ``f_eval`` stays scalar on purpose: the Pexider form calls it
per grid pair, and a lone point costs 15-20x more as an array.  The
module also owns the pexider suite of ``effectkit verify``.  ``fp_apply``
takes one p, checked by ``FpParam``; its kernel ``_fp_spectral`` also maps
for ``autos``, whose family maps hold p values already checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from . import numkern
from .effects import Effect, _effect
from .errors import DomainError, FitError, ParamError
from .numkern import DEFAULT_TOL, ToleranceConfig, _from_spectrum, _is_count
from .suites import Suite, _Block

__all__ = [
    "FracParams",
    "FpParam",
    "FracFit",
    "PexiderDecomposition",
    "f_eval",
    "f_inverse",
    "fp_eval",
    "inverse_param",
    "fp_apply",
    "verify_pexider",
    "fit_frac",
    "g_symmetry_check",
    "rigidity_probe",
    "pexider_decomposition",
    "interior_grid",
    "RIGIDITY_KINDS",
]

RIGIDITY_KINDS = ("fixed-point", "symmetry", "multiplicative")


@dataclass(frozen=True)
class FracParams:
    """Parameters (a, b, c) of the general family; all strictly positive.

    ``a`` and ``c`` shape f itself; ``b`` is the scale of the companion
    function g(y) = b y^c and tags along so a solution pair can travel as
    one value.
    """

    a: float
    b: float
    c: float

    def __post_init__(self) -> None:
        for name in ("a", "b", "c"):
            _require_positive(name, getattr(self, name))


def _require_positive(name: str, value) -> None:
    """The rule of FracParams' a, b, c and of the Pexider scalars of g(y) = b y^c."""
    if not (numkern._is_number(value) and value > 0.0):
        raise ParamError(f"{name} must be a positive finite real, got {value!r}")


@dataclass(frozen=True)
class FpParam:
    """Order-form parameter p < 1 (p = 0 is the identity): the one check of a p as given."""

    p: float

    def __post_init__(self) -> None:
        p = self.p
        if not (numkern._is_number(p) and p < 1.0):
            raise ParamError(f"p must be a finite real below 1, got {p!r}")
        object.__setattr__(self, "p", float(p))

    def as_frac(self) -> FracParams:
        return FracParams(a=1.0 - self.p, b=1.0, c=1.0)


@dataclass(frozen=True)
class FracFit:
    """Result of fit_frac: multiplier a, exponent c, worst logit residual."""

    a: float
    c: float
    residual: float


def _check_unit_interval(x: float) -> float:
    if not (numkern._is_number(x) and -1e-12 <= x <= 1.0 + 1e-12):
        raise DomainError(f"argument {x!r} outside [0, 1]")
    return min(1.0, max(0.0, x))


# Kept scalar beside _f_values: a lone point costs 15-20x more as an array.
def f_eval(params: FracParams, x: float) -> float:
    """Evaluate the general family member at x in [0, 1]."""
    x = _check_unit_interval(x)
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    xc = x**params.c
    return xc / (xc + params.a * (1.0 - x) ** params.c)


def _f_values(params: FracParams, x: np.ndarray) -> np.ndarray:
    """f_eval at each point of the array x, bit for bit, for x in [0, 1] (not checked).

    The arithmetic runs on arrays, but each power is a Python float power:
    numpy's array ``**`` need not round as ``pow`` does.  f(0) = 0 and
    f(1) = 1 come out of the arithmetic exactly.
    """
    xc = _powers(x, params.c)
    return xc / (xc + params.a * _powers(1.0 - x, params.c))


def _powers(x: np.ndarray, e: float) -> np.ndarray:
    return np.array([t**e for t in x.ravel().tolist()]).reshape(x.shape)


def f_inverse(params: FracParams, y: float) -> float:
    """Inverse of f_eval, in closed form through logit coordinates."""
    y = _check_unit_interval(y)
    if y == 0.0:
        return 0.0
    if y == 1.0:
        return 1.0
    u = (_beta(y) - math.log(params.a)) / params.c
    return _alpha(u)


def _coerce_p(p: FpParam | float) -> float:
    return (p if isinstance(p, FpParam) else FpParam(p)).p


def fp_eval(p: FpParam | float, x: float) -> float:
    """Evaluate the order-form member f_p at x in [0, 1]."""
    return float(_fp(_coerce_p(p), _check_unit_interval(x)))


def _fp(pv: float, x):
    """f_p at a float, or at each entry of an array with the same floats.

    f_p fixes 1, but the float denominator at x = 1 is 0 or 2 wherever
    1 - p rounds to -p or past it (p = -(2^53 + 2) is the first such p).
    So x = 1 takes the denominator 1, and every other x the formula's,
    which vanishes only at x = 1.
    """
    d = x * pv + (1.0 - pv)
    return x / np.where(x == 1.0, 1.0, d)


def inverse_param(p: FpParam | float) -> FpParam:
    """Parameter of the inverse map: f_p^-1 = f_q with q = 1 - 1/(1-p).  Once
    1 - p passes about 2^54, q rounds to 1, which is no p: ParamError names p."""
    pv = _coerce_p(p)
    q = 1.0 - 1.0 / (1.0 - pv)
    if q == 1.0:
        raise ParamError(f"p = {pv!r} has no inverse parameter: q = 1 - 1/(1 - p) rounds to 1")
    return FpParam(q)


def fp_apply(p: FpParam | float, A: Effect) -> Effect:
    """Apply f_p to an effect (or each member of a stack of effects) through
    the spectral calculus.

    f_p is increasing, so the stored ascending eigenvalue order (and the
    eigenvector pairing) survives untouched.
    """
    return _fp_spectral(_coerce_p(p), A.eigenvalues, A.eigenvectors)


def _fp_spectral(pv, w: np.ndarray, V: np.ndarray) -> Effect:
    """The one f_p kernel: the effect with eigenvalues f_p(w) and eigenvectors V, for
    a checked p, one float or a (T, 1) array of floats, one per member of a stack."""
    fw = np.clip(_fp(pv, w), 0.0, 1.0)
    return _effect(_from_spectrum(V, fw), fw, V)


def interior_grid(grid: int) -> np.ndarray:
    """grid points i/(grid+1), i = 1..grid: uniform and endpoint-free."""
    if not _is_count(grid):
        raise DomainError(f"grid must be a positive integer, got {grid!r}")
    return np.arange(1, grid + 1) / (grid + 1.0)


def verify_pexider(f: FracParams, g_scale: float, g_exponent: float, grid: int) -> float:
    """Worst residual of the multiplicative functional equation on a lattice.

    Evaluates |f(x/(x + (1-x)y)) - f(x) / (f(x) + (1 - f(x)) b y^c)| on
    the endpoint-free grid x grid lattice and returns the maximum, where a
    NaN residual counts for nothing.  No consistency between f and (b, c)
    is enforced; mismatched pairs simply produce a large residual, which
    is exactly what negative controls need.  g_scale and g_exponent must
    be positive numbers.
    """
    _require_positive("g_scale", g_scale)
    _require_positive("g_exponent", g_exponent)
    xs = interior_grid(grid)
    x = xs[:, None]
    fx = _f_values(f, x)
    lhs = _f_values(f, x / (x + (1.0 - x) * xs))
    gy = g_scale * _powers(xs, g_exponent)
    rhs = fx / (fx + (1.0 - fx) * gy)
    return float(np.fmax.reduce(np.abs(lhs - rhs), axis=None, initial=0.0))


def fit_frac(samples: Iterable[tuple[float, float]]) -> FracFit:
    """Recover (a, c) from samples (x, f(x)) by least squares in logit space.

    Needs at least three samples with interior x and f(x) values and
    non-degenerate spread in x.  The reported residual is the worst
    absolute deviation in logit coordinates.
    """
    pts = list(samples)
    if len(pts) < 3:
        raise FitError(f"need at least 3 samples, got {len(pts)}")
    for x, y in pts:
        if not (0.0 < x < 1.0 and 0.0 < y < 1.0):
            raise FitError(f"sample ({x!r}, {y!r}) outside the open unit square")
    bx = np.array([_beta(x) for x, _ in pts])
    by = np.array([_beta(y) for _, y in pts])
    if float(bx.max() - bx.min()) < 1e-12:
        raise FitError("degenerate fit: all x collapse to one logit value")
    slope, intercept = np.polyfit(bx, by, 1)
    a = math.exp(float(intercept))
    if not (math.isfinite(a) and a > 0.0):
        raise FitError(f"fitted multiplier {a!r} is not a positive real")
    residual = float(np.max(np.abs(by - (slope * bx + intercept))))
    return FracFit(a=a, c=float(slope), residual=residual)


def g_symmetry_check(b: float, c: float, grid: int) -> bool:
    """True iff g(y) = b y^c satisfies g(1-x) = 1 - g(x) on the grid.

    Within the family the symmetry pins (b, c) = (1, 1); the check is the
    grid version of that statement, within the default tolerances' eps_eq.
    b and c must be positive numbers.
    """
    _require_positive("b", b)
    _require_positive("c", c)
    return _symmetry_defect(b, c, grid) <= DEFAULT_TOL.eps_eq


def _symmetry_defect(b: float, c: float, grid: int) -> float:
    """Worst |g(1-x) - (1 - g(x))| over the interior grid, g(y) = b y^c."""
    xs = interior_grid(grid)
    return float(np.max(np.abs(b * (1.0 - xs) ** c - (1.0 - b * xs**c))))


def rigidity_probe(
    p: FpParam | float, kind: str, grid: int
) -> float | tuple[float, float] | None:
    """Search a grid for a witness that f_p violates a rigidity identity.

    kind is one of 'fixed-point' (f(x) = x at an interior point),
    'symmetry' (f(1-x) = 1 - f(x)), or 'multiplicative'
    (f(xy) = f(x) f(y), searched over grid x grid pairs).  Returns the
    first witness, or None when the identity holds on the whole grid;
    the identity map p = 0 is the only member that always returns None.
    """
    pv = _coerce_p(p)
    xs = interior_grid(grid)
    if kind == "fixed-point":
        gaps = np.abs(_fp(pv, xs) - xs)
    elif kind == "symmetry":
        gaps = np.abs(_fp(pv, 1.0 - xs) - (1.0 - _fp(pv, xs)))
    elif kind == "multiplicative":
        gaps = np.abs(_fp(pv, xs[:, None] * xs) - _fp(pv, xs)[:, None] * _fp(pv, xs))
    else:
        raise DomainError(f"unknown rigidity kind {kind!r}; expected one of {RIGIDITY_KINDS}")
    # argwhere lists (x, y) witnesses row-major: x first, then y, as nested loops would.
    found = np.argwhere(gaps > DEFAULT_TOL.eps_eq)
    if not len(found):
        return None
    witness = tuple(xs[found[0]].tolist())
    return witness if kind == "multiplicative" else witness[0]


def _alpha(t: float) -> float:
    return 1.0 / (1.0 + math.exp(t))


def _beta(x: float) -> float:
    return math.log((1.0 - x) / x)


def _gamma(y: float) -> float:
    return math.log(y)


@dataclass(frozen=True)
class PexiderDecomposition:
    """Additive form of the functional equation.

    F, G, H are the conjugates of f, f, g under alpha, beta, gamma; for a
    solution pair they satisfy F(u + v) = G(u) + H(v) for real u and
    negative v, and are affine with a common slope.
    """

    F: Callable[[float], float]
    G: Callable[[float], float]
    H: Callable[[float], float]

    def max_residual(self, grid: int) -> float:
        """Worst |F(u+v) - G(u) - H(v)| with u, v induced by interior grids."""
        xs = interior_grid(grid)
        us = [_beta(float(x)) for x in xs]
        vs = [_gamma(float(y)) for y in xs]  # all negative
        worst = 0.0
        for u in us:
            for v in vs:
                worst = max(worst, abs(self.F(u + v) - self.G(u) - self.H(v)))
        return worst


def pexider_decomposition(f: FracParams, g_scale: float, g_exponent: float) -> PexiderDecomposition:
    """Conjugate (f, g) into the additive Pexider form; g_scale and
    g_exponent must be positive numbers."""
    _require_positive("g_scale", g_scale)
    _require_positive("g_exponent", g_exponent)

    def F(u: float) -> float:
        return _beta(f_eval(f, _alpha(u)))

    def H(v: float) -> float:
        return _gamma(g_scale * math.exp(v) ** g_exponent)

    # G(u) = beta(f(beta^-1(u))), and beta^-1 is alpha: G is F.
    return PexiderDecomposition(F=F, G=F, H=H)


def _pexider_controls(seeds: list[int], n: int, tol: ToleranceConfig) -> list[tuple]:
    symmetric = _symmetry_defect(1.0, 1.0, 50) <= tol.eps_eq
    return [("symmetry-rejects-identity-pair", [not symmetric] * len(seeds), 0.0, {})]


def _pexider_step(seeds: list[int], n: int, tol: ToleranceConfig, block: _Block) -> list[tuple]:
    """Functional equation residuals, fit recovery, and the symmetry pin;
    a trial is a scalar problem, run in blocks as at n = 1."""
    xs = interior_grid(12)
    residuals, errors, pinned = [], [], []
    for rng in block.rngs:
        a = float(np.exp(rng.uniform(-1.6, 1.6)))
        c = float(np.exp(rng.uniform(-0.9, 0.9)))
        params = FracParams(a=a, b=1.0, c=c)
        residuals.append(verify_pexider(params, 1.0, c, 20))
        fit = fit_frac(zip(xs.tolist(), _f_values(params, xs).tolist()))
        errors.append(max(abs(fit.a - a), abs(fit.c - c)))
        sb = 1.0 + float(rng.choice([-1.0, 1.0])) * float(rng.uniform(1.5e-3, 0.5))
        sc = 1.0 + float(rng.choice([-1.0, 1.0])) * float(rng.uniform(1.5e-3, 0.5))
        pinned.append(_symmetry_defect(sb, sc, 40) <= tol.eps_eq)
    return [
        ("functional-equation-residual", residuals, tol.eps_herm, {}),
        ("fit-recovery", errors, 100 * tol.eps_rank, {}),
        ("symmetry-accepts-off-family-pair", pinned, 0.0, {}),
    ]


_PEXIDER = Suite("pexider", (), _pexider_step, _pexider_controls)
