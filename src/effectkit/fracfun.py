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
passes all of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .effects import Effect, _effect
from .errors import DomainError, FitError, ParamError
from .numkern import _from_spectrum

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
_RIGIDITY_TOL = 1e-9


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
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ParamError(f"{name} must be a positive finite real, got {value!r}")


@dataclass(frozen=True)
class FpParam:
    """Order-form parameter p < 1; the identity map is p = 0."""

    p: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.p) and self.p < 1.0):
            raise ParamError(f"p must be a finite real below 1, got {self.p!r}")

    def as_frac(self) -> FracParams:
        return FracParams(a=1.0 - self.p, b=1.0, c=1.0)


@dataclass(frozen=True)
class FracFit:
    """Result of fit_frac: multiplier a, exponent c, worst logit residual."""

    a: float
    c: float
    residual: float


def _check_unit_interval(x: float) -> float:
    if not (math.isfinite(x) and -1e-12 <= x <= 1.0 + 1e-12):
        raise DomainError(f"argument {x!r} outside [0, 1]")
    return min(1.0, max(0.0, x))


def f_eval(params: FracParams, x: float) -> float:
    """Evaluate the general family member at x in [0, 1]."""
    x = _check_unit_interval(x)
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    xc = x**params.c
    return xc / (xc + params.a * (1.0 - x) ** params.c)


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
    if isinstance(p, FpParam):
        return p.p
    return FpParam(float(p)).p


def fp_eval(p: FpParam | float, x: float) -> float:
    """Evaluate the order-form member f_p at x in [0, 1]."""
    pv = _coerce_p(p)
    x = _check_unit_interval(x)
    return x / (x * pv + (1.0 - pv))


def inverse_param(p: FpParam | float) -> FpParam:
    """Parameter of the inverse map: f_p^-1 = f_q with q = 1 - 1/(1-p)."""
    pv = _coerce_p(p)
    return FpParam(1.0 - 1.0 / (1.0 - pv))


def fp_apply(p: FpParam | float, A: Effect) -> Effect:
    """Apply f_p to an effect (or each member of an EffectStack) through
    the spectral calculus.

    f_p is increasing, so the stored ascending eigenvalue order (and the
    eigenvector pairing) survives untouched.
    """
    pv = _coerce_p(p)
    w = A.eigenvalues
    fw = np.clip(w / (w * pv + (1.0 - pv)), 0.0, 1.0)
    V = A.eigenvectors
    return _effect(_from_spectrum(V, fw), fw, V)


def interior_grid(grid: int) -> np.ndarray:
    """grid points i/(grid+1), i = 1..grid: uniform and endpoint-free."""
    if grid < 1:
        raise DomainError(f"grid must be a positive integer, got {grid!r}")
    return np.arange(1, grid + 1) / (grid + 1.0)


def verify_pexider(f: FracParams, g_scale: float, g_exponent: float, grid: int) -> float:
    """Worst residual of the multiplicative functional equation on a lattice.

    Evaluates |f(x/(x + (1-x)y)) - f(x) / (f(x) + (1 - f(x)) b y^c)| on
    the endpoint-free grid x grid lattice and returns the maximum.  No
    consistency between f and (b, c) is enforced; mismatched pairs simply
    produce a large residual, which is exactly what negative controls need.
    """
    xs = interior_grid(grid)
    worst = 0.0
    for x in xs:
        fx = f_eval(f, float(x))
        for y in xs:
            lhs = f_eval(f, x / (x + (1.0 - x) * y))
            gy = g_scale * float(y) ** g_exponent
            rhs = fx / (fx + (1.0 - fx) * gy)
            worst = max(worst, abs(lhs - rhs))
    return worst


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
    grid version of that statement with threshold 1e-9.
    """
    xs = interior_grid(grid)
    worst = float(np.max(np.abs(b * (1.0 - xs) ** c - (1.0 - b * xs**c))))
    return worst <= _RIGIDITY_TOL


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
        for x in xs:
            if abs(fp_eval(pv, float(x)) - float(x)) > _RIGIDITY_TOL:
                return float(x)
        return None
    if kind == "symmetry":
        for x in xs:
            if abs(fp_eval(pv, 1.0 - float(x)) - (1.0 - fp_eval(pv, float(x)))) > _RIGIDITY_TOL:
                return float(x)
        return None
    if kind == "multiplicative":
        for x in xs:
            for y in xs:
                gap = abs(fp_eval(pv, float(x * y)) - fp_eval(pv, float(x)) * fp_eval(pv, float(y)))
                if gap > _RIGIDITY_TOL:
                    return (float(x), float(y))
        return None
    raise DomainError(f"unknown rigidity kind {kind!r}; expected one of {RIGIDITY_KINDS}")


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
    """Conjugate (f, g) into the additive Pexider form."""

    def F(u: float) -> float:
        return _beta(f_eval(f, _alpha(u)))

    def G(u: float) -> float:
        return _beta(f_eval(f, _inv_beta(u)))

    def H(v: float) -> float:
        return _gamma(g_scale * math.exp(v) ** g_exponent)

    return PexiderDecomposition(F=F, G=G, H=H)


def _inv_beta(u: float) -> float:
    return 1.0 / (1.0 + math.exp(u))
