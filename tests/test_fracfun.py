"""Fractional family: evaluation, inversion, functional equation, fits."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from effectkit.effects import make_effect
from effectkit.errors import DomainError, FitError, ParamError
from effectkit.fracfun import (
    RIGIDITY_KINDS,
    FpParam,
    FracParams,
    f_eval,
    f_inverse,
    fit_frac,
    fp_apply,
    fp_eval,
    g_symmetry_check,
    interior_grid,
    inverse_param,
    pexider_decomposition,
    rigidity_probe,
    verify_pexider,
)


def test_param_validation():
    with pytest.raises(ParamError):
        FracParams(a=-1.0, b=1.0, c=1.0)
    with pytest.raises(ParamError):
        FracParams(a=1.0, b=0.0, c=1.0)
    with pytest.raises(ParamError):
        FpParam(1.0)
    FpParam(0.999)
    FpParam(-50.0)


def test_f_eval_known_values():
    assert f_eval(FracParams(0.5, 1.0, 1.0), 0.5) == pytest.approx(2.0 / 3.0)
    assert f_eval(FracParams(2.0, 1.0, 3.0), 0.5) == pytest.approx(1.0 / 3.0)
    params = FracParams(1.7, 1.0, 0.8)
    assert f_eval(params, 0.0) == 0.0
    assert f_eval(params, 1.0) == 1.0


def test_fp_eval_matches_general_form():
    for p in (-3.0, -1.0, 0.0, 0.5, 0.9):
        general = FracParams(1.0 - p, 1.0, 1.0)
        for x in interior_grid(9):
            assert fp_eval(p, x) == pytest.approx(f_eval(general, x), abs=1e-15)
    # p = 0 is the identity
    for x in interior_grid(9):
        assert fp_eval(0.0, x) == pytest.approx(x, abs=1e-15)


def test_fp_eval_monotone():
    xs = interior_grid(30)
    for p in (-2.0, 0.7):
        ys = [fp_eval(p, x) for x in xs]
        assert all(b > a for a, b in zip(ys, ys[1:]))


@settings(max_examples=60, deadline=None)
@given(
    a=st.floats(min_value=0.1, max_value=10.0),
    c=st.floats(min_value=0.2, max_value=5.0),
    x=st.floats(min_value=0.01, max_value=0.99),
)
def test_f_inverse_round_trip(a, c, x):
    # Near 0 and 1 the double y keeps too few digits of min(y, 1 - y) for
    # any inverse to recover x to 1e-9; the next test covers that edge.
    params = FracParams(a, 1.0, c)
    y = f_eval(params, x)
    assume(min(y, 1.0 - y) >= 1e-6)
    assert f_inverse(params, y) == pytest.approx(x, abs=1e-9)


def test_f_inverse_near_one_is_exact_for_the_double():
    # 1 - f(x) = 1.26e-10 here: rounding y by half an ulp (2**-54) moves
    # 1 - y by up to 4.4e-7 of itself, and 1 - x by that over c, 1.4e-9.
    # The inverse misses x by 1.35e-9 and maps back to y exactly; the bound
    # allows a whole ulp, for the inverse's own rounding.
    params, x = FracParams(0.125, 1.0, 5.0), 0.984375
    y = f_eval(params, x)
    back = f_inverse(params, y)
    assert 1.0 - y < 1e-6
    assert f_eval(params, back) == y
    assert abs(back - x) <= (1.0 - x) * 2.0**-53 / (params.c * (1.0 - y))


@settings(max_examples=40, deadline=None)
@given(
    p=st.floats(min_value=-20.0, max_value=0.99),
    x=st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
)
def test_inverse_param_round_trip(p, x):
    q = inverse_param(p)
    assert fp_eval(q, fp_eval(p, x)) == pytest.approx(x, abs=1e-9)


def test_inverse_param_known_value():
    assert inverse_param(0.5).p == pytest.approx(-1.0)
    assert inverse_param(0.0).p == 0.0


def test_fp_apply_spectral():
    A = make_effect(np.diag([0.5, 0.25]))
    image = fp_apply(0.5, A)
    assert np.allclose(np.diag(image.matrix).real, [2.0 / 3.0, 0.4], atol=1e-14)
    # eigenvectors are untouched, only eigenvalues move
    assert np.allclose(image.matrix - np.diag(np.diag(image.matrix)), 0.0)


def test_interior_grid():
    g = interior_grid(4)
    assert np.allclose(g, [0.2, 0.4, 0.6, 0.8])
    assert 0.0 < g[0] and g[-1] < 1.0
    with pytest.raises(DomainError):
        interior_grid(0)


def test_verify_pexider_solution_family():
    for k in range(15):
        rng = np.random.default_rng([41, k])
        a = float(np.exp(rng.uniform(-1.5, 1.5)))
        c = float(np.exp(rng.uniform(-0.9, 0.9)))
        residual = verify_pexider(FracParams(a, 1.0, c), 1.0, c, 20)
        assert residual <= 1e-12


def test_verify_pexider_rejects_mismatched_pair():
    # scaling g breaks the equation by |log b| uniformly
    params = FracParams(1.3, 1.0, 1.0)
    residual = verify_pexider(params, 2.0, 1.0, 12)
    assert residual > 1e-2


def test_fit_frac_recovers_parameters():
    for k in range(15):
        rng = np.random.default_rng([43, k])
        a = float(np.exp(rng.uniform(-1.5, 1.5)))
        c = float(np.exp(rng.uniform(-0.9, 0.9)))
        params = FracParams(a, 1.0, c)
        samples = [(float(x), f_eval(params, float(x))) for x in interior_grid(50)]
        fit = fit_frac(samples)
        assert abs(fit.a - a) <= 1e-6
        assert abs(fit.c - c) <= 1e-6
        assert fit.residual <= 1e-9


def test_fit_frac_error_cases():
    with pytest.raises(FitError):
        fit_frac([(0.2, 0.3), (0.4, 0.5)])
    with pytest.raises(FitError):
        fit_frac([(0.2, 0.3), (0.4, 1.5), (0.6, 0.7)])
    # constant x has no logit spread
    with pytest.raises(FitError):
        fit_frac([(0.5, 0.3), (0.5, 0.4), (0.5, 0.5)])


def test_g_symmetry_check():
    assert g_symmetry_check(1.0, 1.0, 30)
    assert not g_symmetry_check(1.01, 1.0, 30)
    assert not g_symmetry_check(1.0, 1.01, 30)
    assert not g_symmetry_check(0.7, 1.4, 30)


def test_rigidity_probe_identity_passes():
    for kind in RIGIDITY_KINDS:
        assert rigidity_probe(0.0, kind, 60) is None


def test_rigidity_probe_finds_witnesses():
    for p in (-1.0, 0.1, 0.5, 0.9):
        for kind in RIGIDITY_KINDS:
            witness = rigidity_probe(p, kind, 100)
            assert witness is not None


def test_rigidity_probe_symmetry_known_witness():
    # at p = 0.5 the symmetry fails already at x = 0.25:
    # f(0.75) = 6/7 while 1 - f(0.25) = 3/5
    witness = rigidity_probe(0.5, "symmetry", 3)
    assert witness == pytest.approx(0.25)


def test_rigidity_probe_unknown_kind():
    with pytest.raises(DomainError):
        rigidity_probe(0.5, "nonsense", 10)


def _rigidity_reference(p, kind, grid):
    """rigidity_probe as first written: scalar loops over the grid, stopping at the first witness."""
    xs = interior_grid(grid)
    if kind == "fixed-point":
        for x in xs:
            if abs(fp_eval(p, float(x)) - float(x)) > 1e-9:
                return float(x)
        return None
    if kind == "symmetry":
        for x in xs:
            if abs(fp_eval(p, 1.0 - float(x)) - (1.0 - fp_eval(p, float(x)))) > 1e-9:
                return float(x)
        return None
    for x in xs:
        for y in xs:
            if abs(fp_eval(p, float(x * y)) - fp_eval(p, float(x)) * fp_eval(p, float(y))) > 1e-9:
                return (float(x), float(y))
    return None


# At p = -3e-8, 2e-8 and 1e-7 the first multiplicative witness on the
# 25-point grid lies off the diagonal, so the order of the loops shows.
@pytest.mark.parametrize(
    "p", [-1e6, -3.0, -0.5, -3e-8, -1e-10, 0.0, 1e-12, 1e-9, 1e-8, 2e-8, 1e-7, 0.3, 0.5, 0.999999]
)
@pytest.mark.parametrize("kind", RIGIDITY_KINDS)
def test_rigidity_probe_returns_the_first_witness_of_the_loops(p, kind):
    for grid in (1, 2, 7, 25):
        # repr tells the floats apart exactly, and a pair from a single point.
        assert repr(rigidity_probe(p, kind, grid)) == repr(_rigidity_reference(p, kind, grid))


def test_pexider_decomposition_affine():
    params = FracParams(0.8, 1.0, 1.4)
    deco = pexider_decomposition(params, 1.0, 1.4)
    assert deco.max_residual(25) <= 1e-10
    # the conjugated maps are the same affine function u -> c u + log a
    for u in (-2.0, -0.5, 0.0, 1.0, 2.5):
        expected = 1.4 * u + math.log(0.8)
        assert deco.F(u) == pytest.approx(expected, abs=1e-12)
        assert deco.G(u) == pytest.approx(expected, abs=1e-12)
    # H is linear with slope c and offset log b = 0
    assert deco.H(0.0) == pytest.approx(0.0, abs=1e-12)
    assert deco.H(2.0) == pytest.approx(2.8, abs=1e-12)


def _pexider_reference(f, g_scale, g_exponent, grid):
    """verify_pexider as a scalar loop over the lattice, folded with max."""
    xs = interior_grid(grid)
    worst = 0.0
    for x in xs:
        fx = f_eval(f, float(x))
        for y in xs:
            lhs = f_eval(f, x / (x + (1.0 - x) * y))
            gy = g_scale * float(y) ** g_exponent
            rhs = fx / (fx + (1.0 - fx) * gy)
            worst = max(worst, abs(lhs - rhs))
    return float(worst)


def test_verify_pexider_equals_the_scalar_loop_bit_for_bit():
    # Every other draw is a solution pair (b, c) = (1, c); the rest are
    # mismatched pairs with residuals far from zero.
    for k in range(400):
        rng = np.random.default_rng([41, k])
        a = float(np.exp(rng.uniform(-3.0, 3.0)))
        c = float(np.exp(rng.uniform(-1.5, 1.5)))
        b, e = 1.0, c
        if k % 2:
            b, e = float(np.exp(rng.uniform(-2.0, 2.0))), float(np.exp(rng.uniform(-1.5, 1.5)))
        grid = int(rng.integers(1, 30))
        got = verify_pexider(FracParams(a, b, c), b, e, grid)
        assert got.hex() == _pexider_reference(FracParams(a, b, c), b, e, grid).hex()
