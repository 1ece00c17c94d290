"""Automorphism family and the seeded verification suites."""

import re
import warnings

import numpy as np
import pytest

from effectkit.autos import (
    EffectAutomorphism,
    apply,
    apply_to_ray,
    extract_scalar_action,
    fit_p,
    inverse,
    random_automorphism,
    verify_order,
    verify_ortho,
    verify_scalar_pair,
    verify_sequential,
    verify_transition,
    verify_zero_product,
)
from effectkit.coexist import coexist_rank_one
from effectkit.effects import (
    WeakAtom,
    _scalar_stack,
    effects_equal,
    make_effect,
    make_ray,
    orthocomplement,
    sample_effect,
    sample_ray,
    scalar_effect,
)
from effectkit.errors import (
    DimensionError,
    DomainError,
    InputError,
    NotInFamily,
    NotScalarAction,
    ParamError,
    SpectrumOutOfRange,
    UnitarityViolation,
)
from effectkit.fracfun import FpParam, fp_apply, fp_eval, inverse_param, rigidity_probe
from effectkit.numkern import DEFAULT_TOL, frobenius, haar_unitary


def test_constructor_rejects_non_unitary():
    with pytest.raises(UnitarityViolation):
        EffectAutomorphism(U=np.eye(2) * 2.0, conjugate=False, p=FpParam(0.0))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_constructor_rejects_non_finite_unitary(bad):
    U = np.eye(2, dtype=complex)
    U[1, 0] = bad
    with pytest.raises(UnitarityViolation, match="non-finite entries"):
        EffectAutomorphism(U=U, conjugate=False, p=FpParam(0.0))


def test_a_unitary_check_that_overflows_refuses_without_a_warning():
    # U*U overflows to inf and nan; the defect is refused, and numpy stays quiet.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UnitarityViolation, match="defect nan"):
            EffectAutomorphism(U=np.eye(2) * 1e308, conjugate=False, p=0.0)


@pytest.mark.parametrize(
    "build",
    [
        lambda: FpParam(False),
        lambda: FpParam(np.True_),
        lambda: EffectAutomorphism(U=np.eye(2), conjugate="no", p=0.0),
        lambda: EffectAutomorphism(U=np.eye(2), conjugate=1, p=0.0),
    ],
    ids=["p=False", "p=np.True_", "conjugate='no'", "conjugate=1"],
)
def test_map_values_that_a_map_document_cannot_hold_are_refused(build):
    # A bool p would be written as false, and a truthy string would conjugate.
    with pytest.raises(InputError):
        build()


@pytest.mark.parametrize(
    "call, given",
    [
        (lambda: EffectAutomorphism(np.eye(2), False, False), False),
        (lambda: fp_eval(False, 0.5), False),
        (lambda: fp_eval(np.False_, 0.3), np.False_),
        (lambda: inverse_param(False), False),
        (lambda: rigidity_probe(False, "fixed-point", 5), False),
        (lambda: fp_apply(np.array([False]), _scalar_stack(2, np.array([0.5]))), np.array([False])),
        (lambda: fp_apply(np.array([True]), _scalar_stack(2, np.array([0.5]))), np.array([True])),
        (lambda: fp_apply(np.array([0.5, 0.2]), scalar_effect(2, 0.5)), np.array([0.5, 0.2])),
        (lambda: fp_apply(np.array(0.5), scalar_effect(2, 0.5)), np.array(0.5)),
        (lambda: fp_eval("0.5", 0.5), "0.5"),
        (lambda: FpParam("0.5"), "0.5"),
        (lambda: EffectAutomorphism(np.eye(2), False, "0"), "0"),
    ],
    ids=[
        "map-p=False", "fp_eval-p=False", "fp_eval-p=np.False_", "inverse_param-p=False",
        "rigidity_probe-p=False", "fp_apply-p=[False]", "fp_apply-p=[True]", "fp_apply-p=[0.5, 0.2]",
        "fp_apply-p=array(0.5)", "fp_eval-p='0.5'",
        "FpParam-p='0.5'", "map-p='0'",
    ],
)
def test_every_entry_point_refuses_a_p_that_is_not_a_number_as_given(call, given):
    # FpParam checks p before anything turns it into a float: a bool is not
    # 0 or 1, a string is not the number it spells, and an array is not one p.
    with pytest.raises(ParamError, match=re.escape(f"p must be a finite real below 1, got {given!r}") + "$"):
        call()


def test_a_p_is_stored_as_a_python_float():
    # A map document writes phi.p.p; a Python float keeps its bytes.
    assert type(EffectAutomorphism(np.eye(2), False, np.float64(0.5)).p.p) is float
    assert type(FpParam(0).p) is float


def test_apply_diagonal_known_values():
    phi = EffectAutomorphism(U=np.eye(2), conjugate=False, p=FpParam(0.5))
    A = make_effect(np.diag([0.5, 0.25]))
    image = apply(phi, A)
    assert np.allclose(np.diag(image.matrix).real, [2.0 / 3.0, 0.4], atol=1e-14)
    # a bare float p is taken as its FpParam
    assert EffectAutomorphism(U=np.eye(2), conjugate=False, p=0.5).p == FpParam(0.5)


def test_apply_identity_map():
    phi = EffectAutomorphism(U=np.eye(3), conjugate=False, p=FpParam(0.0))
    A = sample_effect(3, np.random.default_rng(2))
    assert effects_equal(apply(phi, A), A)


def test_conjugate_branch():
    phi = EffectAutomorphism(U=np.eye(2), conjugate=True, p=FpParam(0.0))
    M = np.array([[0.5, 0.1j], [-0.1j, 0.5]])
    A = make_effect(M)
    image = apply(phi, A)
    assert frobenius(image.matrix - M.conj()) < 1e-14


def test_dimension_mismatch():
    phi = random_automorphism(3, 0.0, False, 1)
    with pytest.raises(DimensionError):
        apply(phi, make_effect(np.diag([0.5, 0.5])))


def test_inverse_round_trip():
    for k, conj in ((0, False), (1, True)):
        phi = random_automorphism(3, 0.5, conj, 17 + k)
        inv = inverse(phi)
        rng = np.random.default_rng(23 + k)
        for _ in range(5):
            A = sample_effect(3, rng)
            back = apply(inv, apply(phi, A))
            assert frobenius(back.matrix - A.matrix) < 1e-12


def test_inverse_parameter():
    phi = random_automorphism(2, 0.5, False, 3)
    assert inverse(phi).p.p == pytest.approx(-1.0)


def test_apply_to_ray_matches_apply():
    for conj in (False, True):
        phi = random_automorphism(4, -0.7, conj, 29)
        ray = sample_ray(4, np.random.default_rng(31))
        direct = apply(phi, ray.projection)
        via_ray = apply_to_ray(phi, ray).projection
        assert frobenius(direct.matrix - via_ray.matrix) < 1e-12


def test_extract_scalar_action_known_value():
    phi = random_automorphism(3, 0.5, False, 5)
    ray = sample_ray(3, np.random.default_rng(6))
    assert extract_scalar_action(phi, ray, 0.5) == pytest.approx(2.0 / 3.0, abs=1e-9)
    with pytest.raises(DomainError):
        extract_scalar_action(phi, ray, 1.5)


def test_extract_scalar_action_ray_independent():
    phi = random_automorphism(3, -2.0, True, 7)
    rng = np.random.default_rng(8)
    values = [extract_scalar_action(phi, sample_ray(3, rng), 0.3) for _ in range(6)]
    assert max(values) - min(values) < 1e-9
    assert values[0] == pytest.approx(fp_eval(-2.0, 0.3), abs=1e-9)


def test_extract_scalar_action_rejects_non_multiple():
    bump = make_effect(np.diag([0.0, 0.0, 0.25]))

    def warped(A):
        return make_effect(0.5 * A.matrix + bump.matrix)

    ray = make_ray(np.array([1.0, 0.0, 0.0]))
    with pytest.raises(NotScalarAction):
        extract_scalar_action(warped, ray, 0.5)


def test_fit_p_recovers_parameter():
    for p in (-3.0, -1.0, 0.0, 0.5, 0.9):
        for conj in (False, True):
            phi = random_automorphism(3, p, conj, 11)
            assert fit_p(phi, 25).p == pytest.approx(p, abs=1e-6)


def test_fit_p_rejects_non_family_maps():
    # orthocomplement acts on scalars with a negative logit slope
    with pytest.raises(NotInFamily):
        fit_p(orthocomplement, 25, dim=2)
    # squaring acts with slope 2
    with pytest.raises(NotInFamily):
        fit_p(lambda A: make_effect(A.matrix @ A.matrix), 25, dim=2)
    # maps whose scalar images are not scalar fail outright
    P = make_ray(np.array([1.0, 0.0])).projection

    def smear(A):
        return make_effect(0.5 * A.matrix + 0.25 * P.matrix)

    with pytest.raises(NotInFamily):
        fit_p(smear, 25, dim=2)
    # a scalar image outside (0, 1) has no logit
    with pytest.raises(NotInFamily, match="leaves the open unit interval"):
        fit_p(lambda A: scalar_effect(A.dim, 0.0), 25, dim=2)


@pytest.mark.parametrize("grid", [2, 1, 0, 2.5, True, np.int64(2)])
def test_fit_p_refuses_a_grid_below_three_before_mapping(grid):
    # Fewer than three samples can never fit: unusable input, not a failed check.
    calls = []

    def identity(A):
        calls.append(A)
        return A

    message = re.escape(f"grid must be an integer of at least 3, got {grid!r}")
    for phi, dim in ((identity, 2), (random_automorphism(2, 0.5, False, 1), None)):
        with pytest.raises(DomainError, match=message):
            fit_p(phi, grid, dim=dim)
    assert calls == []


def test_fit_p_needs_dim_for_callables():
    with pytest.raises(DimensionError):
        fit_p(lambda A: A, 10)


def test_family_passes_universal_suites():
    for p, conj in ((0.5, False), (-1.0, True)):
        phi = random_automorphism(3, p, conj, 41)
        for suite in (verify_order, verify_zero_product, verify_transition):
            report = suite(phi, 30, 57)
            assert report.failures == 0, suite.__name__
            assert report.counterexample is None
        report = verify_scalar_pair(phi, 0.3, 30, 57)
        assert report.failures == 0


def test_rigid_suites_pass_only_at_zero():
    phi0 = random_automorphism(3, 0.0, False, 43)
    assert verify_ortho(phi0, 20, 59).failures == 0
    assert verify_sequential(phi0, 20, 59).failures == 0

    phi = random_automorphism(3, 0.5, False, 43)
    ortho_report = verify_ortho(phi, 20, 59)
    seq_report = verify_sequential(phi, 20, 59)
    assert ortho_report.failures > 0
    assert seq_report.failures > 0
    assert ortho_report.counterexample is not None
    assert ortho_report.worst_violation > 1e-3


def test_rigid_suites_fail_for_every_nonzero_p():
    for p in (-1.0, 0.1, 0.5, 0.9):
        phi = random_automorphism(2, p, False, 47)
        assert verify_ortho(phi, 5, 61).failures > 0
        assert verify_sequential(phi, 5, 61).failures > 0


def test_negative_control_orthocomplement_breaks_order():
    report = verify_order(orthocomplement, 30, 63, dim=3)
    assert report.failures > 0
    assert report.counterexample is not None


def test_order_suite_compares_both_directions():
    # A constant map sends every pair to (I/2, I/2), ordered both ways.  The
    # constructed pair (B o C, B) is ordered one way only, unless B o C = B,
    # and the generic pair in neither: both fail, 2 checks per trial.  A
    # suite that compared only A <= B would pass every constructed pair.
    half = scalar_effect(3, 0.5)
    report = verify_order(lambda A: half, 20, 5, dim=3)
    assert report.failures == 40


def test_negative_control_shrink_breaks_zero_product():
    def shrink(A):
        return make_effect(0.5 * A.matrix + 0.25 * np.eye(A.dim))

    report = verify_zero_product(shrink, 30, 65, dim=3)
    assert report.failures > 0


def test_negative_control_smear_breaks_scalar_pair():
    P = make_ray(np.array([1.0, 0.0, 0.0])).projection

    def smear(A):
        return make_effect(0.5 * A.matrix + 0.25 * P.matrix)

    report = verify_scalar_pair(smear, 0.3, 10, 67, dim=3)
    assert report.failures > 0
    for lam in (-0.1, 1.5):
        with pytest.raises(DomainError, match="lam must lie in"):
            verify_scalar_pair(smear, lam, 10, 67, dim=3)


@pytest.mark.parametrize("lam", [True, False, np.True_])
def test_verify_scalar_pair_refuses_a_bool_weight(lam):
    # True would otherwise run as lam = 1.
    calls = []
    phi = random_automorphism(3, 0.5, False, 1)
    with pytest.raises(DomainError, match=re.escape(f"lam must be a number, not a bool, got {lam!r}")):
        verify_scalar_pair(lambda A: calls.append(A) or phi(A), lam, 5, 1, dim=3)
    assert calls == []


@pytest.mark.parametrize("weight", [True, False, np.True_, np.False_])
def test_a_bool_weight_is_refused(weight):
    # One weight rule: True would otherwise run as the weight 1, False as 0.
    calls = []
    phi = random_automorphism(3, 0.5, False, 1)
    ray = sample_ray(3, np.random.default_rng(2))
    with pytest.raises(DomainError, match=re.escape(f"weak atom weight must be a number in [0, 1], got {weight!r}")):
        WeakAtom(weight, ray)
    with pytest.raises(DomainError, match=re.escape(f"weight t must be a number in [0, 1], got {weight!r}")):
        extract_scalar_action(lambda A: calls.append(A) or phi(A), ray, weight)
    with pytest.raises(DomainError, match=re.escape(f"lam must be a number, not a bool, got {weight!r}")):
        verify_scalar_pair(lambda A: calls.append(A) or phi(A), weight, 5, 1, dim=3)
    assert calls == []
    with pytest.raises(SpectrumOutOfRange, match=re.escape(f"scalar must be a number in [0, 1], got {weight!r}")):
        scalar_effect(2, weight)
    other = sample_ray(3, np.random.default_rng(3))
    with pytest.raises(DomainError, match=re.escape(f"weight s must be a number in (0, 1], got {weight!r}")):
        coexist_rank_one(weight, ray, 0.1, other)
    with pytest.raises(DomainError, match=re.escape(f"weight t must be a number in (0, 1], got {weight!r}")):
        coexist_rank_one(0.1, ray, weight, other)


def _widen(A):
    """A -> A (x) I_2: an effect of twice the dimension of its argument."""
    return make_effect(np.kron(A.matrix, np.eye(2)))


WIDEN_PATHS = {
    "order": lambda: verify_order(_widen, 5, 1, dim=2),
    "zero-product": lambda: verify_zero_product(_widen, 5, 1, dim=2),
    "ortho": lambda: verify_ortho(_widen, 5, 1, dim=2),
    "sequential": lambda: verify_sequential(_widen, 5, 1, dim=2),
    "transition": lambda: verify_transition(_widen, 5, 1, dim=2),
    "scalar-pair": lambda: verify_scalar_pair(_widen, 0.3, 5, 1, dim=2),
    "fit_p": lambda: fit_p(_widen, 10, dim=2),
    "extract_scalar_action": lambda: extract_scalar_action(_widen, sample_ray(2, np.random.default_rng(3)), 0.5),
}


@pytest.mark.parametrize("path", list(WIDEN_PATHS))
def test_a_map_that_changes_the_dimension_is_refused(path):
    # A black box whose image has another dimension than its argument is
    # not a map on E(H): every path refuses it, where order and sequential
    # reported no failure, fit_p found p = 0 and ortho failed inside numpy.
    with pytest.raises(DimensionError, match="the map sends an effect of dimension 2 to dimension 4"):
        WIDEN_PATHS[path]()


def test_reports_are_deterministic():
    phi = random_automorphism(3, 0.5, True, 71)
    r1 = verify_order(phi, 25, 73)
    r2 = verify_order(phi, 25, 73)
    assert r1.to_dict() == r2.to_dict()
    r3 = verify_order(phi, 25, 74)
    assert r3.seed != r1.seed


def test_transition_suite_antiunitary():
    phi = random_automorphism(4, 0.9, True, 79)
    report = verify_transition(phi, 40, 81)
    assert report.failures == 0
    assert report.worst_violation <= 1e-9


def test_unitary_conjugation_consistency():
    # build the same member twice from one unitary and check agreement
    U = haar_unitary(3, 83)
    phi1 = EffectAutomorphism(U=U, conjugate=False, p=FpParam(0.3))
    phi2 = EffectAutomorphism(U=U.copy(), conjugate=False, p=FpParam(0.3))
    A = sample_effect(3, np.random.default_rng(85))
    assert effects_equal(apply(phi1, A), apply(phi2, A))


def test_scalar_effect_maps_to_scalar():
    phi = random_automorphism(3, 0.6, False, 87)
    image = apply(phi, scalar_effect(3, 0.4))
    expected = fp_eval(0.6, 0.4)
    assert frobenius(image.matrix - expected * np.eye(3)) < 1e-12


def test_zero_product_suite_validates_its_orthogonal_pair_with_tol(monkeypatch):
    from effectkit import autos

    # The frames are built by the program, so they take the spectral rules
    # alone, in one stack with the generic pair; the tol given reaches them.
    seen = []
    real = autos._spectral

    def spy(H, tol):
        seen.append((H.shape[:-2], tol))
        return real(H, tol)

    monkeypatch.setattr(autos, "_spectral", spy)
    tol = DEFAULT_TOL.scaled(3.0)
    phi = random_automorphism(3, 0.5, False, 1)
    default = verify_zero_product(phi, 4, 2)
    assert seen == [((4, 4), DEFAULT_TOL)]  # A, B, X and Y of the 4 trials
    seen.clear()
    verify_zero_product(phi, 4, 2, tol=tol)
    assert seen == [((4, 4), tol)]
    assert default.failures == 0
