"""Automorphism family and the seeded verification suites."""

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
from effectkit.effects import (
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
    NotInFamily,
    NotScalarAction,
    UnitarityViolation,
)
from effectkit.fracfun import FpParam, fp_eval
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


def test_apply_diagonal_known_values():
    phi = EffectAutomorphism(U=np.eye(2), conjugate=False, p=FpParam(0.5))
    A = make_effect(np.diag([0.5, 0.25]))
    image = apply(phi, A)
    assert np.allclose(np.diag(image.matrix).real, [2.0 / 3.0, 0.4], atol=1e-14)


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

    seen = []
    real = autos._make_effect_stack

    def spy(Ms, tol=DEFAULT_TOL):
        seen.append(tol)
        return real(Ms, tol)

    monkeypatch.setattr(autos, "_make_effect_stack", spy)
    tol = DEFAULT_TOL.scaled(3.0)
    phi = random_automorphism(3, 0.5, False, 1)
    default = verify_zero_product(phi, 4, 2)
    assert seen == [DEFAULT_TOL, DEFAULT_TOL]
    seen.clear()
    verify_zero_product(phi, 4, 2, tol=tol)
    assert seen == [tol, tol]
    assert default.failures == 0
