"""Effect construction, order, complement, rays, rank helpers."""

import numpy as np
import pytest

from effectkit.effects import (
    WeakAtom,
    effects_equal,
    identity_effect,
    is_projection,
    is_scalar,
    leq,
    make_effect,
    make_ray,
    orthocomplement,
    range_projection,
    rank_of,
    sample_effect,
    sample_ray,
    scalar_effect,
    scalar_multiple_of_rank_one,
    zero_effect,
    zero_product,
)
from effectkit.errors import (
    DomainError,
    HermiticityViolation,
    OrderViolation,
    RankError,
    SpectrumOutOfRange,
)
from effectkit.numkern import frobenius, psd_leq


def test_make_effect_valid():
    A = make_effect(np.diag([0.0, 0.5, 1.0]))
    assert A.dim == 3
    assert np.allclose(A.eigenvalues, [0.0, 0.5, 1.0])
    assert A.trace() == pytest.approx(1.5)


def test_make_effect_rejects_spectrum():
    with pytest.raises(SpectrumOutOfRange):
        make_effect(np.diag([0.5, 1.5]))
    with pytest.raises(SpectrumOutOfRange):
        make_effect(np.diag([-0.2, 0.5]))


def test_make_effect_rejects_nonhermitian():
    with pytest.raises(HermiticityViolation):
        make_effect(np.array([[0.5, 0.4], [0.0, 0.5]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.inf)])
@pytest.mark.parametrize("where", [(0, 0), (0, 1)])
def test_make_effect_rejects_non_finite(bad, where):
    M = np.diag([0.25, 0.5]).astype(complex)
    M[where] = bad
    with pytest.raises(HermiticityViolation, match="non-finite entries"):
        make_effect(M)


def test_make_effect_clamps_roundoff():
    A = make_effect(np.diag([1.0 + 1e-12, -1e-12]))
    assert A.eigenvalues[0] == 0.0
    assert A.eigenvalues[-1] == 1.0


def test_effect_arrays_are_readonly():
    A = make_effect(np.diag([0.3, 0.7]))
    with pytest.raises(ValueError):
        A.matrix[0, 0] = 9.0
    with pytest.raises(ValueError):
        A.eigenvalues[0] = 9.0


def test_identity_zero_scalar():
    I = identity_effect(3)
    Z = zero_effect(3)
    H = scalar_effect(3, 0.25)
    assert np.array_equal(I.matrix, np.eye(3))
    assert np.array_equal(Z.matrix, np.zeros((3, 3)))
    assert np.allclose(H.matrix, 0.25 * np.eye(3))
    with pytest.raises(SpectrumOutOfRange):
        scalar_effect(3, 1.2)


def test_leq_and_equality():
    A = make_effect(np.diag([0.2, 0.3]))
    B = make_effect(np.diag([0.4, 0.3]))
    assert leq(A, B)
    assert not leq(B, A)
    assert effects_equal(A, A)
    assert not effects_equal(A, B)


def test_leq_agrees_with_validating_psd_leq():
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 8):
        for _ in range(20):
            A = sample_effect(n, rng)
            B = sample_effect(n, rng)
            P = sample_ray(n, rng).projection
            pairs = [(A, B), (B, A), (A, A), (A, orthocomplement(A)),
                     (orthocomplement(B), B), (WeakAtom(0.4, sample_ray(n, rng)).to_effect(), P),
                     (P, A), (scalar_effect(n, 0.3), A)]
            for L, R in pairs:
                assert leq(L, R) == psd_leq(L.matrix, R.matrix)


def test_orthocomplement_involution():
    rng = np.random.default_rng(21)
    for _ in range(20):
        A = sample_effect(3, rng)
        back = orthocomplement(orthocomplement(A))
        # involutive up to one rounding of each entry
        assert frobenius(back.matrix - A.matrix) < 1e-15 * 10
    # dyadic spectra come back exactly
    D = make_effect(np.diag([0.5, 0.25, 1.0]))
    assert np.array_equal(orthocomplement(orthocomplement(D)).matrix, D.matrix)


def test_orthocomplement_reverses_order():
    rng = np.random.default_rng(33)
    A = sample_effect(3, rng)
    # A <= I always, so complement is >= 0 and complement of 0 is I
    assert leq(A, identity_effect(3))
    assert leq(orthocomplement(identity_effect(3)), orthocomplement(A))


def test_make_ray_basics():
    ray = make_ray(np.array([3.0, 4.0]))
    assert abs(np.linalg.norm(ray.vector) - 1.0) < 1e-15
    P = ray.projection
    assert is_projection(P)
    assert rank_of(P) == 1
    assert P.trace() == pytest.approx(1.0)
    with pytest.raises(DomainError):
        make_ray(np.zeros(2))


def test_ray_projection_matches_outer_product():
    rng = np.random.default_rng(8)
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    ray = make_ray(v)
    u = ray.vector
    assert frobenius(ray.projection.matrix - np.outer(u, u.conj())) < 1e-14


def test_weak_atom():
    ray = make_ray(np.array([1.0, 0.0]))
    atom = WeakAtom(0.5, ray)
    E = atom.to_effect()
    assert np.allclose(E.matrix, np.diag([0.5, 0.0]))
    with pytest.raises(DomainError):
        WeakAtom(1.5, ray)


def test_zero_product_orthogonal_blocks():
    A = make_effect(np.diag([0.7, 0.0, 0.0]))
    B = make_effect(np.diag([0.0, 0.4, 0.9]))
    C = make_effect(np.diag([0.1, 0.1, 0.0]))
    assert zero_product(A, B)
    assert not zero_product(A, C)


def test_rank_and_range():
    A = make_effect(np.diag([0.5, 0.0, 0.25]))
    assert rank_of(A) == 2
    R = range_projection(A)
    assert is_projection(R)
    assert np.allclose(R.matrix, np.diag([1.0, 0.0, 1.0]))


def test_is_scalar():
    flag, lam = is_scalar(scalar_effect(3, 0.6))
    assert flag and lam == pytest.approx(0.6)
    flag, lam = is_scalar(make_effect(np.diag([0.6, 0.5, 0.6])))
    assert not flag and lam is None


def test_scalar_multiple_of_rank_one():
    P = make_ray(np.array([1.0, 1.0]) / np.sqrt(2)).projection
    A = make_effect(0.3 * P.matrix)
    t = scalar_multiple_of_rank_one(A, P)
    assert t == pytest.approx(0.3, abs=1e-12)
    # zero effect is the multiple t = 0
    assert scalar_multiple_of_rank_one(zero_effect(2), P) == pytest.approx(0.0)
    with pytest.raises(RankError):
        scalar_multiple_of_rank_one(A, make_effect(np.diag([0.5, 0.5])))
    # a rank-one effect along another direction is not below P
    other = make_ray(np.array([1.0, 0.0])).projection
    with pytest.raises(OrderViolation):
        scalar_multiple_of_rank_one(make_effect(0.3 * other.matrix), P)


def test_scalar_multiple_flags_inconsistent_inputs():
    # with loose tolerances the order check can pass while the
    # reconstruction residual does not; that case reports None
    from effectkit.numkern import DEFAULT_TOL

    tol = DEFAULT_TOL.scaled(1e4)
    P = make_ray(np.array([1.0, 0.0])).projection
    smudge = 8e-6 * np.diag([0.0, 1.0])
    A = make_effect(0.3 * P.matrix + smudge, tol)
    assert scalar_multiple_of_rank_one(A, P, tol) is None


def test_sample_effect_and_ray_deterministic():
    A1 = sample_effect(3, np.random.default_rng([4, 0]))
    A2 = sample_effect(3, np.random.default_rng([4, 0]))
    assert np.array_equal(A1.matrix, A2.matrix)
    r1 = sample_ray(3, np.random.default_rng([4, 1]))
    r2 = sample_ray(3, np.random.default_rng([4, 1]))
    assert np.array_equal(r1.vector, r2.vector)
