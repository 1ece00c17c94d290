"""Numeric kernel: tolerances, Hermitian checks, psd order, roots, sampling."""

import warnings

import numpy as np
import pytest

from effectkit.effects import _stack_effects, leq, make_effect, sample_effect
from effectkit.errors import DimensionError, HermiticityViolation, NotPositiveSemidefinite
from effectkit.numkern import (
    DEFAULT_TOL,
    ToleranceConfig,
    _psd_leq_both,
    _random_effect_stack,
    as_complex_matrix,
    eig_hermitian,
    frobenius,
    haar_unitary,
    hermitize,
    mat_sqrt,
    pinv_sqrt,
    psd_leq,
    random_effect,
    random_ray,
    require_hermitian,
)


def test_tolerance_defaults():
    assert DEFAULT_TOL.eps_psd == 1e-9
    assert DEFAULT_TOL.eps_rank == 1e-8
    assert DEFAULT_TOL.eps_eq == 1e-9
    assert DEFAULT_TOL.eps_herm == 1e-10


def test_tolerance_scaled():
    tol = DEFAULT_TOL.scaled(10.0)
    assert tol.eps_psd == pytest.approx(1e-8)
    assert tol.eps_rank == pytest.approx(1e-7)
    with pytest.raises(ValueError):
        DEFAULT_TOL.scaled(0.0)
    with pytest.raises(ValueError):
        DEFAULT_TOL.scaled(-1.0)


def test_tolerance_bounds_enforced():
    with pytest.raises(ValueError):
        ToleranceConfig(eps_psd=0.0)
    with pytest.raises(ValueError):
        ToleranceConfig(eps_rank=1e-2)


def test_as_complex_matrix_rejects_nonsquare():
    with pytest.raises(DimensionError):
        as_complex_matrix(np.zeros((2, 3)))
    with pytest.raises(DimensionError):
        as_complex_matrix(np.zeros(4))


def test_require_hermitian_accepts_and_rejects():
    M = np.array([[1.0, 2.0 + 1e-13j], [2.0 - 1e-13j, 3.0]])
    H = require_hermitian(M)
    assert frobenius(H - H.conj().T) == 0.0
    with pytest.raises(HermiticityViolation):
        require_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize(
    "M, message",
    [
        (np.eye(2) * 1e308, "matrix norm is inf"),
        # The norm fits in a float, the norm of M - M* does not.
        (np.array([[0.0, 9e153], [-9e153, 0.0]]), "not Hermitian: defect inf"),
    ],
    ids=["norm", "defect"],
)
def test_a_hermiticity_check_that_overflows_refuses_without_a_warning(M, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(HermiticityViolation, match=message):
            make_effect(M)


def test_eig_hermitian_known_matrix():
    # rank-one projection onto (1,1)/sqrt(2): spectrum {0, 1}
    dec = eig_hermitian(np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex))
    w, V = dec.eigenvalues, dec.eigenvectors
    assert np.allclose(w, [0.0, 1.0], atol=1e-14)
    recon = (V * w) @ V.conj().T
    assert frobenius(recon - np.array([[0.5, 0.5], [0.5, 0.5]])) < 1e-14


def test_psd_leq_basic():
    A = np.diag([0.2, 0.3]).astype(complex)
    B = np.diag([0.4, 0.3]).astype(complex)
    assert psd_leq(A, B)
    assert not psd_leq(B, A)
    # order is reflexive up to tolerance
    assert psd_leq(A, A)


def test_psd_leq_non_comparable():
    A = np.diag([0.6, 0.1]).astype(complex)
    B = np.diag([0.1, 0.6]).astype(complex)
    assert not psd_leq(A, B)
    assert not psd_leq(B, A)


def test_psd_leq_dimension_mismatch():
    with pytest.raises(DimensionError):
        psd_leq(np.eye(2, dtype=complex), np.eye(3, dtype=complex))


def test_psd_leq_tolerance_slack():
    # a violation below the relative slack still counts as ordered
    A = np.diag([0.5 + 1e-12, 0.5]).astype(complex)
    B = np.diag([0.5, 0.5]).astype(complex)
    assert psd_leq(A, B)


def test_mat_sqrt_squares_back():
    rng = np.random.default_rng(11)
    for _ in range(5):
        M = random_effect(3, rng)
        S = mat_sqrt(M)
        assert frobenius(S @ S - M) < 1e-12


def test_pinv_sqrt_on_singular():
    M = np.diag([1.0, 0.25, 0.0]).astype(complex)
    S = pinv_sqrt(M)
    assert np.allclose(np.diag(S).real, [1.0, 2.0, 0.0], atol=1e-14)


def test_pinv_sqrt_rejects_negative():
    with pytest.raises(NotPositiveSemidefinite):
        pinv_sqrt(np.diag([1.0, -0.5]).astype(complex))


def test_haar_unitary_is_unitary_and_seeded():
    for n in (2, 3, 5):
        U = haar_unitary(n, 123)
        assert frobenius(U.conj().T @ U - np.eye(n)) < 1e-13
    assert np.array_equal(haar_unitary(4, 7), haar_unitary(4, 7))
    assert not np.array_equal(haar_unitary(4, 7), haar_unitary(4, 8))


def test_haar_unitary_accepts_generator():
    rng = np.random.default_rng(3)
    U1 = haar_unitary(3, rng)
    U2 = haar_unitary(3, rng)
    # consecutive draws from one stream differ
    assert frobenius(U1 - U2) > 1e-3


def test_random_effect_spectrum():
    rng = np.random.default_rng(5)
    for _ in range(10):
        M = random_effect(4, rng)
        w = np.linalg.eigvalsh(M)
        assert w[0] >= -1e-12
        assert w[-1] <= 1.0 + 1e-12
        assert frobenius(M - M.conj().T) < 1e-14
    with pytest.raises(DimensionError, match="positive integer, got 0"):
        random_effect(0, 1)


@pytest.mark.parametrize("sampler", [haar_unitary, random_ray, random_effect, sample_effect])
@pytest.mark.parametrize("n", [0, True, 2.5])
def test_a_sampler_refuses_a_dimension_that_is_not_a_positive_int(sampler, n):
    # True is an int to isinstance, but not a dimension.
    with pytest.raises(DimensionError, match=f"positive integer, got {n!r}"):
        sampler(n, 0)


def test_random_ray_normalized():
    rng = np.random.default_rng(9)
    v = random_ray(6, rng)
    assert abs(np.linalg.norm(v) - 1.0) < 1e-14


def test_hermitize_idempotent():
    rng = np.random.default_rng(2)
    G = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    H = hermitize(G)
    assert frobenius(H - H.conj().T) == 0.0
    assert frobenius(hermitize(H) - H) == 0.0


# (n, stack size): the dimensions of the verify workloads and beyond.
SPECTRUM_STACKS = [(1, 5000), (2, 5000), (3, 5000), (8, 1000), (64, 40)]


@pytest.mark.parametrize("n,count", SPECTRUM_STACKS)
def test_reversed_difference_has_the_negated_spectrum(n, count):
    # The assumption _psd_leq_both rests on: the difference taken the other
    # way has the same Frobenius norm, and LAPACK returns its spectrum as
    # the first one negated and reversed, bit for bit.
    rngs = [np.random.default_rng([29, n, k]) for k in range(count)]
    A, B = _random_effect_stack(n, rngs), _random_effect_stack(n, rngs)
    D, E = hermitize(B - A), hermitize(A - B)
    w = np.linalg.eigvalsh(D)
    assert np.array_equal(np.linalg.eigvalsh(E).view(np.uint64), (-w[..., ::-1]).view(np.uint64))
    assert np.array_equal(frobenius(E), frobenius(D))


def _order_pairs():
    """Equal, ordered, scalar-multiple, incomparable and boundary pairs."""
    rng = np.random.default_rng(31)
    pairs = []
    for n in (1, 2, 3, 8):
        A = sample_effect(n, rng)
        inner = make_effect(0.9 * A.matrix)
        nudged = make_effect(inner.matrix + 1e-12 * np.eye(n))
        pairs += [
            (A, A),
            (A, make_effect(0.5 * A.matrix + 0.5 * np.eye(n))),
            (A, make_effect(0.25 * A.matrix)),
            (A, sample_effect(n, rng)),
            (inner, nudged),
            (inner, make_effect(inner.matrix + 2e-9 * np.eye(n))),
        ]
    return pairs


def test_psd_leq_both_equals_leq_each_way():
    decided = []
    for A, B in _order_pairs():
        for L, R in ((A, B), (B, A)):
            want = (leq(L, R), leq(R, L))
            got = _psd_leq_both(L.matrix, R.matrix, DEFAULT_TOL)
            assert (bool(got[0]), bool(got[1])) == want
            stacked = _psd_leq_both(
                _stack_effects([L, R, L]).matrix, _stack_effects([R, L, R]).matrix, DEFAULT_TOL
            )
            assert stacked[0].tolist() == [want[0], want[1], want[0]]
            assert stacked[1].tolist() == [want[1], want[0], want[1]]
            decided.append(want)
    assert {(True, True), (True, False), (False, True), (False, False)} <= set(decided)
