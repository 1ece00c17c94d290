"""Sequential product, zero coupling, quotients, and the order probe."""

import numpy as np
import pytest

from effectkit.effects import (
    effects_equal,
    identity_effect,
    leq,
    make_effect,
    sample_effect,
    zero_effect,
    zero_product,
)
from effectkit.errors import OrderViolation, QuotientFailure
from effectkit.numkern import frobenius, haar_unitary
from effectkit.sequential import (
    douglas_quotient,
    order_via_seq,
    seq_product,
    seq_zero_iff_zero,
)


def test_seq_product_known_value():
    A = make_effect(np.diag([1.0, 0.0]))
    B = make_effect(np.array([[0.5, 0.5], [0.5, 0.5]]))
    C = seq_product(A, B)
    assert np.allclose(C.matrix, np.diag([0.5, 0.0]), atol=1e-14)


def test_seq_product_with_identity():
    rng = np.random.default_rng(14)
    A = sample_effect(3, rng)
    assert effects_equal(seq_product(identity_effect(3), A), A)
    assert effects_equal(seq_product(A, identity_effect(3)), A)


def test_seq_product_commuting_pair():
    # commuting effects multiply like scalars on the joint eigenbasis
    A = make_effect(np.diag([0.9, 0.4, 0.1]))
    B = make_effect(np.diag([0.5, 0.5, 0.2]))
    C = seq_product(A, B)
    assert np.allclose(C.matrix, np.diag([0.45, 0.2, 0.02]), atol=1e-14)


def test_seq_zero_iff_zero():
    A = make_effect(np.diag([0.7, 0.0, 0.0]))
    B = make_effect(np.diag([0.0, 0.0, 0.3]))
    seq_is_zero, prod_is_zero = seq_zero_iff_zero(A, B)
    assert seq_is_zero and prod_is_zero
    C = make_effect(np.diag([0.2, 0.2, 0.2]))
    seq_is_zero, prod_is_zero = seq_zero_iff_zero(A, C)
    assert not seq_is_zero and not prod_is_zero


def test_seq_zero_iff_zero_randomized():
    for k in range(40):
        rng = np.random.default_rng([61, k])
        n = int(rng.integers(2, 5))
        if k % 2 == 0:
            V = haar_unitary(n, rng)
            split = int(rng.integers(1, n))
            wa = np.concatenate([rng.uniform(0.1, 1.0, split), np.zeros(n - split)])
            wb = np.concatenate([np.zeros(split), rng.uniform(0.1, 1.0, n - split)])
            A = make_effect((V * wa) @ V.conj().T)
            B = make_effect((V * wb) @ V.conj().T)
        else:
            A = sample_effect(n, rng)
            B = sample_effect(n, rng)
        seq_is_zero, prod_is_zero = seq_zero_iff_zero(A, B)
        assert seq_is_zero == prod_is_zero
        assert prod_is_zero == zero_product(A, B)


def test_both_zero_tests_read_one_rule(monkeypatch):
    # The sequential and the operator product vanish by the same rule, and
    # both come back as Python bools: inverting the rule flips both.
    from effectkit import effects, sequential

    A = make_effect(np.diag([0.7, 0.0, 0.0]))
    B = make_effect(np.diag([0.0, 0.0, 0.3]))
    assert [type(b) for b in seq_zero_iff_zero(A, B)] == [bool, bool]
    real = effects._vanishes
    for module in (effects, sequential):
        monkeypatch.setattr(module, "_vanishes", lambda *args: ~real(*args))
    assert seq_zero_iff_zero(A, B) == (False, False)
    assert seq_zero_iff_zero(A, make_effect(np.diag([0.2, 0.2, 0.2]))) == (True, True)


def test_douglas_quotient_known_value():
    A = make_effect(np.diag([0.5, 0.25]))
    B = make_effect(np.diag([1.0, 0.5]))
    result = douglas_quotient(A, B)
    assert np.allclose(result.quotient.matrix, np.diag([0.5, 0.5]), atol=1e-14)
    assert result.residual <= 1e-14


def test_douglas_quotient_reconstructs():
    for k in range(30):
        rng = np.random.default_rng([88, k])
        n = int(rng.integers(2, 5))
        B = sample_effect(n, rng)
        C = sample_effect(n, rng)
        A = seq_product(B, C)
        result = douglas_quotient(A, B)
        # B then quotient reproduces A
        recon = seq_product(B, result.quotient)
        assert frobenius(recon.matrix - A.matrix) <= 1e-9
        assert result.residual <= 1e-9


def test_douglas_quotient_singular_base():
    # B with a kernel still works when A vanishes on it
    B = make_effect(np.diag([1.0, 0.5, 0.0]))
    A = make_effect(np.diag([0.5, 0.125, 0.0]))
    result = douglas_quotient(A, B)
    assert result.residual <= 1e-12
    assert leq(A, B)


def test_douglas_quotient_requires_order():
    A = make_effect(np.diag([0.9, 0.1]))
    B = make_effect(np.diag([0.5, 0.5]))
    with pytest.raises(OrderViolation):
        douglas_quotient(A, B)


def test_douglas_quotient_failure_on_tiny_direction():
    # the order check tolerates a 9e-8 excess under 100x tolerances, but
    # dividing by the 2e-6 eigenvalue blows the quotient spectrum past 1
    from effectkit.numkern import DEFAULT_TOL

    tol = DEFAULT_TOL.scaled(100.0)
    B = make_effect(np.diag([1.0, 2.0e-6]), tol)
    A = make_effect(np.diag([0.5, 2.09e-6]), tol)
    assert leq(A, B, tol)
    with pytest.raises(QuotientFailure):
        douglas_quotient(A, B, tol)


def test_order_via_seq_matches_leq():
    agreements = 0
    for k in range(60):
        rng = np.random.default_rng([99, k])
        n = int(rng.integers(2, 5))
        if k % 3 == 0:
            B = sample_effect(n, rng)
            A = seq_product(B, sample_effect(n, rng))
        elif k % 3 == 1:
            A = sample_effect(n, rng)
            B = sample_effect(n, rng)
        else:
            A = sample_effect(n, rng)
            B = make_effect(0.5 * A.matrix)
        direct = leq(A, B)
        probed = order_via_seq(A, B)
        assert direct == probed
        agreements += 1
    assert agreements == 60


def test_order_via_seq_positive_and_negative():
    A = make_effect(np.diag([0.2, 0.1]))
    B = make_effect(np.diag([0.5, 0.3]))
    assert order_via_seq(A, B)
    assert not order_via_seq(B, A)
    assert order_via_seq(zero_effect(2), B)
    assert order_via_seq(B, B)


def test_douglas_quotient_diagonalizes_b_once(monkeypatch):
    # The quotient reads B's cached eigensystem: one eigh, for the candidate,
    # and for a B that make_effect did not clamp the bits of pinv_sqrt(B.matrix).
    from effectkit.numkern import _from_spectrum, hermitize, pinv_sqrt

    real, calls = np.linalg.eigh, []
    monkeypatch.setattr(np.linalg, "eigh", lambda *a, **kw: calls.append(1) or real(*a, **kw))
    for k in range(10):
        rng = np.random.default_rng([89, k])
        n = int(rng.integers(2, 6))
        B = make_effect(sample_effect(n, rng).matrix)
        A = seq_product(B, sample_effect(n, rng))
        S = pinv_sqrt(B.matrix)
        w, V = real(hermitize(S @ A.matrix @ S))
        clamped = np.clip(w, 0.0, 1.0)
        calls.clear()
        C = douglas_quotient(A, B).quotient
        assert len(calls) == 1
        assert C.matrix.tobytes() == _from_spectrum(V, clamped).tobytes()
        assert C.eigenvalues.tobytes() == clamped.tobytes()
