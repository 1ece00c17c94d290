"""Strength along rays: closed form, bisection oracle, two-block reduction."""

import numpy as np
import pytest

from effectkit.autos import apply_to_ray, random_automorphism
from effectkit.effects import (
    identity_effect,
    make_effect,
    make_ray,
    sample_effect,
    sample_ray,
    scalar_effect,
)
from effectkit.errors import DimensionError, DomainError, OrthogonalityError, SpanError
from effectkit.fracfun import fp_eval
from effectkit.numkern import DEFAULT_TOL, haar_unitary, psd_leq
from effectkit.strength import (
    BISECT_ITERATIONS,
    StrengthValue,
    strength_bisect,
    strength_closed,
    strength_two_block,
)


def test_bisect_iteration_count():
    # enough halvings of [0, 1] to pin the value to 1e-8
    assert BISECT_ITERATIONS == 27


def test_bisect_matches_a_validating_psd_leq_bisection():
    rng = np.random.default_rng(21)
    for n in (1, 2, 3, 8):
        for _ in range(5):
            A = sample_effect(n, rng)
            ray = sample_ray(n, rng)
            P = ray.projection.matrix
            expected = 1.0
            if not psd_leq(P, A.matrix):
                lo, hi = 0.0, 1.0
                for _ in range(BISECT_ITERATIONS):
                    mid = 0.5 * (lo + hi)
                    lo, hi = (mid, hi) if psd_leq(mid * P, A.matrix) else (lo, mid)
                expected = lo
            assert strength_bisect(A, ray) == expected


def test_strength_known_value():
    A = make_effect(np.diag([0.5, 1.0]))
    ray = make_ray(np.array([1.0, 1.0]) / np.sqrt(2))
    result = strength_closed(A, ray)
    # harmonic-mean style combination of 1/0.5 and 1/1.0
    assert result.value == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert result.in_range
    assert not result.near_cutoff


def test_strength_identity_and_scalar():
    ray = make_ray(np.array([0.0, 1.0, 0.0]))
    assert strength_closed(identity_effect(3), ray).value == pytest.approx(1.0)
    assert strength_closed(scalar_effect(3, 0.4), ray).value == pytest.approx(0.4)


def test_strength_on_own_range_projection():
    ray = make_ray(np.array([1.0, 2.0]) / np.sqrt(5))
    P = make_effect(ray.projection.matrix)
    assert strength_closed(P, ray).value == pytest.approx(1.0)


def test_strength_kernel_direction_is_zero():
    A = make_effect(np.diag([0.8, 0.0]))
    ray = make_ray(np.array([0.0, 1.0]))
    result = strength_closed(A, ray)
    assert result.value == 0.0
    assert not result.in_range
    # partially out of range also gives zero
    mixed = make_ray(np.array([1.0, 1.0]) / np.sqrt(2))
    result = strength_closed(A, mixed)
    assert result.value == 0.0
    assert not result.in_range


def test_strength_closed_matches_bisect():
    for k in range(60):
        rng = np.random.default_rng([101, k])
        n = int(rng.integers(2, 5))
        A = sample_effect(n, rng)
        ray = sample_ray(n, rng)
        closed = strength_closed(A, ray)
        oracle = strength_bisect(A, ray)
        assert abs(closed.value - oracle) <= 1e-6


def test_strength_bisect_shortcut_at_one():
    ray = make_ray(np.array([1.0, 0.0]))
    assert strength_bisect(identity_effect(2), ray) == 1.0


def test_strength_monotone_in_effect():
    rng = np.random.default_rng(55)
    for _ in range(10):
        A = sample_effect(3, rng)
        ray = sample_ray(3, rng)
        half = make_effect(0.5 * A.matrix)
        assert strength_closed(half, ray).value <= strength_closed(A, ray).value + 1e-12


def test_two_block_formula():
    V = np.eye(2, dtype=complex)
    P = make_ray(V[:, 0])
    Q = make_ray(V[:, 1])
    R = make_ray(np.array([1.0, 1.0]) / np.sqrt(2))
    # tr(PR) = 1/2: mu / (mu + (1 - mu) * tau) at mu = 1/2 gives 2/3
    assert strength_two_block(0.5, P, Q, R) == pytest.approx(2.0 / 3.0, abs=1e-14)
    # rays collapsing onto P or Q are rejected as degenerate
    with pytest.raises(DomainError):
        strength_two_block(0.5, P, Q, P)


def test_two_block_matches_closed_form():
    for k in range(40):
        rng = np.random.default_rng([77, k])
        n = int(rng.integers(2, 5))
        V = haar_unitary(n, rng)
        P = make_ray(V[:, 0])
        Q = make_ray(V[:, 1])
        theta = rng.uniform(0.2, np.pi / 2 - 0.2)
        phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
        R = make_ray(np.cos(theta) * V[:, 0] + np.sin(theta) * phase * V[:, 1])
        mu = float(rng.uniform(0.05, 0.95))
        E = make_effect(mu * P.projection.matrix + Q.projection.matrix)
        closed = strength_closed(E, R).value
        assert abs(closed - strength_two_block(mu, P, Q, R)) <= 1e-8


def test_two_block_validations():
    P = make_ray(np.array([1.0, 0.0, 0.0]))
    Q = make_ray(np.array([0.0, 1.0, 0.0]))
    R = make_ray(np.array([1.0, 1.0, 0.0]) / np.sqrt(2))
    outside = make_ray(np.array([0.0, 0.0, 1.0]))
    tilted = make_ray(np.array([1.0, 0.2, 0.0]) / np.sqrt(1.04))
    with pytest.raises(DomainError):
        strength_two_block(1.5, P, Q, R)
    with pytest.raises(OrthogonalityError):
        strength_two_block(0.5, P, tilted, R)
    with pytest.raises(SpanError):
        strength_two_block(0.5, P, Q, outside)
    with pytest.raises(DimensionError):
        strength_two_block(0.5, P, Q, make_ray(np.array([1.0, 1.0])))


def test_strength_equivariance_under_family():
    # maps in the family scale strengths by f_p, exactly in exact arithmetic
    for k in range(12):
        rng = np.random.default_rng([303, k])
        p = float(rng.uniform(-2.0, 0.95))
        conj = bool(rng.integers(0, 2))
        phi = random_automorphism(3, p, conj, int(rng.integers(0, 2**31)))
        A = sample_effect(3, rng)
        ray = sample_ray(3, rng)
        before = strength_closed(A, ray).value
        after = strength_closed(phi(A), apply_to_ray(phi, ray)).value
        assert after == pytest.approx(fp_eval(p, before), abs=1e-9)


def test_near_cutoff_diagnostic():
    # an eigenvalue sitting just above the rank cutoff trips the flag
    tol = DEFAULT_TOL
    tiny = 5.0 * tol.eps_rank
    A = make_effect(np.diag([1.0, tiny]))
    ray = make_ray(np.array([1.0, 1.0]) / np.sqrt(2))
    result = strength_closed(A, ray, tol)
    assert result.near_cutoff


def test_strength_value_invariant():
    with pytest.raises(ValueError):
        StrengthValue(value=0.5, in_range=False)
    with pytest.raises(ValueError):
        StrengthValue(value=1.5, in_range=True)
