"""Controls outside the family, one per hypothesis of the main theorem.

The theorem needs a bijection of E(H) that preserves order in both
directions and zero products in both directions.  Each control keeps one
hypothesis exactly and loses the other, so the suite of the kept
hypothesis must pass it and the suite of the lost one must fail it, and
fit_p must refuse both.  Both are black-box callables, built here from
their definitions.

* An order automorphism outside the family, in Šemrl's form (Integral
  Equations Operator Theory 89, 2017): phi(A) = f_p(S f_q(T A T*) S) with
  S = f_q(T T*)^(-1/2) and T an invertible contraction that is not a
  multiple of a unitary.  The congruences and the Möbius maps f_q are
  operator monotone with operator-monotone inverses on the intervals
  used, so phi maps E(H) onto E(H) and preserves order both ways; T does
  not keep ranges orthogonal, so zero products are lost.
* Spectral squaring A -> A^2 keeps each range, so it preserves zero
  products both ways, but not order.
"""

import numpy as np
import pytest

from effectkit.autos import fit_p, verify_order, verify_zero_product
from effectkit.effects import make_effect
from effectkit.errors import NotInFamily
from effectkit.numkern import haar_unitary

TRIALS = 30
CASES = [(n, seed) for n in (2, 3, 8) for seed in (1, 2, 3)]


def _calculus(f, M):
    """f(M) for a Hermitian matrix M, through its spectrum."""
    w, V = np.linalg.eigh(M)
    return (V * f(w)) @ V.conj().T


def _f(q):
    """The Möbius map f_q(x) = x / (q x + 1 - q) on [0, 1]; round-off
    outside [0, 1] is clipped back."""

    def f(w):
        x = np.clip(w, 0.0, 1.0)
        return x / (q * x + 1.0 - q)

    return f


def _hermitian(M):
    return 0.5 * (M + M.conj().T)


def _order_automorphism(n, seed, p, q):
    """phi(A) = f_p(S f_q(T A T*) S), with T = W diag(s) V for Haar W, V and
    distinct singular values s in [0.4, 0.95]."""
    rng = np.random.default_rng([seed, n])
    s = np.sort(rng.uniform(0.4, 0.95, n))
    T = haar_unitary(n, rng) @ np.diag(s) @ haar_unitary(n, rng)
    S = _calculus(lambda w: w ** -0.5, _hermitian(_calculus(_f(q), _hermitian(T @ T.conj().T))))

    def phi(A):
        inner = _calculus(_f(q), _hermitian(T @ A.matrix @ T.conj().T))
        return make_effect(_hermitian(_calculus(_f(p), _hermitian(S @ inner @ S))))

    return phi


def _square(A):
    return make_effect(_hermitian((A.eigenvectors * A.eigenvalues**2) @ A.eigenvectors.conj().T))


@pytest.mark.parametrize("q", [-2.0, 0.5])
@pytest.mark.parametrize("n, seed", CASES)
def test_an_order_automorphism_outside_the_family_keeps_order_and_loses_zero_products(n, seed, q):
    phi = _order_automorphism(n, seed, 0.3, q)
    assert verify_order(phi, TRIALS, seed, dim=n).failures == 0
    assert verify_zero_product(phi, TRIALS, seed, dim=n).failures > 0
    with pytest.raises(NotInFamily):
        fit_p(phi, 25, dim=n)


@pytest.mark.parametrize("n, seed", CASES)
def test_squaring_keeps_zero_products_and_loses_order(n, seed):
    assert verify_order(_square, TRIALS, seed, dim=n).failures > 0
    assert verify_zero_product(_square, TRIALS, seed, dim=n).failures == 0
    with pytest.raises(NotInFamily):
        fit_p(_square, 25, dim=n)
