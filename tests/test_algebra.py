"""The paper's closing claim on the finite-dimensional algebra M_{n1} + M_{n2}.

Its effects are the block-diagonal effects A1 + A2.  The map
A1 + A2 -> U1 A1 U1* + U2 A2^T U2* is a Jordan *-automorphism but not
U K(.) U* for one K on the whole space: it preserves order and zero product
in both directions, and orthocomplement and the sequential product too, as
the block swap does.  id + f_p (p != 0) preserves order and zero product but
not orthocomplement, and squaring one block does not preserve order.
"""

import numpy as np
import pytest

from effectkit.effects import effects_equal, leq, make_effect, orthocomplement, sample_effect, zero_product
from effectkit.fracfun import fp_apply
from effectkit.numkern import haar_unitary
from effectkit.sequential import seq_product

SHAPES = [(2, 2), (2, 3), (3, 3)]
TRIALS = 40


def _join(M1, M2):
    n1 = len(M1)
    M = np.zeros((n1 + len(M2),) * 2, dtype=np.complex128)
    M[:n1, :n1], M[n1:, n1:] = M1, M2
    return M


def _blockwise(n1, f1, f2):
    """The map A1 + A2 -> f1(A1) + f2(A2) of matrices, on effects."""
    return lambda A: make_effect(_join(f1(A.matrix[:n1, :n1]), f2(A.matrix[n1:, n1:])))


def _maps(n1, n2, rng):
    """The maps of the claim by name (the swap only for n1 = n2), for one draw of the unitaries."""
    U1, U2 = haar_unitary(n1, rng), haar_unitary(n2, rng)
    maps = {
        "mixed-K": _blockwise(n1, lambda M: U1 @ M @ U1.conj().T, lambda M: U2 @ M.T @ U2.conj().T),
        "f_p-on-one-block": _blockwise(n1, lambda M: M, lambda M: fp_apply(-3.0, make_effect(M)).matrix),
    }
    if n1 == n2:
        maps["swap"] = lambda A: make_effect(_join(A.matrix[n1:, n1:], A.matrix[:n1, :n1]))
    return maps


def _sample(n1, n2, rng):
    return make_effect(_join(sample_effect(n1, rng).matrix, sample_effect(n2, rng).matrix))


def _pairs(n1, n2, rng):
    """An ordered pair (B o C, B) and a zero-product pair, whose ranges are
    spanned by disjoint columns of a block-diagonal unitary."""
    B = _sample(n1, n2, rng)
    W = _join(haar_unitary(n1, rng), haar_unitary(n2, rng))
    split = rng.permutation(n1 + n2) < rng.integers(1, n1 + n2)
    X, Y = (make_effect(W @ np.diag(rng.uniform(0.1, 1.0, n1 + n2) * side) @ W.conj().T) for side in (split, ~split))
    return [(seq_product(B, _sample(n1, n2, rng)), B), (X, Y)]


def _decisions(phi, pairs):
    """leq both ways and zero_product of each pair and of its image."""
    def decide(X, Y):
        return leq(X, Y), leq(Y, X), zero_product(X, Y)

    return [(decide(X, Y), decide(phi(X), phi(Y))) for X, Y in pairs]


@pytest.mark.parametrize("n1,n2", SHAPES)
def test_block_maps_preserve_order_and_zero_product_both_ways(n1, n2):
    rng = np.random.default_rng([71, n1, n2])
    for _ in range(TRIALS):
        maps, pairs = _maps(n1, n2, rng), _pairs(n1, n2, rng)
        for name, phi in maps.items():
            decisions = _decisions(phi, pairs)
            # No pass is vacuous: the first pair is ordered one way, the second has zero product.
            assert [before for before, _ in decisions] == [(True, False, False), (False, False, True)]
            assert [after for _, after in decisions] == [(True, False, False), (False, False, True)], name


@pytest.mark.parametrize("n1,n2", SHAPES)
def test_the_jordan_maps_preserve_orthocomplement_and_the_sequential_product(n1, n2):
    rng = np.random.default_rng([73, n1, n2])
    for _ in range(TRIALS):
        maps = _maps(n1, n2, rng)
        A, B = _sample(n1, n2, rng), _sample(n1, n2, rng)
        for name in ("mixed-K", "swap")[: 1 + (n1 == n2)]:
            phi = maps[name]
            assert effects_equal(phi(orthocomplement(A)), orthocomplement(phi(A))), name
            assert effects_equal(phi(seq_product(A, B)), seq_product(phi(A), phi(B))), name
        f_p = maps["f_p-on-one-block"]
        assert not effects_equal(f_p(orthocomplement(A)), orthocomplement(f_p(A)))


@pytest.mark.parametrize("n1,n2", SHAPES)
def test_squaring_one_block_does_not_preserve_order(n1, n2):
    rng = np.random.default_rng([79, n1, n2])
    square = _blockwise(n1, lambda M: M @ M, lambda M: M)
    kept = [after[:2] == before[:2] for _ in range(TRIALS) for before, after in _decisions(square, _pairs(n1, n2, rng))]
    assert not all(kept)
