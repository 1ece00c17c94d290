"""Coexistence of effect pairs.

Two effects A and B coexist when they split as A = E + G, B = F + G with
E, F, G and E + F + G all effects.  General coexistence is not decided
here; the module provides the decidable pieces:

* the trivial witness (A, B, 0), available exactly when A + B <= I;
* the rank-one criterion: weighted rank-one effects with distinct ranges
  coexist iff their sum is an effect;
* coexistence against a weak atom t * |q><q|, decided exactly by
  t <= strength(A, q) + strength(I - A, q), a consequence of rank-one
  dominance applied to the shared part G;
* a randomized probe for "coexists with everything", which can refute
  but never prove (only scalars survive it); it decides every weak atom by
  the strength budget above, which agrees with the rank-one criterion.

Each decision is computed for one pair or for stacks of them: the public
functions are its lone case, and the probe and the coexist suite of
``effectkit verify`` run it stacked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numkern
from .effects import (
    Effect,
    RayProjection,
    WeakAtom,
    _ray_matrix,
    _same_dim,
    _sample_effect_stack,
    _spectral,
    orthocomplement,
    scalar_effect,
    zero_effect,
)
from .errors import DegenerateRanges, DimensionError, DomainError
from .numkern import DEFAULT_TOL, ToleranceConfig, hermitize
from .strength import _closed
from .suites import Suite, _Block, _suite_seed, _trial_blocks

__all__ = [
    "CoexistenceWitness",
    "coexist_trivial_witness",
    "coexist_rank_one",
    "coexists_with_weak_atom",
    "coexists_with_all_probe",
]


@dataclass(frozen=True)
class CoexistenceWitness:
    """Decomposition (E, F, G) certifying that two effects coexist."""

    E: Effect
    F: Effect
    G: Effect

    def residual_for(self, A: Effect, B: Effect) -> float:
        """Worst Frobenius defect of the witness equations for (A, B)."""
        for X in (self.F, self.G, A, B):
            _same_dim(self.E, X)
        return float(_witness_residual(self.E.matrix, self.F.matrix, self.G.matrix, A.matrix, B.matrix))

    def is_valid_for(self, A: Effect, B: Effect, tol: ToleranceConfig = DEFAULT_TOL) -> bool:
        """Check the splitting equations and that E + F + G is an effect."""
        for X in (self.F, self.G, A, B):
            _same_dim(self.E, X)
        E, F, G = self.E.matrix, self.F.matrix, self.G.matrix
        return bool(_witness_valid(E, F, G, _witness_residual(E, F, G, A.matrix, B.matrix), tol))


def coexist_trivial_witness(
    A: Effect, B: Effect, tol: ToleranceConfig = DEFAULT_TOL
) -> CoexistenceWitness | None:
    """Witness (A, B, 0) when A + B is itself an effect, else None."""
    _same_dim(A, B)
    if not _below_identity(A.matrix + B.matrix, tol):
        return None
    return CoexistenceWitness(E=A, F=B, G=zero_effect(A.dim))


def coexist_rank_one(
    s: float,
    P: RayProjection,
    t: float,
    Q: RayProjection,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> bool:
    """Coexistence of s*P and t*Q for rank-one projections with P != Q.

    Decided by whether the sum is still an effect.  Weights must be
    numbers in (0, 1], not bools; coinciding rays are rejected because the
    criterion needs distinct ranges.
    """
    for name, value in (("s", s), ("t", t)):
        if not (numkern._is_weight(value) and value > 0.0):
            raise DomainError(f"weight {name} must be a number in (0, 1], got {value!r}")
    _same_dim(P, Q)
    distinct, fits = _rank_one(s, P.vector, P.matrix, t, Q.vector, Q.matrix, tol)
    if not distinct[0]:
        raise DegenerateRanges("rank-one criterion needs distinct ranges")
    return bool(fits)


def coexists_with_weak_atom(
    A: Effect, atom: WeakAtom, tol: ToleranceConfig = DEFAULT_TOL
) -> bool:
    """Exact decision of coexistence between A and a weak atom t * Q.

    Any shared part G below t * Q is a scalar multiple s * Q, so a witness
    exists iff some s in [0, t] satisfies s <= strength(A, Q) and
    t - s <= strength(I - A, Q), i.e. iff t is at most the sum of the two
    strengths.
    """
    _same_dim(A, atom.ray)
    return bool(_weak_atoms_fit(A, orthocomplement(A), atom.weight, atom.ray.vector[None], tol)[0])


def coexists_with_all_probe(
    A: Effect, trials: int, seed: int, tol: ToleranceConfig = DEFAULT_TOL
) -> bool:
    """PROBE, not proof: search for a weak atom that fails to coexist with A.

    Probe k of 0..trials-1 draws from ``default_rng([seed, k])``; an odd
    probe draws a ray and a weight t, and coexistence of A with that weak
    atom is decided exactly by the strength budget of
    ``coexists_with_weak_atom``, whatever the rank of A.  Even probe
    numbers are left unused.  The probes run in stacked blocks of doubling
    size; returns False after the first block with a refutation, True if
    none turned up.  Scalars always return True; for a generic non-scalar
    a refuting weak atom appears quickly.  A count that runs no probe
    (below 2), or is not an integer (a bool is not one), raises DomainError.
    """
    if not numkern._is_count(trials, 2):
        raise DomainError(f"trials must be an integer of at least 2, got {trials!r}")
    numkern._require_seed(seed)
    complement = orthocomplement(A)
    for rngs, _ in _trial_blocks([seed], range(1, trials, 2), A.dim, first=1):
        vec = _ray_matrix(numkern._random_ray_stack(A.dim, rngs))[0]
        t = np.array([rng.uniform(0.0, 1.0) for rng in rngs])
        if (~_weak_atoms_fit(A, complement, t, vec, tol) & (t > 0.0)).any():
            return False
    return True


# The matrices compared are exactly Hermitian (effect matrices, real
# multiples and sums of them), so each comparison equals ``psd_leq``'s.


def _below_identity(M: np.ndarray, tol: ToleranceConfig) -> np.ndarray:
    """Whether M <= I, for a matrix or each member of a stack.  With M =
    A + B this is the trivial witness's test: (A, B, 0) witnesses iff it holds."""
    eye = np.eye(M.shape[-1], dtype=np.complex128)
    return numkern._psd_leq_both(hermitize(M), eye, tol)[0]


def _rank_one(s, p: np.ndarray, P: np.ndarray, t, q: np.ndarray, Q: np.ndarray, tol: ToleranceConfig):
    """The rank-one criterion for s * P and t * Q, where P and Q project
    onto the unit vectors p and q (or stacks, with weights shaped to
    broadcast), as (distinct, fits): whether the rays differ, one entry per
    pair, and whether the weighted sum is an effect."""
    distinct = numkern._overlaps(p, q) < 1.0 - tol.eps_rank
    return distinct, _below_identity(s * P + t * Q, tol)


def _weak_atoms_fit(A: Effect, complement: Effect, t, vec: np.ndarray, tol: ToleranceConfig) -> np.ndarray:
    """Whether A, with orthocomplement ``complement``, coexists with each
    weak atom t_k |vec_k><vec_k| of a (T, n) stack of unit vectors and T
    weights t: t_k within the strength budget of A and I - A along vec_k."""
    budget = _closed_along(A, vec, tol) + _closed_along(complement, vec, tol)
    return t <= budget + tol.eps_psd


def _closed_along(A: Effect, vec: np.ndarray, tol: ToleranceConfig) -> np.ndarray:
    """Closed-form strength of A along each unit vector of a (T, n) stack."""
    w = np.broadcast_to(A.eigenvalues, (len(vec),) + A.eigenvalues.shape)
    V = np.broadcast_to(A.eigenvectors, (len(vec),) + A.eigenvectors.shape)
    return _closed(w, V, vec, tol)[0]


def _witness_residual(E, F, G, A, B) -> np.ndarray:
    """Worst Frobenius defect of E + G = A and F + G = B, for matrices or stacks."""
    return np.maximum(numkern.frobenius(E + G - A), numkern.frobenius(F + G - B))


def _witness_valid(E, F, G, residual, tol: ToleranceConfig) -> np.ndarray:
    """Whether a witness with that residual holds and E + F + G is an effect."""
    total = E + F + G
    positive = numkern._psd_leq_both(np.zeros_like(total), hermitize(total), tol)[0]
    return ~(residual > tol.eps_eq) & positive & _below_identity(total, tol)


def _coexist_controls(seeds: list[int], n: int, tol: ToleranceConfig) -> list[tuple]:
    """Fixed controls: the overlapping weighted pair known not to coexist,
    a scalar (coexists with everything) and a weak atom (does not)."""
    if n < 2:
        raise DimensionError("coexist suite needs dimension at least 2")
    failed = zip(*(_coexist_control_failures(seed, n, tol) for seed in seeds))
    names = ("overlapping-0.9-pair-reported-coexistent", "scalar-probe-returned-false",
             "rank-one-probe-found-no-counterexample")
    return [(name, flags, 0.0, {}) for name, flags in zip(names, failed)]


def _coexist_control_failures(seed: int, n: int, tol: ToleranceConfig) -> tuple[bool, bool, bool]:
    """Whether each of the three fixed controls fails for an entry's seed, in order."""
    rng = np.random.default_rng([seed, 0])
    p_vec = numkern.random_ray(n, rng)
    perp = np.linalg.qr(p_vec.reshape(n, 1), mode="complete")[0][:, 1]
    p, P0 = _ray_matrix(p_vec)
    q, Q0 = _ray_matrix(math.sqrt(0.96) * p_vec + math.sqrt(0.04) * perp)
    apart = not _rank_one(0.9, p, P0, 0.9, q, Q0, tol)[1]  # the rays differ: they overlap 0.96
    scalar = coexists_with_all_probe(scalar_effect(n, 0.37), 60, _suite_seed(seed, 1), tol)
    atom = _spectral(0.9 * P0, tol)  # a real multiple of P0 is exactly Hermitian
    refuted = not coexists_with_all_probe(atom, 200, _suite_seed(seed, 2), tol)
    return not apart, not scalar, not refuted


def _coexist_step(seeds: list[int], n: int, tol: ToleranceConfig, block: _Block) -> list[tuple]:
    """The trivial witness and the rank-one criterion on sampled pairs."""
    rngs = block.rngs
    A, B = _sample_effect_stack(n, rngs, tol, 2)
    # Scale each pair with A + B above I to just under it; a positive
    # real keeps the matrices exactly Hermitian, and 1.0 keeps them as they are.
    top = np.linalg.eigvalsh(A.matrix + B.matrix)[:, -1]
    scale = np.where(top > 1.0, (1.0 - 1e-12) / top, 1.0)[:, None, None]
    A, B = _spectral(np.stack([A.matrix, B.matrix]) * scale, tol)
    # The trivial witness (A, B, 0), present iff A + B <= I.  It solves the
    # witness equations exactly, and A + B >= 0 holds for effects: no more to check.
    witness = _below_identity(A.matrix + B.matrix, tol)
    # Every trial draws a split, a witness or not: its own generator draws
    # nothing after it, and a trial without a witness passes this check.
    lam = np.array([rng.uniform(0.02, 0.98) for rng in rngs])[:, None, None]
    (p, q), (P, Q) = _ray_matrix(numkern._random_ray_stack(n, rngs, 2))
    distinct, fits = _rank_one(lam, p, P, 1.0 - lam, q, Q, tol)
    split = ~witness | ~distinct | fits
    return [
        ("trivial-witness-missing-for-substochastic-pair", ~witness, 0.0, {"A": A.matrix, "B": B.matrix}),
        ("convex-split-pair-reported-incompatible", ~split, 0.0, {"A": lam * P, "B": (1.0 - lam) * Q}),
    ]


# An entry's subject is its seed, which its controls draw from (stream 0
# and two child seeds); its trials draw from streams 3 on.
_COEXIST = Suite("coexist", ("n",), _coexist_step, _coexist_controls, first_stream=3)
