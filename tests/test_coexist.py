"""Coexistence: witnesses, the rank-one criterion, weak atoms, the probe."""

import dataclasses
import json

import numpy as np
import pytest

from effectkit import coexist
from effectkit.cli import dump_json
from effectkit.coexist import (
    CoexistenceWitness,
    coexist_rank_one,
    coexist_trivial_witness,
    coexists_with_all_probe,
    coexists_with_weak_atom,
)
from effectkit.effects import (
    WeakAtom,
    identity_effect,
    make_effect,
    make_ray,
    orthocomplement,
    rank_of,
    sample_effect,
    sample_ray,
    scalar_effect,
    zero_effect,
)
from effectkit.errors import DegenerateRanges, DomainError
from effectkit.numkern import DEFAULT_TOL
from effectkit.strength import strength_closed


def _overlapping_rays(tau, seed=0):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    v /= np.linalg.norm(v)
    basis = np.linalg.qr(v.reshape(2, 1), mode="complete")[0]
    w = np.sqrt(tau) * v + np.sqrt(1.0 - tau) * basis[:, 1]
    return make_ray(v), make_ray(w)


def test_trivial_witness():
    A = make_effect(np.diag([0.3, 0.2]))
    B = make_effect(np.diag([0.4, 0.1]))
    witness = coexist_trivial_witness(A, B)
    assert witness is not None
    assert witness.is_valid_for(A, B)
    assert witness.residual_for(A, B) <= 1e-15


def test_trivial_witness_absent():
    A = make_effect(np.diag([0.8, 0.2]))
    B = make_effect(np.diag([0.7, 0.1]))
    assert coexist_trivial_witness(A, B) is None


def test_witness_validation_catches_mismatch():
    A = make_effect(np.diag([0.3, 0.2]))
    B = make_effect(np.diag([0.4, 0.1]))
    bogus = CoexistenceWitness(E=A, F=B, G=scalar_effect(2, 0.3))
    assert not bogus.is_valid_for(A, B)


def test_rank_one_criterion_known_failure():
    # weights 0.9/0.9 with transition 0.96: the weighted sum tops out
    # near 1.78, far above 1, so the pair cannot coexist
    P, Q = _overlapping_rays(0.96)
    assert not coexist_rank_one(0.9, P, 0.9, Q)


def test_rank_one_criterion_convex_split():
    # s + t = 1 keeps sP + tQ below the identity for any pair of rays
    for k in range(25):
        rng = np.random.default_rng([7, k])
        lam = float(rng.uniform(0.05, 0.95))
        tau = float(rng.uniform(0.05, 0.9))
        P, Q = _overlapping_rays(tau, seed=k)
        assert coexist_rank_one(lam, P, 1.0 - lam, Q)


def test_rank_one_criterion_matches_inequality():
    # decision equals the scalar inequality s t tau <= (1 - s)(1 - t)
    for k in range(40):
        rng = np.random.default_rng([19, k])
        s = float(rng.uniform(0.05, 0.95))
        t = float(rng.uniform(0.05, 0.95))
        tau = float(rng.uniform(0.05, 0.9))
        P, Q = _overlapping_rays(tau, seed=100 + k)
        exact = s * t * tau <= (1.0 - s) * (1.0 - t)
        margin = abs(s * t * tau - (1.0 - s) * (1.0 - t))
        if margin > 1e-9:
            assert coexist_rank_one(s, P, t, Q) == exact


def test_rank_one_validations():
    P, Q = _overlapping_rays(0.5)
    with pytest.raises(DomainError):
        coexist_rank_one(0.0, P, 0.5, Q)
    with pytest.raises(DomainError):
        coexist_rank_one(0.5, P, 1.1, Q)
    with pytest.raises(DegenerateRanges):
        coexist_rank_one(0.5, P, 0.5, P)


def test_weak_atom_budget():
    # an effect coexists with t * Q exactly when t fits inside the
    # strength budget of A and its complement along Q
    for k in range(25):
        rng = np.random.default_rng([23, k])
        n = int(rng.integers(2, 5))
        A = sample_effect(n, rng)
        Q = sample_ray(n, rng)
        budget = (
            strength_closed(A, Q).value
            + strength_closed(orthocomplement(A), Q).value
        )
        below = WeakAtom(max(0.0, budget - 1e-4), Q)
        assert coexists_with_weak_atom(A, below)
        if budget < 1.0 - 1e-4:
            above = WeakAtom(min(1.0, budget + 1e-4), Q)
            assert not coexists_with_weak_atom(A, above)


def test_weak_atom_scalar_always():
    Q = make_ray(np.array([1.0, 1.0]) / np.sqrt(2))
    A = scalar_effect(2, 0.5)
    assert coexists_with_weak_atom(A, WeakAtom(1.0, Q))


def test_probe_scalar_and_identity():
    assert coexists_with_all_probe(scalar_effect(2, 0.37), 40, 5)
    assert coexists_with_all_probe(identity_effect(3), 40, 5)
    assert coexists_with_all_probe(zero_effect(3), 40, 5)


def test_probe_refutes_weighted_ray():
    atom = make_effect(0.9 * make_ray(np.array([1.0, 0.0])).projection.matrix)
    assert not coexists_with_all_probe(atom, 200, 5)


def test_probe_refutes_projection():
    # a nontrivial projection fails against a rotated weak atom
    P = make_effect(np.diag([1.0, 0.0]))
    assert not coexists_with_all_probe(P, 200, 11)


@pytest.mark.parametrize("trials", [0, -5, 1, True, 2.5])
def test_probe_refuses_a_count_that_runs_no_probe(trials):
    # Probe 0 is even and unused, so a count below 2 would pass vacuously.
    atom = make_effect(0.9 * make_ray(np.array([1.0, 0.0])).projection.matrix)
    with pytest.raises(DomainError, match=f"trials must be an integer of at least 2, got {trials!r}"):
        coexists_with_all_probe(atom, trials, 5)


def test_probe_takes_a_count_past_sys_maxsize():
    # A generic effect is refuted in the first blocks, however many probes are allowed.
    assert not coexists_with_all_probe(sample_effect(2, 1), 10**20, 1)


def test_probe_deterministic():
    A = sample_effect(2, np.random.default_rng(31))
    r1 = coexists_with_all_probe(A, 60, 13)
    r2 = coexists_with_all_probe(A, 60, 13)
    assert r1 == r2


def _probe_reference(A, trials, seed):
    """coexists_with_all_probe as first written: one probe at a time, the
    even ones sampling an effect whose trivial witness is thrown away."""
    n = A.dim
    for k in range(trials):
        rng = np.random.default_rng([seed, k])
        if k % 2 == 0:
            coexist_trivial_witness(A, sample_effect(n, rng))
            continue
        ray = sample_ray(n, rng)
        t = float(rng.uniform(0.0, 1.0))
        if t <= 0.0:
            continue
        if rank_of(A) == 1:
            s = float(A.eigenvalues[-1])
            P = make_ray(A.eigenvectors[:, -1])
            if float(np.abs(np.vdot(P.vector, ray.vector)) ** 2) >= 1.0 - 1e-8:
                continue
            if not coexist_rank_one(s, P, t, ray):
                return False
        elif not coexists_with_weak_atom(A, WeakAtom(t, ray)):
            return False
    return True


def _probe_cases():
    atom = make_effect(0.9 * make_ray(np.array([1.0, 0.0])).projection.matrix)
    cases = [
        (scalar_effect(2, 0.37), 40, 5),
        (identity_effect(3), 40, 5),
        (zero_effect(3), 40, 5),
        (atom, 200, 5),
        (make_effect(np.diag([1.0, 0.0])), 200, 11),
        (sample_effect(2, np.random.default_rng(31)), 60, 13),
    ]
    # Projections of rank one, weight 1: the reference decides them by the
    # rank-one criterion, the probe by the strength budget.
    cases += [(sample_ray(n, np.random.default_rng([59, n])).projection, 200, n) for n in range(2, 9)]
    for k in range(16):
        rng = np.random.default_rng([53, k])
        n = int(rng.integers(2, 9))
        weight = float(rng.uniform(0.05, 1.0))
        cases.append((make_effect(weight * sample_ray(n, rng).projection.matrix), 200, k))
        cases.append((scalar_effect(n, float(rng.uniform(0.0, 1.0))), 60, k))
        cases.append((sample_effect(n, rng), 60, k))
        # Close to a scalar: refuting atoms are rare, so many probes run.
        spread = 10.0 ** rng.uniform(-4.0, -1.0)
        near = 0.5 * np.eye(n) + spread * (sample_effect(n, rng).matrix - 0.5 * np.eye(n))
        cases.append((make_effect(near), 120, k))
    return cases


def test_probe_equals_its_first_definition():
    outcomes = [(coexists_with_all_probe(A, trials, seed), _probe_reference(A, trials, seed))
                for A, trials, seed in _probe_cases()]
    assert all(got == want for got, want in outcomes)
    assert {want for _, want in outcomes} == {True, False}


def _inverted(core):
    """The decision ``core`` of coexist with its answer inverted; for
    ``_rank_one``, the answer whether the weighted sum fits."""
    real = getattr(coexist, core)

    def inverted(*args):
        if core == "_rank_one":
            distinct, fits = real(*args)
            return distinct, ~fits
        return ~real(*args)

    return inverted


@pytest.mark.parametrize("core", ["_below_identity", "_rank_one", "_weak_atoms_fit", "_witness_valid"])
def test_suite_runs_the_library_decisions(monkeypatch, core):
    # The public functions and the coexist suite share one routine per
    # decision: inverting it flips the function and fails the suite.  The
    # suite does not validate its trivial witness (A, B, 0), which holds
    # whenever it exists, so _witness_valid reaches the function only.
    A, B = make_effect(np.diag([0.3, 0.2])), make_effect(np.diag([0.4, 0.1]))
    P, Q = _overlapping_rays(0.96)

    def answers():
        witness = coexist_trivial_witness(A, B)
        return (
            witness is not None,
            witness is not None and witness.is_valid_for(A, B),
            coexist_rank_one(0.9, P, 0.9, Q),
            coexists_with_weak_atom(scalar_effect(2, 0.5), WeakAtom(0.9, Q)),
        )

    before = answers()
    assert coexist._COEXIST.run([1], 20, [1], 3, DEFAULT_TOL)[0].failures == 0
    monkeypatch.setattr(coexist, core, _inverted(core))
    assert answers() != before
    if core != "_witness_valid":
        assert coexist._COEXIST.run([1], 20, [1], 3, DEFAULT_TOL)[0].failures > 0


@pytest.mark.parametrize(
    "core,check",
    [("_below_identity", "trivial-witness-missing-for-substochastic-pair"),
     ("_rank_one", "convex-split-pair-reported-incompatible")],
)
def test_a_failing_trial_records_the_pair_it_decided(monkeypatch, core, check):
    # With one decision inverted, the suite's first counterexample, its pair
    # read back from the report's JSON, has the trivial witness (A, B, 0):
    # the pair coexists, so the inverted decision was wrong.  The controls
    # are left out, since they record no inputs.
    trials_only = dataclasses.replace(coexist._COEXIST, controls=None)
    assert trials_only.run([1], 20, [1], 3, DEFAULT_TOL)[0].failures == 0
    with monkeypatch.context() as patch:
        patch.setattr(coexist, core, _inverted(core))
        report = json.loads(dump_json(trials_only.run([1], 20, [1], 3, DEFAULT_TOL)[0].to_dict()))
    assert report["counterexample"]["check"] == check
    A, B = (make_effect(np.array(rows) @ [1, 1j]) for rows in report["counterexample"]["inputs"].values())
    assert coexist_trivial_witness(A, B) is not None
