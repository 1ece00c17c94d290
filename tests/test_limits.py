"""Every check limit is a multiple of a ToleranceConfig field, so --tol
scales it: one case per limit shows a scaled tol flipping the check."""

import json
from dataclasses import replace

import numpy as np
import pytest

from effectkit import fracfun, strength
from effectkit.autos import fit_p
from effectkit.cli import main, matrix_to_doc
from effectkit.effects import scalar_effect
from effectkit.errors import NotInFamily
from effectkit.fracfun import FracParams, f_eval
from effectkit.numkern import DEFAULT_TOL


def test_limits_at_the_default_tolerances_keep_their_values():
    # Each limit as its check computes it, against the constant it replaced.
    limits = {
        "oracle gap": (strength._oracle_gap_limit(DEFAULT_TOL), 1e-6),
        "two-block gap": (DEFAULT_TOL.eps_rank, 1e-8),
        "fit exponent": (100 * DEFAULT_TOL.eps_rank, 1e-6),
        "rigidity": (DEFAULT_TOL.eps_eq, 1e-9),
        "pexider residual": (DEFAULT_TOL.eps_herm, 1e-10),
        "pexider fit recovery": (100 * DEFAULT_TOL.eps_rank, 1e-6),
    }
    for name, (limit, old) in limits.items():
        assert limit == old, name
    for n in range(1, 257):
        assert DEFAULT_TOL.eps_herm * n == 1e-10 * n


def test_tol_reaches_the_oracle_gap(tmp_path, capsys):
    # At --tol 1e3 the bisection's Loewner slack makes it overshoot the
    # closed form 2/3 by about 1.1e-6: above 1e-6, below 100 * eps_rank.
    effect, ray = tmp_path / "effect.json", tmp_path / "ray.json"
    effect.write_text(json.dumps(matrix_to_doc(np.diag([0.5, 1.0]).astype(complex))))
    s = 1.0 / np.sqrt(2.0)
    ray.write_text(json.dumps({"n": 2, "entries": [[s, 0.0], [s, 0.0]]}))
    argv = ["strength", "--effect", str(effect), "--ray", str(ray), "--oracle"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["gap"] < 1e-8
    assert main(argv + ["--tol", "1e3"]) == 0
    assert json.loads(capsys.readouterr().out)["gap"] > 1e-6


def test_tol_reaches_the_two_block_gap(monkeypatch):
    real = strength._two_block
    monkeypatch.setattr(strength, "_two_block", lambda *args: real(*args) + 1e-7)
    assert strength._STRENGTH_ORACLE.run([3], 10, [3], 3, DEFAULT_TOL)[0].failures == 10
    assert strength._STRENGTH_ORACLE.run([3], 10, [3], 3, DEFAULT_TOL.scaled(100))[0].failures == 0


def test_tol_reaches_the_fit_exponent():
    params = FracParams(a=2.0, b=1.0, c=1.0 + 5e-6)

    def phi(A):
        return scalar_effect(2, f_eval(params, float(A.matrix[0, 0].real)))

    with pytest.raises(NotInFamily):
        fit_p(phi, 25, dim=2)
    assert fit_p(phi, 25, dim=2, tol=DEFAULT_TOL.scaled(10)).p == pytest.approx(-1.0, abs=1e-9)


def _plus(amount):
    """A mutation adding ``amount`` to the function's result."""
    return lambda real: lambda *args: real(*args) + amount


def _exponent_plus(amount):
    """A mutation of fit_frac adding ``amount`` to the fitted exponent."""

    def mutated(real):
        def fit(samples):
            found = real(samples)
            return replace(found, c=found.c + amount)

        return fit

    return mutated


@pytest.mark.parametrize(
    "name,mutation,factor",
    [
        ("_symmetry_defect", _plus(1e-8), 100),
        ("verify_pexider", _plus(5e-10), 10),
        ("fit_frac", _exponent_plus(5e-6), 10),
    ],
    ids=["rigidity", "pexider-residual", "pexider-fit-recovery"],
)
def test_tol_reaches_the_pexider_limits(monkeypatch, name, mutation, factor):
    monkeypatch.setattr(fracfun, name, mutation(getattr(fracfun, name)))
    assert fracfun._PEXIDER.run([3], 10, [3], 1, DEFAULT_TOL)[0].failures > 0
    assert fracfun._PEXIDER.run([3], 10, [3], 1, DEFAULT_TOL.scaled(factor))[0].failures == 0
