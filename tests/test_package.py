"""The package surface: its exported names, the exit code of each error,
and the dimension rule of the functions that take two operands."""

import inspect

import numpy as np
import pytest

import effectkit
from effectkit import autos, cli, coexist, effects, errors, numkern, sequential, strength
from effectkit.errors import CheckFailed, DimensionError, EffectKitError, InputError

# The names the package exported when its export list was written out by
# hand, plus the two error bases that sort every error by its exit code.
EXPORTED = {
    "__version__",
    "EffectKitError", "InputError", "CheckFailed", "DimensionError", "HermiticityViolation",
    "NotPositiveSemidefinite", "SpectrumOutOfRange", "RankError", "OrderViolation",
    "OrthogonalityError", "SpanError", "DegenerateRanges", "QuotientFailure", "DomainError",
    "ParamError", "FitError", "NotScalarAction", "NotInFamily", "UnitarityViolation",
    "ToleranceConfig", "DEFAULT_TOL", "EigenDecomp", "frobenius", "hermitize", "require_hermitian",
    "eig_hermitian", "psd_leq", "mat_sqrt", "pinv_sqrt", "haar_unitary",
    "Effect", "RayProjection", "WeakAtom", "make_effect", "make_ray", "identity_effect",
    "zero_effect", "scalar_effect", "sample_effect", "sample_ray", "leq", "effects_equal",
    "orthocomplement", "zero_product", "is_projection", "rank_of", "range_projection", "is_scalar",
    "scalar_multiple_of_rank_one",
    "StrengthValue", "BISECT_ITERATIONS", "strength_closed", "strength_bisect", "strength_two_block",
    "SeqQuotient", "seq_product", "seq_zero_iff_zero", "douglas_quotient", "order_via_seq",
    "CoexistenceWitness", "coexist_trivial_witness", "coexist_rank_one", "coexists_with_weak_atom",
    "coexists_with_all_probe",
    "FracParams", "FpParam", "FracFit", "f_eval", "f_inverse", "fp_eval", "fp_apply", "inverse_param",
    "interior_grid", "verify_pexider", "fit_frac", "g_symmetry_check", "rigidity_probe",
    "RIGIDITY_KINDS", "PexiderDecomposition", "pexider_decomposition",
    "EffectAutomorphism", "VerificationReport", "random_automorphism", "apply_to_ray", "inverse",
    "extract_scalar_action", "fit_p", "verify_order", "verify_zero_product", "verify_ortho",
    "verify_sequential", "verify_transition", "verify_scalar_pair",
}


def test_exported_names_are_frozen():
    assert len(effectkit.__all__) == len(EXPORTED)
    assert set(effectkit.__all__) == EXPORTED
    for name in EXPORTED:
        assert getattr(effectkit, name) is not None


def test_exports_are_the_module_objects():
    assert effectkit.leq is effectkit.effects.leq
    assert effectkit.VerificationReport is effectkit.suites.VerificationReport
    assert effectkit.DimensionError is errors.DimensionError


# Exit codes of the CLI for each error, as the two hand-kept tuples of
# error classes gave them before the two bases existed.
EXIT_CODES = {
    "DimensionError": 2,
    "HermiticityViolation": 2,
    "SpectrumOutOfRange": 2,
    "NotPositiveSemidefinite": 2,
    "UnitarityViolation": 2,
    "ParamError": 2,
    "DomainError": 2,
    "RankError": 2,
    "OrthogonalityError": 2,
    "SpanError": 2,
    "DegenerateRanges": 2,
    "ParseFailure": 2,
    "NotInFamily": 1,
    "NotScalarAction": 1,
    "QuotientFailure": 1,
    "OrderViolation": 1,
    "FitError": 1,
}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


ERRORS = sorted(set(_subclasses(EffectKitError)) - {InputError, CheckFailed}, key=lambda c: c.__name__)


def test_every_error_is_listed():
    assert {c.__name__ for c in ERRORS} == set(EXIT_CODES)


@pytest.mark.parametrize("error", ERRORS, ids=[c.__name__ for c in ERRORS])
def test_each_error_has_one_base_and_its_exit_code(error, monkeypatch, capsys):
    assert issubclass(error, InputError) + issubclass(error, CheckFailed) == 1

    def cmd_fit(args):
        raise error("boom")

    monkeypatch.setattr(cli, "cmd_fit", cmd_fit)
    assert cli.main(["fit", "--map", "unused.json"]) == EXIT_CODES[error.__name__]
    err = capsys.readouterr().err
    assert err == ("check failed: boom\n" if issubclass(error, CheckFailed) else "error: boom\n")


# Two operands of each kind, of dimensions 2 and 3, otherwise valid.
A2, A3 = effects.scalar_effect(2, 0.5), effects.scalar_effect(3, 0.5)
P2, P3 = effects.make_ray(np.array([1.0, 0.0])), effects.make_ray(np.array([1.0, 0.0, 0.0]))
Q2 = effects.make_ray(np.array([0.0, 1.0]))
R3 = effects.make_ray(np.array([1.0, 1.0, 0.0]))
PHI2 = autos.random_automorphism(2, 0.5, False, 1)

MISMATCHED = {
    "psd_leq": lambda: numkern.psd_leq(A2.matrix, A3.matrix),
    "leq": lambda: effects.leq(A2, A3),
    "effects_equal": lambda: effects.effects_equal(A2, A3),
    "zero_product": lambda: effects.zero_product(A2, A3),
    "scalar_multiple_of_rank_one": lambda: effects.scalar_multiple_of_rank_one(A2, P3.projection),
    "strength_closed": lambda: strength.strength_closed(A2, P3),
    "strength_bisect": lambda: strength.strength_bisect(A2, P3),
    "strength_two_block": lambda: strength.strength_two_block(0.5, P2, Q2, R3),
    "seq_product": lambda: sequential.seq_product(A2, A3),
    "seq_zero_iff_zero": lambda: sequential.seq_zero_iff_zero(A2, A3),
    "douglas_quotient": lambda: sequential.douglas_quotient(A2, A3),
    "order_via_seq": lambda: sequential.order_via_seq(A2, A3),
    "coexist_trivial_witness": lambda: coexist.coexist_trivial_witness(A2, A3),
    "coexist_rank_one": lambda: coexist.coexist_rank_one(0.5, P2, 0.5, P3),
    "coexists_with_weak_atom": lambda: coexist.coexists_with_weak_atom(A2, effects.WeakAtom(0.5, P3)),
    "apply": lambda: autos.apply(PHI2, A3),
    "apply_to_ray": lambda: autos.apply_to_ray(PHI2, P3),
    "extract_scalar_action": lambda: autos.extract_scalar_action(PHI2, P3, 0.5),
}


def test_every_function_of_two_operands_is_listed():
    operands = {"Effect", "RayProjection", "WeakAtom", "EffectAutomorphism", "EffectMap"}
    found = set()
    for module in (numkern, effects, strength, sequential, coexist, autos):
        for name in module.__all__:
            f = getattr(module, name)
            if inspect.isfunction(f):
                params = inspect.signature(f).parameters.values()
                if sum(p.annotation in operands for p in params) >= 2:
                    found.add(name)
    assert found <= set(MISMATCHED)


@pytest.mark.parametrize("call", MISMATCHED.values(), ids=MISMATCHED.keys())
def test_mismatched_dimensions_raise_dimension_error(call):
    with pytest.raises(DimensionError):
        call()
