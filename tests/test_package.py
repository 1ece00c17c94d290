"""The package surface: its exported names and the exit code of each error."""

import pytest

import effectkit
from effectkit import cli, errors
from effectkit.errors import CheckFailed, EffectKitError, InputError

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
