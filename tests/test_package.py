"""The package surface: its exported names, the exit code of each error,
the dimension rule of the functions that take two operands, that no
module keeps a check limit outside ToleranceConfig, that no private
name is left without a use, that suites hand their checks to the
recorder as data, that every suite is one ``Suite`` value run by
``Suite.run``, and that one routine makes the images of a caller's map."""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import effectkit
from effectkit import autos, cli, coexist, effects, errors, numkern, sequential, strength
from effectkit.errors import CheckFailed, DimensionError, EffectKitError, InputError
from effectkit.suites import Suite

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


def test_every_check_limit_is_owned_by_tolerance_config():
    # A module-level limit would not scale with --tol; each limit is a
    # multiple of a ToleranceConfig field, read where the check is made.
    found = []
    for info in pkgutil.iter_modules(effectkit.__path__):
        module = importlib.import_module(f"effectkit.{info.name}")
        found += [
            f"{info.name}.{name}"
            for name in vars(module)
            if name.endswith(("_LIMIT", "_TOL")) and name != "DEFAULT_TOL"
        ]
    assert found == []


def _private_definitions(tree):
    """Module-level private functions, classes and assignment targets, dunders excepted."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from (name for name in names if name.startswith("_") and not name.startswith("__"))


def test_every_private_definition_is_used_in_package_code():
    # A private routine that no package code reads is a path nothing runs;
    # tests and docstrings do not count as uses.
    package = Path(effectkit.__file__).parent
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in package.glob("*.py")}
    loaded = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    defined = [(file, name) for file, tree in trees.items() for name in _private_definitions(tree)]
    unused = sorted(f"{file}:{name}" for file, name in defined if name not in loaded)
    assert unused == []


def test_suites_hand_the_recorder_data_and_only_it_serializes_matrices():
    # A check reaches _SuiteState.record as (name, residuals, limit, inputs),
    # never as a closure; the recorder and the CLI are the two writers of
    # matrix rows.  Only the driver in suites.py keeps states and records
    # into them: a suite is a step and its controls, one protocol.
    package = Path(effectkit.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            recorder = (
                (isinstance(node, ast.Name) and node.id == "_SuiteState")
                or (isinstance(node, ast.Attribute) and node.attr in ("_SuiteState", "record"))
                or (isinstance(node, ast.alias) and node.name == "_SuiteState")
            )
            if recorder and path.name != "suites.py":
                found.append(f"{path.name}:{node.lineno}: a suite state or record outside suites.py")
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "record":
                args = node.args + [k.value for k in node.keywords]
                if any(isinstance(sub, ast.Lambda) for arg in args for sub in ast.walk(arg)):
                    found.append(f"{path.name}:{node.lineno}: lambda passed to record")
            named = (
                (isinstance(node, ast.Name) and node.id == "_matrix_rows")
                or (isinstance(node, ast.Attribute) and node.attr == "_matrix_rows")
                or (isinstance(node, ast.alias) and node.name == "_matrix_rows")
            )
            if named and path.name not in ("suites.py", "cli.py"):
                found.append(f"{path.name}: references _matrix_rows")
    assert found == []


def _loads(node, scope=()):
    """(enclosing function, name) for each name or attribute the tree loads,
    the function qualified by its class."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _loads(child, scope + (child.name,))
            continue
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            yield ".".join(scope), child.id
        elif isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
            yield ".".join(scope), child.attr
        yield from _loads(child, scope)


def test_only_the_driver_and_the_probe_walk_trial_blocks():
    # Suite.run is the one suite driver; the coexistence probe, a search
    # that stops at its first find, is the one other reader of the blocks.
    package = Path(effectkit.__file__).parent
    readers = sorted(
        f"{path.name}:{scope}"
        for path in package.glob("*.py")
        for scope, name in _loads(ast.parse(path.read_text(encoding="utf-8")))
        if name == "_trial_blocks"
    )
    assert readers == ["coexist.py:coexists_with_all_probe", "suites.py:Suite.run"]


def test_only_apply_and_the_image_routine_map_through_the_family_kernel():
    # autos._images makes every image of a caller's map; apply is the
    # public map of one member.  No other function reads _map_members.
    package = Path(effectkit.__file__).parent
    readers = {
        f"{path.name}:{scope}"
        for path in package.glob("*.py")
        for scope, name in _loads(ast.parse(path.read_text(encoding="utf-8")))
        if name == "_map_members"
    }
    assert readers == {"autos.py:_images", "autos.py:apply"}


REPORT_ORDER = [
    "order", "zero-product", "ortho", "sequential", "transition", "scalar-pair",
    "coexist", "strength-oracle", "pexider",
]


def test_the_cli_runs_the_package_suites_in_report_order():
    # The eight module-level Suite values, and scalar-pair, which its factory
    # builds at the CLI's lambda, are cli.SUITES, in report order.
    values = {}
    for info in pkgutil.iter_modules(effectkit.__path__):
        module = importlib.import_module(f"effectkit.{info.name}")
        values.update((id(v), v) for v in vars(module).values() if isinstance(v, Suite))
    scalar_pair = autos._scalar_pair_suite(cli.SCALAR_PAIR_LAMBDA)
    suites = sorted([*values.values(), scalar_pair], key=lambda s: REPORT_ORDER.index(s.name))
    assert [s.name for s in suites] == REPORT_ORDER
    assert len(cli.SUITES) == len(suites)
    for got, want in zip(cli.SUITES, suites):
        if want is scalar_pair:
            assert dataclasses.replace(got, controls=None) == dataclasses.replace(want, controls=None)
            assert (got.controls.func, got.controls.args) == (want.controls.func, want.controls.args)
        else:
            assert got is want


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
WITNESS2 = coexist.coexist_trivial_witness(A2, A2)

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
    "CoexistenceWitness.residual_for": lambda: WITNESS2.residual_for(A3, A3),
    "CoexistenceWitness.is_valid_for": lambda: WITNESS2.is_valid_for(A3, A3),
    "apply": lambda: autos.apply(PHI2, A3),
    "apply_to_ray": lambda: autos.apply_to_ray(PHI2, P3),
    "extract_scalar_action": lambda: autos.extract_scalar_action(PHI2, P3, 0.5),
}


def _public_callables(module):
    """(name, function) for each exported function and each public method of an exported class."""
    for name in module.__all__:
        obj = getattr(module, name)
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            for attr, f in vars(obj).items():
                if inspect.isfunction(f) and not attr.startswith("_"):
                    yield f"{name}.{attr}", f


def test_every_function_of_two_operands_is_listed():
    operands = {"Effect", "RayProjection", "WeakAtom", "EffectAutomorphism", "EffectMap"}
    found = set()
    for module in (numkern, effects, strength, sequential, coexist, autos):
        for name, f in _public_callables(module):
            params = inspect.signature(f).parameters.values()
            if sum(p.annotation in operands for p in params) >= 2:
                found.add(name)
    assert {"CoexistenceWitness.residual_for", "CoexistenceWitness.is_valid_for"} <= found
    assert found <= set(MISMATCHED)


@pytest.mark.parametrize("call", MISMATCHED.values(), ids=MISMATCHED.keys())
def test_mismatched_dimensions_raise_dimension_error(call):
    with pytest.raises(DimensionError):
        call()
