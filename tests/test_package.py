"""The package surface: its exported names, its BLAS thread default, the exit code of each error,
the dimension rule of the functions that take two operands, the
lone-effect rule of those written for one effect, that no module keeps a check limit outside ToleranceConfig, that no private
name is left without a use, that suites hand their checks to the
recorder as data, that every suite is one ``Suite`` value run by
``Suite.run``, that one routine makes the images of a caller's map, and
that no test file pins a report's hash outside the golden store."""

import ast
import dataclasses
import importlib
import inspect
import math
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import effectkit
from effectkit import autos, cli, coexist, effects, errors, fracfun, numkern, sequential, strength
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


@pytest.mark.parametrize("preset,expected", [(None, "1"), ("2", "2")])
def test_importing_the_package_sets_one_blas_thread_unless_a_count_is_set(preset, expected):
    counts = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in counts}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    env["PYTHONPATH"] = os.pathsep.join([str(Path(effectkit.__file__).parents[1]), env.get("PYTHONPATH", "")])
    code = "import os, effectkit; print(os.environ['OPENBLAS_NUM_THREADS'])"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.strip() == expected


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


def test_effects_defines_one_effect_dataclass():
    # A lone effect and a stack of effects are one type: the arrays may carry
    # leading stack axes, so no second class holds the same three arrays.
    tree = ast.parse(Path(effects.__file__).read_text(encoding="utf-8"))
    fields = {
        node.name: [item.target.id for item in node.body if isinstance(item, ast.AnnAssign)]
        for node in tree.body
        if isinstance(node, ast.ClassDef) and any("dataclass" in ast.unparse(d) for d in node.decorator_list)
    }
    holders = {name: names for name, names in fields.items() if {"matrix", "eigenvalues", "eigenvectors"} <= set(names)}
    assert holders == {"Effect": ["matrix", "eigenvalues", "eigenvectors"]}


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


def test_no_test_file_holds_a_hash_literal():
    # Every byte pin is a record of tests/goldens.json, which tests/goldens.py
    # re-records with a verdict diff; a sha256 written into a test has neither.
    tests = Path(__file__).parent.glob("*.py")
    pinned = [path.name for path in tests if re.search(r"[0-9a-fA-F]{64}", path.read_text(encoding="utf-8"))]
    assert pinned == []


def _callee(call: ast.Call) -> str | None:
    return getattr(call.func, "id", None) or getattr(call.func, "attr", None)


def test_one_owner_each_for_the_rank_cutoff_and_the_check_of_p():
    # numkern._rank_cutoff splits every spectrum into range and kernel, and
    # FpParam checks every p as given: no float() runs in front of it.
    package = Path(effectkit.__file__).parent
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in package.glob("*.py")}
    readers = {f"{name}:{scope}" for name, tree in trees.items() for scope, loaded in _loads(tree) if loaded == "_rank_cutoff"}
    assert readers == {
        "effects.py:rank_of", "effects.py:range_projection", "numkern.py:_pinv_sqrt_spectrum", "strength.py:_closed",
    }
    wrapped = [
        f"{name}:{node.lineno}"
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _callee(node) == "FpParam"
        and any(isinstance(arg, ast.Call) and _callee(arg) == "float" for arg in [*node.args, *(k.value for k in node.keywords)])
    ]
    assert wrapped == []



# Two orthogonal rays, a ray in their span, and a family member, at n = 2.
_P, _Q, _R = (effects.make_ray(np.array(v)) for v in ([1.0, 0.0], [0.0, 1.0], [0.6, 0.8]))
_MAP = autos.random_automorphism(2, 0.5, False, 1)
# Each public entry point that takes a scalar, called with x as that scalar.
SCALAR_ENTRY_POINTS = {
    "scalar_effect": lambda x: effects.scalar_effect(2, x),
    "WeakAtom": lambda x: effects.WeakAtom(x, _P),
    "extract_scalar_action": lambda x: autos.extract_scalar_action(_MAP, _P, x),
    "coexist_rank_one-s": lambda x: coexist.coexist_rank_one(x, _P, 0.5, _R),
    "coexist_rank_one-t": lambda x: coexist.coexist_rank_one(0.5, _P, x, _R),
    "verify_scalar_pair": lambda x: autos.verify_scalar_pair(_MAP, x, 2, 1),
    "FpParam": lambda x: fracfun.FpParam(x),
    "FracParams": lambda x: fracfun.FracParams(1.0, 1.0, x),
    "f_eval": lambda x: fracfun.f_eval(fracfun.FracParams(2.0, 1.0, 1.0), x),
    "f_inverse": lambda x: fracfun.f_inverse(fracfun.FracParams(2.0, 1.0, 1.0), x),
    "fp_eval-p": lambda x: fracfun.fp_eval(x, 0.5),
    "fp_eval-x": lambda x: fracfun.fp_eval(0.5, x),
    "fp_apply": lambda x: fracfun.fp_apply(x, _P.projection),
    "strength_two_block": lambda x: strength.strength_two_block(x, _P, _Q, _R),
    "ToleranceConfig": lambda x: numkern.ToleranceConfig(eps_psd=x),
    "scaled": lambda x: numkern.DEFAULT_TOL.scaled(x),
}
# The scalars of g(y) = b y^c, which each Pexider entry point takes besides f.
PEXIDER_SCALARS = {
    "verify_pexider-g_scale": lambda x: fracfun.verify_pexider(fracfun.FracParams(1.0, 1.0, 1.0), x, 1.0, 3),
    "verify_pexider-g_exponent": lambda x: fracfun.verify_pexider(fracfun.FracParams(1.0, 1.0, 1.0), 1.0, x, 3),
    "pexider_decomposition-g_scale": lambda x: fracfun.pexider_decomposition(fracfun.FracParams(1.0, 1.0, 1.0), x, 1.0),
    "pexider_decomposition-g_exponent": lambda x: fracfun.pexider_decomposition(fracfun.FracParams(1.0, 1.0, 1.0), 1.0, x),
    "g_symmetry_check-b": lambda x: fracfun.g_symmetry_check(x, 1.0, 3),
    "g_symmetry_check-c": lambda x: fracfun.g_symmetry_check(1.0, x, 3),
}
SCALAR_ENTRY_POINTS.update(PEXIDER_SCALARS)
NOT_NUMBERS = {
    "True": True, "np.True_": np.True_, "'0.5'": "0.5", "10**400": 10**400, "-10**400": -(10**400),
    "nan": math.nan, "inf": math.inf,
}


def _refusal(entry: str) -> type[Exception]:
    return ValueError if entry in ("ToleranceConfig", "scaled") else InputError


@pytest.mark.parametrize("value", NOT_NUMBERS.values(), ids=NOT_NUMBERS)
@pytest.mark.parametrize("entry", SCALAR_ENTRY_POINTS)
def test_every_scalar_entry_point_refuses_what_is_not_a_number(entry, value):
    # A bool is not 0 or 1, a string is not the number it spells, and an int
    # beyond the float range is refused, not left to raise OverflowError.
    with pytest.raises(_refusal(entry), match=re.escape(repr(value))):
        SCALAR_ENTRY_POINTS[entry](value)


# Each public entry point that takes a matrix or vector from outside, called
# with x as that array, and the error its faults other than shape raise.
_HALF = 0.5 * np.eye(2)
ARRAY_ENTRY_POINTS = {
    "make_effect": (effects.make_effect, errors.HermiticityViolation),
    "require_hermitian": (numkern.require_hermitian, errors.HermiticityViolation),
    "eig_hermitian": (numkern.eig_hermitian, errors.HermiticityViolation),
    "psd_leq-M": (lambda x: numkern.psd_leq(x, _HALF), errors.HermiticityViolation),
    "psd_leq-N": (lambda x: numkern.psd_leq(_HALF, x), errors.HermiticityViolation),
    "mat_sqrt": (numkern.mat_sqrt, errors.HermiticityViolation),
    "pinv_sqrt": (numkern.pinv_sqrt, errors.HermiticityViolation),
    "EffectAutomorphism": (lambda x: autos.EffectAutomorphism(x, False, 0.0), errors.UnitarityViolation),
    "make_ray": (effects.make_ray, errors.DomainError),
}


def _spoiled(value) -> np.ndarray:
    """The identity (a unit vector for a ray) with one entry set to value."""
    M = np.eye(2, dtype=complex)
    M[1, 0] = value
    return M


# Each input that is not an array of numbers, as (matrix, vector, what the refusal names).
NOT_ARRAYS = {
    "bool": (np.eye(2, dtype=bool), np.array([True, False]), "got dtype bool"),
    "str": (np.full((2, 2), "1"), np.array(["1", "0"]), "got dtype <U1"),
    "bytes": (np.full((2, 2), b"1"), np.array([b"1", b"0"]), "got dtype |S1"),
    "object": (np.eye(2).astype(object), np.array([1.0, 0.0], dtype=object), "got dtype object"),
    "nan": (_spoiled(np.nan), _spoiled(np.nan)[1], "has non-finite entries"),
    "inf": (_spoiled(complex(0.0, np.inf)), _spoiled(complex(0.0, np.inf))[1], "has non-finite entries"),
    "shape": (np.ones((2, 3)), np.eye(2), "shape (2, "),
}


@pytest.mark.parametrize("value", NOT_ARRAYS.values(), ids=NOT_ARRAYS)
@pytest.mark.parametrize("entry", ARRAY_ENTRY_POINTS)
def test_every_array_entry_point_refuses_what_is_not_an_array_of_numbers(entry, value):
    # A wrong shape raises DimensionError; every other fault the entry
    # point's own error, naming the dtype or the fault.
    call, error = ARRAY_ENTRY_POINTS[entry]
    matrix, vector, text = value
    with pytest.raises(DimensionError if "shape" in text else error, match=re.escape(text)):
        call(vector if entry == "make_ray" else matrix)


def test_nested_lists_are_read_as_numpy_reads_them():
    # numpy reads an all-bool list as a bool array, refused, and a list that
    # mixes bools with ints as an int array; no entry is checked on its own.
    with pytest.raises(errors.HermiticityViolation, match="got dtype bool"):
        effects.make_effect([[True, False], [False, True]])
    assert effects.make_effect([[True, 0], [0, 1]]).matrix.tobytes() == np.eye(2, dtype=complex).tobytes()
    # A string is not the number it spells, and is refused by the package, not by numpy.
    for spelled in ([["a"]], [["0.5", "0"], ["0", "0.5"]]):
        with pytest.raises(errors.HermiticityViolation, match="got dtype <U"):
            effects.make_effect(spelled)
    with pytest.raises(DimensionError, match="not a rectangular array"):
        effects.make_effect([[0.5, 0.0], [0.0]])


_NUMBERS = {
    "int": (st.integers(-1000, 1000), ("int32", "int64", "float64", "complex128")),
    "float": (st.floats(-1e6, 1e6), ("float32", "float64", "complex64", "complex128")),
    "complex": (st.complex_numbers(max_magnitude=1e6), ("complex64", "complex128")),
}


@settings(max_examples=60, deadline=None)
@given(data=st.data(), kind=st.sampled_from(sorted(_NUMBERS)), n=st.integers(1, 4))
def test_arrays_of_numbers_are_read_as_before(data, kind, n):
    # An int, float or complex array, or a nested list of such numbers, is
    # read as np.asarray(x, dtype=complex128) read it before the rule.
    numbers, dtypes = _NUMBERS[kind]
    entries = data.draw(st.lists(numbers, min_size=n * n, max_size=n * n))
    rows = [[entries[i * n + j] if i <= j else None for j in range(n)] for i in range(n)]
    for i in range(n):  # Hermitian: a real diagonal, conjugate pairs below it
        rows[i][i] = rows[i][i].real if kind == "complex" else rows[i][i]
        for j in range(i):
            rows[i][j] = rows[j][i].conjugate() if kind == "complex" else rows[j][i]
    for x in [rows, *(np.array(rows, dtype=dtype) for dtype in dtypes)]:
        before = np.asarray(x, dtype=np.complex128)
        assert numkern.require_hermitian(x).tobytes() == numkern.hermitize(before).tobytes()
        vector = x[0]
        if np.any(np.asarray(vector, dtype=np.complex128)):
            got = effects.make_ray(vector).vector
            assert got.tobytes() == effects._ray_matrix(np.asarray(vector, dtype=np.complex128))[0].tobytes()


NOT_POSITIVE_NUMBERS = {"0.0": 0.0, "-1.0": -1.0, "-0.0": -0.0, "-inf": -math.inf, "array(1.0)": np.array(1.0)}


@pytest.mark.parametrize("value", NOT_POSITIVE_NUMBERS.values(), ids=NOT_POSITIVE_NUMBERS)
@pytest.mark.parametrize("entry", PEXIDER_SCALARS)
def test_the_pexider_scalars_are_positive_numbers(entry, value):
    # FracParams' rule for its own b and c.  The numbers that are not
    # positive are refused here; what is not a number, NaN included (which
    # made verify_pexider pass vacuously), in the cross test above.
    name = entry.split("-")[1]
    message = f"{name} must be a positive finite real, got {value!r}"
    with pytest.raises(errors.ParamError, match=re.escape(message) + "$"):
        PEXIDER_SCALARS[entry](value)


def test_one_number_rule_for_every_scalar_input(monkeypatch):
    # numkern._is_number answers "is this a number?" for every scalar check,
    # fp_apply checks its one p through FpParam, and only numkern imports numbers.
    package = Path(effectkit.__file__).parent
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in package.glob("*.py")}
    readers = {f"{name}:{scope}" for name, tree in trees.items() for scope, loaded in _loads(tree) if loaded == "_is_number"}
    assert readers == {
        "cli.py:_is_finite_number", "fracfun.py:FpParam.__post_init__", "fracfun.py:_require_positive",
        "fracfun.py:_check_unit_interval", "numkern.py:ToleranceConfig.__post_init__", "numkern.py:ToleranceConfig.scaled",
        "numkern.py:_is_weight", "strength.py:strength_two_block",
    }
    importers = {
        name
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Import) and any(alias.name == "numbers" for alias in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "numbers"
    }
    assert importers == {"numkern.py"}
    assert not any("_coerce_members" in path.read_text(encoding="utf-8") for path in package.glob("*.py"))
    for call in SCALAR_ENTRY_POINTS.values():
        call(1e-4)  # a number that every entry point takes
    monkeypatch.setattr(numkern, "_is_number", lambda value: False)
    for entry, call in SCALAR_ENTRY_POINTS.items():
        with pytest.raises(_refusal(entry)):
            call(1e-4)
    assert not cli._is_finite_number(1e-4)

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
# Witnesses whose F, or G, is of dimension 3 while E is of dimension 2.
WITNESS_F3, WITNESS_G3 = coexist.CoexistenceWitness(A2, A3, A2), coexist.CoexistenceWitness(A2, A2, A3)

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
    "CoexistenceWitness.residual_for-F": lambda: WITNESS_F3.residual_for(A2, A2),
    "CoexistenceWitness.residual_for-G": lambda: WITNESS_G3.residual_for(A2, A2),
    "CoexistenceWitness.is_valid_for-F": lambda: WITNESS_F3.is_valid_for(A2, A2),
    "CoexistenceWitness.is_valid_for-G": lambda: WITNESS_G3.is_valid_for(A2, A2),
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
    with pytest.raises(DimensionError, match=r"^dimension mismatch: \d+( vs \d+)+$"):
        call()


# A stack of three effects at n = 3, given to the routines written for one effect.
STACK3 = effects._stack_effects([effects.sample_effect(3, k) for k in range(3)])

STACKED = {
    "trace": lambda: STACK3.trace(),
    "is_projection": lambda: effects.is_projection(STACK3),
    "rank_of": lambda: effects.rank_of(STACK3),
    "range_projection": lambda: effects.range_projection(STACK3),
    "coexists_with_all_probe": lambda: coexist.coexists_with_all_probe(STACK3, 10, 1),
}


@pytest.mark.parametrize("call", STACKED.values(), ids=STACKED.keys())
def test_a_routine_for_one_effect_refuses_a_stack(call):
    with pytest.raises(TypeError, match="takes a lone effect, not a stack$"):
        call()
