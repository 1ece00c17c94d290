"""Command line interface.

Subcommands
-----------
strength   --effect FILE --ray FILE [--oracle]
           Strength of the effect along the ray; with --oracle also runs
           the bisection route and fails (exit 1) if the two disagree by
           more than ToleranceConfig.estimate_limit, 100 * eps_rank.
verify     --suite NAME --dims LIST --p LIST [--trials N] [--seed S]
           [--expect MODE] [--json FILE]
           Seeded verification suites, one report entry per point of the
           axes each sweeps (``SUITES``): order, zero-product, ortho,
           sequential, transition and scalar-pair (effectkit.autos) over
           dimensions x parameters x both conjugation flags; coexist
           (effectkit.coexist) and strength-oracle (effectkit.strength)
           over dimensions; pexider (effectkit.fracfun) once; or all.
           The rigidity suites (ortho, sequential) hold only at p = 0;
           with --expect auto a parameter p != 0 is required to produce a
           counterexample and the suite entry is annotated accordingly.
           Each entry draws its child seed in report order; the entries of
           a suite that share a dimension then run as one group, in shared
           trial blocks, through ``Suite.run``.  A --tol below the
           round-off of the values verify builds exits 2 naming --tol;
           --json FILE is written before stdout.
apply      --map FILE --effect FILE
           Image of the effect under the map, printed as a matrix
           document.
fit        --map FILE --grid N
           Recover the order parameter of a map file from its action on
           scalar effects.

Documents
---------
Matrix document: {"n": N, "rows": [[[re, im], ...], ...]} with N rows of
N entries.  Vector document (rays): {"n": N, "entries": [[re, im], ...]}.
Map document: {"U": <matrix document>, "conjugate": bool, "p": double}.
One reader serves effect, ray and map documents; a ray is read as a
one-row matrix.  Each re and im must be a finite int or float: booleans,
strings, null and nested lists are refused (exit 2, naming the first bad
row or entry).  Ints beyond 2**53 are rounded as float() rounds them.
Types are tested exactly, as JSON gives them: a Python caller of
doc_to_matrix or doc_to_vector passes lists, ints and floats (a tuple
pair or an np.float64 part is refused).

All numbers are emitted with 17 significant digits, so reports are
byte-identical for identical flags and seed; parse, serialize, parse is
the identity.  The default seed comes from the EFFECTKIT_SEED
environment variable (0 when unset).  --tol scales the four
ToleranceConfig fields (eps_psd, eps_rank, eps_eq, eps_herm) by the given
factor, and with them every check limit, each a multiple of one field;
a factor that takes a field out of (0, 1e-3) exits 2, naming --tol.
Only a map document's unitarity bound, eps_herm * n, stays at the default:
a map validates itself when it is built.

Exit codes: 0 all checks passed; 1 a mathematical check failed
(``CheckFailed``); 2 unusable input (``InputError``: parse failure,
malformed document, dimension mismatch, invalid parameter); 3 a fault of
the program: ``main`` lets any other exception propagate, and ``run``, the
console script, prints its traceback and exits 3.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import re
import sys
from typing import Sequence

import numpy as np

from . import __version__, numkern
from .autos import (
    _ORDER,
    _ORTHO,
    _SEQUENTIAL,
    _TRANSITION,
    _ZERO_PRODUCT,
    EffectAutomorphism,
    _fit_family,
    _scalar_pair_suite,
    apply as apply_map,
    random_automorphism,
)
from .coexist import _COEXIST
from .effects import Effect, RayProjection, make_effect, make_ray
from .errors import CheckFailed, InputError, OrthogonalityError, SpanError, SpectrumOutOfRange
from .fracfun import _PEXIDER, FpParam
from .numkern import DEFAULT_TOL, ToleranceConfig
from .strength import _STRENGTH_ORACLE, strength_bisect, strength_closed
from .suites import _matrix_rows, _suite_seed

RIGIDITY_SUITES = ("ortho", "sequential")
SCALAR_PAIR_LAMBDA = 0.3


class ParseFailure(InputError):
    """Malformed document or flag value."""


# ---------------------------------------------------------------------------
# canonical JSON with 17-significant-digit floats


def _format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite number {x!r}")
    return format(float(x), ".17g")


def dump_json(obj, level: int = 0) -> str:
    """Serialize dicts/lists/str/bool/int/float/None deterministically.

    A matrix of [re, im] pairs (``_matrix_text``) is written in one pass,
    with the bytes the recursive rule below gives it.
    """
    pad = "  " * level
    inner = "  " * (level + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [f"{inner}{json.dumps(str(k))}: {dump_json(v, level + 1)}" for k, v in obj.items()]
        return "{\n" + ",\n".join(parts) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not len(obj):
            return "[]"
        text = _matrix_text(obj, level)
        if text is not None:
            return text
        parts = [f"{inner}{dump_json(v, level + 1)}" for v in obj]
        return "[\n" + ",\n".join(parts) + f"\n{pad}]"
    raise ValueError(f"cannot serialize object of type {type(obj).__name__}")


def _pair_values(rows, width: int) -> tuple[list, set] | None:
    """The numbers of ``rows`` in row-major order, with the set of their
    types, when ``rows`` is a list of lists of ``width`` [re, im] lists of
    ints and floats (not booleans); None for any other value.

    The one shape test of a matrix of pairs, run by the writer
    (``_matrix_text``) and the reader (``_read_pairs``) alike; its type and
    length scans run in C.  Types are tested exactly, as JSON gives them:
    tuples and float subclasses such as ``np.float64`` are refused.
    """
    if set(map(type, rows)) != {list} or set(map(len, rows)) != {width}:
        return None
    entries = list(itertools.chain.from_iterable(rows))
    if set(map(type, entries)) != {list} or set(map(len, entries)) != {2}:
        return None
    values = list(itertools.chain.from_iterable(entries))
    kinds = set(map(type, values))
    return (values, kinds) if kinds <= {float, int} else None


def _matrix_text(rows, level: int) -> str | None:
    """``dump_json(rows, level)`` in one pass when ``rows`` is a non-empty
    list of equal-length, non-empty lists of [float, float] lists (the
    shape of ``_matrix_rows``, or JSON read back, where integral floats
    become ints of magnitude at most 2**53); None for any other value.

    One "%.17g" template per row, repeated for every row and filled with
    one ``%``, gives the bytes the recursive rule gives (such an int is
    exact as a float, so "%.17g" prints it as ``str`` does).  A non-finite
    entry raises the ValueError of the first one in row-major order, as
    the recursive rule does.
    """
    if type(rows) is not list or type(rows[0]) is not list:  # not a matrix; the common case
        return None
    width = len(rows[0])
    pairs = _pair_values(rows, width)
    if pairs is None:
        return None
    values, kinds = pairs
    if int in kinds and any(type(x) is int and abs(x) > 2**53 for x in values):
        return None
    if not all(map(math.isfinite, values)):
        _format_float(next(x for x in values if not math.isfinite(x)))  # raises
    pad, row_pad, entry_pad, value_pad = ("  " * (level + k) for k in range(4))
    entry = f"{entry_pad}[\n{value_pad}%.17g,\n{value_pad}%.17g\n{entry_pad}]"
    row = f"{row_pad}[\n" + ",\n".join([entry] * width) + f"\n{row_pad}]"
    return ("[\n" + ",\n".join([row] * len(rows)) + f"\n{pad}]") % tuple(values)


# ---------------------------------------------------------------------------
# documents


def matrix_to_doc(M: np.ndarray) -> dict:
    M = np.asarray(M, dtype=np.complex128)
    return {"n": int(M.shape[0]), "rows": _matrix_rows(M)}


def _is_finite_number(value) -> bool:
    return type(value) in (int, float) and numkern._is_number(value)


def _read_pairs(doc, field: str, where: str) -> np.ndarray:
    """The ``field`` of a matrix ("rows") or vector ("entries") document as
    a complex array of shape (n, n) or (1, n): the one reader of effect, ray
    and map documents.  One ``np.array`` converts every number, so each part
    is ``float(x)`` bit for bit (-0.0 too); the rest is refused (``_faults``).
    """
    if not isinstance(doc, dict):
        raise ParseFailure(f"{where}: expected an object")
    n, items = doc.get("n"), doc.get(field)
    if type(n) is not int or n < 1:
        raise ParseFailure(f"{where}: field 'n' must be a positive integer")
    if not isinstance(items, list) or len(items) != n:
        raise ParseFailure(f"{where}: field '{field}' must hold {n} {field}")
    rows = items if field == "rows" else [items]
    pairs = _pair_values(rows, n)
    try:
        parts = None if pairs is None else np.array(pairs[0], dtype=np.float64)
    except OverflowError:  # an integer beyond the float range
        parts = None
    if parts is None or not np.isfinite(parts).all():
        raise ParseFailure(next(_faults(rows, n, where, field)))
    return parts.view(np.complex128).reshape(len(rows), n)


def _faults(rows: list, width: int, where: str, field: str):
    """What ``_read_pairs`` refuses in the rows of ``field``, in row-major order."""
    for i, row in enumerate(rows):
        if type(row) is not list or len(row) != width:
            yield f"{where}: row {i} must hold {width} entries"
            continue
        for j, entry in enumerate(row):
            at = f"{where}: row {i}, entry {j}" if field == "rows" else f"{where}: entry {j}"
            if type(entry) is not list or len(entry) != 2:
                yield f"{at}: each entry must be a [re, im] pair"
            elif not all(map(_is_finite_number, entry)):
                yield f"{at}: entries must be finite numbers"


def doc_to_matrix(doc, where: str = "matrix document") -> np.ndarray:
    return _read_pairs(doc, "rows", where)


def doc_to_vector(doc, where: str = "vector document") -> np.ndarray:
    return _read_pairs(doc, "entries", where)[0]


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseFailure(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:  # bad JSON, not UTF-8, nested too deep
        raise ParseFailure(f"{path}: invalid JSON: {exc}") from exc


def load_effect(path: str, tol: ToleranceConfig) -> Effect:
    return make_effect(doc_to_matrix(_load_json(path), path), tol)


def load_ray(path: str) -> RayProjection:
    """The ray of a vector document (``make_ray``), its basis not built."""
    return make_ray(doc_to_vector(_load_json(path), path))


def load_map(path: str) -> EffectAutomorphism:
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise ParseFailure(f"{path}: expected an object")
    if "U" not in doc or "conjugate" not in doc or "p" not in doc:
        raise ParseFailure(f"{path}: map document needs fields 'U', 'conjugate', 'p'")
    if not isinstance(doc["conjugate"], bool):
        raise ParseFailure(f"{path}: field 'conjugate' must be a boolean")
    if not _is_finite_number(doc["p"]):
        raise ParseFailure(f"{path}: field 'p' must be a finite number")
    U = doc_to_matrix(doc["U"], f"{path}: field 'U'")
    return EffectAutomorphism(U=U, conjugate=doc["conjugate"], p=float(doc["p"]))


def map_to_doc(phi: EffectAutomorphism) -> dict:
    return {"U": matrix_to_doc(phi.U), "conjugate": phi.conjugate, "p": phi.p.p}


# ---------------------------------------------------------------------------
# the suites of ``verify``


# In report order; each entry of a suite draws the next child seed.  The
# entries of a suite that share a dimension form one group, run together.
SUITES = (
    _ORDER, _ZERO_PRODUCT, _ORTHO, _SEQUENTIAL, _TRANSITION, _scalar_pair_suite(SCALAR_PAIR_LAMBDA),
    _COEXIST, _STRENGTH_ORACLE, _PEXIDER,
)
_AXIS_LABELS = {"n": "n={}".format, "p": "p={:g}".format, "conj": lambda c: f"conj={int(c)}"}


# ---------------------------------------------------------------------------
# subcommands


def _resolve_seed(value: int | None) -> int:
    env = os.environ.get("EFFECTKIT_SEED", "0")
    source, raw = ("--seed", value) if value is not None else ("EFFECTKIT_SEED", env)
    try:
        seed = int(raw)
    except ValueError as exc:
        raise ParseFailure(f"{source} must be an integer, got {raw!r}") from exc
    if seed < 0:  # numpy's seeding would reject it without naming the source
        raise ParseFailure(f"{source} must be a non-negative integer, got {seed}")
    return seed


def _tolerances(factor: float) -> ToleranceConfig:
    """The tolerances that ``--tol`` asks for; a factor they refuse exits 2
    naming the flag."""
    try:
        return DEFAULT_TOL.scaled(factor)
    except ValueError as exc:
        raise ParseFailure(f"--tol must scale every tolerance into (0, 1e-3), got {factor!r}") from exc


def cmd_strength(args: argparse.Namespace) -> int:
    tol = _tolerances(args.tol)
    A = load_effect(args.effect, tol)
    ray = load_ray(args.ray)
    result = strength_closed(A, ray, tol)
    out = {"value": result.value, "in_range": result.in_range, "near_cutoff": result.near_cutoff}
    if args.oracle:
        oracle = strength_bisect(A, ray, tol)
        out.update(oracle=oracle, gap=abs(result.value - oracle))
    sys.stdout.write(dump_json(out) + "\n")
    return int(out.get("gap", 0.0) > tol.estimate_limit)


def cmd_apply(args: argparse.Namespace) -> int:
    tol = _tolerances(args.tol)
    phi = load_map(args.map)
    A = load_effect(args.effect, tol)
    sys.stdout.write(dump_json(matrix_to_doc(apply_map(phi, A).matrix)) + "\n")
    return 0


def cmd_fit(args: argparse.Namespace) -> int:
    tol = _tolerances(args.tol)
    if args.grid < 3:
        raise ParseFailure("--grid must be at least 3: a fit needs three samples")
    param, fit = _fit_family(load_map(args.map), args.grid, None, tol)
    out = {
        "p": param.p,
        "a": fit.a,
        "c": fit.c,
        "c_deviation": abs(fit.c - 1.0),
        "residual": fit.residual,
    }
    sys.stdout.write(dump_json(out) + "\n")
    return 0


def _expected_for(suite: str, p: float | None, expect: str) -> str:
    if suite not in RIGIDITY_SUITES:
        return "preserve"
    if expect != "auto":
        return expect
    return "preserve" if p == 0.0 else "counterexample"


def cmd_verify(args: argparse.Namespace) -> int:
    tol = _tolerances(args.tol)
    if args.trials < 1:
        raise ParseFailure("--trials must be a positive integer")
    seed = _resolve_seed(args.seed)
    sweep = {
        "n": _parse_int_list(args.dims, "dims"),
        "p": _parse_float_list(args.p, "p"),
        "conj": (False, True),
    }
    for p in sweep["p"]:
        FpParam(p)  # validates p < 1 up front

    # Every child seed, in report order; then each group of a suite's
    # entries that share a dimension (the first axis) as one run.
    counter = itertools.count()
    groups = []
    for suite in SUITES:
        if args.suite in ("all", suite.name):
            cases = itertools.product(*(sweep[axis] for axis in suite.axes))
            drawn = [(_suite_seed(seed, next(counter)), case) for case in cases]
            groups += [(suite, list(group)) for _, group in itertools.groupby(drawn, key=lambda e: e[1][:1])]

    entries = []
    overall = True
    for suite, group in groups:
        seeds, cases = map(list, zip(*group))
        # A family entry's subject is its map (n, p, conj), drawn from its
        # seed; any other entry's is its seed.  Pexider sweeps no axis: n = 1.
        subjects = [random_automorphism(*case, s) for s, case in zip(seeds, cases)] if "p" in suite.axes else seeds
        try:
            reports = suite.run(subjects, args.trials, seeds, cases[0][0] if suite.axes else 1, tol)
        except (SpectrumOutOfRange, OrthogonalityError, SpanError) as exc:
            # Every value a suite checks is built here: only a --tol below its round-off
            # refuses one.  Which member a block refuses first varies, so none is named.
            raise ParseFailure(f"--tol {args.tol!r} is below the round-off of the values verify builds") from exc
        for case, report in zip(cases, reports):
            labels = [_AXIS_LABELS[axis](value) for axis, value in zip(suite.axes, case)]
            expected = _expected_for(suite.name, dict(zip(suite.axes, case)).get("p"), args.expect)
            satisfied = (report.failures == 0) == (expected == "preserve")
            overall = overall and satisfied
            entry = report.to_dict()
            entry["suite"] = suite.name + (f"[{','.join(labels)}]" if labels else "")
            entry["expected"] = expected
            entry["satisfied"] = satisfied
            entries.append(entry)

    run_report = {
        "tool_version": __version__,
        "seed": seed,
        "suites": entries,
        "overall": "pass" if overall else "fail",
    }
    text = dump_json(run_report) + "\n"
    if args.json:  # written first: a file that cannot be written exits 2 with nothing on stdout
        try:
            with open(args.json, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ParseFailure(f"cannot write {args.json}: {exc}") from exc
    sys.stdout.write(text)
    return 0 if overall else 1


def _parse_int_list(raw: str, name: str) -> list[int]:
    try:
        values = [int(part) for part in raw.split(",") if part != ""]
    except ValueError as exc:
        raise ParseFailure(f"--{name} must be a comma-separated integer list") from exc
    if not values or any(v < 1 for v in values):
        raise ParseFailure(f"--{name} needs positive integers")
    return values


def _parse_float_list(raw: str, name: str) -> list[float]:
    try:
        values = [float(part) for part in raw.split(",") if part != ""]
    except ValueError as exc:
        raise ParseFailure(f"--{name} must be a comma-separated number list") from exc
    if not values or any(not math.isfinite(v) for v in values):
        raise ParseFailure(f"--{name} needs finite numbers")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="effectkit", description="Effect algebra toolkit")

    def add_tol(sub: argparse.ArgumentParser) -> None:
        tol_help = "scale the four ToleranceConfig fields, and every check limit, by this factor"
        sub.add_argument("--tol", type=float, default=1.0, help=tol_help)

    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("strength", help="strength of an effect along a ray")
    s.add_argument("--effect", required=True, help="matrix document file")
    s.add_argument("--ray", required=True, help="vector document file")
    s.add_argument("--oracle", action="store_true", help="cross-check against bisection")
    add_tol(s)
    s.set_defaults(func=cmd_strength)

    v = sub.add_parser("verify", help="seeded verification suites")
    v.add_argument("--suite", default="all", choices=tuple(s.name for s in SUITES) + ("all",))
    v.add_argument("--dims", default="2,3", help="comma-separated dimensions")
    v.add_argument("--p", default="0,0.5", help="comma-separated order parameters (each < 1)")
    v.add_argument("--trials", type=int, default=50)
    v.add_argument("--seed", type=int, default=None, help="default: EFFECTKIT_SEED or 0")
    v.add_argument("--expect", default="auto", choices=("auto", "preserve", "counterexample"))
    v.add_argument("--json", default=None, help="also write the report to this file")
    add_tol(v)
    v.set_defaults(func=cmd_verify)

    a = sub.add_parser("apply", help="apply a map document to an effect")
    a.add_argument("--map", required=True, help="map document file")
    a.add_argument("--effect", required=True, help="matrix document file")
    add_tol(a)
    a.set_defaults(func=cmd_apply)

    f = sub.add_parser("fit", help="fit the order parameter of a map document")
    f.add_argument("--map", required=True, help="map document file")
    f.add_argument("--grid", type=int, default=25, help="number of interior sample points")
    add_tol(f)
    f.set_defaults(func=cmd_fit)

    return parser


# A value token that starts like a negative number (-3, -.5, -1e6,0).
_NEGATIVE_NUMBER = re.compile(r"^-\.?\d")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The ``build_parser`` tree, built on the first request and then reused.

    argparse takes only plain negative numbers such as -3 or -0.5 as
    option values and reads ``--p -1e6,0`` as a missing value followed by
    an option.  No option of this tree starts like a negative number, so
    every subcommand parser takes such a token as a value.
    """
    parser = build_parser()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                sub._negative_number_matcher = _NEGATIVE_NUMBER
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        # Resolved on this module per request, as when the parser was built
        # per request, so a command replaced here (a test double, a tracing
        # wrapper) is the one that runs.
        return globals()[args.func.__name__](args)
    except CheckFailed as exc:
        sys.stderr.write(f"check failed: {exc}\n")
        return 1
    except InputError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def run() -> None:
    """The console script: ``main``, and a fault of the program exits 3 with its traceback."""
    try:
        code = main()
    except Exception:
        import traceback  # only on a fault: it costs import time otherwise
        traceback.print_exc()
        code = 3
    sys.exit(code)
