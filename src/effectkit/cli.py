"""Command line interface.

Subcommands
-----------
strength   --effect FILE --ray FILE [--oracle]
           Strength of the effect along the ray; with --oracle also runs
           the bisection route and fails (exit 1) if the two disagree by
           more than 1e-6.
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

All numbers are emitted with 17 significant digits, so reports are
byte-identical for identical flags and seed; parse, serialize, parse is
the identity.  The default seed comes from the EFFECTKIT_SEED
environment variable (0 when unset).  --tol scales the four
ToleranceConfig fields (eps_psd, eps_rank, eps_eq, eps_herm) by the given
factor.  The fixed limits stay: the oracle gap 1e-6, the two-block bound
1e-8, the unitarity bound 1e-10 * n, the fit exponent's 1e-6, the rigidity
tolerance 1e-9, and the pexider suite's 1e-10 and 1e-6.

Exit codes: 0 all checks passed; 1 a mathematical check failed;
2 unusable input (parse failure, malformed document, dimension mismatch,
invalid parameter).
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

from . import __version__
from .autos import (
    EffectAutomorphism,
    _fit_family,
    apply as apply_map,
    random_automorphism,
    verify_ortho,
    verify_order,
    verify_scalar_pair,
    verify_sequential,
    verify_transition,
    verify_zero_product,
)
from .coexist import _coexist_suite
from .effects import Effect, make_effect, make_ray
from .errors import CheckFailed, InputError
from .fracfun import FpParam, _pexider_suite
from .numkern import DEFAULT_TOL, ToleranceConfig
from .strength import ORACLE_GAP_LIMIT, _strength_oracle_suite, strength_bisect, strength_closed
from .suites import Suite, _matrix_rows, _suite_seed

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
    if type(rows) is not list or type(rows[0]) is not list or not rows[0]:
        return None
    width = len(rows[0])
    if any(type(row) is not list or len(row) != width for row in rows):
        return None
    entries = list(itertools.chain.from_iterable(rows))
    if set(map(type, entries)) != {list} or set(map(len, entries)) != {2}:
        return None
    values = list(itertools.chain.from_iterable(entries))
    kinds = set(map(type, values))
    if not kinds <= {float, int} or (int in kinds and any(type(x) is int and abs(x) > 2**53 for x in values)):
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
    try:
        return type(value) is not bool and isinstance(value, (int, float)) and math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def _entry_to_complex(entry, where: str) -> complex:
    if not (isinstance(entry, (list, tuple)) and len(entry) == 2):
        raise ParseFailure(f"{where}: each entry must be a [re, im] pair")
    re, im = entry
    if not (_is_finite_number(re) and _is_finite_number(im)):
        raise ParseFailure(f"{where}: entries must be finite numbers")
    return complex(float(re), float(im))


def _bulk_complex(items, shape: tuple[int, ...]) -> np.ndarray | None:
    """``items`` as a complex array of ``shape`` in one numpy conversion.

    Taken only when ``items`` converts to ``shape`` [re, im] pairs of
    finite ints or floats; otherwise None, and the per-entry parser
    decides (and names the fault).  The two parts are assigned separately
    because ``re + 1j * im`` would turn an imaginary -0.0 into +0.0.
    """
    try:
        parts = np.array(items)
    except ValueError:  # ragged nesting
        return None
    if parts.shape != shape + (2,) or parts.dtype.kind not in "fi" or not np.isfinite(parts).all():
        return None
    out = np.empty(shape, dtype=np.complex128)
    out.real = parts[..., 0]
    out.imag = parts[..., 1]
    return out


def doc_to_matrix(doc, where: str = "matrix document") -> np.ndarray:
    if not isinstance(doc, dict):
        raise ParseFailure(f"{where}: expected an object")
    n = doc.get("n")
    rows = doc.get("rows")
    if type(n) is not int or n < 1:
        raise ParseFailure(f"{where}: field 'n' must be a positive integer")
    if not isinstance(rows, list) or len(rows) != n:
        raise ParseFailure(f"{where}: field 'rows' must hold {n} rows")
    out = _bulk_complex(rows, (n, n))
    if out is not None:
        return out
    out = np.zeros((n, n), dtype=np.complex128)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise ParseFailure(f"{where}: row {i} must hold {n} entries")
        for j, entry in enumerate(row):
            out[i, j] = _entry_to_complex(entry, f"{where}: row {i}")
    return out


def doc_to_vector(doc, where: str = "vector document") -> np.ndarray:
    if not isinstance(doc, dict):
        raise ParseFailure(f"{where}: expected an object")
    n = doc.get("n")
    entries = doc.get("entries")
    if type(n) is not int or n < 1:
        raise ParseFailure(f"{where}: field 'n' must be a positive integer")
    if not isinstance(entries, list) or len(entries) != n:
        raise ParseFailure(f"{where}: field 'entries' must hold {n} pairs")
    out = _bulk_complex(entries, (n,))
    if out is not None:
        return out
    return np.array([_entry_to_complex(e, where) for e in entries], dtype=np.complex128)


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseFailure(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseFailure(f"{path}: invalid JSON: {exc}") from exc


def load_effect(path: str, tol: ToleranceConfig) -> Effect:
    return make_effect(doc_to_matrix(_load_json(path), path), tol)


def load_ray(path: str):
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
    return EffectAutomorphism(U=U, conjugate=doc["conjugate"], p=FpParam(float(doc["p"])))


def map_to_doc(phi: EffectAutomorphism) -> dict:
    return {"U": matrix_to_doc(phi.U), "conjugate": phi.conjugate, "p": phi.p.p}


# ---------------------------------------------------------------------------
# the suites of ``verify``


def _family_suite(verify):
    """Run ``verify`` on the family member (n, p, conj) drawn from the suite
    seed.  It is looked up on this module per run, as ``main`` looks up a
    command, so a replaced function (a test double, a tracing wrapper) runs."""
    name = verify.__name__

    def run(trials: int, seed: int, tol: ToleranceConfig, n: int, p: float, conjugate: bool):
        return globals()[name](random_automorphism(n, p, conjugate, seed), trials, seed, tol=tol)

    return run


def _verify_scalar_pair(phi, trials, seed, tol):
    return verify_scalar_pair(phi, SCALAR_PAIR_LAMBDA, trials, seed, tol=tol)


_FAMILY = ("n", "p", "conj")
# In report order; each entry of a suite draws the next child seed.
SUITES = (
    Suite("order", _FAMILY, _family_suite(verify_order)),
    Suite("zero-product", _FAMILY, _family_suite(verify_zero_product)),
    Suite("ortho", _FAMILY, _family_suite(verify_ortho)),
    Suite("sequential", _FAMILY, _family_suite(verify_sequential)),
    Suite("transition", _FAMILY, _family_suite(verify_transition)),
    Suite("scalar-pair", _FAMILY, _family_suite(_verify_scalar_pair)),
    Suite("coexist", ("n",), _coexist_suite),
    Suite("strength-oracle", ("n",), _strength_oracle_suite),
    Suite("pexider", (), _pexider_suite),
)
_AXIS_LABELS = {"n": "n={}".format, "p": "p={:g}".format, "conj": lambda c: f"conj={int(c)}"}


# ---------------------------------------------------------------------------
# subcommands


def _resolve_seed(value: int | None) -> int:
    if value is not None:
        return value
    raw = os.environ.get("EFFECTKIT_SEED", "0")
    try:
        return int(raw)
    except ValueError as exc:
        raise ParseFailure(f"EFFECTKIT_SEED must be an integer, got {raw!r}") from exc


def cmd_strength(args: argparse.Namespace) -> int:
    tol = DEFAULT_TOL.scaled(args.tol)
    A = load_effect(args.effect, tol)
    ray = load_ray(args.ray)
    result = strength_closed(A, ray, tol)
    out = {"value": result.value, "in_range": result.in_range, "near_cutoff": result.near_cutoff}
    code = 0
    if args.oracle:
        oracle = strength_bisect(A, ray, tol)
        gap = abs(result.value - oracle)
        out["oracle"] = oracle
        out["gap"] = gap
        if gap > ORACLE_GAP_LIMIT:
            code = 1
    sys.stdout.write(dump_json(out) + "\n")
    return code


def cmd_apply(args: argparse.Namespace) -> int:
    tol = DEFAULT_TOL.scaled(args.tol)
    phi = load_map(args.map)
    A = load_effect(args.effect, tol)
    sys.stdout.write(dump_json(matrix_to_doc(apply_map(phi, A).matrix)) + "\n")
    return 0


def cmd_fit(args: argparse.Namespace) -> int:
    tol = DEFAULT_TOL.scaled(args.tol)
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
    tol = DEFAULT_TOL.scaled(args.tol)
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

    entries = []
    overall = True
    counter = 0
    for suite in SUITES:
        if args.suite not in ("all", suite.name):
            continue
        for case in itertools.product(*(sweep[axis] for axis in suite.axes)):
            report = suite.run(args.trials, _suite_seed(seed, counter), tol, *case)
            counter += 1
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
    sys.stdout.write(text)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(text)
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
        tol_help = "scale the four ToleranceConfig fields by this factor (not the fixed limits)"
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
    except (InputError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def run() -> None:
    sys.exit(main())
