"""Output checks that do not rely on effectkit.

cli-docs outputs are compared with references computed here in NumPy from
the request documents.  verify reports are checked for their shape, for the
trial count of every entry, and for unsatisfied entries outside the known
defects recorded in ``baseline.json``.
"""

from __future__ import annotations

import json
import math

import numpy as np

from inputs import AUTO_SUITES

STRENGTH_TOL = 1e-9  # closed form against the eigenbasis formula
ORACLE_TOL = 1e-6  # bisection bracket is 1e-8; PSD slack adds round-off
APPLY_TOL = 1e-10  # entrywise, images have norm at most sqrt(n)
FIT_TOL = 1e-6  # relative to max(1, |p|)


def _load(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _matrix(doc: dict) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in doc["rows"]], dtype=np.complex128)


def _vector(doc: dict) -> np.ndarray:
    return np.array([complex(re, im) for re, im in doc["entries"]], dtype=np.complex128)


def _strength_reference(A: np.ndarray, v: np.ndarray) -> float:
    """1 / sum |c_i|^2 / lambda_i in the eigenbasis of a full-rank A."""
    w, V = np.linalg.eigh(A)
    c = V.conj().T @ (v / np.linalg.norm(v))
    return float(1.0 / np.sum(np.abs(c) ** 2 / w))


def _apply_reference(map_doc: dict, A: np.ndarray) -> np.ndarray:
    """U f_p(K(A)) U* with f_p(x) = x / (x p + 1 - p)."""
    U = _matrix(map_doc["U"])
    p = float(map_doc["p"])
    K = np.conj(A) if map_doc["conjugate"] else A
    w, V = np.linalg.eigh(K)
    fw = w / (w * p + (1.0 - p))
    return U @ ((V * fw) @ V.conj().T) @ U.conj().T


def check_cli(request: dict, rc: int, stdout: str) -> str | None:
    """Return None when the request's exit code and output are right, else why not."""
    if rc != request["rc"]:
        return f"exit code {rc}, expected {request['rc']}"
    kind = request["kind"]
    if kind.startswith("malformed:"):
        return None if stdout == "" else "malformed request printed a result"
    try:
        out = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"output is not JSON: {exc}"
    if kind in ("strength", "strength-oracle"):
        ref = _strength_reference(_matrix(_load(request["effect"])), _vector(_load(request["ray"])))
        if out.get("in_range") is not True or abs(out["value"] - ref) > STRENGTH_TOL:
            return f"strength {out.get('value')!r}, reference {ref!r}"
        if kind == "strength-oracle":
            if "oracle" not in out or abs(out["oracle"] - ref) > ORACLE_TOL:
                return f"oracle {out.get('oracle')!r}, reference {ref!r}"
        elif "oracle" in out:
            return "oracle value printed without --oracle"
        return None
    map_doc = _load(request["map"])
    if kind == "apply":
        ref = _apply_reference(map_doc, _matrix(_load(request["effect"])))
        got = _matrix(out)
        if got.shape != ref.shape or float(np.max(np.abs(got - ref))) > APPLY_TOL:
            return "apply image differs from U f_p(K(A)) U*"
        return None
    if kind == "fit":
        p = float(map_doc["p"])
        if not math.isfinite(out.get("p", math.nan)) or abs(out["p"] - p) > FIT_TOL * max(1.0, abs(p)):
            return f"fitted p {out.get('p')!r}, map p {p!r}"
        return None
    return f"unknown request kind {kind!r}"


def _entry_p(name: str) -> float | None:
    """The p of an entry name such as 'order[n=2,p=-1e+06,conj=0]'."""
    if "[" not in name:
        return None
    for part in name[name.find("[") + 1 : -1].split(","):
        key, _, value = part.partition("=")
        if key == "p":
            return float(value)
    return None


def is_known_defect(name: str, known: list[dict]) -> bool:
    base = name.split("[", 1)[0]
    p = _entry_p(name)
    return any(base == k["suite"] and p is not None and p == k["p"] for k in known)


def flag_value(argv: list[str], flag: str) -> str:
    """Value of ``--flag VALUE`` or ``--flag=VALUE`` in an argument vector."""
    for i, arg in enumerate(argv):
        if arg == flag:
            return argv[i + 1]
        if arg.startswith(flag + "="):
            return arg.split("=", 1)[1]
    raise KeyError(flag)


def expected_entry_count(argv: list[str]) -> int:
    """Entries of a verify report: the dims x p suites run both conjugation
    flags, coexist and strength-oracle run once per dimension, pexider once."""
    dims = len(flag_value(argv, "--dims").split(","))
    ps = len(flag_value(argv, "--p").split(","))
    per_suite = {s: dims * ps * 2 for s in AUTO_SUITES}
    per_suite.update({"coexist": dims, "strength-oracle": dims, "pexider": 1})
    suite = flag_value(argv, "--suite")
    return sum(per_suite.values()) if suite == "all" else per_suite[suite]


def check_verify(argv: list[str], rc: int, stdout: str, known: list[dict]) -> tuple[list[str], list[str]]:
    """Check one verify report.

    Returns the names of entries whose check failed (wrong trial count, or
    unsatisfied outside the known defects) and the names of unsatisfied
    known-defect entries.
    """
    trials = int(flag_value(argv, "--trials"))
    expected = expected_entry_count(argv)
    try:
        report = json.loads(stdout)
        entries = report["suites"]
    except (json.JSONDecodeError, KeyError, TypeError):
        return ["<unparsable report>"] * expected, []
    failed, known_hits = [], []
    if len(entries) != expected:
        failed.append(f"<{len(entries)} entries, expected {expected}>")
    overall = all(e.get("satisfied") is True for e in entries)
    if rc != (0 if overall else 1) or report.get("overall") != ("pass" if overall else "fail"):
        failed.append(f"<exit code {rc} disagrees with the report>")
    for e in entries:
        name = e.get("suite", "<unnamed>")
        if e.get("trials") != trials:
            failed.append(name)
        elif e.get("satisfied") is not True:
            (known_hits if is_known_defect(name, known) else failed).append(name)
    return failed, known_hits
