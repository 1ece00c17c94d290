"""Seeded inputs for the benchmark workloads.

Everything here is plain NumPy and JSON: the program under test only ever
sees the argument vectors and documents produced by these functions.  The
same seed always gives the same inputs.
"""

from __future__ import annotations

import json
import os

import numpy as np

# Each verify workload runs the nine suites of ``verify --suite all`` as one
# request per (suite, n, p), the CLI's own unit of work.  Trial counts are
# set so that a pass takes under a second: a request then takes a few to a
# hundred milliseconds and repeats thirty to fifty times in a run, which is
# what makes its fastest repeat a steady figure on a shared host.
AUTO_SUITES = ("order", "zero-product", "ortho", "sequential", "transition", "scalar-pair")
OTHER_SUITES = ("coexist", "strength-oracle", "pexider")
# verify-small: tiny LAPACK calls, so it is bound by per-call Python
# overhead.  The wide p list covers the whole range p < 1 that the suites
# must hold for; p = -1e6, 1e-8 and 0.999999 hit known defects.
# verify-large: n = 64, bound by eigh/qr work and by serializing large reports.
VERIFY = {
    "verify-small": {"dims": ("2", "3"), "p": ("-1e6", "0", "1e-8", "0.5", "0.999999"), "trials": "10"},
    "verify-large": {"dims": ("64",), "p": ("0", "0.5"), "trials": "4"},
}
# Fixed report that the golden gate hashes; seed fixed too.
GOLDEN_ARGV = ("verify", "--suite", "all", "--dims", "2,3", "--p", "0,0.5", "--trials", "50", "--seed", "1")

# cli-docs: the request mix of one pass, (kind, n, count).  The composition
# is fixed and only the documents and the order of the requests come from
# the seed, so latency percentiles compare across seeds.  It is chosen so
# that each percentile falls inside a group of like requests, not on the
# edge between two groups of different cost: the median among the small
# documents (n = 2, 3), where argparse dominates, and the 90th percentile
# among the n = 32 oracle requests, where bisection and document parsing
# dominate.  108 requests leave eleven beyond the 90th percentile.
CLI_MIX = (
    ("strength", 2, 14), ("strength", 3, 14), ("strength", 8, 8), ("strength", 32, 6),
    ("strength-oracle", 2, 2), ("strength-oracle", 3, 2), ("strength-oracle", 8, 2), ("strength-oracle", 32, 12),
    ("apply", 2, 12), ("apply", 3, 12), ("apply", 8, 6), ("apply", 32, 3),
    ("fit", 2, 2), ("fit", 3, 2), ("fit", 8, 2), ("fit", 32, 2),
)
FIT_GRID = 25
MALFORMED_N = 3
# Each malformed kind appears once per pass and must exit 2.
MALFORMED_KINDS = (
    "not-json",
    "ragged-rows",
    "non-hermitian",
    "spectrum",
    "non-unitary",
    "dim-mismatch",
    "bad-flag",
)


def verify_requests(workload: str, seed: int) -> list[dict]:
    """The requests of one verify pass; together they run every entry of
    ``verify --suite all`` over the workload's dims and p values."""
    cfg = VERIFY[workload]
    tail = ["--trials", cfg["trials"], "--seed", str(seed)]
    requests = []
    for suite in AUTO_SUITES + OTHER_SUITES:
        dims = cfg["dims"] if suite != "pexider" else cfg["dims"][:1]
        for n in dims:
            ps = cfg["p"] if suite in AUTO_SUITES else ("0",)
            for p in ps:
                argv = ["verify", "--suite", suite, "--dims", n, f"--p={p}", *tail]
                requests.append({"kind": "verify", "n": int(n), "argv": argv})
    return requests


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar unitary by QR of a complex Gaussian with the phase fix of
    Mezzadri (Notices AMS 54, 2007)."""
    Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q, R = np.linalg.qr(Z)
    d = np.diagonal(R)
    return Q * (d / np.abs(d))


def effect_matrix(n: int, rng: np.random.Generator) -> np.ndarray:
    """Exactly Hermitian effect with spectrum inside [0.05, 0.95].

    Keeping the spectrum away from 0 and 1 keeps every eigenvalue well
    above the rank cutoff, so the strength reference is well conditioned.
    """
    V = haar_unitary(n, rng)
    w = rng.uniform(0.05, 0.95, n)
    M = (V * w) @ V.conj().T
    return 0.5 * (M + M.conj().T)


def matrix_doc(M: np.ndarray) -> dict:
    return {"n": int(M.shape[0]), "rows": [[[float(z.real), float(z.imag)] for z in row] for row in M]}


def vector_doc(v: np.ndarray) -> dict:
    return {"n": int(v.shape[0]), "entries": [[float(z.real), float(z.imag)] for z in v]}


def map_doc(U: np.ndarray, conjugate: bool, p: float) -> dict:
    return {"U": matrix_doc(U), "conjugate": conjugate, "p": p}


class _Writer:
    def __init__(self, directory: str) -> None:
        self.directory = directory
        self.count = 0

    def write(self, doc, raw: str | None = None) -> str:
        path = os.path.join(self.directory, f"doc{self.count:04d}.json")
        self.count += 1
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(raw if raw is not None else json.dumps(doc))
        return path


def _valid_request(kind: str, n: int, rng: np.random.Generator, out: _Writer) -> dict:
    if kind in ("strength", "strength-oracle"):
        effect = out.write(matrix_doc(effect_matrix(n, rng)))
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        ray = out.write(vector_doc(v))
        argv = ["strength", "--effect", effect, "--ray", ray]
        if kind == "strength-oracle":
            argv.append("--oracle")
        return {"kind": kind, "n": n, "argv": argv, "rc": 0, "effect": effect, "ray": ray}
    conjugate = bool(rng.integers(0, 2))
    p = float(rng.uniform(-1.5, 0.8))
    map_path = out.write(map_doc(haar_unitary(n, rng), conjugate, p))
    if kind == "apply":
        effect = out.write(matrix_doc(effect_matrix(n, rng)))
        argv = ["apply", "--map", map_path, "--effect", effect]
        return {"kind": kind, "n": n, "argv": argv, "rc": 0, "map": map_path, "effect": effect}
    argv = ["fit", "--map", map_path, "--grid", str(FIT_GRID)]
    return {"kind": kind, "n": n, "argv": argv, "rc": 0, "map": map_path}


def _malformed_request(kind: str, n: int, rng: np.random.Generator, out: _Writer) -> dict:
    M = effect_matrix(n, rng)
    if kind == "not-json":
        raw = json.dumps(matrix_doc(M))
        effect = out.write(None, raw[: len(raw) // 2])
        ray = out.write(vector_doc(np.ones(n, dtype=complex)))
        argv = ["strength", "--effect", effect, "--ray", ray]
    elif kind == "ragged-rows":
        doc = matrix_doc(M)
        doc["rows"][-1].pop()
        map_path = out.write(map_doc(haar_unitary(n, rng), False, 0.25))
        argv = ["apply", "--map", map_path, "--effect", out.write(doc)]
    elif kind == "non-hermitian":
        M[0, -1] += 0.1
        ray = out.write(vector_doc(np.ones(n, dtype=complex)))
        argv = ["strength", "--effect", out.write(matrix_doc(M)), "--ray", ray]
    elif kind == "spectrum":
        map_path = out.write(map_doc(haar_unitary(n, rng), True, -0.5))
        argv = ["apply", "--map", map_path, "--effect", out.write(matrix_doc(M * 1.5 / np.linalg.eigvalsh(M)[-1]))]
    elif kind == "non-unitary":
        map_path = out.write(map_doc(1.1 * haar_unitary(n, rng), False, 0.5))
        argv = ["fit", "--map", map_path, "--grid", str(FIT_GRID)]
    elif kind == "dim-mismatch":
        ray = out.write(vector_doc(np.ones(n + 1, dtype=complex)))
        argv = ["strength", "--effect", out.write(matrix_doc(M)), "--ray", ray]
    elif kind == "bad-flag":
        map_path = out.write(map_doc(haar_unitary(n, rng), False, 0.5))
        argv = ["fit", "--map", map_path, "--grid", "twenty"]
    else:
        raise ValueError(f"unknown malformed kind {kind!r}")
    return {"kind": "malformed:" + kind, "n": n, "argv": argv, "rc": 2}


def cli_requests(seed: int, directory: str) -> list[dict]:
    """Write the documents of one cli-docs pass and return its requests.

    Each request is a dict with the argv for ``effectkit.cli.main``, the
    expected exit code, and the document paths the output check needs.
    """
    rng = np.random.default_rng([seed, 0x0C11])
    out = _Writer(directory)
    requests = []
    for kind, n, count in CLI_MIX:
        for _ in range(count):
            requests.append(_valid_request(kind, n, rng, out))
    for kind in MALFORMED_KINDS:
        requests.append(_malformed_request(kind, MALFORMED_N, rng, out))
    order = rng.permutation(len(requests))
    return [requests[i] for i in order]
