"""Span tracing around effectkit's public functions, from outside the program.

``Tracer.install()`` replaces every public function of the layer modules
with a wrapper at *every* module attribute bound to it: ``from .effects
import leq`` in ``autos`` makes ``autos.leq`` a second name for
``effects.leq``, and patching only the defining module would miss the calls
made through it.  Each call records a span (name, start, end, parent, run
id) in memory; ``uninstall()`` restores the originals.  A re-entrant call of
a function already open on the stack (``cli.dump_json`` recursing) is not a
new span, so its time stays inside the outermost call.

NumPy's ``linalg.eigh``, ``eigvalsh`` and ``qr`` are wrapped the same way to
count LAPACK calls.  They are foreign spans: they count, but their time is
left inside the effectkit span that made the call.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("numkern", "effects", "fracfun", "sequential", "strength", "coexist", "autos", "cli")
LAPACK = ("eigh", "eigvalsh", "qr")
SUITES = (
    "order",
    "zero-product",
    "ortho",
    "sequential",
    "transition",
    "scalar-pair",
    "coexist",
    "strength-oracle",
    "pexider",
)
REPORT_MARK = "autos.VerificationReport.to_dict"


def public_functions(module) -> dict:
    """Functions a module exports: its ``__all__``, or its non-underscore names."""
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    out = {}
    for name in names:
        obj = getattr(module, name, None)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            out[name] = obj
    return out


class Tracer:
    """In-memory span recorder; one instance per traced process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.foreign: list[bool] = []
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_run = array("i")
        self.marks: dict[int, str] = {}  # span index -> suite name of a report
        self.run_id = 0
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _wrap(self, name: str, fn, foreign: bool = False, mark: bool = False):
        nid = len(self.names)
        self.names.append(name)
        self.foreign.append(foreign)
        stack = self._stack
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end, span_run = self.span_start, self.span_end, self.span_run
        marks = self.marks
        active = [0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if active[0]:
                return fn(*args, **kwargs)
            idx = len(span_name)
            span_name.append(nid)
            span_parent.append(stack[-1])
            span_run.append(self.run_id)
            span_end.append(0.0)
            stack.append(idx)
            active[0] = 1
            span_start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
                if mark:
                    marks[idx] = result.get("suite", "")
                return result
            finally:
                span_end[idx] = perf_counter()
                active[0] = 0
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap every public layer function at every effectkit attribute bound to it."""
        import effectkit.autos

        modules = [m for n, m in sorted(sys.modules.items()) if n == "effectkit" or n.startswith("effectkit.")]
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"effectkit.{layer}"]
            for name, fn in public_functions(module).items():
                wrappers[id(fn)] = self._wrap(f"{layer}.{name}", fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patch(module, attr, wrapper)
        for name in LAPACK:
            self._patch(np.linalg, name, self._wrap(f"lapack.{name}", getattr(np.linalg, name), foreign=True))
        report = effectkit.autos.VerificationReport
        self._patch(report, "to_dict", self._wrap(REPORT_MARK, report.to_dict, mark=True))

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- output ----------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name": np.array(self.span_name, dtype=np.int32),
            "parent": np.array(self.span_parent, dtype=np.int64),
            "start": np.array(self.span_start, dtype=np.float64),
            "end": np.array(self.span_end, dtype=np.float64),
            "run": np.array(self.span_run, dtype=np.int32),
        }

    def save(self, path: str) -> None:
        """Write all spans, one row each, plus the name table."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def metrics(self, passes: int) -> dict:
        """Per-layer figures of one pass: totals over all spans divided by ``passes``."""
        a = self.arrays()
        names, parent, start = a["name"], a["parent"], a["start"]
        dur = a["end"] - start
        foreign = np.array(self.foreign, dtype=bool)
        has_parent = parent >= 0
        counted = has_parent & ~foreign[names]
        child_time = np.zeros(len(names))
        np.add.at(child_time, parent[counted], dur[counted])
        self_time = dur - child_time

        ids = {n: i for i, n in enumerate(self.names)}
        calls = np.bincount(names, minlength=len(self.names)) / passes
        self_by = np.bincount(names, weights=self_time, minlength=len(self.names)) / passes

        def n_calls(name: str) -> float:
            return float(calls[ids[name]]) if name in ids else 0.0

        def self_s(name: str) -> float:
            return float(self_by[ids[name]]) if name in ids else 0.0

        def calls_under(name: str, ancestor: str) -> float:
            """Calls of ``name`` made, at any depth, inside a call of ``ancestor``."""
            if name not in ids or ancestor not in ids:
                return 0.0
            mine = np.flatnonzero(names == ids[name])
            inside = np.zeros(len(mine), dtype=bool)
            cur = parent[mine]
            while (live := cur >= 0).any():
                inside[live] |= names[cur[live]] == ids[ancestor]
                cur[live] = parent[cur[live]]
            return np.count_nonzero(inside) / passes

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        m: dict[str, float] = {}
        for layer in LAYERS:
            mask = np.array([n.startswith(layer + ".") for n in self.names], dtype=bool)
            m[f"{layer}.calls"] = float(calls[mask].sum())
            m[f"{layer}.self_s"] = float(self_by[mask].sum())
        for fn in ("eig_hermitian", "psd_leq", "require_hermitian", "hermitize", "haar_unitary"):
            m[f"numkern.{fn}.calls"] = n_calls(f"numkern.{fn}")
        for fn in ("eig_hermitian", "psd_leq", "haar_unitary"):
            m[f"numkern.{fn}.self_s"] = self_s(f"numkern.{fn}")
        m["numkern.require_hermitian.per_effect"] = ratio(
            n_calls("numkern.require_hermitian"), n_calls("effects.make_effect")
        )
        for fn in ("make_effect", "sample_effect", "leq", "zero_product"):
            m[f"effects.{fn}.calls"] = n_calls(f"effects.{fn}")
            m[f"effects.{fn}.self_s"] = self_s(f"effects.{fn}")
        m["effects.eigh_per_sampled_effect"] = ratio(
            calls_under("lapack.eigh", "effects.sample_effect"), n_calls("effects.sample_effect")
        )
        m["fracfun.fp_apply.calls"] = n_calls("fracfun.fp_apply")
        m["fracfun.fp_apply.self_s"] = self_s("fracfun.fp_apply")
        # Per fit request that got as far as fitting (a malformed map fails before).
        m["fracfun.fit_frac.per_fit_request"] = ratio(
            calls_under("fracfun.fit_frac", "cli.cmd_fit"), calls_under("autos.fit_p", "cli.cmd_fit")
        )
        m["fracfun.verify_pexider.self_s"] = self_s("fracfun.verify_pexider")
        m["sequential.seq_product.calls"] = n_calls("sequential.seq_product")
        m["sequential.seq_product.self_s"] = self_s("sequential.seq_product")
        m["strength.strength_bisect.calls"] = n_calls("strength.strength_bisect")
        m["strength.strength_bisect.self_s"] = self_s("strength.strength_bisect")
        m["strength.psd_leq_per_bisect"] = ratio(
            calls_under("numkern.psd_leq", "strength.strength_bisect"), n_calls("strength.strength_bisect")
        )
        m["strength.strength_closed.calls"] = n_calls("strength.strength_closed")
        m["coexist.coexists_with_all_probe.self_s"] = self_s("coexist.coexists_with_all_probe")
        m["coexist.coexist_rank_one.calls"] = n_calls("coexist.coexist_rank_one")
        m["autos.apply.calls"] = n_calls("autos.apply")
        m["autos.apply.self_s"] = self_s("autos.apply")
        m.update({k: v / passes for k, v in self._suite_seconds(names, parent, start, dur, ids).items()})
        m["cli.build_parser.self_s"] = self_s("cli.build_parser")
        m["cli.doc_to_matrix.self_s"] = self_s("cli.doc_to_matrix")
        m["cli.dump_json.self_s"] = self_s("cli.dump_json")
        for fn in LAPACK:
            m[f"lapack.{fn}.calls"] = n_calls(f"lapack.{fn}")
        return m

    def _suite_seconds(self, names, parent, start, dur, ids) -> dict:
        """Wall time of each suite, summed over its entries.

        ``cmd_verify`` turns each entry's report into a dict right after the
        suite ran, so an entry spans from the previous ``to_dict`` (or the
        start of ``cmd_verify``) to its own ``to_dict``.
        """
        out = {f"suite.{s}.s": 0.0 for s in SUITES}
        verify_id, mark_id = ids.get("cli.cmd_verify"), ids.get(REPORT_MARK)
        if verify_id is None or mark_id is None:
            return out
        cursor = {}
        for k in np.flatnonzero(names == mark_id):
            v = int(parent[k])
            if v < 0 or names[v] != verify_id:
                continue
            key = f"suite.{self.marks.get(int(k), '')}.s"
            if key in out:
                out[key] += start[k] - cursor.get(v, start[v])
            cursor[v] = start[k] + dur[k]
        return out
