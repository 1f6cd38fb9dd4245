"""Spans and counts for the spar modules, recorded from outside the package.

Tracer.install() rebinds every public function and every public method
of a class defined in a spar module, in every spar namespace that holds
it, to a wrapper that records one span (name, start, end, parent) per
call.  A few wrappers also read counts off the call's arguments, result
or exception.  src/spar itself is not modified; uninstall() restores the
original bindings.

Layers are the spar modules.  A span's self time is its duration minus
the durations of its child spans; a module's self time is the sum of
the self times of its spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from collections import Counter, defaultdict

import numpy as np

MODULES = ("api", "cli", "data", "ensemble", "families", "projection", "rng",
           "screening", "selection")


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def _glm_fit(tr, parent, args, kwargs, out, exc):
    tr.counts["families.glm_fits"] += 1
    if out is not None:
        tr.counts["families.irls_iterations"] += int(out.iterations)
    # fit_models answers a singular eps=0 solve by refitting with eps>0
    if (type(exc).__name__ == "SingularError" and parent == "ensemble.fit_models"
            and _arg(args, kwargs, 3, "epsilon", 0.0) == 0):
        tr.counts["families.singular_retries"] += 1


def _make_projection(tr, parent, args, kwargs, out, exc):
    if out is not None and out.kind == "cw":
        tr.counts["projection.cw_empty_rows"] += int(out.m - np.unique(out.rows).size)


def _gen_haar(tr, parent, args, kwargs, out, exc):
    if parent == "projection.gen_haar_select":
        tr.counts["projection.haar_candidates"] += 1


def _fit_models(tr, parent, args, kwargs, out, exc):
    if out is not None:
        tr.counts["ensemble.models_fitted"] += len(out)
        tr.counts["ensemble.models_failed"] += sum(m.failed for m in out)
        tr.counts["ensemble.models_nonconverged"] += sum(
            not m.converged and not m.failed for m in out)
    if parent == "selection.cross_validate":
        tr.counts["selection.folds_used"] += 1


def _eval_measure(tr, parent, args, kwargs, out, exc):
    if parent.startswith("selection."):
        tr.counts["selection.grid_cells_scored"] += 1


HOOKS = {
    "families.fit_penalized_glm": _glm_fit,
    "projection.make_projection": _make_projection,
    "projection.gen_haar": _gen_haar,
    "ensemble.fit_models": _fit_models,
    "ensemble.eval_measure": _eval_measure,
}


class Tracer:
    """Records spans [name, start, end, parent index] and named counts."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._local = threading.local()
        self._undo = []

    def _stack(self):
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = self._stack()
            parent = st[-1] if st else -1
            rec = [name, 0.0, 0.0, parent]
            st.append(len(spans))
            spans.append(rec)
            out = exc = None
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            except BaseException as e:
                exc = e
                raise
            finally:
                rec[2] = time.perf_counter()
                st.pop()
                if hook is not None:
                    hook(self, spans[parent][0] if parent >= 0 else "", args, kwargs, out, exc)

        return wrapper

    def install(self):
        spar = importlib.import_module("spar")
        mods = {short: importlib.import_module(f"spar.{short}") for short in MODULES}
        wrapped = {}
        for short, mod in mods.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[obj] = self._wrap(f"{short}.{name}", obj)
                elif inspect.isclass(obj):
                    for mname, fn in list(vars(obj).items()):
                        if not mname.startswith("_") and inspect.isfunction(fn):
                            self._rebind(obj, mname, fn, self._wrap(f"{short}.{name}.{mname}", fn))
        for ns in (spar, *mods.values()):
            for name, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._rebind(ns, name, obj, wrapped[obj])

    def _rebind(self, owner, name, original, replacement):
        setattr(owner, name, replacement)
        self._undo.append((owner, name, original))

    def uninstall(self):
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # ---- derived numbers ----

    def by_name(self):
        """name -> {"calls", "total_s", "self_s"}."""
        child = np.zeros(len(self.spans))
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        table = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i, (name, start, end, _) in enumerate(self.spans):
            row = table[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[i]
        return dict(table)

    def layer_metrics(self):
        """Per-function and per-module metrics plus the hook counts."""
        table = self.by_name()
        out = {}
        module_self = defaultdict(float)
        for name, row in table.items():
            module_self[name.split(".")[0]] += row["self_s"]
        for short in MODULES:
            out[f"{short}.self_s"] = module_self.get(short, 0.0)

        def fn(metric, name, field):
            out[metric] = table.get(name, {}).get(field, 0)

        fn("ensemble.standardize_s", "ensemble.standardize", "total_s")
        fn("ensemble.standardize_calls", "ensemble.standardize", "calls")
        fn("ensemble.fit_models_self_s", "ensemble.fit_models", "self_s")
        fn("ensemble.fit_models_calls", "ensemble.fit_models", "calls")
        fn("ensemble.build_nu_grid_s", "ensemble.build_nu_grid", "total_s")
        fn("ensemble.averaged_coef_s", "ensemble.averaged_coef", "total_s")
        fn("ensemble.averaged_coef_calls", "ensemble.averaged_coef", "calls")
        fn("ensemble.predict_glm_s", "ensemble.predict_glm", "total_s")
        fn("ensemble.predict_glm_calls", "ensemble.predict_glm", "calls")
        fn("ensemble.eval_measure_s", "ensemble.eval_measure", "total_s")
        fn("screening.select_screened_s", "screening.select_screened", "total_s")
        fn("screening.select_screened_calls", "screening.select_screened", "calls")
        fn("screening.compute_screening_s", "screening.compute_screening", "total_s")
        fn("screening.compute_screening_calls", "screening.compute_screening", "calls")
        fn("families.glm_fit_s", "families.fit_penalized_glm", "total_s")
        fn("projection.make_projection_s", "projection.make_projection", "total_s")
        fn("projection.make_projection_calls", "projection.make_projection", "calls")
        fn("projection.matmul_s", "projection.ProjectionMatrix.matmul", "total_s")
        fn("projection.matmul_calls", "projection.ProjectionMatrix.matmul", "calls")
        fn("selection.evaluate_validation_grid_self_s", "selection.evaluate_validation_grid", "self_s")
        fn("selection.cross_validate_self_s", "selection.cross_validate", "self_s")
        fn("data.save_model_s", "data.save_model", "total_s")
        fn("data.load_model_s", "data.load_model", "total_s")
        fn("data.load_csv_s", "data.load_csv", "total_s")
        fn("data.load_csv_calls", "data.load_csv", "calls")
        for key in ("families.glm_fits", "families.irls_iterations", "families.singular_retries",
                    "projection.cw_empty_rows", "projection.haar_candidates",
                    "ensemble.models_fitted", "ensemble.models_failed",
                    "ensemble.models_nonconverged", "selection.grid_cells_scored",
                    "selection.folds_used"):
            out[key] = int(self.counts.get(key, 0))
        kept = out["ensemble.models_fitted"] - out["ensemble.models_failed"]
        out["families.useful_fit_ratio"] = kept / max(out["families.glm_fits"], 1)
        return out

    def span_dump(self):
        """Compact spans: a name table plus [name id, start, end, parent] rows."""
        names = sorted({s[0] for s in self.spans})
        ids = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        return {
            "names": names,
            "columns": ["name", "start_s", "end_s", "parent"],
            "rows": [[ids[n], round(s - t0, 7), round(e - t0, 7), p] for n, s, e, p in self.spans],
        }
