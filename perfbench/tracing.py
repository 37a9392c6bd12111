"""Span tracing around the program's public functions.

Each probe replaces a function in the module that calls it (the name the
caller looks up), records a span with name, start, end and parent, and
reads counts from the returned public object. Spans stay in memory until
the run ends. Only the calling process is traced: work inside worker
processes (``--threads`` > 1) is invisible to these wrappers.
"""

from __future__ import annotations

import functools
import os
import time
import warnings
from collections import Counter, defaultdict


def _probes(modules):
    """(module, attribute, span name, counter) for every traced boundary.

    A counter gets (counts, result, args, kwargs) and adds to ``counts``;
    ``solve_amle``'s warnings are counted by the probe itself.
    """
    cli, estimator, nuisance, catt, learners, drdid = (
        modules[k] for k in ("cli", "estimator", "nuisance", "catt", "learners", "drdid"))

    def rows(c, res, a, kw):
        c["panel.load_rows"] += res.n_units * res.n_periods

    def calls(name):
        def count(c, res, a, kw):
            c[name] += 1
        return count

    def cv_calls(c, res, a, kw):
        # With fixed_l1 the CV entry point only delegates to a single fit.
        if kw.get("fixed_l1") is None:
            c["learners.lasso_cv_calls"] += 1

    def lasso(c, res, a, kw):
        c["learners.lasso_fit_calls"] += 1
        c["learners.lasso_sweeps"] += res.n_sweeps

    def prob(c, res, a, kw):
        c["learners.prob_fit_calls"] += 1
        c["learners.newton_iters"] += res.n_iter

    def abch(c, res, a, kw):
        c["nuisance.rows_dropped"] += res.n_dropped

    def boot(c, res, a, kw):
        c["estimator.replicates"] += res.n_replicates
        c["estimator.replicates_failed"] += res.n_failed

    def written(c, res, a, kw):
        # Every writer the estimate command calls takes the path first.
        c["report.bytes_written"] += os.path.getsize(kw.get("path", a[0]))

    probes = [
        (cli, "load_panel", "panel.load", rows),
        (estimator, "slice_two_period", "panel.slice", calls("panel.slice_calls")),
        (cli, "slice_two_period", "panel.slice", calls("panel.slice_calls")),
        (nuisance, "fit_penalized_ls_cv", "learners.lasso_cv", cv_calls),
        (catt, "fit_penalized_ls_cv", "learners.lasso_cv", cv_calls),
        (learners, "fit_penalized_ls", "learners.lasso_fit", lasso),
        (catt, "fit_penalized_ls", "learners.lasso_fit", lasso),
        (drdid, "fit_penalized_ls", "learners.lasso_fit", lasso),
        (nuisance, "fit_probability", "learners.prob_fit", prob),
        (drdid, "fit_probability", "learners.prob_fit", prob),
        (nuisance, "cross_fit", "learners.cross_fit", calls("learners.cross_fit_calls")),
        (estimator, "estimate_nuisances", "nuisance.estimate", None),
        (estimator, "compute_abch", "nuisance.abch", abch),
        (estimator, "fit_catt", "catt.fit", None),
        (estimator, "predict_catt", "catt.predict", None),
        (estimator, "estimate_sigma2", "amle.sigma2", None),
        (estimator, "build_function_class", "amle.basis", None),
        (estimator, "solve_amle", "amle.solve", None),
        (estimator, "estimate_cell", "estimator.cell", calls("estimator.cells")),
        (estimator, "run_mldid", "estimator.run", None),
        (cli, "run_mldid", "estimator.run", None),
        (cli, "bootstrap_se", "estimator.bootstrap", boot),
        (cli, "estimate_cell_dr", "drdid.cell", None),
        (cli, "blp", "heterogeneity.blp", None),
        (cli, "clan", "heterogeneity.clan", None),
        (cli.cmd_estimate, "callback", "cli.estimate", None),
    ]
    for name in dir(cli):
        if name.startswith("write_") or name == "event_study_svg":
            probes.append((cli, name, "report.write", written))
    return probes


# Layers whose self time is reported, and the counts each op reports.
SPAN_NAMES = (
    "panel.load", "panel.slice", "learners.lasso_cv", "learners.lasso_fit",
    "learners.prob_fit", "learners.cross_fit", "nuisance.estimate",
    "nuisance.abch", "catt.fit", "catt.predict", "amle.sigma2", "amle.basis",
    "amle.solve", "estimator.cell", "estimator.run", "estimator.bootstrap",
    "drdid.cell", "heterogeneity.blp", "heterogeneity.clan", "report.write",
    "cli.estimate",
)
COUNT_NAMES = (
    "panel.load_rows", "panel.slice_calls", "learners.lasso_cv_calls",
    "learners.lasso_fit_calls", "learners.lasso_sweeps",
    "learners.prob_fit_calls", "learners.newton_iters",
    "learners.cross_fit_calls", "nuisance.rows_dropped", "amle.ridge_warnings",
    "estimator.cells", "estimator.replicates", "estimator.replicates_failed",
    "report.bytes_written",
)


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("bytes_written"):
        return "bytes"
    return "count"


class Tracer:
    """Installs the probes for the duration of one traced op."""

    def __init__(self, modules, ill_conditioned):
        self._probes = _probes(modules)
        self._solve_amle = modules["estimator"].solve_amle
        self._ill_conditioned = ill_conditioned
        self.spans: list[tuple[int, str, float, float, int]] = []  # op, name, start, end, parent
        self._stack: list[int] = []
        self._op = -1
        self._counts: Counter = Counter()
        self._first_span = 0
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, original, name, count):
        @functools.wraps(original)
        def probe(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                if original is self._solve_amle:
                    result = self._count_warnings(original, args, kwargs)
                else:
                    result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (self._op, name, start, end, parent)
            if count is not None:
                count(self._counts, result, args, kwargs)
            return result
        return probe

    def _count_warnings(self, original, args, kwargs):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = original(*args, **kwargs)
        for w in caught:
            if issubclass(w.category, self._ill_conditioned):
                self._counts["amle.ridge_warnings"] += 1
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
        return result

    def __enter__(self):
        self._op += 1
        self._counts = Counter()
        self._first_span = len(self.spans)
        for module, attr, name, count in self._probes:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, count))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        return False

    def op_metrics(self) -> dict[str, float]:
        """Self seconds per layer and counts for the op just traced."""
        spans = self.spans[self._first_span:]
        child_time: defaultdict[int, float] = defaultdict(float)
        for _, _, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {f"{name}_s": 0.0 for name in SPAN_NAMES}
        for offset, (_, name, start, end, _) in enumerate(spans):
            out[f"{name}_s"] += (end - start) - child_time[self._first_span + offset]
        for name in COUNT_NAMES:
            out[name] = float(self._counts[name])
        return out
