"""Outside-in spans around the public callables of each ``sdsbm`` layer.

``Tracer.install`` replaces every binding of the traced callables inside the
package (``log_posterior`` is bound in ``sdsbm.model``, ``sdsbm.em`` and
``sdsbm``; ``fit`` in ``sdsbm.em``, ``sdsbm.evaluation``, ``sdsbm.cli`` and
``sdsbm``) with a wrapper that records a span, and ``uninstall`` restores
them.  Spans stay in memory as (name, start, end, parent, run, info) until the
benchmark writes them out; per-layer figures are derived from them afterwards.
"""
from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from dataclasses import dataclass


def _fit_info(report):
    return {
        "iterations": report.n_iterations,
        "converged": bool(report.converged),
        "aborted_restarts": report.diagnostics["aborted_restarts"],
        "dead_cluster_resets": report.diagnostics["dead_cluster_resets"],
        "seconds_per_iteration": report.diagnostics["seconds_per_iteration"],
    }


#: (span name, defining module, attribute or Class.method, summary of the result)
TARGETS = (
    ("ingest", "sdsbm.ingest", "ingest", None),
    ("data.compressed", "sdsbm.data", "Dataset.compressed", None),
    ("prior.average", "sdsbm.prior", "TemporalCoupling.average", None),
    ("model.log_posterior", "sdsbm.model", "log_posterior", None),
    ("em.fit", "sdsbm.em", "fit", _fit_info),
    ("evaluation.split", "sdsbm.evaluation", "SplitPlan.split", None),
    ("evaluation.score_test_set", "sdsbm.evaluation", "score_test_set", None),
    ("evaluation.metrics", "sdsbm.evaluation", "roc_auc", None),
    ("evaluation.metrics", "sdsbm.evaluation", "average_precision", None),
    ("evaluation.metrics", "sdsbm.evaluation", "coverage_error_normalized", None),
    ("evaluation.metrics", "sdsbm.evaluation", "rmse_aligned", None),
    ("evaluation.cross_validate", "sdsbm.evaluation", "cross_validate", None),
    ("archive.save", "sdsbm.archive", "ModelArchive.save", None),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run: int
    info: dict | None = None

    @property
    def seconds(self):
        return self.end - self.start


class Tracer:
    """Records nested spans; ``run`` tags every span with the current operation."""

    def __init__(self):
        self.spans = []
        self.run = 0
        self._stack = []
        self._restore = []

    def call(self, name, func, *args, summarize=None, **kwargs):
        """Run ``func`` inside a span named ``name``."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = Span(name, 0.0, 0.0, parent, self.run)
        self.spans.append(span)
        self._stack.append(index)
        span.start = time.perf_counter()
        try:
            result = func(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        if summarize is not None:
            span.info = summarize(result)
        return result

    def _wrap(self, name, func, summarize):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            return self.call(name, func, *args, summarize=summarize, **kwargs)
        return traced

    def install(self):
        modules = [module for key, module in list(sys.modules.items())
                   if key == "sdsbm" or key.startswith("sdsbm.")]
        for name, module_name, attribute, summarize in TARGETS:
            owner = importlib.import_module(module_name)
            if "." in attribute:
                class_name, method = attribute.split(".")
                cls = getattr(owner, class_name)
                original = cls.__dict__[method]
                self._restore.append((cls, method, original))
                setattr(cls, method, self._wrap(name, original, summarize))
                continue
            original = getattr(owner, attribute)
            wrapped = self._wrap(name, original, summarize)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapped)

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def records(self):
        """Spans as plain dicts, for writing out."""
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "run": s.run, **({"info": s.info} if s.info else {})}
            for s in self.spans
        ]


def layer_metrics(spans, run, lines=0, archive_bytes=0):
    """Per-layer figures of one traced operation (the spans tagged ``run``).

    ``.s`` is the time inside a callable, counting nested calls of the same
    name once; ``.self_s`` is that time minus the time of its direct children.
    Layers the operation never entered read 0.
    """
    indexed = [(i, s) for i, s in enumerate(spans) if s.run == run]
    child_seconds = {}
    for _, span in indexed:
        if span.parent is not None:
            child_seconds[span.parent] = child_seconds.get(span.parent, 0.0) + span.seconds

    def named(name):
        return [(i, s) for i, s in indexed if s.name == name]

    def inclusive(name):
        return sum(s.seconds for _, s in named(name)
                   if s.parent is None or spans[s.parent].name != name)

    def self_time(name):
        return sum(s.seconds - child_seconds.get(i, 0.0) for i, s in named(name))

    fits = [s.info for _, s in named("em.fit")]
    ingest_s = inclusive("ingest")
    return {
        "ingest.s": ingest_s,
        "ingest.lines_per_s": lines / ingest_s if ingest_s > 0 else 0.0,
        "data.compressed.s": inclusive("data.compressed"),
        "prior.average.calls": len(named("prior.average")),
        "prior.average.s": inclusive("prior.average"),
        "model.log_posterior.calls": len(named("model.log_posterior")),
        "model.log_posterior.s": inclusive("model.log_posterior"),
        "em.fit.calls": len(fits),
        "em.fit.s": inclusive("em.fit"),
        "em.fit.self_s": self_time("em.fit"),
        "em.iterations": sum(f["iterations"] for f in fits),
        "em.s_per_iter": statistics.median(f["seconds_per_iteration"] for f in fits) if fits else 0.0,
        "em.converged": sum(f["converged"] for f in fits),
        "em.aborted_restarts": sum(f["aborted_restarts"] for f in fits),
        "em.dead_cluster_resets": sum(f["dead_cluster_resets"] for f in fits),
        "evaluation.split.s": inclusive("evaluation.split"),
        "evaluation.score_test_set.s": inclusive("evaluation.score_test_set"),
        "evaluation.metrics.s": inclusive("evaluation.metrics"),
        "evaluation.cross_validate.self_s": self_time("evaluation.cross_validate"),
        "archive.save.s": inclusive("archive.save"),
        "archive.bytes": archive_bytes,
        "cli.self_s": self_time("cli"),
    }
