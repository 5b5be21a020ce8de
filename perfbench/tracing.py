"""Spans at the public-function boundary of each fblfas module.

Tracer.active() wraps the functions in TRACED and rebinds every name that
refers to them in the package's modules, because internal calls resolve
through `from .x import y` bindings (cli.statistical_bler, metrics.pdf_gfas
and so on). Spans (name, start, end, parent, run id) are kept in memory and
written once by write_spans(). A span's self time is its duration minus the
time its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import inspect
import math
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

TRACED = (
    "cli.main",
    "metrics.statistical_bler",
    "metrics.outage_probability",
    "metrics.mrc_conditional_bler",
    "metrics.mrc_outage",
    "quadrature.integrate_adaptive",
    "quadrature.gauss_laguerre",
    "fas_stats.pdf_gfas",
    "fas_stats.cdf_gfas",
    "fas_stats.quantile",
    "specfun.Ncx2Family.__init__",
    "specfun.Ncx2Family.tails",
    "specfun.Ncx2Family.pdf",
    "channel.build_correlation",
    "channel.fit_block_model",
    "channel.eigen_factor",
    "montecarlo.empirical_outage",
    "montecarlo.empirical_gain_cdf",
    "montecarlo.empirical_statistical_bler",
    "parallel.run_chunks",
)
# Integrands handed to quadrature and chunk tasks handed to parallel run
# inside the receiver's span. Each call gets a span named after the module
# that defined the callable, so that work is not the receiver's self time.
CALLBACKS = ("metrics.callback", "montecarlo.callback")
COUNTERS = {
    "metrics.statistical_bler.nonconverged": "count",
    "quadrature.integrate_adaptive.evals": "count",
    "specfun.tails.computed_bytes": "bytes",
    "channel.matrix.computed_bytes": "bytes",
    "montecarlo.draws": "count",
    "montecarlo.computed_flops": "flop",
    "parallel.chunks": "count",
}
PER_LAYER = {}
for _span in TRACED + CALLBACKS:
    PER_LAYER.update({f"{_span}.calls": "count", f"{_span}.s": "s", f"{_span}.self_s": "s"})
PER_LAYER.update(COUNTERS)
PER_LAYER.update({"process.cpu_s": "s", "process.wall_s": "s", "trace.overhead_frac": "ratio"})


def _poisson_table_columns(lams):
    # Columns of Ncx2Family's dense Poisson table: the window edge
    # mean + 9.5 sqrt(mean + 1) + 26 at the largest mean lam / 2, plus one.
    mean = 0.5 * float(np.max(lams))
    return int(math.ceil(mean + 9.5 * math.sqrt(mean + 1.0) + 26)) + 1


class Tracer:
    """Records spans and counters while active(); aggregates them per name."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, run id)
        self.counts = Counter()
        self._stack = []
        self._run_id = 0
        self._restore = []
        self._hooks = {
            "quadrature.integrate_adaptive": self._on_integrate,
            "parallel.run_chunks": self._on_run_chunks,
            "montecarlo.empirical_outage": self._on_draws,
            "montecarlo.empirical_gain_cdf": self._on_draws,
            "montecarlo.empirical_statistical_bler": self._on_draws,
            "channel.build_correlation": self._on_correlation,
            "specfun.Ncx2Family.tails": self._on_tails,
        }

    # -- span recording ----------------------------------------------------

    def _wrap(self, name, fn, hook=None):
        spans, stack = self.spans, self._stack
        signature = inspect.signature(fn) if hook else None

        def traced(*args, **kwargs):
            if hook:
                bound = signature.bind(*args, **kwargs)
                hook(bound.arguments)
                args, kwargs = bound.args, bound.kwargs
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, stack[-1] if stack else -1, self._run_id)

        return functools.update_wrapper(traced, fn)

    def _callback(self, fn, receiver, count_evals=False):
        owner = getattr(fn, "__module__", "").rpartition(".")[2]
        if owner == receiver:  # e.g. quadrature's own change of variables
            return fn
        traced = self._wrap(f"{owner}.callback", fn)
        if not count_evals:
            return traced
        counts = self.counts

        def counted(x, *args, **kwargs):
            out = traced(x, *args, **kwargs)
            counts["quadrature.integrate_adaptive.evals"] += int(np.size(x))
            return out

        return counted

    # -- counters taken from call arguments ----------------------------------

    def _on_integrate(self, arguments):
        arguments["f"] = self._callback(arguments["f"], "quadrature", count_evals=True)

    def _on_run_chunks(self, arguments):
        arguments["task"] = self._callback(arguments["task"], "parallel")
        chunk_sizes = sys.modules["fblfas.parallel"].chunk_sizes
        self.counts["parallel.chunks"] += len(chunk_sizes(arguments["total"]))

    def _on_draws(self, arguments):
        ports = arguments["config"].ports if "config" in arguments else arguments["ports"]
        samples = int(arguments["samples"])
        self.counts["montecarlo.draws"] += samples
        self.counts["montecarlo.computed_flops"] += samples * int(ports) ** 2 * 8

    def _on_correlation(self, arguments):
        self.counts["channel.matrix.computed_bytes"] += int(arguments["ports"]) ** 2 * 8

    def _on_tails(self, arguments):
        lams = arguments["self"].lams
        self.counts["specfun.tails.computed_bytes"] += (
            len(lams) * _poisson_table_columns(lams) * 8)

    # -- installing the wrappers ---------------------------------------------

    def _set(self, owner, key, value):
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def _install(self):
        package = [m for n, m in sys.modules.items() if n == "fblfas" or n.startswith("fblfas.")]
        for dotted in TRACED:
            module_name, _, attr = dotted.partition(".")
            owner = sys.modules[f"fblfas.{module_name}"]
            hook = self._hooks.get(dotted)
            if "." in attr:
                class_name, method = attr.split(".")
                cls = getattr(owner, class_name)
                self._set(cls, method, self._wrap(dotted, cls.__dict__[method], hook))
                continue
            original = getattr(owner, attr)
            traced = self._wrap(dotted, original, hook)
            for module in package:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, traced)

    def _uninstall(self):
        while self._restore:
            owner, key, value = self._restore.pop()
            setattr(owner, key, value)

    @contextlib.contextmanager
    def active(self, run_id):
        """Traced functions record spans under run_id while the block runs."""
        self._run_id = run_id
        self._install()
        try:
            yield
        finally:
            self._uninstall()

    # -- results -------------------------------------------------------------

    def per_name(self):
        """{span name: (calls, seconds, self seconds)} over all spans."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        totals = defaultdict(lambda: [0, 0.0, 0.0])
        for k, (name, start, end, _, _) in enumerate(self.spans):
            entry = totals[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - covered[k]
        return {name: tuple(v) for name, v in totals.items()}

    def write_spans(self, path):
        """Write every span as a gzip CSV: name,start,end,parent,run."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name,start,end,parent,run\n")
            for name, start, end, parent, run in self.spans:
                fh.write(f"{name},{start:.9f},{end:.9f},{parent},{run}\n")
