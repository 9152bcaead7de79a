"""Spans and counts around the public functions of each masspoly module.

``Tracer.install()`` replaces every binding of a traced function, in every
loaded ``masspoly`` module, with a wrapper that records a span (layer name,
start, end, parent span, job id) and the layer's counts.  Nothing under
``src/`` is edited; ``uninstall()`` puts the original objects back.  Spans
stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter


def _cells(out):
    return {"cells": out.size}


def _bytes(out):
    return {"bytes": out.nbytes}


# module -> {attribute (``Class.method`` for methods): (layer, counter or None)}
TRACED = {
    "masspoly._kernels": {
        "recurrence_table": ("kernels.recurrence_table", _cells),
    },
    "masspoly.opoly": {
        "recurrence_for": ("opoly.recurrence", None),
        "classical_recurrence": ("opoly.recurrence", None),
        "stieltjes_recurrence": ("opoly.recurrence", None),
        "genjacobi_discretization": ("opoly.recurrence", None),
        "_stieltjes": ("opoly.recurrence", None),
        "_stieltjes_mp": ("opoly.recurrence_mp", None),
        "add_mass_points": ("opoly.mass_update", None),
        "gauss_points": ("opoly.gauss_points", None),
        "basis_for": ("opoly.basis", None),
        "OrthoBasis.eval_all": ("opoly.eval_all", _cells),
        "kernel_decomposition": ("opoly.kernel_decomposition", None),
    },
    "masspoly.norms": {
        "make_grid": ("norms.make_grid", None),
        "partial_sum_matrix": ("norms.operator_matrix", _bytes),
        "commutator_matrix": ("norms.operator_matrix", _bytes),
        "_weighted_matrix": ("norms.operator_matrix", _bytes),
        "operator_norm_probe": ("norms.operator_norm", None),
        "strong_probe": ("norms.probe", None),
        "commutator_probe": ("norms.probe", None),
        "maximal_probe": ("norms.probe", None),
        "weak_type_probe": ("norms.probe", None),
        "lorentz_norm": ("norms.lorentz", None),
    },
    "masspoly.transforms": {
        "hilbert_transform": ("transforms.hilbert", None),
        "pollard_parts": ("transforms.pollard", None),
        "fit_pollard_coefficients": ("transforms.pollard", None),
        "commutator_psi_parts": ("transforms.pollard", None),
        "laguerre_mass_table": ("transforms.laguerre", None),
        "laguerre_mass_kernel": ("transforms.laguerre", None),
        "laguerre_q_values": ("transforms.laguerre", None),
        "laguerre_q_at_zero": ("transforms.laguerre", None),
    },
    "masspoly.cli": {
        "main": ("cli.main", None),
    },
}

# Quadrature rules built inside a recurrence span count as opoly.recurrence.quad_rules.
QUAD_RULES = (("scipy.special", "roots_jacobi"), ("numpy.polynomial.legendre", "leggauss"))


class Tracer:
    def __init__(self):
        self.spans = []  # [layer, start, end, parent index or -1, job id]
        self.counts = defaultdict(Counter)  # job id -> Counter
        self.job = None  # spans are recorded only while a job id is set
        self._stack = []
        self._restore = []

    # -- recording ----------------------------------------------------

    def _current_layer(self):
        return self.spans[self._stack[-1]][0] if self._stack else None

    def span(self, layer, fn, counter=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            job = tracer.job
            if job is None:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else -1
            if tracer._current_layer() != layer:
                tracer.counts[job][layer + ".calls"] += 1
            idx = len(tracer.spans)
            tracer.spans.append([layer, perf_counter(), 0.0, parent, job])
            tracer._stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._stack.pop()
                tracer.spans[idx][2] = perf_counter()
            if counter is not None:
                for key, value in counter(out).items():
                    tracer.counts[job][f"{layer}.{key}"] += value
            return out

        return traced

    def _quad_counter(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer.job is not None and tracer._current_layer() == "opoly.recurrence":
                tracer.counts[tracer.job]["opoly.recurrence.quad_rules"] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation -------------------------------------------------

    def _replace(self, owner, name, new):
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, new)

    def install(self):
        """Wrap every traced function at every binding in the loaded masspoly modules."""
        modules = [m for n, m in sys.modules.items() if n == "masspoly" or n.startswith("masspoly.")]
        for mod_name, attrs in TRACED.items():
            mod = sys.modules[mod_name]
            for attr, (layer, counter) in attrs.items():
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    self._replace(cls, meth, self.span(layer, vars(cls)[meth], counter))
                    continue
                original = getattr(mod, attr)
                wrapper = self.span(layer, original, counter)
                for m in modules:
                    for name, value in list(vars(m).items()):
                        if value is original:
                            self._replace(m, name, wrapper)
        for mod_name, attr in QUAD_RULES:
            mod = sys.modules[mod_name]
            self._replace(mod, attr, self._quad_counter(getattr(mod, attr)))

    def uninstall(self):
        while self._restore:
            owner, name, value = self._restore.pop()
            setattr(owner, name, value)

    # -- merging spans from another process -----------------------------

    def to_dict(self):
        return {"spans": self.spans, "counts": {j: dict(c) for j, c in self.counts.items()}}

    def merge(self, data, job):
        """Add spans and counts recorded elsewhere, under this tracer's job id."""
        base = len(self.spans)
        for layer, start, end, parent, _ in data["spans"]:
            self.spans.append([layer, start, end, parent + base if parent >= 0 else -1, job])
        for counts in data["counts"].values():
            self.counts[job].update(counts)


def layer_totals(tracer, jobs):
    """Self time per layer (span duration minus its child spans) and counts over some jobs."""
    jobs = set(jobs)
    child = defaultdict(float)
    for layer, start, end, parent, job in tracer.spans:
        if job in jobs and parent >= 0:
            child[parent] += end - start
    self_s = Counter()
    for i, (layer, start, end, parent, job) in enumerate(tracer.spans):
        if job in jobs:
            self_s[layer] += end - start - child[i]
    counts = Counter()
    for job in jobs:
        counts.update(tracer.counts.get(job, {}))
    return self_s, counts
