"""Layer tracing for the ndga benchmark, installed from outside the package.

A traced run wraps every public module-level function of every ndga
module, plus ``riemann.Metric.__init__``, and patches each binding that an
ndga module holds, so ``from .scalar import normalize``-style imports are
covered too.  Functions carrying an ``lru_cache`` are not wrapped: their
``cache_info()`` counters are read instead.  Untraced runs install nothing.

Every wrapped call is counted.  A call opens a span (name, parent span,
job, start, end) when it crosses a module boundary, or when its layer has
a self-time metric; a call from inside its own module (a helper such as
``scalar.as_expr`` under ``scalar.add``, or recursion) folds into the
enclosing span.  Spans are kept in memory, in flat arrays, and turned into
per-layer metrics when the run ends; self time is a span's duration minus
the durations of its child spans.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array
from typing import Dict, List

import ndga
import ndga.cli

MODULES = [getattr(ndga, name) for name in ndga.__all__] + [ndga.cli]

# (name, unit, better) of every per-layer metric, in report order
LAYER_METRICS = [
    ("scalar.normalize.misses", "count", "lower"),
    ("scalar.normalize.hit_ratio", "ratio", "higher"),
    ("scalar.sort_key.hit_ratio", "ratio", "higher"),
    ("scalar.is_zero.calls", "count", "lower"),
    ("scalar.is_zero.self_s", "s", "lower"),
    ("scalar.is_zero.sampled", "count", "lower"),
    ("scalar.cache_entries", "count", "lower"),
    ("scalar.parse.self_s", "s", "lower"),
    ("scalar.render.self_s", "s", "lower"),
    ("forms.wedge.calls", "count", "lower"),
    ("forms.wedge.self_s", "s", "lower"),
    ("forms.exterior_d.self_s", "s", "lower"),
    ("forms.nabla_apply.out_nodes", "count", "lower"),
    ("riemann.metric_init.self_s", "s", "lower"),
    ("riemann.christoffel.calls", "count", "lower"),
    ("riemann.christoffel.self_s", "s", "lower"),
    ("riemann.riemann_components.calls", "count", "lower"),
    ("riemann.riemann_components.self_s", "s", "lower"),
    ("knflat.successors.calls", "count", "lower"),
    ("knflat.nabla_power_expansion.self_s", "s", "lower"),
    ("knflat.infinitesimal_expansion.self_s", "s", "lower"),
    ("depth.differential.calls", "count", "lower"),
    ("depth.differential.self_s", "s", "lower"),
    ("linalg.rank.calls", "count", "lower"),
    ("linalg.rank.self_s", "s", "lower"),
    ("ncomplex.tensor_complex.self_s", "s", "lower"),
    ("chern_simons.chern_simons_lagrangian.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
]

# layers that always open a span, so their self time is their own
SPANNED = {name.rsplit(".", 1)[0] for name, _, _ in LAYER_METRICS if name.endswith(".self_s")}


def _short(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


def expr_nodes(form) -> int:
    """Expression-tree nodes over every entry of a MatrixForm, counted with
    repetition (the size the trees would have if written out)."""
    from ndga import scalar

    sizes: Dict[int, int] = {}

    def size(e) -> int:
        key = id(e)
        known = sizes.get(key)
        if known is not None:
            return known
        if isinstance(e, (scalar.Sum, scalar.Product)):
            children = e.terms if isinstance(e, scalar.Sum) else e.factors
            n = 1 + sum(size(c) for c in children)
        elif isinstance(e, scalar.Power):
            n = 1 + size(e.base)
        elif isinstance(e, (scalar.Sin, scalar.Cos)):
            n = 1 + size(e.argument)
        else:
            n = 1
        sizes[key] = n
        return n

    return sum(size(e) for _, entries in form.components() for row in entries for e in row)


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self.modules: List[str] = []  # module of each layer name
        self.calls: List[int] = []
        # span i: layer name[i] (index into names), enclosing span parent[i]
        # (-1 at the top of a job), job[i], start[i], end[i]
        self.name = array("i")
        self.parent = array("i")
        self.job_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.excluded: Dict[int, float] = {}  # tracer work inside a span
        self.sampled = set()  # is_zero spans that evaluated sample points
        self.stack: List[int] = []  # indices of open spans
        self.job = -1
        self.out_nodes = 0
        self._patches = []  # (owner, attribute, original)
        self._lru = {}

    # -- installation ------------------------------------------------

    def install(self) -> None:
        from ndga import riemann, scalar

        for module in MODULES:
            for attr, value in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(value)
                        or value.__module__ != module.__name__):
                    continue
                self._replace(value, self._wrap(f"{_short(module)}.{attr}", value))
        init = riemann.Metric.__init__
        self._patches.append((riemann.Metric, "__init__", init))
        riemann.Metric.__init__ = self._wrap("riemann.metric_init", init)
        self._lru = {
            attr: value for attr, value in vars(scalar).items()
            if isinstance(value, functools._lru_cache_wrapper)
        }
        self._lru_start = {attr: f.cache_info() for attr, f in self._lru.items()}

    def _replace(self, original, wrapper) -> None:
        """Rebind every ndga module attribute that holds `original`."""
        for module in MODULES:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        ident = len(self.names)
        module = name.split(".")[0]
        self.names.append(name)
        self.modules.append(module)
        self.calls.append(0)
        always = name in SPANNED
        calls, stack, modules = self.calls, self.stack, self.modules
        names, parents, jobs, starts, ends = self.name, self.parent, self.job_of, self.start, self.end
        clock = time.perf_counter
        count_nodes = name == "forms.nabla_apply"
        marks_sampling = name == "scalar.evaluate"
        is_zero = "scalar.is_zero"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[ident] += 1
            parent = stack[-1] if stack else -1
            if marks_sampling and parent >= 0 and self.names[names[parent]] == is_zero:
                self.sampled.add(parent)
            if parent >= 0 and (names[parent] == ident or (
                    not always and modules[names[parent]] == module)):
                result = fn(*args, **kwargs)
            else:
                index = len(names)
                names.append(ident)
                parents.append(parent)
                jobs.append(self.job)
                ends.append(0.0)
                stack.append(index)
                starts.append(clock())
                try:
                    result = fn(*args, **kwargs)
                finally:
                    ends[index] = clock()
                    stack.pop()
            if count_nodes:
                # counting is tracer work inside the enclosing span
                mark = clock()
                self.out_nodes += expr_nodes(result)
                if stack:
                    self.excluded[stack[-1]] = self.excluded.get(stack[-1], 0.0) + clock() - mark
            return result

        return wrapper

    # -- results -----------------------------------------------------

    def spans(self) -> int:
        return len(self.name)

    def layer_totals(self):
        """{name: (calls, self seconds)} over all spans."""
        self_time = [0.0] * len(self.names)
        names, parents = self.name, self.parent
        for i in range(len(names)):
            duration = self.end[i] - self.start[i]
            self_time[names[i]] += duration - self.excluded.get(i, 0.0)
            if parents[i] >= 0:
                self_time[names[parents[i]]] -= duration
        return {name: (self.calls[i], self_time[i]) for i, name in enumerate(self.names)}

    def metrics(self, overhead: float) -> dict:
        totals = self.layer_totals()
        sampled = len(self.sampled)

        def calls(name):
            return totals[name][0]

        def self_s(name):
            return totals[name][1]

        def ratio(attr):
            start, end = self._lru_start[attr], self._lru[attr].cache_info()
            hits, misses = end.hits - start.hits, end.misses - start.misses
            return hits / (hits + misses) if hits + misses else 0.0

        values = {
            "scalar.normalize.misses": self._lru["normalize"].cache_info().misses
            - self._lru_start["normalize"].misses,
            "scalar.normalize.hit_ratio": ratio("normalize"),
            "scalar.sort_key.hit_ratio": ratio("sort_key"),
            "scalar.is_zero.sampled": sampled,
            "scalar.cache_entries": sum(f.cache_info().currsize for f in self._lru.values()),
            "forms.nabla_apply.out_nodes": self.out_nodes,
            "trace.overhead": overhead,
        }
        for name, unit, _ in LAYER_METRICS:
            if name in values:
                continue
            layer, _, kind = name.rpartition(".")
            values[name] = calls(layer) if kind == "calls" else self_s(layer)
        return values
