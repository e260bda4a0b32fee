"""Spans and counters recorded around the library's public functions.

Only traced runs import this module; an untraced run loads no wrapper.
`Tracer.install` replaces every public module-level function of the
layers below by a wrapper that records a span (name, start, end, parent).
The wrapper is set on every module of the package that holds the
function, so internal calls such as `gaussian_limit`'s call into
`path_sum_matrix` are recorded too. The path queries of `BlockGraph`
are counted, not timed: they run per node pair.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
import tracemalloc
from collections import Counter, defaultdict

LAYERS = ("graph", "model", "dist", "mvn", "sim", "fit", "latent", "io")

# Per-element helpers run once per matrix entry or written number; a span
# each would cost more than the work, and their callers' spans cover them.
UNWRAPPED = {"graph.canonical_edge", "io.fmt17", "mvn.std_normal_cdf"}

PATH_METHODS = ("shortest_path", "path_nodes", "parent_toward")

WRITERS = ("io.write_", "io.dump_")

# Per-layer metrics with their units. A "-computed" unit marks a value
# derived from call arguments or results rather than counted in the code.
PER_LAYER = {
    "graph.build_s": "s",
    "graph.path_calls": "count",
    "model.validate_s": "s",
    "model.path_sums_s": "s",
    "model.path_sum_calls": "count",
    "model.gaussian_limit_self_s": "s",
    "model.precision_s": "s",
    "dist.stdf_calls": "count",
    "dist.self_s": "s",
    "mvn.calls": "count",
    "mvn.busy_s": "s",
    "mvn.points": "count",
    "mvn.points_evaluated": "count-computed",
    "mvn.useful_point_ratio": "ratio-computed",
    "mvn.unconverged": "count",
    "sim.field_s": "s",
    "sim.values_drawn": "count-computed",
    "latent.recover_s": "s",
    "fit.rank_s": "s",
    "fit.spacings_s": "s",
    "fit.fit_s": "s",
    "fit.nnls_s": "s",
    "fit.design_mb": "MB-computed",
    "fit.peak_traced_mb": "MB",
    "io.write_s": "s",
    "io.bytes_written": "bytes",
    "trace.overhead_ratio": "ratio",
    "trace.unaccounted_s": "s",
    "tol_miss_ratio": "ratio",
    "fit_max_rel_err": "ratio",
}


class Tracer:
    """Spans kept in memory as [name, start, end, parent] plus counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        # tracemalloc slows allocation-heavy code, so peak memory is taken
        # in a separate pass from the timed ones
        self.memory = False

    def reset(self):
        self.spans.clear()
        self.counters.clear()
        self._stack.clear()

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    # -- installing and removing the wrappers ---------------------------------

    def install(self):
        modules = [importlib.import_module(f"extreme_blocks.{m}") for m in LAYERS]
        holders = [m for m in list(sys.modules.values())
                   if getattr(m, "__name__", "").split(".")[0] == "extreme_blocks"]
        for layer, mod in zip(LAYERS, modules):
            for attr, fn in list(vars(mod).items()):
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__ or name in UNWRAPPED):
                    continue
                wrapper = self._wrap(name, fn)
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            self._restore.append((holder, key, fn))
                            setattr(holder, key, wrapper)
        graph_cls = importlib.import_module("extreme_blocks.graph").BlockGraph
        for attr in PATH_METHODS:
            fn = graph_cls.__dict__[attr]
            self._restore.append((graph_cls, attr, fn))
            setattr(graph_cls, attr, self._count("graph.path_calls", fn))

    def uninstall(self):
        while self._restore:
            holder, key, fn = self._restore.pop()
            setattr(holder, key, fn)

    def _count(self, counter: str, fn):
        counters = self.counters

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counters[counter] += 1
            return fn(*args, **kwargs)
        return counted

    def _wrap(self, name: str, fn):
        observe = _observe_write if name.startswith(WRITERS) else _OBSERVERS.get(name)
        signature = inspect.signature(fn)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            measure_memory = tracer.memory and name == "fit.fit_delta"
            if measure_memory:
                tracemalloc.start()
            idx = tracer.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
                if measure_memory:
                    peak = tracemalloc.get_traced_memory()[1] / 1e6
                    tracemalloc.stop()
                    tracer.counters["fit.peak_traced_mb"] = max(
                        tracer.counters["fit.peak_traced_mb"], peak)
            if observe is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                observe(tracer.counters, bound.arguments, out)
            return out
        return wrapper


# -- counters taken at the layer boundaries --------------------------------------

def _observe_mvn(counters, arguments, out):
    counters["mvn.points"] += out.points
    counters["mvn.unconverged"] += 0 if out.converged else 1
    if out.points:
        # the lattice doubles from start_points until it stops, every level
        # evaluated over all random shifts
        shifts, start = arguments["randomizations"], arguments["start_points"]
        final = out.points // shifts
        counters["mvn.points_evaluated"] += shifts * (2 * final - start)


def _observe_field(counters, arguments, out):
    rows, cols = out.matrix.shape
    counters["sim.values_drawn"] += rows * (cols - 1)


def _observe_pareto(counters, arguments, out):
    counters["sim.values_drawn"] += out.shape[0]  # the radial uniforms


def _observe_increments(counters, arguments, out):
    counters["sim.values_drawn"] += len(out.values)


def _observe_design(counters, arguments, out):
    g, covs, means = arguments["g"], arguments["covs"], arguments["means"]
    m = len(g.nodes) - 1
    rows = len(covs) * (m * m + (m if means is not None else 0))
    counters["fit.design_mb"] = max(counters["fit.design_mb"], rows * len(g.edges) * 8 / 1e6)


def _observe_write(counters, arguments, out):
    counters["io.bytes_written"] += os.path.getsize(arguments["path"])


_OBSERVERS = {
    "mvn.mvn_cdf": _observe_mvn,
    "sim.sample_limit_field": _observe_field,
    "sim.sample_pareto_conditioned": _observe_pareto,
    "sim.sample_increments": _observe_increments,
    "fit.fit_delta_from_covariances": _observe_design,
}


# -- per-layer metrics of one traced pass ----------------------------------------

def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Sum the spans of one pass into the per-layer metrics.

    Times named after a function are inclusive (children counted);
    `dist.self_s` and `model.gaussian_limit_self_s` subtract the child
    spans. `trace.unaccounted_s` is the part of the pass that no span
    covers. Metrics of layers the pass never entered read 0.
    """
    spans = tracer.spans
    child_time = defaultdict(float)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    total, self_time, calls = defaultdict(float), defaultdict(float), Counter()
    covered = 0.0
    for i, (name, start, end, parent) in enumerate(spans):
        total[name] += end - start
        self_time[name] += end - start - child_time[i]
        calls[name] += 1
        if parent < 0:
            covered += end - start
    c = tracer.counters
    points_evaluated = c["mvn.points_evaluated"]
    out = {
        "graph.build_s": total["graph.build_block_graph"],
        "graph.path_calls": c["graph.path_calls"],
        "model.validate_s": total["model.validate_delta"],
        "model.path_sums_s": total["model.path_sum_matrix"],
        "model.path_sum_calls": calls["model.path_sum_matrix"],
        "model.gaussian_limit_self_s": self_time["model.gaussian_limit"],
        "model.precision_s": total["model.precision_matrix"],
        "dist.stdf_calls": calls["dist.stdf_hr_detailed"],
        "dist.self_s": sum(v for k, v in self_time.items() if k.startswith("dist.")),
        "mvn.calls": calls["mvn.mvn_cdf"],
        "mvn.busy_s": total["mvn.mvn_cdf"],
        "mvn.points": c["mvn.points"],
        "mvn.points_evaluated": points_evaluated,
        "mvn.useful_point_ratio": c["mvn.points"] / points_evaluated if points_evaluated else 0.0,
        "mvn.unconverged": c["mvn.unconverged"],
        "sim.field_s": total["sim.sample_limit_field"],
        "sim.values_drawn": c["sim.values_drawn"],
        "latent.recover_s": total["latent.recover_path_sums"],
        "fit.rank_s": total["fit.rank_transform"],
        "fit.spacings_s": total["fit.log_spacings"],
        "fit.fit_s": total["fit.fit_delta"],
        "fit.nnls_s": total["fit.nnls_active_set"],
        "fit.design_mb": c["fit.design_mb"],
        "fit.peak_traced_mb": c["fit.peak_traced_mb"],
        "io.write_s": sum(v for k, v in total.items() if k.startswith(WRITERS)),
        "io.bytes_written": c["io.bytes_written"],
        "trace.unaccounted_s": wall_s - covered,
    }
    return out
