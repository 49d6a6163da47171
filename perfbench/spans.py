"""Span tracing of augmi's layers, installed from outside the package.

A traced run replaces every public function of each augmi module, and the
few public methods the per-layer metrics need, with a wrapper that records a
span (name, start, end, parent span, op id).  The wrapper is bound into every
module that refers to the function, because augmi modules import each other's
functions by name and would otherwise keep calling the original.  Spans stay
in memory and are written out when the run ends.

The program is single-threaded, so spans nest strictly: a span's self time is
its duration minus the summed durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import time
from collections import defaultdict
from pathlib import Path
from types import FunctionType

# Layers are the augmi modules; ``cli`` only parses arguments and is not run.
LAYERS = (
    "analytic",
    "bench",
    "involved",
    "kde",
    "linalg",
    "planner",
    "scenario",
    "smc",
    "state",
)

# Public methods traced in addition to the module-level functions.
METHODS = (
    ("state", "SequentialTransition", "sample_with_noise"),
    ("state", "SequentialObservation", "sample_with_noise"),
    ("state", "SequentialObservation", "grid_evaluator"),
    ("state", "ObservationGridEvaluator", "mixture_likelihood"),
    ("planner", "SmcMiBackend", "__call__"),
    ("planner", "AnalyticMiBackend", "__call__"),
)

GRID = "state.ObservationGridEvaluator.mixture_likelihood"
PROPAGATE = (
    "state.SequentialTransition.sample_with_noise",
    "state.SequentialObservation.sample_with_noise",
)
KDE_PIPELINES = ("kde.naive_kde_augmented_mi", "kde.invmi_kde_augmented_mi")
BACKENDS = ("planner.SmcMiBackend.__call__", "planner.AnalyticMiBackend.__call__")


def _kde_counts(args, kwargs, est):
    n, draws = est.sample_counts["n"], est.sample_counts["z_draws"]
    # Computed, not measured: one re-substitution grid for the prior sample
    # and one per observation draw, each n x n kernel evaluations.
    return {"cells": (1 + draws) * n * n, "clamps": est.sample_counts["clamp_events"]}


def _count_nodes(node) -> int:
    return 1 + sum(_count_nodes(child) for pairs in node.children.values() for _z, child in pairs)


# Counters recorded on a span from the call's arguments and result.
COUNTERS = {
    GRID: lambda args, kwargs, out: {"cells": out.shape[0] * args[0].count},
    "smc.mismc_update": lambda args, kwargs, acc: {
        "floors": acc.eta_floor_events - args[0].eta_floor_events
    },
    "kde.naive_kde_augmented_mi": _kde_counts,
    "kde.invmi_kde_augmented_mi": _kde_counts,
    "analytic.joint_state_observation": lambda args, kwargs, joint: {"dim": joint.dim},
    "planner.solve": lambda args, kwargs, result: {"nodes": _count_nodes(result.root)},
}

# (name, unit) of every per-layer metric; every traced run emits all of them,
# with 0 where the workload does not use the layer.  Times are inclusive of
# traced children unless the name says self.
PER_LAYER = (
    ("state.mixture_likelihood_s", "s/op"),
    ("state.grid_cells", "cells/op"),
    ("state.grid_ns_per_cell", "ns"),
    ("state.propagate_s", "s/op"),
    ("state.sample_particles_s", "s/op"),
    ("state.marginalize_s", "s/op"),
    ("smc.calls", "count/op"),
    ("smc.context_s", "s/op"),
    ("smc.update_s", "s/op"),
    ("smc.update_self_s", "s/op"),
    ("smc.eta_floor_events", "count/op"),
    ("kde.calls", "count/op"),
    ("kde.pipeline_s", "s/op"),
    ("kde.self_s", "s/op"),
    ("kde.bandwidth_s", "s/op"),
    ("kde.kernel_cells", "cells/op"),
    ("kde.ns_per_cell", "ns"),
    ("kde.clamp_events", "count/op"),
    ("analytic.calls", "count/op"),
    ("analytic.mi_s", "s/op"),
    ("analytic.joint_s", "s/op"),
    ("analytic.condition_s", "s/op"),
    ("analytic.joint_dim_mean", "dim"),
    ("linalg.cholesky_s", "s/op"),
    ("linalg.cholesky_calls", "count/op"),
    ("linalg.conditional_parts_s", "s/op"),
    ("involved.determine_calls", "count/op"),
    ("involved.determine_s", "s/op"),
    ("bench.evaluate_s", "s/op"),
    ("bench.result_row_s", "s/op"),
    ("bench.emit_csv_s", "s"),
    ("planner.solve_s", "s/op"),
    ("planner.self_s", "s/op"),
    ("planner.backend_calls", "count/op"),
    ("planner.backend_s", "s/op"),
    ("planner.nodes", "count/op"),
    ("planner.compose_s", "s/op"),
    ("scenario.generate_s", "s"),
    ("trace.spans", "count/op"),
    ("trace.overhead_pct", "%"),
)


class SpanRecorder:
    """In-memory spans: ``[name, start_ns, end_ns, parent, op, counts]``.

    ``op`` is the id of the benchmark op running when the span opened; the
    benchmark sets it, and -1 marks set-up and verification work.  The
    wrappers are built once, so :meth:`install` and :meth:`restore` only
    swap attributes and can run between ops.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._patches = self._build_patches()

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter_ns(), 0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()
            if counter is not None:
                span[5] = counter(args, kwargs, result)
            return result

        return traced

    def _build_patches(self) -> list[tuple[object, str, object, object]]:
        """``(owner, attribute, original, wrapper)`` for every binding to trace."""
        modules = [importlib.import_module(f"augmi.{layer}") for layer in LAYERS]
        wrapped = {}
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[1]
            for attr, value in vars(module).items():
                if (
                    isinstance(value, FunctionType)
                    and not attr.startswith("_")
                    and value.__module__ == module.__name__
                ):
                    wrapped[value] = self.wrap(f"{layer}.{attr}", value)
        patches = [
            (module, attr, value, wrapped[value])
            for module in modules + [importlib.import_module("augmi")]
            for attr, value in vars(module).items()
            if isinstance(value, FunctionType) and value in wrapped
        ]
        for layer, cls_name, method in METHODS:
            cls = getattr(importlib.import_module(f"augmi.{layer}"), cls_name)
            original = cls.__dict__[method]
            patches.append((cls, method, original, self.wrap(f"{layer}.{cls_name}.{method}", original)))
        return patches

    def install(self) -> None:
        for owner, attr, _original, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original, _wrapper in self._patches:
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines, times in ns from the first span."""
        origin = self.spans[0][1] if self.spans else 0
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, op, counts in self.spans:
                record = [name, start - origin, end - origin, parent, op]
                if counts:
                    record.append(counts)
                handle.write(json.dumps(record, separators=(",", ":")) + "\n")


def layer_metrics(spans: list[list], n_ops: int, overhead_pct: float) -> dict[str, float]:
    """Per-layer metrics from the spans of ``n_ops`` traced ops.

    Spans opened inside an op are averaged per op; ``bench.emit_csv_s`` and
    ``scenario.generate_s`` are set-up or verification work and are reported
    per call instead.
    """
    total = defaultdict(int)
    self_ns = defaultdict(int)
    calls = defaultdict(int)
    counts = defaultdict(lambda: defaultdict(int))
    child_ns = defaultdict(int)
    for span in spans:
        if span[3] >= 0:
            child_ns[span[3]] += span[2] - span[1]
    outside = defaultdict(list)
    in_ops = 0
    for index, (name, start, end, _parent, op, extra) in enumerate(spans):
        if op < 0:
            outside[name].append(end - start)
            continue
        in_ops += 1
        total[name] += end - start
        self_ns[name] += end - start - child_ns[index]
        calls[name] += 1
        for key, value in (extra or {}).items():
            counts[name][key] += value

    per_op = 1.0 / max(n_ops, 1)

    def secs(*names):
        return sum(total[n] for n in names) * 1e-9 * per_op

    def self_secs(*names):
        return sum(self_ns[n] for n in names) * 1e-9 * per_op

    def ncalls(*names):
        return sum(calls[n] for n in names) * per_op

    def ns_per(time_s, cells):
        return time_s * 1e9 / cells if cells else 0.0

    def median_call_s(name):
        values = sorted(outside[name])
        return values[len(values) // 2] * 1e-9 if values else 0.0

    grid_s, grid_cells = secs(GRID), counts[GRID]["cells"] * per_op
    kde_self, kde_cells = self_secs(*KDE_PIPELINES), sum(
        counts[n]["cells"] for n in KDE_PIPELINES
    ) * per_op
    joints = calls["analytic.joint_state_observation"]
    metrics = {
        "state.mixture_likelihood_s": grid_s,
        "state.grid_cells": grid_cells,
        "state.grid_ns_per_cell": ns_per(grid_s, grid_cells),
        "state.propagate_s": secs(*PROPAGATE),
        "state.sample_particles_s": secs("state.sample_particles"),
        "state.marginalize_s": secs("state.marginalize_gaussian", "state.marginalize_particles"),
        "smc.calls": ncalls("smc.mismc_context"),
        "smc.context_s": secs("smc.mismc_context"),
        "smc.update_s": secs("smc.mismc_update"),
        "smc.update_self_s": self_secs("smc.mismc_update"),
        "smc.eta_floor_events": counts["smc.mismc_update"]["floors"] * per_op,
        "kde.calls": ncalls(*KDE_PIPELINES),
        "kde.pipeline_s": secs(*KDE_PIPELINES),
        "kde.self_s": kde_self,
        "kde.bandwidth_s": secs("kde.bandwidth_vector"),
        "kde.kernel_cells": kde_cells,
        "kde.ns_per_cell": ns_per(kde_self, kde_cells),
        "kde.clamp_events": sum(counts[n]["clamps"] for n in KDE_PIPELINES) * per_op,
        "analytic.calls": ncalls("analytic.augmented_mi_analytic"),
        "analytic.mi_s": secs("analytic.augmented_mi_analytic"),
        "analytic.joint_s": secs("analytic.joint_state_observation"),
        "analytic.condition_s": secs("analytic.condition_gaussian"),
        "analytic.joint_dim_mean": (
            counts["analytic.joint_state_observation"]["dim"] / joints if joints else 0.0
        ),
        "linalg.cholesky_s": secs("linalg.cholesky_psd"),
        "linalg.cholesky_calls": ncalls("linalg.cholesky_psd"),
        "linalg.conditional_parts_s": secs("linalg.conditional_parts"),
        "involved.determine_calls": ncalls("involved.determine_involved"),
        "involved.determine_s": secs("involved.determine_involved"),
        "bench.evaluate_s": secs("bench.evaluate_method"),
        "bench.result_row_s": secs("bench.result_row"),
        "bench.emit_csv_s": median_call_s("bench.emit_csv"),
        "planner.solve_s": secs("planner.solve"),
        "planner.self_s": self_secs("planner.solve"),
        "planner.backend_calls": ncalls(*BACKENDS),
        "planner.backend_s": secs(*BACKENDS),
        "planner.nodes": counts["planner.solve"]["nodes"] * per_op,
        "planner.compose_s": secs("state.compose_actions"),
        "scenario.generate_s": median_call_s("scenario.generate_scenario"),
        "trace.spans": in_ops * per_op,
        "trace.overhead_pct": overhead_pct,
    }
    if set(metrics) != {name for name, _unit in PER_LAYER}:
        raise RuntimeError("per-layer metrics disagree with PER_LAYER")
    return {name: float(value) if math.isfinite(value) else 0.0 for name, value in metrics.items()}
