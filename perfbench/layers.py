"""The program's layers as the benchmark sees them, and how to trace them.

Each layer is a ``repro`` module; :data:`TARGETS` names its public callables
that the traced run wraps.  A span is named ``<module>.<qualname>`` with the
module's last dotted component (``construction.build_heuristic_network``),
so every per-layer metric name fits the benchmark's 64-character limit.
``BatchGreedyRouter.route_batch`` is split by the router's recovery
strategy.  Per-hop callables (such as ``LogNormalLatency.sample``) are not
wrapped: their wrapper would cost more than their work.

Counts are taken at the same boundaries from the wrapped calls' arguments
and results (:func:`install`), so they are exact and repeat from run to run.
Which end-to-end metric each layer should move, on which workload, is
recorded in ``README.md`` next to this file.
"""

from __future__ import annotations

import importlib
from typing import Any

from spans import Tracer

#: (module, qualnames) — qualname ``Class.method`` or ``function``.
TARGETS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("repro.core.construction", (
        "build_heuristic_network",
        "HeuristicConstruction.add_point",
        "HeuristicConstruction.remove_point",
        "HeuristicConstruction.regenerate_link",
    )),
    ("repro.core.maintenance", (
        "MaintenanceDaemon.handle_departure",
        "MaintenanceDaemon.repair_all_batched",
    )),
    ("repro.core.graph", ("OverlayGraph.fail_node",)),
    ("repro.fastpath.builder", ("build_snapshot",)),
    ("repro.fastpath.snapcache", ("cached_build_snapshot",)),
    ("repro.fastpath.batch_router", (
        "BatchGreedyRouter.__init__",
        "BatchGreedyRouter.rebase",
        "BatchGreedyRouter.route_batch",
        "BatchGreedyRouter.route_pairs",
    )),
    ("repro.experiments.runner", ("route_pairs_with_engine",)),
    ("repro.fastpath.delta", (
        "DeltaSnapshot.from_graph",
        "DeltaSnapshot.from_snapshot",
        "DeltaSnapshot.apply",
        "DeltaSnapshot.snapshot",
        "DeltaRecorder.drain",
    )),
    ("repro.fastpath.shm", (
        "SnapshotArena.create",
        "SnapshotArena.attach",
        "SnapshotArena.snapshot",
    )),
    ("repro.fastpath.failures", ("sample_node_failures",)),
    ("repro.simulation.workload", (
        "LookupWorkload.pairs",
        "ChurnWorkload.schedule",
    )),
)

#: Short tags for the ``route_batch`` split, keyed by ``RecoveryStrategy.value``.
STRATEGY_TAGS = {"terminate": "terminate", "random-reroute": "reroute", "backtrack": "backtrack"}

#: Modules whose import makes every target and every caller of one loaded.
IMPORTS = tuple(module for module, _names in TARGETS) + (
    "repro.experiments.figure6",
    "repro.scenarios",
    # The registry's built-in library, loaded before any wrapper goes in.
    "repro.scenarios.churn",
    "repro.scenarios.degradation",
    "repro.scenarios.library",
    "repro.scenarios.service",
)

COUNTS = (
    "count.queries_routed",
    "count.hops_total",
    "count.delta_ops_liveness",
    "count.delta_ops_structural",
    "count.links_regenerated",
    "count.dead_links_dropped",
    "count.repair_messages",
    "count.snapshot_bytes",
    "count.arena_bytes",
    "snapcache.hits",
    "snapcache.misses",
)


def span_names() -> list[str]:
    """Every span name a traced run reports, in a fixed order."""
    names: list[str] = []
    for module, qualnames in TARGETS:
        short = module.rsplit(".", 1)[-1]
        for qualname in qualnames:
            if qualname == "BatchGreedyRouter.route_batch":
                names.extend(f"{short}.{qualname}.{tag}" for tag in STRATEGY_TAGS.values())
            else:
                names.append(f"{short}.{qualname}")
    return names


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as ``(name, unit)``, in report order."""
    metrics: list[tuple[str, str]] = []
    for span in span_names():
        metrics += [(f"{span}.calls", "count"), (f"{span}.s", "s"), (f"{span}.self_s", "s")]
    metrics += [(name, "count") for name in COUNTS]
    metrics += [("unattributed_s", "s"), ("tracing_overhead_s", "s")]
    return metrics


def import_layers() -> None:
    """Import every traced module and every module that calls into one."""
    for module in IMPORTS:
        importlib.import_module(module)


def install(tracer: Tracer) -> None:
    """Wrap every target, where its callers look it up, and hook the counts."""
    from repro.fastpath.delta import OP_FAIL, OP_REVIVE
    from repro.fastpath.dtypes import snapshot_nbytes

    liveness_ops = (OP_FAIL, OP_REVIVE)

    def routed(result: Any, *_args: Any, **_kwargs: Any) -> None:
        tracer.count("count.queries_routed", len(result))
        tracer.count("count.hops_total", int(result.hops.sum()))

    def applied(_result: Any, _mirror: Any, delta: Any = None, **kwargs: Any) -> None:
        delta = kwargs["delta"] if delta is None else delta
        liveness = sum(1 for op in delta.ops if op[0] in liveness_ops)
        tracer.count("count.delta_ops_liveness", liveness)
        tracer.count("count.delta_ops_structural", len(delta.ops) - liveness)

    def repaired(report: Any, *_args: Any, **_kwargs: Any) -> None:
        tracer.count("count.links_regenerated", report.links_regenerated)
        tracer.count("count.dead_links_dropped", report.dead_links_dropped)
        tracer.count("count.repair_messages", report.messages)

    def built(snapshot: Any, *_args: Any, **_kwargs: Any) -> None:
        tracer.count("count.snapshot_bytes", snapshot_nbytes(snapshot))

    def created(arena: Any, *_args: Any, **_kwargs: Any) -> None:
        tracer.count("count.arena_bytes", arena.nbytes)

    hooks = {
        "BatchGreedyRouter.route_batch": routed,
        "DeltaSnapshot.apply": applied,
        "MaintenanceDaemon.handle_departure": repaired,
        "MaintenanceDaemon.repair_all_batched": repaired,
        "build_snapshot": built,
        "SnapshotArena.create": created,
    }
    for module_name, qualnames in TARGETS:
        module = importlib.import_module(module_name)
        short = module_name.rsplit(".", 1)[-1]
        for qualname in qualnames:
            span = f"{short}.{qualname}"
            hook = hooks.get(qualname)
            if "." not in qualname:
                tracer.patch_function(getattr(module, qualname), span, hook)
                continue
            owner_name, attribute = qualname.split(".")
            name: Any = span
            if qualname == "BatchGreedyRouter.route_batch":
                name = _strategy_namer(span)
            tracer.patch_method(getattr(module, owner_name), attribute, name, hook)


def _strategy_namer(span: str):
    def name(router: Any, *_args: Any, **_kwargs: Any) -> str:
        return f"{span}.{STRATEGY_TAGS[router.recovery.value]}"

    return name


def layer_metrics(tracer: Tracer, cache_stats: dict[str, int]) -> dict[str, float]:
    """The span and count metrics of a traced run (0 for a layer not reached)."""
    values: dict[str, float] = {}
    for span in span_names():
        stats = tracer.spans.get(span)
        values[f"{span}.calls"] = stats.calls if stats else 0
        values[f"{span}.s"] = stats.s if stats else 0.0
        values[f"{span}.self_s"] = stats.self_s if stats else 0.0
    for name in COUNTS:
        values[name] = tracer.counts.get(name, 0)
    values["snapcache.hits"] = cache_stats.get("hits", 0)
    values["snapcache.misses"] = cache_stats.get("misses", 0)
    return values
