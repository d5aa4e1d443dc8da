"""Built-in scenarios: every experiment of the paper, registered.

Each registration pairs a default :class:`~repro.scenarios.spec.ScenarioSpec`
with an execute hook that maps the spec onto the experiment's measurement in
:mod:`repro.experiments` (Figures 5-7, Table 1, the ablations, and the
baseline comparison).  The hooks are the only way into those measurements.

The ``*_spec`` helpers are the typed spec builders: they take the
experiment's parameters as keyword arguments and return a spec for
:func:`repro.scenarios.run`, e.g. ``run(figure6_spec(nodes=1 << 17,
engine="fastpath"))``.

Scenarios that run on both engines route through exactly the engine the
spec requests, so their :class:`~repro.scenarios.run.RunResult` reports
``engine_used == spec.engine``; the construction-only and object-only
scenarios report ``"object"``.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.construction import (
    InverseDistanceReplacement,
    NeverReplace,
    OldestLinkReplacement,
)
from repro.core.failures import ByzantineBehavior
from repro.core.routing import RecoveryStrategy
from repro.scenarios.registry import register_scenario
from repro.scenarios.run import ScenarioOutcome
from repro.scenarios.spec import (
    FailureSpec,
    RoutingSpec,
    ScenarioSpec,
    SpecError,
    TopologySpec,
    WorkloadSpec,
)

__all__ = [
    "figure5_spec",
    "figure6_spec",
    "figure7_spec",
    "table1_spec",
    "ablation_replacement_spec",
    "ablation_backtrack_spec",
    "ablation_exponent_spec",
    "byzantine_spec",
    "baselines_spec",
]

_POLICIES = {
    "inverse-distance": InverseDistanceReplacement,
    "oldest-link": OldestLinkReplacement,
    "never-replace": NeverReplace,
}


def _policy_from_name(name: str):
    try:
        return _POLICIES[name]()
    except KeyError:
        raise SpecError(
            f"unknown replacement policy {name!r}; known: {sorted(_POLICIES)}"
        ) from None


def _levels(spec: ScenarioSpec) -> list[float] | None:
    """The failure sweep, or ``None`` for the scenario's default levels."""
    return list(spec.failures.levels) or None


# ---------------------------------------------------------------------------
# figure5
# ---------------------------------------------------------------------------


def figure5_spec(
    nodes: int = 1 << 11,
    links_per_node: int | None = None,
    networks: int = 5,
    replacement_policy: str = "inverse-distance",
    seed: int = 0,
) -> ScenarioSpec:
    """Spec for the ``"figure5"`` scenario."""
    return ScenarioSpec(
        scenario="figure5",
        topology=TopologySpec(kind="heuristic", nodes=nodes, links_per_node=links_per_node),
        failures=FailureSpec(kind="none"),
        workload=WorkloadSpec(searches=1, networks=networks),
        seed=seed,
        extras={"replacement_policy": replacement_policy, "max_rows": 20},
    )


@register_scenario(
    "figure5",
    description="link-length distribution of the §5 construction heuristic vs the ideal 1/d law (Figure 5a/5b)",
    defaults=figure5_spec(),
)
def _figure5(spec: ScenarioSpec) -> ScenarioOutcome:
    """Construction-only scenario: no queries are routed, so the engine field
    is ignored (reported as ``"object"``)."""
    from repro.experiments.figure5 import _run_figure5_impl

    result = _run_figure5_impl(
        nodes=spec.topology.nodes,
        links_per_node=spec.topology.links_per_node,
        networks=spec.workload.networks,
        replacement_policy=_policy_from_name(spec.extra("replacement_policy", "inverse-distance")),
        seed=spec.seed,
    )
    return ScenarioOutcome(
        tables=[result.to_table(max_rows=int(spec.extra("max_rows", 20)))],
        raw=result,
        engine_used="object",
    )


# ---------------------------------------------------------------------------
# figure6
# ---------------------------------------------------------------------------

_FIGURE6_STRATEGIES = tuple(strategy.value for strategy in (
    RecoveryStrategy.TERMINATE,
    RecoveryStrategy.RANDOM_REROUTE,
    RecoveryStrategy.BACKTRACK,
))


def figure6_spec(
    nodes: int = 1 << 12,
    links_per_node: int | None = None,
    failure_levels: Sequence[float] | None = None,
    searches_per_point: int = 200,
    strategies: Sequence[str] = _FIGURE6_STRATEGIES,
    seed: int = 0,
    engine: str = "object",
) -> ScenarioSpec:
    """Spec for the ``"figure6"`` scenario."""
    return ScenarioSpec(
        scenario="figure6",
        topology=TopologySpec(kind="ideal", nodes=nodes, links_per_node=links_per_node),
        failures=FailureSpec(kind="nodes", levels=tuple(failure_levels or ())),
        workload=WorkloadSpec(searches=searches_per_point),
        engine=engine,
        seed=seed,
        extras={"strategies": tuple(strategies)},
    )


@register_scenario(
    "figure6",
    description="failed searches and delivery time vs failed-node fraction, three recovery strategies (Figure 6a/6b)",
    defaults=figure6_spec(),
)
def _figure6(spec: ScenarioSpec) -> ScenarioOutcome:
    from repro.experiments.figure6 import _run_figure6_impl

    strategies = tuple(
        RecoveryStrategy(name) for name in spec.extra("strategies", _FIGURE6_STRATEGIES)
    )
    result = _run_figure6_impl(
        nodes=spec.topology.nodes,
        links_per_node=spec.topology.links_per_node,
        failure_levels=_levels(spec),
        searches_per_point=spec.workload.searches,
        strategies=strategies,
        seed=spec.seed,
        engine=spec.engine,
    )
    return ScenarioOutcome(tables=list(result.to_tables()), raw=result)


# ---------------------------------------------------------------------------
# figure7
# ---------------------------------------------------------------------------


def figure7_spec(
    nodes: int = 1 << 11,
    links_per_node: int | None = None,
    failure_levels: Sequence[float] | None = None,
    searches_per_point: int = 200,
    iterations: int = 2,
    recovery: str = RecoveryStrategy.TERMINATE.value,
    seed: int = 0,
    engine: str = "object",
) -> ScenarioSpec:
    """Spec for the ``"figure7"`` scenario."""
    return ScenarioSpec(
        scenario="figure7",
        topology=TopologySpec(kind="ideal", nodes=nodes, links_per_node=links_per_node),
        failures=FailureSpec(kind="nodes", levels=tuple(failure_levels or ())),
        routing=RoutingSpec(recovery=recovery),
        workload=WorkloadSpec(searches=searches_per_point, iterations=iterations),
        engine=engine,
        seed=seed,
    )


@register_scenario(
    "figure7",
    description="failed searches on the heuristically constructed vs the ideal network under node failures (Figure 7)",
    defaults=figure7_spec(),
)
def _figure7(spec: ScenarioSpec) -> ScenarioOutcome:
    from repro.experiments.figure7 import _run_figure7_impl

    result = _run_figure7_impl(
        nodes=spec.topology.nodes,
        links_per_node=spec.topology.links_per_node,
        failure_levels=_levels(spec),
        searches_per_point=spec.workload.searches,
        iterations=spec.workload.iterations,
        recovery=spec.routing.recovery_strategy(),
        seed=spec.seed,
        engine=spec.engine,
    )
    return ScenarioOutcome(tables=[result.to_table()], raw=result)


# ---------------------------------------------------------------------------
# table1
# ---------------------------------------------------------------------------


def table1_spec(
    sizes: Sequence[int] | None = None,
    link_counts: Sequence[int] | None = None,
    bases: Sequence[int] | None = None,
    probabilities: Sequence[float] | None = None,
    searches: int = 150,
    seed: int = 0,
    recovery: str = RecoveryStrategy.BACKTRACK.value,
    engine: str = "object",
) -> ScenarioSpec:
    """Spec for the ``"table1"`` scenario.

    The four sweep axes live in ``extras``; ``None`` keeps the measurement's
    default sweep (``2^8..2^12`` sizes and the paper's link/base/probability
    lists).  The defaults are materialised in the spec so every axis has a
    typed template for ``--set``/``--grid`` coercion.
    """
    extras = {
        "sizes": tuple(sizes) if sizes is not None else tuple(1 << k for k in range(8, 13)),
        "link_counts": tuple(link_counts) if link_counts is not None else (1, 2, 4, 8, 12),
        "bases": tuple(bases) if bases is not None else (2, 4, 8, 16),
        "probabilities": tuple(probabilities)
        if probabilities is not None
        else (1.0, 0.9, 0.75, 0.5, 0.25),
    }
    return ScenarioSpec(
        scenario="table1",
        routing=RoutingSpec(recovery=recovery),
        workload=WorkloadSpec(searches=searches),
        engine=engine,
        seed=seed,
        extras=extras,
    )


@register_scenario(
    "table1",
    description="measured delivery time vs the theoretical bound shape for every Table-1 model",
    defaults=table1_spec(),
)
def _table1(spec: ScenarioSpec) -> ScenarioOutcome:
    from repro.experiments.table1 import _run_table1_impl

    def axis(key):
        values = spec.extra(key)
        if values is None:
            return None
        return list(values) if isinstance(values, (tuple, list)) else [values]

    result = _run_table1_impl(
        sizes=axis("sizes"),
        link_counts=axis("link_counts"),
        bases=axis("bases"),
        probabilities=axis("probabilities"),
        searches=spec.workload.searches,
        seed=spec.seed,
        recovery=spec.routing.recovery_strategy(),
        engine=spec.engine,
    )
    return ScenarioOutcome(tables=result.tables(), raw=result)


# ---------------------------------------------------------------------------
# ablations
# ---------------------------------------------------------------------------


def ablation_replacement_spec(
    nodes: int = 1 << 10,
    links_per_node: int | None = None,
    networks: int = 3,
    seed: int = 0,
) -> ScenarioSpec:
    """Spec for the ``"ablation-replacement"`` scenario."""
    return ScenarioSpec(
        scenario="ablation-replacement",
        topology=TopologySpec(kind="heuristic", nodes=nodes, links_per_node=links_per_node),
        failures=FailureSpec(kind="none"),
        workload=WorkloadSpec(searches=1, networks=networks),
        seed=seed,
    )


@register_scenario(
    "ablation-replacement",
    description="link-replacement policy ablation: inverse-distance vs oldest-link vs never-replace",
    defaults=ablation_replacement_spec(),
)
def _ablation_replacement(spec: ScenarioSpec) -> ScenarioOutcome:
    """Construction-only scenario (engine ignored, reported as ``"object"``)."""
    from repro.experiments.ablations import _run_replacement_ablation_impl

    table = _run_replacement_ablation_impl(
        nodes=spec.topology.nodes,
        links_per_node=spec.topology.links_per_node,
        networks=spec.workload.networks,
        seed=spec.seed,
    )
    return ScenarioOutcome(tables=[table], raw=table, engine_used="object")


def ablation_backtrack_spec(
    nodes: int = 1 << 12,
    depths: Sequence[int] | None = None,
    failure_level: float = 0.5,
    searches: int = 300,
    seed: int = 0,
) -> ScenarioSpec:
    """Spec for the ``"ablation-backtrack"`` scenario."""
    extras = {"depths": tuple(depths) if depths is not None else (1, 2, 5, 10, 20)}
    return ScenarioSpec(
        scenario="ablation-backtrack",
        topology=TopologySpec(kind="ideal", nodes=nodes),
        failures=FailureSpec(kind="nodes", levels=(failure_level,)),
        routing=RoutingSpec(recovery=RecoveryStrategy.BACKTRACK.value),
        workload=WorkloadSpec(searches=searches),
        seed=seed,
        extras=extras,
    )


@register_scenario(
    "ablation-backtrack",
    description="backtrack-depth ablation: failed-search fraction vs history depth at a fixed failure level",
    defaults=ablation_backtrack_spec(),
)
def _ablation_backtrack(spec: ScenarioSpec) -> ScenarioOutcome:
    """Object-engine scenario (the backtracking router is stateful)."""
    from repro.experiments.ablations import _run_backtrack_depth_ablation_impl

    depths = spec.extra("depths")
    table = _run_backtrack_depth_ablation_impl(
        nodes=spec.topology.nodes,
        depths=list(depths) if depths is not None else None,
        failure_level=spec.failures.levels[0] if spec.failures.levels else 0.5,
        searches=spec.workload.searches,
        seed=spec.seed,
    )
    return ScenarioOutcome(tables=[table], raw=table, engine_used="object")


def ablation_exponent_spec(
    nodes: int = 1 << 12,
    exponents: Sequence[float] | None = None,
    searches: int = 300,
    seed: int = 0,
) -> ScenarioSpec:
    """Spec for the ``"ablation-exponent"`` scenario."""
    extras = {
        "exponents": tuple(exponents) if exponents is not None else (0.0, 0.5, 1.0, 1.5, 2.0)
    }
    return ScenarioSpec(
        scenario="ablation-exponent",
        topology=TopologySpec(kind="ideal", nodes=nodes),
        failures=FailureSpec(kind="none"),
        workload=WorkloadSpec(searches=searches),
        seed=seed,
        extras=extras,
    )


@register_scenario(
    "ablation-exponent",
    description="link-distribution exponent ablation: routing performance vs power-law exponent",
    defaults=ablation_exponent_spec(),
)
def _ablation_exponent(spec: ScenarioSpec) -> ScenarioOutcome:
    """Object-engine scenario."""
    from repro.experiments.ablations import _run_exponent_ablation_impl

    exponents = spec.extra("exponents")
    table = _run_exponent_ablation_impl(
        nodes=spec.topology.nodes,
        exponents=list(exponents) if exponents is not None else None,
        searches=spec.workload.searches,
        seed=spec.seed,
    )
    return ScenarioOutcome(tables=[table], raw=table, engine_used="object")


def byzantine_spec(
    nodes: int = 1 << 11,
    fractions: Sequence[float] | None = None,
    behavior: str = ByzantineBehavior.DROP,
    redundancy: int = 3,
    searches: int = 200,
    seed: int = 0,
) -> ScenarioSpec:
    """Spec for the ``"byzantine"`` scenario."""
    return ScenarioSpec(
        scenario="byzantine",
        topology=TopologySpec(kind="ideal", nodes=nodes),
        failures=FailureSpec(
            kind="byzantine", levels=tuple(fractions or ()), behavior=behavior
        ),
        workload=WorkloadSpec(searches=searches),
        seed=seed,
        extras={"redundancy": redundancy},
    )


@register_scenario(
    "byzantine",
    description="Byzantine-node extension: plain vs redundant multi-path routing vs compromised fraction",
    defaults=byzantine_spec(),
)
def _byzantine(spec: ScenarioSpec) -> ScenarioOutcome:
    """Object-engine scenario (Byzantine behaviour is object-router only)."""
    from repro.experiments.ablations import _run_byzantine_experiment_impl

    table = _run_byzantine_experiment_impl(
        nodes=spec.topology.nodes,
        fractions=_levels(spec),
        behavior=spec.failures.behavior,
        redundancy=int(spec.extra("redundancy", 3)),
        searches=spec.workload.searches,
        seed=spec.seed,
    )
    return ScenarioOutcome(tables=[table], raw=table, engine_used="object")


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------


def baselines_spec(
    bits: int = 10,
    searches: int = 200,
    failure_level: float = 0.3,
    seed: int = 0,
    engine: str = "object",
    protocol: str = "",
) -> ScenarioSpec:
    """Spec for the ``"baselines"`` scenario.

    The network size is ``topology.nodes`` (the single source of truth); the
    execute hook converts it back to the bit width the comparison uses, so
    ``--set topology.nodes=...`` sweeps all systems at matched size.
    ``topology.protocol`` restricts the comparison to one overlay family
    (``""`` = all five), which is the sweep axis for protocol grids:
    ``repro sweep baselines --grid topology.protocol=chord,can --grid
    failures.levels=0.1,0.3 --set engine=fastpath``.
    """
    return ScenarioSpec(
        scenario="baselines",
        topology=TopologySpec(kind="ideal", nodes=1 << bits, protocol=protocol),
        failures=FailureSpec(kind="nodes", levels=(failure_level,)),
        workload=WorkloadSpec(searches=searches),
        engine=engine,
        seed=seed,
    )


@register_scenario(
    "baselines",
    description="hop counts and failure resilience of Chord / Kleinberg / CAN / Plaxton vs this paper's overlay (both engines, protocol-grid ready)",
    defaults=baselines_spec(),
)
def _baselines(spec: ScenarioSpec) -> ScenarioOutcome:
    """Every system implements the Overlay protocol, so both engines apply:
    ``engine="fastpath"`` batch-routes each topology's compiled snapshot with
    numbers identical to the scalar walk."""
    import math

    from repro.experiments.baseline_comparison import _run_baseline_comparison_impl

    table = _run_baseline_comparison_impl(
        bits=max(1, round(math.log2(spec.topology.nodes))),
        searches=spec.workload.searches,
        failure_level=spec.failures.levels[0] if spec.failures.levels else 0.3,
        seed=spec.seed,
        engine=spec.engine,
        protocol=spec.topology.protocol,
    )
    return ScenarioOutcome(tables=[table], raw=table)
