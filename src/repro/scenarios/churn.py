"""Churn and maintenance scenarios: the dynamic half of the paper, registered.

The paper's central claim is not that the power-law overlay routes well once,
but that it *stays* routable while nodes join, leave, and crash — with repair
work cheap enough to amortise over searches (Sections 2 and 5).  These
scenarios make that claim measurable through the same declarative API as the
static figures, wiring together:

* the :mod:`repro.simulation` workload generators
  (:class:`~repro.simulation.workload.ChurnWorkload` schedules,
  :class:`~repro.simulation.workload.LookupWorkload` query traffic,
  :class:`~repro.simulation.latency.LogNormalLatency` per-hop latencies);
* the Section-5 construction heuristic and the
  :class:`~repro.core.maintenance.MaintenanceDaemon` repair pass
  (:meth:`~repro.core.maintenance.MaintenanceDaemon.repair_all_batched`);
* both routing engines — the object engine walks the mutating graph, the
  fastpath engine follows it through **incremental snapshot deltas**
  (:class:`~repro.fastpath.DeltaRecorder` /
  :class:`~repro.fastpath.DeltaSnapshot`), never recompiling.  The two
  report identical numbers, which the CI churn smoke job asserts.

Registered scenarios
--------------------
``churn``
    Round-by-round evolution under a given churn rate: membership, repair
    traffic, lookup success/hops/latency per round.  Grid-ready axes:
    ``failures.levels`` (churn rate), ``topology.nodes``,
    ``routing.recovery``, ``engine``.
``maintenance-cost``
    Repair traffic as a function of churn rate: one row per rate level with
    aggregate maintenance counters, messages per event, and a post-churn
    routability probe.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from repro.core.construction import build_heuristic_network
from repro.core.maintenance import MaintenanceDaemon, MaintenanceReport
from repro.core.routing import GreedyRouter, RecoveryStrategy
from repro.experiments.runner import ExperimentTable
from repro.fastpath import (
    BatchGreedyRouter,
    DeltaRecorder,
    DeltaSnapshot,
)
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
from repro.simulation.latency import LogNormalLatency
from repro.simulation.workload import ChurnWorkload, LookupWorkload
from repro.telemetry.core import current as telemetry_current
from repro.util.rng import derive_seed

__all__ = ["churn_spec", "maintenance_cost_spec", "ChurnRound", "run_churn_rounds"]


@dataclass
class ChurnRound:
    """Everything measured in one churn round."""

    round_index: int
    joins: int = 0
    leaves: int = 0
    crashes: int = 0
    live_nodes: int = 0
    repair: MaintenanceReport = field(default_factory=MaintenanceReport)
    departure_repairs: MaintenanceReport = field(default_factory=MaintenanceReport)
    success_rate: float = 0.0
    mean_hops: float = 0.0
    mean_latency: float = 0.0

    @property
    def events(self) -> int:
        return self.joins + self.leaves + self.crashes

    def total_repair(self) -> MaintenanceReport:
        """Departure-triggered plus periodic repair work of this round."""
        return self.repair.merge(self.departure_repairs)


def run_churn_rounds(
    nodes: int,
    occupied: int,
    links_per_node: int | None,
    rounds: int,
    churn_rate: float,
    crash_fraction: float,
    searches: int,
    recovery: RecoveryStrategy,
    seed: int,
    engine: str,
    latency_median: float = 1.0,
    latency_sigma: float = 0.4,
) -> list[ChurnRound]:
    """Run ``rounds`` churn rounds and measure each; return the rounds.

    One round = apply this round's scheduled join/leave/crash events, run a
    batched repair pass, then route ``searches`` uniform lookups between live
    nodes.  On ``engine="fastpath"`` the router follows the overlay through
    recorded snapshot deltas (never recompiling); numbers are identical to
    the object engine at the same seed — the engines are hop-for-hop
    compatible and every draw is derived from ``seed``.
    """
    tel = telemetry_current()
    with tel.span("build") if tel is not None else nullcontext():
        construction = build_heuristic_network(
            nodes,
            occupied=occupied,
            links_per_node=links_per_node,
            seed=derive_seed(seed, "churn-build"),
        )
    graph = construction.graph
    daemon = MaintenanceDaemon(construction)

    recorder = mirror = batch_router = None
    route_seed = derive_seed(seed, "churn-route")
    if engine == "fastpath":
        recorder = DeltaRecorder.attach(graph)
        with tel.span("compile") if tel is not None else nullcontext():
            mirror = DeltaSnapshot.from_graph(graph)
            batch_router = BatchGreedyRouter(
                mirror.snapshot(), recovery=recovery, seed=route_seed
            )
    scalar_router = None
    if engine == "object":
        scalar_router = GreedyRouter(graph, recovery=recovery, seed=route_seed)

    members = sorted(graph.labels())
    events_by_round: dict[int, list] = {}
    if churn_rate > 0 and rounds > 0:
        workload = ChurnWorkload(
            space_size=nodes,
            join_rate=max(churn_rate * len(members) / 2.0, 1e-9),
            leave_rate=max(churn_rate * len(members) / 2.0, 1e-9),
            crash_fraction=crash_fraction,
            seed=derive_seed(seed, "churn-events"),
        )
        for event in workload.schedule(duration=float(rounds), initial_members=members):
            bucket = min(rounds - 1, max(0, int(event.time)))
            events_by_round.setdefault(bucket, []).append(event)

    lookups = LookupWorkload(seed=derive_seed(seed, "churn-lookups"))
    results: list[ChurnRound] = []
    try:
        for round_index in range(rounds):
            record = ChurnRound(round_index=round_index)
            for event in events_by_round.get(round_index, []):
                if event.action == "join" and not graph.has_node(event.address):
                    construction.add_point(event.address)
                    record.joins += 1
                elif event.action == "leave" and graph.has_node(event.address):
                    record.departure_repairs = record.departure_repairs.merge(
                        daemon.handle_departure(event.address)
                    )
                    record.leaves += 1
                elif event.action == "crash" and graph.is_alive(event.address):
                    graph.fail_node(event.address)
                    record.crashes += 1
            record.repair = daemon.repair_all_batched()
            live = sorted(graph.labels(only_alive=True))
            record.live_nodes = len(live)
            if len(live) >= 2 and searches > 0:
                pairs = lookups.pairs(live, searches)
                success, hops = _route_round(
                    pairs, engine, graph, scalar_router,
                    recorder, mirror, batch_router, recovery, live,
                )
                record.success_rate = float(success.mean()) if success.size else 0.0
                successful_hops = hops[success]
                record.mean_hops = (
                    float(successful_hops.mean()) if successful_hops.size else 0.0
                )
                record.mean_latency = _mean_latency(
                    successful_hops,
                    median=latency_median,
                    sigma=latency_sigma,
                    seed=derive_seed(seed, "churn-latency", round_index),
                )
            results.append(record)
    finally:
        if recorder is not None:
            recorder.detach()
    return results


def _route_round(
    pairs, engine, graph, scalar_router, recorder, mirror, batch_router,
    recovery, live,
) -> tuple[np.ndarray, np.ndarray]:
    """Route one round's lookups; return per-query (success, hops) arrays."""
    if engine == "fastpath":
        mirror.apply(recorder.drain())
        batch_router.rebase(mirror.snapshot())
        if recovery is RecoveryStrategy.RANDOM_REROUTE:
            # The scalar detour pool is graph.labels(only_alive=True) in
            # node-table order; hand the batch router the same order.
            batch_router.reroute_pool = graph.labels(only_alive=True)
        result = batch_router.route_pairs(pairs)
        return result.success.copy(), result.hops.copy()
    success = np.zeros(len(pairs), dtype=bool)
    hops = np.zeros(len(pairs), dtype=np.int64)
    for index, (source, target) in enumerate(pairs):
        route = scalar_router.route(source, target)
        success[index] = route.success
        hops[index] = route.hops
    return success, hops


def _mean_latency(
    successful_hops: np.ndarray, median: float, sigma: float, seed: int
) -> float:
    """Mean end-to-end latency of the successful lookups.

    Each hop's latency is drawn from the simulation package's log-normal
    model; draws are consumed in query order, so the value is deterministic
    in ``seed`` and identical across engines (the hop counts are).
    """
    if successful_hops.size == 0 or median <= 0:
        return 0.0
    model = LogNormalLatency(median=median, sigma=sigma, seed=seed)
    total = 0.0
    for hop_count in successful_hops.tolist():
        total += sum(model.sample(0, 0) for _ in range(hop_count))
    return total / successful_hops.size


# ---------------------------------------------------------------------------
# churn
# ---------------------------------------------------------------------------


def churn_spec(
    nodes: int = 1 << 10,
    occupancy: float = 0.5,
    links_per_node: int | None = None,
    rounds: int = 6,
    churn_rate: float = 0.05,
    crash_fraction: float = 0.5,
    searches: int = 100,
    recovery: str = RecoveryStrategy.BACKTRACK.value,
    seed: int = 0,
    engine: str = "object",
) -> ScenarioSpec:
    """Spec for the ``"churn"`` scenario.

    ``topology.nodes`` is the identifier-space size; ``extras.occupancy``
    of it is initially occupied (leaving room for joins).
    ``failures.levels`` carries the per-round churn rate — the natural
    ``repro sweep`` axis, e.g.::

        repro sweep churn --grid failures.levels=0.02,0.05,0.1 \\
            --grid engine=object,fastpath --set topology.nodes=2048
    """
    return ScenarioSpec(
        scenario="churn",
        topology=TopologySpec(kind="heuristic", nodes=nodes, links_per_node=links_per_node),
        failures=FailureSpec(kind="churn", levels=(churn_rate,)),
        routing=RoutingSpec(recovery=recovery),
        workload=WorkloadSpec(searches=searches),
        engine=engine,
        seed=seed,
        extras={
            "occupancy": occupancy,
            "rounds": rounds,
            "crash_fraction": crash_fraction,
            "latency_median": 1.0,
            "latency_sigma": 0.4,
        },
    )


def _churn_parameters(spec: ScenarioSpec) -> dict:
    """Shared spec decoding for the two churn scenarios."""
    occupancy = float(spec.extra("occupancy", 0.5))
    if not 0.0 < occupancy <= 1.0:
        raise SpecError(f"extras.occupancy must be in (0, 1], got {occupancy!r}")
    rounds = int(spec.extra("rounds", 6))
    if rounds < 1:
        raise SpecError(f"extras.rounds must be >= 1, got {rounds!r}")
    occupied = max(4, int(spec.topology.nodes * occupancy))
    return {
        "nodes": spec.topology.nodes,
        "occupied": occupied,
        "links_per_node": spec.topology.links_per_node,
        "rounds": rounds,
        "crash_fraction": float(spec.extra("crash_fraction", 0.5)),
        "searches": spec.workload.searches,
        "recovery": spec.routing.recovery_strategy(),
        "engine": spec.engine,
    }


@register_scenario(
    "churn",
    description="round-by-round join/leave/crash churn with batched repair: membership, repair traffic, and lookup quality per round (both engines, delta-driven fastpath)",
    defaults=churn_spec(),
)
def _churn(spec: ScenarioSpec) -> ScenarioOutcome:
    """One table per ``failures.levels`` entry (the churn-rate sweep axis);
    each rate runs an independently seeded network."""
    parameters = _churn_parameters(spec)
    rates = [float(level) for level in spec.failures.levels] or [0.05]
    tables: list[ExperimentTable] = []
    raw: list[tuple[float, list[ChurnRound]]] = []
    for index, rate in enumerate(rates):
        rows = run_churn_rounds(
            churn_rate=rate,
            # Always derived per level, so a rate's numbers do not change
            # when further levels are added to the sweep.
            seed=derive_seed(spec.seed, "churn", index),
            latency_median=float(spec.extra("latency_median", 1.0)),
            latency_sigma=float(spec.extra("latency_sigma", 0.4)),
            **parameters,
        )
        raw.append((rate, rows))
        table = ExperimentTable(
            title=(
                f"churn: n={parameters['nodes']} space, {parameters['occupied']} initial nodes, "
                f"rate {rate:.3f}/round, recovery {spec.routing.recovery}"
            ),
            columns=[
                "round", "joins", "leaves", "crashes", "live",
                "links_dropped", "links_regenerated", "ring_repairs",
                "repair_messages", "success_rate", "mean_hops", "mean_latency",
            ],
            notes="repair counters include departure-triggered and periodic repair; "
            "latency is the log-normal per-hop model over successful lookups.",
        )
        for record in rows:
            repair = record.total_repair()
            table.add_row(
                record.round_index, record.joins, record.leaves, record.crashes,
                record.live_nodes, repair.dead_links_dropped, repair.links_regenerated,
                repair.ring_repairs, repair.messages,
                round(record.success_rate, 6), round(record.mean_hops, 6),
                round(record.mean_latency, 6),
            )
        tables.append(table)
    return ScenarioOutcome(tables=tables, raw=raw)


# ---------------------------------------------------------------------------
# maintenance-cost
# ---------------------------------------------------------------------------


def maintenance_cost_spec(
    nodes: int = 1 << 10,
    occupancy: float = 0.5,
    links_per_node: int | None = None,
    rounds: int = 4,
    churn_rates: tuple[float, ...] = (0.01, 0.02, 0.05, 0.1),
    crash_fraction: float = 0.5,
    searches: int = 100,
    recovery: str = RecoveryStrategy.BACKTRACK.value,
    seed: int = 0,
    engine: str = "object",
) -> ScenarioSpec:
    """Spec for the ``"maintenance-cost"`` scenario.

    ``failures.levels`` is the churn-rate sweep; each level runs its own
    independently built network (seed derived per level).
    """
    return ScenarioSpec(
        scenario="maintenance-cost",
        topology=TopologySpec(kind="heuristic", nodes=nodes, links_per_node=links_per_node),
        failures=FailureSpec(kind="churn", levels=tuple(churn_rates)),
        routing=RoutingSpec(recovery=recovery),
        workload=WorkloadSpec(searches=searches),
        engine=engine,
        seed=seed,
        extras={
            "occupancy": occupancy,
            "rounds": rounds,
            "crash_fraction": crash_fraction,
        },
    )


@register_scenario(
    "maintenance-cost",
    description="repair traffic vs churn rate: maintenance counters, messages per event, and post-churn routability at each rate level",
    defaults=maintenance_cost_spec(),
)
def _maintenance_cost(spec: ScenarioSpec) -> ScenarioOutcome:
    parameters = _churn_parameters(spec)
    rates = [float(level) for level in spec.failures.levels] or [0.05]
    table = ExperimentTable(
        title=(
            f"maintenance cost: n={parameters['nodes']} space, "
            f"{parameters['occupied']} initial nodes, {parameters['rounds']} rounds per rate"
        ),
        columns=[
            "churn_rate", "events", "joins", "leaves", "crashes",
            "links_dropped", "links_regenerated", "ring_repairs", "messages",
            "messages_per_event", "final_success_rate", "final_mean_hops",
        ],
        notes="messages follow the paper's accounting: one per dead-link probe "
        "plus one search per regenerated link; the routability probe routes "
        "the workload's searches after the final repair pass.",
    )
    raw: list[tuple[float, list[ChurnRound]]] = []
    for index, rate in enumerate(rates):
        rows = run_churn_rounds(
            churn_rate=rate,
            seed=derive_seed(spec.seed, "maintenance-cost", index),
            **parameters,
        )
        raw.append((rate, rows))
        total = MaintenanceReport()
        joins = leaves = crashes = 0
        for record in rows:
            total = total.merge(record.total_repair())
            joins += record.joins
            leaves += record.leaves
            crashes += record.crashes
        events = joins + leaves + crashes
        last = rows[-1]
        table.add_row(
            rate, events, joins, leaves, crashes,
            total.dead_links_dropped, total.links_regenerated,
            total.ring_repairs, total.messages,
            round(total.messages / events, 6) if events else 0.0,
            round(last.success_rate, 6), round(last.mean_hops, 6),
        )
    return ScenarioOutcome(tables=[table], raw=raw)
