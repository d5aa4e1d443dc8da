"""The ``service`` scenario: sustained mixed traffic as a first-class run.

The ROADMAP's north star is an overlay *serving* heavy lookup traffic while
membership churns underneath it — not a one-shot figure.  The churn scenario
measures round-by-round repair quality; this scenario measures **steady
state**: a deterministic interleaved schedule of lookup batches, churn
bursts, and periodic batched repair, sustained over a configurable round
budget, reporting throughput-facing numbers (success rate, hop and modelled
latency p50/p99 per round and in aggregate).

Determinism contract
--------------------
Every table cell is a pure function of the spec: churn events come from
:class:`~repro.simulation.workload.ChurnWorkload` under a derived seed, the
interleave is computed by the pure :func:`build_service_schedule`, lookups by
:class:`~repro.simulation.workload.LookupWorkload`, and per-lookup latency by
the log-normal per-hop model consumed in query order.  Both engines therefore
produce **identical tables** (the CI ``service`` job asserts it): the object
engine walks the mutating graph, the fastpath engine follows it through
recorded snapshot deltas and rebases its batch router at every burst.

Wall-clock numbers — steady-state QPS, per-batch milliseconds — are real
measurements and therefore live in telemetry only (``service.qps`` gauge,
``service.lookup_ms`` histogram), never in the deterministic tables; the
delta-refresh cost rides the existing ``refresh.*`` instrumentation plus a
``service.refresh_ops`` counter.  p50/p99 quantiles reuse the telemetry
:class:`~repro.telemetry.core.Histogram` (fixed buckets, deterministic
interpolation) so the tables stay engine- and process-independent.

Registered scenario
-------------------
``service``
    One table pair per ``failures.levels`` entry (the churn-rate sweep
    axis): per-round service quality plus a steady-state summary.
    Grid-ready axes: ``failures.levels``, ``topology.nodes``, ``engine``,
    ``routing.recovery``, ``workload.searches``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.construction import build_heuristic_network
from repro.core.maintenance import MaintenanceDaemon, MaintenanceReport
from repro.core.routing import GreedyRouter, RecoveryStrategy
from repro.experiments.runner import ExperimentTable
from repro.fastpath import (
    BatchGreedyRouter,
    DeltaRecorder,
    DeltaSnapshot,
)
from repro.scenarios.churn import _route_round
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
from repro.telemetry.core import (
    HOP_BUCKETS,
    MS_BUCKETS,
    Histogram,
    current as telemetry_current,
)
from repro.util.rng import derive_seed

__all__ = [
    "ServiceRound",
    "build_service_schedule",
    "run_service_rounds",
    "service_spec",
]


def build_service_schedule(
    rounds: int,
    bursts_per_round: int,
    repair_every: int,
    events: list,
) -> list[tuple]:
    """The deterministic interleave: one op list driving the whole run.

    A *burst* is the scheduling quantum: each round is ``bursts_per_round``
    bursts, and each burst applies its slice of the churn schedule, then a
    batched repair pass when its global index hits the ``repair_every``
    cadence, then routes one lookup batch.  Returns the flat op list —
    ``("churn", round, burst, (event, ...))``, ``("repair", round, burst)``,
    ``("lookup", round, burst)`` — a pure function of its arguments, which is
    what the determinism unit test pins.

    ``events`` are :class:`~repro.simulation.workload.ChurnEvent` records
    with fractional times in ``[0, rounds)``; event ``time * bursts_per_round``
    picks the burst, clamped into range.
    """
    if rounds < 1:
        raise SpecError(f"rounds must be >= 1, got {rounds!r}")
    if bursts_per_round < 1:
        raise SpecError(f"bursts_per_round must be >= 1, got {bursts_per_round!r}")
    if repair_every < 1:
        raise SpecError(f"repair_every must be >= 1, got {repair_every!r}")
    total_bursts = rounds * bursts_per_round
    buckets: dict[int, list] = {}
    for event in events:
        slot = min(total_bursts - 1, max(0, int(event.time * bursts_per_round)))
        buckets.setdefault(slot, []).append(event)
    schedule: list[tuple] = []
    for round_index in range(rounds):
        for burst_index in range(bursts_per_round):
            slot = round_index * bursts_per_round + burst_index
            burst_events = buckets.get(slot)
            if burst_events:
                schedule.append(("churn", round_index, burst_index, tuple(burst_events)))
            if (slot + 1) % repair_every == 0:
                schedule.append(("repair", round_index, burst_index))
            schedule.append(("lookup", round_index, burst_index))
    return schedule


@dataclass
class ServiceRound:
    """Steady-state service quality measured over one round."""

    round_index: int
    joins: int = 0
    leaves: int = 0
    crashes: int = 0
    live_nodes: int = 0
    lookups: int = 0
    successes: int = 0
    repair: MaintenanceReport = field(default_factory=MaintenanceReport)
    hop_hist: Histogram = field(
        default_factory=lambda: Histogram("service.hops", HOP_BUCKETS)
    )
    latency_hist: Histogram = field(
        default_factory=lambda: Histogram("service.latency", MS_BUCKETS)
    )

    @property
    def events(self) -> int:
        return self.joins + self.leaves + self.crashes

    @property
    def success_rate(self) -> float:
        return self.successes / self.lookups if self.lookups else 0.0


def _query_latencies(
    successful_hops, median: float, sigma: float, seed: int
) -> list[float]:
    """Per-query end-to-end latencies under the log-normal per-hop model.

    Draws are consumed in query order (hop by hop), so the list — and every
    quantile over it — is deterministic in ``seed`` and identical across
    engines whenever the hop counts are.
    """
    if successful_hops.size == 0 or median <= 0:
        return []
    model = LogNormalLatency(median=median, sigma=sigma, seed=seed)
    totals: list[float] = []
    for hop_count in successful_hops.tolist():
        totals.append(sum(model.sample(0, 0) for _ in range(hop_count)))
    return totals


def run_service_rounds(
    nodes: int,
    occupied: int,
    links_per_node: int | None,
    rounds: int,
    bursts_per_round: int,
    repair_every: int,
    churn_rate: float,
    crash_fraction: float,
    searches: int,
    recovery: RecoveryStrategy,
    seed: int,
    engine: str,
    latency_median: float = 1.0,
    latency_sigma: float = 0.4,
) -> tuple[list[ServiceRound], Histogram, Histogram]:
    """Drive the interleaved service schedule; measure every round.

    Returns ``(rounds, hop_hist, latency_hist)`` — the two
    histograms aggregate every successful lookup of the whole run and feed
    the steady-state summary table.  On ``engine="fastpath"`` the batch
    router follows the overlay through recorded deltas, rebasing once per
    burst; numbers are identical to the object engine at the same seed.
    """
    tel = telemetry_current()
    construction = build_heuristic_network(
        nodes,
        occupied=occupied,
        links_per_node=links_per_node,
        seed=derive_seed(seed, "service-build"),
    )
    graph = construction.graph
    daemon = MaintenanceDaemon(construction)

    recorder = mirror = batch_router = None
    route_seed = derive_seed(seed, "service-route")
    if engine == "fastpath":
        recorder = DeltaRecorder.attach(graph)
        mirror = DeltaSnapshot.from_graph(graph)
        batch_router = BatchGreedyRouter(
            mirror.snapshot(), recovery=recovery, seed=route_seed
        )
    scalar_router = None
    if engine == "object":
        scalar_router = GreedyRouter(graph, recovery=recovery, seed=route_seed)

    members = sorted(graph.labels())
    events: list = []
    if churn_rate > 0:
        workload = ChurnWorkload(
            space_size=nodes,
            join_rate=max(churn_rate * len(members) / 2.0, 1e-9),
            leave_rate=max(churn_rate * len(members) / 2.0, 1e-9),
            crash_fraction=crash_fraction,
            seed=derive_seed(seed, "service-events"),
        )
        events = workload.schedule(duration=float(rounds), initial_members=members)
    schedule = build_service_schedule(rounds, bursts_per_round, repair_every, events)

    lookups = LookupWorkload(seed=derive_seed(seed, "service-lookups"))
    results = [ServiceRound(round_index=index) for index in range(rounds)]
    hop_hist = Histogram("service.hops", HOP_BUCKETS)
    latency_hist = Histogram("service.latency", MS_BUCKETS)
    route_seconds = 0.0
    total_lookups = 0
    try:
        for op in schedule:
            record = results[op[1]]
            if op[0] == "churn":
                for event in op[3]:
                    if event.action == "join" and not graph.has_node(event.address):
                        construction.add_point(event.address)
                        record.joins += 1
                    elif event.action == "leave" and graph.has_node(event.address):
                        record.repair = record.repair.merge(
                            daemon.handle_departure(event.address)
                        )
                        record.leaves += 1
                    elif event.action == "crash" and graph.is_alive(event.address):
                        graph.fail_node(event.address)
                        record.crashes += 1
            elif op[0] == "repair":
                record.repair = record.repair.merge(daemon.repair_all_batched())
            else:  # lookup
                live = sorted(graph.labels(only_alive=True))
                record.live_nodes = len(live)
                if len(live) < 2 or searches < 1:
                    continue
                pairs = lookups.pairs(live, searches)
                if tel is not None and recorder is not None:
                    tel.count("service.refresh_ops", len(recorder))
                if tel is not None:
                    # repro: allow[RPR001] — timing only reachable with telemetry on
                    started = time.perf_counter()
                success, hops = _route_round(
                    pairs, engine, graph, scalar_router,
                    recorder, mirror, batch_router, recovery, live,
                )
                if tel is not None:
                    # repro: allow[RPR001] — timing only reachable with telemetry on
                    elapsed = time.perf_counter() - started
                    route_seconds += elapsed
                    tel.observe("service.lookup_ms", elapsed * 1e3, buckets=MS_BUCKETS)
                    tel.count("service.lookups", len(pairs))
                total_lookups += len(pairs)
                record.lookups += len(pairs)
                record.successes += int(success.sum())
                successful_hops = hops[success]
                record.hop_hist.record_many(successful_hops)
                hop_hist.record_many(successful_hops)
                latencies = _query_latencies(
                    successful_hops,
                    median=latency_median,
                    sigma=latency_sigma,
                    seed=derive_seed(seed, "service-latency", op[1], op[2]),
                )
                record.latency_hist.record_many(latencies)
                latency_hist.record_many(latencies)
        if tel is not None:
            tel.count("service.rounds", rounds)
            if route_seconds > 0.0:
                tel.gauge("service.qps", total_lookups / route_seconds)
    finally:
        if recorder is not None:
            recorder.detach()
    return results, hop_hist, latency_hist


# ---------------------------------------------------------------------------
# service
# ---------------------------------------------------------------------------


def service_spec(
    nodes: int = 1 << 10,
    occupancy: float = 0.5,
    links_per_node: int | None = None,
    rounds: int = 4,
    bursts_per_round: int = 4,
    repair_every: int = 2,
    churn_rate: float = 0.02,
    crash_fraction: float = 0.5,
    searches: int = 40,
    recovery: str = RecoveryStrategy.BACKTRACK.value,
    seed: int = 0,
    engine: str = "object",
) -> ScenarioSpec:
    """Spec for the ``"service"`` scenario.

    ``topology.nodes`` is the identifier-space size; ``extras.occupancy`` of
    it is initially occupied.  ``workload.searches`` is the lookup-batch
    size *per burst* (``rounds * bursts_per_round`` batches total) and
    ``failures.levels`` carries the churn rate — the natural sweep axes,
    e.g.::

        repro sweep service --grid failures.levels=0.01,0.05 \\
            --grid engine=object,fastpath --set topology.nodes=2048
    """
    return ScenarioSpec(
        scenario="service",
        topology=TopologySpec(kind="heuristic", nodes=nodes, links_per_node=links_per_node),
        failures=FailureSpec(kind="churn", levels=(churn_rate,)),
        routing=RoutingSpec(recovery=recovery),
        workload=WorkloadSpec(searches=searches),
        engine=engine,
        seed=seed,
        extras={
            "occupancy": occupancy,
            "rounds": rounds,
            "bursts_per_round": bursts_per_round,
            "repair_every": repair_every,
            "crash_fraction": crash_fraction,
            "latency_median": 1.0,
            "latency_sigma": 0.4,
        },
    )


def _service_parameters(spec: ScenarioSpec) -> dict:
    """Decode and validate the service spec into run_service_rounds kwargs."""
    occupancy = float(spec.extra("occupancy", 0.5))
    if not 0.0 < occupancy <= 1.0:
        raise SpecError(f"extras.occupancy must be in (0, 1], got {occupancy!r}")
    rounds = int(spec.extra("rounds", 4))
    if rounds < 1:
        raise SpecError(f"extras.rounds must be >= 1, got {rounds!r}")
    bursts_per_round = int(spec.extra("bursts_per_round", 4))
    if bursts_per_round < 1:
        raise SpecError(
            f"extras.bursts_per_round must be >= 1, got {bursts_per_round!r}"
        )
    repair_every = int(spec.extra("repair_every", 2))
    if repair_every < 1:
        raise SpecError(f"extras.repair_every must be >= 1, got {repair_every!r}")
    return {
        "nodes": spec.topology.nodes,
        "occupied": max(4, int(spec.topology.nodes * occupancy)),
        "links_per_node": spec.topology.links_per_node,
        "rounds": rounds,
        "bursts_per_round": bursts_per_round,
        "repair_every": repair_every,
        "crash_fraction": float(spec.extra("crash_fraction", 0.5)),
        "searches": spec.workload.searches,
        "recovery": spec.routing.recovery_strategy(),
        "engine": spec.engine,
        "latency_median": float(spec.extra("latency_median", 1.0)),
        "latency_sigma": float(spec.extra("latency_sigma", 0.4)),
    }


def _quantiles(histogram: Histogram) -> tuple[float, float]:
    return round(histogram.quantile(0.5), 6), round(histogram.quantile(0.99), 6)


@register_scenario(
    "service",
    description="sustained mixed traffic: interleaved lookup batches, churn bursts, and periodic batched repair over a round budget — per-round and steady-state success/hop/latency quantiles (both engines, delta-driven fastpath; QPS in telemetry)",
    defaults=service_spec(),
)
def _service(spec: ScenarioSpec) -> ScenarioOutcome:
    """One per-round table plus a steady-state summary per churn-rate level."""
    parameters = _service_parameters(spec)
    rates = [float(level) for level in spec.failures.levels] or [0.02]
    tables: list[ExperimentTable] = []
    raw: list[tuple[float, list[ServiceRound]]] = []
    for index, rate in enumerate(rates):
        rows, hop_hist, latency_hist = run_service_rounds(
            churn_rate=rate,
            # Derived per level, so a level's numbers never change when the
            # sweep grows more levels.
            seed=derive_seed(spec.seed, "service", index),
            **parameters,
        )
        raw.append((rate, rows))
        table = ExperimentTable(
            title=(
                f"service: n={parameters['nodes']} space, "
                f"{parameters['occupied']} initial nodes, rate {rate:.3f}/round, "
                f"{parameters['bursts_per_round']} bursts/round, "
                f"recovery {spec.routing.recovery}"
            ),
            columns=[
                "round", "events", "joins", "leaves", "crashes", "live",
                "lookups", "success_rate", "hop_p50", "hop_p99",
                "latency_p50", "latency_p99", "repair_messages",
            ],
            notes="quantiles interpolate the fixed-bucket telemetry histograms "
            "(deterministic); latency is the log-normal per-hop model over "
            "successful lookups; wall-clock QPS and per-batch milliseconds "
            "are telemetry-only (service.qps / service.lookup_ms).",
        )
        for record in rows:
            hop_p50, hop_p99 = _quantiles(record.hop_hist)
            lat_p50, lat_p99 = _quantiles(record.latency_hist)
            table.add_row(
                record.round_index, record.events, record.joins, record.leaves,
                record.crashes, record.live_nodes, record.lookups,
                round(record.success_rate, 6), hop_p50, hop_p99,
                lat_p50, lat_p99, record.repair.messages,
            )
        tables.append(table)

        total_lookups = sum(record.lookups for record in rows)
        total_successes = sum(record.successes for record in rows)
        total_repair = MaintenanceReport()
        for record in rows:
            total_repair = total_repair.merge(record.repair)
        hop_p50, hop_p99 = _quantiles(hop_hist)
        lat_p50, lat_p99 = _quantiles(latency_hist)
        summary = ExperimentTable(
            title=f"service steady state: rate {rate:.3f}/round",
            columns=[
                "rounds", "lookups", "events", "success_rate",
                "hop_p50", "hop_p99", "latency_p50", "latency_p99",
                "repair_messages",
            ],
            notes="aggregates over every lookup batch of the run.",
        )
        summary.add_row(
            parameters["rounds"], total_lookups,
            sum(record.events for record in rows),
            round(total_successes / total_lookups, 6) if total_lookups else 0.0,
            hop_p50, hop_p99, lat_p50, lat_p99, total_repair.messages,
        )
        tables.append(summary)
    return ScenarioOutcome(tables=tables, raw=raw)
