"""The benchmark's three workloads.

Each workload is a closed loop with one client in one thread: the next call
into the program is issued when the previous one returns.  A workload has
four steps, which :mod:`run` drives:

``setup(seed)``
    Import the program and make it ready to serve.  Timed as ``setup_s``
    and repeated; each repetition re-imports ``repro`` from scratch.
``timed(state, seconds, count=None)``
    The measured phase: one unit of work repeated for ``seconds``, or
    exactly ``count`` times.  Returns a :class:`Timed` with the fastest and
    the median unit and the numbers the other metrics are computed from.
``check(state, outcomes)``
    Compare every output with its reference; returns a list of problems.
``close(state)``
    Release what setup acquired (shared-memory segments above all).

``arena-serve`` adds ``prepare(state)`` (identity check and input drawing,
before any timing) and ``cold(state)`` (the cold-worker measurement).

A unit of work is one pass over a scenario's pieces, one ``run(spec)``
each, or one serving cycle of three rounds for ``arena-serve``.  A piece or
a round lasts 0.03-0.15 s, so a run repeats each many times, and ``run_s``
sums each one's fastest repetition (:func:`pace`).  On a host shared with
other tenants, their load comes and goes at every time scale and only ever
adds time: the median of a run moves with it, while the fastest of many
short repetitions mostly does not (``README.md`` gives figures).

Inputs come from the workload seed only.  References are pinned at
:data:`PINNED_SEED` under ``references/``; other seeds are checked against
invariants that hold for every seed (see each ``check``).
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from layers import import_layers

REFERENCES = Path(__file__).resolve().parent / "references"
PINNED_SEED = 0

clock = time.perf_counter


def purge_program() -> None:
    """Forget every imported ``repro`` module, so the next import is fresh."""
    for name in [name for name in sys.modules if name == "repro" or name.startswith("repro.")]:
        del sys.modules[name]


def peak_rss_mb() -> float:
    """This process's peak resident set size so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def load_reference(workload: str, seed: int) -> Any:
    """The pinned reference for ``workload`` at ``seed``, or ``None``."""
    path = REFERENCES / f"{workload}.seed{seed}.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text())


def pace(durations: list[list[float]]) -> tuple[float, float]:
    """(fastest, median) seconds of one unit of work, from each piece's repetitions.

    A unit is one repetition of every piece; its fastest time sums each
    piece's fastest repetition, and its median time each piece's median.
    """
    return (sum(min(times) for times in durations),
            sum(statistics.median(times) for times in durations))


@dataclass
class Timed:
    """What one timed phase measured."""

    #: Seconds of one unit of work, the fastest repetition in the phase.
    run_s: float
    #: Seconds of one unit of work, the median repetition in the phase.
    median_s: float
    #: Lookups in one unit of work.
    unit_lookups: int
    #: Units of work done in the phase.
    units: float
    #: Wall time of the whole phase (all repetitions).
    wall_s: float
    peak_rss_mb: float
    lookups: int
    successes: int
    successful_hops: int
    #: Time inside top-level traced spans during the phase (0 untraced).
    attributed_s: float = 0.0
    outputs: list = field(default_factory=list)
    extra: dict[str, float] = field(default_factory=dict)


# --------------------------------------------------------------------------- #
# Registered scenarios: figure6 and churn-repair
# --------------------------------------------------------------------------- #


#: A scenario's timed phase makes at least this many passes over its pieces.
MIN_PASSES = 3


def variant_seeds(seed: int, count: int) -> list[int]:
    """``count`` scenario seeds of one workload seed; distinct across workload seeds."""
    return [1000 * seed + index for index in range(count)]


def piece_key(spec: Any) -> tuple[int, tuple[float, ...]]:
    """What tells a scenario's pieces apart: the seed and the levels."""
    return spec.seed, tuple(spec.failures.levels)


@dataclass
class Scenarios:
    """What a scenario's set-up leaves behind: one spec per piece."""

    seed: int
    specs: list


class ScenarioWorkload:
    """A registered scenario run through ``repro.scenarios.run``.

    Set-up is import plus spec resolution: the network builds are part of
    producing the figure or table, so they sit in the timed phase.  The
    workload is split into pieces of a fraction of a second, one spec each:
    :attr:`variants` seeds derived from the workload seed, times the
    overrides of :meth:`piece_overrides`.  The unit of work is one pass of
    ``run(spec)`` over the pieces, and every run starts with an empty
    snapshot cache, as a ``repro run`` user's process does.  Its time is the
    sum over the pieces of each one's fastest run.
    """

    name: str = ""
    scenario: str = ""
    overrides: dict[str, Any] = {}
    #: Seeds per workload seed, so that one run averages over as many networks.
    variants: int = 1

    def piece_overrides(self) -> list[dict[str, Any]]:
        """The overrides of each piece at one seed."""
        return [self.overrides]

    def setup(self, seed: int, fresh: bool = True) -> Scenarios:
        if fresh:
            purge_program()
        import_layers()
        from repro.scenarios.registry import get_scenario

        scenario = get_scenario(self.scenario)
        return Scenarios(seed, [scenario.make_spec(overrides, seed=variant)
                                for variant in variant_seeds(seed, self.variants)
                                for overrides in self.piece_overrides()])

    def close(self, state: Any) -> None:
        pass

    def timed(self, state: Scenarios, seconds: float, count: int | None = None,
              attributed: Callable[[], float] = lambda: 0.0) -> Timed:
        """Passes over the specs for ``seconds`` (at least :data:`MIN_PASSES`), or exactly ``count``."""
        from repro.fastpath import snapshot_cache_clear
        from repro.scenarios import run

        specs = state.specs
        results: list[list] = [[] for _ in specs]
        durations: list[list[float]] = [[] for _ in specs]
        passes = 0
        attributed_before = attributed()
        started = clock()
        while passes < (count or MIN_PASSES) or (count is None and clock() - started < seconds):
            for index, spec in enumerate(specs):
                snapshot_cache_clear()
                begun = clock()
                results[index].append(run(spec))
                durations[index].append(clock() - begun)
            passes += 1
        wall = clock() - started
        attributed_s = attributed() - attributed_before
        rss = peak_rss_mb()
        tallies = [self.tally(runs[0]) for runs in results]
        lookups, successes, hops = (sum(column) for column in zip(*tallies))
        fastest, median = pace(durations)
        return Timed(
            run_s=fastest,
            median_s=median,
            unit_lookups=lookups,
            units=passes,
            wall_s=wall,
            peak_rss_mb=rss,
            lookups=lookups * passes,
            successes=successes * passes,
            successful_hops=hops * passes,
            attributed_s=attributed_s,
            outputs=results,
        )

    def tally(self, result: Any) -> tuple[int, int, int]:
        """(lookups, successes, total hops of successes) of one run."""
        raise NotImplementedError

    @staticmethod
    def tables(result: Any) -> list:
        return result.to_json_dict(include_timing=False)["tables"]

    def check(self, state: Scenarios, outcomes: list[Timed]) -> list[str]:
        problems: list[str] = []
        reference = load_reference(self.name, state.seed)
        pinned = None if reference is None else {
            (piece["seed"], tuple(piece["levels"])): piece["tables"] for piece in reference["pieces"]
        }
        for index, spec in enumerate(state.specs):
            results = [result for outcome in outcomes for result in outcome.outputs[index]]
            first = self.tables(results[0])
            for number, result in enumerate(results):
                if result.engine_used != "fastpath":
                    problems.append(f"{piece_key(spec)} run {number} used engine {result.engine_used!r}")
                if self.tables(result) != first:
                    problems.append(f"{piece_key(spec)} run {number} differs from its run 0")
            if pinned is not None and pinned.get(piece_key(spec)) != first:
                problems.append(f"tables differ from the reference pinned for {piece_key(spec)}")
            problems += self.check_invariants(spec, first)
        return problems

    def check_invariants(self, spec: Any, tables: list) -> list[str]:
        """Checks that hold at every seed; a list of problems."""
        raise NotImplementedError


def _rows(table: dict) -> list[dict]:
    return [dict(zip(table["columns"], row)) for row in table["rows"]]


#: The ``figure6`` scenario's default failure levels, one piece each.
FIGURE6_LEVELS = tuple(round(0.1 * step, 1) for step in range(9))


class Figure6(ScenarioWorkload):
    """Figure 6 with each failure level run as its own piece.

    A level's run builds its own network, as the full figure does; its
    seeds derive from the level's index within the spec, which is 0 for a
    one-level spec, so the pieces are other networks than the full figure's.
    """

    name = "figure6"
    scenario = "figure6"
    overrides = {"topology.nodes": 4096, "workload.searches": 500, "engine": "fastpath"}

    def piece_overrides(self) -> list[dict[str, Any]]:
        return [{**self.overrides, "failures.levels": (level,)} for level in FIGURE6_LEVELS]

    def tally(self, result: Any) -> tuple[int, int, int]:
        raw = result.raw
        searches = raw.parameters["searches_per_point"]
        lookups = successes = 0
        hops = 0.0
        for strategy, fractions in raw.failed_fraction.items():
            for fraction, mean in zip(fractions, raw.mean_hops[strategy]):
                succeeded = searches - round(fraction * searches)
                lookups += searches
                successes += succeeded
                hops += mean * succeeded
        return lookups, successes, round(hops)

    def check_invariants(self, spec: Any, tables: list) -> list[str]:
        """Checks that hold at every seed.

        Every strategy routes the same pairs, and random re-route and
        backtracking only depart from plain greedy routing where it dead-ends,
        so neither may fail more searches than terminate.  With no failed
        nodes no search fails and all strategies take the same paths.  Each
        cell must also agree with the pinned seed's within sampling error.
        """
        problems: list[str] = []
        failed, hops = (_rows(table) for table in tables)
        strategies = tables[0]["columns"][1:]
        for row, hop_row in zip(failed, hops):
            level = row["failed_nodes"]
            for strategy in ("random-reroute", "backtrack"):
                if row[strategy] > row["terminate"]:
                    problems.append(f"{strategy} fails more than terminate at p={level}")
            if level == 0:
                if any(row[s] != 0 for s in strategies):
                    problems.append("searches failed with no failed nodes")
                if len({hop_row[s] for s in strategies}) != 1:
                    problems.append("strategies disagree with no failed nodes")
        key = (variant_seeds(PINNED_SEED, 1)[0], tuple(spec.failures.levels))
        reference = load_reference(self.name, PINNED_SEED) or {"pieces": []}
        pinned = [piece["tables"] for piece in reference["pieces"]
                  if (piece["seed"], tuple(piece["levels"])) == key]
        if not pinned:
            return problems + [f"no reference pinned for {key}"]
        searches = spec.workload.searches
        ref_failed, ref_hops = (_rows(table) for table in pinned[0])
        for row, hop_row, ref_row, ref_hop_row in zip(failed, hops, ref_failed, ref_hops):
            for strategy in strategies:
                p = ref_row[strategy]
                # Two independent estimates of a failure rate from `searches`
                # samples each, compared at their pooled rate.  Each seed
                # also builds other networks, which at most doubles the
                # binomial spread.
                pooled = (row[strategy] + p) / 2.0
                spread = 2.0 * math.sqrt(2.0 * pooled * (1.0 - pooled) / searches)
                tolerance = 6.0 * spread + 1.0 / searches
                if abs(row[strategy] - p) > tolerance:
                    problems.append(
                        f"{strategy} at p={row['failed_nodes']}: failed fraction "
                        f"{row[strategy]:.4f} vs pinned {p:.4f}"
                    )
                # A mean over the successful searches; a search's hop count is
                # taken to spread by at most the mean (backtracking's long
                # detours at high failure levels come close).
                successes = max(1.0, (1.0 - p) * searches)
                relative = 8.0 * math.sqrt(2.0 / successes) + 0.02
                if abs(hop_row[strategy] - ref_hop_row[strategy]) > relative * ref_hop_row[strategy]:
                    problems.append(
                        f"{strategy} at p={row['failed_nodes']}: mean hops "
                        f"{hop_row[strategy]:.3f} vs pinned {ref_hop_row[strategy]:.3f}"
                    )
        return problems


class ChurnRepair(ScenarioWorkload):
    name = "churn-repair"
    scenario = "churn"
    overrides = {"topology.nodes": 512, "engine": "fastpath"}
    variants = 4

    def tally(self, result: Any) -> tuple[int, int, int]:
        searches = result.spec.workload.searches
        lookups = successes = 0
        hops = 0.0
        for _rate, rounds in result.raw:
            for record in rounds:
                succeeded = round(record.success_rate * searches)
                lookups += searches
                successes += succeeded
                hops += record.mean_hops * succeeded
        return lookups, successes, round(hops)

    def check_invariants(self, spec: Any, tables: list) -> list[str]:
        """The fastpath engine's tables must equal the object engine's."""
        from repro.scenarios import run

        baseline = run(spec.with_overrides({"engine": "object"}))
        if self.tables(baseline) != tables:
            return ["fastpath tables differ from the object engine's"]
        return []


# --------------------------------------------------------------------------- #
# arena-serve: the 10^6-node shared-memory serving path
# --------------------------------------------------------------------------- #

NODES = 1 << 20
BATCH = 5000
BURST = 1000
REVIVE_EVERY = 3
#: The first batch is cold, so 100 steady batches remain: 10 lie beyond p90.
MIN_ROUNDS = 101
MAX_ROUNDS = 300
COLD_REPEATS = 3


@dataclass
class Round:
    ops: list
    sources: np.ndarray
    targets: np.ndarray


def make_rounds(seed: int) -> list[Round]:
    """The serving workload's inputs: a liveness burst and a batch per round.

    Bursts fail ``BURST`` live nodes, except every ``REVIVE_EVERY``-th round,
    which revives every failed node.  Lookups run between distinct live nodes.
    """
    from repro.fastpath.delta import OP_FAIL, OP_REVIVE

    rng = np.random.default_rng([seed, 0x5E17E])
    alive = np.ones(NODES, dtype=bool)
    failed: list[int] = []
    rounds: list[Round] = []
    for index in range(MAX_ROUNDS):
        if (index + 1) % REVIVE_EVERY == 0 and failed:
            ops = [(OP_REVIVE, label) for label in failed]
            alive[failed] = True
            failed = []
        else:
            victims = rng.choice(np.flatnonzero(alive), size=BURST, replace=False)
            alive[victims] = False
            failed.extend(int(label) for label in victims)
            ops = [(OP_FAIL, int(label)) for label in victims]
        rounds.append(Round(ops, *draw_pairs(rng, np.flatnonzero(alive), BATCH)))
    return rounds


def draw_pairs(rng: np.random.Generator, live: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """``count`` (source, target) pairs of distinct live labels."""
    sources = live[rng.integers(0, live.size, size=count)]
    targets = live[rng.integers(0, live.size, size=count)]
    clash = sources == targets
    while clash.any():
        targets[clash] = live[rng.integers(0, live.size, size=int(clash.sum()))]
        clash = sources == targets
    return sources.astype(np.int64), targets.astype(np.int64)


def digest(result: Any) -> str:
    """A short digest of one batch's per-lookup success and hop arrays."""
    payload = np.asarray(result.success, dtype=bool).tobytes()
    payload += np.asarray(result.hops, dtype=np.int64).tobytes()
    return hashlib.blake2b(payload, digest_size=8).hexdigest()


@dataclass
class Service:
    """Everything set-up leaves behind for the serving loop."""

    seed: int
    heap: Any
    owner: Any
    mapper: Any
    mirror: Any
    router: Any
    rounds: list[Round] = field(default_factory=list)
    probe: tuple[np.ndarray, np.ndarray] | None = None
    cold_digests: list[str] = field(default_factory=list)

    def fresh_server(self) -> None:
        """A new delta mirror and router over the shared segment."""
        from repro.fastpath import BatchGreedyRouter, DeltaSnapshot

        self.mirror = DeltaSnapshot.from_snapshot(self.mapper.snapshot())
        self.router = BatchGreedyRouter(self.mirror.snapshot(), seed=self.seed)

    def close(self) -> None:
        self.mirror = self.router = None
        for arena in (self.mapper, self.owner):
            if arena is not None:
                arena.close()
        if self.owner is not None:
            self.owner.unlink()


class ArenaServe:
    """Serve lookups from a shared-memory 10^6-node snapshot under liveness churn.

    Set-up builds the snapshot directly (no object graph), packs it into a
    shared-memory arena, maps it again by its spec, wraps the mapping in a
    delta mirror and puts a router on it.  Each round applies a burst of
    liveness flips (``apply`` + ``snapshot`` + ``rebase``: the refresh) and
    routes one batch.  The loop runs for ``seconds`` and at least
    :data:`MIN_ROUNDS` rounds.  The unit of work is one cycle of
    :data:`REVIVE_EVERY` rounds (two failure bursts, then a revive burst);
    its time is the sum over the cycle's positions of the fastest round at
    that position.
    """

    name = "arena-serve"

    def setup(self, seed: int, fresh: bool = True) -> Service:
        if fresh:
            purge_program()
        import_layers()
        from repro.fastpath import SnapshotArena, build_snapshot

        heap = build_snapshot(NODES, seed=seed, symmetric_neighbors=False)
        service = Service(seed, heap, None, None, None, None)
        try:
            service.owner = SnapshotArena.create(heap)
            service.mapper = SnapshotArena.attach(service.owner.spec)
            service.fresh_server()
        except BaseException:
            service.close()
            raise
        return service

    def close(self, service: Service) -> None:
        service.close()

    def prepare(self, service: Service) -> list[str]:
        """Check arena against heap and draw the inputs; not timed."""
        from repro.fastpath.delta import assert_snapshots_identical

        problems = []
        try:
            assert_snapshots_identical(service.mapper.snapshot(), service.heap, "arena vs heap")
        except AssertionError as error:
            problems.append(str(error))
        service.rounds = make_rounds(service.seed)
        service.probe = draw_pairs(np.random.default_rng([service.seed, 0xC01D]), np.arange(NODES), BATCH)
        return problems

    def cold(self, service: Service) -> float:
        """Median ms of a fresh attach + fresh router + first batch."""
        from repro.fastpath import BatchGreedyRouter, SnapshotArena

        durations = []
        for _ in range(COLD_REPEATS):
            begun = clock()
            arena = SnapshotArena.attach(service.owner.spec)
            try:
                router = BatchGreedyRouter(arena.snapshot(), seed=service.seed)
                result = router.route_batch(*service.probe)
                durations.append(clock() - begun)
                service.cold_digests.append(digest(result))
            finally:
                router = None
                arena.close()
        return 1e3 * statistics.median(durations)

    def timed(self, service: Service, seconds: float, count: int | None = None,
              attributed: Callable[[], float] = lambda: 0.0) -> Timed:
        """Serve rounds for ``seconds`` (at least :data:`MIN_ROUNDS`), or exactly ``count``."""
        from repro.fastpath import SnapshotDelta

        mirror, router = service.mirror, service.router
        batch_s: list[float] = []
        refresh_s: list[float] = []
        results = []
        attributed_before = attributed()
        started = clock()
        for round_ in service.rounds:
            begun = clock()
            mirror.apply(SnapshotDelta(ops=round_.ops))
            router.rebase(mirror.snapshot())
            served = clock()
            results.append(router.route_batch(round_.sources, round_.targets))
            done = clock()
            refresh_s.append(served - begun)
            batch_s.append(done - served)
            if count is not None:
                if len(results) >= count:
                    break
            elif len(results) >= MIN_ROUNDS and done - started >= seconds:
                break
        wall = clock() - started
        attributed_s = attributed() - attributed_before
        rss = peak_rss_mb()
        lookups = sum(len(result) for result in results)
        successes = sum(int(result.success.sum()) for result in results)
        hops = sum(int(result.hops[result.success].sum()) for result in results)
        steady = np.asarray(batch_s[1:]) * 1e3
        round_s = [refresh + batch for refresh, batch in zip(refresh_s, batch_s)]
        fastest, median = pace([round_s[position::REVIVE_EVERY] for position in range(REVIVE_EVERY)])
        return Timed(
            run_s=fastest,
            median_s=median,
            unit_lookups=REVIVE_EVERY * BATCH,
            units=len(results) / REVIVE_EVERY,
            wall_s=wall,
            peak_rss_mb=rss,
            lookups=lookups,
            successes=successes,
            successful_hops=hops,
            attributed_s=attributed_s,
            outputs=[digest(result) for result in results],
            extra={
                "batch_ms_p50": float(np.percentile(steady, 50)),
                "batch_ms_p90": float(np.percentile(steady, 90)),
                "refresh_ms_p50": 1e3 * statistics.median(refresh_s),
            },
        )

    def check(self, service: Service, outcomes: list[Timed]) -> list[str]:
        """Digests agree across loops, with the pin, and with a heap-only replay.

        The replay rebuilds chosen rounds' liveness on the heap snapshot,
        with no arena and no delta layer, and routes them with a new router.
        """
        from repro.fastpath import BatchGreedyRouter
        from repro.fastpath.delta import OP_FAIL

        problems: list[str] = []
        digests = outcomes[0].outputs
        for index, outcome in enumerate(outcomes[1:], start=1):
            shared = min(len(digests), len(outcome.outputs))
            if outcome.outputs[:shared] != digests[:shared]:
                problems.append(f"loop {index} differs from loop 0")
        reference = load_reference(self.name, service.seed)
        if reference is not None:
            pinned = reference["round_digests"]
            if digests[: len(pinned)] != pinned[: len(digests)]:
                problems.append(f"round digests differ from the reference pinned at seed {service.seed}")
        probe = digest(BatchGreedyRouter(service.heap, seed=service.seed).route_batch(*service.probe))
        if any(value != probe for value in service.cold_digests):
            problems.append("a cold batch differs from the heap snapshot's")
        chosen = {0, len(digests) // 2, len(digests) - 1}
        alive = np.ones(NODES, dtype=bool)
        for index, round_ in enumerate(service.rounds[: len(digests)]):
            labels = np.fromiter((op[1] for op in round_.ops), dtype=np.int64, count=len(round_.ops))
            alive[labels] = round_.ops[0][0] != OP_FAIL
            if index in chosen:
                router = BatchGreedyRouter(service.heap.with_alive(alive.copy()), seed=service.seed)
                if digest(router.route_batch(round_.sources, round_.targets)) != digests[index]:
                    problems.append(f"round {index} differs from its heap-only replay")
        return problems


WORKLOADS: dict[str, Callable[[], Any]] = {
    "figure6": Figure6,
    "churn-repair": ChurnRepair,
    "arena-serve": ArenaServe,
}
