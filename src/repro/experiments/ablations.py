"""Ablation experiments for the design choices DESIGN.md calls out.

* **Link-replacement strategy** (Section 5): inverse-distance replacement vs
  the "replace the oldest link" alternative vs never replacing.  The paper
  reports the first two are nearly indistinguishable; never replacing should
  visibly distort the link-length distribution for late arrivals.
* **Backtrack depth**: the paper fixes the history to 5 nodes; the ablation
  sweeps the depth and measures the failed-search fraction.
* **Power-law exponent**: exponent 1 is optimal on the line (Kleinberg);
  exponents far from 1 should degrade routing, which is exactly what the
  paper's lower bound predicts for poorly chosen distributions.
* **Byzantine routing** (Section 7 future work): failed-search fraction vs
  fraction of Byzantine nodes, for plain greedy routing and for the redundant
  multi-path router.
"""

from __future__ import annotations

import numpy as np

from repro.core.builder import build_ideal_network
from repro.core.byzantine import ByzantineAwareRouter, RedundantRouter
from repro.core.construction import (
    InverseDistanceReplacement,
    NeverReplace,
    OldestLinkReplacement,
)
from repro.core.failures import ByzantineBehavior, ByzantineModel, NodeFailureModel
from repro.core.routing import GreedyRouter, RecoveryStrategy
from repro.experiments.figure5 import _run_figure5_impl
from repro.experiments.runner import ExperimentTable
from repro.simulation.workload import LookupWorkload

def _run_replacement_ablation_impl(
    nodes: int = 1 << 10,
    links_per_node: int | None = None,
    networks: int = 3,
    seed: int = 0,
) -> ExperimentTable:
    """The replacement-policy ablation (scenario ``"ablation-replacement"``)."""
    policies = {
        "inverse-distance": InverseDistanceReplacement(),
        "oldest-link": OldestLinkReplacement(),
        "never-replace": NeverReplace(),
    }
    table = ExperimentTable(
        title="Ablation: link-replacement policy vs ideal 1/d distribution",
        columns=["policy", "max_absolute_error", "total_variation"],
        notes="The paper reports inverse-distance and oldest-link are nearly indistinguishable.",
    )
    for name, policy in policies.items():
        result = _run_figure5_impl(
            nodes=nodes,
            links_per_node=links_per_node,
            networks=networks,
            replacement_policy=policy,
            seed=seed,
        )
        table.add_row(name, result.max_absolute_error, result.total_variation)
    return table


def _run_backtrack_depth_ablation_impl(
    nodes: int = 1 << 12,
    depths: list[int] | None = None,
    failure_level: float = 0.5,
    searches: int = 300,
    seed: int = 0,
) -> ExperimentTable:
    """The backtrack-depth ablation (scenario ``"ablation-backtrack"``)."""
    if depths is None:
        depths = [1, 2, 5, 10, 20]
    build = build_ideal_network(nodes, seed=seed)
    graph = build.graph
    model = NodeFailureModel(failure_level, seed=seed + 1)
    model.apply(graph)
    live = graph.labels(only_alive=True)
    pairs = LookupWorkload(seed=seed + 2).pairs(live, searches)

    table = ExperimentTable(
        title=f"Ablation: backtrack depth at {failure_level:.0%} failed nodes (n={nodes})",
        columns=["backtrack_depth", "failed_fraction", "mean_hops_successful"],
    )
    for depth in depths:
        router = GreedyRouter(
            graph=graph,
            recovery=RecoveryStrategy.BACKTRACK,
            backtrack_depth=depth,
            seed=seed + 3,
        )
        failures = 0
        hops: list[int] = []
        for source, target in pairs:
            route = router.route(source, target)
            if route.success:
                hops.append(route.hops)
            else:
                failures += 1
        table.add_row(
            depth, failures / len(pairs), float(np.mean(hops)) if hops else 0.0
        )
    model.repair(graph)
    return table


def _run_exponent_ablation_impl(
    nodes: int = 1 << 12,
    exponents: list[float] | None = None,
    searches: int = 300,
    seed: int = 0,
) -> ExperimentTable:
    """The exponent ablation (scenario ``"ablation-exponent"``)."""
    if exponents is None:
        exponents = [0.0, 0.5, 1.0, 1.5, 2.0]
    table = ExperimentTable(
        title=f"Ablation: link-distribution exponent (n={nodes}, l=lg n)",
        columns=["exponent", "mean_hops", "failed_fraction"],
        notes="Exponent 1 (harmonic) is the paper's choice and Kleinberg's 1-D optimum.",
    )
    for index, exponent in enumerate(exponents):
        build = build_ideal_network(nodes, seed=seed + index, exponent=exponent)
        live = build.graph.labels(only_alive=True)
        pairs = LookupWorkload(seed=seed + 100 + index).pairs(live, searches)
        router = GreedyRouter(graph=build.graph, seed=seed + 200 + index)
        failures = 0
        hops: list[int] = []
        for source, target in pairs:
            route = router.route(source, target)
            if route.success:
                hops.append(route.hops)
            else:
                failures += 1
        table.add_row(
            exponent, float(np.mean(hops)) if hops else 0.0, failures / len(pairs)
        )
    return table


def _run_byzantine_experiment_impl(
    nodes: int = 1 << 11,
    fractions: list[float] | None = None,
    behavior: str = ByzantineBehavior.DROP,
    redundancy: int = 3,
    searches: int = 200,
    seed: int = 0,
) -> ExperimentTable:
    """The Byzantine-routing extension (scenario ``"byzantine"``).

    This is the Section-7 future-work extension: plain greedy routing fails
    whenever a compromised node sits on the greedy path, while redundant
    multi-path routing tolerates a substantially larger compromised fraction.
    """
    if fractions is None:
        fractions = [0.0, 0.05, 0.1, 0.2, 0.3]
    build = build_ideal_network(nodes, seed=seed)
    graph = build.graph
    table = ExperimentTable(
        title=f"Extension: Byzantine nodes ({behavior}) — plain vs redundant routing (n={nodes})",
        columns=[
            "byzantine_fraction",
            "plain_failed_fraction",
            "redundant_failed_fraction",
            "plain_mean_hops",
            "redundant_mean_hops",
        ],
    )
    for index, fraction in enumerate(fractions):
        adversary = ByzantineModel(fraction, behavior=behavior, seed=seed + 10 + index)
        adversary.apply(graph)
        live = [
            label for label in graph.labels(only_alive=True)
            if not adversary.is_compromised(label)
        ]
        pairs = LookupWorkload(seed=seed + 20 + index).pairs(live, searches)

        plain = ByzantineAwareRouter(graph=graph, adversary=adversary, seed=seed + 30 + index)
        redundant = RedundantRouter(
            graph=graph, adversary=adversary, redundancy=redundancy, seed=seed + 40 + index
        )
        plain_failures, plain_hops = 0, []
        redundant_failures, redundant_hops = 0, []
        for source, target in pairs:
            plain_result = plain.route(source, target)
            if plain_result.success:
                plain_hops.append(plain_result.hops)
            else:
                plain_failures += 1
            redundant_result = redundant.route(source, target)
            if redundant_result.success:
                redundant_hops.append(redundant_result.hops)
            else:
                redundant_failures += 1
        table.add_row(
            fraction,
            plain_failures / len(pairs),
            redundant_failures / len(pairs),
            float(np.mean(plain_hops)) if plain_hops else 0.0,
            float(np.mean(redundant_hops)) if redundant_hops else 0.0,
        )
        adversary.repair(graph)
    return table
