"""Figure 5: link-length distribution of the construction heuristic.

The paper builds ten networks of 2^14 nodes with 14 links each using the
Section-5 heuristic, averages the empirical distribution of long-distance
link lengths, and compares it to the ideal inverse power-law distribution
with exponent 1.  Figure 5(a) overlays the two distributions (log-log);
Figure 5(b) plots the absolute error, whose largest magnitude is roughly
0.022 at length 2.

The ``figure5`` scenario reproduces both panels as numeric series.  The
default parameters are scaled down (2^11 nodes, 5 networks) so the experiment
runs in seconds; set ``topology.nodes=16384``, ``topology.links_per_node=14``
and ``workload.networks=10`` for the paper-scale run.

Unlike the routing experiments (figure6/figure7/table1), Figure 5 measures
the *construction* heuristic only — no queries are routed — so it has no
``engine`` switch; the :mod:`repro.fastpath` engine accelerates routing
evaluation, not incremental construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.stats import total_variation_distance
from repro.core.construction import (
    InverseDistanceReplacement,
    LinkReplacementPolicy,
    build_heuristic_network,
)
from repro.core.distributions import InversePowerLawDistribution
from repro.experiments.runner import ExperimentTable

__all__ = ["Figure5Result", "empirical_link_distribution"]


@dataclass
class Figure5Result:
    """Numeric reproduction of Figure 5.

    Attributes
    ----------
    lengths:
        Link lengths (1 .. n/2) with non-zero ideal probability.
    derived:
        Average empirical probability of each length across the constructed
        networks (Figure 5a, DERIVED curve).
    ideal:
        Ideal inverse power-law probability of each length (Figure 5a, IDEAL).
    absolute_error:
        ``derived − ideal`` per length (Figure 5b).
    max_absolute_error:
        The largest magnitude of the absolute error.
    total_variation:
        Total variation distance between the derived and ideal distributions.
    parameters:
        The experiment parameters used.
    """

    lengths: np.ndarray
    derived: np.ndarray
    ideal: np.ndarray
    absolute_error: np.ndarray
    max_absolute_error: float
    total_variation: float
    parameters: dict

    def to_table(self, max_rows: int = 20) -> ExperimentTable:
        """Return the head of the distribution as a printable table."""
        table = ExperimentTable(
            title="Figure 5: heuristic link-length distribution vs ideal 1/d",
            columns=["length", "derived", "ideal", "absolute_error"],
            notes=(
                f"max |error| = {self.max_absolute_error:.4f}, "
                f"total variation distance = {self.total_variation:.4f}"
            ),
        )
        for index in range(min(max_rows, len(self.lengths))):
            table.add_row(
                int(self.lengths[index]),
                float(self.derived[index]),
                float(self.ideal[index]),
                float(self.absolute_error[index]),
            )
        return table


def empirical_link_distribution(lengths: list[int], n: int) -> np.ndarray:
    """Return the empirical probability of each ring distance ``1 .. n // 2``."""
    max_distance = n // 2
    histogram = np.zeros(max_distance, dtype=float)
    for length in lengths:
        if 1 <= length <= max_distance:
            histogram[length - 1] += 1
    total = histogram.sum()
    if total > 0:
        histogram /= total
    return histogram


def _run_figure5_impl(
    nodes: int = 1 << 11,
    links_per_node: int | None = None,
    networks: int = 5,
    replacement_policy: LinkReplacementPolicy | None = None,
    seed: int = 0,
) -> Figure5Result:
    """The Figure-5 measurement (executed via the ``"figure5"`` scenario)."""
    if links_per_node is None:
        links_per_node = max(1, int(np.ceil(np.log2(nodes))))
    if replacement_policy is None:
        replacement_policy = InverseDistanceReplacement()

    max_distance = nodes // 2
    accumulated = np.zeros(max_distance, dtype=float)
    for network_index in range(networks):
        construction = build_heuristic_network(
            n=nodes,
            links_per_node=links_per_node,
            replacement_policy=replacement_policy,
            seed=seed + network_index,
        )
        lengths = construction.graph.long_link_lengths()
        accumulated += empirical_link_distribution(lengths, nodes)
    derived = accumulated / networks

    ideal_distribution = InversePowerLawDistribution(nodes, exponent=1.0)
    ideal = np.array(
        [ideal_distribution.link_probability(distance) for distance in range(1, max_distance + 1)]
    )

    error = derived - ideal
    return Figure5Result(
        lengths=np.arange(1, max_distance + 1),
        derived=derived,
        ideal=ideal,
        absolute_error=error,
        max_absolute_error=float(np.max(np.abs(error))),
        total_variation=total_variation_distance(derived, ideal),
        parameters={
            "nodes": nodes,
            "links_per_node": links_per_node,
            "networks": networks,
            "replacement_policy": type(replacement_policy).__name__,
            "seed": seed,
        },
    )
