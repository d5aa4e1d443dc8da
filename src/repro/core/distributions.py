"""Long-distance link distributions.

Section 4.3 of the paper fixes the link model used for the upper bounds: each
node is connected to its immediate neighbours and to ``l`` long-distance
neighbours, each chosen with probability *inversely proportional to its
distance* from the node (the inverse power-law distribution with exponent 1).
The lower bounds of Section 4.2 are proved for *arbitrary* offset
distributions, and Kleinberg's small-world construction uses exponent ``d`` in
``d`` dimensions; this module therefore provides a small family of
distributions behind one interface:

* :class:`InversePowerLawDistribution` — ``Pr[offset = delta] ∝ 1 / |delta|^r``
  (the paper's choice is ``r = 1``).
* :class:`UniformLinkDistribution` — every other point equally likely;
  included as a deliberately *bad* distribution the lower-bound experiments
  can contrast against.
* :class:`DeterministicBaseBOffsets` — the deterministic base-``b`` digit
  scheme of Theorem 14 (links at distances ``j * b^i``), plus the simplified
  power-of-``b`` scheme of Theorem 16 used for the link-failure analysis.
* :class:`KleinbergGridDistribution` — exponent-``d`` distribution on a
  two-dimensional torus, used by the Kleinberg baseline.

All random distributions sample through a ``numpy.random.Generator`` supplied
by the caller so that experiments stay reproducible.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.metric import RingMetric, TorusMetric
from repro.util.validation import ensure_positive

__all__ = [
    "LinkDistribution",
    "InversePowerLawDistribution",
    "UniformLinkDistribution",
    "DeterministicBaseBOffsets",
    "KleinbergGridDistribution",
    "harmonic_number",
]


def harmonic_number(n: int) -> float:
    """Return the n-th harmonic number ``H_n = 1 + 1/2 + ... + 1/n``.

    Uses the asymptotic expansion for large ``n``; exact summation below a
    small threshold.  ``harmonic_number(0)`` is 0 by convention.
    """
    if n <= 0:
        return 0.0
    if n < 128:
        return float(sum(1.0 / i for i in range(1, n + 1)))
    # Euler–Maclaurin: H_n ≈ ln n + γ + 1/(2n) − 1/(12 n²) + 1/(120 n⁴)
    gamma = 0.5772156649015328606
    return math.log(n) + gamma + 1.0 / (2 * n) - 1.0 / (12 * n * n) + 1.0 / (120 * n**4)


class LinkDistribution(abc.ABC):
    """Interface for generating a node's long-distance neighbour offsets.

    A distribution knows the size ``n`` of the (one-dimensional) identifier
    space and produces, for a given source point, the *labels* of the chosen
    long-distance neighbours.  Distributions may be random (sampling through
    the provided generator) or deterministic (ignoring it).
    """

    @abc.abstractmethod
    def sample_neighbors(
        self,
        source: int,
        count: int,
        rng: np.random.Generator,
        present: np.ndarray | None = None,
    ) -> list[int]:
        """Return ``count`` neighbour labels for ``source``.

        Parameters
        ----------
        source:
            Label of the node choosing its links.
        count:
            Number of long-distance links to generate.  Deterministic
            distributions may return a different number (their link count is
            fixed by the scheme, not by the caller).
        rng:
            Random generator used for any sampling.
        present:
            Optional boolean array of length ``n``; when given, only points
            marked ``True`` may be chosen (the paper's "link only to existing
            nodes" model of Section 4.3.4.1).  The source itself is never
            returned even if marked present.
        """

    @abc.abstractmethod
    def link_probability(self, distance: int) -> float:
        """Return the ideal probability mass assigned to a link of ``distance``.

        Used by the Figure-5 experiments to compare an empirically constructed
        network against the ideal distribution.  For deterministic schemes the
        notion is degenerate and ``NotImplementedError`` may be raised.
        """


@dataclass
class InversePowerLawDistribution(LinkDistribution):
    """Inverse power-law link distribution over a ring of ``n`` points.

    ``Pr[v chosen as long-distance neighbour of u] ∝ 1 / d(u, v)^exponent``
    where ``d`` is the ring distance.  The paper uses ``exponent = 1``
    (harmonic distribution); Kleinberg's one-dimensional optimum is the same.

    Sampling is done *with replacement* across the ``count`` links, exactly as
    in Theorem 13 ("chosen independently with replacement").

    Parameters
    ----------
    n:
        Size of the identifier space.
    exponent:
        Power-law exponent ``r`` (default 1.0, the paper's choice).
    """

    n: int
    exponent: float = 1.0

    _weights_cache: dict[int, np.ndarray] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        ensure_positive(self.n, "n")
        if self.n < 2:
            raise ValueError("n must be at least 2 to have any long-distance links")
        self._metric = RingMetric(self.n)

    # -- internal ----------------------------------------------------------

    def _distance_weights(self) -> np.ndarray:
        """Weight of each *ring distance* ``1 .. floor(n/2)`` (unnormalised)."""
        key = 0
        if key not in self._weights_cache:
            max_distance = self.n // 2
            distances = np.arange(1, max_distance + 1, dtype=float)
            weights = distances**-self.exponent
            # Every distance short of n/2 corresponds to two points (clockwise
            # and counter-clockwise); when n is even the antipodal distance
            # n/2 corresponds to a single point.
            multiplicity = np.full(max_distance, 2.0)
            if self.n % 2 == 0:
                multiplicity[-1] = 1.0
            self._weights_cache[key] = weights * multiplicity
        return self._weights_cache[key]

    def _point_weights(self, source: int, present: np.ndarray | None) -> np.ndarray:
        """Unnormalised weight of every point label as a neighbour of ``source``."""
        labels = np.arange(self.n)
        diff = np.abs(labels - source)
        ring_distance = np.minimum(diff, self.n - diff).astype(float)
        with np.errstate(divide="ignore"):
            weights = np.where(ring_distance > 0, ring_distance**-self.exponent, 0.0)
        if present is not None:
            weights = np.where(present, weights, 0.0)
            weights[source] = 0.0
        return weights

    def _offset_cdf(self) -> np.ndarray:
        """Normalised CDF over the offsets ``0 .. n-1`` seen from any source.

        On a fully populated ring the link distribution is shift-invariant:
        the probability of choosing the point at offset ``delta`` from the
        source is ``d(0, delta)^-exponent / S`` for every source.  This single
        CDF therefore serves batched inverse-CDF sampling for *all* sources at
        once, which is what makes one-shot network builds array-native.
        """
        key = 1
        if key not in self._weights_cache:
            offsets = np.arange(self.n, dtype=float)
            ring_distance = np.minimum(offsets, self.n - offsets)
            with np.errstate(divide="ignore"):
                weights = np.where(ring_distance > 0, ring_distance**-self.exponent, 0.0)
            cdf = np.cumsum(weights)
            cdf /= cdf[-1]
            self._weights_cache[key] = cdf
        return self._weights_cache[key]

    def _guide_table(self) -> np.ndarray:
        """Chen & Asau index table over :meth:`_offset_cdf`.

        ``K`` is the smallest power of two ``>= n`` and entry ``b`` of the
        ``K + 1`` returned is ``searchsorted(cdf, b / K, side="right")``:
        every uniform in bucket ``[b/K, (b+1)/K)`` has its answer in
        ``[edges[b], edges[b + 1]]``.  Stored as ``int32`` (offsets are below
        ``n``) so the random gathers touch half the cache lines.
        """
        key = 2
        if key not in self._weights_cache:
            buckets = 1 << max(self.n - 1, 1).bit_length()
            edges = np.searchsorted(
                self._offset_cdf(),
                np.arange(buckets + 1, dtype=float) / buckets,
                side="right",
            )
            self._weights_cache[key] = edges.astype(
                np.int32 if self.n < 2**31 else np.int64
            )
        return self._weights_cache[key]

    def inverse_cdf(self, uniforms: np.ndarray) -> np.ndarray:
        """Return the values of ``np.searchsorted(cdf, uniforms, side="right")``.

        ``cdf`` is :meth:`_offset_cdf`; the lookup goes through the guide
        table instead of a binary search over the whole CDF.  With ``K`` a
        power of two, ``u * K`` is exact, so the bucket ``b = floor(u * K)``
        satisfies ``b/K <= u < (b+1)/K`` and, ``searchsorted`` being monotone
        in its key, the answer lies in ``[edges[b], edges[b + 1]]``.  Keys
        whose bucket is empty are resolved by the table alone (about three in
        four at ``n = 2^20``); the rest run a vectorised branch-free bisection
        over their own bucket that counts the CDF entries ``<= u`` exactly as
        ``searchsorted`` does (at most four steps at ``n = 2^20``, exponent
        1).  The result is therefore equal element for element, not just in
        distribution.  ``uniforms`` must lie in ``[0, 1)``.
        """
        cdf = self._offset_cdf()
        edges = self._guide_table()
        bucket = (uniforms * (edges.size - 1)).astype(np.intp)
        found = edges[bucket]
        width = edges[1:][bucket]
        width -= found
        pending = np.flatnonzero(width)
        if pending.size:
            keys = uniforms.ravel()[pending]
            base = found.ravel()[pending]
            # ``span`` candidate answers ``base .. base + span - 1`` remain;
            # halving it the same way for every key keeps the loop branch
            # free, and a key whose span is 1 adds ``half == 0`` (a no-op).
            span = width.ravel()[pending]
            span += 1
            while True:
                half = span >> 1
                if not half.any():
                    break
                span -= half
                half *= cdf[base + half - 1] <= keys
                base += half
            found.ravel()[pending] = base
        return found

    # -- LinkDistribution API ------------------------------------------------

    def sample_neighbors(
        self,
        source: int,
        count: int,
        rng: np.random.Generator,
        present: np.ndarray | None = None,
    ) -> list[int]:
        if count <= 0:
            return []
        if present is None:
            # Fully populated space: one row of the batched sampler, so that
            # per-node and all-nodes builds draw from the same stream the same
            # way (bit-identical graphs at a fixed seed).
            row = self.sample_neighbors_batch(np.array([source]), count, rng)
            return [int(c) for c in row[0]]
        weights = self._point_weights(source, present)
        total = weights.sum()
        if total <= 0:
            return []
        probabilities = weights / total
        chosen = rng.choice(self.n, size=count, replace=True, p=probabilities)
        return [int(c) for c in chosen]

    def sample_neighbors_batch(
        self,
        sources: np.ndarray,
        count: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Sample ``count`` long-link targets for *every* source in one draw.

        Returns an ``int64[len(sources), count]`` matrix of target labels,
        sampled with replacement per source (Theorem 13's model), using a
        single uniform draw of shape ``(len(sources), count)`` mapped through
        the shared offset CDF by :meth:`inverse_cdf`.  That lookup equals
        ``np.searchsorted(cdf, uniforms, side="right")`` element for element
        (see its docstring), so the targets are a pure function of the
        uniforms and the generator state.  Only supports the
        fully populated space (no ``present`` mask): binomially placed nodes
        condition each source's distribution on the presence mask, which
        breaks the shift invariance the shared CDF relies on.

        The draw order is row-major (all of source 0's links, then source 1's,
        ...), exactly the order :class:`~repro.core.builder.RandomGraphBuilder`
        attaches links in, so one-shot object builds and direct snapshot
        builds consume the generator identically.  Consecutive calls on row
        blocks of the sources consume the stream exactly as one call on all
        of them would.
        """
        sources = np.asarray(sources, dtype=np.int64)
        if count <= 0:
            return np.empty((sources.shape[0], 0), dtype=np.int64)
        uniforms = rng.random((sources.shape[0], count))
        offsets = np.clip(self.inverse_cdf(uniforms), 1, self.n - 1)
        return (sources[:, None] + offsets) % self.n

    def link_probability(self, distance: int) -> float:
        """Ideal probability that a single long link has ring distance ``distance``."""
        if distance < 1 or distance > self.n // 2:
            return 0.0
        weights = self._distance_weights()
        return float(weights[distance - 1] / weights.sum())

    def normalization_constant(self) -> float:
        """Return ``S = sum over points v != u of d(u, v)^-exponent``.

        For exponent 1 this is approximately ``2 * H_{n/2}``, the quantity the
        paper calls ``S < 2 H_n`` in Theorem 12's proof.
        """
        return float(self._distance_weights().sum())


@dataclass
class UniformLinkDistribution(LinkDistribution):
    """Uniform long-distance links: every other point is equally likely.

    Not a good routing distribution (greedy routing over it needs roughly
    ``sqrt(n)``-ish hops in expectation for a single link); included so the
    experiments can demonstrate *why* the inverse power law matters, which is
    precisely the point of the paper's lower bounds.
    """

    n: int

    def __post_init__(self) -> None:
        ensure_positive(self.n, "n")

    def sample_neighbors(
        self,
        source: int,
        count: int,
        rng: np.random.Generator,
        present: np.ndarray | None = None,
    ) -> list[int]:
        if count <= 0:
            return []
        if present is None:
            candidates = np.arange(self.n)
            candidates = candidates[candidates != source]
        else:
            candidates = np.flatnonzero(present)
            candidates = candidates[candidates != source]
        if candidates.size == 0:
            return []
        chosen = rng.choice(candidates, size=count, replace=True)
        return [int(c) for c in chosen]

    def link_probability(self, distance: int) -> float:
        if distance < 1 or distance > self.n // 2:
            return 0.0
        max_distance = self.n // 2
        # Each distance corresponds to 2 points except possibly the antipode.
        points_at_distance = 1 if (self.n % 2 == 0 and distance == max_distance) else 2
        return points_at_distance / (self.n - 1)


@dataclass
class DeterministicBaseBOffsets(LinkDistribution):
    """Deterministic base-``b`` digit links (Theorems 14 and 16).

    Two variants are provided:

    * ``full`` (Theorem 14): links at distances ``j * b^i`` for
      ``j = 1 .. b - 1`` and ``i = 0 .. ceil(log_b n) - 1``, in both
      directions.  Routing eliminates one base-``b`` digit of the remaining
      distance per hop, giving ``O(log_b n)`` delivery time.
    * ``powers`` (Theorem 16): links only at distances ``b^i``.  This is the
      simplified model the paper uses for the link-failure analysis, giving
      ``O(b log n / p)`` delivery time when each link survives with
      probability ``p``.

    Parameters
    ----------
    n:
        Size of the identifier space.
    base:
        The base ``b >= 2``.
    variant:
        Either ``"full"`` or ``"powers"``.
    bidirectional:
        When ``True`` links are created at both ``+delta`` and ``-delta``.
    """

    n: int
    base: int = 2
    variant: str = "full"
    bidirectional: bool = True

    def __post_init__(self) -> None:
        ensure_positive(self.n, "n")
        if self.base < 2:
            raise ValueError(f"base must be >= 2, got {self.base}")
        if self.variant not in ("full", "powers"):
            raise ValueError(f"variant must be 'full' or 'powers', got {self.variant!r}")

    def offsets(self) -> list[int]:
        """Return the positive link offsets of the scheme (sorted ascending)."""
        levels = max(1, math.ceil(math.log(self.n, self.base)))
        result: set[int] = set()
        if self.variant == "full":
            for i in range(levels):
                scale = self.base**i
                for j in range(1, self.base):
                    offset = j * scale
                    if 0 < offset < self.n:
                        result.add(offset)
        else:
            for i in range(levels + 1):
                offset = self.base**i
                if 0 < offset < self.n:
                    result.add(offset)
        return sorted(result)

    def expected_link_count(self) -> int:
        """Number of long links per node under this scheme."""
        count = len(self.offsets())
        return 2 * count if self.bidirectional else count

    def sample_neighbors(
        self,
        source: int,
        count: int,
        rng: np.random.Generator,
        present: np.ndarray | None = None,
    ) -> list[int]:
        """Return the deterministic neighbour set of ``source``.

        ``count`` and ``rng`` are ignored (the scheme fixes the links); when
        ``present`` is given, absent targets are simply skipped, mirroring the
        paper's "provided nodes are present at those distances".
        """
        neighbors: list[int] = []
        for offset in self.offsets():
            targets = [(source + offset) % self.n]
            if self.bidirectional:
                targets.append((source - offset) % self.n)
            for target in targets:
                if target == source:
                    continue
                if present is not None and not present[target]:
                    continue
                neighbors.append(int(target))
        return neighbors

    def link_probability(self, distance: int) -> float:
        raise NotImplementedError(
            "deterministic offset schemes do not define a link-length distribution"
        )


@dataclass
class KleinbergGridDistribution(LinkDistribution):
    """Kleinberg's exponent-``r`` distribution on a two-dimensional torus.

    ``Pr[v chosen] ∝ d(u, v)^-r`` with ``d`` the L1 torus distance.  Kleinberg
    [5] showed that greedy routing is polylogarithmic exactly when ``r`` equals
    the dimension (2 here); this class backs the Kleinberg-grid baseline and
    the higher-dimensional extension experiments.

    Point labels are flattened row-major indices into the ``side x side`` grid
    so that the class still satisfies the integer-label interface shared with
    the one-dimensional distributions.
    """

    side: int
    exponent: float = 2.0

    def __post_init__(self) -> None:
        ensure_positive(self.side, "side")
        self._torus = TorusMetric(self.side, dimensions=2)
        self.n = self.side * self.side

    def label_to_point(self, label: int) -> tuple[int, int]:
        """Convert a flattened label to (row, column) grid coordinates."""
        return (label // self.side, label % self.side)

    def point_to_label(self, point: tuple[int, int]) -> int:
        """Convert (row, column) grid coordinates to a flattened label."""
        row, column = point
        return (row % self.side) * self.side + (column % self.side)

    def sample_neighbors(
        self,
        source: int,
        count: int,
        rng: np.random.Generator,
        present: np.ndarray | None = None,
    ) -> list[int]:
        if count <= 0:
            return []
        source_point = self.label_to_point(source)
        labels = np.arange(self.n)
        rows, columns = labels // self.side, labels % self.side
        row_diff = np.abs(rows - source_point[0])
        column_diff = np.abs(columns - source_point[1])
        distance = np.minimum(row_diff, self.side - row_diff) + np.minimum(
            column_diff, self.side - column_diff
        )
        with np.errstate(divide="ignore"):
            weights = np.where(distance > 0, distance.astype(float) ** -self.exponent, 0.0)
        if present is not None:
            weights = np.where(present, weights, 0.0)
            weights[source] = 0.0
        total = weights.sum()
        if total <= 0:
            return []
        chosen = rng.choice(self.n, size=count, replace=True, p=weights / total)
        return [int(c) for c in chosen]

    def link_probability(self, distance: int) -> float:
        """Probability a single link spans L1 distance ``distance`` (from origin)."""
        if distance < 1:
            return 0.0
        labels = np.arange(self.n)
        rows, columns = labels // self.side, labels % self.side
        row_diff = np.minimum(rows, self.side - rows)
        column_diff = np.minimum(columns, self.side - columns)
        all_distances = row_diff + column_diff
        with np.errstate(divide="ignore"):
            weights = np.where(
                all_distances > 0, all_distances.astype(float) ** -self.exponent, 0.0
            )
        total = weights.sum()
        mass = weights[all_distances == distance].sum()
        return float(mass / total) if total > 0 else 0.0
