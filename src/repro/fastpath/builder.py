"""Direct-to-CSR network builds: sample a snapshot without object graphs.

The object build path (:func:`repro.core.builder.build_ideal_network` followed
by :func:`repro.fastpath.snapshot.compile_snapshot`) materialises an
:class:`~repro.core.graph.OverlayGraph` — one ``OverlayNode`` plus a
``LongLink`` record per sampled link — only to flatten it straight back into
arrays.  At paper scale (2^17 nodes, 17 links each) that detour through ~2.4
million Python objects dominates experiment start-up.

:func:`build_snapshot` skips it entirely.  Long links are drawn in **row
blocks** of :data:`BLOCK_ROWS` nodes, each one batched inverse-CDF sample
(:meth:`~repro.core.distributions.InversePowerLawDistribution.sample_neighbors_batch`)
taken from the same generator in turn; consecutive ``(rows, L)`` draws
consume the stream exactly as one ``(n, L)`` draw would.  Each block is
deduplicated and compacted to ``int32`` targets plus a per-row count, and the
CSR adjacency is assembled with bulk NumPy scatters that also run per row
block, emitting a :class:`~repro.fastpath.snapshot.FastpathSnapshot`
directly.

Memory bound
------------
Scratch is bounded by the block size, not by ``n * L``: besides the output
arrays, a build holds the compact ``int32`` long-link targets (about the size
of ``neighbor_indices``), a few ``n``-length vectors, and one block's
``(BLOCK_ROWS, L)`` temporaries.  ``build_snapshot(2**18,
symmetric_neighbors=False)`` peaks below five times the bytes of the snapshot
it returns (``tests/unit/test_fastpath.py`` pins this with ``tracemalloc``).
The symmetric fold still sorts every kept edge once, globally, so symmetric
builds need several ``int64`` copies of the edge list on top.

Equivalence contract
--------------------
``build_snapshot(n, l, seed)`` is **bit-identical** to
``compile_snapshot(build_ideal_network(n, l, seed).graph)`` — same labels,
same CSR row pointers, same neighbour order per vertex.  That holds because
the object builder consumes the *same* uniforms from the same derived stream
(``spawn_rng(seed, "links")``) in the same row-major order and maps them
through the same inverse-CDF lookup, and the CSR assembly reproduces
``compile_snapshot``'s neighbour order exactly: short links first, then
deduplicated long links in draw order, then (when ``symmetric_neighbors``)
incoming long links in source-creation order, skipping sources already
present in the row.
``tests/property/test_property_fastpath.py`` asserts the equivalence across
random sizes, link counts, and seeds.

Only the fully populated ring is supported — the configuration of every
Figure-6/7 and Table-1 scaling run.  Binomially placed nodes
(``presence_probability < 1``) condition each node's link distribution on the
presence mask, which breaks the shift invariance batched sampling relies on;
build those through the object path.
"""

from __future__ import annotations

import numpy as np

from repro.core.distributions import InversePowerLawDistribution
from repro.fastpath.dtypes import narrow_indptr, narrow_labels
from repro.fastpath.snapshot import FastpathSnapshot
from repro.telemetry.core import spanned as telemetry_spanned
from repro.util.rng import spawn_rng
from repro.util.validation import ensure_positive

__all__ = ["build_snapshot"]

#: Rows drawn, deduplicated and scattered per step.  Bounds the ``(rows, L)``
#: scratch of the long-link draw and the ``int64`` positions of the CSR
#: scatter; the output does not depend on it.
BLOCK_ROWS = 1 << 15


@telemetry_spanned("build")
def build_snapshot(
    n: int,
    links_per_node: int | None = None,
    seed: int = 0,
    exponent: float = 1.0,
    symmetric_neighbors: bool = True,
) -> FastpathSnapshot:
    """Build the paper's standard ring network straight into a snapshot.

    Mirrors :func:`repro.core.builder.build_ideal_network` (fully populated
    ring, inverse power-law long links, ``ceil(lg n)`` links per node by
    default) but never touches the object layer; see the module docstring for
    the equivalence contract with the object build path.

    Parameters
    ----------
    n:
        Ring size; every point hosts a node, so this is also the node count.
    links_per_node:
        Long links per node (default ``ceil(lg n)``, the paper's Section-6
        choice).
    seed:
        Base seed; the long-link stream is ``spawn_rng(seed, "links")``,
        exactly as in :class:`~repro.core.builder.RandomGraphBuilder`.
    exponent:
        Power-law exponent of the link distribution (default 1).
    symmetric_neighbors:
        Fold incoming long links into each vertex's neighbour row (the
        handshake model the scalar router defaults to).
    """
    ensure_positive(n, "n")
    if links_per_node is None:
        links_per_node = max(1, int(np.ceil(np.log2(n))))
    ensure_positive(links_per_node, "links_per_node")

    labels = np.arange(n, dtype=np.int64)
    if n >= 2:
        long_targets, out_count = _sample_long_links(
            n, links_per_node, seed, exponent
        )
    else:
        long_targets = np.empty(0, dtype=np.int32)
        out_count = np.zeros(n, dtype=np.int64)

    # ------------------------------------------------------------------ #
    # Short links: the sorted ring of immediate neighbours.
    # ------------------------------------------------------------------ #
    if n == 1:
        short_count = 0
        left = right = np.empty(0, dtype=np.int64)
    elif n == 2:
        # Both ring directions reach the single other node; the compiled row
        # stores it once (``right`` equals ``left``).
        short_count = 1
        left = right = (labels + 1) % 2
    else:
        short_count = 2
        left = (labels - 1) % n
        right = (labels + 1) % n

    # ------------------------------------------------------------------ #
    # Incoming long links (symmetric neighbour knowledge): group the kept
    # edges by target, preserving source-creation order, and drop sources
    # already present in the row (a short neighbour, or a reciprocal long
    # link) — the same dedup ``compile_snapshot`` applies.
    # ------------------------------------------------------------------ #
    if symmetric_neighbors and long_targets.size:
        # Every array here is as long as the edge list; each is dropped as
        # soon as it is dead, so at most a few coexist.
        edge_source = np.repeat(labels, out_count)
        by_target = np.argsort(long_targets, kind="stable")
        in_source = edge_source[by_target]
        in_target = long_targets[by_target].astype(np.int64)
        del by_target
        already = (in_source == left[in_target]) | (in_source == right[in_target])
        # Reciprocal long link: the row of ``in_target`` already contains
        # ``in_source`` iff the kept edge (in_target -> in_source) exists.
        edge_keys = edge_source * n
        edge_keys += long_targets
        edge_keys.sort()
        del edge_source
        reverse_keys = in_target * n + in_source
        position = np.searchsorted(edge_keys, reverse_keys)
        np.minimum(position, edge_keys.size - 1, out=position)
        already |= edge_keys[position] == reverse_keys
        del edge_keys, reverse_keys, position
        in_source = in_source[~already]
        in_count = np.bincount(in_target[~already], minlength=n)
        del in_target, already
    else:
        in_source = np.empty(0, dtype=np.int64)
        in_count = np.zeros(n, dtype=np.int64)

    # ------------------------------------------------------------------ #
    # CSR assembly: shorts, then kept long links, then incoming links.
    # Labels equal vertex indices on the fully populated ring, so targets
    # scatter straight into the index array.
    # ------------------------------------------------------------------ #
    degrees = short_count + out_count + in_count
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    indices = np.empty(int(indptr[-1]), dtype=np.int32)
    base = indptr[:-1]
    if short_count >= 1:
        indices[base] = left
    if short_count == 2:
        indices[base + 1] = right
    _scatter_rows(indices, base + short_count, out_count, long_targets)
    del long_targets
    if in_source.size:
        _scatter_rows(indices, base + short_count + out_count, in_count, in_source)

    # Positions and the reciprocal-link keys above must stay int64 (the keys
    # pack source * n + target, up to n**2); the compact long-link targets
    # are int32 like ``neighbor_indices``, and the rest of the storage
    # narrows to the contract dtypes only here, at the snapshot boundary.
    return FastpathSnapshot(
        kind="ring",
        space_size=n,
        labels=narrow_labels(labels, n),
        alive=np.ones(n, dtype=bool),
        neighbor_indptr=narrow_indptr(indptr),
        neighbor_indices=indices,
        symmetric_neighbors=symmetric_neighbors,
    )


def _sample_long_links(
    n: int, links_per_node: int, seed: int, exponent: float
) -> tuple[np.ndarray, np.ndarray]:
    """Draw every node's long links, one row block at a time.

    Returns ``(long_targets, out_count)``: the kept targets of all rows
    concatenated in row-major draw order (``int32``), and the number kept
    per row (``int64[n]``).  Each block draws ``rng.random((rows, L))``;
    consecutive blocks consume the generator exactly as one ``(n, L)`` draw
    would, so the result does not depend on :data:`BLOCK_ROWS`.  Within a
    row a stable first-occurrence dedup drops repeated targets (the object
    builder collapses repeated samples of the same target; the paper samples
    with replacement).
    """
    distribution = InversePowerLawDistribution(n, exponent=exponent)
    link_rng = spawn_rng(seed, "links")
    long_targets = np.empty(n * links_per_node, dtype=np.int32)
    out_count = np.empty(n, dtype=np.int64)
    kept_total = 0
    for start in range(0, n, BLOCK_ROWS):
        stop = min(start + BLOCK_ROWS, n)
        targets = distribution.sample_neighbors_batch(
            np.arange(start, stop, dtype=np.int64), links_per_node, link_rng
        )
        order = np.argsort(targets, axis=1, kind="stable")
        sorted_targets = np.take_along_axis(targets, order, axis=1)
        duplicate = np.zeros(targets.shape, dtype=bool)
        duplicate[:, 1:] = sorted_targets[:, 1:] == sorted_targets[:, :-1]
        keep = np.empty_like(duplicate)
        np.put_along_axis(keep, order, ~duplicate, axis=1)
        kept = targets[keep]
        long_targets[kept_total : kept_total + kept.size] = kept
        kept_total += kept.size
        out_count[start:stop] = keep.sum(axis=1)
    return long_targets[:kept_total], out_count


def _scatter_rows(
    indices: np.ndarray, starts: np.ndarray, counts: np.ndarray, values: np.ndarray
) -> None:
    """Write ``values`` (rows concatenated in order) at ``indices[starts[r]:]``.

    Row ``r`` owns ``counts[r]`` consecutive values; they land at
    ``starts[r], starts[r] + 1, ...``.  Positions are materialised for
    :data:`BLOCK_ROWS` rows at a time, so the ``int64`` scratch stays
    bounded however many values there are.
    """
    value_start = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=value_start[1:])
    for start in range(0, counts.size, BLOCK_ROWS):
        stop = min(start + BLOCK_ROWS, counts.size)
        first, last = int(value_start[start]), int(value_start[stop])
        if first == last:
            continue
        shift = starts[start:stop] - value_start[start:stop]
        positions = np.repeat(shift, counts[start:stop])
        positions += np.arange(first, last, dtype=np.int64)
        indices[positions] = values[first:last]
