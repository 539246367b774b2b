"""Size-bounded partitions of embedded connectivity graphs with explicit,
testable constants.

Construction: axis-aligned cells whose side is chosen so the unit-spacing
packing bound caps the points per cell, followed by a greedy row-major
merge of underfull cells. The merge is what yields the block-count bound,
and it is disabled whenever it would break the per-block boundary bound,
so reported guarantees stay honest. The boundary constant
kappa(c, D) = 4 D (c+1) 2^D is an engineering default validated by the
test suite, not a theorem.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .circuit import ConnectivityGraph, Embedding, _graph_points


def kappa_default(c: float, dimension: int) -> float:
    """Default boundary constant kappa(c, D) = 4 D (c+1) 2^D."""
    return 4.0 * dimension * (c + 1.0) * (2.0 ** dimension)


def boundary_budget(lam: int, c: float, dimension: int, kappa: float | None = None) -> float:
    k = kappa_default(c, dimension) if kappa is None else kappa
    if not k > 0:
        raise ValueError(f"boundary constant kappa must be positive, got {k:g}")
    return k * lam ** ((dimension - 1) / dimension)


def _ball_volume(dimension: int) -> float:
    # volume of the radius-1/2 Euclidean ball
    return math.pi ** (dimension / 2) / math.gamma(dimension / 2 + 1) / 2 ** dimension


def cell_side(lam: int, dimension: int) -> int:
    """Cell side from the packing bound: at most lam points fit when the
    side is (lam * v_D)^(1/D) - 1; clamped below at 1."""
    raw = (lam * _ball_volume(dimension)) ** (1.0 / dimension)
    return max(1, int(math.floor(raw)) - 1)


@dataclass
class Partition:
    """Disjoint blocks covering the vertex set, with their sizes and
    boundary sizes. Row r of ``graph.vertices`` lies in block
    ``block_id[r]``; ``blocks`` lists each block as an ascending int64
    array of rows and is built on first read."""

    block_id: np.ndarray = field(repr=False, compare=False)
    sizes: tuple
    boundary_sizes: tuple
    lam: int
    merged: bool
    note: str = ""

    @property
    def count(self) -> int:
        return len(self.sizes)

    @functools.cached_property
    def blocks(self) -> tuple:
        rows = np.argsort(self.block_id, kind="stable")  # ascending rows within each block
        ends = np.cumsum(self.sizes).tolist()
        return tuple(rows[s:e] for s, e in zip([0, *ends], ends))


@dataclass
class PartitionGuarantee:
    kappa: float
    size_ok: bool
    boundary_ok: bool
    count_ok: bool | None  # None when not applicable
    count_note: str  # "<count> <= <budget>" when the count bound is checked
    worst_size: int
    worst_boundary: int
    boundary_budget: float
    count: int

    @property
    def ok(self) -> bool:
        return self.size_ok and self.boundary_ok and self.count_ok is not False


def _boundary_sizes(graph: ConnectivityGraph, block_id: np.ndarray,
                    n_blocks: int) -> np.ndarray:
    """|dGamma_i| per block: inner vertices with an outside neighbor plus
    outside vertices adjacent to the block (vectorized over edges)."""
    m, bu, bv = graph.m, block_id[graph.eu], block_id[graph.ev]
    cross = np.flatnonzero(bu != bv)  # one index array takes faster than four masks
    eu, ev, bu, bv = graph.eu[cross], graph.ev[cross], bu[cross], bv[cross]
    # inner: each endpoint of a crossing edge, counted once for its own block
    inner = np.zeros(m, dtype=bool)
    inner[eu] = True
    inner[ev] = True
    # outer: distinct (block, vertex) pairs, v outer for bu and u outer for
    # bv; such a pair never has block == block_id[vertex], so no inner
    # vertex is counted twice
    pairs = np.concatenate([bu * m + ev, bv * m + eu])
    pairs.sort()  # sort-based unique: np.unique's hashing is far slower here
    first = np.ones(len(pairs), dtype=bool)
    np.not_equal(pairs[1:], pairs[:-1], out=first[1:])
    return (np.bincount(block_id[inner], minlength=n_blocks)
            + np.bincount(pairs[first] // m, minlength=n_blocks))


def grid_partition(embedding: Embedding, graph: ConnectivityGraph, lam: int,
                   kappa: float | None = None) -> Partition:
    """Partition into blocks of at most lam vertices via axis-aligned cells
    plus greedy row-major merging of underfull cells.

    Deterministic given the input order. Merging is rolled back (with a
    note) if any merged block would exceed the kappa boundary budget. A
    cell of more than lam points (a spacing violation, or a lam so small
    that the cell side clamps to 1) raises ValueError.
    """
    if lam < 1:
        raise ValueError("lam must be >= 1")
    dim = embedding.dimension
    pts = _graph_points(embedding, graph)
    m = graph.m
    side = cell_side(lam, dim)

    # one row of cell keys per axis; cells go in row-major order with the
    # first axis fastest, so the last axis is the primary key (per-axis
    # keys, so no combined key can overflow)
    axes = np.ascontiguousarray(pts.T)
    keys = np.floor((axes - axes.min(axis=1, keepdims=True)) / side).astype(np.int64)
    if keys.max() < 2 ** 16:
        keys = keys.astype(np.uint16)  # same stable order; numpy radix-sorts 16-bit keys
    order = np.lexsort(keys)
    new_cell = np.zeros(m, dtype=bool)
    new_cell[0] = True
    for row in np.take(keys, order, axis=1):
        new_cell[1:] |= row[1:] != row[:-1]
    bounds = np.append(np.flatnonzero(new_cell), m)  # cell i holds order[bounds[i]:bounds[i+1]]
    cell_starts, cell_counts = bounds[:-1], np.diff(bounds)
    if cell_counts.max() > lam:
        raise ValueError(
            f"cell with {cell_counts.max()} > lam = {lam} points; "
            "embedding violates unit spacing or lam is below the packing regime"
        )

    def partition_from_starts(starts, merged, note=""):
        """Blocks are the runs of ``order`` that begin at ``starts``."""
        sizes = np.diff(starts, append=m)
        block_id = np.empty(m, dtype=np.int64)
        block_id[order] = np.repeat(np.arange(len(starts)), sizes)
        bsizes = _boundary_sizes(graph, block_id, len(starts))
        return Partition(block_id, tuple(sizes.tolist()), tuple(bsizes.tolist()), lam,
                         merged, note)

    # greedy merge of consecutive cells while a block stays within lam: the
    # block that starts at cell i runs up to the first cell that ends past
    # bounds[i] + lam, where the next block starts (jump[n] = n ends the
    # walk). Block starts are the orbit of cell 0 under the jump, and each
    # cell holds 1..lam points, so the jump always advances; pointer
    # doubling finds the first 2^k starts in k rounds.
    n_cells = len(cell_starts)
    jump = np.searchsorted(bounds, bounds + lam, side="right") - 1
    first_cells = np.zeros(1, dtype=np.int64)
    while first_cells[-1] < n_cells:
        first_cells = np.concatenate([first_cells, jump[first_cells]])
        jump = jump[jump]
    first_cells = first_cells[first_cells < n_cells]

    partition = partition_from_starts(cell_starts[first_cells], merged=True)
    budget = boundary_budget(lam, embedding.c, dim, kappa)
    if len(first_cells) < n_cells and max(partition.boundary_sizes) > budget:
        return partition_from_starts(
            cell_starts, merged=False,
            note="merging disabled: merged blocks would break the boundary bound",
        )
    return partition


def check_guarantees(partition: Partition, embedding: Embedding, lam: int,
                     kappa: float | None = None, dense: bool = False) -> PartitionGuarantee:
    """Check the three partition guarantees against explicit constants.

    The count bound 2 ceil(m / lam), with m the number of partitioned
    vertices, holds for the merged construction on dense instances (full
    grids); pass ``dense=True`` to assert it, otherwise it is reported as
    not applicable.
    """
    dim = embedding.dimension
    k = kappa_default(embedding.c, dim) if kappa is None else kappa
    budget = boundary_budget(lam, embedding.c, dim, k)
    worst_size = max(partition.sizes, default=0)
    worst_boundary = max(partition.boundary_sizes, default=0)
    if not dense:
        count_ok: bool | None = None
        count_note = "not applicable (sparse)"
    elif not partition.merged:
        count_ok = None
        count_note = "not applicable (merging disabled)"
    else:
        max_blocks = 2 * math.ceil(sum(partition.sizes) / lam)
        count_ok = partition.count <= max_blocks
        count_note = f"{partition.count} <= {max_blocks}"
    return PartitionGuarantee(
        kappa=k,
        size_ok=worst_size <= lam,
        boundary_ok=worst_boundary <= budget + 1e-9,
        count_ok=count_ok,
        count_note=count_note,
        worst_size=worst_size,
        worst_boundary=worst_boundary,
        boundary_budget=budget,
        count=partition.count,
    )
