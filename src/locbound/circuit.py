"""Connectivity graphs, c-local embeddings, separable A:X layers,
depolarizing/erasure noise, and exact simulation of noisy error-correction
modules.

A ConnectivityGraph owns the vertex order (label -> row, edge endpoint
rows); embeddings are point arrays in that order, so graph routines work
on integer rows and string labels stay at files, gates and reports.

Validity is checked once, on construction: a Circuit checks every layer
against its graph, and an EcModule refuses a round on another graph, so
the simulator and the verifiers never re-check.

The classical system X is kept structural: each branch of a
ClassicalQuantumState is (record, matrix): the record is the tuple of
(key, outcome) pairs written so far, and the matrix is unnormalized, its
trace the branch weight. A keyed KrausGate (a measurement is one, see
measure_gate) appends (key, i) for its i-th operator and never divides by
the outcome probability; a Conditional reads the last outcome of each of
its keys (None if unwritten) and applies the unitary its table gives for
that outcome tuple, or nothing. simulate_module keeps less: after each
layer a record holds only the last outcome of each key that a later
Conditional still reads, so a branch splits at a measurement, merges
once its outcomes are dead, and a module ends in one branch with record
(). Noise is one map from qubit to depolarizing rate; rate 1 erases the
qubit. Every channel is evaluated by exact arithmetic on density
matrices (never by sampling); one finish step merges equal records,
drops branches of weight <= NEGLIGIBLE and checks that the total weight
is kept. Every channel keeps a matrix Hermitian to rounding, so nothing
re-symmetrizes: average_state sums the branches and normalizes, where a
state leaves as a DensityMatrix.

simulate_module runs each round's noise as a layer of one-qubit noise
blocks before the round's layers, and fuses the module's layers once,
across rounds, into fewer superoperator passes by the rule in _fuse;
noise_apply runs the noise blocks no gate took in, and with apply_layer
it is the unfused path.

Dense passes go one slice at a time. An operator or a noise channel
mixes no row factor outside its support, so a matrix is processed one
slice of fixed non-support row factors at a time, at most _SLICE
entries or else the smallest slice that holds the support,
through slice-sized scratch. A gate's data movement comes from a gather
plan, built on first use and cached per (dims, support, ndim). A state
vector takes K v; a density matrix takes every gate as one pass of its
superoperator, sum_i K_i (x) conj(K_i) (K (x) conj(K) for a unitary or
one Kraus operator), over the (row support, column support) pair. Each
slice is one take of the product's operand, support first, straight from
the C-contiguous source, one product and one take back. Branch matrices
of a ClassicalQuantumState are read-only, so a writable matrix belongs
to the running channel step: the step copies a branch at most once and
then updates it in place. The one exception is simulate_module's fresh
initial matrix, which no caller sees: its first step owns it.

A pass of at least _SHARED_PASS = 64 slices (a matrix of 2^20 entries,
10 qubits, or more) is shared (_share) by the calling thread and a pool
thread per further usable CPU, each pulling slice offsets from one
lock-guarded iterator into its own scratch, on one OpenBLAS thread
(_one_blas_thread), since BLAS threads would only contend with them. The
pool is joined before the pass returns, and a worker's exception is then
raised, after the others have done the remaining slices. Each slice
reads and writes its own rows by the same code, so the bytes do not
depend on the worker count. Below the cutoff, a second worker's scratch
would push a 9-qubit step past 1.25 states of memory, and at 8 qubits
(4 slices) the thread start costs more than it saves.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import os
import threading
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .qstate import (
    MAX_QUBITS,
    _is_power_of_two,
    ClassicalQuantumState,
    PureState,
    Register,
    RegisterLayout,
)

TRACE_TOL = 1e-9
_SLICE = 2 ** 14  # complex entries one step of a dense pass touches (256 KiB, an L2 share)
_SHARED_PASS = 64  # slices from which a dense pass is shared among threads (2^20 entries)

# The OpenBLAS copies that numpy and scipy ship: (package, library glob
# next to the package, symbol suffix of its thread-count functions)
_OPENBLAS = (("numpy", "numpy.libs/libscipy_openblas64_-*.so", "64_"),
             ("scipy", "scipy.libs/libscipy_openblas-*.so", ""))


# ---------------------------------------------------------------------------
# Connectivity graphs and embeddings


class ConnectivityGraph:
    """Undirected graph on the qubit set; no self-loops. ``index`` maps a
    label to its row in ``vertices``; ``eu``/``ev`` are the endpoint rows
    of ``edges`` (string-sorted normalized pairs).

    The edges live as the two row arrays. The label tuples of ``edges``
    and the pair set behind ``has_edge`` are built from them on first read.
    """

    def __init__(self, vertices: Sequence[str], edges: Iterable[tuple]):
        self._set_vertices(vertices)
        rows = []
        for u, v in edges:
            u, v = str(u), str(v)
            if u not in self.index or v not in self.index:
                raise ValueError(f"edge ({u}, {v}) references unknown vertex")
            if u == v:
                raise ValueError(f"self-loop at {u}")
            rows.append((self.index[u], self.index[v]))
        rows = np.array(rows, dtype=np.int64).reshape(-1, 2)
        self._set_edges(rows[:, 0], rows[:, 1])

    @classmethod
    def _from_rows(cls, vertices: Sequence[str], eu: np.ndarray,
                   ev: np.ndarray) -> "ConnectivityGraph":
        """The graph whose i-th edge joins rows eu[i] != ev[i], which must
        be in range; pairs may repeat and come in either orientation."""
        graph = cls.__new__(cls)
        graph._set_vertices(vertices)
        graph._set_edges(eu, ev)
        return graph

    def _set_vertices(self, vertices: Sequence[str]) -> None:
        self.vertices = tuple(map(str, vertices))
        self.index = dict(zip(self.vertices, range(len(self.vertices))))
        if len(self.index) != len(self.vertices):
            raise ValueError("duplicate vertices")

    def _set_edges(self, eu: np.ndarray, ev: np.ndarray) -> None:
        """Normalize each pair to (smaller, larger) label, drop repeats and
        sort by labels, all on the ranks of the labels in string order."""
        m = self.m
        by_label = np.array(sorted(range(m), key=self.vertices.__getitem__), dtype=np.int64)
        rank = np.empty(m, dtype=np.int64)
        rank[by_label] = np.arange(m)
        ru, rv = rank[eu], rank[ev]
        key = np.minimum(ru, rv) * m + np.maximum(ru, rv)
        key.sort()
        key = key[np.diff(key, prepend=-1) != 0]  # keys are >= 0
        self.eu, self.ev = by_label[key // m], by_label[key % m]
        self.eu.flags.writeable = self.ev.flags.writeable = False

    @property
    def m(self) -> int:
        return len(self.vertices)

    @functools.cached_property
    def edges(self) -> tuple:
        verts = self.vertices
        return tuple((verts[u], verts[v]) for u, v in zip(self.eu.tolist(), self.ev.tolist()))

    @functools.cached_property
    def _pairs(self) -> frozenset:
        return frozenset(self.edges)

    def has_edge(self, u: str, v: str) -> bool:
        return ((u, v) if u <= v else (v, u)) in self._pairs

    def __repr__(self):
        return f"ConnectivityGraph(m={self.m}, edges={len(self.eu)})"


def boundary(graph: ConnectivityGraph, region: Iterable[str]) -> set:
    """Vertex boundary: the endpoints of the edges that cross the region
    (inner vertices with an outside neighbor, outer ones with an inner)."""
    inside = np.zeros(graph.m, dtype=bool)
    for v in map(str, region):
        if v not in graph.index:
            raise ValueError(f"unknown vertex {v!r}")
        inside[graph.index[v]] = True
    cross = inside[graph.eu] != inside[graph.ev]
    return {graph.vertices[i] for i in np.union1d(graph.eu[cross], graph.ev[cross])}


@dataclass(frozen=True, eq=False)
class Embedding:
    """Positions eta: vertex -> R^D with locality constant c; row i of the
    (m, D) array ``points`` is the position of ``graph.vertices[i]``.
    Every coordinate is finite and c is positive and finite."""

    points: np.ndarray
    c: float = 1.0

    def __post_init__(self):
        points = np.ascontiguousarray(self.points, dtype=float)
        if points.ndim != 2:
            raise ValueError("points must be an (m, D) array")
        bad = np.flatnonzero(~np.isfinite(points).all(axis=1))
        if len(bad):
            raise ValueError(f"point {bad[0]} is not finite: {points[bad[0]].tolist()}")
        if not (self.c > 0 and math.isfinite(self.c)):
            raise ValueError(f"locality constant c must be positive and finite, got {self.c!r}")
        object.__setattr__(self, "points", points)

    @property
    def dimension(self) -> int:
        return self.points.shape[1]


def _graph_points(embedding: Embedding, graph: ConnectivityGraph) -> np.ndarray:
    """The embedding's points, after checking there is one per vertex."""
    if len(embedding.points) != graph.m:
        raise ValueError(
            f"embedding has {len(embedding.points)} points for {graph.m} vertices"
        )
    return embedding.points


def validate_embedding(embedding: Embedding, graph: ConnectivityGraph) -> list:
    """Violations of unit minimum spacing and of edge lengths <= c; empty
    when the embedding is valid.

    The closest pair comes from one k-d tree query and the longest edge
    from one vectorized norm over the edge arrays. Ties go to the first
    row, then to its first partner, which fixes the pair a spacing
    violation names.
    """
    from scipy.spatial import cKDTree  # on first use: scipy triples `import locbound`

    pts = _graph_points(embedding, graph)
    violations = []
    if graph.m > 1:
        tree = cKDTree(pts)
        near, nbr = tree.query(pts, k=2)  # a row may list a coincident point before itself
        i = int(np.argmin(near[:, 1]))
        j = min({*nbr[i].tolist(), *tree.query_ball_point(pts[i], near[i, 1])} - {i})
        dist = float(np.linalg.norm(pts[i] - pts[j]))
        if dist < 1.0 - 1e-12:
            u, v = graph.vertices[min(i, j)], graph.vertices[max(i, j)]
            violations.append(f"spacing violation: |eta({u}) - eta({v})| = {dist:.6g} < 1")

    lengths = np.linalg.norm(pts[graph.eu] - pts[graph.ev], axis=1)
    if lengths.size and lengths.max() > 0.0:
        e = int(np.argmax(lengths))
        length = float(lengths[e])
        if length > embedding.c + 1e-12:
            u, v = graph.edges[e]
            violations.append(
                f"edge violation: |eta({u}) - eta({v})| = {length:.6g} > c = {embedding.c}"
            )
    return violations


def grid_graph(shape: Sequence[int]) -> tuple:
    """Full integer grid: vertices "0".."m-1" in row-major order with unit
    axis-aligned edges; returns (graph, embedding) with c = 1."""
    shape = tuple(int(s) for s in shape)
    dim = len(shape)
    m = math.prod(shape)
    coords = np.indices(shape).reshape(dim, m)  # column i: the coordinates of vertex i
    # vertex u steps along axis a unless it is last there; the step adds
    # the row-major stride of a
    axis, eu = np.nonzero(coords < np.array(shape).reshape(dim, 1) - 1)
    strides = np.array([math.prod(shape[a + 1:]) for a in range(dim)], dtype=np.int64)
    graph = ConnectivityGraph._from_rows(map(str, range(m)), eu, eu + strides[axis])
    return graph, Embedding(coords.T.astype(float), c=1.0)


# ---------------------------------------------------------------------------
# Operator application on labelled registers


def _fixed_factors(dims: Sequence[int], keep: Sequence[int], ndim: int) -> list:
    """The row factors a slice fixes: leading row factors outside ``keep``,
    one at a time, until a slice of the ``dims * ndim``-shaped view has at
    most _SLICE entries or none is left to fix. Row factors in ``keep`` and
    every column factor stay whole."""
    size = math.prod(dims) ** ndim
    fixed = []
    for p in range(len(dims)):
        if size <= _SLICE:
            break
        if p not in keep:
            fixed.append(p)
            size //= dims[p]
    return fixed


def _slices(dims: Sequence[int], keep: Sequence[int], ndim: int) -> list:
    """Indices into the ``dims * ndim``-shaped view of an array, one per
    slice of fixed row factors (see _fixed_factors). An array of at most
    _SLICE entries is one slice, ``...``."""
    fixed = _fixed_factors(dims, keep, ndim)
    if not fixed:
        return [...]
    out = []
    for values in itertools.product(*(range(dims[p]) for p in fixed)):
        idx = [slice(None)] * (len(dims) * ndim)
        for p, v in zip(fixed, values):
            idx[p] = slice(v, v + 1)
        out.append(tuple(idx))
    return out


@functools.lru_cache(maxsize=256)
def _gather_plan(dims: tuple, positions: tuple, ndim: int) -> tuple:
    """How to bring the support of an operator on ``positions`` in front of
    each slice and back: the row support of a state vector (``ndim`` 1),
    for K v; the (row support, column support) pair of a density matrix
    (``ndim`` 2), for one pass of a superoperator. The operand of the
    product lists the axes it contracts first and every other axis after
    them in its own order, as np.tensordot does.

    A slice is a set of rows of the ``(d, cols)`` view of the array, the
    same for each ``offset`` in ``offsets`` but shifted by it. Returns
    (offsets, gather, back, spread):
    - gather: the product's operand, as flat positions from row
      ``offset`` on: row support, then column support for a matrix, then
      the rest;
    - back: entry p of the slice, its rows in ascending order and each
      row's columns in order, is entry back[p] of the product;
    - spread: the slice's rows less ``offset`` in ascending order, or None
      if consecutive.
    Built on first use; gather and back are as large as one slice, int32
    (a MAX_QUBITS density matrix has fewer than 2^31 entries)."""
    n = len(dims)
    fixed = _fixed_factors(dims, positions, ndim)
    row_ids = np.arange(math.prod(dims)).reshape(dims)[
        tuple(slice(0, 1) if p in fixed else slice(None) for p in range(n))]
    strides = [math.prod(dims[p + 1:]) for p in fixed]
    offsets = tuple(sum(v * s for v, s in zip(values, strides))
                    for values in itertools.product(*(range(dims[p]) for p in fixed)))
    cols = math.prod(dims) ** (ndim - 1)
    shape = row_ids.shape + tuple(dims) * (ndim - 1)
    front = [p + n * side for side in range(ndim) for p in positions]
    order = front + [a for a in range(n * ndim) if a not in front]
    flat = (row_ids.reshape(-1, 1) * cols + np.arange(cols)).astype(np.int32)
    gather = flat.reshape(shape).transpose(order).ravel()
    got = np.arange(flat.size, dtype=np.int32).reshape(shape).transpose(order).ravel()
    back = np.empty_like(got)
    back[got] = np.arange(got.size, dtype=np.int32)
    spread = row_ids.ravel()
    if spread[-1] - spread[0] == spread.size - 1:
        spread = None
    for a in (gather, back, spread):
        if a is not None:
            a.flags.writeable = False  # every caller shares the cached plan
    return offsets, gather, back, spread


@functools.lru_cache(maxsize=1)
def _openblas_thread_counts() -> tuple:
    """(get, set) of the thread count of each OpenBLAS copy in _OPENBLAS,
    found on first use; a missing library or symbol is skipped."""
    import ctypes
    import glob
    import importlib.util

    out = []
    for package, pattern, suffix in _OPENBLAS:
        spec = importlib.util.find_spec(package)
        if spec is None or not spec.submodule_search_locations:
            continue
        site = os.path.dirname(list(spec.submodule_search_locations)[0])
        for path in sorted(glob.glob(os.path.join(site, pattern))):
            try:
                lib = ctypes.CDLL(path)
                get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
                put = getattr(lib, f"scipy_openblas_set_num_threads{suffix}")
            except (OSError, AttributeError):
                continue
            get.restype, get.argtypes = ctypes.c_int, []
            put.restype, put.argtypes = None, [ctypes.c_int]
            out.append((get, put))
    return tuple(out)


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block on one OpenBLAS thread, then restore each copy's old
    count. Two callers: the REE search, whose products are small (at most
    64 x 64, and scipy's L-BFGS-B vectors), so that a second thread only
    adds hand-off cost (the search ran 3-10x slower on two threads than on
    one); and a dense pass shared among threads (_sliced_products), whose
    workers each take one CPU, so that BLAS threads would only contend
    with them."""
    counts = _openblas_thread_counts()
    before = [get() for get, _ in counts]
    for _, put in counts:
        put(1)
    try:
        yield
    finally:
        for (_, put), n in zip(counts, before):
            put(n)


def _pass_workers(slices: int) -> int:
    """Threads that share a dense pass of ``slices`` slices: one per usable
    CPU (at most one per slice) from _SHARED_PASS slices on, else 1."""
    if slices < _SHARED_PASS:
        return 1
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:  # no affinity mask on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, slices)


def _share(work, items: Sequence, workers: int) -> None:
    """``work(todo)`` on the calling thread and on ``workers - 1`` pool
    threads, every ``todo`` pulling from one lock-guarded iterator over
    ``items``: each item goes to one worker, and a slow worker holds the
    others back by one item at most. The pool is joined before this
    returns; then a worker's exception is raised here, once the others
    have done the remaining items (a failed pass is discarded anyway)."""
    if workers < 2:  # ThreadPoolExecutor(max_workers=0) raises
        return work(items)
    from concurrent.futures import ThreadPoolExecutor  # on first use: 4-8 ms at import
    shared = iter(items)
    lock = threading.Lock()

    def todo():
        while True:
            with lock:
                try:
                    item = next(shared)
                except StopIteration:
                    return
            yield item

    with ThreadPoolExecutor(workers - 1) as pool:
        helpers = [pool.submit(work, todo()) for _ in range(workers - 1)]
        work(todo())
    for helper in helpers:
        helper.result()


def _sliced_products(arr: np.ndarray, dims: Sequence[int], positions: Sequence[int],
                     op: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    """One product with ``op`` per slice of ``arr``, by its gather plan:
    one take of the operand from the C-contiguous source, ``np.dot``, and
    one write-back, a take straight into the result when the slice's rows
    are consecutive (always so for a one-slice array), else into scratch
    and then onto the slice's rows. ``out`` as in apply_channel.

    A pass of at least _SHARED_PASS slices is shared among _pass_workers
    threads (see _share), each with its own scratch, on one OpenBLAS
    thread. Slices read and write disjoint rows and each is computed by
    the same code, so the result has the same bytes for any worker
    count."""
    d = math.prod(dims)
    offsets, gather, back, spread = _gather_plan(tuple(dims), tuple(positions), arr.ndim)
    dtype = np.result_type(arr, op)
    if out is not None and not out.flags.c_contiguous:
        raise ValueError("out must be C-contiguous")
    src = np.ascontiguousarray(arr, dtype).reshape(d, -1)
    res = np.empty_like(src) if out is None else out.reshape(src.shape)
    n_rows = gather.size // src.shape[1]

    def work(todo):
        x, y = np.empty((2, gather.size), dtype)
        for offset in todo:
            src[offset:].take(gather, out=x, mode="clip")
            np.dot(op, x.reshape(len(op), -1), out=y.reshape(len(op), -1))
            if spread is None:
                y.take(back, out=res[offset:offset + n_rows].reshape(-1), mode="clip")
            else:
                y.take(back, out=x, mode="clip")
                res[offset:][spread] = x.reshape(n_rows, -1)

    workers = _pass_workers(len(offsets))
    if workers == 1:
        work(offsets)
    else:
        with _one_blas_thread():
            _share(work, offsets, workers)
    return res.reshape(arr.shape) if out is None else out


def apply_operator(vec: np.ndarray, dims: Sequence[int], positions: Sequence[int],
                   op: np.ndarray) -> np.ndarray:
    """K v for a state vector, as a new array; a density matrix takes
    apply_channel.

    K acts on the tensor factors at ``positions``, listed in K's own
    factor order (any order, not necessarily sorted). The work goes one
    slice of fixed non-support factors at a time (see _sliced_products),
    through slice-sized scratch.
    """
    if vec.ndim != 1:
        raise ValueError("apply_operator takes a state vector; use apply_channel on a matrix")
    dg = op.shape[0]
    # raises unless K fits the support; K v then runs np.tensordot's gemm
    k = op.reshape(tuple(dims[p] for p in positions) * 2).reshape(dg, dg)
    return _sliced_products(vec, dims, positions, k, None)


def apply_channel(mat: np.ndarray, dims: Sequence[int], positions: Sequence[int],
                  superop: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """sum_i K_i mat K_i^dag in one pass of ``superop`` (see
    KrausGate.superoperator) over the (row support, column support) index
    pair of each slice; ``positions`` as in apply_operator. The result goes
    into ``out``: a C-contiguous array of ``mat``'s shape, which may be
    ``mat`` itself, or a new array if None. A superoperator that does not
    fit the support raises ValueError."""
    dg = math.prod(dims[p] for p in positions)
    if mat.ndim != 2 or superop.shape != (dg * dg, dg * dg):
        raise ValueError(f"a {superop.shape} superoperator does not fit a {mat.ndim}-D "
                         f"array on a support of dimension {dg}")
    return _sliced_products(mat, dims, positions, superop, out)


# ---------------------------------------------------------------------------
# Gates, layers, circuits


class CircuitError(ValueError):
    """An invalid circuit or module. ``layers`` are the 0-based positions
    of the layers at fault, so a file parser can name their lines."""

    def __init__(self, message: str, layers: tuple = ()):
        super().__init__(message)
        self.layers = layers


class InvariantError(RuntimeError):
    """An internal consistency check failed: a fault in this package, not
    in its input."""


@dataclass(frozen=True, eq=False)
class Unitary:
    qubits: tuple
    matrix: np.ndarray

    def __init__(self, qubits, matrix):
        object.__setattr__(self, "qubits", tuple(str(q) for q in qubits))
        object.__setattr__(self, "matrix", np.asarray(matrix, dtype=complex))

    @property
    def superoperator(self) -> np.ndarray:
        """U (x) conj(U), built on each read: a module keeps no copy."""
        return _pair_product(self.matrix)


@dataclass(frozen=True, eq=False)
class Conditional:
    """Unitary on fixed support chosen by recorded outcomes: ``table`` maps
    the tuple of the last outcomes of ``keys`` to a unitary; an outcome
    tuple with no entry leaves the branch unchanged."""

    qubits: tuple
    keys: tuple
    table: dict

    def __init__(self, qubits, keys, table: Mapping):
        object.__setattr__(self, "qubits", tuple(str(q) for q in qubits))
        object.__setattr__(self, "keys", tuple(keys))
        object.__setattr__(self, "table", {
            tuple(outcomes): np.asarray(u, dtype=complex) for outcomes, u in table.items()
        })


@dataclass(frozen=True, eq=False)
class KrausGate:
    qubits: tuple
    operators: tuple
    key: str | None = None

    def __init__(self, qubits, operators, key=None):
        object.__setattr__(self, "qubits", tuple(str(q) for q in qubits))
        object.__setattr__(self, "operators", tuple(np.asarray(k, dtype=complex) for k in operators))
        object.__setattr__(self, "key", key)

    @functools.cached_property
    def superoperator(self) -> np.ndarray:
        """S = sum_i K_i (x) conj(K_i), so that the channel's output is
        (sum_i K_i rho K_i^dag)_ij = sum_ab S_(ij),(ab) rho_ab; built on
        first use. Every reset_gate shares one read-only S."""
        if list(map(id, self.operators)) == list(map(id, _RESET_OPERATORS)):
            return _reset_superoperator()
        return sum(map(_pair_product, self.operators))


def _pair_product(k: np.ndarray) -> np.ndarray:
    """K (x) conj(K), by one broadcast product."""
    d = len(k)
    return (k[:, None, :, None] * k.conj()[None, :, None, :]).reshape(d * d, d * d)


def _shared_operators(*mats) -> tuple:
    """Complex read-only arrays of ``mats``, which every gate built from
    them shares (KrausGate keeps a complex array as it is)."""
    out = tuple(np.array(m, dtype=complex) for m in mats)
    for m in out:
        m.flags.writeable = False
    return out


_RESET_OPERATORS = _shared_operators([[1, 0], [0, 0]], [[0, 1], [0, 0]])
_BASIS_PROJECTORS = _shared_operators([[1, 0], [0, 0]], [[0, 0], [0, 1]])


@functools.cache
def _reset_superoperator() -> np.ndarray:
    """The superoperator of reset_gate, built on first use; read-only, as
    every reset shares it."""
    out = sum(map(_pair_product, _RESET_OPERATORS))
    out.flags.writeable = False
    return out


def reset_gate(qubit: str) -> KrausGate:
    """Reset to |0>: Kraus {|0><0|, |0><1|}; separable and single-qubit."""
    return KrausGate((qubit,), _RESET_OPERATORS)


def measure_gate(qubit: str, key: str) -> KrausGate:
    """Computational-basis measurement: projectors {|0><0|, |1><1|}, the
    outcome i recorded under ``key``."""
    return KrausGate((qubit,), _BASIS_PROJECTORS, key=key)


@dataclass(frozen=True)
class Layer:
    """One separable A:X channel: simultaneous gates on disjoint supports."""

    gates: tuple

    def __init__(self, gates):
        object.__setattr__(self, "gates", tuple(gates))


def validate_layer(graph: ConnectivityGraph, layer: Layer) -> list:
    """Violations of locality (supports are cliques of G), disjointness and
    completeness; empty when the layer is valid."""
    violations = []
    seen: set = set()
    for gate in layer.gates:
        if not isinstance(gate, (Unitary, Conditional, KrausGate)):
            violations.append(f"unknown gate type {type(gate).__name__}")
            continue
        supp = gate.qubits
        for q in supp:
            if q not in graph.index:
                violations.append(f"gate references unknown qubit {q!r}")
            if q in seen:
                violations.append(f"qubit {q!r} used by two gates in one layer")
            seen.add(q)
        for i in range(len(supp)):
            for j in range(i + 1, len(supp)):
                if not graph.has_edge(supp[i], supp[j]):
                    violations.append(f"locality violation: ({supp[i]}, {supp[j]}) not an edge")
        dim = 2 ** len(supp)
        if isinstance(gate, Unitary):
            violations.extend(_unitary_violations(gate.matrix, dim))
        elif isinstance(gate, Conditional):
            for outcomes, u in gate.table.items():
                if len(outcomes) != len(gate.keys):
                    violations.append(
                        f"conditional entry {outcomes}: {len(gate.keys)} outcomes expected"
                    )
                violations.extend(
                    f"conditional entry {outcomes}: {v}" for v in _unitary_violations(u, dim)
                )
        elif any(k.shape != (dim, dim) for k in gate.operators):
            violations.append("Kraus operator shape mismatch")
        else:
            total = sum(k.conj().T @ k for k in gate.operators)
            if not np.abs(total - np.eye(dim)).max() <= TRACE_TOL:
                violations.append("Kraus completeness violation: sum K^dag K != I")
    return violations


def _unitary_violations(u: np.ndarray, dim: int) -> list:
    if u.shape != (dim, dim):
        return [f"unitary shape {u.shape} != {(dim, dim)}"]
    if not np.abs(u.conj().T @ u - np.eye(dim)).max() <= TRACE_TOL:  # NaN fails too
        return ["unitary completeness violation: U^dag U != I"]
    return []


@dataclass(frozen=True)
class Circuit:
    """Ordered layers over one connectivity graph. Every layer is checked
    against the graph on construction, and the fields are frozen, so a
    Circuit that exists is valid."""

    graph: ConnectivityGraph
    layers: tuple

    def __init__(self, graph, layers):
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "layers", tuple(layers))
        violations = [(i, v) for i, layer in enumerate(self.layers)
                      for v in validate_layer(graph, layer)]
        if violations:
            raise CircuitError("; ".join(f"layer {i}: {v}" for i, v in violations),
                               tuple(dict.fromkeys(i for i, _ in violations)))

    @property
    def depth(self) -> int:
        return len(self.layers)


def _branch_apply_gate(record, mat, dims, positions, gate):
    """Apply one gate to one branch, each channel as one superoperator
    pass; yields (record, matrix). A keyed KrausGate yields (record +
    ((key, i),), K_i mat K_i^dag) for every i, unnormalized, so each trace
    is that branch's weight; any other gate yields its whole channel. A
    writable C-contiguous ``mat`` belongs to the running step and takes
    the last result in place; any other is never written."""
    def apply(superop, in_place=True):
        out = mat if in_place and _owned(mat) else None
        return apply_channel(mat, dims, positions, superop, out=out)

    if isinstance(gate, Conditional):
        last = dict(record)
        u = gate.table.get(tuple(last.get(k) for k in gate.keys))
        yield record, mat if u is None else apply(_pair_product(u))
    elif isinstance(gate, KrausGate) and gate.key is not None:
        final = len(gate.operators) - 1
        for i, k in enumerate(gate.operators):
            yield record + ((gate.key, i),), apply(_pair_product(k), in_place=i == final)
    elif isinstance(gate, (Unitary, KrausGate, _Block)):
        yield record, apply(gate.superoperator)
    else:
        raise CircuitError(f"unknown gate type {type(gate).__name__}")


def _owned(mat: np.ndarray) -> bool:
    """Whether the running channel step owns ``mat`` and may update it in
    place: a writable C-contiguous matrix, never a branch of a
    ClassicalQuantumState (those are read-only)."""
    return mat.flags.writeable and mat.flags.c_contiguous


def _last_outcomes(record: tuple, keys: tuple) -> tuple:
    """The record that holds only the last outcome of each of ``keys`` that
    ``record`` wrote, in ``keys`` order."""
    last = dict(record)
    return tuple((k, last[k]) for k in keys if k in last)


def _finish(layout, items, before: float, live: tuple | None = None) -> ClassicalQuantumState:
    """The finish step of every channel: reduce each record of the (record,
    matrix) items to the ``live`` keys if given (see _last_outcomes), merge
    equal records, drop branches of weight <= NEGLIGIBLE, and check that
    the total weight stays ``before``. Matrices are not re-symmetrized:
    every channel keeps them Hermitian to rounding."""
    if live is not None:
        items = ((_last_outcomes(rec, live), mat) for rec, mat in items)
    state = ClassicalQuantumState(layout, items).merged()
    total = state.total_weight
    if not abs(total - before) <= TRACE_TOL:
        raise InvariantError(f"trace not preserved: total weight {before!r} -> {total!r}")
    return state


def apply_layer(state: ClassicalQuantumState, layer: Layer,
                live: tuple | None = None) -> ClassicalQuantumState:
    """One separable channel step, then the finish step. Each record keeps
    every write, unless ``live`` names the keys whose last outcome is
    still read later: then it keeps just those (see _finish)."""
    layout = state.layout
    dims = layout.dims
    before = state.total_weight  # read first: an owned branch is updated in place
    items = state.branches
    for gate in layer.gates:
        positions = layout.positions(gate.qubits)
        items = [out for rec, mat in items
                 for out in _branch_apply_gate(rec, mat, dims, positions, gate)]
    return _finish(layout, items, before, live)


# ---------------------------------------------------------------------------
# Noise


def _depolarize_matrix(mat, dims, pos, p):
    """N_p(rho) = (1 - p) rho + p I/d (x) tr_q rho on the factor at ``pos``,
    in place on the writable C-contiguous ``mat``, which is returned; one
    slice of fixed row factors other than ``pos`` at a time.

    p = 1 is erasure: the factor is replaced by the maximally mixed state.
    """
    if not mat.flags.c_contiguous:
        raise ValueError("mat must be C-contiguous")
    n = len(dims)
    d = dims[pos]
    t = mat.reshape(tuple(dims) * 2)
    diags = []
    for i in range(d):
        diag = [slice(None)] * (2 * n)
        diag[pos] = diag[pos + n] = i
        diags.append(tuple(diag))
    slices = _slices(dims, (pos,), 2)
    mixed = np.empty(t[slices[0]][diags[0]].shape, mat.dtype)
    for idx in slices:
        s = t[idx]
        np.trace(s, axis1=pos, axis2=pos + n, out=mixed)
        np.multiply(p / d, mixed, out=mixed)
        np.multiply(1.0 - p, s, out=s)
        for diag in diags:
            s[diag] += mixed
    return mat


def noise_apply(state: ClassicalQuantumState, rates: Mapping[str, float]) -> ClassicalQuantumState:
    """Depolarizing noise at rate ``rates[q]`` on each qubit q, branch by
    branch, with exact channel arithmetic; rate 1 erases, replacing the
    qubit by the maximally mixed state. The channels act on different
    factors, so their order does not matter, and the X record is
    untouched. Each noisy branch is copied once, unless the running step
    owns it (see _owned), and then updated in place. simulate_module runs
    here the noise blocks of a layer that no gate took in (see _fuse).
    A label the layout lacks raises its KeyError, as in apply_layer.
    """
    for q, rate in rates.items():
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"noise rate {rate!r} on qubit {q!r} must lie in [0, 1]")
    layout = state.layout
    dims = layout.dims
    factors = [(layout.position(q), rate) for q, rate in rates.items() if rate > 0.0]

    def noisy(mat):
        if factors and not _owned(mat):
            mat = mat.copy()
        for pos, rate in factors:
            mat = _depolarize_matrix(mat, dims, pos, rate)
        return mat

    before = state.total_weight  # read first: an owned branch is updated in place
    items = ((rec, noisy(mat)) for rec, mat in state.branches)
    return _finish(layout, items, before)


@functools.lru_cache(maxsize=256)
def _noise_superoperator(rate: float) -> np.ndarray:
    """The superoperator of depolarizing noise at ``rate`` on one qubit, in
    KrausGate.superoperator's index order: S_(ij),(ab) = (1 - r) [i=a][j=b]
    + r/2 [i=j][a=b]. Built on first use; read-only, as every caller
    shares it."""
    vec_eye = np.eye(2).ravel()
    out = ((1.0 - rate) * np.eye(4) + rate / 2 * np.outer(vec_eye, vec_eye)).astype(complex)
    out.flags.writeable = False
    return out


def _on_support(parts: Sequence[tuple], support: tuple) -> np.ndarray:
    """The superoperator, in KrausGate.superoperator's index order over
    ``support``, of the channels ``parts``, (superoperator, qubits) pairs
    on disjoint qubits of ``support``, with the identity on every other
    qubit: one tensor product and one transpose."""
    covered = {q for _, qubits in parts for q in qubits}
    parts = [*parts, *((np.eye(4), (q,)) for q in support if q not in covered)]
    t = np.ones(())
    axes = {}  # qubit -> the axes of its (i, j, a, b) indices in t
    for superop, qubits in parts:
        w = len(qubits)  # the part's axes are (i..., j..., a..., b...), each w long
        axes.update((q, [t.ndim + i + part * w for part in range(4)])
                    for i, q in enumerate(qubits))
        t = np.multiply.outer(t, superop.reshape((2,) * 4 * w))
    order = [axes[q][part] for part in range(4) for q in support]
    return t.transpose(order).reshape(4 ** len(support), 4 ** len(support))


class _Block:
    """A fixed keyless channel run as one superoperator pass: depolarizing
    noise at ``rate`` on one qubit (a round's noise is a layer of these),
    or blocks fused into one (see _fuse), whose ``rate`` is None. A plain
    class, as a dataclass adds about 0.5 ms to every import."""

    __slots__ = ("qubits", "superoperator", "rate")

    def __init__(self, qubits: tuple, superoperator: np.ndarray, rate: float | None = None):
        self.qubits, self.superoperator, self.rate = qubits, superoperator, rate


def _fusable(gate) -> bool:
    """A Unitary, an unkeyed KrausGate or a _Block on at most two qubits:
    a fixed channel that reads and writes no key. Every other gate is a
    barrier on its qubits."""
    return (isinstance(gate, (Unitary, _Block))
            or isinstance(gate, KrausGate) and gate.key is None) and len(gate.qubits) <= 2


def _fuse(layers: Sequence[Sequence]) -> list:
    """Fuse the gate lists ``layers`` into as few channel passes as the
    rule below allows; returns one gate list per layer, some maybe empty.

    Each gate, in order, becomes the latest block on its qubits. A
    fusable gate g (see _fusable) takes in each latest block B on its
    qubits whose support lies inside g's and that is still the latest block
    on all of B's qubits, so no gate between B and g touches B's qubits and
    moving B to g is exact. g then runs as one superoperator, S_g times
    the taken blocks' product on g's support (they act on disjoint
    qubits), at its own position, and each B leaves its layer. A gate that
    takes in nothing is kept as it is. A gate that is not fusable (a keyed
    KrausGate, a Conditional, a gate on three or more qubits) is a barrier:
    no gate after it takes in a block before it on its qubits."""
    latest: dict = {}  # qubit -> (layer, slot) of its latest block, None after a barrier
    out = [list(gates) for gates in layers]
    for i, gates in enumerate(out):
        for slot, gate in enumerate(gates):
            qubits = gate.qubits
            if not _fusable(gate):
                latest.update(dict.fromkeys(qubits))
                continue
            parts = []
            for at in dict.fromkeys(latest.get(q) for q in qubits):
                if at is not None:
                    inner = out[at[0]][at[1]]
                    if set(inner.qubits) <= set(qubits) \
                            and all(latest[x] == at for x in inner.qubits):
                        out[at[0]][at[1]] = None
                        parts.append((inner.superoperator, inner.qubits))
            if parts:
                gates[slot] = _Block(qubits, gate.superoperator @ _on_support(parts, qubits))
            latest.update(dict.fromkeys(qubits, (i, slot)))
    return [[g for g in gates if g is not None] for gates in out]


# ---------------------------------------------------------------------------
# Error-correction modules


@dataclass(frozen=True, eq=False)
class EcModule:
    """J rounds of (depolarizing noise on A, then a separable local circuit).

    ``data_qubits`` orders the n data legs of the encoder; the encoder is
    an isometry 2^k -> 2^n. The reference register R never sees noise or
    gates. Each round is a Circuit on the module's graph (same vertices
    and edges), so every layer it runs is local there; the fields are
    frozen, so that stays true.
    """

    graph: ConnectivityGraph
    rounds: tuple
    data_qubits: tuple
    encoder: np.ndarray
    p: float
    name: str = "module"

    def __post_init__(self):
        object.__setattr__(self, "rounds", tuple(self.rounds))
        object.__setattr__(self, "data_qubits", tuple(str(q) for q in self.data_qubits))
        object.__setattr__(self, "encoder", np.asarray(self.encoder, dtype=complex))
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("p must lie in [0, 1]")
        if not set(self.data_qubits) <= set(self.graph.vertices):
            raise ValueError("data qubits must be graph vertices")
        if len(set(self.data_qubits)) < len(self.data_qubits):
            q = next(q for i, q in enumerate(self.data_qubits) if q in self.data_qubits[:i])
            raise ValueError(f"data qubit {q!r} listed twice")
        graph = (self.graph.index.keys(), self.graph.edges)
        for j, circ in enumerate(self.rounds):
            if (circ.graph.index.keys(), circ.graph.edges) != graph:
                raise CircuitError(f"round {j} is a circuit on another graph")
        dim_n, dim_k = self.encoder.shape
        if dim_n != 2 ** len(self.data_qubits):
            raise ValueError("encoder row dimension must be 2^n")
        if not _is_power_of_two(dim_k):
            raise ValueError(f"encoder has {dim_k} columns; it needs 2^k")
        if not np.abs(self.encoder.conj().T @ self.encoder - np.eye(dim_k)).max() <= 1e-9:
            raise ValueError("encoder is not an isometry")

    @property
    def m(self) -> int:
        return self.graph.m

    @property
    def k(self) -> int:
        return self.encoder.shape[1].bit_length() - 1

    @property
    def depth(self) -> int:
        return max((c.depth for c in self.rounds), default=0)

    def target_state(self) -> PureState:
        """(I_R (x) U)(Phi_RL) on registers R + data qubits (data order)."""
        dk = self.encoder.shape[1]
        phi = np.eye(dk, dtype=complex) / np.sqrt(dk)  # Phi_RL; R is trivial at k = 0
        enc = (self.encoder @ phi.T).T  # rows: R index, cols: code index
        regs = [Register("R", dk)] + [Register(q, 2) for q in self.data_qubits]
        return PureState(RegisterLayout(regs), enc.ravel(), validate=False)


def _module_vector(module: EcModule, state, name: str) -> np.ndarray:
    """The vector of ``state``, the argument ``name`` of a module run, on R
    + data qubits in ``data_qubits`` order. A state without R gets a
    trivial one (dimension 1); any other register set or dimension is
    refused."""
    if not isinstance(state, PureState):
        raise CircuitError(f"{name} must be a PureState on R + data qubits")
    role = name.removesuffix("_state")
    layout = state.layout
    if "R" not in layout:
        layout = RegisterLayout((Register("R", 1),) + layout.registers)
    want = ("R",) + module.data_qubits
    if set(layout.labels) != set(want):
        raise CircuitError(
            f"{role} state registers {layout.labels} must be exactly R + data qubits {want}"
        )
    need = {"R": module.encoder.shape[1], **dict.fromkeys(module.data_qubits, 2)}
    for r in layout.registers:
        if r.dim != need[r.label]:
            raise CircuitError(
                f"{role} register {r.label!r} has dimension {r.dim}; "
                f"the module needs {need[r.label]}"
            )
    return PureState(layout, state.vector, validate=False).permuted(want).vector


def _initial_cq_state(module: EcModule, input_state) -> ClassicalQuantumState:
    """The input on R + data qubits, every other vertex in |0>, as one
    branch on R + the graph vertices in vertex order."""
    if input_state is None:
        input_state = module.target_state()
    vec = _module_vector(module, input_state, "input_state")
    others = tuple(v for v in module.graph.vertices if v not in set(module.data_qubits))
    if others:
        zeros = np.zeros(2 ** len(others), dtype=complex)
        zeros[0] = 1.0
        vec = np.kron(vec, zeros)
    regs = [Register("R", module.encoder.shape[1])]
    regs += [Register(v, 2) for v in module.data_qubits + others]
    full = PureState(RegisterLayout(regs), vec, validate=False)
    full = full.permuted(("R",) + module.graph.vertices)
    return ClassicalQuantumState.from_density(full.to_density())


def _live_keys(layers: Sequence[Sequence]) -> list:
    """For each of the gate lists ``layers``, the keys whose last outcome
    after it some later Conditional reads: read before a keyed KrausGate
    writes them again. One walk back over the gates; each tuple in a fixed
    order."""
    live: dict = {}  # an ordered set
    out = []
    for gates in reversed(layers):
        out.append(tuple(live))
        for gate in reversed(gates):
            if isinstance(gate, Conditional):
                live.update(dict.fromkeys(gate.keys))
            elif isinstance(gate, KrausGate) and gate.key is not None:
                live.pop(gate.key, None)
    return out[::-1]


def simulate_module(
    module: EcModule,
    input_state: PureState | None = None,
    erased: tuple | None = None,
) -> ClassicalQuantumState:
    """Run the module: preparation, then J rounds of noise-then-layers.

    ``erased=(region, round_index)`` substitutes the erase-then-depolarize
    channel N_Gamma for the product depolarizing noise at that round; the
    branch is computed exactly, never sampled; j must be an integer in
    0..J-1.
    Output lives on R + A.

    Each round's noise is a layer of one-qubit noise blocks, one per qubit
    at a rate above 0 (the erased rate 1 included), before the round's
    layers, and the whole run is fused once by the rule in _fuse. A noise
    block that no gate took in runs through noise_apply at its layer. A
    layer that fusion empties is skipped: it held only keyless channels,
    so its live keys equal the previous layer's.

    The initial state's matrix is fresh, so the first channel step
    updates it in place instead of copying it.

    Each layer's finish step keeps, per record, only the last outcome of
    each key that a later Conditional still reads (_live_keys) and sums
    over the rest, so the module ends in one branch with record (). That
    is exact: a Conditional reads only the last outcome of its keys, and
    the record is traced out in the end.
    """
    J = len(module.rounds)
    if erased is not None:
        j = erased[1]
        if isinstance(j, bool) or not isinstance(j, (int, np.integer)):
            raise ValueError(f"erased round {j!r} is not an integer")
        if not 0 <= j < J:
            raise ValueError(f"erased round {j} is outside 0..{J - 1} (J = {J})")
    if module.m + module.k > MAX_QUBITS:
        raise CircuitError(f"simulation limited to about {MAX_QUBITS} total qubits")
    region = set() if erased is None else set(map(str, erased[0]))
    if not region <= module.graph.index.keys():
        raise ValueError("erase region must be a subset of the noise qubits")
    state = _initial_cq_state(module, input_state)
    (_, fresh), = state.branches
    fresh.flags.writeable = True  # built here and seen by no caller: the first step owns it
    layers = []
    for j, circ in enumerate(module.rounds):
        erase = region if erased is not None and erased[1] == j else set()
        rates = ((q, 1.0 if q in erase else module.p) for q in module.graph.vertices)
        layers.append([_Block((q,), _noise_superoperator(r), r) for q, r in rates if r > 0.0])
        layers.extend(layer.gates for layer in circ.layers)
    layers = _fuse(layers)
    for gates, keys in zip(layers, _live_keys(layers)):
        noise = [g for g in gates if isinstance(g, _Block) and g.rate is not None]
        if noise:
            state = noise_apply(state, {g.qubits[0]: g.rate for g in noise})
        if len(noise) < len(gates):
            state = apply_layer(state, Layer(g for g in gates if g not in noise), keys)
    fresh.flags.writeable = False  # a module that runs no step returns its initial state
    return state


def module_fidelity(
    module: EcModule,
    input_state: PureState | None = None,
    target: PureState | None = None,
    erased: tuple | None = None,
) -> float:
    """<t|rho|t> clamped to [0, 1], where rho is the output of
    ``simulate_module(module, input_state, erased)`` averaged over the
    record and reduced to R + data qubits, and t is ``target`` (default:
    the module's encoded target). The input and the target pass one
    register check; either may leave out R when the module has k = 0.
    This is the only code that reads a fidelity off a module.
    """
    t = _module_vector(module, module.target_state() if target is None else target, "target")
    state = simulate_module(module, input_state, erased)
    data = set(module.data_qubits)
    keep = ("R",) + tuple(v for v in module.graph.vertices if v in data)
    rho = state.average_state().reduced(keep).permuted(("R",) + module.data_qubits)
    return min(max(float(np.real(t.conj() @ rho.matrix @ t)), 0.0), 1.0)


def logical_error_rate(module: EcModule) -> float:
    """delta = 1 - F(recovered state on R + data qubits, encoded target)."""
    return 1.0 - module_fidelity(module)
