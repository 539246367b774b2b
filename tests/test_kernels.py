"""The sliced dense kernels against whole-array oracles.

apply_operator, apply_channel and _depolarize_matrix work one slice of
at most _SLICE entries at a time. K v and the two in-place kernels must
agree bit for bit with the whole-array bodies they replaced (kept here as
oracles), on matrices of several slices. Every gate on a density matrix
is one superoperator pass, which must agree to 1e-12 with
sum_i K_i rho K_i^dag formed by np.kron embeddings. Each gate builds one gather plan per
support, each channel step stays near one state of memory above its
input, and importing the package builds no gather plan, superoperator or
BLAS handle, starts no thread and imports no thread pool. A pass shared
among threads gives the serial pass's bytes.
"""

import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locbound import circuit
from locbound.circuit import (
    _SLICE,
    KrausGate,
    Layer,
    Unitary,
    _depolarize_matrix,
    _gather_plan,
    _pair_product,
    _slices,
    apply_channel,
    apply_layer,
    apply_operator,
    measure_gate,
    noise_apply,
    reset_gate,
)
from locbound.qstate import ClassicalQuantumState, DensityMatrix, RegisterLayout
from locbound.rand import random_density, random_unitary

# qubit counts whose density matrices span several slices (4 and 16 at 2^14)
HALF = math.ceil(math.log2(_SLICE) / 2)
SLICED = (HALF + 1, HALF + 2)
ROOT = Path(__file__).resolve().parents[1]


def whole_array_apply(vec, dims, positions, op):
    """The whole-array K v body that the sliced kernel replaced."""
    w = len(positions)
    k = op.reshape(tuple(dims[p] for p in positions) * 2)
    t = np.tensordot(k, vec.reshape(dims), axes=(range(w, 2 * w), positions))
    return np.moveaxis(t, range(w), positions).reshape(vec.shape)


def whole_array_depolarize(mat, dims, pos, p):
    """The whole-array _depolarize_matrix body that the sliced one replaced."""
    d = dims[pos]
    left = int(np.prod(dims[:pos]))
    right = int(np.prod(dims[pos + 1:]))
    t = mat.reshape(left, d, right, left, d, right)
    mixed = (p / d) * np.trace(t, axis1=1, axis2=4)
    out = (1.0 - p) * t
    for i in range(d):
        out[:, i, :, :, i, :] += mixed
    return out.reshape(mat.shape)


def kron_embed(op, n, positions):
    """``op`` on the qubits at ``positions`` (in op's factor order) as a
    2^n x 2^n matrix."""
    rest = [q for q in range(n) if q not in positions]
    order = list(positions) + rest
    t = np.kron(op, np.eye(2 ** len(rest))).reshape((2,) * (2 * n))
    axes = [order.index(q) for q in range(n)]
    return t.transpose(axes + [a + n for a in axes]).reshape(2 ** n, 2 ** n)


def _density(n, seed):
    layout = RegisterLayout.qubits(*map(str, range(n)))
    return random_density(np.random.default_rng(seed), layout).matrix


@pytest.mark.parametrize("n", SLICED)
def test_sliced_apply_operator_matches_oracles(n):
    # last, first, sorted, unsorted, non-adjacent and three-qubit supports.
    # K v through apply_operator is bit for bit the tensordot body;
    # K rho K^dag, one apply_channel pass of K (x) conj(K) written to a new
    # array, to a given buffer and over the input itself, matches the
    # np.kron embedding
    rng = np.random.default_rng(n)
    dims = (2,) * n
    rho = _density(n, n)
    vec = rng.standard_normal(2 ** n) + 1j * rng.standard_normal(2 ** n)
    for positions in ([n - 1], [0], [1, 2], [3, 0], [0, n - 1], [n - 1, 2, 0], [2, 3, 4]):
        assert len(_slices(dims, positions, 2)) > 1
        dg = 2 ** len(positions)
        op = rng.standard_normal((dg, dg)) + 1j * rng.standard_normal((dg, dg))
        full = kron_embed(op, n, positions)
        kv = whole_array_apply(vec, dims, positions, op)
        assert np.abs(kv - full @ vec).max() < 1e-12
        assert np.array_equal(apply_operator(vec, dims, positions, op), kv), positions
        sandwich = full @ rho @ full.conj().T
        for where in ("new", "buffer", "in place"):
            arr = rho.copy()
            out = {"new": None, "buffer": np.empty_like(arr), "in place": arr}[where]
            got = apply_channel(arr, dims, positions, _pair_product(op), out=out)
            assert out is None or got is out
            assert np.abs(got - sandwich).max() < 1e-12, (positions, where)


@pytest.mark.parametrize("n", SLICED)
def test_sliced_depolarize_matches_whole_array(n):
    # compared as bytes on an input with a block of -0.0 entries (factor 1
    # in |1> on both sides), so that a reordered sum would show: np.trace
    # starts from +0.0, so two -0.0 diagonal entries add to +0.0
    dims = (2,) * n
    rho = _density(n, 2 * n).copy()
    block = np.ix_(*[(np.arange(2 ** n) >> (n - 2)) & 1 == 1] * 2)
    rho[block] = complex(-0.0, -0.0)
    for pos in (0, n // 2, n - 1):
        assert len(_slices(dims, (pos,), 2)) > 1
        for p in (0.3, 1.0):
            got = _depolarize_matrix(rho.copy(), dims, pos, p)
            assert got.tobytes() == whole_array_depolarize(rho, dims, pos, p).tobytes()


def test_channel_steps_stay_near_one_state():
    # the tracemalloc peak above the held input of each step is at most
    # 1.25 states: its one owned output plus slice-sized scratch
    n = 9
    rng = np.random.default_rng(9)
    layout = RegisterLayout.qubits(*map(str, range(n)))
    state = ClassicalQuantumState.from_density(random_density(rng, layout))
    one = state.layout.dim ** 2 * 16
    layer = Layer([Unitary(("0", "1"), random_unitary(rng, 4)),
                   Unitary(("4", "8"), random_unitary(rng, 4))])
    steps = {
        "noise_apply": lambda: noise_apply(state, dict.fromkeys(layout.labels, 0.1)),
        "apply_layer": lambda: apply_layer(state, layer),
        "average_state": state.average_state,
    }
    for name, step in steps.items():
        tracemalloc.start()
        try:
            step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * one, f"{name}: {peak / one:.2f} states"


@pytest.mark.parametrize("n", (3,) + SLICED)
def test_fortran_ordered_branch_keeps_every_gate(n):
    # an F-ordered branch (a conjugated transpose) through an unkeyed
    # KrausGate and then a Unitary in one layer gives the same bytes as its
    # C-ordered copy, and matches an np.kron reference
    rng = np.random.default_rng(n)
    layout = RegisterLayout.qubits(*map(str, range(n)))
    rho = _density(n, 3 * n)
    f_rho = np.asarray(rho.conj().T)
    assert f_rho.flags.f_contiguous and not f_rho.flags.c_contiguous
    p = 0.3
    kraus = [np.sqrt(1 - p) * np.eye(2), np.sqrt(p) * np.array([[0, 1], [1, 0]])]
    u = random_unitary(rng, 4)
    layer = Layer([KrausGate(("0",), kraus), Unitary(("1", str(n - 1)), u)])
    got = {}
    for name, mat in (("F", f_rho), ("C", np.ascontiguousarray(f_rho))):
        state = apply_layer(ClassicalQuantumState.from_density(DensityMatrix(layout, mat)), layer)
        (_, got[name]), = state.branches
    assert got["F"].tobytes() == got["C"].tobytes()
    ks = [kron_embed(k, n, [0]) for k in kraus]
    full = kron_embed(u, n, [1, n - 1])
    expect = full @ sum(k @ f_rho @ k.conj().T for k in ks) @ full.conj().T
    assert np.abs(got["F"] - expect).max() < 1e-12


@pytest.mark.parametrize("n", (5,) + SLICED)
def test_one_pass_channel_matches_two_sided_applies(n):
    # the superoperator pass against sum_i K_i rho K_i^dag, each product
    # formed by np.kron embeddings; one slice at n = 5, several above;
    # last, first, unsorted and non-adjacent supports; a new array, a given
    # buffer, in place, and an F-ordered input
    rng = np.random.default_rng(10 + n)
    dims = (2,) * n
    rho = _density(n, 4 * n)
    f_rho = np.asarray(rho.conj().T)
    assert f_rho.flags.f_contiguous and not f_rho.flags.c_contiguous
    for positions in ([n - 1], [0], [3, 0], [0, n - 1]):
        assert (len(_slices(dims, positions, 2)) > 1) == (n in SLICED)
        dg = 2 ** len(positions)
        iso = random_unitary(rng, 3 * dg)[:, :dg]  # three Kraus operators of a channel
        gate = KrausGate([str(q) for q in positions], iso.reshape(3, dg, dg))
        ks = [kron_embed(k, n, positions) for k in gate.operators]
        full = sum(k @ rho @ k.conj().T for k in ks)
        for where, mat in (("new", rho), ("buffer", rho), ("in place", rho.copy()),
                           ("F-ordered", f_rho)):
            out = {"buffer": np.empty_like(rho), "in place": mat}.get(where)
            got = apply_channel(mat, dims, positions, gate.superoperator, out=out)
            assert out is None or got is out
            assert np.abs(got - full).max() < 1e-12, (positions, where)


def test_gates_on_one_support_share_one_plan():
    # a Unitary, a measurement and a reset on the same qubit of one density
    # matrix all run through the one (row support, column support) plan
    n = 6
    layout = RegisterLayout.qubits(*map(str, range(n)))
    state = ClassicalQuantumState.from_density(DensityMatrix(layout, _density(n, 7)))
    _gather_plan.cache_clear()
    for gate in (Unitary(("2",), random_unitary(np.random.default_rng(2), 2)),
                 measure_gate("2", "s"), reset_gate("2")):
        state = apply_layer(state, Layer([gate]))
    info = _gather_plan.cache_info()
    assert (info.currsize, info.misses) == (1, 1)


def test_unitary_superoperator_is_its_one_operator_channel():
    u = random_unitary(np.random.default_rng(3), 4)
    s = Unitary(("0", "1"), u).superoperator
    assert np.array_equal(s, KrausGate(("0", "1"), [u]).superoperator)
    assert s.shape == (16, 16)


_IMPORT_GUARD = """
import sys
ran = set()
def watch(frame, event, arg):
    if event == "call" and frame.f_code.co_name in ("_gather_plan", "superoperator"):
        ran.add(frame.f_code.co_name)
sys.setprofile(watch)
import locbound
sys.setprofile(None)
futures = "concurrent.futures" in sys.modules
import threading
from locbound.circuit import _gather_plan, _openblas_thread_counts
print(sorted(ran), _gather_plan.cache_info().currsize, threading.active_count(),
      _openblas_thread_counts.cache_info().currsize, futures)
"""


def test_import_builds_no_plan_or_superoperator():
    # plans, superoperators and BLAS handles are made on first use, no
    # thread is started and the thread pool's module (4-8 ms) is not
    # imported, so `import locbound` (and so every process start) pays for
    # none of them
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_GUARD], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    assert proc.stdout.split() == ["[]", "0", "1", "0", "False"]


def test_apply_operator_refuses_an_operator_off_its_support():
    # a two-qubit K on one qubit of a vector is refused, and so is a
    # density matrix, which takes apply_channel
    n = 3
    rho = _density(n, 6)
    for arr in (rho, rho[:, 0].copy()):
        with pytest.raises(ValueError):
            apply_operator(arr, (2,) * n, [0], np.eye(4))


def test_apply_channel_refuses_a_superoperator_off_its_support():
    # a two-qubit superoperator on one qubit would reshape into a pass
    # that returns a matrix of trace -0.35; a vector is refused too
    n = 3
    dims = (2,) * n
    s = np.random.default_rng(0).standard_normal((16, 16))
    with pytest.raises(ValueError, match="does not fit"):
        apply_channel(np.eye(8) / 8, dims, [0], s)
    with pytest.raises(ValueError, match="does not fit"):
        apply_channel(np.ones(8) / 8, dims, [0], np.eye(4))


def test_in_place_kernels_refuse_non_c_contiguous_targets():
    n = 3
    dims = (2,) * n
    rho = _density(n, 5)
    f_buf = np.asfortranarray(rho)
    with pytest.raises(ValueError, match="C-contiguous"):
        apply_channel(rho, dims, [0], np.eye(4), out=f_buf)
    with pytest.raises(ValueError, match="C-contiguous"):
        _depolarize_matrix(f_buf, dims, 0, 0.1)


# ---------------------------------------------------------------------------
# Dense passes shared among threads


def _force_workers(monkeypatch, workers):
    """Share every pass among ``workers`` threads (1: keep it serial), and
    record the worker count of each shared pass."""
    monkeypatch.setattr(circuit, "_SHARED_PASS", 1 if workers > 1 else math.inf)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)),
                        raising=False)
    used = []
    share = circuit._share

    def counted(work, items, n_workers):
        used.append(n_workers)
        return share(work, items, n_workers)

    monkeypatch.setattr(circuit, "_share", counted)
    return used


@pytest.mark.parametrize("n", (10, 11))
def test_shared_pass_matches_serial_bytes(n, monkeypatch):
    # a Unitary, an unkeyed KrausGate and a fused noisy gate, on a support
    # whose slice rows are consecutive and on one whose rows are spread,
    # into a new array and in place: three workers on a host of fewer
    # cores, switching often, give the serial pass's bytes
    rng = np.random.default_rng(30 + n)
    dims = (2,) * n
    d = 2 ** n
    mat = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for positions, spread in (((n - 2, n - 1), False), ((n - 1, 1), True)):
            assert (_gather_plan(dims, positions, 2)[3] is not None) == spread
            qubits = tuple(map(str, positions))
            u = random_unitary(rng, 4)
            iso = random_unitary(rng, 12)[:, :4]  # three Kraus operators of a channel
            noise = [circuit._Block((q,), circuit._noise_superoperator(r), r)
                     for q, r in zip(qubits, (0.1, 0.2))]
            left, (fused,) = circuit._fuse([noise, [Unitary(qubits, u)]])
            assert left == [] and isinstance(fused, circuit._Block)
            for gate in (Unitary(qubits, u), KrausGate(qubits, iso.reshape(3, 4, 4)), fused):
                serial = None
                for workers in (1, 3):
                    used = _force_workers(monkeypatch, workers)
                    for where in ("new", "in place"):
                        arr = mat.copy()
                        out = arr if where == "in place" else None
                        got = apply_channel(arr, dims, positions, gate.superoperator,
                                            out=out).tobytes()
                        serial = serial or got
                        assert got == serial, (positions, type(gate).__name__, workers, where)
                    assert used == ([3, 3] if workers > 1 else [])
    finally:
        sys.setswitchinterval(old)


def test_shared_pass_leaves_no_thread_and_raises_a_failed_write(monkeypatch):
    # the helpers of a pass are joined before it returns; a pass whose
    # every worker fails (a read-only out) raises instead of returning
    n = 10
    dims = (2,) * n
    mat = _density(n, 11).copy()
    s = _pair_product(random_unitary(np.random.default_rng(11), 4))
    used = _force_workers(monkeypatch, 2)
    before = threading.active_count()
    for positions in ([n - 1, n - 2], [n - 1, 1]):
        apply_channel(mat, dims, positions, s, out=mat)
        assert threading.active_count() == before
        read_only = np.zeros_like(mat)
        read_only.flags.writeable = False
        with pytest.raises(ValueError, match="read-only"):
            apply_channel(mat, dims, positions, s, out=read_only)
        assert threading.active_count() == before
        assert not read_only.any()
    assert used == [2] * 4


def test_share_hands_each_item_to_one_worker():
    # more workers than cores over one shared iterator, switching often:
    # every item is done exactly once, and a failure is raised in the
    # caller once every helper is joined
    before = threading.active_count()
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        done = []
        circuit._share(lambda todo: done.extend(todo), range(5000), 6)
        assert sorted(done) == list(range(5000))
        done.clear()

        def work(todo):
            for item in todo:
                if item == 100:
                    raise KeyError(item)
                done.append(item)

        with pytest.raises(KeyError):
            circuit._share(work, range(5000), 6)
        assert 100 not in done and len(done) == len(set(done))
    finally:
        sys.setswitchinterval(old)
    assert threading.active_count() == before


def test_share_joins_the_started_helpers_when_a_start_fails(monkeypatch):
    # a helper that cannot start fails the call, once the one that did
    # start has done every item and been joined; the started helper waits
    # for the refusal, so that it is still busy when the next one is asked
    # for and the pool cannot hand it the next task instead
    started = []
    refused = threading.Event()
    start = threading.Thread.start

    def start_once(self):
        if started:
            refused.set()
            raise RuntimeError("can't start new thread")
        started.append(self)
        start(self)

    def work(todo):
        refused.wait(60)
        done.extend(todo)

    monkeypatch.setattr(threading.Thread, "start", start_once)
    before = threading.active_count()
    done = []
    with pytest.raises(RuntimeError, match="can't start new thread"):
        circuit._share(work, range(1000), 4)
    assert refused.is_set() and sorted(done) == list(range(1000))
    assert not started[0].is_alive() and threading.active_count() == before


@settings(deadline=None)
@given(st.integers(1, 8), st.integers(0, 300), st.none() | st.integers(0, 299))
def test_share_does_each_item_once_and_raises_a_failure(workers, n_items, fail):
    # one worker (no pool) or up to 8 on a host of fewer cores, switching
    # often: no item is done twice; a failing worker stops while the others
    # finish the remaining items, and then the failure is raised; no
    # thread outlives the call
    fails = fail is not None and fail < n_items
    done, threads = [], set()

    def work(todo):
        threads.add(threading.get_ident())
        for item in todo:
            if item == fail:
                raise KeyError(item)
            done.append(item)

    before = threading.active_count()
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        if fails:
            with pytest.raises(KeyError):
                circuit._share(work, range(n_items), workers)
        else:
            circuit._share(work, range(n_items), workers)
    finally:
        sys.setswitchinterval(old)
    assert threading.active_count() == before
    assert len(done) == len(set(done))
    if workers == 1:
        assert threads == {threading.get_ident()}
    if fails and workers == 1:
        assert done == list(range(fail))
    else:
        assert sorted(done) == [i for i in range(n_items) if i != fail]
