import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from locbound import circuit
from locbound.circuit import (
    Circuit,
    CircuitError,
    Conditional,
    ConnectivityGraph,
    EcModule,
    Embedding,
    KrausGate,
    Layer,
    Unitary,
    apply_channel,
    apply_layer,
    apply_operator,
    boundary,
    grid_graph,
    logical_error_rate,
    measure_gate,
    module_fidelity,
    noise_apply,
    reset_gate,
    simulate_module,
    validate_embedding,
    validate_layer,
    _depolarize_matrix,
    _initial_cq_state,
    _pair_product,
)
from locbound.qstate import (
    ClassicalQuantumState,
    DensityMatrix,
    PureState,
    RegisterLayout,
    fidelity,
    max_entangled_state,
)
from locbound.files import ParseError, parse_circuit_lines, read_circuit_file
from locbound.rand import random_density, random_kraus_channel, random_unitary
from locbound.separability import ReeBracket, SeparableEnsemble
from locbound.verify import (
    VerificationReport,
    default_depth_bound_scenarios,
    default_module_corpus,
    repetition_module,
    swap_module,
    verify_sie,
)

CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
X = np.array([[0, 1], [1, 0]], dtype=complex)
BELL = max_entangled_state(1, "0", "1")  # R-less, on qubits "0" and "1"


def cq_pure(layout, vec):
    return ClassicalQuantumState.from_density(
        DensityMatrix.from_vector(layout, vec)
    )


def choi_matrix(channel, dim):
    """Unnormalized Choi matrix sum_ij channel(E_ij) (x) E_ij."""
    out = np.zeros((dim * dim, dim * dim), dtype=complex)
    for i in range(dim):
        for j in range(dim):
            e = np.zeros((dim, dim), dtype=complex)
            e[i, j] = 1.0
            out += np.kron(channel(e), e)
    return out


def test_boundary_examples():
    path = ConnectivityGraph(["0", "1", "2"], [("0", "1"), ("1", "2")])
    assert boundary(path, ["0"]) == {"0", "1"}
    assert boundary(path, ["0", "1", "2"]) == set()
    grid, _ = grid_graph((3, 3))
    assert len(boundary(grid, ["4"])) == 5  # center + its four neighbors
    with pytest.raises(ValueError):
        boundary(path, ["x"])


def test_validate_embedding():
    grid, emb = grid_graph((3, 3))
    assert validate_embedding(emb, grid) == []

    close = Embedding(np.array([[0.0, 0.0], [0.5, 0.0]]), 1.0)
    g = ConnectivityGraph(["0", "1"], [("0", "1")])
    assert validate_embedding(close, g) == ["spacing violation: |eta(0) - eta(1)| = 0.5 < 1"]

    stretched = Embedding(np.array([[0.0, 0.0], [2.0, 0.0]]), 1.0)
    assert validate_embedding(stretched, g) == ["edge violation: |eta(0) - eta(1)| = 2 > c = 1.0"]


def _grid_graph_oracle(shape):
    """The per-point loop construction of a full grid: vertex labels, the
    normalized string-sorted edge tuple and the row-major points."""
    m = int(np.prod(shape))
    coords = [np.unravel_index(i, shape) for i in range(m)]
    edges = []
    for i, cc in enumerate(coords):
        for ax in range(len(shape)):
            if cc[ax] + 1 < shape[ax]:
                nb = list(cc)
                nb[ax] += 1
                edges.append((str(i), str(np.ravel_multi_index(nb, shape))))
    edges = tuple(sorted((u, v) if u <= v else (v, u) for u, v in edges))
    points = np.array(coords, dtype=float).reshape(m, len(shape))
    return tuple(str(i) for i in range(m)), edges, points


# (12,) and (3, 5) have labels whose string order differs from numeric order
@pytest.mark.parametrize("shape", [(1,), (7,), (1, 5), (3, 4), (2, 3, 4), (12,), (3, 5)])
def test_grid_graph_matches_loop_oracle(shape):
    graph, emb = grid_graph(shape)
    vertices, edges, points = _grid_graph_oracle(shape)
    assert graph.vertices == vertices
    assert graph.edges == edges
    assert emb.dimension == len(shape) and emb.c == 1.0
    assert np.array_equal(emb.points, points)
    # the edge arrays are the rows of the labelled edges, in the same order
    assert [(graph.vertices[u], graph.vertices[v]) for u, v in zip(graph.eu, graph.ev)] \
        == list(graph.edges)
    assert all(graph.index[v] == i for i, v in enumerate(graph.vertices))
    # the label constructor, given the same edges reversed and flipped,
    # builds the same graph
    labelled = ConnectivityGraph(vertices, [(v, u) for u, v in reversed(edges)])
    assert labelled.edges == graph.edges
    assert np.array_equal(labelled.eu, graph.eu) and np.array_equal(labelled.ev, graph.ev)
    pairs = set(edges)
    for u, v in itertools.product(vertices, repeat=2):
        want = ((u, v) if u <= v else (v, u)) in pairs
        assert graph.has_edge(u, v) == labelled.has_edge(u, v) == want


def _boundary_oracle(vertices, edges, region):
    """Vertex boundary from adjacency sets."""
    adj = {v: set() for v in vertices}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    region = set(region)
    inner = {u for u in region if adj[u] - region}
    outer = {v for u in region for v in adj[u] if v not in region}
    return inner | outer


def test_boundary_matches_adjacency_oracle():
    rng = np.random.default_rng(11)
    for _ in range(60):
        m = int(rng.integers(1, 9))
        vertices = [f"v{i}" for i in rng.permutation(m)]
        edges = [(vertices[i], vertices[j]) for i, j in itertools.combinations(range(m), 2)
                 if rng.random() < 0.4]
        graph = ConnectivityGraph(vertices, edges)
        for _ in range(4):
            region = [vertices[i] for i in np.flatnonzero(rng.random(m) < 0.5)]
            assert boundary(graph, region) == _boundary_oracle(vertices, edges, region)


def _embedding_oracle(points, edge_rows, c):
    """Closest pair and longest edge over all pairs, by brute force."""
    pairs = {(i, j): float(np.linalg.norm(points[i] - points[j]))
             for i, j in itertools.combinations(range(len(points)), 2)}
    spacing = min(pairs.values(), default=None)
    closest = min((p for p, d in pairs.items() if d == spacing), default=None)
    longest = max((float(np.linalg.norm(points[u] - points[v])) for u, v in edge_rows),
                  default=0.0)
    kinds = set()
    if spacing is not None and spacing < 1.0 - 1e-12:
        kinds.add("spacing")
    if longest > c + 1e-12:
        kinds.add("edge")
    return closest, spacing, longest, kinds


def test_validate_embedding_matches_brute_force():
    rng = np.random.default_rng(5)
    for _ in range(80):
        m = int(rng.integers(1, 10))
        dim = int(rng.integers(1, 4))
        # a coarse lattice makes ties and coincident points common
        points = rng.integers(0, 3, size=(m, dim)) * float(rng.choice([0.5, 1.0, 1.5]))
        labels = [str(i) for i in range(m)]
        edge_rows = [(i, j) for i, j in itertools.combinations(range(m), 2)
                     if rng.random() < 0.3]
        c = float(rng.choice([1.0, 1.5, 2.0]))
        graph = ConnectivityGraph(labels, [(labels[i], labels[j]) for i, j in edge_rows])
        violations = validate_embedding(Embedding(points, c), graph)
        closest, spacing, longest, kinds = _embedding_oracle(points, edge_rows, c)
        # what a user sees: the kinds, in order, and the numbers each message names
        assert [v.split()[0] for v in violations] == \
            [kind for kind in ("spacing", "edge") if kind in kinds]
        for v in violations:
            if v.startswith("spacing"):
                u, w = closest  # the first closest pair, by row
                assert v == f"spacing violation: |eta({u}) - eta({w})| = {spacing:.6g} < 1"
            else:
                assert v.endswith(f"= {longest:.6g} > c = {c}")


def test_validate_layer():
    g = ConnectivityGraph(["0", "1", "2"], [("0", "1")])
    assert validate_layer(g, Layer([Unitary(("0", "1"), CNOT)])) == []
    assert validate_layer(g, Layer([Unitary(("0", "2"), CNOT)])) == [
        "locality violation: (0, 2) not an edge"]
    # measurement is a separable A:X instrument: fine anywhere
    assert validate_layer(g, Layer([measure_gate("2", "s")])) == []
    # completeness violations
    violations = validate_layer(g, Layer([Unitary(("0",), np.array([[1, 0], [0, 0.5]]))]))
    assert any("completeness" in v for v in violations)
    bad_kraus = KrausGate(("0",), [np.eye(2) * 0.5])
    assert any("completeness" in v for v in validate_layer(g, Layer([bad_kraus])))
    # NaN entries fail the completeness checks instead of slipping past them
    nan_gate = Unitary(("0",), np.array([[np.nan, 0], [0, 1]]))
    assert any("completeness" in v for v in validate_layer(g, Layer([nan_gate])))
    nan_kraus = KrausGate(("0",), [np.array([[np.nan, 0], [0, 1]])])
    assert any("completeness" in v for v in validate_layer(g, Layer([nan_kraus])))
    # qubit reuse inside one layer
    violations = validate_layer(g, Layer([measure_gate("0", "a"), measure_gate("0", "b")]))
    assert any("two gates" in v for v in violations)
    # an object that is not a gate is reported, not raised
    assert validate_layer(g, Layer([("0", "1")])) == ["unknown gate type tuple"]


def test_measure_gate_is_keyed_projective_kraus():
    gate = measure_gate("3", "s")
    assert isinstance(gate, KrausGate)
    assert gate.qubits == ("3",) and gate.key == "s"
    assert [np.diag(k).real.tolist() for k in gate.operators] == [[1, 0], [0, 1]]


def test_reset_and_measure_gates_share_read_only_operators():
    # a module holds many of these gates; one complex array per operator
    # serves them all, and none of them can write it
    for a, b in [(reset_gate("0"), reset_gate("1")), (measure_gate("0", "s"), measure_gate("1", "t"))]:
        assert all(x is y for x, y in zip(a.operators, b.operators))
        assert all(k.dtype == complex and not k.flags.writeable for k in a.operators)
    # and every reset shares one read-only superoperator
    a, b = reset_gate("0"), reset_gate("1")
    assert a.superoperator is b.superoperator and not a.superoperator.flags.writeable
    assert np.array_equal(a.superoperator, KrausGate(("0",), a.operators[::-1]).superoperator)


def test_records_that_hold_arrays_compare_by_identity():
    # a generated __eq__ would compare arrays (ValueError) and a generated
    # __hash__ would hash them (TypeError): two records that look equal
    # compare False without raising, each can be a dict key, and the
    # records built from them compare without raising
    i4 = np.eye(4)

    def ensemble():
        return SeparableEnsemble(np.ones(1), np.ones((1, 2)), np.ones((1, 2)))

    makers = [
        lambda: Embedding(np.zeros((2, 1))),
        lambda: Unitary(("0", "1"), i4),
        lambda: Conditional(("0",), ("k",), {(1,): X}),
        lambda: measure_gate("0", "k"),
        lambda: repetition_module(0.1, 1),
        ensemble,
    ]
    for make in makers:
        a, b = make(), make()
        assert a == a and not a == b and a != b
        assert {a: "a", b: "b"}[b] == "b"
    gate = Unitary(("0", "1"), i4)
    assert Layer([gate]) == Layer([gate]) != Layer([Unitary(("0", "1"), i4)])
    graph = ConnectivityGraph(["0", "1"], [("0", "1")])
    assert Circuit(graph, [Layer([gate])]) == Circuit(graph, [Layer([gate])])
    assert Circuit(graph, [Layer([gate])]) != Circuit(graph, [Layer([Unitary(("0", "1"), i4)])])
    shared = ensemble()
    assert ReeBracket(0.0, 1.0, shared) == ReeBracket(0.0, 1.0, shared) != ReeBracket(0.0, 1.0, ensemble())
    assert len({ReeBracket(0.0, 1.0, shared), ReeBracket(0.0, 1.0, shared)}) == 1


def test_validate_layer_conditional_table():
    g = ConnectivityGraph(["0", "1"], [("0", "1")])
    good = Conditional(("0",), ("s",), {(1,): np.array([[0, 1], [1, 0]])})
    assert validate_layer(g, Layer([good])) == []
    bad_entries = {
        "completeness": np.array([[1, 0], [0, 0.5]]),
        "shape": np.eye(4),
    }
    for word, u in bad_entries.items():
        violations = validate_layer(
            g, Layer([Conditional(("0",), ("s",), {(0,): np.eye(2), (1,): u})]))
        assert len(violations) == 1
        assert word in violations[0] and "(1,)" in violations[0]
    nan_entry = Conditional(("0",), ("s",), {(1,): np.array([[np.nan, 0], [0, 1]])})
    assert any("completeness" in v for v in validate_layer(g, Layer([nan_entry])))
    wrong_arity = Conditional(("0",), ("s", "t"), {(1,): np.eye(2)})
    assert any("2 outcomes expected" in v for v in validate_layer(g, Layer([wrong_arity])))


def test_simulate_module_refuses_bad_conditional():
    # a round with a non-unitary table entry cannot be built, so no module
    # holding it reaches simulate_module
    g = ConnectivityGraph(["0", "1"], [("0", "1")])
    layers = [Layer([measure_gate("1", "s")]),
              Layer([Conditional(("0",), ("s",), {(1,): np.eye(2) * 2})])]
    with pytest.raises(CircuitError, match=r"^layer 1: conditional entry \(1,\)"):
        Circuit(g, layers)
    # every violation of every layer is named, in order
    g = ConnectivityGraph(["0", "1", "2"], [("0", "1")])
    layers = [Layer([Unitary(("0", "1"), CNOT)]),
              Layer([Unitary(("0", "2"), CNOT), measure_gate("1", "a"), measure_gate("1", "b")])]
    with pytest.raises(CircuitError) as err:
        Circuit(g, layers)
    assert str(err.value) == ("layer 1: locality violation: (0, 2) not an edge; "
                              "layer 1: qubit '1' used by two gates in one layer")
    assert err.value.layers == (1,)
    with pytest.raises(CircuitError) as err:
        Circuit(g, [layers[1], layers[0], layers[1]])
    assert err.value.layers == (0, 2)


def test_module_refuses_round_on_another_graph():
    # the round's own graph has (1, 2), so its SWAP there is local to the
    # round; on the module's graph it is not, and the module is refused
    # instead of simulating a non-local gate
    module_graph = ConnectivityGraph(["0", "1", "2"], [("0", "1")])
    wider = ConnectivityGraph(["0", "1", "2"], [("0", "1"), ("1", "2")])
    swap = np.eye(4)[[0, 2, 1, 3]]
    round_ = Circuit(wider, [Layer([Unitary(("1", "2"), swap)])])
    with pytest.raises(CircuitError, match="^round 0 is a circuit on another graph$"):
        EcModule(module_graph, rounds=[round_], data_qubits=("0", "1", "2"),
                 encoder=np.eye(8, 2, dtype=complex), p=0.1)
    # a different vertex set is refused too; the same graph rebuilt is not
    with pytest.raises(CircuitError, match="round 1 is a circuit on another graph"):
        EcModule(module_graph, rounds=[Circuit(module_graph, []),
                                       Circuit(ConnectivityGraph(["0", "1"], [("0", "1")]), [])],
                 data_qubits=("0",), encoder=np.eye(2, dtype=complex), p=0.1)
    same = ConnectivityGraph(["2", "1", "0"], [("1", "0")])
    EcModule(module_graph, rounds=[Circuit(same, [])], data_qubits=("0",),
             encoder=np.eye(2, dtype=complex), p=0.1)


def test_apply_layer_identity_and_cnot():
    g = ConnectivityGraph(["0", "1"], [("0", "1")])
    lay = RegisterLayout.qubits("0", "1")
    plus0 = np.kron(H @ [1, 0], [1, 0])
    st = cq_pure(lay, plus0)

    ident = apply_layer(st, Layer([]))
    assert np.abs(ident.branches[0][1] - st.branches[0][1]).max() < 1e-12

    out = apply_layer(st, Layer([Unitary(("0", "1"), CNOT)]))
    bell = np.array([1, 0, 0, 1]) / np.sqrt(2)
    assert np.abs(out.branches[0][1] - np.outer(bell, bell)).max() < 1e-12


def test_apply_layer_measurement_branches():
    lay = RegisterLayout.qubits("0")
    st = cq_pure(lay, H @ [1, 0])
    out = apply_layer(st, Layer([measure_gate("0", "s")]))
    assert len(out.branches) == 2
    # a branch matrix is unnormalized: its trace is the branch weight
    weights = sorted(round(mat.trace().real, 10) for _, mat in out.branches)
    assert weights == [0.5, 0.5]
    records = sorted(rec for rec, _ in out.branches)
    assert records == [(("s", 0),), (("s", 1),)]
    # a second write of the same key appends; dict() keeps the last value
    again = apply_layer(out, Layer([measure_gate("0", "s")]))
    assert sorted(rec for rec, _ in again.branches) == [
        (("s", 0), ("s", 0)), (("s", 1), ("s", 1))]
    assert {dict(rec)["s"] for rec, _ in again.branches} == {0, 1}


def test_apply_layer_conditional_and_trace():
    # measure both qubits of |+>|1>, then flip qubit 1 only on outcomes
    # (s=1, t=1); (s=0, t=1) has no table entry and stays unchanged
    g = ConnectivityGraph(["0", "1", "2"], [("0", "1")])
    lay = RegisterLayout.qubits("0", "1", "2")
    st = cq_pure(lay, np.kron(np.kron(H @ [1, 0], [0, 1]), [1, 0]))
    x = np.array([[0, 1], [1, 0]])
    layers = [
        Layer([measure_gate("0", "s"), measure_gate("1", "t")]),
        Layer([Conditional(("1",), ("s", "t"), {(1, 1): x}),
               Conditional(("2",), ("s", "missing"), {(1, None): x})]),
    ]
    for layer in layers:
        assert validate_layer(g, layer) == []
        st = apply_layer(st, layer)
    assert abs(st.total_weight - 1.0) < 1e-12
    by_record = {rec: DensityMatrix(lay, mat / mat.trace().real) for rec, mat in st.branches}
    assert set(by_record) == {(("s", 0), ("t", 1)), (("s", 1), ("t", 1))}
    q1 = {rec: by_record[rec].reduced(["1", "2"]).matrix for rec in by_record}
    assert np.abs(q1[(("s", 0), ("t", 1))] - np.diag([0, 0, 1, 0])).max() < 1e-12
    assert np.abs(q1[(("s", 1), ("t", 1))] - np.diag([0, 1, 0, 0])).max() < 1e-12


def test_noise_modes():
    lay = RegisterLayout.qubits("0", "1")
    st = cq_pure(lay, [1, 0, 0, 0])
    full = noise_apply(st, {"0": 1.0, "1": 1.0})
    assert np.abs(full.branches[0][1] - np.eye(4) / 4).max() < 1e-12

    none = noise_apply(st, {"0": 0.0, "1": 0.0})
    assert np.abs(none.branches[0][1] - st.branches[0][1]).max() < 1e-12

    erased = noise_apply(st, {"0": 1.0, "1": 0.3})
    red = erased.average_state().reduced(["0"])
    assert np.abs(red.matrix - np.eye(2) / 2).max() < 1e-12
    # each qubit takes its own rate, rate 1 erasing it
    expect = noise_apply(noise_apply(st, {"0": 1.0}), {"1": 0.3})
    assert np.abs(erased.branches[0][1] - expect.branches[0][1]).max() < 1e-15

    for rate in (1.5, -0.1, float("nan")):
        with pytest.raises(ValueError, match=r"on qubit '1' must lie in \[0, 1\]"):
            noise_apply(st, {"0": 0.1, "1": rate})
    with pytest.raises(KeyError, match="unknown register label 'x'"):
        noise_apply(st, {"0": 0.1, "x": 0.1})


def _embed(op, n, first):
    """``op`` on the contiguous qubits from ``first``, as an n-qubit matrix."""
    w = op.shape[0].bit_length() - 1
    return np.kron(np.kron(np.eye(2 ** first), op), np.eye(2 ** (n - first - w)))


@pytest.mark.parametrize("n, measured, kraus_qubits", [(2, 1, (0,)), (3, 0, (1, 2))])
def test_branch_format_matches_dense_oracle(n, measured, kraus_qubits):
    # a keyed gate's branch i holds K_i rho K_i^dag unnormalized, so its
    # trace is the outcome weight and the branches sum to the unkeyed output
    rng = np.random.default_rng(n)
    lay = RegisterLayout.qubits(*(str(q) for q in range(n)))
    rho = random_density(rng, lay)
    ops = random_kraus_channel(rng, 2 ** len(kraus_qubits))
    gates = [measure_gate(str(measured), "s"),
             KrausGate(tuple(str(q) for q in kraus_qubits), ops, key="k")]
    for gate in gates:
        first = int(gate.qubits[0])
        out = apply_layer(ClassicalQuantumState.from_density(rho), Layer([gate]))
        assert abs(out.total_weight - 1.0) < 1e-12
        by_record = dict(out.branches)
        assert sorted(by_record) == [((gate.key, i),) for i in range(len(gate.operators))]
        for i, k in enumerate(gate.operators):
            full = _embed(k, n, first)
            expect = full @ rho.matrix @ full.conj().T
            assert np.abs(by_record[((gate.key, i),)] - expect).max() < 1e-12
        unkeyed = apply_layer(ClassicalQuantumState.from_density(rho),
                              Layer([KrausGate(gate.qubits, gate.operators)]))
        assert len(unkeyed.branches) == 1
        assert np.abs(sum(by_record.values()) - unkeyed.branches[0][1]).max() < 1e-12


def test_branches_with_equal_records_merge():
    rng = np.random.default_rng(4)
    lay = RegisterLayout.qubits("0", "1")
    a, b = (random_density(rng, lay).matrix for _ in range(2))
    rec = (("s", 1),)
    st = ClassicalQuantumState(lay, [(rec, 0.25 * a), (rec, 0.75 * b)])
    out = apply_layer(st, Layer([measure_gate("0", "t")]))
    assert sorted(r for r, _ in out.branches) == [rec + (("t", 0),), rec + (("t", 1),)]
    mixed = 0.25 * a + 0.75 * b
    for r, mat in out.branches:
        full = _embed(np.diag([1.0, 0.0] if r[-1][1] == 0 else [0.0, 1.0]), 2, 0)
        assert np.abs(mat - full @ mixed @ full).max() < 1e-12
    assert abs(out.total_weight - 1.0) < 1e-12


def test_depolarizing_channel_formula():
    rng = np.random.default_rng(0)
    mat = np.outer([1, 1j], [1, -1j]) / 2
    for p in (0.0, 0.3, 1.0):
        out = _depolarize_matrix(mat.copy(), (2,), 0, p)  # in place: pass a copy
        expect = (1 - p) * mat + p * np.trace(mat) * np.eye(2) / 2
        assert np.abs(out - expect).max() < 1e-12
    out = _depolarize_matrix(mat.copy(), (2,), 0, 1.0)
    assert np.abs(out - np.trace(mat) * np.eye(2) / 2).max() < 1e-12


def test_depolarize_matches_pauli_sandwich():
    # closed form against (1 - 3p/4) rho + (p/4) sum_s s rho s on each qubit
    paulis = (np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1, -1]))
    rho = random_density(np.random.default_rng(6), RegisterLayout.qubits("0", "1", "2")).matrix
    for pos in range(3):
        for p in (0.0, 0.3, 1.0):
            oracle = (1 - 0.75 * p) * rho
            for sigma in paulis:
                full = np.kron(np.kron(np.eye(2 ** pos), sigma), np.eye(2 ** (2 - pos)))
                oracle = oracle + 0.25 * p * full @ rho @ full.conj().T
            out = _depolarize_matrix(rho.copy(), (2, 2, 2), pos, p)
            assert np.abs(out - oracle).max() < 1e-12


def test_apply_operator_unsorted_positions():
    # K on factors [2, 0] of three qubits is P (K (x) I) P^T, where P maps
    # the factor order (2, 0, 1) back to (0, 1, 2)
    rng = np.random.default_rng(5)
    k = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    perm = np.zeros((8, 8))
    for b0, b1, b2 in np.ndindex(2, 2, 2):
        perm[4 * b0 + 2 * b1 + b2, 4 * b2 + 2 * b0 + b1] = 1.0
    dense = perm @ np.kron(k, np.eye(2)) @ perm.T
    vec = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    rho = random_density(rng, RegisterLayout.qubits("0", "1", "2")).matrix
    out_vec = apply_operator(vec, (2, 2, 2), [2, 0], k)
    out_rho = apply_channel(rho, (2, 2, 2), [2, 0], _pair_product(k))
    assert out_vec.shape == (8,) and out_rho.shape == (8, 8)
    assert np.abs(out_vec - dense @ vec).max() < 1e-12
    assert np.abs(out_rho - dense @ rho @ dense.conj().T).max() < 1e-12


def trivial_module(p):
    g = ConnectivityGraph(["0"], [])
    return EcModule(g, rounds=[Circuit(g, [])], data_qubits=("0",),
                    encoder=np.eye(2, dtype=complex), p=p)


def test_trivial_module_error_rate():
    # Choi fidelity of single-qubit depolarizing: <Phi|(N_p (x) I)Phi> = 1 - 3p/4
    for p in (0.1, 0.25, 0.5):
        delta = logical_error_rate(trivial_module(p))
        assert abs(delta - 0.75 * p) < 1e-10
    assert logical_error_rate(trivial_module(0.1)) <= logical_error_rate(trivial_module(0.2))


def test_zero_noise_unitary_and_inverse():
    g = ConnectivityGraph(["0", "1"], [("0", "1")])
    u = random_unitary(np.random.default_rng(1), 4)
    circ = Circuit(g, [Layer([Unitary(("0", "1"), u)]),
                       Layer([Unitary(("0", "1"), u.conj().T)])])
    mod = EcModule(g, rounds=[circ], data_qubits=("0",),
                   encoder=np.eye(2, dtype=complex), p=0.0)
    assert logical_error_rate(mod) < 1e-10


def test_erased_variant_reduced_state():
    mod = trivial_module(0.25)
    out = simulate_module(mod, erased=(("0",), 0))
    red = out.average_state().reduced(["0"])
    assert np.abs(red.matrix - np.eye(2) / 2).max() < 1e-12


def _oracle_fidelity(module, state, target_vector):
    """F(rho, t) by qstate.fidelity, with rho the branch sum of ``state``
    normalized, its ancillas traced out and its registers put in R + data
    order by one einsum; ``target_vector`` is t in that order."""
    labels, dims = state.layout.labels, state.layout.dims
    mat = sum(m for _, m in state.branches)
    mat = mat / np.trace(mat).real
    want = ("R",) + module.data_qubits
    rows = [chr(ord("a") + i) for i in range(len(labels))]
    cols = [rows[i] if lab not in want else chr(ord("A") + i) for i, lab in enumerate(labels)]
    out = [rows[labels.index(w)] for w in want] + [cols[labels.index(w)] for w in want]
    rho = np.einsum("".join(rows + cols) + "->" + "".join(out), mat.reshape(dims * 2))
    layout = RegisterLayout.of(*((w, dims[labels.index(w)]) for w in want))
    d = layout.dim
    target = DensityMatrix.from_vector(layout, target_vector)
    return fidelity(DensityMatrix(layout, rho.reshape(d, d), validate=False), target)


def _shuffled_data_module():
    # data qubits listed in the order 2, 0, 1 on the line 0 - 1 - 2 - 3,
    # a random (so asymmetric) encoder, and an entangling layer between
    # data and the ancilla 3
    g = ConnectivityGraph(["0", "1", "2", "3"], [("0", "1"), ("1", "2"), ("2", "3")])
    rng = np.random.default_rng(4)
    u = random_unitary(rng, 4)
    circ = Circuit(g, [Layer([Unitary(("0", "1"), CNOT), Unitary(("2", "3"), u)]),
                       Layer([Unitary(("2", "3"), u.conj().T)])])
    enc = random_unitary(rng, 8)[:, :2]
    return EcModule(g, rounds=[circ, circ], data_qubits=("2", "0", "1"), encoder=enc, p=0.05)


@pytest.mark.parametrize("case", [
    *((mod.name + f"-p{mod.p}", mod, None, None, None) for mod in default_module_corpus()),
    ("swap-bell", swap_module(0.25), BELL, BELL, None),
    ("swap-bell-erased", swap_module(0.25), BELL, BELL, (("0",), 0)),
    ("repetition-erased", repetition_module(0.1, rounds=2), None, None, (("d0", "a0"), 1)),
    ("shuffled-data", _shuffled_data_module(), None, None, None),
    ("shuffled-data-erased", _shuffled_data_module(), None, None, (("0", "3"), 0)),
], ids=lambda case: case[0])
def test_module_fidelity_matches_dense_oracle(case):
    _, module, input_state, target, erased = case
    state = simulate_module(module, input_state, erased)
    t = module.target_state() if target is None else target
    t = t.permuted([lab for lab in ("R",) + module.data_qubits if lab in t.layout])
    expected = _oracle_fidelity(module, state, t.vector)
    assert abs(module_fidelity(module, input_state, target, erased) - expected) < 1e-12
    if input_state is None and erased is None:
        assert logical_error_rate(module) == 1.0 - module_fidelity(module)


def _full_record_run(module, erased=None):
    """The module's rounds by noise_apply and apply_layer alone, so every
    record keeps every write and nothing merges across outcomes."""
    state = _initial_cq_state(module, None)
    for j, circ in enumerate(module.rounds):
        region = erased[0] if erased is not None and erased[1] == j else ()
        state = noise_apply(state, {q: 1.0 if q in region else module.p
                                    for q in module.graph.vertices})
        for layer in circ.layers:
            state = apply_layer(state, layer)
    return state


def _delta_of(module, state):
    """1 - <t|rho|t> for the module's target t, with rho the record average
    of ``state`` on R + data qubits."""
    want = ("R",) + module.data_qubits
    keep = ("R",) + tuple(v for v in module.graph.vertices if v in module.data_qubits)
    rho = state.average_state().reduced(keep).permuted(want).matrix
    t = module.target_state().permuted(want).vector
    return 1.0 - float(np.real(t.conj() @ rho @ t))


def _memory(p, rounds, key, lag=0):
    """repetition_module's memory, except that round j measures into keys
    key(j, 0) and key(j, 1) and corrects by the outcomes of round j - lag;
    a round j < lag only resets its ancillas."""
    base = repetition_module(p, rounds)
    circuits = []
    for j in range(rounds):
        last = [reset_gate("a0"), reset_gate("a1")]
        if j >= lag:
            keys = (key(j - lag, 0), key(j - lag, 1))
            last += [Conditional(("d0",), keys, {(1, 0): X}),
                     Conditional(("d1",), keys, {(1, 1): X}),
                     Conditional(("d2",), keys, {(0, 1): X})]
        layers = base.rounds[0].layers[:3] + (
            Layer([measure_gate("a0", key(j, 0)), measure_gate("a1", key(j, 1))]),
            Layer(last))
        circuits.append(Circuit(base.graph, layers))
    return EcModule(base.graph, rounds=circuits, data_qubits=base.data_qubits,
                    encoder=base.encoder, p=p, name="memory")


def _rewritten_key_module(p):
    """Key s written by b, then by b and a in one layer, then read: only
    a's outcome, the last, decides the flip of the data qubit d."""
    g = ConnectivityGraph(["d", "a", "b"], [("d", "a"), ("a", "b")])
    circ = Circuit(g, [
        Layer([Unitary(("a",), H)]),
        Layer([measure_gate("b", "s")]),
        Layer([measure_gate("b", "s"), measure_gate("a", "s")]),
        Layer([Conditional(("d",), ("s",), {(1,): X})]),
    ])
    return EcModule(g, rounds=[circ], data_qubits=("d",),
                    encoder=np.eye(2, dtype=complex), p=p, name="rewritten-key")


@pytest.mark.parametrize("case", [
    *((f"repetition-J{j}-p{p}", repetition_module(p, j), None)
      for j in range(1, 6) for p in (0.0, 0.02, 0.1, 0.25)),
    ("repetition-erased", repetition_module(0.1, rounds=2), (("d0", "a0"), 1)),
    ("keys-reused", _memory(0.1, 3, lambda j, i: f"s{i}"), None),
    ("keys-read-a-round-later", _memory(0.1, 3, lambda j, i: f"r{j}s{i}", lag=1), None),
    ("key-written-twice", _rewritten_key_module(0.1), None),
], ids=lambda case: case[0])
def test_forgotten_outcomes_match_full_records(case):
    # simulate_module sums over each outcome once no later gate reads it;
    # by linearity that is the full-record run averaged over its records
    _, module, erased = case
    state = simulate_module(module, erased=erased)
    oracle = _full_record_run(module, erased)
    assert [rec for rec, _ in state.branches] == [()]
    assert np.abs(state.average_state().matrix - oracle.average_state().matrix).max() < 1e-12
    delta = 1.0 - module_fidelity(module, erased=erased)
    assert abs(delta - _delta_of(module, oracle)) < 1e-13


def _mixed_first_layer_module(p):
    """Two rounds on the line d0-a-d1-b-m-c-i whose first layer holds a
    two-qubit Unitary (d0, a), an unkeyed two-qubit KrausGate (d1, b), a
    Conditional on c that reads the last round's outcome, a measurement
    of m, and the idle qubit i."""
    rng = np.random.default_rng(11)
    verts = ["d0", "a", "d1", "b", "m", "c", "i"]
    g = ConnectivityGraph(verts, list(zip(verts, verts[1:])))
    kraus = random_kraus_channel(rng, 4, n_kraus=3)
    rounds = [Circuit(g, [
        Layer([Unitary(("d0", "a"), random_unitary(rng, 4)), KrausGate(("d1", "b"), kraus),
               Conditional(("c",), ("s",), {(1,): X}), measure_gate("m", "s")]),
        Layer([Unitary(("m",), H), Unitary(("a", "d1"), random_unitary(rng, 4)),
               Unitary(("c", "i"), random_unitary(rng, 4))]),
        Layer([Unitary(("b", "m"), CNOT)]),
    ]) for _ in range(2)]
    enc = np.zeros((4, 2), dtype=complex)
    enc[0, 0] = enc[3, 1] = 1.0
    return EcModule(g, rounds=rounds, data_qubits=("d0", "d1"), encoder=enc, p=p,
                    name="mixed-first-layer")


@pytest.mark.parametrize("erased", [None, (("a", "d1", "m", "i"), 1)], ids=["plain", "erased"])
@pytest.mark.parametrize("p", [0.0, 0.1, 1.0])
def test_folded_noise_matches_unfused_run(p, erased):
    # simulate_module fuses the noise blocks and small keyless gates of
    # the whole run (_fuse); noise_apply then apply_layer is the oracle.
    # In the erased region (a, d1, m, i), gates take in the noise of a and
    # d1 (first layer) and of i (second layer); the measured m keeps its
    # noise for noise_apply.
    module = _mixed_first_layer_module(p)
    state = simulate_module(module, erased=erased)
    oracle = _full_record_run(module, erased)
    assert np.abs(state.average_state().matrix - oracle.average_state().matrix).max() < 1e-12
    delta = 1.0 - module_fidelity(module, erased=erased)
    assert abs(delta - _delta_of(module, oracle)) < 1e-12


# weighted towards fusable gates and towards layers that reuse or cut an
# earlier layer's supports, the shapes that fusion chains through
_KINDS = {1: ["idle", "unitary", "unitary", "kraus", "keyed", "measure", "reset", "conditional"],
          2: ["idle", "unitary", "unitary", "unitary", "kraus", "keyed", "conditional"],
          3: ["idle", "unitary"]}
_KEYS = ["s0", "s1", "s2"]


@st.composite
def _small_modules(draw):
    """(module, erased): 2-4 vertices on a complete graph, 1-3 rounds of
    1-3 layers of Haar unitaries, Kraus gates of one to three operators
    with or without a key (so a keyed one can write outcome 2),
    measurements, resets and Conditionals on one to three of the keys s0,
    s1 and s2, their tables over outcomes 0, 1, 2 and None; at most three
    keyed gates, so that the full-record oracle stays small. Two data
    qubits in a shuffled order carry k = 0, 1 or 2 logical qubits."""
    verts = [str(v) for v in range(draw(st.sampled_from([2, 2, 3, 4])))]
    g = ConnectivityGraph(verts, itertools.combinations(verts, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    keyed = 0
    rounds = []
    for _ in range(draw(st.integers(1, 3))):
        layers, partitions = [], []
        for _ in range(draw(st.sampled_from([1, 2, 3, 3, 3]))):
            reuse = "fresh"
            if partitions:
                reuse = draw(st.sampled_from(["fresh", "again", "again", "cut"]))
            if reuse == "again":  # an earlier layer's supports
                supports = draw(st.sampled_from(partitions))
            elif reuse == "cut":  # the last qubit of each, the rest idle
                supports = [qubits[-1:] for qubits in draw(st.sampled_from(partitions))]
            else:
                free, supports = draw(st.permutations(verts)), []
                while free:
                    size = draw(st.sampled_from([s for s in (1, 2, 2, 3) if s <= len(free)]))
                    supports.append(tuple(free[:size]))
                    free = free[size:]
            partitions.append(supports)
            gates = []
            for qubits in supports:
                size = len(qubits)
                kind = draw(st.sampled_from(_KINDS[size]))
                if kind in ("keyed", "measure"):
                    keyed += 1
                    if keyed > 3:
                        kind = "unitary"
                key = draw(st.sampled_from(_KEYS))
                dim = 2 ** size
                if kind == "unitary":
                    gates.append(Unitary(qubits, random_unitary(rng, dim)))
                elif kind in ("kraus", "keyed"):
                    ops = random_kraus_channel(rng, dim, n_kraus=draw(st.integers(1, 3)))
                    gates.append(KrausGate(qubits, ops, key if kind == "keyed" else None))
                elif kind == "measure":
                    gates.append(measure_gate(qubits[0], key))
                elif kind == "reset":
                    gates.append(reset_gate(qubits[0]))
                elif kind == "conditional":
                    keys = tuple(draw(st.lists(st.sampled_from(_KEYS), min_size=1,
                                               max_size=3, unique=True)))
                    outcomes = itertools.product((0, 1, 2, None), repeat=len(keys))
                    gates.append(Conditional(qubits, keys, {
                        o: random_unitary(rng, dim) for o in outcomes if rng.random() < 0.5}))
            layers.append(Layer(gates))
        rounds.append(Circuit(g, layers))
    data = draw(st.permutations(verts))[:2]
    encoder = random_unitary(rng, 2 ** len(data))[:, :2 ** draw(st.sampled_from([0, 1, 2]))]
    module = EcModule(g, rounds=rounds, data_qubits=data, encoder=encoder,
                      p=draw(st.sampled_from([0.0, 0.05, 0.3, 1.0])))
    erased = draw(st.none() | st.tuples(
        st.lists(st.sampled_from(verts), min_size=1, unique=True),
        st.integers(0, len(rounds) - 1)))
    return module, erased


def _cross_round_module():
    """Two rounds on a triangle: a round ends with an unkeyed Kraus
    channel on 2 and a unitary on 0 after a gate on (0, 1), and the next
    round's first gate on (2, 0) takes both in through the noise blocks
    of 2 and 0."""
    g = ConnectivityGraph(["0", "1", "2"], [("0", "1"), ("1", "2"), ("0", "2")])
    rng = np.random.default_rng(9)
    first = Circuit(g, [Layer([Unitary(("0", "1"), random_unitary(rng, 4))]),
                        Layer([KrausGate(("2",), random_kraus_channel(rng, 2, n_kraus=2)),
                               Unitary(("0",), random_unitary(rng, 2))])])
    second = Circuit(g, [Layer([Unitary(("2", "0"), random_unitary(rng, 4))])])
    return EcModule(g, rounds=[first, second], data_qubits=("1", "0"),
                    encoder=random_unitary(rng, 4)[:, :2], p=0.05)


def _overlap_module():
    """B on (0, 1), then C on 1, then g on (0, 1): g may take in C but not
    B, which C follows on qubit 1."""
    g = ConnectivityGraph(["0", "1"], [("0", "1")])
    rng = np.random.default_rng(8)
    layers = [Layer([Unitary(("0", "1"), random_unitary(rng, 4))]),
              Layer([Unitary(("1",), random_unitary(rng, 2))]),
              Layer([Unitary(("0", "1"), random_unitary(rng, 4))])]
    return EcModule(g, rounds=[Circuit(g, layers)], data_qubits=("0", "1"),
                    encoder=random_unitary(rng, 4)[:, :2], p=0.05)


@settings(max_examples=100, deadline=None)
@given(_small_modules())
@example((_overlap_module(), None))
@example((_cross_round_module(), None))
def test_fused_rounds_match_full_record_run_on_random_modules(case):
    # fusion moves only fixed keyless channels, each past gates that touch
    # none of its qubits; noise_apply then apply_layer is the oracle
    module, erased = case
    state = simulate_module(module, erased=erased)
    _assert_hermitian(state)
    oracle = _full_record_run(module, erased)
    assert np.abs(state.average_state().matrix - oracle.average_state().matrix).max() < 1e-12
    delta = 1.0 - module_fidelity(module, erased=erased)
    assert abs(delta - _delta_of(module, oracle)) < 1e-12


def _assert_hermitian(state):
    """Every branch matrix is Hermitian to 1e-14 as the channels leave it;
    average_state does not re-symmetrize."""
    for _, mat in state.branches:
        assert np.abs(mat - mat.conj().T).max() <= 1e-14


def _hermitian_cases():
    cases = [pytest.param(m, None, None, id=f"corpus-{m.name}-p{m.p}")
             for m in default_module_corpus()]
    cases += [pytest.param(repetition_module(0.1, rounds), None, None, id=f"repetition-J{rounds}")
              for rounds in range(1, 6)]
    for sc in default_depth_bound_scenarios():
        last = len(sc.module.rounds) - 1
        cases.append(pytest.param(sc.module, sc.input_state, None, id=f"depth-bound-{sc.name}"))
        cases.append(pytest.param(sc.module, sc.input_state, (sc.gamma, last),
                                  id=f"depth-bound-{sc.name}-erased"))
    cases.append(pytest.param(_mirror_module(0.2), None, None, id="mirror-2x3"))
    return cases


def _kron_embed(op, dims, positions):
    """``op`` on the factors at ``positions`` (in op's factor order) as a
    matrix on all of ``dims``, by np.kron and one transpose."""
    rest = [a for a in range(len(dims)) if a not in positions]
    order = list(positions) + rest
    t = np.kron(op, np.eye(math.prod(dims[a] for a in rest)))
    t = t.reshape([dims[a] for a in order] * 2)
    axes = [order.index(a) for a in range(len(dims))]
    d = math.prod(dims)
    return t.transpose(axes + [a + len(dims) for a in axes]).reshape(d, d)


_PAULIS = (X, np.array([[0, -1j], [1j, 0]]), np.diag([1.0 + 0j, -1.0]))


def _kron_record_run(module, erased=None):
    """(average state on R + the vertices, delta) by an oracle that shares
    no kernel with the package: every gate and every Kraus operator as an
    np.kron-embedded K rho K^dag on the whole matrix, noise at rate r on a
    qubit as (1 - 3r/4) rho + (r/4) sum_s s rho s over its Paulis s, and
    one branch per full record, which a keyed gate extends."""
    verts, data = module.graph.vertices, module.data_qubits
    dk = module.encoder.shape[1]
    dims = (dk,) + (2,) * module.m
    pos = {q: 1 + i for i, q in enumerate(verts)}
    # the encoded |Phi_RL> on R + data (data order), |0> on the rest, then
    # the factors put in R + vertex order
    others = [q for q in verts if q not in data]
    vec = np.kron(module.encoder.T.ravel() / np.sqrt(dk), np.eye(2 ** len(others))[0])
    order = ["R", *data, *others]
    vec = vec.reshape(dims).transpose([order.index(v) for v in ("R",) + verts]).ravel()
    branches = [((), np.outer(vec, vec.conj()))]

    def sandwich(op, qubits, mat):
        full = _kron_embed(op, dims, [pos[q] for q in qubits])
        return full @ mat @ full.conj().T

    for j, circ in enumerate(module.rounds):
        region = set(erased[0]) if erased is not None and erased[1] == j else set()
        for q in verts:
            r = 1.0 if q in region else module.p
            branches = [(rec, (1 - 0.75 * r) * mat
                         + 0.25 * r * sum(sandwich(s, (q,), mat) for s in _PAULIS))
                        for rec, mat in branches]
        for layer in circ.layers:
            for gate in layer.gates:
                out = []
                for rec, mat in branches:
                    if isinstance(gate, Unitary):
                        out.append((rec, sandwich(gate.matrix, gate.qubits, mat)))
                    elif isinstance(gate, Conditional):
                        last = dict(rec)
                        u = gate.table.get(tuple(last.get(k) for k in gate.keys))
                        out.append((rec, mat if u is None else sandwich(u, gate.qubits, mat)))
                    elif gate.key is None:
                        out.append((rec, sum(sandwich(k, gate.qubits, mat)
                                             for k in gate.operators)))
                    else:
                        out.extend((rec + ((gate.key, i),), sandwich(k, gate.qubits, mat))
                                   for i, k in enumerate(gate.operators))
                branches = out
    rho = sum(mat for _, mat in branches)
    # R + data (data order), the other vertices traced out
    t = rho.reshape(dims * 2)
    n = len(dims)
    keep = [0] + [pos[q] for q in data]
    letters = [chr(ord("a") + i) for i in range(2 * n)]
    cols = [letters[a + n] if a in keep else letters[a] for a in range(n)]
    out = [letters[a] for a in keep] + [cols[a] for a in keep]
    red = np.einsum("".join(letters[:n] + cols) + "->" + "".join(out), t)
    d = dk * 2 ** len(data)
    target = module.encoder.T.ravel() / np.sqrt(dk)
    delta = 1.0 - float(np.real(target.conj() @ red.reshape(d, d) @ target))
    return rho, delta


@settings(max_examples=100, deadline=None)
@given(_small_modules())
@example((_overlap_module(), None))
@example((_cross_round_module(), None))
def test_simulate_module_matches_kron_oracle_on_random_modules(case):
    # the whole path, superoperator kernel and gather plans included,
    # against an oracle built from np.kron, a Pauli sum and full records
    module, erased = case
    rho, delta = _kron_record_run(module, erased)
    state = simulate_module(module, erased=erased)
    _assert_hermitian(state)
    assert np.abs(state.average_state().matrix - rho).max() < 1e-12
    assert abs(1.0 - module_fidelity(module, erased=erased) - delta) < 1e-12


_TRIANGLE = ConnectivityGraph(list("abc"), [("a", "b"), ("b", "c"), ("a", "c")])


def _noise_layer(p, qubits):
    """A round's noise as simulate_module lays it out: one block per qubit
    at rate p, none at p = 0."""
    return [circuit._Block((q,), circuit._noise_superoperator(p), p) for q in qubits if p > 0.0]


def _fused(layers, p=0.0):
    """_fuse on a noise layer at rate p on every qubit of _TRIANGLE, then
    ``layers`` (gate lists on _TRIANGLE); the noise layer's list comes
    first."""
    circ = Circuit(_TRIANGLE, [Layer(gates) for gates in layers])
    return circuit._fuse([_noise_layer(p, _TRIANGLE.vertices), *(l.gates for l in circ.layers)])


def _plain_noise(gates):
    """(qubit, rate) of each noise block in ``gates`` that took in nothing."""
    return [(g.qubits[0], g.rate) for g in gates
            if isinstance(g, circuit._Block) and g.rate is not None]


def _haar(seed, dim):
    return random_unitary(np.random.default_rng(seed), dim)


def _fused_matches_unfused(layers, p):
    # the fused layers, each block by its superoperator, are the round run
    # by noise_apply and apply_layer, on a random state of a, b, c
    layout = RegisterLayout.qubits(*"abc")
    state = ClassicalQuantumState.from_density(random_density(np.random.default_rng(3), layout))
    ours = state
    for gates in _fused(layers, p):
        ours = apply_layer(ours, Layer(gates))
    oracle = noise_apply(state, dict.fromkeys(_TRIANGLE.vertices, p))
    for gates in layers:
        oracle = apply_layer(oracle, Layer(gates))
    assert np.abs(ours.average_state().matrix - oracle.average_state().matrix).max() < 1e-13


@pytest.mark.parametrize("p", [0.0, 0.2])
def test_same_support_chain_fuses_into_one_block(p):
    # three layers on {a, b}, listed in either order, and the noise on a
    # and b become one superoperator in the last layer
    chain = [[Unitary(("a", "b"), _haar(1, 4))],
             [KrausGate(("b", "a"), random_kraus_channel(np.random.default_rng(2), 4))],
             [Unitary(("a", "b"), _haar(3, 4))]]
    noise, *layers = _fused(chain, p)
    assert layers[:2] == [[], []] and _plain_noise(noise) == ([("c", p)] if p else [])
    (fused,) = layers[2]
    assert isinstance(fused, circuit._Block) and fused.qubits == ("a", "b")
    _fused_matches_unfused(chain, p)


def test_block_moved_past_an_overlapping_gate_is_not_taken():
    # B on {a, b}, then C on {b}, then g on {a, b}: B is no longer the
    # latest block on b, so g takes in C but not B
    b, c = Unitary(("a", "b"), _haar(1, 4)), Unitary(("b",), H)
    g = Unitary(("a", "b"), _haar(2, 4))
    _, *layers = _fused([[b], [c], [g]])
    assert layers[0] == [b] and layers[1] == []
    assert isinstance(layers[2][0], circuit._Block)
    _fused_matches_unfused([[b], [c], [g]], 0.0)
    _fused_matches_unfused([[b], [c], [g]], 0.3)


@pytest.mark.parametrize("qubit, lifted", [("a", lambda u: np.kron(u, np.eye(2))),
                                           ("b", lambda u: np.kron(np.eye(2), u))],
                         ids=["first", "second"])
def test_one_qubit_unitary_lifts_into_a_two_qubit_gate(qubit, lifted):
    one, two = _haar(1, 2), _haar(2, 4)
    _, *layers = _fused([[Unitary((qubit,), one)], [Unitary(("a", "b"), two)]])
    assert layers[0] == []
    (fused,) = layers[1]
    expected = circuit._pair_product(two @ lifted(one))
    assert np.abs(fused.superoperator - expected).max() < 1e-14


@pytest.mark.parametrize("barrier", [measure_gate("a", "s"),
                                     Conditional(("a",), ("s",), {(1,): X})],
                         ids=["measurement", "conditional"])
def test_keyed_and_conditional_gates_block_fusion_on_their_qubit(barrier):
    # nothing crosses the barrier on a; the noise on a stays in its layer,
    # while g takes in the noise on b
    first, g = Unitary(("a",), H), Unitary(("a", "b"), CNOT)
    _, *layers = _fused([[first], [barrier], [g]])
    assert layers[:2] == [[first], [barrier]] and layers[2][0] is g
    noise, *layers = _fused([[barrier], [g]], 0.1)
    assert layers[0] == [barrier] and _plain_noise(noise) == [("a", 0.1), ("c", 0.1)]
    assert layers[1][0].qubits == ("a", "b") and layers[1][0] is not g
    _fused_matches_unfused([[barrier], [g]], 0.1)


def test_three_qubit_gate_is_kept_as_a_barrier():
    # a gate on three qubits takes in nothing, and nothing after it takes
    # in a block from before it
    one, big = Unitary(("a",), H), Unitary(("a", "b", "c"), _haar(1, 8))
    after = Unitary(("b", "c"), CNOT)
    noise, *layers = _fused([[one], [big], [after]], 0.1)
    assert isinstance(layers[0][0], circuit._Block)  # took in the noise on a
    assert layers[1] == [big] and layers[2] == [after]
    assert _plain_noise(noise) == [("b", 0.1), ("c", 0.1)]
    _fused_matches_unfused([[one], [big], [after]], 0.1)


def _reset_memory(p):
    """Two rounds on the edge d - a: CNOT (d, a), measure a, flip d on
    outcome 1 and reset a. The first round's reset is the last gate on a
    before the second round's noise."""
    g = ConnectivityGraph(["d", "a"], [("d", "a")])
    circ = Circuit(g, [Layer([Unitary(("d", "a"), CNOT)]), Layer([measure_gate("a", "s")]),
                       Layer([Conditional(("d",), ("s",), {(1,): X}), reset_gate("a")])])
    return EcModule(g, rounds=[circ, circ], data_qubits=("d",),
                    encoder=np.eye(2, dtype=complex), p=p, name="reset-memory")


@pytest.mark.parametrize("erased", [None, (("a",), 1)], ids=["plain", "erased"])
def test_reset_is_taken_into_the_next_rounds_noise_and_first_gate(erased, monkeypatch):
    # rounds are no fusion boundary: the second round's noise block on a
    # takes in the first round's reset, and its CNOT takes in that block
    # and the noise on d, so the reset runs once on the merged branch
    fused, inner = [], circuit._fuse

    def spy(layers):
        fused.append(inner(layers))
        return fused[-1]

    monkeypatch.setattr(circuit, "_fuse", spy)
    module = _reset_memory(0.05)
    rho = simulate_module(module, erased=erased).average_state().matrix
    (layers,) = fused
    # noise, CNOT, measure, decode (+ reset), noise, CNOT, measure, decode + reset
    assert [len(gates) for gates in layers] == [0, 1, 1, 1, 0, 1, 1, 2]
    assert isinstance(layers[5][0], circuit._Block) and layers[5][0].qubits == ("d", "a")
    assert not any(isinstance(g, KrausGate) and g.key is None for g in layers[3])
    assert np.abs(rho - _full_record_run(module, erased).average_state().matrix).max() < 1e-12
    oracle, delta = _kron_record_run(module, erased)
    assert np.abs(rho - oracle).max() < 1e-12
    assert abs(1.0 - module_fidelity(module, erased=erased) - delta) < 1e-12


def _count_calls(monkeypatch, *names):
    """Count the calls of the circuit functions ``names``."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, inner=getattr(circuit, name), name=name, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        monkeypatch.setattr(circuit, name, counted)
    return calls


def test_mirror_module_runs_one_channel_pass_per_pair(monkeypatch):
    # Haar gates on the five rungs of a 2 x 5 grid, then their inverses:
    # each pair's noise, gate and inverse run as one superoperator pass
    calls = _count_calls(monkeypatch, "apply_channel", "apply_operator")
    rng = np.random.default_rng(5)
    g, _ = grid_graph((2, 5))
    gates = [Unitary((str(c), str(c + 5)), random_unitary(rng, 4)) for c in range(5)]
    undo = [Unitary(u.qubits, u.matrix.conj().T) for u in gates]
    module = EcModule(g, rounds=[Circuit(g, [Layer(gates), Layer(undo)])],
                      data_qubits=("0",), encoder=np.eye(2, 1), p=0.1)
    # k = 0, the data qubit in |0>: only its own noise acts, and keeps |0>
    # with probability 1 - p/2
    assert abs(logical_error_rate(module) - 0.05) < 1e-12
    assert calls == {"apply_channel": 5, "apply_operator": 0}


def test_repetition_memories_run_180_channel_passes(monkeypatch):
    # a round's trailing resets are taken into the next round's noise
    # blocks and first CNOTs, so each runs once on the merged branch, not
    # once per syndrome branch (252 passes while rounds bounded fusion)
    calls = _count_calls(monkeypatch, "apply_channel")
    for rounds in (3, 4, 5):
        simulate_module(repetition_module(0.05, rounds))
    assert calls == {"apply_channel": 180}


def test_noiseless_round_folds_nothing(monkeypatch):
    # at p = 0 there is no noise block to take in: no fused gate builds a
    # noise superoperator and noise_apply never runs; the gates still fuse
    # with each other, and the δ equals the unfused run's
    def fail(*args):
        raise AssertionError("no noise at p = 0")

    monkeypatch.setattr(circuit, "_noise_superoperator", fail)
    monkeypatch.setattr(circuit, "noise_apply", fail)
    module = _mixed_first_layer_module(0.0)
    assert 1.0 - module_fidelity(module) == _delta_of(module, _full_record_run(module))


def _mirror_module(p):
    """The five-qubit code on the first row of a 2 x 3 grid, then Haar gates
    on the rungs and their inverses."""
    from locbound.stabilizer import encoding_isometry, five_qubit_code

    rng = np.random.default_rng(5)
    g, _ = grid_graph((2, 3))
    gates = [Unitary((str(c), str(c + 3)), random_unitary(rng, 4)) for c in range(3)]
    undo = [Unitary(u.qubits, u.matrix.conj().T) for u in gates]
    return EcModule(g, rounds=[Circuit(g, [Layer(gates), Layer(undo)])],
                    data_qubits=tuple("01234"),
                    encoder=encoding_isometry(five_qubit_code()), p=p)


@pytest.mark.parametrize("p", [0.0, 0.05, 0.2, 1.0])
def test_mirror_module_matches_closed_form(p):
    # only the noise on the data acts, and a Pauli error keeps fidelity 1
    # iff it is one of the 16 stabilizers
    keep = 1.0 - 0.75 * p
    assert abs(logical_error_rate(_mirror_module(p))
               - (1.0 - (keep ** 5 + 15 * keep * (p / 4) ** 4))) < 1e-12


def test_first_channel_step_owns_the_fresh_initial_matrix(monkeypatch):
    # no caller sees the initial matrix, so the first step updates it in
    # place: noise on a module without gates, the first pass of a layer
    # otherwise; every branch the run returns is read-only
    made, passes = [], []
    initial, inner = circuit._initial_cq_state, circuit.apply_channel

    def made_here(*args):
        made.append(initial(*args))
        return made[-1]

    def spy(mat, dims, positions, superop, out=None):
        passes.append(out is mat)
        return inner(mat, dims, positions, superop, out=out)

    monkeypatch.setattr(circuit, "_initial_cq_state", made_here)
    monkeypatch.setattr(circuit, "apply_channel", spy)
    state = simulate_module(trivial_module(0.1))
    (_, fresh), = made[0].branches
    (_, final), = state.branches
    assert final is fresh and not final.flags.writeable and not passes
    state = simulate_module(_mirror_module(0.05))
    assert passes[0] and not any(mat.flags.writeable for _, mat in state.branches)


def test_module_that_runs_no_step_returns_read_only_branches():
    # its initial state is its final state
    g = ConnectivityGraph(["0"], [])
    for module in (trivial_module(0.0), EcModule(g, rounds=[], data_qubits=("0",),
                                                 encoder=np.eye(2, dtype=complex), p=0.1)):
        state = simulate_module(module)
        assert not any(mat.flags.writeable for _, mat in state.branches)


def test_apply_layer_reads_the_weight_before_an_owned_branch_is_written():
    # a writable branch belongs to the running step, and a measurement's
    # last outcome goes into it in place: the trace check must still
    # compare with the weight the step started from
    st = cq_pure(RegisterLayout.qubits("0"), H @ [1, 0])
    (_, mat), = st.branches
    mat.flags.writeable = True
    out = apply_layer(st, Layer([measure_gate("0", "s")]))
    assert sorted(round(m.trace().real, 10) for _, m in out.branches) == [0.5, 0.5]


@pytest.mark.parametrize("module, input_state, erased", _hermitian_cases())
def test_simulated_states_are_hermitian_without_help(module, input_state, erased):
    _assert_hermitian(simulate_module(module, input_state, erased=erased))


def test_lost_trace_in_a_folded_gate_is_an_invariant_failure(monkeypatch):
    # the folded channel passes the same finish-step check as noise_apply
    noise = circuit._noise_superoperator
    monkeypatch.setattr(circuit, "_noise_superoperator", lambda rate: 0.5 * noise(rate))
    with pytest.raises(circuit.InvariantError, match="trace not preserved"):
        simulate_module(repetition_module(0.1, rounds=1))


def test_repetition_memory_holds_at_most_four_branches(monkeypatch):
    counts = []
    inner = circuit.apply_layer

    def counted(state, layer, *args, **kwargs):
        out = inner(state, layer, *args, **kwargs)
        counts.append((len(state.branches), len(out.branches)))
        return out

    monkeypatch.setattr(circuit, "apply_layer", counted)
    state = simulate_module(repetition_module(0.1, rounds=5))
    assert [rec for rec, _ in state.branches] == [()]
    assert len(counts) == 25 and max(max(pair) for pair in counts) == 4


def test_long_memory_error_rate_nondecreasing_in_rounds():
    # 4^20 full records would not fit; forgetting keeps each round at 4 branches
    deltas = [logical_error_rate(repetition_module(0.05, rounds=j)) for j in range(1, 21)]
    assert all(a <= b for a, b in zip(deltas, deltas[1:]))


@pytest.mark.parametrize("p", [0.0, 0.1, 0.25, 1.0])
def test_k_zero_module_targets_its_encoder_column(p):
    # k = 0: the target is the encoder's one column |00> with a trivial R,
    # kept iff neither qubit's noise leaves |0> (probability p/2 each)
    assert abs(logical_error_rate(swap_module(p)) - (1 - (1 - p / 2) ** 2)) < 1e-15


@pytest.mark.parametrize("j", [5, 1, -1])
def test_simulate_module_refuses_an_erased_round_that_does_not_exist(j):
    # a round index outside 0..J-1 names no round: the region would never be erased
    mod = repetition_module(0.1, 1)
    with pytest.raises(ValueError, match=rf"^erased round {j} is outside 0\.\.0 \(J = 1\)$"):
        simulate_module(mod, erased=(("d0", "d1"), j))


@pytest.mark.parametrize("j", [0.5, 1.0, "0", True])
def test_simulate_module_refuses_an_erased_round_that_is_not_an_integer(j):
    # a fractional round used to match no round and erase nothing; True,
    # an int to isinstance, used to erase round 1
    mod = repetition_module(0.1, rounds=2)
    with pytest.raises(ValueError, match="is not an integer"):
        module_fidelity(mod, erased=(("d0", "d1"), j))


def test_ec_module_refuses_a_repeated_data_qubit():
    # it used to build, and then fail in target_state's layout
    g = ConnectivityGraph(["0", "1"], [("0", "1")])
    with pytest.raises(ValueError, match="data qubit '0' listed twice"):
        EcModule(g, [Circuit(g, [])], ("0", "0"), np.eye(4, 2), 0.1)


def test_ec_module_refuses_a_nan_encoder():
    # it used to build, and logical_error_rate then found no branch
    g = ConnectivityGraph(["0"], [])
    with pytest.raises(ValueError, match="encoder is not an isometry"):
        EcModule(g, [Circuit(g, [])], ("0",), np.array([[np.nan], [0]]), 0.1)


def test_simulate_module_refuses_an_erased_qubit_off_the_graph():
    # the region is checked before any round runs, folded or not
    with pytest.raises(ValueError, match="erase region must be a subset of the noise qubits"):
        simulate_module(repetition_module(0.1, 1), erased=(("d0", "zz"), 0))


def test_circuit_and_module_fields_are_frozen():
    # reassigning a field would bypass the checks made on construction
    g = ConnectivityGraph(["0", "1"], [("0", "1")])
    circ = Circuit(g, [Layer([Unitary(("0", "1"), CNOT)])])
    mod = EcModule(g, rounds=[circ], data_qubits=("0",),
                   encoder=np.eye(2, dtype=complex), p=0.1)
    other = ConnectivityGraph(["0", "1"], [])
    with pytest.raises(dataclasses.FrozenInstanceError):
        circ.layers = ()
    with pytest.raises(dataclasses.FrozenInstanceError):
        circ.graph = other
    with pytest.raises(dataclasses.FrozenInstanceError):
        mod.rounds = (Circuit(other, []),)
    assert circ.graph is g and len(circ.layers) == 1 and mod.rounds == (circ,)


def test_simulation_size_cap():
    g, _ = grid_graph((3, 4))
    enc = np.zeros((2 ** 12, 2), dtype=complex)
    enc[0, 0] = 1.0
    enc[1, 1] = 1.0
    mod = EcModule(g, rounds=[Circuit(g, [])],
                   data_qubits=tuple(str(i) for i in range(12)),
                   encoder=enc, p=0.1)
    with pytest.raises(CircuitError, match="limited to about 12"):
        simulate_module(mod)


def test_input_state_registers_checked_up_front():
    # an input must live on exactly R + data qubits
    mod = trivial_module(0.1)
    extra = PureState(RegisterLayout.qubits("0", "x"), [1, 0, 0, 0])
    with pytest.raises(CircuitError, match=r"registers \('R', '0', 'x'\) must be exactly"):
        simulate_module(mod, input_state=extra)


@pytest.mark.parametrize("labels, message", [
    (("d0", "d1", "d2"), "target register 'R' has dimension 1; the module needs 2"),
    (("d0", "d1", "x"), r"target state registers \('R', 'd0', 'd1', 'x'\) must be exactly"),
], ids=["no-reference", "unknown-qubit"])
def test_target_registers_checked_like_the_input(labels, message):
    # the target passes the input's register check, before any simulation
    mod = repetition_module(0.1, rounds=1)
    target = PureState(RegisterLayout.qubits(*labels), np.eye(8)[0])
    with pytest.raises(CircuitError, match=message):
        module_fidelity(mod, target=target)
    with pytest.raises(CircuitError, match=message.replace("target", "input")):
        module_fidelity(mod, input_state=target)


@pytest.mark.parametrize("columns", [3, 0])
def test_encoder_needs_a_power_of_two_columns(columns):
    g = ConnectivityGraph(["0", "1"], [("0", "1")])
    with pytest.raises(ValueError, match=f"^encoder has {columns} columns; it needs 2\\^k$"):
        EcModule(g, rounds=[Circuit(g, [])], data_qubits=("0", "1"),
                 encoder=np.eye(4, columns, dtype=complex), p=0.1)


def test_input_reference_dimension_checked():
    # k = 0 modules take a trivial R; an R of dimension 2 is named with both
    # dimensions instead of failing deep inside the layout code
    from locbound.verify import swap_module

    lay = RegisterLayout.of(("R", 2), ("0", 2), ("1", 2))
    state = PureState(lay, np.eye(8)[0])
    with pytest.raises(CircuitError, match="'R' has dimension 2; the module needs 1"):
        simulate_module(swap_module(0.1), input_state=state)


def test_mixture_identity_choi():
    # N_p^{(x) m} = p^{|G|} N_G + (1 - p^{|G|}) M with M completely positive
    # and trace preserving, reconstructed on Choi matrices
    for m, gamma in ((2, [0]), (2, [0, 1]), (3, [1]), (3, [0, 2])):
        p = 0.35
        dims = (2,) * m
        dim = 2 ** m

        def n_p(mat):
            out = mat.copy()  # choi_matrix reuses its input
            for q in range(m):
                out = _depolarize_matrix(out, dims, q, p)
            return out

        def n_gamma(mat):
            out = mat.copy()
            for q in gamma:
                out = _depolarize_matrix(out, dims, q, 1.0)
            for q in range(m):
                if q not in gamma:
                    out = _depolarize_matrix(out, dims, q, p)
            return out

        j_full = choi_matrix(n_p, dim)
        j_gam = choi_matrix(n_gamma, dim)
        w = p ** len(gamma)
        j_m = (j_full - w * j_gam) / (1 - w)
        evals = np.linalg.eigvalsh((j_m + j_m.conj().T) / 2)
        assert evals.min() >= -1e-10  # completely positive
        partial = np.trace(j_m.reshape(dim, dim, dim, dim), axis1=0, axis2=2)
        assert np.abs(partial - np.eye(dim)).max() < 1e-10  # trace preserving


def test_sie_over_random_layers():
    # one layer raises the entanglement entropy across U by at most 3|dU|
    from locbound.verify import verify_sie

    report = verify_sie(seed=13, qubits=6, layers=25)
    assert report.passed
    assert report.violations == 0


def test_circuit_file_round_trip(tmp_path):
    swap = "1 0 0 0 0 0 1 0 0 1 0 0 0 0 0 1"
    text = "\n".join([
        "# demo",
        "qubits 3",
        "edge 0 1",
        "edge 1 2",
        "layer",
        f"u2 {swap} on 0 1",
        "layer",
        f"u2 {swap} on 2 1",
        "",
        "layer",
    ]) + "\n"
    path = tmp_path / "c.circuit"
    path.write_text(text)
    circ = read_circuit_file(path)
    assert circ.graph.m == 3
    assert circ.depth == 3
    assert [len(layer.gates) for layer in circ.layers] == [1, 1, 0]
    assert circ.layers[1].gates[0].qubits == ("2", "1")


def test_circuit_file_qubit_limit_on_its_line():
    # the qubits line is refused before any vertex label is built
    import tracemalloc

    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match="limited to 12 qubits") as err:
            parse_circuit_lines(["qubits 3000000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err.value.line_no == 1
    assert peak < 2 ** 20
    assert parse_circuit_lines(["qubits 12"]).graph.m == 12


def test_circuit_file_errors():
    with pytest.raises(ParseError) as err:
        parse_circuit_lines(["qubits 2", "edge 0 5"])
    assert "line" in str(err.value)

    with pytest.raises(ParseError) as err:
        parse_circuit_lines(["qubits 2", "layer", "u2 1 0 0 1 on 0 1"])
    assert "line 3" in str(err.value)

    # circuit files hold u2 gates only
    with pytest.raises(ParseError, match="^line 3: unknown directive 'kraus'$"):
        parse_circuit_lines(["qubits 2", "layer", "kraus 1 on 0 : 1 0 0 1"])
    with pytest.raises(ParseError, match="^line 3: unknown directive 'meas'$"):
        parse_circuit_lines(["qubits 2", "layer", "meas 0 -> k"])

    with pytest.raises(ParseError):
        parse_circuit_lines(["layer"])

    with pytest.raises(ParseError) as err:
        parse_circuit_lines(["qubits 2", "warp 9"])
    assert "unknown directive" in str(err.value)


_IDENTITY4 = "1 0 0 0 0 1 0 0 0 0 1 0 0 0 0 1"


@pytest.mark.parametrize("lines, line_no", [
    (["qubits 2", "edge 0 1", "layer", "u2 nan" + _IDENTITY4[1:] + " on 0 1"], 4),
    (["qubits 2", "edge 0 1", "layer", "u2 " + _IDENTITY4[:-1] + "inf on 0 1"], 4),
    (["qubits 2", "edge 0 1", "layer", "u2 " + _IDENTITY4[:-1] + "nanj on 0 1"], 4),
    (["qubits 1", "layer", "kraus 1 on 0 : 1 0 0 1"], 3),
    (["qubits 1", "layer", "meas 0 -> k"], 3),
    (["qubits 2", "edge 0 1", "edge 0 0"], 3),
    # a vertex is one of the labels 0..m-1, as a gate qubit is
    (["qubits 2", "edge 01 1"], 2),
    (["qubits 2", "edge 00 1"], 2),
], ids=["u2-nan", "u2-inf", "u2-nanj", "kraus", "meas", "self-loop",
        "edge-01", "edge-00"])
def test_circuit_parser_names_bad_line(lines, line_no):
    with pytest.raises(ParseError) as err:
        parse_circuit_lines(lines)
    assert err.value.line_no == line_no


_NOT_UNITARY4 = " ".join(["1"] * 16)


@pytest.mark.parametrize("lines, line_no", [
    (["qubits 3", "edge 0 1", "layer", f"u2 {_IDENTITY4} on 0 2"], 3),
    (["qubits 3", "edge 0 1", "edge 1 2", "layer",
      f"u2 {_IDENTITY4} on 0 1", f"u2 {_IDENTITY4} on 1 2"], 4),
    (["qubits 2", "edge 0 1", "layer", f"u2 {_IDENTITY4} on 0 7"], 3),
    (["qubits 2", "edge 0 1", "layer", f"u2 {_NOT_UNITARY4} on 0 1"], 3),
    (["# two layers", "qubits 2", "edge 0 1", "layer", f"u2 {_IDENTITY4} on 0 1", "",
      "# the second one acts on a missing qubit", "layer", f"u2 {_IDENTITY4} on 0 5"], 8),
], ids=["non-local", "qubit-twice", "unknown-qubit", "non-unitary", "second-layer"])
def test_circuit_parser_names_bad_layer(lines, line_no):
    # a layer the Circuit refuses is reported at its layer line, with the
    # Circuit's message
    with pytest.raises(ParseError) as err:
        parse_circuit_lines(lines)
    assert err.value.line_no == line_no
    assert str(err.value).startswith(f"line {line_no}: layer ")


def _words(*parts):
    return st.tuples(*parts).map(
        lambda ws: " ".join(w if isinstance(w, str) else " ".join(w) for w in ws))


_QUBIT = st.sampled_from(["0", "1", "2", "01", "00"])
_ENTRY = st.sampled_from(["0", "1", "1j", "0.5", "nan", "inf", "nanj", "x"])
_CIRCUIT_LINE = st.one_of(
    _words(st.just("qubits"), st.sampled_from(["1", "2", "\u00b2"])),
    _words(st.just("edge"), _QUBIT, _QUBIT),
    st.just("layer"),
    _words(st.just("meas"), _QUBIT, st.just("->"), st.sampled_from(["k", "s"])),
    _words(st.just("kraus"), st.sampled_from(["1", "2", "0", "-1"]), st.just("on"),
           st.lists(_QUBIT, max_size=2), st.just(":"), st.lists(_ENTRY, max_size=8)),
    _words(st.just("u2"), st.lists(_ENTRY, min_size=16, max_size=16), st.just("on"),
           _QUBIT, _QUBIT),
    st.text(max_size=8),
)


# CNOT, CZ, SWAP and H (x) I
_CLIFFORDS = [CNOT, np.diag([1, 1, 1, -1]), np.eye(4)[[0, 2, 1, 3]], np.kron(H, np.eye(2))]


@st.composite
def _well_formed_circuit_file(draw):
    """(head, lines) of a file that parses: ``qubits m``, the edges of a
    path, 1-3 layers of Clifford u2 gates on disjoint path edges (a random
    16-entry u2 is never unitary), and maybe one random line anywhere."""
    m = draw(st.integers(2, 5))
    lines = [f"qubits {m}"] + [f"edge {i} {i + 1}" for i in range(m - 1)]
    for _ in range(draw(st.integers(1, 3))):
        lines.append("layer")
        free = set(range(m))
        for i in draw(st.lists(st.integers(0, m - 2), max_size=m - 1, unique=True)):
            if {i, i + 1} <= free:
                free -= {i, i + 1}
                u, v = draw(st.permutations([i, i + 1]))
                gate = draw(st.sampled_from(_CLIFFORDS))
                entries = " ".join(repr(complex(z)) for z in gate.ravel())
                lines.append(f"u2 {entries} on {u} {v}")
    extra = draw(st.none() | _CIRCUIT_LINE)
    if extra is not None:
        lines.insert(draw(st.integers(0, len(lines))), extra)
    return lines[0], lines[1:]


@settings(max_examples=300, deadline=None)
@given(st.tuples(st.sampled_from(["qubits 2", "qubits 3", "qubits \u00b2", ""]),
                 st.lists(_CIRCUIT_LINE, max_size=6)) | _well_formed_circuit_file())
@example(("qubits 2", ["layer", "meas 0 -> k"]))
@example(("qubits 2", ["layer", "kraus 1 on 0 : 1 0 0 1"]))
def test_parse_circuit_lines_accepts_or_reports(file):
    # any line list is a circuit or a ParseError, never another exception;
    # the head line makes well-formed files common, and the second strategy
    # makes them carry gates. A circuit the parser accepts is one verify_sie
    # runs (given a proper cut), so a meas or kraus line must be refused
    # here; the examples pin one of each, which random lines rarely form
    head, lines = file
    try:
        circuit = parse_circuit_lines([head, *lines])
    except ParseError:
        return
    assert isinstance(circuit, Circuit)
    if circuit.graph.m >= 2:
        assert isinstance(verify_sie(circuit=circuit), VerificationReport)
