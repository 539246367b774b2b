import numpy as np
import pytest

from locbound.circuit import (
    Circuit,
    ConnectivityGraph,
    Depolarize,
    EcModule,
    Embedding,
    Erase,
    KrausGate,
    Layer,
    Measure,
    Relabel,
    Unitary,
    apply_layer,
    apply_operator,
    boundary,
    choi_matrix,
    grid_graph,
    logical_error_rate,
    noise_apply,
    parse_circuit_lines,
    read_outcome,
    simulate_module,
    validate_embedding,
    validate_layer,
    _depolarize_matrix,
)
from locbound.qstate import (
    ClassicalQuantumState,
    DensityMatrix,
    ParseError,
    RegisterLayout,
)
from locbound.rand import random_density, random_unitary

CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def cq_pure(layout, vec):
    return ClassicalQuantumState.from_density(
        DensityMatrix.from_vector(layout, vec)
    )


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
    assert validate_embedding(emb, grid).ok

    close = Embedding({"0": np.array([0.0, 0.0]), "1": np.array([0.5, 0.0])}, 2, 1.0)
    g = ConnectivityGraph(["0", "1"], [("0", "1")])
    rep = validate_embedding(close, g)
    assert not rep.ok
    assert any("spacing" in v for v in rep.violations)

    stretched = Embedding({"0": np.array([0.0, 0.0]), "1": np.array([2.0, 0.0])}, 2, 1.0)
    rep = validate_embedding(stretched, g)
    assert not rep.ok
    assert any("edge" in v for v in rep.violations)
    assert rep.worst_edge == ("0", "1", 2.0)


def test_validate_layer():
    g = ConnectivityGraph(["0", "1", "2"], [("0", "1")])
    assert validate_layer(g, Layer([Unitary(("0", "1"), CNOT)])).ok
    rep = validate_layer(g, Layer([Unitary(("0", "2"), CNOT)]))
    assert not rep.ok
    assert any("locality" in v for v in rep.violations)
    # measurement is a separable A:X instrument: fine anywhere
    assert validate_layer(g, Layer([Measure("2", "s")])).ok
    # completeness violations
    rep = validate_layer(g, Layer([Unitary(("0",), np.array([[1, 0], [0, 0.5]]))]))
    assert any("completeness" in v for v in rep.violations)
    bad_kraus = KrausGate(("0",), [np.eye(2) * 0.5])
    assert any("completeness" in v for v in validate_layer(g, Layer([bad_kraus])).violations)
    # qubit reuse inside one layer
    rep = validate_layer(g, Layer([Measure("0", "a"), Measure("0", "b")]))
    assert any("two gates" in v for v in rep.violations)


def test_apply_layer_identity_and_cnot():
    g = ConnectivityGraph(["0", "1"], [("0", "1")])
    lay = RegisterLayout.qubits("0", "1")
    plus0 = np.kron(H @ [1, 0], [1, 0])
    st = cq_pure(lay, plus0)

    ident = apply_layer(st, Layer([]))
    assert np.abs(ident.branches[0][2].matrix - st.branches[0][2].matrix).max() < 1e-12

    out = apply_layer(st, Layer([Unitary(("0", "1"), CNOT)]))
    bell = np.array([1, 0, 0, 1]) / np.sqrt(2)
    assert np.abs(out.branches[0][2].matrix - np.outer(bell, bell)).max() < 1e-12


def test_apply_layer_measurement_branches():
    lay = RegisterLayout.qubits("0")
    st = cq_pure(lay, H @ [1, 0])
    out = apply_layer(st, Layer([Measure("0", "s")]))
    assert len(out.branches) == 2
    weights = sorted(round(w, 10) for _, w, _ in out.branches)
    assert weights == [0.5, 0.5]
    labels = sorted(lab for lab, _, _ in out.branches)
    assert labels == ["s=0;", "s=1;"]
    assert read_outcome("s=0;", "s") == "0"
    assert read_outcome("a=1;s=0;s=1;", "s") == "1"


def test_apply_layer_relabel_and_trace():
    lay = RegisterLayout.qubits("0")
    st = cq_pure(lay, [1, 0])
    out = apply_layer(st, Layer([Relabel(lambda lab: lab + "done;")]))
    assert out.branches[0][0] == "done;"
    assert abs(out.total_weight - 1.0) < 1e-12


def test_noise_modes():
    lay = RegisterLayout.qubits("0", "1")
    st = cq_pure(lay, [1, 0, 0, 0])
    full = noise_apply(st, Depolarize(1.0, ("0", "1")))
    assert np.abs(full.branches[0][2].matrix - np.eye(4) / 4).max() < 1e-12

    none = noise_apply(st, Depolarize(0.0, ("0", "1")))
    assert np.abs(none.branches[0][2].matrix - st.branches[0][2].matrix).max() < 1e-12

    erased = noise_apply(st, Erase(("0",), 0.3, ("0", "1")))
    red = erased.average_state().reduced(["0"])
    assert np.abs(red.matrix - np.eye(2) / 2).max() < 1e-12

    with pytest.raises(ValueError):
        Depolarize(1.5, ("0",))
    with pytest.raises(ValueError):
        Erase(("7",), 0.1, ("0",))


def test_depolarizing_channel_formula():
    rng = np.random.default_rng(0)
    mat = np.outer([1, 1j], [1, -1j]) / 2
    for p in (0.0, 0.3, 1.0):
        out = _depolarize_matrix(mat, (2,), 0, p)
        expect = (1 - p) * mat + p * np.trace(mat) * np.eye(2) / 2
        assert np.abs(out - expect).max() < 1e-12
    out = _depolarize_matrix(mat, (2,), 0, 1.0)
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
            out = _depolarize_matrix(rho, (2, 2, 2), pos, p)
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
    out_rho = apply_operator(rho, (2, 2, 2), [2, 0], k)
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


def test_simulation_size_cap():
    g, _ = grid_graph((3, 4))
    enc = np.zeros((2 ** 12, 2), dtype=complex)
    enc[0, 0] = 1.0
    enc[1, 1] = 1.0
    mod = EcModule(g, rounds=[Circuit(g, [])],
                   data_qubits=tuple(str(i) for i in range(12)),
                   encoder=enc, p=0.1)
    with pytest.raises(Exception):
        simulate_module(mod)


def test_custom_decoder():
    # decoder that traces out nothing extra: matches the default on the
    # trivial module
    mod = trivial_module(0.25)

    def decoder(cq):
        avg = cq.average_state()
        return avg.reduced(("R", "0"))

    assert abs(logical_error_rate(mod, decoder) - logical_error_rate(mod)) < 1e-12


def test_mixture_identity_choi():
    # N_p^{(x) m} = p^{|G|} N_G + (1 - p^{|G|}) M with M completely positive
    # and trace preserving, reconstructed on Choi matrices
    for m, gamma in ((2, [0]), (2, [0, 1]), (3, [1]), (3, [0, 2])):
        p = 0.35
        dims = (2,) * m
        dim = 2 ** m

        def n_p(mat):
            out = mat
            for q in range(m):
                out = _depolarize_matrix(out, dims, q, p)
            return out

        def n_gamma(mat):
            out = mat
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
        "meas 2 -> flag",
        "layer",
        "kraus 2 on 0 : 1 0 0 0 0 0 0 1",
    ]) + "\n"
    path = tmp_path / "c.circuit"
    path.write_text(text)
    from locbound.circuit import read_circuit_file

    circ = read_circuit_file(path)
    assert circ.graph.m == 3
    assert circ.depth == 2
    assert circ.validate().ok


def test_circuit_file_errors():
    with pytest.raises(ParseError) as err:
        parse_circuit_lines(["qubits 2", "edge 0 5"])
    assert "line" in str(err.value)

    with pytest.raises(ParseError) as err:
        parse_circuit_lines(["qubits 2", "layer", "u2 1 0 0 1 on 0 1"])
    assert "line 3" in str(err.value)

    with pytest.raises(ParseError) as err:
        parse_circuit_lines(["qubits 2", "layer", "kraus 2 on 0 : 1 0 0 0"])
    assert "line 3" in str(err.value)

    with pytest.raises(ParseError):
        parse_circuit_lines(["layer"])

    with pytest.raises(ParseError) as err:
        parse_circuit_lines(["qubits 2", "warp 9"])
    assert "unknown directive" in str(err.value)
