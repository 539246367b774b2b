import numpy as np
import pytest

from locbound.qstate import (
    NEGLIGIBLE,
    ClassicalQuantumState,
    DensityMatrix,
    PureState,
    Register,
    RegisterLayout,
    fidelity,
    max_entangled_state,
    partial_trace,
    purify,
    trace_distance,
)
from locbound.entropy import vn_entropy
from locbound.rand import random_density, random_pure

Q1 = RegisterLayout.qubits("a")
Q2 = RegisterLayout.qubits("a", "b")


def ket(*amps):
    v = np.array(amps, dtype=complex)
    return v / np.linalg.norm(v)


def basis(layout, index):
    """The computational basis state |index> on ``layout``."""
    v = np.zeros(layout.dim, dtype=complex)
    v[index] = 1.0
    return DensityMatrix.from_vector(layout, v)


def mixed(layout):
    """The maximally mixed state on ``layout``."""
    return DensityMatrix(layout, np.eye(layout.dim) / layout.dim)


def test_layout_invariants():
    with pytest.raises(ValueError):
        RegisterLayout([Register("a", 2), Register("a", 2)])
    with pytest.raises(ValueError):
        Register("a", 3)  # quantum dims must be powers of two
    lay = RegisterLayout.of(("R", 4), ("q", 2))
    assert lay.dim == 8
    assert lay.labels == ("R", "q")


def test_density_validation():
    with pytest.raises(ValueError):
        DensityMatrix(Q1, np.array([[0.5, 0.5], [0.4, 0.5]]))  # not Hermitian
    with pytest.raises(ValueError):
        DensityMatrix(Q1, np.array([[1.5, 0], [0, -0.5]]))  # negative eigenvalue
    with pytest.raises(ValueError):
        DensityMatrix(Q1, np.eye(2))  # trace 2


@pytest.mark.parametrize("entry", [(0, 0), (0, 1)], ids=["diagonal", "off-diagonal"])
def test_density_with_a_nan_entry_is_refused(entry):
    # NaN fails every tolerance check; off the diagonal it used to reach
    # eigvalsh and raise LinAlgError instead
    m = np.eye(2, dtype=complex) / 2
    m[entry] = np.nan
    with pytest.raises(ValueError, match="not Hermitian"):
        DensityMatrix(Q1, m)


def test_pure_state_with_a_nan_entry_is_refused():
    # it used to pass the norm check, and its entropy then read -0.0 bits
    with pytest.raises(ValueError, match="vector norm is not 1"):
        PureState(Q2, [1, np.nan, 0, 0])


def test_tensor_product_identities():
    # products are built with np.kron on the joint layout, in register order
    mm = mixed(Q1)
    assert np.allclose(DensityMatrix(Q2, np.kron(mm.matrix, mm.matrix)).matrix, mixed(Q2).matrix)

    zero = basis(Q1, 0)
    one = basis(RegisterLayout.qubits("b"), 1)
    p01 = DensityMatrix(Q2, np.kron(zero.matrix, one.matrix))
    expect = np.zeros((4, 4))
    expect[1, 1] = 1.0
    assert np.allclose(p01.matrix, expect)
    assert np.allclose(p01.matrix, basis(Q2, 0b01).matrix)

    with pytest.raises(ValueError):
        RegisterLayout.qubits("a", "a")  # label collision in a joint layout


def test_tensor_trace_multiplicative():
    rng = np.random.default_rng(0)
    q4 = RegisterLayout.qubits("a", "b", "c", "d")
    for _ in range(20):
        a = random_density(rng, Q2)
        b = random_density(rng, RegisterLayout.qubits("c", "d"))
        # validation accepts the product: unit trace, Hermitian, PSD
        prod = DensityMatrix(q4, np.kron(a.matrix, b.matrix))
        # oracle: direct multiplication of the traces
        assert abs(prod.matrix.trace().real - a.matrix.trace().real * b.matrix.trace().real) < 1e-12


def test_partial_trace_examples():
    bell = max_entangled_state(1, "a", "b").to_density()
    assert np.allclose(partial_trace(bell, ["b"]).matrix, np.eye(2) / 2)

    rng = np.random.default_rng(1)
    a = random_density(rng, Q1)
    b = random_density(rng, RegisterLayout.qubits("b"))
    prod = DensityMatrix(Q2, np.kron(a.matrix, b.matrix), validate=False)
    assert np.abs(partial_trace(prod, ["b"]).matrix - a.matrix).max() < 1e-12

    ghz_layout = RegisterLayout.qubits("a", "b", "c")
    ghz = DensityMatrix.from_vector(ghz_layout, ket(1, 0, 0, 0, 0, 0, 0, 1))
    red = partial_trace(ghz, ["b"])
    # direct expansion: (|00><00| + |11><11|) / 2 on (a, c)
    expect = np.zeros((4, 4))
    expect[0, 0] = expect[3, 3] = 0.5
    assert np.abs(red.matrix - expect).max() < 1e-12

    with pytest.raises(KeyError):
        partial_trace(bell, ["nope"])


def test_partial_trace_refuses_a_repeated_label():
    # the second "a" would trace out the register that moved into its place
    rho = random_density(np.random.default_rng(4), RegisterLayout.qubits("a", "b", "c"))
    with pytest.raises(ValueError, match="register 'a' listed twice"):
        partial_trace(rho, ["a", "a"])
    with pytest.raises(ValueError, match="register 'c' listed twice"):
        partial_trace(rho, ["c", "b", "c"])


def test_partial_trace_order_preserved():
    rng = np.random.default_rng(2)
    rho = random_density(rng, RegisterLayout.qubits("a", "b", "c"))
    red = partial_trace(rho, ["b"])
    assert red.layout.labels == ("a", "c")


def test_fidelity_examples():
    rng = np.random.default_rng(3)
    rho = random_density(rng, Q2)
    assert abs(fidelity(rho, rho) - 1.0) < 1e-10

    zero = basis(Q1, 0)
    one = basis(Q1, 1)
    assert fidelity(zero, one) < 1e-12
    assert abs(fidelity(zero, mixed(Q1)) - 0.5) < 1e-12

    sig = random_density(rng, Q2)
    assert abs(fidelity(rho, sig) - fidelity(sig, rho)) < 1e-10

    # pure-state formula F = <xi| rho |xi>
    xi = random_pure(rng, Q2)
    direct = float(np.real(xi.vector.conj() @ rho.matrix @ xi.vector))
    assert abs(fidelity(xi.to_density(), rho) - direct) < 1e-10

    with pytest.raises(ValueError):
        fidelity(zero, rho)


def test_trace_distance_examples():
    zero = basis(Q1, 0)
    plus = DensityMatrix.from_vector(Q1, ket(1, 1))
    assert trace_distance(zero, zero) == 0.0
    one = basis(Q1, 1)
    assert abs(trace_distance(zero, one) - 2.0) < 1e-12
    # eigenvalue oracle on the 2x2 difference
    diff = zero.matrix - plus.matrix
    oracle = float(np.abs(np.linalg.eigvalsh(diff)).sum())
    assert abs(oracle - np.sqrt(2)) < 1e-12
    assert abs(trace_distance(zero, plus) - oracle) < 1e-12


def test_purify():
    mm = mixed(Q1)
    pure = purify(mm)
    back = pure.reduced(["a"])
    assert abs(fidelity(back, mm) - 1.0) < 1e-10

    psi = DensityMatrix.from_vector(Q1, ket(1, 1j))
    trivial = purify(psi)
    assert trivial.layout.dims[0] == 1  # rank-1 state: trivial reference
    assert abs(fidelity(trivial.reduced(["a"]), psi) - 1.0) < 1e-10

    # eigendecomposition oracle for diag(3/4, 1/4)
    rho = DensityMatrix(Q1, np.diag([0.75, 0.25]))
    p = purify(rho)
    expect = np.array([np.sqrt(0.75), 0, 0, np.sqrt(0.25)])
    assert np.abs(np.abs(p.vector) - expect).max() < 1e-12
    assert abs(fidelity(p.reduced(["a"]), rho) - 1.0) < 1e-10


def test_purify_random_trace_back():
    rng = np.random.default_rng(4)
    for rank in (1, 2, 3, 4):
        rho = random_density(rng, Q2, rank=rank)
        p = purify(rho)
        assert abs(fidelity(p.reduced(["a", "b"]), rho) - 1.0) < 1e-10


def test_max_entangled_state():
    bell = max_entangled_state(1)
    assert np.allclose(bell.vector, ket(1, 0, 0, 1))
    rho = bell.to_density()
    assert abs(vn_entropy(rho, ["R"]) - 1.0) < 1e-12

    phi2 = max_entangled_state(2)
    red = phi2.reduced(["R"])
    assert np.abs(red.matrix - np.eye(4) / 4).max() < 1e-12
    assert abs(vn_entropy(phi2.to_density(), ["R"]) - 2.0) < 1e-10

    with pytest.raises(ValueError):
        max_entangled_state(0)


def test_fuchs_van_de_graaf():
    rng = np.random.default_rng(5)
    layouts = [Q1, Q2, RegisterLayout.of(("a", 4), ("b", 4))]
    for i in range(200):
        lay = layouts[i % len(layouts)]
        rho = random_density(rng, lay, rank=int(rng.integers(1, lay.dim + 1)))
        if i % 3 == 0:
            sig = random_pure(rng, lay).to_density()
        else:
            sig = random_density(rng, lay)
        f = fidelity(rho, sig)
        t = trace_distance(rho, sig)
        assert 2 * (1 - np.sqrt(f)) <= t + 1e-9
        assert t <= 2 * np.sqrt(1 - f) + 1e-9
        if i % 3 == 0:
            assert 2 * (1 - f) <= t + 1e-9


def test_permuted_round_trip():
    rng = np.random.default_rng(6)
    rho = random_density(rng, RegisterLayout.qubits("a", "b", "c"))
    perm = rho.permuted(["c", "a", "b"])
    assert perm.layout.labels == ("c", "a", "b")
    back = perm.permuted(["a", "b", "c"])
    assert np.abs(back.matrix - rho.matrix).max() < 1e-12


@pytest.mark.parametrize("order", [("a", "b"), ("a", "a", "b"), ("a", "b", "z")],
                         ids=["short", "repeat", "unknown"])
def test_permuted_refuses_a_non_permutation(order):
    # both state types refuse through the layout's one check
    lay = RegisterLayout.qubits("a", "b", "c")
    rng = np.random.default_rng(7)
    for state in (random_pure(rng, lay), random_density(rng, lay)):
        with pytest.raises(ValueError, match="^new_order must be a permutation of the layout"):
            state.permuted(order)


def test_classical_quantum_state():
    # a branch is (record, matrix); the unnormalized matrix's trace is its weight
    zero = basis(Q1, 0).matrix
    one = basis(Q1, 1).matrix
    cq = ClassicalQuantumState(Q1, [((("s", 0),), 0.5 * zero), ((("s", 1),), 0.5 * one)])
    avg = cq.average_state()
    assert np.allclose(avg.matrix, np.eye(2) / 2)
    assert abs(cq.total_weight - 1.0) < 1e-12
    assert ClassicalQuantumState.from_density(basis(Q1, 0)).branches[0][0] == ()

    with pytest.raises(ValueError, match="does not match layout dimension 2"):
        ClassicalQuantumState(Q1, [((("s", 0),), np.eye(4))])
    with pytest.raises(ValueError, match="at least one branch"):
        ClassicalQuantumState(Q1, [])

    # weighed once, on first read: a channel step's finish weighs its
    # result, and the next step reads that sum as its starting weight
    assert "total_weight" in vars(cq)
    fresh = ClassicalQuantumState(Q1, cq.branches)
    assert "total_weight" not in vars(fresh)
    assert fresh.total_weight == cq.total_weight and "total_weight" in vars(fresh)

    merged = ClassicalQuantumState(
        Q1, [((("s", 0),), 0.5 * zero), ((("s", 0),), 0.5 * one),
             ((("s", 1),), NEGLIGIBLE * one)]
    ).merged()
    assert len(merged.branches) == 1  # a branch of weight NEGLIGIBLE is dropped
    assert merged.branches[0][0] == (("s", 0),)
    assert np.allclose(merged.branches[0][1], np.eye(2) / 2)


def test_merged_adds_in_order_without_writing_a_branch():
    # a record's sum is built in place in a copy of its first matrix: the
    # same bits as (a + b) + c, and the branch matrices stay as they were
    rng = np.random.default_rng(7)
    a, b, c, d = (w * random_density(rng, Q2).matrix for w in (0.1, 0.2, 0.3, 0.4))
    cq = ClassicalQuantumState(Q2, [((("s", 0),), a), ((("s", 1),), d),
                                    ((("s", 0),), b), ((("s", 0),), c)])
    before = [mat.copy() for _, mat in cq.branches]
    merged = dict(cq.merged().branches)
    assert np.array_equal(merged[(("s", 0),)], (a + b) + c)
    assert merged[(("s", 1),)] is cq.branches[1][1]
    assert all(np.array_equal(mat, old) for (_, mat), old in zip(cq.branches, before))
