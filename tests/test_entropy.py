import math

import numpy as np
import pytest

from locbound.entropy import (
    binary_entropy,
    coherent_info,
    cond_mutual_info,
    g_continuity,
    g_slack,
    relative_entropy,
    vn_entropy,
)
from locbound.qstate import (
    DensityMatrix,
    RegisterLayout,
    fidelity,
    max_entangled_state,
    partial_trace,
)
from locbound.rand import random_density, random_kraus_channel, random_pure

Q1 = RegisterLayout.qubits("a")
Q2 = RegisterLayout.qubits("a", "b")
Q3 = RegisterLayout.qubits("a", "b", "c")


def product(layout, *states):
    """The product of ``states`` on ``layout`` (registers in factor order)."""
    mat = np.ones((1, 1), dtype=complex)
    for rho in states:
        mat = np.kron(mat, rho.matrix)
    return DensityMatrix(layout, mat, validate=False)


def scalar_entropy(*probs):
    # independent oracle: plain scalar evaluation of -sum p log2 p
    return -sum(p * math.log2(p) for p in probs if p > 0)


def test_vn_entropy_examples():
    assert abs(vn_entropy(DensityMatrix(Q1, np.eye(2) / 2)) - 1.0) < 1e-12
    rng = np.random.default_rng(0)
    pure = random_pure(rng, Q2).to_density()
    assert abs(vn_entropy(pure)) < 1e-9
    rho = DensityMatrix(Q1, np.diag([0.75, 0.25]))
    assert abs(vn_entropy(rho) - scalar_entropy(0.75, 0.25)) < 1e-12
    assert abs(scalar_entropy(0.75, 0.25) - 0.8112781244591328) < 1e-12
    with pytest.raises(KeyError):
        vn_entropy(rho, ["zz"])


@pytest.mark.parametrize("where, bad", [((1, 0), math.nan), ((0, 1), math.nan),
                                        ((0, 1), math.inf)])
def test_vn_entropy_refuses_a_non_finite_state(where, bad):
    # a NaN eigenvalue fails the cutoff test and the upper triangle is never
    # read, so each of these gave a finite entropy before the check
    mat = np.eye(4, dtype=complex) / 4
    mat[where] = bad
    with pytest.raises(ValueError, match="non-finite entry"):
        vn_entropy(DensityMatrix(Q2, mat, validate=False))


def test_relative_entropy_examples():
    rng = np.random.default_rng(1)
    rho = random_density(rng, Q1)
    assert abs(relative_entropy(rho, rho)) < 1e-10
    zero = DensityMatrix(Q1, np.diag([1.0, 0.0]))
    mm = DensityMatrix(Q1, np.eye(2) / 2)
    assert abs(relative_entropy(zero, mm) - 1.0) < 1e-12
    assert math.isinf(relative_entropy(mm, zero))  # supp(mm) is not in supp(zero)


def test_relative_entropy_ties_to_conditional_entropy():
    rng = np.random.default_rng(2)
    for _ in range(50):
        rho = random_density(rng, Q2, rank=int(rng.integers(1, 5)))
        rho_b = partial_trace(rho, ["a"]).matrix
        sig = np.kron(np.eye(2), rho_b)
        lhs = relative_entropy(rho, sig)
        neg_cond = -(vn_entropy(rho) - vn_entropy(rho, ["b"]))
        assert abs(lhs - neg_cond) < 1e-9


def test_coherent_info_examples():
    bell = max_entangled_state(1, "a", "b").to_density()
    assert abs(coherent_info(bell, ["a"]) - 1.0) < 1e-9
    rng = np.random.default_rng(3)
    a = random_pure(rng, Q1).to_density()
    b = random_pure(rng, RegisterLayout.qubits("b")).to_density()
    assert abs(coherent_info(product(Q2, a, b), ["a"])) < 1e-9
    mm = DensityMatrix(Q2, np.eye(4) / 4)
    assert abs(coherent_info(mm, ["a"]) - (-1.0)) < 1e-12
    with pytest.raises(ValueError, match="appears on both sides"):
        coherent_info(mm, ["a", "a"])


def test_cond_mutual_info_examples():
    rng = np.random.default_rng(4)
    prod = product(Q3, random_density(rng, Q1), random_density(rng, RegisterLayout.qubits("b")),
                   random_density(rng, RegisterLayout.qubits("c")))
    assert abs(cond_mutual_info(prod, ["a"], ["b"], ["c"])) < 1e-9

    bell_ab = max_entangled_state(1, "a", "b").to_density()
    state = product(Q3, bell_ab, random_density(rng, RegisterLayout.qubits("c")))
    assert abs(cond_mutual_info(state, ["a"], ["c"], ["b"])) < 1e-9

    v = np.zeros(8)
    v[0] = v[7] = 1 / np.sqrt(2)
    ghz = DensityMatrix.from_vector(Q3, v)
    assert abs(cond_mutual_info(ghz, ["a"], ["c"], ["b"]) - 1.0) < 1e-9


def test_strong_subadditivity():
    rng = np.random.default_rng(5)
    for _ in range(100):
        rho = random_density(rng, Q3, rank=int(rng.integers(1, 9)))
        assert cond_mutual_info(rho, ["a"], ["b"], ["c"]) >= -1e-9


def test_g_continuity_examples():
    assert g_continuity(0.0) == (0.0, 0.0)
    h, g = g_continuity(0.5)
    assert abs(h - 1.0) < 1e-12
    # scalar formula oracle: 1.5 * h(1/3)
    h13 = -(1 / 3) * math.log2(1 / 3) - (2 / 3) * math.log2(2 / 3)
    assert abs(g - 1.5 * h13) < 1e-12
    assert abs(g - 1.3774437510817343) < 1e-9
    h1, g1 = g_continuity(1.0)
    assert h1 == 0.0
    assert abs(g1 - 2.0) < 1e-12
    with pytest.raises(ValueError):
        g_continuity(1.5)
    with pytest.raises(ValueError):
        binary_entropy(-0.1)


def test_g_below_two_sqrt():
    for i in range(0, 1001):
        eps = i / 1000.0
        _, g = g_continuity(eps)
        assert g <= 2 * math.sqrt(eps) + 1e-12


def test_g_slack_extended_domain():
    # formula stays valid past 1; used only by saturated bound evaluations
    assert abs(g_slack(1.0) - 2.0) < 1e-12
    assert g_slack(2.0) > g_slack(1.0)


def test_right_monotonicity():
    rng = np.random.default_rng(6)
    layouts = [Q2, RegisterLayout.of(("a", 2), ("b", 4)), RegisterLayout.of(("a", 4), ("b", 4))]
    for i in range(60):
        lay = layouts[i % len(layouts)]
        db = lay.dims[1]
        rho = random_density(rng, lay, rank=int(rng.integers(1, lay.dim + 1)))
        kraus = random_kraus_channel(rng, db, db, n_kraus=int(rng.integers(1, 4)))
        full = [np.kron(np.eye(lay.dims[0]), k) for k in kraus]
        out = sum(k @ rho.matrix @ k.conj().T for k in full)
        out = DensityMatrix(lay, (out + out.conj().T) / 2, validate=False)
        before = coherent_info(rho, ["a"])
        after = coherent_info(out, ["a"])
        assert before >= after - 1e-9


def test_coherent_info_continuity():
    rng = np.random.default_rng(7)
    for _ in range(60):
        rho = random_density(rng, Q2, rank=int(rng.integers(1, 5)))
        other = random_density(rng, Q2, rank=int(rng.integers(1, 5)))
        lam = float(rng.uniform(0.0, 0.2))
        sig = DensityMatrix(Q2, (1 - lam) * rho.matrix + lam * other.matrix, validate=False)
        eps = 1.0 - fidelity(rho, sig)
        eps = min(max(eps, 0.0), 1.0)
        gap = abs(coherent_info(rho, ["a"]) - coherent_info(sig, ["a"]))
        assert gap <= 2 * math.sqrt(eps) * 1 + g_slack(math.sqrt(eps)) + 1e-9
