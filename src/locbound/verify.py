"""End-to-end verification harness: runs simulations and entropy
computations, then asserts each target inequality numerically.

Every check uses certified bound directions (exact entropies, certified
REE lower bounds) so heuristic optimizer slack can only cause false
alarms, never false passes. Reports are deterministic given (seed,
parameters); a report passes iff no single trial violates its inequality
beyond the stated slack. Slack budget: 1e-9 for exact arithmetic
identities, 1e-8 for entropy equalities, 1e-6 for simulation-derived
quantities.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from .bounds import BoundInputs, depth_bound_rhs, overhead_floor
from .circuit import (
    Circuit,
    Conditional,
    ConnectivityGraph,
    EcModule,
    InvariantError,
    Layer,
    Unitary,
    apply_operator,
    boundary,
    grid_graph,
    logical_error_rate,
    measure_gate,
    module_fidelity,
    reset_gate,
)
from .entropy import _spectrum_entropy, coherent_info, cond_mutual_info, g_slack, vn_entropy
from .qstate import (
    MAX_QUBITS,
    DensityMatrix,
    PureState,
    RegisterLayout,
    fidelity,
    max_entangled_state,
)
from .rand import (
    DEFAULT_SEED,
    random_density,
    random_kraus_channel,
    random_pure,
    random_unitary,
    rng_from,
)
from .separability import ree_lower, ree_upper
from .stabilizer import (
    _X,
    StabilizerCode,
    code_entropy,
    correctable_region,
    encoding_isometry,
    four_two_two_code,
    min_distance,
    repetition_code,
)

SLACK_EXACT = 1e-9
SLACK_ENTROPY = 1e-8
SLACK_SIM = 1e-6


@dataclass
class VerificationReport:
    lemma: str
    trials: int
    violations: int
    worst_margin: float
    parameters: dict
    seed: int
    passed: bool

    def to_json(self) -> dict:
        out = asdict(self)
        out["pass"] = out.pop("passed")  # the last field, so the key order holds
        return out


class _Checker:
    """Accumulates margins = (value - bound); margin > slack is a violation.

    A report with no trials fails: it would otherwise pass vacuously. A
    NaN margin is neither a pass nor a violation: it raises InvariantError.
    """

    def __init__(self, slack: float):
        self.slack = slack
        self.trials = 0
        self.violations = 0
        self.worst = -np.inf

    def check(self, value: float, bound: float):
        margin = value - bound
        if np.isnan(margin):
            raise InvariantError(f"NaN margin: value {value!r} against bound {bound!r}")
        self.trials += 1
        if margin > self.worst:
            self.worst = margin
        if margin > self.slack:
            self.violations += 1

    def report(self, lemma: str, parameters: dict, seed: int) -> VerificationReport:
        worst = self.worst if np.isfinite(self.worst) else 0.0
        return VerificationReport(
            lemma=lemma,
            trials=self.trials,
            violations=self.violations,
            worst_margin=float(worst),
            parameters=parameters,
            seed=seed,
            passed=self.violations == 0 and self.trials > 0,
        )


# ---------------------------------------------------------------------------
# Small incremental entangling


def _cut_entropy(vec: np.ndarray, dims, positions) -> float:
    rest = [i for i in range(len(dims)) if i not in set(positions)]
    t = vec.reshape(dims).transpose(list(positions) + rest)
    du = int(np.prod([dims[i] for i in positions])) if positions else 1
    s = np.linalg.svd(t.reshape(du, -1), compute_uv=False)
    return _spectrum_entropy(s ** 2)


def default_cut_family(graph: ConnectivityGraph, rng) -> tuple:
    """Singletons, vertex-order prefixes, and five random proper subsets."""
    verts = graph.vertices
    m = len(verts)
    family = [(v,) for v in verts]
    family.extend(tuple(verts[: j + 1]) for j in range(m - 1))
    for _ in range(5):
        size = int(rng.integers(1, m))
        picks = rng.choice(m, size=size, replace=False)
        family.append(tuple(verts[i] for i in sorted(picks)))
    seen = set()
    out = []
    for cut in family:
        key = frozenset(cut)
        if key not in seen and 0 < len(key) < m:
            seen.add(key)
            out.append(cut)
    return tuple(out)


def random_unitary_layer(graph: ConnectivityGraph, rng) -> Layer:
    """Random maximal set of disjoint edges, each with a Haar 4x4 gate."""
    edges = list(graph.edges)
    rng.shuffle(edges)
    used: set = set()
    gates = []
    for u, v in edges:
        if u in used or v in used:
            continue
        used.update((u, v))
        gates.append(Unitary((u, v), random_unitary(rng, 4)))
    return Layer(gates)


def verify_sie(
    seed: int = DEFAULT_SEED,
    qubits: int = 8,
    layers: int = 100,
    circuit: Circuit | None = None,
) -> VerificationReport:
    """Per layer and cut U: entropy increment <= 3 |dU| + 1e-9.

    Pure global states throughout (unitary layers only), where the REE
    across any cut equals the entanglement entropy.
    """
    rng = rng_from(seed)
    if circuit is None:
        if not 2 <= qubits <= 8:
            raise ValueError("verify_sie needs 2..8 qubits")
        if layers < 1:
            raise ValueError("layers must be >= 1")
        shape = (2, qubits // 2) if qubits % 2 == 0 and qubits > 2 else (qubits,)
        graph, _ = grid_graph(shape)
        circuit = Circuit(graph, [random_unitary_layer(graph, rng) for _ in range(layers)])
    graph = circuit.graph
    if graph.m < 2:
        raise ValueError(
            f"verify_sie needs at least 2 qubits (a proper cut); circuit has {graph.m}"
        )
    if graph.m > MAX_QUBITS:
        raise ValueError(
            f"verify_sie limited to {MAX_QUBITS} qubits (dense state vector); "
            f"circuit has {graph.m}"
        )
    if any(not isinstance(g, Unitary) for layer in circuit.layers for g in layer.gates):
        raise ValueError("verify_sie requires unitary-only layers")
    cuts = default_cut_family(graph, rng)
    bounds3 = {cut: 3 * len(boundary(graph, cut)) for cut in cuts}
    positions = {cut: [graph.index[v] for v in cut] for cut in cuts}

    dims = (2,) * graph.m
    vec = np.ones(1, dtype=complex)
    for _ in range(graph.m):  # random product start: entangling is the layers' job
        amp = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        vec = np.kron(vec, amp / np.linalg.norm(amp))

    checker = _Checker(SLACK_EXACT)
    entropies = {cut: _cut_entropy(vec, dims, positions[cut]) for cut in cuts}
    for layer in circuit.layers:
        for gate in layer.gates:
            vec = apply_operator(vec, dims, [graph.index[q] for q in gate.qubits], gate.matrix)
        for cut in cuts:
            after = _cut_entropy(vec, dims, positions[cut])
            checker.check(after - entropies[cut], bounds3[cut])
            entropies[cut] = after
    return checker.report(
        "small-incremental-entangling",
        {"qubits": graph.m, "layers": circuit.depth, "cuts": len(cuts)},
        seed if isinstance(seed, int) else -1,
    )


# ---------------------------------------------------------------------------
# Code-structure lemmas


def verify_structure_code(code: StabilizerCode, blocks: Iterable) -> VerificationReport:
    """sum_i ree_lower(Lambda_i : complement) >= k on the encoded maximally
    mixed state, for any partition of the qubit indices into correctable
    blocks (the structure lemma's hypothesis).

    Each term is the certified lower bound max(I(A>B), I(B>A), 0), whose
    entropies are exact GF(2) ranks (code_entropy); no dense state is built.
    """
    blocks = [tuple(int(q) for q in block) for block in blocks]
    if sorted(q for block in blocks for q in block) != list(range(code.n)):
        raise ValueError("blocks must partition the code qubits")
    for block in blocks:
        if not correctable_region(code, block):
            labels = tuple(f"q{q}" for q in block)
            raise ValueError(f"partition block {labels} is not correctable")
    total = 0.0
    per_block = []
    for block in blocks:
        rest = sorted(set(range(code.n)) - set(block))
        val = float(max(code_entropy(code, rest) - code.k,
                        code_entropy(code, block) - code.k, 0))
        per_block.append(val)
        total += val
    checker = _Checker(SLACK_ENTROPY)
    checker.check(code.k, total)  # k <= sum within slack
    report = checker.report(
        "structure-code",
        {
            "n": code.n,
            "k": code.k,
            "blocks": [[f"q{q}" for q in b] for b in blocks],
            "ree_lower_sum": total,
            "per_block": per_block,
        },
        -1,
    )
    return report


def random_code_state(code: StabilizerCode, rng, mixed: bool) -> DensityMatrix:
    iso = encoding_isometry(code)
    k_dim = 2 ** code.k
    if mixed:
        w = random_density(rng, RegisterLayout.of(("logical", k_dim))).matrix
    else:
        v = rng.standard_normal(k_dim) + 1j * rng.standard_normal(k_dim)
        v /= np.linalg.norm(v)
        w = np.outer(v, v.conj())
    mat = iso @ w @ iso.conj().T
    return DensityMatrix(code.state_layout(), mat, validate=False)


def verify_corr_max_entangled(
    code: StabilizerCode, n_states: int = 20, seed: int = DEFAULT_SEED
) -> VerificationReport:
    """I(Lambda > complement) = S(Lambda) for every region smaller than the
    distance, over random code states (half pure, half mixed)."""
    if code.n > 8:
        raise ValueError("limited to n <= 8")
    if n_states < 1:
        raise ValueError("n_states must be >= 1")
    rng = rng_from(seed)
    d = min_distance(code).at_least
    regions = []
    for size in range(1, d):
        regions.extend(combinations(range(code.n), size))
    checker = _Checker(SLACK_ENTROPY)
    for i in range(n_states):
        rho = random_code_state(code, rng, mixed=(i % 2 == 1))
        for region in regions:
            labels = [f"q{q}" for q in region]
            checker.check(abs(coherent_info(rho, labels) - vn_entropy(rho, labels)), 0.0)
    return checker.report(
        "corr-is-max-entangled",
        {"n": code.n, "k": code.k, "distance": d, "states": n_states,
         "regions": len(regions)},
        seed,
    )


# ---------------------------------------------------------------------------
# Depth bound


@dataclass
class DepthBoundScenario:
    """A small module, an erasure region, and a pure target.

    ``target`` is a PureState on the data qubits (the reference register is
    trivial), so its cut REE values are exact entanglement entropies; with
    ``target=None`` the module's encoded target is used and only degenerate
    cuts (Lambda empty or all of A') are allowed.
    """

    name: str
    module: EcModule
    gamma: tuple
    input_state: PureState | None = None
    target: PureState | None = None


def verify_depth_bound(
    scenarios: Sequence[DepthBoundScenario] | None = None,
) -> VerificationReport:
    """3 Delta |dGamma| >= E_R(Lambda:complement)_xi - penalty(delta), with
    delta measured from the noisy simulation.

    Also checks the erased-branch fidelity step of the proof:
    F(rho^(L o N_Gamma), xi) >= 1 - delta / p^|Gamma|.
    """
    if scenarios is None:
        scenarios = default_depth_bound_scenarios()
    checker = _Checker(SLACK_SIM)
    details = []
    for sc in scenarios:
        module = sc.module
        gamma = tuple(str(g) for g in sc.gamma)
        data = module.data_qubits
        lam = tuple(q for q in gamma if q in set(data))
        degenerate = not lam or set(lam) == set(data)
        if not degenerate and sc.target is None:
            raise ValueError(f"scenario {sc.name}: nontrivial cuts need a pure target on A'")

        delta = 1.0 - module_fidelity(module, sc.input_state, sc.target)
        e_r = 0.0 if degenerate else vn_entropy(sc.target, lam)
        lhs = 3.0 * module.depth * len(boundary(module.graph, gamma))
        rhs = depth_bound_rhs(e_r, delta, module.p, len(gamma), len(lam))
        checker.check(rhs, lhs)

        # proof step: the fully erased branch stays close to the target
        eps = delta / module.p ** len(gamma) if module.p > 0 else np.inf
        if np.isfinite(eps):
            fid_er = module_fidelity(module, sc.input_state, sc.target,
                                     erased=(gamma, len(module.rounds) - 1))
            checker.check(1.0 - eps, fid_er + SLACK_EXACT)
        details.append(
            {"scenario": sc.name, "delta": delta, "ree_target": e_r,
             "lhs": lhs, "rhs": rhs}
        )
    return checker.report(
        "depth-bound", {"scenarios": details}, -1
    )


# ---------------------------------------------------------------------------
# Appendix lemmas


def verify_appendix(seed: int = DEFAULT_SEED, trials: int = 1000) -> VerificationReport:
    """(a) convex decompositions stay close to pure states,
    (b) approximately recoverable states have small conditional mutual
    information, (c) the coherent-information lower bound never exceeds
    the separable-ensemble upper bound."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = rng_from(seed)
    checker = _Checker(SLACK_EXACT)

    lay4 = RegisterLayout.of(("s", 4))
    for _ in range(trials):
        xi = random_pure(rng, lay4)
        xi_dm = xi.to_density()
        rho1 = random_density(rng, lay4)
        rho2 = random_density(rng, lay4)
        lam = float(rng.uniform(0.05, 1.0))
        mix = DensityMatrix(
            lay4, lam * rho1.matrix + (1 - lam) * rho2.matrix, validate=False
        )
        eps = 1.0 - fidelity(xi_dm, mix)
        f1 = fidelity(xi_dm, rho1)
        checker.check(1.0 - eps / lam, f1 + SLACK_EXACT)
    conv_trials = checker.trials

    lay3 = RegisterLayout.qubits("a", "b", "c")
    lay_ab = RegisterLayout.qubits("a", "b")
    for t in range(trials):
        if t % 3 == 0:
            # exact Markov case: rho = rho_ab (x) tau_c with the matching
            # reconstruction R(X) = X (x) tau_c, so eps = 0 and CMI = 0
            rho_ab = random_density(rng, lay_ab)
            tau_c = random_density(rng, RegisterLayout.qubits("c")).matrix
            rho = DensityMatrix(lay3, np.kron(rho_ab.matrix, tau_c), validate=False)
            kraus = _fixed_state_kraus(tau_c)
        else:
            rho = random_density(rng, lay3, rank=int(rng.integers(1, 5)))
            rho_ab = rho.reduced(["a", "b"])
            kraus = random_kraus_channel(rng, dim_in=2, dim_out=4, n_kraus=2)  # B -> BC
        sig = np.zeros((8, 8), dtype=complex)
        for k in kraus:
            full = np.kron(np.eye(2, dtype=complex), k)
            sig += full @ rho_ab.matrix @ full.conj().T
        sigma = DensityMatrix(lay3, (sig + sig.conj().T) / 2, validate=False)
        eps = max(1.0 - fidelity(rho, sigma), 0.0)
        cmi = cond_mutual_info(rho, ["a"], ["c"], ["b"])
        checker.check(cmi, 2.0 * np.sqrt(eps) * 1 + g_slack(np.sqrt(eps)))
    markov_trials = checker.trials - conv_trials

    lay2 = RegisterLayout.qubits("a", "b")
    for _ in range(trials):
        rho = random_density(rng, lay2, rank=int(rng.integers(1, 5)))
        low = ree_lower(rho, ["a"])
        up, _ = ree_upper(rho, ["a"], restarts=1, iterations=80, seed=rng.integers(2 ** 31))
        checker.check(low, up + SLACK_EXACT)
    return checker.report(
        "appendix-lemmas",
        {"convex_trials": conv_trials, "markov_trials": markov_trials,
         "sandwich_trials": trials},
        seed,
    )


def _fixed_state_kraus(state: np.ndarray):
    """Kraus operators of the channel X_B -> X_B (x) state_C (B, C qubits)."""
    evals, vecs = np.linalg.eigh(state)
    out = []
    for i, ev in enumerate(np.clip(evals, 0, None)):
        if ev > 1e-14:
            out.append(np.kron(np.eye(2, dtype=complex), np.sqrt(ev) * vecs[:, i:i + 1]))
    return out


# ---------------------------------------------------------------------------
# Overhead consistency and the module corpus


def trivial_module(p: float) -> EcModule:
    graph = ConnectivityGraph(["0"], [])
    return EcModule(
        graph, rounds=[Circuit(graph, [])], data_qubits=("0",),
        encoder=np.eye(2, dtype=complex), p=p, name="trivial-1q",
    )


def identity_code_module(code: StabilizerCode, p: float, name: str) -> EcModule:
    shape = (2, code.n // 2) if code.n % 2 == 0 else (code.n,)
    graph, _ = grid_graph(shape)
    data = tuple(str(i) for i in range(code.n))
    return EcModule(
        graph, rounds=[Circuit(graph, [])], data_qubits=data,
        encoder=encoding_isometry(code), p=p, name=name,
    )


_CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


def repetition_module(p: float, rounds: int = 2) -> EcModule:
    """Three-qubit repetition code with measured syndromes, classically
    controlled corrections, and ancilla resets; five qubits on a line."""
    verts = ["d0", "a0", "d1", "a1", "d2"]
    edges = [("d0", "a0"), ("a0", "d1"), ("d1", "a1"), ("a1", "d2")]
    graph = ConnectivityGraph(verts, edges)

    round_circuits = []
    for j in range(rounds):
        k0, k1 = f"r{j}s0", f"r{j}s1"
        layers = [
            Layer([Unitary(("d0", "a0"), _CNOT), Unitary(("d2", "a1"), _CNOT)]),
            Layer([Unitary(("d1", "a0"), _CNOT)]),
            Layer([Unitary(("d1", "a1"), _CNOT)]),
            Layer([measure_gate("a0", k0), measure_gate("a1", k1)]),
            Layer([
                Conditional(("d0",), (k0, k1), {(1, 0): _X}),
                Conditional(("d1",), (k0, k1), {(1, 1): _X}),
                Conditional(("d2",), (k0, k1), {(0, 1): _X}),
                reset_gate("a0"),
                reset_gate("a1"),
            ]),
        ]
        round_circuits.append(Circuit(graph, layers))
    return EcModule(
        graph, rounds=round_circuits, data_qubits=("d0", "d1", "d2"),
        encoder=encoding_isometry(repetition_code()), p=p,
        name=f"repetition-3q-J{rounds}",
    )


def swap_module(p: float, depth: int = 1) -> EcModule:
    """Two qubits on an edge, swapped back and forth; k = 0 (explicit
    inputs only), used by depth-bound scenarios."""
    graph = ConnectivityGraph(["0", "1"], [("0", "1")])
    swap = np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    )
    layers = [Layer([Unitary(("0", "1"), swap)]) for _ in range(depth)]
    enc = np.zeros((4, 1), dtype=complex)
    enc[0, 0] = 1.0
    return EcModule(
        graph, rounds=[Circuit(graph, layers)], data_qubits=("0", "1"),
        encoder=enc, p=p, name=f"swap-2q-depth{depth}",
    )


def isolated_pair_module(p: float) -> EcModule:
    graph = ConnectivityGraph(["0", "1"], [])
    enc = np.zeros((4, 1), dtype=complex)
    enc[0, 0] = 1.0
    return EcModule(
        graph, rounds=[Circuit(graph, [])], data_qubits=("0", "1"),
        encoder=enc, p=p, name="isolated-pair",
    )


def default_depth_bound_scenarios() -> list:
    bell = max_entangled_state(1, "0", "1")
    return [
        DepthBoundScenario("trivial-gamma-all", trivial_module(0.5), gamma=("0",)),
        DepthBoundScenario(
            "swap-bell", swap_module(0.25), gamma=("0",),
            input_state=bell, target=bell,
        ),
        DepthBoundScenario(
            "isolated-bell-contrapositive", isolated_pair_module(0.25), gamma=("0",),
            input_state=bell, target=bell,
        ),
    ]


def default_module_corpus() -> list:
    return [
        trivial_module(0.5),
        trivial_module(0.25),
        trivial_module(0.1),
        identity_code_module(four_two_two_code(), 0.1, "four-two-two-idle"),
        repetition_module(0.1, rounds=2),
        swap_module(0.25),
    ]


def verify_overhead_consistency(
    modules: Sequence[EcModule] | None = None,
    dim: int = 2,
    c1: float = 1.0,
    c2: float = 1.0,
) -> VerificationReport:
    """Measured (m, k, Delta, p, delta) always satisfies m/k >= floor; a
    violation would indicate an implementation bug, not new physics."""
    if modules is None:
        modules = default_module_corpus()
    checker = _Checker(SLACK_EXACT)
    details = []
    for module in modules:
        if module.k < 1:
            continue
        delta = logical_error_rate(module)
        if not 0.0 < delta < 1.0:
            details.append({"module": module.name, "delta": delta, "floor": 0.0})
            checker.check(0.0, module.m / module.k)
            continue
        inputs = BoundInputs(
            m=module.m, k=module.k, depth=float(module.depth), p=module.p,
            delta=delta, dim=dim, c1=c1, c2=c2,
        )
        report = overhead_floor(inputs)
        checker.check(report.value, module.m / module.k)
        details.append(
            {"module": module.name, "m": module.m, "k": module.k,
             "depth": module.depth, "p": module.p, "delta": delta,
             "floor": report.value, "ratio": module.m / module.k}
        )
    return checker.report(
        "main-overhead-consistency",
        {"dim": dim, "c1": c1, "c2": c2, "modules": details},
        -1,
    )
