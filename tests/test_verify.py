import json

import numpy as np
import pytest

from locbound.circuit import (
    Circuit,
    ConnectivityGraph,
    InvariantError,
    Layer,
    measure_gate,
    validate_layer,
)
from locbound.stabilizer import (
    five_qubit_code,
    four_two_two_code,
    repetition_code,
    validate_code,
)
from locbound.verify import (
    SLACK_EXACT,
    DepthBoundScenario,
    _Checker,
    default_module_corpus,
    default_depth_bound_scenarios,
    isolated_pair_module,
    repetition_module,
    swap_module,
    trivial_module,
    verify_appendix,
    verify_corr_max_entangled,
    verify_depth_bound,
    verify_overhead_consistency,
    verify_sie,
    verify_structure_code,
)


def test_verify_sie_passes():
    report = verify_sie(seed=7, qubits=6, layers=30)
    assert report.passed
    assert report.violations == 0
    assert report.trials > 0


def test_verify_sie_deterministic():
    a = verify_sie(seed=21, qubits=4, layers=10).to_json()
    b = verify_sie(seed=21, qubits=4, layers=10).to_json()
    assert json.dumps(a) == json.dumps(b)


def test_verify_sie_guards():
    with pytest.raises(ValueError):
        verify_sie(qubits=10)
    g = ConnectivityGraph(["0"], [])
    circ = Circuit(g, [Layer([measure_gate("0", "s")])])
    with pytest.raises(ValueError):
        verify_sie(circuit=circ)


def test_sie_bell_creation_increment():
    # one CNOT on |+0>: the entropy across U = {0} jumps by exactly 1,
    # comfortably below the bound 3 |dU| = 6
    from locbound.verify import _cut_entropy

    h = np.array([1, 1], dtype=complex) / np.sqrt(2)
    vec = np.kron(h, np.array([1, 0], dtype=complex))
    before = _cut_entropy(vec, (2, 2), [0])
    cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
                    dtype=complex)
    after_vec = cnot @ vec
    after = _cut_entropy(after_vec, (2, 2), [0])
    g = ConnectivityGraph(["0", "1"], [("0", "1")])
    from locbound.circuit import boundary

    assert abs(before) < 1e-12
    assert abs(after - 1.0) < 1e-12
    assert after - before <= 3 * len(boundary(g, ["0"]))


def test_verify_structure_code():
    code = five_qubit_code()
    report = verify_structure_code(code, [[0, 1], [2, 3], [4]])
    assert report.passed
    assert abs(report.parameters["ree_lower_sum"] - 5.0) < 1e-8

    singles = verify_structure_code(code, [[0], [1], [2], [3], [4]])
    assert singles.passed
    assert abs(singles.parameters["ree_lower_sum"] - 5.0) < 1e-8

    report422 = verify_structure_code(four_two_two_code(), [[0], [1], [2], [3]])
    assert report422.passed
    assert abs(report422.parameters["ree_lower_sum"] - 4.0) < 1e-8

    with pytest.raises(ValueError, match=r"\('q0', 'q1', 'q2'\) is not correctable"):
        verify_structure_code(code, [[0, 1, 2], [3, 4]])
    with pytest.raises(ValueError, match="partition"):
        verify_structure_code(code, [[0, 1], [2, 3]])


SHOR = ("ZZIIIIIII", "IZZIIIIII", "IIIZZIIII", "IIIIZZIII", "IIIIIIZZI",
        "IIIIIIIZZ", "XXXXXXIII", "IIIXXXXXX")


def toric_generators(side):
    """Toric code on a side x side torus (Kitaev): qubits on edges, the
    horizontal edge (r, c) is qubit r*side + c and the vertical one
    side^2 + r*side + c; one star and one plaquette are dropped as
    dependent, so k = 2 and d = side."""
    n = 2 * side * side

    def h(r, c):
        return (r % side) * side + c % side

    def v(r, c):
        return side * side + h(r, c)

    def string(qubits, letter):
        return "".join(letter if q in qubits else "I" for q in range(n))

    cells = [(r, c) for r in range(side) for c in range(side)][:-1]
    stars = [string({h(r, c), h(r, c - 1), v(r, c), v(r - 1, c)}, "X") for r, c in cells]
    plaquettes = [string({h(r, c), h(r + 1, c), v(r, c), v(r, c + 1)}, "Z") for r, c in cells]
    return stars + plaquettes


def test_structure_code_blocks_are_tested_by_correctability():
    # the lemma needs correctable blocks, not blocks below the distance:
    # {0, 1, 3} of Shor's code (d = 3) supports no logical operator, while
    # {0, 1, 2} supports X0 X1 X2
    shor = validate_code(SHOR)
    rest = [[q] for q in range(4, 9)]
    report = verify_structure_code(shor, [[0, 1, 3], [2], *rest])
    assert report.passed
    assert "distance" not in report.parameters
    with pytest.raises(ValueError, match=r"\('q0', 'q1', 'q2'\) is not correctable"):
        verify_structure_code(shor, [[0, 1, 2], [3], *rest])


def test_structure_code_beyond_the_dense_limit():
    toric = validate_code(toric_generators(3))
    assert (toric.n, toric.k) == (18, 2)
    report = verify_structure_code(toric, [[q, q + 1] for q in range(0, 18, 2)])
    assert report.passed
    assert report.parameters["ree_lower_sum"] >= 2


def test_verify_corr_max_entangled():
    report = verify_corr_max_entangled(five_qubit_code(), n_states=6, seed=3)
    assert report.passed
    assert report.worst_margin <= 1e-8
    # d = 1 code: no regions below distance, so nothing is checked and the
    # report fails instead of passing vacuously
    vac = verify_corr_max_entangled(repetition_code(), n_states=3, seed=3)
    assert not vac.passed
    assert vac.trials == 0


def test_verify_depth_bound_default():
    report = verify_depth_bound()
    assert report.passed
    names = [d["scenario"] for d in report.parameters["scenarios"]]
    assert "isolated-bell-contrapositive" in names


def test_verify_depth_bound_rejects_ill_posed():
    # nontrivial cut with an encoded (non-pure-on-data) target
    sc = DepthBoundScenario("bad", repetition_module(0.2, rounds=1), gamma=("d0",))
    with pytest.raises(ValueError):
        verify_depth_bound([sc])


def test_verify_appendix():
    report = verify_appendix(seed=5, trials=40)
    assert report.passed
    assert report.violations == 0
    assert report.parameters["sandwich_trials"] == 40


def test_verify_overhead_consistency():
    report = verify_overhead_consistency()
    assert report.passed
    modules = report.parameters["modules"]
    names = [m["module"] for m in modules]
    assert "trivial-1q" in names
    assert "repetition-3q-J2" in names
    for entry in modules:
        if "ratio" in entry:
            assert entry["ratio"] >= entry["floor"] - 1e-9


def test_corpus_modules_validate():
    # a module that exists is valid: every layer of every round passes
    # validate_layer on the module's own graph
    modules = default_module_corpus() + [sc.module for sc in default_depth_bound_scenarios()]
    for module in modules:
        for circuit in module.rounds:
            assert (circuit.graph.vertices, circuit.graph.edges) == \
                (module.graph.vertices, module.graph.edges)
            assert all(validate_layer(module.graph, layer) == [] for layer in circuit.layers)


def test_repetition_module_corrects_bit_flips():
    # with measurement + correction the repetition module beats an
    # unprotected qubit against pure bit-flip noise; under depolarizing it
    # still produces a valid logical error rate
    from locbound.circuit import logical_error_rate

    mod = repetition_module(0.08, rounds=1)
    delta = logical_error_rate(mod)
    assert 0.0 < delta < 1.0


def test_depth_bound_target_register_order():
    # a target is matched by register label, not by position: the same
    # state with its registers listed in the other order gives the same delta
    from locbound.qstate import PureState, RegisterLayout

    state = PureState(RegisterLayout.qubits("0", "1"), [0, 1, 0, 0])  # |0>_0 |1>_1
    flipped = PureState(RegisterLayout.qubits("1", "0"), [0, 0, 1, 0])
    deltas = [
        verify_depth_bound([DepthBoundScenario(
            "pair", isolated_pair_module(0.01), gamma=("0",), input_state=state, target=t,
        )]).parameters["scenarios"][0]["delta"]
        for t in (state, flipped)
    ]
    assert deltas[0] == pytest.approx(0.009975, abs=1e-12)
    assert deltas[1] == deltas[0]


def test_swap_and_isolated_modules():
    assert swap_module(0.1).depth == 1
    assert isolated_pair_module(0.1).depth == 0
    assert trivial_module(0.1).k == 1
    assert swap_module(0.1).k == 0


def test_report_pass_iff_no_violations():
    report = verify_appendix(seed=5, trials=5)
    assert report.passed == (report.violations == 0)
    payload = report.to_json()
    assert set(payload) == {
        "lemma", "trials", "violations", "worst_margin", "parameters", "seed", "pass",
    }


def test_zero_trial_report_fails():
    # a report that checked nothing must not pass vacuously
    for report in (verify_depth_bound(scenarios=[]), verify_overhead_consistency(modules=[])):
        assert report.trials == 0
        assert not report.passed


def test_a_nan_margin_raises_and_a_finite_excess_is_a_violation():
    # NaN > slack is False, so a NaN margin would count as a passing trial;
    # it is a fault of the package instead, and counts as no trial
    checker = _Checker(SLACK_EXACT)
    for value, bound in ((np.nan, 0.0), (1.0, np.nan), (np.inf, np.inf)):
        with pytest.raises(InvariantError, match="NaN margin"):
            checker.check(value, bound)
    assert checker.trials == 0
    checker.check(2 * SLACK_EXACT, 0.0)
    checker.check(SLACK_EXACT / 2, 0.0)
    report = checker.report("margins", {}, 0)
    assert (report.trials, report.violations, report.passed) == (2, 1, False)
    assert report.worst_margin == 2 * SLACK_EXACT
