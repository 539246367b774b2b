"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run as ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines inline.
"""

import math
import time
from itertools import combinations

import numpy as np

from locbound.bounds import BoundInputs, encoding_depth_floor, overhead_floor
from locbound.circuit import grid_graph, logical_error_rate
from locbound.entropy import cond_mutual_info, relative_entropy, vn_entropy
from locbound.partition import check_guarantees, grid_partition
from locbound.qstate import (
    RegisterLayout,
    fidelity,
    max_entangled_state,
    partial_trace,
    trace_distance,
)
from locbound.rand import random_density, random_pure
from locbound.separability import ree_bracket
from locbound.stabilizer import (
    correctable_region,
    five_qubit_code,
    four_two_two_code,
    min_distance,
    repetition_code,
)
from locbound.verify import (
    random_code_state,
    verify_appendix,
    verify_overhead_consistency,
    verify_sie,
    verify_structure_code,
)

SEED = 0xC0DE


def _report(number: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {number}: {name}{suffix}")
    assert ok, f"criterion {number} failed: {name} {suffix}"


def test_criterion_1_entropy_identities():
    start = time.monotonic()
    rng = np.random.default_rng(SEED)
    lay_ab = [
        RegisterLayout.of(("a", 2), ("b", 2)),
        RegisterLayout.of(("a", 2), ("b", 4)),
        RegisterLayout.of(("a", 4), ("b", 4)),
        RegisterLayout.of(("a", 2), ("b", 8)),
    ]
    lay_abc = [
        RegisterLayout.qubits("a", "b", "c"),
        RegisterLayout.of(("a", 2), ("b", 2), ("c", 4)),
        RegisterLayout.of(("a", 4), ("b", 2), ("c", 2)),
    ]
    worst_tie = 0.0
    worst_ssa = 0.0
    worst_fvdg = 0.0
    trials = 1000
    for i in range(trials):
        lay = lay_ab[i % len(lay_ab)]
        rho = random_density(rng, lay, rank=int(rng.integers(1, lay.dim + 1)))
        da = lay.dims[0]
        rho_b = partial_trace(rho, ["a"]).matrix
        tie = abs(
            relative_entropy(rho, np.kron(np.eye(da), rho_b))
            + (vn_entropy(rho) - vn_entropy(rho, ["b"]))
        )
        worst_tie = max(worst_tie, tie)

        lay3 = lay_abc[i % len(lay_abc)]
        rho3 = random_density(rng, lay3, rank=int(rng.integers(1, lay3.dim + 1)))
        worst_ssa = max(worst_ssa, -cond_mutual_info(rho3, ["a"], ["b"], ["c"]))

        sig = (random_pure(rng, lay).to_density() if i % 3 == 0
               else random_density(rng, lay))
        f = fidelity(rho, sig)
        t = trace_distance(rho, sig)
        worst_fvdg = max(worst_fvdg, 2 * (1 - math.sqrt(f)) - t)
        worst_fvdg = max(worst_fvdg, t - 2 * math.sqrt(max(1 - f, 0.0)))
        if i % 3 == 0:
            worst_fvdg = max(worst_fvdg, 2 * (1 - f) - t)
    elapsed = time.monotonic() - start
    ok = worst_tie <= 1e-9 and worst_ssa <= 1e-9 and worst_fvdg <= 1e-9 and elapsed < 60
    _report(1, "entropy identities on 1000 random states", ok,
            f"tie {worst_tie:.1e}, ssa {worst_ssa:.1e}, fvdg {worst_fvdg:.1e}, {elapsed:.1f}s")


def test_criterion_2_corr_is_max_entangled():
    start = time.monotonic()
    code = five_qubit_code()
    rng = np.random.default_rng(SEED)
    regions = list(combinations(range(5), 2))
    assert len(regions) == 10
    worst_eq = 0.0
    worst_s = 0.0
    for i in range(20):
        rho = random_code_state(code, rng, mixed=(i % 2 == 1))
        for region in regions:
            labels = [f"q{q}" for q in region]
            rest = rho.layout.complement(labels)
            coh = vn_entropy(rho, rest) - vn_entropy(rho)
            s_lam = vn_entropy(rho, labels)
            worst_eq = max(worst_eq, abs(coh - s_lam))
            worst_s = max(worst_s, abs(s_lam - 2.0))
    elapsed = time.monotonic() - start
    ok = worst_eq <= 1e-8 and worst_s <= 1e-8 and elapsed < 120
    _report(2, "correctable regions are maximally entangled (five-qubit code)", ok,
            f"|I-S| {worst_eq:.1e}, |S-2| {worst_s:.1e}, {elapsed:.1f}s")


def test_criterion_3_structure_code():
    five = five_qubit_code()
    r1 = verify_structure_code(five, [[0, 1], [2, 3], [4]])
    r2 = verify_structure_code(five, [[0], [1], [2], [3], [4]])
    r3 = verify_structure_code(four_two_two_code(), [[0], [1], [2], [3]])
    ok = (
        r1.passed and abs(r1.parameters["ree_lower_sum"] - 5.0) <= 1e-8
        and r2.passed and abs(r2.parameters["ree_lower_sum"] - 5.0) <= 1e-8
        and r3.passed and abs(r3.parameters["ree_lower_sum"] - 4.0) <= 1e-8
    )
    _report(3, "code-structure entanglement sums reach k", ok,
            f"sums {r1.parameters['ree_lower_sum']:.9f}, "
            f"{r2.parameters['ree_lower_sum']:.9f}, "
            f"{r3.parameters['ree_lower_sum']:.9f}")


def test_criterion_4_small_incremental_entangling():
    start = time.monotonic()
    report = verify_sie(seed=SEED, qubits=8, layers=100)
    elapsed = time.monotonic() - start
    ok = report.passed and report.violations == 0 and elapsed < 300
    _report(4, "small incremental entangling on a 2x4 grid", ok,
            f"{report.trials} checks, worst margin {report.worst_margin:.2e}, {elapsed:.1f}s")


def test_criterion_5_appendix_lemmas():
    report = verify_appendix(seed=SEED, trials=1000)
    ok = report.passed and report.violations == 0
    _report(5, "appendix inequalities over 1000 trials each", ok,
            f"trials {report.trials}, worst margin {report.worst_margin:.2e}")


def test_criterion_6_ree_estimator():
    start = time.monotonic()
    bell = max_entangled_state(1, "a", "b").to_density()
    br = ree_bracket(bell, ["a"], seed=SEED)
    bell_ok = abs(br.lower - 1.0) <= 1e-9 and br.upper <= 1.001

    rng = np.random.default_rng(SEED)
    lay = RegisterLayout.qubits("a", "b")
    worst_gap = 0.0
    for _ in range(100):
        rho = random_pure(rng, lay).to_density()
        b = ree_bracket(rho, ["a"], seed=SEED)
        worst_gap = max(worst_gap, b.upper - b.lower)
    elapsed = time.monotonic() - start
    ok = bell_ok and worst_gap <= 1e-3 and elapsed < 300
    _report(6, "REE bracket: Bell pinned, pure-state gap closed", ok,
            f"bell ({br.lower:.6f}, {br.upper:.6f}), worst gap {worst_gap:.1e}, {elapsed:.1f}s")


def test_criterion_7_distance_and_correctability():
    five = five_qubit_code()
    fourx = four_two_two_code()
    rep = repetition_code()
    ok = (
        min_distance(five).distance == 3
        and min_distance(fourx).distance == 2
        and min_distance(rep).distance == 1
    )
    detail = []
    for code in (five, fourx, rep):
        d = min_distance(code).distance
        below = all(
            correctable_region(code, region)
            for size in range(1, d)
            for region in combinations(range(code.n), size)
        )
        at_d = any(
            not correctable_region(code, region)
            for region in combinations(range(code.n), d)
        )
        ok = ok and below and at_d
        detail.append(f"n={code.n}: d={d}")
    _report(7, "distances exact and Knill-Laflamme agrees", ok, ", ".join(detail))


def test_criterion_8_bound_calculators():
    report = overhead_floor(
        BoundInputs(m=100, k=10, depth=1.0, p=0.25, delta=0.25 ** 4, dim=2)
    )
    overhead_ok = abs(report.value - 0.0357143) <= 1e-7
    encoding = encoding_depth_floor(1, [10.0])
    encoding_ok = abs(encoding - 0.0333333) <= 1e-7
    from locbound.verify import trivial_module

    delta_ok = True
    deltas = []
    for p in (0.1, 0.25, 0.5):
        delta = logical_error_rate(trivial_module(p))
        deltas.append(delta)
        delta_ok = delta_ok and abs(delta - 0.75 * p) <= 1e-10
    ok = overhead_ok and encoding_ok and delta_ok
    _report(8, "bound calculators regression-pinned", ok,
            f"overhead {report.value:.7f}, encoding {encoding:.7f}, "
            f"deltas {['%.10f' % d for d in deltas]}")


def test_criterion_9_partition_guarantees():
    start = time.monotonic()
    shapes = [(100000,), (316, 316), (46, 46, 46)]
    all_ok = True
    for shape in shapes:
        graph, emb = grid_graph(shape)
        lam = 1
        while lam <= graph.m:
            part = grid_partition(emb, graph, lam)
            guarantee = check_guarantees(part, emb, lam, dense=True)
            if not guarantee.ok:
                all_ok = False
            lam *= 2
    elapsed = time.monotonic() - start
    ok = all_ok and elapsed < 60
    _report(9, "partition guarantees on full grids D=1,2,3 (1e5 points)", ok,
            f"{elapsed:.1f}s")


def test_criterion_10_overhead_consistency():
    report = verify_overhead_consistency()
    slack_ok = all(
        entry["ratio"] >= entry["floor"] - 1e-9
        for entry in report.parameters["modules"]
        if "ratio" in entry
    )
    ok = report.passed and slack_ok
    worst = min(
        (entry["ratio"] - entry["floor"]
         for entry in report.parameters["modules"] if "ratio" in entry),
        default=float("inf"),
    )
    _report(10, "overhead floor consistent with every simulated module", ok,
            f"{len(report.parameters['modules'])} modules, min slack {worst:.3f}")
