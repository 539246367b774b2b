"""The benchmark workloads: seeded inputs, tasks and their correctness checks.

A workload is built once per process (its set-up) and then yields cycles
of tasks. Cycle `i` of seed `s` is made from `numpy.random.default_rng([s, i])`
alone, so the same seed gives the same inputs in every run and in both
passes of a traced run. Every cycle has the same mix of task classes, so
throughput does not depend on where a run happens to stop. A workload's
`min_cycles` is the least number of cycles an untraced run makes, and the
exact number a traced run makes.

A task's `run` is the user's job (timed); its `check` compares the result
with references pinned in `references.json` or with an independent closed
form, and returns None or the reason the task failed.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

import locbound as lb
from locbound import verify as ver

P_CATALOGUE = (0.01, 0.02, 0.05, 0.1, 0.2)
DELTA_TOL = 1e-9
CROSS_CHECK_STREAM = 2 ** 31  # rng stream of the cross-check inputs; cycles use 0, 1, ...


@dataclass
class Task:
    kind: str  # task class, also the span tag in the traced run
    key: str  # deterministic description of the inputs
    run: Callable[..., object]  # timed as run(*args)
    args: tuple
    check: Callable[[object], "str | None"]


def _fingerprint(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:12]


def _haar_unitary(rng, dim: int) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def _random_density(rng, dim: int, rank: int) -> np.ndarray:
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    m = g @ g.conj().T
    return m / np.trace(m).real


def _near(value, ref, tol) -> bool:
    return ref is not None and abs(value - ref) <= tol


def module_delta(module: lb.EcModule) -> float:
    """The benchmark's logical error rate: simulate, reduce to R + data, and
    take 1 - F against the encoded target."""
    final = lb.simulate_module(module)
    data = set(module.data_qubits)
    keep = ("R",) + tuple(v for v in module.graph.vertices if v in data)
    rho = final.average_state().reduced(keep).permuted(("R",) + module.data_qubits)
    return 1.0 - lb.fidelity(rho, module.target_state().to_density())


# ---------------------------------------------------------------------------
# module-dense


def five_qubit_mirror_delta(p: float) -> float:
    """Closed-form delta of the mirror module: the circuit is the identity,
    so only the depolarizing noise on the five data qubits acts. With R,
    a Pauli error keeps fidelity 1 iff it lies in the 16-element stabilizer
    group (identity plus 15 weight-4 elements), otherwise 0."""
    keep = 1.0 - 0.75 * p
    return 1.0 - (keep ** 5 + 15 * keep * (p / 4) ** 4)


def _perfect_matchings(rows: int, cols: int) -> list:
    """Vertical rungs, and two staggered horizontal pairings with one rung,
    on a 2 x cols grid with vertices labelled row-major."""
    def v(r, c):
        return str(r * cols + c)

    rungs = [(v(0, c), v(1, c)) for c in range(cols)]
    out = [rungs]
    if rows == 2 and cols % 2 == 1:
        for start in (0, 1):
            pairs = [(v(r, c), v(r, c + 1)) for r in (0, 1)
                     for c in range(start, cols - 1, 2)]
            spare = cols - 1 if start == 0 else 0
            out.append(pairs + [rungs[spare]])
    return out


def mirror_module(shape, rng, p: float, encoder) -> lb.EcModule:
    """One noisy round on a 2 x c grid: five-qubit code on the first five
    vertices, the rest ancillas in |0>, then a random perfect matching of
    Haar two-qubit gates followed by its inverse."""
    graph, _ = lb.grid_graph(shape)
    matchings = _perfect_matchings(*shape)
    pairs = matchings[int(rng.integers(len(matchings)))]
    gates = [lb.Unitary(pair, _haar_unitary(rng, 4)) for pair in pairs]
    undo = [lb.Unitary(g.qubits, g.matrix.conj().T) for g in gates]
    circuit = lb.Circuit(graph, [lb.Layer(gates), lb.Layer(undo)])
    data = tuple(graph.vertices[:5])
    return lb.EcModule(graph, rounds=[circuit], data_qubits=data,
                       encoder=encoder, p=p, name="five-qubit-mirror")


class ModuleDense:
    """Exact simulation at 11 total qubits: R (k = 1) plus a 2 x 5 grid.
    Each branch is one 2048 x 2048 complex matrix (64 MiB)."""

    name = "module-dense"
    shape = (2, 5)
    min_cycles = 1

    def __init__(self, seed: int, refs: dict):
        self.seed = seed
        self.refs = refs.get(self.name, {})
        self.encoder = lb.encoding_isometry(lb.five_qubit_code())

    def cycle(self, i: int) -> list:
        rng = np.random.default_rng([self.seed, i])
        p = float(rng.choice(P_CATALOGUE))
        module = mirror_module(self.shape, rng, p, self.encoder)
        gates = [g.matrix for layer in module.rounds[0].layers for g in layer.gates]
        ref = self.refs.get(f"p={p}")

        def check(delta):
            if not _near(delta, ref, DELTA_TOL):
                return f"delta {delta!r} != pinned {ref!r}"
            if not _near(delta, five_qubit_mirror_delta(p), DELTA_TOL):
                return f"delta {delta!r} != closed form"
            return None

        key = f"mirror p={p} gates={_fingerprint(*gates)}"
        return [Task("dense", key, module_delta, (module,), check)]

    def cross_check(self) -> list:
        """module_delta, logical_error_rate and the overhead verifier
        agree on a 2 x 3 instance of the same construction."""
        problems = []
        rng = np.random.default_rng([self.seed, CROSS_CHECK_STREAM])
        p = float(rng.choice(P_CATALOGUE))
        small = mirror_module((2, 3), rng, p, self.encoder)
        ours = module_delta(small)
        theirs = lb.logical_error_rate(small)
        if not _near(ours, theirs, DELTA_TOL) or not _near(ours, five_qubit_mirror_delta(p), DELTA_TOL):
            problems.append(f"mirror delta: module_delta {ours!r}, library {theirs!r}")
        problems += _overhead_cross_check(small, ours)
        return problems

def _overhead_cross_check(module, delta) -> list:
    report = lb.verify_overhead_consistency([module])
    rows = report.parameters["modules"]
    if not report.passed or not rows or not _near(rows[0]["delta"], delta, DELTA_TOL):
        return [f"verify_overhead_consistency disagrees on {module.name}: {rows}"]
    return []


# ---------------------------------------------------------------------------
# module-branching


class ModuleBranching:
    """Repetition-code modules with measurements, conditionals and resets,
    J = 3, 4, 5 rounds (64, 256, 1024 branches of 64 x 64)."""

    name = "module-branching"
    rounds = (3, 4, 5)
    min_cycles = 1

    def __init__(self, seed: int, refs: dict):
        self.seed = seed
        self.refs = refs.get(self.name, {})

    def cycle(self, i: int) -> list:
        rng = np.random.default_rng([self.seed, i])
        tasks = []
        for j in rng.permutation(self.rounds):
            p = float(rng.choice(P_CATALOGUE))
            module = ver.repetition_module(p, rounds=int(j))
            ref = self.refs.get(f"J={j} p={p}")

            def check(delta, ref=ref):
                return None if _near(delta, ref, DELTA_TOL) else f"delta {delta!r} != pinned {ref!r}"

            tasks.append(Task(f"J{j}", f"repetition J={j} p={p}", module_delta, (module,), check))
        return tasks

    def cross_check(self) -> list:
        rng = np.random.default_rng([self.seed, CROSS_CHECK_STREAM])
        module = ver.repetition_module(float(rng.choice(P_CATALOGUE)), rounds=3)
        ours = module_delta(module)
        theirs = lb.logical_error_rate(module)
        problems = [] if _near(ours, theirs, DELTA_TOL) else [
            f"repetition delta: module_delta {ours!r}, library {theirs!r}"]
        return problems + _overhead_cross_check(module, ours)

# ---------------------------------------------------------------------------
# ree-search

MIXED_BUDGET = {"restarts": 3, "iterations": 200}
PURE_GAP_MAX = 1e-3
GAP_CYCLES = 8  # ree_gap_mean_bits is taken over the mixed states of these


def _schmidt_entropy(vec: np.ndarray, da: int, db: int) -> float:
    s = np.linalg.svd(vec.reshape(da, db), compute_uv=False) ** 2
    s = s[s > 1e-300]
    return float(-(s * np.log2(s)).sum())


class ReeSearch:
    """REE brackets per cycle: one pure 2x2 state at the default budget,
    mixed 2x2 states of rank 2, 2, 3 and 4 and one mixed 2x4 state of rank
    2..8, the mixed ones at 3 restarts x 200 iterations.

    Pure states and mixed states that turn out separable stop after one
    restart; the mix keeps such fast tasks well below half of a cycle, so
    the median task is a full-budget mixed search on every seed."""

    name = "ree-search"
    min_cycles = GAP_CYCLES

    def __init__(self, seed: int, refs: dict):
        self.seed = seed
        self.layouts = {db: lb.RegisterLayout.of(("A", 2), ("B", db)) for db in (2, 4)}

    def cycle(self, i: int) -> list:
        rng = np.random.default_rng([self.seed, i])
        vec = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        vec /= np.linalg.norm(vec)
        exact = _schmidt_entropy(vec, 2, 2)

        def check_pure(b):
            if abs(b.lower - exact) > 1e-9:
                return f"pure lower {b.lower!r} != entropy {exact!r}"
            if not 0.0 <= b.upper - b.lower <= PURE_GAP_MAX:
                return f"pure gap {b.upper - b.lower!r} outside [0, {PURE_GAP_MAX}]"
            return None

        seed = int(rng.integers(2 ** 31))
        rho = lb.PureState(self.layouts[2], vec).to_density()
        tasks = [Task("pure", f"pure state={_fingerprint(vec)} seed={seed}",
                      bracket, (rho, seed, {}), check_pure)]
        for db, rank in ((2, 2), (2, 2), (2, 3), (2, 4), (4, int(rng.integers(2, 9)))):
            rho = lb.DensityMatrix(self.layouts[db], _random_density(rng, 2 * db, rank))
            seed = int(rng.integers(2 ** 31))
            tasks.append(Task(
                "mixed", f"mixed 2x{db} rank={rank} state={_fingerprint(rho.matrix)} seed={seed}",
                bracket, (rho, seed, MIXED_BUDGET), _check_mixed,
            ))
        return tasks

    def cross_check(self) -> list:
        """ree_lower and ree_upper, called on their own, reproduce the
        bracket of the first mixed state of cycle 0."""
        task = next(t for t in self.cycle(0) if t.kind == "mixed")
        rho, seed, budget = task.args
        b = task.run(*task.args)
        lower = lb.ree_lower(rho, ["A"], ["B"])
        upper, _ = lb.ree_upper(rho, ["A"], ["B"], seed=seed,
                                stop_at=lower + 5e-4, **budget)
        if lower != b.lower or upper != b.upper:
            return [f"ree_bracket ({b.lower!r}, {b.upper!r}) != ree_lower/ree_upper ({lower!r}, {upper!r})"]
        return []


def bracket(rho, seed, budget):
    return lb.ree_bracket(rho, ["A"], ["B"], seed=seed, **budget)


def _check_mixed(b):
    if not (math.isfinite(b.upper) and 0.0 <= b.lower <= b.upper + 1e-12):
        return f"bracket out of order: lower {b.lower!r}, upper {b.upper!r}"
    if b.upper > 1.0 + 1e-9:  # E_R <= log2 of the smaller side (a qubit)
        return f"upper {b.upper!r} above log2(2)"
    return None


def ree_counters(records) -> dict:
    """Search counters taken from the returned brackets (zero when a
    workload makes none). The gap is averaged over the mixed states of the
    first GAP_CYCLES cycles only, so it depends on the seed, not on timing."""
    brackets = [(task, res) for task, res, _, _, _ in records
                if isinstance(res, lb.ReeBracket)]
    budget = sum(task.args[2].get("restarts", lb.separability.DEFAULT_RESTARTS)
                 for task, _ in brackets)
    restarts = sum(res.restarts_run for _, res in brackets)
    gaps = [res.upper - res.lower for task, res, cycle, _, _ in records
            if task.kind == "mixed" and isinstance(res, lb.ReeBracket) and cycle < GAP_CYCLES]
    return {
        "separability.restarts_run": restarts,
        "separability.restart_budget": budget,
        "separability.restarts_used_frac": restarts / budget if budget else 0.0,
        "separability.iterations_run": sum(res.iterations_run for _, res in brackets),
        "separability.converged_frac": (
            sum(bool(res.converged) for _, res in brackets) / len(brackets) if brackets else 0.0),
        "separability.ree_gap_mean_bits": sum(gaps) / len(gaps) if gaps else 0.0,
    }


# ---------------------------------------------------------------------------
# code-geometry

CODES = {
    # name: (generators, grid shape of the qubit layout)
    "five-qubit": (lb.stabilizer.FIVE_QUBIT_GENERATORS, (5,)),
    "four-two-two": (lb.stabilizer.FOUR_TWO_TWO_GENERATORS, (2, 2)),
    "steane": (("IIIXXXX", "IXXIIXX", "XIXIXIX", "IIIZZZZ", "IZZIIZZ", "ZIZIZIZ"), (7,)),
    "shor": (("ZZIIIIIII", "IZZIIIIII", "IIIZZIIII", "IIIIZZIII", "IIIIIIZZI",
              "IIIIIIIZZ", "XXXXXXIII", "IIIXXXXXX"), (3, 3)),
    "surface-3": (("XXIXXIIII", "IIIIXXIXX", "IXXIIIIII", "IIIIIIXXI",
                   "IZZIZZIII", "IIIZZIZZI", "ZIIZIIIII", "IIIIIZIIZ"), (3, 3)),
}
REGIONS_PER_CODE = 2
GRIDS = ((50000,), (224, 224), (37, 37, 37))
LAMBDAS = tuple(2 ** e for e in range(1, 16))


def run_code(name: str, regions: list) -> dict:
    gens, shape = CODES[name]
    code = lb.validate_code(gens)
    dist = lb.min_distance(code)
    d = dist.distance
    kl = [lb.correctable_region(code, r) for r in regions]
    graph, emb = lb.grid_graph(shape)
    part = lb.grid_partition(emb, graph, d - 1)
    blocks = [[int(v) for v in block] for block in part.blocks]
    report = lb.verify_structure_code(code, blocks)
    return {
        "k": code.k, "d": d, "correctable": kl, "max_block": max(map(len, blocks)),
        "structure_passed": report.passed,
        "ree_lower_sum": report.parameters["ree_lower_sum"],
        "depth_floor": lb.encoding_depth_floor(code.k, part.boundary_sizes),
    }


def run_grid(shape) -> list:
    graph, emb = lb.grid_graph(shape)
    m, dim = len(graph.vertices), len(shape)
    rows = []
    for lam in LAMBDAS:
        part = lb.grid_partition(emb, graph, lam)
        g = lb.check_guarantees(part, emb, lam, dense=True)
        rows.append({
            "lam": lam, "blocks": part.count, "merged": part.merged, "ok": g.ok,
            "worst_size": g.worst_size, "worst_boundary": g.worst_boundary,
            "floor": lb.encoding_depth_floor_geometric(1, lam + 1, m, dim),
        })
    return rows


def grid_key(shape) -> str:
    return "x".join(map(str, shape))


class CodeGeometry:
    """The structure-lemma pipeline on five codes with n <= 9, then
    partition sweeps over three full grids of about 5 x 10^4 points."""

    name = "code-geometry"
    min_cycles = 1

    def __init__(self, seed: int, refs: dict):
        self.seed = seed
        self.refs = refs.get(self.name, {})

    def cycle(self, i: int) -> list:
        rng = np.random.default_rng([self.seed, i])
        tasks = []
        for name in rng.permutation(list(CODES)):
            name = str(name)
            ref = self.refs.get(f"code:{name}", {})
            n = len(CODES[name][0][0])
            below = ref.get("d", 1) - 1
            regions = [sorted(int(q) for q in rng.choice(n, size=below, replace=False))
                       for _ in range(REGIONS_PER_CODE)]

            def check(out, ref=ref):
                if out["d"] != ref.get("d") or not all(out["correctable"]):
                    return f"distance {out['d']} / correctable {out['correctable']} vs pinned {ref}"
                if not out["structure_passed"] or out["max_block"] >= out["d"]:
                    return f"structure lemma failed: {out}"
                if not _near(out["ree_lower_sum"], ref.get("ree_lower_sum"), 1e-9):
                    return f"structure sum {out['ree_lower_sum']!r} vs pinned {ref}"
                if not _near(out["depth_floor"], ref.get("depth_floor"), 1e-12):
                    return f"depth floor {out['depth_floor']!r} vs pinned {ref}"
                return None

            tasks.append(Task("code", f"{name} regions={regions}", run_code, (name, regions), check))
        for idx in rng.permutation(len(GRIDS)):
            shape = GRIDS[idx]
            ref = self.refs.get(f"grid:{grid_key(shape)}")

            def check(rows, ref=ref):
                if not all(r["ok"] for r in rows):
                    return "partition guarantee failed"
                if ref is None or len(ref) != len(rows):
                    return "no pinned partition table"
                for got, want in zip(rows, ref):
                    if any(got[k] != want.get(k) for k in got if k != "floor") or \
                            not _near(got["floor"], want.get("floor"), 1e-12):
                        return f"partition at lam={got['lam']}: {got} vs pinned {want}"
                return None

            tasks.append(Task(f"grid{len(shape)}d", f"grid {grid_key(shape)} lams={len(LAMBDAS)}",
                              run_grid, (shape,), check))
        return tasks

    def cross_check(self) -> list:
        report = lb.verify_depth_bound()
        return [] if report.passed else [f"verify_depth_bound failed: {report.to_json()}"]

WORKLOADS = {w.name: w for w in (ModuleDense, ModuleBranching, ReeSearch, CodeGeometry)}
