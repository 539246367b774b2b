"""One benchmark process: set up a workload, run its timed phase, check every
result and print one JSON object as the last line of stdout.

run.py starts it in a fresh interpreter with the checkout's src/ on
PYTHONPATH, BLAS limited to one thread and LOCBOUND_THREADS unset.

Untraced (--trace 0): whole cycles of tasks run until --seconds have passed.
Traced (--trace 1): --seconds is ignored. Exactly the workload's
`min_cycles` cycles run, each twice, once with the layer wrappers of
tracer.py installed. So a seed fixes the work of the traced pass: counts are
exact and busy times are totals over the same tasks on every commit.
Per-layer numbers come from the traced copies and the tracing overhead from
comparing the two.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _record_branches(tracer, state) -> None:
    n, dim = len(state.branches), state.layout.dim
    tracer.peaks["circuit.branches_peak"] = max(tracer.peaks["circuit.branches_peak"], n)
    tracer.peaks["circuit.state_bytes_peak"] = max(
        tracer.peaks["circuit.state_bytes_peak"], n * dim * dim * 16)  # complex128


def _record_partition(tracer, part) -> None:
    tracer.counts["partition.rollbacks"] += not part.merged
    tracer.counts["partition.blocks"] += part.count


# (layer module, function or Class.method, hook on the result): the public
# entry points the timed tasks reach.
TARGETS = [
    ("circuit", "simulate_module", _record_branches),
    ("circuit", "noise_apply", _record_branches),
    ("circuit", "apply_layer", _record_branches),
    ("circuit", "grid_graph", None),
    ("qstate", "ClassicalQuantumState.merged", None),
    ("qstate", "ClassicalQuantumState.average_state", None),
    ("qstate", "DensityMatrix.reduced", None),
    ("qstate", "DensityMatrix.permuted", None),
    ("qstate", "fidelity", None),
    ("entropy", "vn_entropy", None),
    ("entropy", "coherent_info", None),
    ("entropy", "relative_entropy", None),
    ("separability", "ree_bracket", None),
    ("separability", "ree_lower", None),
    ("stabilizer", "validate_code", None),
    ("stabilizer", "min_distance", None),
    ("stabilizer", "correctable_region", None),
    ("stabilizer", "StabilizerCode.code_projector", None),
    ("stabilizer", "encoding_isometry", None),
    ("partition", "grid_partition", _record_partition),
    ("partition", "check_guarantees", None),
    ("bounds", "encoding_depth_floor", None),
    ("bounds", "encoding_depth_floor_geometric", None),
    ("verify", "repetition_module", None),
    ("verify", "verify_structure_code", None),
]

BUSY = ["circuit.noise_apply", "circuit.apply_layer", "circuit.simulate_module",
        "circuit.grid_graph", "qstate.merged", "qstate.average_state", "qstate.reduced",
        "qstate.fidelity", "entropy.vn_entropy", "entropy.relative_entropy",
        "stabilizer.min_distance", "stabilizer.correctable_region",
        "stabilizer.code_projector", "stabilizer.encoding_isometry",
        "partition.grid_partition", "partition.check_guarantees",
        "verify.verify_structure_code"]
CALLS = ["circuit.noise_apply", "circuit.apply_layer", "entropy.vn_entropy",
         "entropy.relative_entropy", "stabilizer.correctable_region", "partition.grid_partition"]


def run_cycle(workload, i: int, records: list, tracer=None) -> float:
    """Run the tasks of cycle `i`, append one record per task and return the
    wall time. A record is (task, result, cycle, failure reason or None,
    seconds); a task that raises or fails its check is recorded, not fatal."""
    start = time.perf_counter()
    for task in workload.cycle(i):
        if tracer is not None:
            tracer.tag = task.kind
        t = time.perf_counter()
        try:
            result = task.run(*task.args)
        except Exception as exc:
            result, reason = None, f"raised {type(exc).__name__}: {exc}"
        took = time.perf_counter() - t
        if result is not None:
            try:
                reason = task.check(result)
            except Exception as exc:
                reason = f"check raised {type(exc).__name__}: {exc}"
        records.append((task, result, i, reason, took))
    return time.perf_counter() - start


def run_pass(workload, seconds: float, min_cycles: int) -> tuple:
    """Whole cycles until `seconds` have passed and `min_cycles` are done."""
    records: list = []
    start = time.perf_counter()
    i = 0
    while i < min_cycles or time.perf_counter() - start < seconds:
        run_cycle(workload, i, records)
        i += 1
    return records, time.perf_counter() - start, i


def set_up(cls, seed: int, refs: dict, tracer=None):
    """Build the workload, with the layer wrappers installed if tracing."""
    if tracer is None:
        return cls(seed, refs)
    tracer.tag = "setup"
    tracer.install(TARGETS)
    try:
        return cls(seed, refs)
    finally:
        tracer.uninstall()


def run_traced_pass(workload, tracer, cycles: int) -> tuple:
    """Cycles 0 .. cycles-1, each twice, untraced and traced, alternating
    which goes first so warm-up does not bias the overhead. Returns
    (untraced records, traced records, traced wall, per-layer metrics)."""
    from workloads import ree_counters

    records: tuple = ([], [])
    walls = [0.0, 0.0]
    since = time.perf_counter()
    for i in range(cycles):
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                tracer.install(TARGETS)
            walls[traced] += run_cycle(workload, i, records[traced], tracer if traced else None)
            if traced:
                tracer.uninstall()
    layers = layer_metrics(tracer, since, walls[1], walls[0], ree_counters(records[1]))
    return records[0], records[1], walls[1], layers


def layer_metrics(tracer, since: float, traced_wall: float, untraced_wall: float,
                  counters: dict) -> dict:
    rows = tracer.summary()
    busy, calls, incl = {}, {}, {}
    for (name, tag), row in rows.items():
        busy[name] = busy.get(name, 0.0) + row["self_s"]
        calls[name] = calls.get(name, 0) + row["calls"]
        incl[name] = incl.get(name, 0.0) + row["total_s"]
    out = {f"{name}.busy_s": busy.get(name, 0.0) for name in BUSY}
    out.update({f"{name}.calls": calls.get(name, 0) for name in CALLS})
    for tag in ("pure", "mixed"):
        out[f"separability.ree_bracket.{tag}_busy_s"] = rows.get(
            ("separability.ree_bracket", tag), {}).get("self_s", 0.0)
    out["bounds.busy_s"] = sum(v for k, v in busy.items() if k.startswith("bounds."))
    for name in ("circuit.branches_peak", "circuit.state_bytes_peak"):
        out[name] = tracer.peaks[name]
    for name in ("partition.rollbacks", "partition.blocks"):
        out[name] = tracer.counts[name]
    out.update(counters)
    search_s = incl.get("separability.ree_bracket", 0.0)
    out["separability.iterations_per_s"] = (
        counters["separability.iterations_run"] / search_s if search_s else 0.0)
    out["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    out["trace.coverage_frac"] = tracer.top_level_s(since) / traced_wall
    return out


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": "unknown",
        "llc_bytes": None,
        "control": "none: no CPU pinning, frequency or cache control is possible here",
    }
    try:
        with open("/proc/cpuinfo") as fh:
            env["cpu_model"] = next(
                line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        size = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
        env["llc_bytes"] = int(size.rstrip("K")) * 1024 if size.endswith("K") else int(size)
    except (OSError, ValueError):
        pass
    return env


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True, help="time.monotonic() at spawn")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import locbound
    import workloads
    from tracer import Tracer

    if not Path(locbound.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"locbound imported from {locbound.__file__}, not from this checkout")
    refs = json.loads((HERE / "references.json").read_text())
    cls = workloads.WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    workload = set_up(cls, args.seed, refs, tracer)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    out = {"setup_s": setup_s}
    if tracer is None:
        records, wall, cycles = run_pass(workload, args.seconds, cls.min_cycles)
        out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        checked = records
    else:
        cycles = cls.min_cycles
        first, records, wall, out["layers"] = run_traced_pass(workload, tracer, cycles)
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"trace-{args.workload}-seed{args.seed}.json")
        checked = first + records
    failures = [{"task": task.key, "reason": reason}
                for task, _, _, reason, _ in checked if reason is not None]
    out.update({
        "timed_wall_s": wall,
        "cycles": cycles,
        "durations": {},
        "attempted": len(checked),
        "failed": len(failures),
        "failures": failures[:20],
        "cross_check": workload.cross_check(),
        "ree_gap_mean_bits": (workloads.ree_counters(records)["separability.ree_gap_mean_bits"]
                              if args.workload == "ree-search" else None),
        "env": environment(),
    })
    for task, _, _, reason, took in records:
        if reason is None:
            out["durations"].setdefault(task.kind, []).append(took)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
