"""locbound benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a locbound checkout; the library is imported from its
src/ directory, so there is nothing to build. Workloads, metrics and their
units are declared in BENCHMARK.json.

With --trace 0 it measures set-up time in several fresh interpreters
(median), then runs one timed phase in one more and prints the end-to-end
metrics. With --trace 1 it prints the per-layer metrics of a traced run
instead and writes the spans to .bench_out/; the traced run ignores
--seconds and does a fixed number of cycles (see worker.py). An earlier
stdout line holds the details: environment, sample counts, tail
percentile, failure rate and any failed task. The last line is:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5  # fresh interpreters per untraced run; setup_s is their median
CLI_SAMPLES = 3
BLAS_THREADS = "1"  # a plain single-threaded baseline; steadier on a shared 2-core box
DEADLINE_S = 170  # per workload: one workload exits within 180 s, "all" within 4 x 180 s
TAIL_BEYOND = 10  # the tail percentile keeps at least this many tasks above it
CLI_REPORT = ["bound", "overhead", "--m", "10", "--k", "1", "--depth", "2",
              "--p", "0.05", "--delta", "0.01"]


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("LOCBOUND_THREADS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_child(args: list, deadline: float) -> str:
    """Run a fresh interpreter to completion (killed at the deadline) and
    return its stdout."""
    try:
        proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(),
                              stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"timed out: {args[:3]}") from exc
    if proc.returncode != 0:
        raise BenchError(f"exit {proc.returncode}: {args[:3]}")
    return proc.stdout


def run_worker(workload: str, seed: int, seconds: float, trace: int, deadline: float,
               setup_only: bool = False) -> dict:
    args = [str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace), "--t0", repr(time.monotonic())]
    out = run_child(args + (["--setup-only"] if setup_only else []), deadline)
    return json.loads(out.strip().splitlines()[-1])


def tail(durations: list) -> dict | None:
    """The highest whole percentile with at least TAIL_BEYOND tasks above it,
    or None when the run has too few tasks for one above the median."""
    n = len(durations)
    q = math.floor(100 * (1 - TAIL_BEYOND / n)) if n else 0
    if q <= 50:
        return None
    value = sorted(durations)[math.ceil(q / 100 * n) - 1]
    return {"value": value, "unit": "s", "percentile": q, "n": n}


def cli_probes(deadline: float) -> tuple:
    """cli.import_s and cli.cold_dispatch_s, medians over fresh interpreters,
    and whether every report was valid JSON with a floor."""
    code = "import time; t = time.perf_counter(); import locbound.cli; print(time.perf_counter() - t)"
    imports = [float(run_child(["-c", code], deadline)) for _ in range(CLI_SAMPLES)]
    walls, ok = [], True
    for _ in range(CLI_SAMPLES):
        t = time.monotonic()
        out = run_child(["-m", "locbound.cli", *CLI_REPORT], deadline)
        walls.append(time.monotonic() - t)
        try:
            ok = ok and isinstance(json.loads(out)["floor"], float)
        except (ValueError, KeyError):
            ok = False
    return statistics.median(imports), statistics.median(walls), ok


def measure(spec: dict, workload: str, seed: int, seconds: float, trace: int,
            deadline: float) -> tuple:
    """Returns (details, result) for one workload."""
    setups = [] if trace else [
        run_worker(workload, seed, seconds, trace, deadline, setup_only=True)["setup_s"]
        for _ in range(SETUP_SAMPLES - 1)]
    w = run_worker(workload, seed, seconds, trace, deadline)
    setups.append(w["setup_s"])
    durations = [d for ds in w["durations"].values() for d in ds]
    values, problems = {}, list(w["cross_check"])
    if trace:
        values.update(w["layers"])
        values["cli.import_s"], values["cli.cold_dispatch_s"], cli_ok = cli_probes(deadline)
        if not cli_ok:
            problems.append("bound overhead did not print a JSON report with a floor")
        declared = spec["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(setups),
            "tasks_per_s": len(durations) / w["timed_wall_s"],
            "peak_rss_mb": w["peak_rss_kb"] / 1024,
        }
        declared = spec["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not produced: {missing}")
    details = {
        "workload": workload, "seed": seed, "trace": trace, "env": w["env"],
        "cycles": w["cycles"], "timed_wall_s": w["timed_wall_s"],
        "setup_samples_s": setups,
        "tasks": {kind: {"n": len(ds), "p50_s": statistics.median(ds)}
                  for kind, ds in w["durations"].items()},
        # unbounded: too noisy on a shared host, absent on some runs, or 0 at this commit
        "task_p50_s": None if not durations else {
            "value": statistics.median(durations), "unit": "s", "n": len(durations)},
        "task_tail_s": tail(durations),
        "failure_rate": {"value": w["failed"] / w["attempted"], "unit": "frac"},
        "ree_gap_mean_bits": None if w["ree_gap_mean_bits"] is None else {
            "value": w["ree_gap_mean_bits"], "unit": "bit"},
        "failures": w["failures"], "cross_check": problems,
    }
    result = {
        "correct": w["failed"] == 0 and not problems,
        "attempted": w["attempted"],
        "failed": w["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    return details, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="locbound benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "locbound" / "__init__.py").is_file() or not spec_path.is_file():
        print("error: run from a locbound checkout (src/locbound and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]
    chosen = names if args.workload == "all" else [args.workload]
    if not set(chosen) <= set(names):
        print(f"error: unknown workload {args.workload!r}; choose from {names} or all",
              file=sys.stderr)
        return 2
    try:
        results = {}
        for name in chosen:
            details, results[name] = measure(spec, name, args.seed, args.seconds,
                                             args.trace, time.monotonic() + DEADLINE_S)
            print(json.dumps(details), flush=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[chosen[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
