"""Command-line front end: file ingestion, bound evaluation, verification,
JSON reporting.

Every subcommand emits a versioned JSON report (top-level "schema": 1) on
stdout or to --output. Exit codes: 0 success/pass, 1 verification
violation, 2 input error, 3 internal error (a failed internal
consistency check; a message on stderr, never a traceback). Identical
argv and files produce byte-identical output. No environment variable is
consulted.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import bounds as bnd
from . import partition as part
from . import separability as sep
from . import verify as ver
from .circuit import InvariantError, validate_embedding
from .entropy import g_continuity
from .files import read_circuit_file, read_code_file, read_embedded_graph_file
from .rand import DEFAULT_SEED
from .stabilizer import (
    code_entropy,
    correctable_region,
    encoding_isometry,
    min_distance,
)

SCHEMA = 1


def _parse_region(text: str, n: int) -> list:
    """Comma-separated distinct qubit indices, each in 0..n-1."""
    try:
        region = [int(tok) for tok in text.split(",") if tok != ""]
    except ValueError:
        raise ValueError(f"bad region {text!r}; expected comma-separated qubit indices")
    for q in sorted(region):
        if not 0 <= q < n:
            raise ValueError(f"qubit index {q} out of range")
    if len(set(region)) != len(region):
        raise ValueError(f"region {region} lists a qubit twice")
    return region


def _finite_float(text: str) -> float:
    """argparse type: a float that is neither infinite nor NaN, so every
    report stays strict JSON."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _int(text: str) -> int:
    """argparse type: an integer of magnitude at most 2^53, so that float
    arithmetic on it stays exact and cannot overflow."""
    value = int(text)
    if abs(value) > 2 ** 53:
        raise argparse.ArgumentTypeError(
            f"expected an integer of magnitude at most 2^53, got {text!r}"
        )
    return value


def _parse_blocks(text: str, n: int) -> list:
    return [_parse_region(part, n) for part in text.split(";") if part != ""]


def _render(report: dict) -> str:
    payload = {"schema": SCHEMA}
    payload.update(report)
    try:
        return json.dumps(payload, indent=2, allow_nan=False)
    except ValueError:
        raise ValueError("a report value overflows float64; the inputs are out of range") from None


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns (exit_code, report dict)


def _cmd_code_check(args):
    code = read_code_file(args.file)
    return 0, {
        "command": "code check",
        "n": code.n,
        "k": code.k,
        "generators": list(code.generators),
        "valid": True,
    }


def _cmd_code_distance(args):
    code = read_code_file(args.file)
    res = min_distance(code, cap=args.cap)
    report = {
        "command": "code distance",
        "n": code.n,
        "k": code.k,
        "exact": res.exact,
        "distance": res.distance,
        "distance_at_least": res.at_least,
    }
    return 0, report


def _cmd_code_correctable(args):
    code = read_code_file(args.file)
    region = _parse_region(args.region, code.n)
    ok = correctable_region(code, region)
    return 0, {
        "command": "code correctable",
        "region": region,
        "correctable": ok,
    }


def _cmd_code_encode(args):
    code = read_code_file(args.file)
    iso = encoding_isometry(code)
    defect = float(np.abs(iso.conj().T @ iso - np.eye(2 ** code.k)).max())
    in_code = float(np.abs(code.code_projector() @ iso - iso).max())
    report = {
        "command": "code encode",
        "n": code.n,
        "k": code.k,
        "isometry_defect": defect,
        "codespace_residual": in_code,
    }
    if args.full:
        report["isometry_real"] = iso.real.tolist()
        report["isometry_imag"] = iso.imag.tolist()
    return 0, report


def _cmd_entropy(args):
    if args.epsilon is not None:
        h, g = g_continuity(args.epsilon)
        return 0, {"command": "entropy", "epsilon": args.epsilon, "h": h, "g": g}
    if args.code is None or args.region is None:
        raise ValueError("entropy needs either --epsilon or --code with --region")
    code = read_code_file(args.code)
    region = _parse_region(args.region, code.n)
    s_a = code_entropy(code, region)
    s_b = code_entropy(code, sorted(set(range(code.n)) - set(region)))
    s_ab = code_entropy(code, range(code.n))
    return 0, {
        "command": "entropy",
        "state": "encoded-maximally-mixed",
        "region": region,
        "vn_entropy": float(s_a),
        "coherent_info": float(s_b - s_ab),
        "coherent_info_reverse": float(s_a - s_ab),
        "total_entropy": float(s_ab),
    }


def _cmd_ree(args):
    code = read_code_file(args.code)
    region = _parse_region(args.region, code.n)
    labels = [f"q{q}" for q in region]
    if 2 ** code.n > sep.MAX_REE_DIM:
        raise ValueError(f"ree limited to total dimension <= {sep.MAX_REE_DIM} (n <= 6 qubits)")
    rho = code.encoded_maximally_mixed()
    bracket = sep.ree_bracket(
        rho, labels, restarts=args.restarts, iterations=args.iterations, seed=args.seed
    )
    return 0, {
        "command": "ree",
        "state": "encoded-maximally-mixed",
        "region": region,
        "lower": bracket.lower,
        "upper": bracket.upper,
        "restarts_run": bracket.restarts_run,
        "iterations_run": bracket.iterations_run,
        "converged": bracket.converged,
    }


def _cmd_partition(args):
    graph, emb = read_embedded_graph_file(args.graph)
    violations = validate_embedding(emb, graph)
    if violations:
        raise ValueError(violations[0])
    partition = part.grid_partition(emb, graph, args.lam, kappa=args.kappa)
    guarantee = part.check_guarantees(partition, emb, args.lam, kappa=args.kappa,
                                      dense=args.dense)
    code = 0 if guarantee.ok else 1
    return code, {
        "command": "partition",
        "m": graph.m,
        "lam": args.lam,
        "blocks": guarantee.count,
        "sizes": list(partition.sizes),
        "boundary_sizes": list(partition.boundary_sizes),
        "merged": partition.merged,
        "kappa": guarantee.kappa,
        "size_ok": guarantee.size_ok,
        "boundary_ok": guarantee.boundary_ok,
        "boundary_budget": guarantee.boundary_budget,
        "count_ok": guarantee.count_ok,
        "count_note": guarantee.count_note,
        "note": partition.note,
    }


def _cmd_bound_encoding(args):
    if args.boundary_sizes is not None:
        sizes = [float(tok) for tok in args.boundary_sizes.split(",") if tok != ""]
        if not all(math.isfinite(size) for size in sizes):
            raise ValueError("boundary sizes must be finite numbers")
        value = bnd.encoding_depth_floor(args.k, sizes)
        return 0, {
            "command": "bound encoding",
            "k": args.k,
            "boundary_sum": sum(sizes),
            "floor": value if value != float("inf") else None,
            "infinite": value == float("inf"),
        }
    if args.d is None or args.m is None:
        raise ValueError("bound encoding needs --boundary-sizes or (--d and --m)")
    value = bnd.encoding_depth_floor_geometric(
        args.k, args.d, args.m, args.dim, args.c1, args.c2
    )
    return 0, {
        "command": "bound encoding",
        "k": args.k, "d": args.d, "m": args.m, "dim": args.dim,
        "c1": args.c1, "c2": args.c2,
        "lambda": args.d - 1,
        "floor": value,
    }


def _cmd_bound_syndrome(args):
    value = bnd.syndrome_depth_floor(args.k, args.d, args.m, args.dim, args.c1, args.c2)
    return 0, {
        "command": "bound syndrome",
        "k": args.k, "d": args.d, "m": args.m, "dim": args.dim,
        "c1": args.c1, "c2": args.c2,
        "floor": value,
    }


def _cmd_bound_overhead(args):
    inputs = bnd.BoundInputs(
        m=args.m, k=args.k, depth=args.depth, p=args.p, delta=args.delta,
        dim=args.dim, c1=args.c1, c2=args.c2,
    )
    report = bnd.overhead_floor(inputs)
    out = {"command": "bound overhead", "floor": report.value,
           "active_branch": report.active_branch}
    out.update(report.intermediates)
    if math.isinf(report.intermediates["term_partition"]):
        out["term_partition"] = None  # depth 0: the partition branch never binds
    out["satisfiable"] = report.satisfiable
    return 0, out


def _verify_exit(report: ver.VerificationReport) -> tuple:
    out = {"command": "verify"}
    out.update(report.to_json())
    return (0 if report.passed else 1), out


def _cmd_verify_sie(args):
    circuit = read_circuit_file(args.circuit) if args.circuit else None
    report = ver.verify_sie(
        seed=args.seed, qubits=args.qubits, layers=args.layers, circuit=circuit
    )
    return _verify_exit(report)


def _cmd_verify_structure(args):
    code = read_code_file(args.code)
    blocks = _parse_blocks(args.partition, code.n)
    report = ver.verify_structure_code(code, blocks)
    return _verify_exit(report)


def _cmd_verify_corr_max(args):
    code = read_code_file(args.code)
    report = ver.verify_corr_max_entangled(code, n_states=args.states, seed=args.seed)
    return _verify_exit(report)


def _cmd_verify_depth_bound(args):
    report = ver.verify_depth_bound()
    return _verify_exit(report)


def _cmd_verify_appendix(args):
    report = ver.verify_appendix(seed=args.seed, trials=args.trials)
    return _verify_exit(report)


def _cmd_verify_overhead(args):
    report = ver.verify_overhead_consistency(dim=args.dim, c1=args.c1, c2=args.c2)
    return _verify_exit(report)


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="locbound",
        description="Entropic lower bounds for geometrically local quantum "
                    "error correction: codes, entropies, partitions, bound "
                    "evaluators, and numerical verification of each bound.",
    )
    parser.add_argument("--output", help="write the JSON report to a file")
    sub = parser.add_subparsers(dest="command", required=True)

    p_code = sub.add_parser("code", help="stabilizer-code analysis")
    code_sub = p_code.add_subparsers(dest="subcommand", required=True)

    c = code_sub.add_parser("check", help="validate a generator file")
    c.add_argument("--file", required=True)
    c.set_defaults(handler=_cmd_code_check)

    c = code_sub.add_parser("distance", help="exhaustive minimum distance")
    c.add_argument("--file", required=True)
    c.add_argument("--cap", type=_int, default=None,
                   help="stop after this weight; reports an open-ended result")
    c.set_defaults(handler=_cmd_code_distance)

    c = code_sub.add_parser("correctable",
                            help="Knill-Laflamme correctability of a region")
    c.add_argument("--file", required=True)
    c.add_argument("--region", required=True, help="comma-separated qubit indices")
    c.set_defaults(handler=_cmd_code_correctable)

    c = code_sub.add_parser("encode", help="deterministic encoding isometry")
    c.add_argument("--file", required=True)
    c.add_argument("--full", action="store_true", help="include matrix entries")
    c.set_defaults(handler=_cmd_code_encode)

    c = sub.add_parser(
        "entropy",
        help="entropies of encoded states, or the continuity functions h and g",
    )
    c.add_argument("--epsilon", type=_finite_float, default=None,
                   help="evaluate the binary entropy h and slack g at epsilon")
    c.add_argument("--code", help="code file; uses the encoded maximally mixed state")
    c.add_argument("--region", help="comma-separated qubit indices")
    c.set_defaults(handler=_cmd_entropy)

    c = sub.add_parser(
        "ree",
        help="relative-entropy-of-entanglement bracket across a region cut "
             "of the encoded maximally mixed state",
    )
    c.add_argument("--code", required=True)
    c.add_argument("--region", required=True)
    c.add_argument("--restarts", type=_int, default=sep.DEFAULT_RESTARTS)
    c.add_argument("--iterations", type=_int, default=sep.DEFAULT_ITERATIONS)
    c.add_argument("--seed", type=int, default=DEFAULT_SEED)
    c.set_defaults(handler=_cmd_ree)

    c = sub.add_parser("partition",
                       help="size-bounded partition of an embedded graph")
    c.add_argument("--graph", required=True, help="embedded-graph file")
    c.add_argument("--lam", type=_int, required=True, help="block size bound")
    c.add_argument("--kappa", type=_finite_float, default=None,
                   help="override the boundary constant kappa(c, D)")
    c.add_argument("--dense", action="store_true",
                   help="assert the block-count bound (full grids)")
    c.set_defaults(handler=_cmd_partition)

    p_bound = sub.add_parser("bound", help="explicit-constant bound evaluators")
    bound_sub = p_bound.add_subparsers(dest="subcommand", required=True)

    c = bound_sub.add_parser(
        "encoding",
        help="encoding depth floor k/(3 sum |boundaries|), or its geometric "
             "form k (d-1)^(1/D) / (3 c1 c2 m)",
    )
    c.add_argument("--k", type=_int, required=True)
    c.add_argument("--boundary-sizes", default=None,
                   help="comma-separated |dGamma_i| values")
    c.add_argument("--d", type=_int, default=None)
    c.add_argument("--m", type=_int, default=None)
    c.add_argument("--dim", type=_int, default=2)
    c.add_argument("--c1", type=_finite_float, default=1.0)
    c.add_argument("--c2", type=_finite_float, default=1.0)
    c.set_defaults(handler=_cmd_bound_encoding)

    c = bound_sub.add_parser(
        "syndrome",
        help="syndrome-extraction depth floor (one recovery layer below the "
             "encoding floor)",
    )
    c.add_argument("--k", type=_int, required=True)
    c.add_argument("--d", type=_int, required=True)
    c.add_argument("--m", type=_int, required=True)
    c.add_argument("--dim", type=_int, default=2)
    c.add_argument("--c1", type=_finite_float, default=1.0)
    c.add_argument("--c2", type=_finite_float, default=1.0)
    c.set_defaults(handler=_cmd_bound_syndrome)

    c = bound_sub.add_parser(
        "overhead",
        help="memory overhead floor m/k >= (1/2) min(f^(1/D)/(3 c1 c2 depth), "
             "p^(f/8)/(7 c2)) with f = log_p(delta)",
    )
    c.add_argument("--m", type=_int, required=True)
    c.add_argument("--k", type=_int, required=True)
    c.add_argument("--p", type=_finite_float, required=True)
    c.add_argument("--delta", type=_finite_float, required=True)
    c.add_argument("--depth", type=_finite_float, required=True)
    c.add_argument("--dim", type=_int, default=2)
    c.add_argument("--c1", type=_finite_float, default=1.0)
    c.add_argument("--c2", type=_finite_float, default=1.0)
    c.set_defaults(handler=_cmd_bound_overhead)

    p_verify = sub.add_parser("verify", help="numerical verification harness")
    verify_sub = p_verify.add_subparsers(dest="subcommand", required=True)

    c = verify_sub.add_parser(
        "sie",
        help="small incremental entangling: one circuit layer raises the "
             "entanglement across any cut U by at most 3 |boundary(U)|",
    )
    c.add_argument("--qubits", type=_int, default=8)
    c.add_argument("--layers", type=_int, default=100)
    c.add_argument("--seed", type=int, default=DEFAULT_SEED)
    c.add_argument("--circuit", default=None,
                   help="a circuit file to check instead of random layers")
    c.set_defaults(handler=_cmd_verify_sie)

    c = verify_sub.add_parser(
        "structure-code",
        help="code structure: summed entanglement lower bounds over any "
             "partition into below-distance blocks reach k",
    )
    c.add_argument("--code", required=True)
    c.add_argument("--partition", required=True,
                   help="blocks as semicolon-separated index lists, e.g. 0,1;2,3;4")
    c.set_defaults(handler=_cmd_verify_structure)

    c = verify_sub.add_parser(
        "corr-max",
        help="correctable regions of code states are maximally entangled "
             "with the rest: I(region > complement) = S(region)",
    )
    c.add_argument("--code", required=True)
    c.add_argument("--states", type=_int, default=20)
    c.add_argument("--seed", type=int, default=DEFAULT_SEED)
    c.set_defaults(handler=_cmd_verify_corr_max)

    c = verify_sub.add_parser(
        "depth-bound",
        help="noisy-circuit depth bound: 3 depth |boundary(Gamma)| covers the "
             "target entanglement minus the erasure penalty, on the built-in "
             "scenario corpus",
    )
    c.set_defaults(handler=_cmd_verify_depth_bound)

    c = verify_sub.add_parser(
        "appendix",
        help="supporting inequalities: convex mixtures close to a pure state, "
             "small conditional mutual information under approximate recovery, "
             "and the coherent-information/separable-ensemble sandwich",
    )
    c.add_argument("--trials", type=_int, default=1000)
    c.add_argument("--seed", type=int, default=DEFAULT_SEED)
    c.set_defaults(handler=_cmd_verify_appendix)

    c = verify_sub.add_parser(
        "overhead",
        help="overhead-floor consistency: every simulated module satisfies "
             "m/k >= floor(m, k, depth, p, delta)",
    )
    c.add_argument("--dim", type=_int, default=2)
    c.add_argument("--c1", type=_finite_float, default=1.0)
    c.add_argument("--c2", type=_finite_float, default=1.0)
    c.set_defaults(handler=_cmd_verify_overhead)

    return parser


def dispatch(argv: list) -> int:
    """Parse argv, run the subcommand, emit the JSON report; returns the
    exit code (0 ok, 1 verification violation, 2 input error, 3 internal
    error)."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        code, report = args.handler(args)
        text = _render(report)
    except (OSError, ValueError) as exc:  # ParseError is a ValueError
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except ArithmeticError as exc:  # finite inputs whose arithmetic leaves float64
        sys.stderr.write(f"error: inputs out of float64 range: {exc}\n")
        return 2
    except InvariantError as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return 3
    _emit(text, args.output)
    return code


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
