import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locbound.cli import dispatch

FIVE_QUBIT = "data/five_qubit.code"
FOUR_TWO_TWO = "data/four_two_two.code"
REPETITION_3 = "data/repetition3.code"
ROOT = Path(__file__).resolve().parents[1]


def run_cli(*argv, timeout):
    """Run the CLI in a child process, so a runaway computation fails the
    test by its timeout instead of stalling the suite."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-m", "locbound.cli", *argv], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=timeout)


def run(capsys, *argv):
    code = dispatch(list(argv))
    out = capsys.readouterr().out
    report = json.loads(out) if out.strip() else None
    return code, report, out


def test_code_check(capsys):
    code, report, _ = run(capsys, "code", "check", "--file", FIVE_QUBIT)
    assert code == 0
    assert report["schema"] == 1
    assert report["n"] == 5
    assert report["k"] == 1
    assert report["valid"]


def test_code_distance(capsys):
    code, report, _ = run(capsys, "code", "distance", "--file", FIVE_QUBIT)
    assert code == 0
    assert report["distance"] == 3

    code, report, _ = run(capsys, "code", "distance", "--file", FIVE_QUBIT, "--cap", "2")
    assert code == 0
    assert report["distance"] is None
    assert report["distance_at_least"] == 3


def test_code_correctable(capsys):
    code, report, _ = run(capsys, "code", "correctable", "--file", FIVE_QUBIT,
                          "--region", "0,1")
    assert code == 0 and report["correctable"] is True
    code, report, _ = run(capsys, "code", "correctable", "--file", FIVE_QUBIT,
                          "--region", "0,1,2")
    assert code == 0 and report["correctable"] is False


def test_code_encode(capsys):
    code, report, _ = run(capsys, "code", "encode", "--file", FOUR_TWO_TWO)
    assert code == 0
    assert report["isometry_defect"] < 1e-10
    assert report["codespace_residual"] < 1e-10


def test_entropy_command(capsys):
    code, report, _ = run(capsys, "entropy", "--epsilon", "0.5")
    assert code == 0
    assert abs(report["h"] - 1.0) < 1e-12
    assert abs(report["g"] - 1.3774437510817343) < 1e-9

    code, report, _ = run(capsys, "entropy", "--code", FIVE_QUBIT, "--region", "0,1")
    assert code == 0
    assert abs(report["vn_entropy"] - 2.0) < 1e-8
    assert abs(report["coherent_info"] - 2.0) < 1e-8


def test_ree_command(capsys):
    code, report, _ = run(capsys, "ree", "--code", FIVE_QUBIT, "--region", "0,1",
                          "--restarts", "2", "--iterations", "100")
    assert code == 0
    assert abs(report["lower"] - 2.0) < 1e-8
    assert report["lower"] <= report["upper"] + 1e-6


def test_bound_commands(capsys):
    code, report, _ = run(
        capsys, "bound", "overhead", "--m", "100", "--k", "10", "--p", "0.25",
        "--delta", "0.00390625", "--depth", "1", "--dim", "2",
    )
    assert code == 0
    assert abs(report["floor"] - 0.0357143) < 1e-6
    assert report["active_branch"] == "p^(f/8)"

    code, report, _ = run(capsys, "bound", "encoding", "--k", "1",
                          "--boundary-sizes", "4,3,3")
    assert code == 0
    assert abs(report["floor"] - 1 / 30) < 1e-9

    code, report, _ = run(capsys, "bound", "encoding", "--k", "2", "--d", "3",
                          "--m", "8", "--dim", "2")
    assert code == 0
    assert report["lambda"] == 2

    code, report, _ = run(capsys, "bound", "syndrome", "--k", "15", "--d", "2",
                          "--m", "1", "--dim", "1")
    assert code == 0
    assert abs(report["floor"] - 4.0) < 1e-9


def test_partition_command(tmp_path, capsys):
    lines = ["dim 2", "c 1"]
    for i in range(4):
        for j in range(4):
            lines.append(f"point p{i}_{j} {i} {j}")
    for i in range(4):
        for j in range(4):
            if i + 1 < 4:
                lines.append(f"edge p{i}_{j} p{i+1}_{j}")
            if j + 1 < 4:
                lines.append(f"edge p{i}_{j} p{i}_{j+1}")
    path = tmp_path / "grid.graph"
    path.write_text("\n".join(lines) + "\n")
    code, report, _ = run(capsys, "partition", "--graph", str(path), "--lam", "4",
                          "--dense")
    assert code == 0
    assert report["blocks"] == 4
    assert report["size_ok"] and report["boundary_ok"] and report["count_ok"]


def test_verify_commands(capsys):
    code, report, _ = run(capsys, "verify", "sie", "--qubits", "4", "--layers", "5",
                          "--seed", "7")
    assert code == 0
    assert report["violations"] == 0
    assert report["pass"]

    code, report, _ = run(capsys, "verify", "structure-code", "--code", FIVE_QUBIT,
                          "--partition", "0,1;2,3;4")
    assert code == 0 and report["pass"]

    code, report, _ = run(capsys, "verify", "corr-max", "--code", FIVE_QUBIT,
                          "--states", "3")
    assert code == 0 and report["pass"]

    code, report, _ = run(capsys, "verify", "depth-bound")
    assert code == 0 and report["pass"]

    code, report, _ = run(capsys, "verify", "appendix", "--trials", "10")
    assert code == 0 and report["pass"]

    code, report, _ = run(capsys, "verify", "overhead")
    assert code == 0 and report["pass"]


def test_byte_identical_reports(capsys):
    argv = ["verify", "sie", "--qubits", "4", "--layers", "6", "--seed", "99"]
    _, _, out1 = run(capsys, *argv)
    _, _, out2 = run(capsys, *argv)
    assert out1 == out2

    argv = ["ree", "--code", FIVE_QUBIT, "--region", "0", "--restarts", "2",
            "--iterations", "50", "--seed", "5"]
    _, _, out1 = run(capsys, *argv)
    _, _, out2 = run(capsys, *argv)
    assert out1 == out2


SHOR = ("ZZIIIIIII", "IZZIIIIII", "IIIZZIIII", "IIIIZZIII", "IIIIIIZZI",
        "IIIIIIIZZ", "XXXXXXIII", "IIIXXXXXX")


@pytest.mark.parametrize("generators, partition, exit_code, message", [
    # {0, 1, 3} of Shor's code has size d = 3 but supports no logical operator
    (SHOR, "0,1,3;2;4;5;6;7;8", 0, ""),
    (SHOR, "0,1,2;3;4;5;6;7;8",
     2, "error: partition block ('q0', 'q1', 'q2') is not correctable\n"),
    # a [[14, 12, 2]] code: beyond the n <= 12 limit of the distance search
    (("X" * 14, "Z" * 14), ";".join(map(str, range(14))), 0, ""),
], ids=["shor-correctable-block", "shor-logical-block", "n14"])
def test_structure_code_tests_blocks_by_correctability(tmp_path, capsys, generators,
                                                       partition, exit_code, message):
    path = tmp_path / "gens.code"
    path.write_text("\n".join(generators) + "\n")
    code = dispatch(["verify", "structure-code", "--code", str(path),
                     "--partition", partition])
    captured = capsys.readouterr()
    assert (code, captured.err) == (exit_code, message)
    if exit_code == 0:
        report = json.loads(captured.out)
        assert report["pass"] and "distance" not in report


def _golden(command, **fields):
    return json.dumps({"schema": 1, "command": command, **fields}, indent=2) + "\n"


def _golden_entropy(vn, ci, ci_reverse, total):
    return _golden("entropy", state="encoded-maximally-mixed", region=[0], vn_entropy=vn,
                   coherent_info=ci, coherent_info_reverse=ci_reverse, total_entropy=total)


# The exact stdout of the stabilizer-layer reports on the shipped code
# files: integers and exact floats, so independent of the BLAS in use.
GOLDEN = {
    "check": (["code", "check", "--file"], {
        FIVE_QUBIT: _golden("code check", n=5, k=1,
                            generators=["XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"], valid=True),
        FOUR_TWO_TWO: _golden("code check", n=4, k=2, generators=["XXXX", "ZZZZ"], valid=True),
        REPETITION_3: _golden("code check", n=3, k=1, generators=["ZZI", "IZZ"], valid=True),
    }),
    "distance": (["code", "distance", "--file"], {
        FIVE_QUBIT: _golden("code distance", n=5, k=1, exact=True, distance=3,
                            distance_at_least=3),
        FOUR_TWO_TWO: _golden("code distance", n=4, k=2, exact=True, distance=2,
                              distance_at_least=2),
        REPETITION_3: _golden("code distance", n=3, k=1, exact=True, distance=1,
                              distance_at_least=1),
    }),
    "entropy": (["entropy", "--region", "0", "--code"], {
        FIVE_QUBIT: _golden_entropy(1.0, 1.0, 0.0, 1.0),
        FOUR_TWO_TWO: _golden_entropy(1.0, 1.0, -1.0, 2.0),
        REPETITION_3: _golden_entropy(1.0, 0.0, 0.0, 1.0),
    }),
}


@pytest.mark.parametrize("argv, expected", [
    pytest.param([*argv, path], text, id=f"{name}-{Path(path).stem}")
    for name, (argv, texts) in GOLDEN.items() for path, text in texts.items()
])
def test_stabilizer_reports_golden(capsys, argv, expected):
    code = dispatch(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (0, expected, "")


def test_partition_violation_exits_one(tmp_path, capsys):
    lines = ["dim 2", "c 1"]
    for i in range(4):
        lines.append(f"point p{i} {i} 0")
    for i in range(3):
        lines.append(f"edge p{i} p{i+1}")
    path = tmp_path / "line.graph"
    path.write_text("\n".join(lines) + "\n")
    # absurdly small kappa makes the boundary budget unsatisfiable
    code, report, _ = run(capsys, "partition", "--graph", str(path), "--lam", "2",
                          "--kappa", "0.001")
    assert code == 1
    assert report["boundary_ok"] is False


def test_input_errors_exit_two(capsys):
    code = dispatch(["code", "distance", "--file", "data/does_not_exist.code"])
    capsys.readouterr()
    assert code == 2

    code = dispatch(["entropy"])  # neither --epsilon nor --code/--region
    capsys.readouterr()
    assert code == 2

    code = dispatch(["code", "distance", "--nonsense"])  # unknown flag
    capsys.readouterr()
    assert code == 2


def test_parse_error_line_numbers(tmp_path, capsys):
    bad = tmp_path / "bad.code"
    bad.write_text("XZZXI\nXQZZX\n")
    code = dispatch(["code", "check", "--file", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert "line 2" in err


def test_output_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code = dispatch(["--output", str(out_path), "code", "distance",
                     "--file", FIVE_QUBIT])
    capsys.readouterr()
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["distance"] == 3


def test_help_exits_cleanly(capsys):
    assert dispatch(["--help"]) == 0
    capsys.readouterr()
    for argv in (["code", "--help"], ["bound", "--help"], ["verify", "--help"],
                 ["verify", "sie", "--help"], ["bound", "overhead", "--help"]):
        assert dispatch(argv) == 0
        out = capsys.readouterr().out
        assert "usage" in out or "options" in out


def test_verify_sie_with_circuit_file(tmp_path, capsys):
    swap = "1 0 0 0 0 0 1 0 0 1 0 0 0 0 0 1"
    text = "\n".join([
        "qubits 2", "edge 0 1",
        "layer", f"u2 {swap} on 0 1",
        "layer", f"u2 {swap} on 0 1",
    ]) + "\n"
    path = tmp_path / "swap.circuit"
    path.write_text(text)
    code, report, _ = run(capsys, "verify", "sie", "--circuit", str(path))
    assert code == 0
    assert report["pass"]


def test_ree_converged_is_json(capsys):
    code, report, _ = run(capsys, "ree", "--code", FOUR_TWO_TWO, "--region", "0",
                          "--restarts", "2", "--iterations", "300")
    assert code == 0
    assert report["converged"] is True


def test_bound_overhead_depth_zero_is_strict_json(capsys):
    code = dispatch(["bound", "overhead", "--m", "100", "--k", "10", "--p", "0.25",
                     "--delta", "0.00390625", "--depth", "0"])
    out = capsys.readouterr().out
    assert code == 0

    def reject(name):
        raise ValueError(f"non-finite JSON constant {name}")

    report = json.loads(out, parse_constant=reject)
    assert report["term_partition"] is None
    assert report["active_branch"] == "p^(f/8)"


@pytest.mark.parametrize("argv, message", [
    (["verify", "appendix", "--trials", "-5"], ">= 1"),
    (["verify", "corr-max", "--code", FIVE_QUBIT, "--states", "0"], ">= 1"),
    (["verify", "sie", "--qubits", "4", "--layers", "0"], ">= 1"),
    (["ree", "--code", FOUR_TWO_TWO, "--region", "0", "--restarts", "0"], ">= 1"),
    (["verify", "sie", "--qubits", "1"], "2..8"),
    (["verify", "sie", "--qubits", "9"], "2..8"),
    (["ree", "--code", FOUR_TWO_TWO, "--region", "0", "--restarts", "1", "--iterations", "0"],
     "iterations must be >= 1"),
    (["code", "distance", "--file", FIVE_QUBIT, "--cap", "-1"], "cap must be >= 0"),
], ids=["trials", "states", "layers", "restarts", "qubits-1", "qubits-9", "iterations",
        "cap"])
def test_vacuous_requests_exit_two(capsys, argv, message):
    code = dispatch(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("argv", [
    ["bound", "overhead", "--m", "100", "--k", "10", "--p", "0.25",
     "--delta", "0.01", "--depth", "nan"],
    ["bound", "encoding", "--k", "1", "--boundary-sizes", "4,inf"],
], ids=["depth-nan", "boundary-inf"])
def test_non_finite_inputs_exit_two(capsys, argv):
    # a non-finite input would otherwise reach the report as NaN or Infinity
    code = dispatch(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "finite" in captured.err


def test_dependent_generators_found_by_elimination(tmp_path):
    # 24 single-qubit Z generators and their product: a subset search over
    # the 25 generators does not finish
    n = 24
    lines = ["I" * i + "Z" + "I" * (n - 1 - i) for i in range(n)] + ["Z" * n]
    path = tmp_path / "dependent.code"
    path.write_text("\n".join(lines) + "\n")
    proc = run_cli("code", "check", "--file", str(path), timeout=30)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "dependent generators" in proc.stderr


@pytest.fixture
def repetition13(tmp_path):
    path = tmp_path / "repetition13.code"
    path.write_text("".join("I" * i + "ZZ" + "I" * (11 - i) + "\n" for i in range(12)))
    return str(path)


@pytest.mark.parametrize("argv", [
    ["ree", "--code", "{file}", "--region", "0"],
    ["code", "encode", "--file", "{file}"],
], ids=["ree", "encode"])
def test_oversized_dense_paths_exit_two(repetition13, argv):
    proc = run_cli(*(a.format(file=repetition13) for a in argv), timeout=30)
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_entropy_beyond_dense_limit(repetition13):
    # code entropies are GF(2) ranks, so a 13-qubit code needs no dense state
    proc = run_cli("entropy", "--code", repetition13, "--region", "0,5", timeout=30)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert (report["vn_entropy"], report["coherent_info"],
            report["coherent_info_reverse"], report["total_entropy"]) == (1.0, 0.0, 0.0, 1.0)


def test_entropy_code_rejects_a_repeated_qubit(capsys):
    assert dispatch(["entropy", "--code", FIVE_QUBIT, "--region", "0,0"]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv, index", [
    (["entropy", "--code", FIVE_QUBIT, "--region", "9"], 9),
    (["entropy", "--code", FIVE_QUBIT, "--region", "-1"], -1),
    (["entropy", "--code", FOUR_TWO_TWO, "--region", "0,1,2,3,4"], 4),
    (["ree", "--code", FIVE_QUBIT, "--region", "9"], 9),
    (["ree", "--code", "data/repetition3.code", "--region", "0,-1"], -1),
    (["ree", "--code", FOUR_TWO_TWO, "--region", "0,1,2,3,4"], 4),
    (["code", "correctable", "--file", FIVE_QUBIT, "--region", "9,-1"], -1),
    (["verify", "structure-code", "--code", FIVE_QUBIT, "--partition", "0,1;2,3;4,9"], 9),
], ids=["entropy-9", "entropy-neg", "entropy-422-4", "ree-9", "ree-neg", "ree-422-4",
        "correctable", "structure-code"])
def test_region_index_out_of_range_exits_two(capsys, argv, index):
    code = dispatch(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: qubit index {index} out of range\n"


@pytest.mark.parametrize("argv, region", [
    (["code", "correctable", "--file", FIVE_QUBIT, "--region", "0,0"], "[0, 0]"),
    (["entropy", "--code", FIVE_QUBIT, "--region", "0,0"], "[0, 0]"),
    (["ree", "--code", FIVE_QUBIT, "--region", "1,0,1"], "[1, 0, 1]"),
    (["verify", "structure-code", "--code", FIVE_QUBIT, "--partition", "0,0;1,2,3,4"],
     "[0, 0]"),
], ids=["correctable", "entropy", "ree", "structure-code"])
def test_repeated_region_index_exits_two(capsys, argv, region):
    # every --region and every --partition block is refused the same way
    code = dispatch(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: region {region} lists a qubit twice\n"


def test_correctable_beyond_dense_limit(repetition13):
    proc = run_cli("code", "correctable", "--file", repetition13, "--region", "0",
                   timeout=30)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["correctable"] is False


@pytest.mark.parametrize("argv", [
    ["bound", "encoding", "--k", "1", "--d", "3", "--m", "8", "--c1", "0"],
    ["bound", "encoding", "--k", "1", "--d", "3", "--m", "8", "--c1", "-1"],
    ["bound", "syndrome", "--k", "1", "--d", "3", "--m", "8", "--c2", "0"],
], ids=["encoding-c1-0", "encoding-c1-neg", "syndrome-c2-0"])
def test_non_positive_geometry_constants_exit_two(capsys, argv):
    code = dispatch(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "positive" in captured.err


@pytest.mark.parametrize("c, flags, message", [
    ("-5", [], "line 2: c value '-5' must be positive"),
    ("1", ["--kappa", "-1"], "kappa must be positive"),
    ("1", ["--kappa", "0"], "kappa must be positive"),
], ids=["c-negative", "kappa-negative", "kappa-0"])
def test_non_positive_partition_constants_exit_two(tmp_path, capsys, c, flags, message):
    # a non-positive boundary constant makes a negative or zero budget
    path = tmp_path / "line.graph"
    path.write_text(f"dim 1\nc {c}\npoint a 0\npoint b 1\n")
    code = dispatch(["partition", "--graph", str(path), "--lam", "2", *flags])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert message in captured.err


def test_partition_invalid_embedding_exits_two(tmp_path, capsys):
    path = tmp_path / "coincident.graph"
    path.write_text("dim 2\nc 1\npoint a 0 0\npoint b 0 0\nedge a b\n")
    # at lam = 1 the two points share a cell, which the partitioner treats
    # as a broken internal invariant
    code = dispatch(["partition", "--graph", str(path), "--lam", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "spacing violation" in captured.err


@pytest.mark.parametrize("text, lam, message", [
    ("dim 2\npoint a 0 0\ndim 3\npoint b 0 0 0\n", 4, "line 3:"),
    ("dim 0\npoint a\n", 4, "line 1:"),
    ("dim 2\nc nan\npoint a 0 0\n", 4, "line 2:"),
    ("dim 2\nc inf\npoint a 0 0\n", 4, "line 2:"),
    ("dim 2\npoint a nan 0\n", 4, "line 2:"),
    ("dim 2\npoint a 0 0\npoint b 1 0\nedge a a\n", 4, "line 4:"),
    # unit spacing holds, but at lam = 1 the cell side clamps to 1 and
    # both points fall in one cell
    ("dim 2\npoint a 0 0\npoint b 0.9 0.9\n", 1, "cell with 2 > lam = 1 points"),
], ids=["second-dim", "dim-zero", "c-nan", "c-inf", "point-nan", "self-loop", "clamped-cell"])
def test_embedded_graph_errors_exit_two(tmp_path, capsys, text, lam, message):
    path = tmp_path / "bad.graph"
    path.write_text(text)
    code = dispatch(["partition", "--graph", str(path), "--lam", str(lam)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert message in captured.err


def test_verify_sie_nan_circuit_exits_two(tmp_path, capsys):
    path = tmp_path / "nan.circuit"
    path.write_text("qubits 2\nedge 0 1\nlayer\n"
                    "u2 nan 0 0 0 0 1 0 0 0 0 1 0 0 0 0 1 on 0 1\n")
    code = dispatch(["verify", "sie", "--circuit", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "line 4:" in captured.err


def test_partition_large_coordinates(tmp_path, capsys):
    # cells at 2^32 on both axes: a combined row-major cell key overflows
    # int64 and merged two cells into one
    path = tmp_path / "far.graph"
    path.write_text("dim 2\npoint a 0 0\npoint b 4294967296 0\npoint c 0 4294967296\n"
                    "point d 4294967296 4294967296\npoint e 2147483648 2147483648\n")
    code = dispatch(["partition", "--graph", str(path), "--lam", "1"])
    captured = capsys.readouterr()
    assert code == 0
    report = json.loads(captured.out)
    assert report["blocks"] == 5 and report["sizes"] == [1] * 5


def test_partition_huge_coordinate_exits_two(tmp_path, capsys):
    path = tmp_path / "huge.graph"
    path.write_text("dim 1\npoint a 0\npoint b 1e300\npoint c 2e300\n")
    code = dispatch(["partition", "--graph", str(path), "--lam", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "line 3:" in captured.err and "2^52" in captured.err


def test_verify_sie_circuit_qubit_limit(tmp_path):
    # a 30-qubit file would start a 2^30-entry state vector
    path = tmp_path / "wide.circuit"
    path.write_text("qubits 30\n")
    proc = run_cli("verify", "sie", "--circuit", str(path), timeout=30)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "limited to 12 qubits" in proc.stderr


@pytest.mark.parametrize("qubits", [0, 1])
def test_verify_sie_circuit_needs_two_qubits(tmp_path, capsys, qubits):
    # no proper cut exists, so the cut family would be empty
    path = tmp_path / "narrow.circuit"
    path.write_text(f"qubits {qubits}\n")
    code = dispatch(["verify", "sie", "--circuit", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (f"error: verify_sie needs at least 2 qubits (a proper cut); "
                            f"circuit has {qubits}\n")


_COLD_RUN = """
import contextlib, io, json, sys
import locbound
from locbound.cli import dispatch
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(dispatch(argv))
print(json.dumps({"codes": codes,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def cold_dispatch(*argvs):
    """Exit codes of dispatching each argv in turn in one fresh interpreter,
    and the scipy modules loaded by then."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", _COLD_RUN, json.dumps(argvs)], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=120, check=True)
    out = json.loads(proc.stdout)
    return out["codes"], out["scipy"]


def test_scipy_free_commands_load_no_scipy():
    # scipy is imported inside the two functions that use it, so the import
    # and every command that neither searches for an REE upper bound nor
    # validates an embedding stay free of it
    argvs = [
        ["code", "check", "--file", FIVE_QUBIT],
        ["code", "distance", "--file", FIVE_QUBIT],
        ["code", "correctable", "--file", FIVE_QUBIT, "--region", "0,1"],
        ["code", "encode", "--file", FOUR_TWO_TWO],
        ["entropy", "--code", FIVE_QUBIT, "--region", "0,1"],
        ["bound", "overhead", "--m", "100", "--k", "10", "--p", "0.25",
         "--delta", "0.00390625", "--depth", "1"],
        ["bound", "encoding", "--k", "2", "--d", "3", "--m", "8"],
        ["bound", "syndrome", "--k", "15", "--d", "2", "--m", "1", "--dim", "1"],
        ["verify", "sie", "--qubits", "4", "--layers", "5"],
        ["verify", "structure-code", "--code", FIVE_QUBIT, "--partition", "0,1;2,3;4"],
        ["verify", "corr-max", "--code", FIVE_QUBIT, "--states", "2"],
        ["verify", "depth-bound"],
        ["verify", "overhead"],
    ]
    codes, scipy_modules = cold_dispatch(*argvs)
    assert codes == [0] * len(argvs)
    assert scipy_modules == []


def test_scipy_users_run_cold(tmp_path):
    # each deferred scipy import runs on the first call of a fresh interpreter
    codes, scipy_modules = cold_dispatch(["ree", "--code", FOUR_TWO_TWO, "--region", "0",
                                          "--restarts", "1", "--iterations", "20"])
    assert codes == [0] and "scipy.optimize" in scipy_modules

    path = tmp_path / "line.graph"
    path.write_text("dim 1\npoint a 0\npoint b 1\npoint c 2\nedge a b\nedge b c\n")
    codes, scipy_modules = cold_dispatch(["partition", "--graph", str(path), "--lam", "2"])
    assert codes == [0] and "scipy.spatial" in scipy_modules


def test_internal_invariant_failure_exits_three(monkeypatch, capsys):
    # a noise channel that loses trace is a fault of the package, not of the
    # input: exit 3 with a one-line message and no report
    import locbound.circuit as circuit

    depolarize = circuit._depolarize_matrix
    monkeypatch.setattr(circuit, "_depolarize_matrix",
                        lambda mat, dims, pos, p: 0.5 * depolarize(mat, dims, pos, p))
    assert dispatch(["verify", "overhead"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: trace not preserved")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def test_nan_margin_in_a_verifier_exits_three(monkeypatch, capsys):
    # a NaN margin is neither a pass nor a violation of the inequality
    import locbound.verify as verify

    monkeypatch.setattr(verify, "depth_bound_rhs", lambda *args: float("nan"))
    assert dispatch(["verify", "depth-bound"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: NaN margin: value nan")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def test_failed_eigensolver_in_the_ree_search_exits_three(monkeypatch, capsys):
    # LinAlgError is a ValueError, but a failed eigh of the search's own
    # sigma is a fault of the package: exit 3, not the input error 2
    import scipy.linalg.lapack as lapack

    zheevd = lapack.zheevd
    monkeypatch.setattr(lapack, "zheevd", lambda a, lower=0: (*zheevd(a, lower=lower)[:2], 7))
    assert dispatch(["ree", "--code", FOUR_TWO_TWO, "--region", "0"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: REE restart 0: eigh of sigma failed: info 7")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def test_nan_state_in_ree_exits_two_before_any_restart(monkeypatch, capsys):
    from locbound import separability
    from locbound.qstate import DensityMatrix
    from locbound.stabilizer import StabilizerCode

    mixed = StabilizerCode.encoded_maximally_mixed

    def nan_state(code):
        rho = mixed(code)
        mat = rho.matrix.copy()
        mat[1, 0] = float("nan")
        return DensityMatrix(rho.layout, mat, validate=False)

    def no_restart(*args):
        raise AssertionError("a restart ran on a NaN state")

    monkeypatch.setattr(StabilizerCode, "encoded_maximally_mixed", nan_state)
    monkeypatch.setattr(separability, "_lockstep", no_restart)
    assert dispatch(["ree", "--code", FOUR_TWO_TWO, "--region", "0"]) == 2
    assert capsys.readouterr().err == "error: entropy of a state with a non-finite entry\n"


# ---------------------------------------------------------------------------
# CLI contract over argv: exit 0 or 1 with strict JSON on stdout, or exit 2
# with a message on stderr; dispatch never raises.

_INT = st.one_of(st.integers(-3, 40), st.sampled_from([10 ** 6, 2 ** 63, 10 ** 400])).map(str)
_FLOAT = st.one_of(
    st.floats(-1e3, 1e3).map(repr),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["0", "1", "0.5", "1e-300", "1e308", "nan", "inf", "-inf", "x"]),
)
_CODE_FILE = st.sampled_from(
    sorted(str(p) for p in (ROOT / "data").glob("*.code"))
    + [str(ROOT / "data"), str(ROOT / "data" / "missing.code")]  # a directory, no file
)
_REGION = st.one_of(
    st.lists(st.integers(-2, 9), max_size=5).map(lambda qs: ",".join(map(str, qs))),
    st.sampled_from(["", ",", "a", "0,,1"]),
)
_BLOCKS = st.one_of(
    st.lists(_REGION, max_size=4).map(";".join),
    st.sampled_from(["0,1;2,3;4", "0;1;2;3", "0;1;2", ";", "0,1;;2"]),
)
_COORD = st.one_of(
    st.integers(-4, 4).map(str),
    st.sampled_from(["0.5", "4294967296", str(2 ** 52), str(2 ** 53), "1e300", "-1e300",
                     "nan", "inf"]),
)


def _flag(name, values):
    return st.one_of(st.just([]), values.map(lambda v: [name, v]))


def _cat(*parts):
    return st.tuples(*parts).map(lambda ps: [a for p in ps for a in p])


_BOUND_ARGV = st.one_of(
    _cat(st.just(["bound", "encoding"]), _flag("--k", _INT), _flag("--d", _INT),
         _flag("--m", _INT), _flag("--dim", _INT), _flag("--c1", _FLOAT), _flag("--c2", _FLOAT),
         _flag("--boundary-sizes", st.lists(_FLOAT, max_size=3).map(",".join))),
    _cat(st.just(["bound", "syndrome"]), _flag("--k", _INT), _flag("--d", _INT),
         _flag("--m", _INT), _flag("--dim", _INT), _flag("--c1", _FLOAT), _flag("--c2", _FLOAT)),
    _cat(st.just(["bound", "overhead"]), _flag("--m", _INT), _flag("--k", _INT),
         _flag("--p", _FLOAT), _flag("--delta", _FLOAT), _flag("--depth", _FLOAT),
         _flag("--dim", _INT), _flag("--c1", _FLOAT), _flag("--c2", _FLOAT)),
    _cat(st.just(["entropy"]), _flag("--epsilon", _FLOAT)),
)
_CODE_ARGV = st.one_of(
    _cat(st.just(["code", "check"]), _flag("--file", _CODE_FILE)),
    _cat(st.just(["code", "distance"]), _flag("--file", _CODE_FILE), _flag("--cap", _INT)),
    _cat(st.just(["code", "correctable"]), _flag("--file", _CODE_FILE),
         _flag("--region", _REGION)),
    _cat(st.just(["code", "encode"]), _flag("--file", _CODE_FILE),
         st.sampled_from([[], ["--full"]])),
    _cat(st.just(["entropy"]), _flag("--code", _CODE_FILE), _flag("--region", _REGION)),
    _cat(st.just(["verify", "structure-code"]), _flag("--code", _CODE_FILE),
         _flag("--partition", _BLOCKS)),
    _cat(st.just(["verify", "corr-max"]), _flag("--code", _CODE_FILE),
         _flag("--states", st.sampled_from(["1", "2"]))),
)
# one restart of three iterations: about 0.03 s per call on a five-qubit cut
# with one BLAS thread, 0.07 s with two
_REE_ARGV = _cat(st.just(["ree"]), _flag("--code", _CODE_FILE), _flag("--region", _REGION),
                 st.just(["--restarts", "1", "--iterations", "3"]))

# the verify subcommands, with every count drawn from small values or
# invalid tokens: a large valid count would run for minutes. --layers is
# always given, since its default is 100 layers
_VERIFY_ARGV = st.one_of(
    _cat(st.just(["verify", "sie"]),
         _flag("--qubits", st.sampled_from([*map(str, range(1, 10)), "x", "1.5"])),
         st.sampled_from(["0", "1", "2", "3", "x"]).map(lambda v: ["--layers", v]),
         _flag("--seed", _INT)),
    st.sampled_from(["-1", "0", "1", "2", "x", str(10 ** 400)]).map(
        lambda v: ["verify", "appendix", "--trials", v]),
    st.just(["verify", "depth-bound"]),
    _cat(st.just(["verify", "overhead"]), _flag("--dim", _INT), _flag("--c1", _FLOAT),
         _flag("--c2", _FLOAT)),
)


@st.composite
def _graph_text(draw):
    dim = draw(st.integers(1, 3))
    lines = [f"dim {dim}", f"c {draw(st.sampled_from(['1', '2', '1e300', '0', '-1']))}"]
    count = draw(st.integers(1, 6))
    for i in range(count):
        # mostly a unit-spaced line along the first axis, so that many
        # files get past validation and reach the partitioner
        coords = [draw(st.one_of(st.just(str(i)), _COORD))]
        coords += [draw(st.one_of(st.just("0"), _COORD)) for _ in range(dim - 1)]
        lines.append(f"point p{i} " + " ".join(coords))
    for _ in range(draw(st.integers(0, 4))):
        u = draw(st.integers(0, count - 1))
        v = draw(st.one_of(st.just(min(u + 1, count - 1)), st.integers(0, count - 1)))
        lines.append(f"edge p{u} p{v}")
    return "\n".join(lines) + "\n"


_PARTITION = st.tuples(
    _graph_text(),
    _cat(_flag("--lam", _INT), _flag("--kappa", _FLOAT),
         st.sampled_from([[], ["--dense"]])),
)


def _check_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = dispatch(argv)

    def reject(name):
        raise ValueError(f"non-finite JSON constant {name}")

    if code in (0, 1):
        report = json.loads(out.getvalue(), parse_constant=reject)
        assert report["schema"] == 1
    else:
        assert code == 2, (argv, code)
        assert out.getvalue() == ""
        assert err.getvalue().strip(), argv


@settings(max_examples=300, deadline=None)
@given(st.one_of(_BOUND_ARGV, _CODE_ARGV, _REE_ARGV, _VERIFY_ARGV))
def test_cli_argv_contract(argv):
    _check_contract(argv)


@settings(max_examples=150, deadline=None)
@given(_PARTITION)
def test_cli_partition_argv_contract(tmp_path_factory, drawn):
    text, flags = drawn
    path = tmp_path_factory.mktemp("graphs") / "g.graph"
    path.write_text(text)
    _check_contract(["partition", "--graph", str(path), *flags])
