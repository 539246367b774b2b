from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locbound.circuit import grid_graph
from locbound.entropy import vn_entropy
from locbound.files import ParseError, parse_code_lines, read_code_file
from locbound.partition import grid_partition
from locbound.qstate import DensityMatrix, RegisterLayout, trace_distance
from locbound.stabilizer import (
    FIVE_QUBIT_GENERATORS,
    FOUR_TWO_TWO_GENERATORS,
    REPETITION_3_GENERATORS,
    CodeValidationError,
    StabilizerCode,
    code_entropy,
    correctable_region,
    encoding_isometry,
    five_qubit_code,
    four_two_two_code,
    min_distance,
    parse_pauli,
    pauli_matrix,
    repetition_code,
    validate_code,
    _gf2_rref,
)
from locbound.separability import ree_lower
from locbound.verify import verify_structure_code

STEANE = ("IIIXXXX", "IXXIIXX", "XIXIXIX", "IIIZZZZ", "IZZIIZZ", "ZIZIZIZ")
SHOR = ("ZZIIIIIII", "IZZIIIIII", "IIIZZIIII", "IIIIZZIII", "IIIIIIZZI",
        "IIIIIIIZZ", "XXXXXXIII", "IIIXXXXXX")
SURFACE_3 = ("XXIXXIIII", "IIIIXXIXX", "IXXIIIIII", "IIIIIIXXI",
             "IZZIZZIII", "IIIZZIZZI", "ZIIZIIIII", "IIIIIZIIZ")
NO_LOGICAL = ("XX", "ZZ")  # k = 0: every region is correctable


def gf2_rref_oracle(rows):
    """GF(2) reduced row echelon form and pivot columns, clearing each
    pivot column by a Python loop over the rows."""
    a = np.array(rows, dtype=np.uint8) % 2
    pivots = []
    for c in range(a.shape[1]):
        rank = len(pivots)
        if rank == a.shape[0]:
            break
        hot = np.nonzero(a[rank:, c])[0]
        if hot.size == 0:
            continue
        a[[rank, rank + hot[0]]] = a[[rank + hot[0], rank]]
        for r in range(a.shape[0]):
            if r != rank and a[r, c]:
                a[r] ^= a[rank]
        pivots.append(c)
    return a, pivots


def gf2_rank_oracle(rows):
    return len(gf2_rref_oracle(rows)[1])


def test_gf2_rref_matches_row_loop_oracle():
    # one masked XOR per pivot against the row loop: wide, tall, empty,
    # rank-deficient and non-binary inputs
    rng = np.random.default_rng(24)
    mats = [np.zeros((0, 4), dtype=np.uint8), rng.integers(0, 4, (9, 13))]
    for shape in ((1, 1), (5, 12), (12, 5), (30, 30), (40, 120)):
        for density in (0.1, 0.5):
            mats.append((rng.random(shape) < density).astype(np.uint8))
    mats.append(np.vstack([mats[-1], mats[-1][::2]]))
    for mat in mats:
        rref, pivots = _gf2_rref(mat)
        want, want_pivots = gf2_rref_oracle(mat)
        assert np.array_equal(rref, want) and pivots == want_pivots, mat.shape


def knill_laflamme_oracle(code, region):
    """Dense Knill-Laflamme check: Pi_C P Pi_C = c(P) Pi_C for every Pauli P
    supported in the region."""
    proj = code.code_projector()
    for letters in product("IXYZ", repeat=len(region)):
        s = ["I"] * code.n
        for q, ch in zip(region, letters):
            s[q] = ch
        mid = proj @ pauli_matrix("".join(s)) @ proj
        c = mid.trace() / 2 ** code.k
        if np.abs(mid - c * proj).max() > 1e-9:
            return False
    return True


def test_parse_pauli_round_trip():
    assert parse_pauli("XZZXI") == "XZZXI"
    assert parse_pauli("-IZY") == "-IZY"
    assert parse_pauli("+YY") == "YY"
    assert parse_pauli(" - XZ ") == "-XZ"
    assert validate_code(["XZZXI"]).symplectic_matrix.tolist() == [[1, 0, 0, 1, 0, 0, 1, 1, 0, 0]]
    assert validate_code(["-IZY"]).symplectic_matrix.tolist() == [[0, 0, 1, 0, 1, 1]]
    with pytest.raises(ValueError, match="bad character 'Q'"):
        parse_pauli("XQZ")
    with pytest.raises(ValueError, match="empty Pauli string"):
        parse_pauli("")
    with pytest.raises(ValueError, match="empty Pauli string"):
        parse_pauli("-")


def test_pauli_matrix_and_phase():
    y = pauli_matrix("Y")
    assert np.array_equal(y, np.array([[0, -1j], [1j, 0]]))
    assert np.array_equal(y, y.conj().T)
    assert np.array_equal(pauli_matrix("-Z"), np.array([[-1, 0], [0, 1]]))
    assert np.array_equal(pauli_matrix("-XZ"), -np.kron(pauli_matrix("X"), pauli_matrix("Z")))


def test_validate_code_examples():
    code = five_qubit_code()
    assert (code.n, code.k) == (5, 1)
    # independent oracle for the symplectic rank
    assert gf2_rank_oracle(list(code.symplectic_matrix)) == 4

    rep = repetition_code()
    assert (rep.n, rep.k) == (3, 1)
    assert gf2_rank_oracle(list(rep.symplectic_matrix)) == 2

    with pytest.raises(CodeValidationError, match="-I"):
        validate_code(["Z", "-Z"])
    with pytest.raises(CodeValidationError, match="-I"):
        validate_code(["Z", "Z", "-Z"])  # -I is not the first dependency
    with pytest.raises(CodeValidationError, match="commute"):
        validate_code(["XX", "ZI"])
    with pytest.raises(CodeValidationError, match="dependent"):
        validate_code(["ZZI", "IZZ", "ZIZ"])
    with pytest.raises(CodeValidationError):
        validate_code([])


@pytest.mark.parametrize("gens", [
    ["Z", "-Z"], ["Z", "Z", "-Z"], ["XX", "ZI"], ["ZZI", "IZZ", "ZIZ"], [],
    ["XX", "XX"], ["X", "XZ"],
])
def test_constructor_refuses_what_validate_code_refuses(gens):
    # one checked way to make a code: building it directly checks as much
    with pytest.raises(CodeValidationError) as by_function:
        validate_code(gens)
    with pytest.raises(CodeValidationError) as by_class:
        StabilizerCode(gens)
    assert str(by_class.value) == str(by_function.value)


def dense_validation_oracle(strings):
    """What validate_code must decide, from dense matrices: the message of
    the first non-commuting pair, then "-I" when some product of
    generators is -1, then "dependent" when the GF(2) rank of the bit
    vectors falls short of the count, else None."""
    canonical = [s.lstrip("+") for s in strings]
    mats = [pauli_matrix(s) for s in canonical]
    for (a, ma), (b, mb) in combinations(zip(canonical, mats), 2):
        if not np.allclose(ma @ mb, mb @ ma):
            return f"generators {a} and {b} do not commute"
    eye = np.eye(len(mats[0]))
    for mask in product((False, True), repeat=len(mats)):
        acc = eye
        for on, m in zip(mask, mats):
            if on:
                acc = acc @ m
        if np.allclose(acc, -eye):
            return "-I"
    letters = [s.lstrip("-") for s in canonical]
    rows = [[ch in "XY" for ch in w] + [ch in "YZ" for ch in w] for w in letters]
    if gf2_rank_oracle(rows) < len(rows):
        return "dependent"
    return None


@st.composite
def signed_generator_lists(draw):
    n = draw(st.integers(1, 3))
    string = st.tuples(st.sampled_from(["", "+", "-"]),
                       st.text(alphabet="IXYZ", min_size=n, max_size=n)).map("".join)
    return draw(st.lists(string, min_size=1, max_size=4))


@settings(max_examples=300, deadline=None)
@given(signed_generator_lists())
def test_validate_code_matches_dense_oracle(strings):
    expected = dense_validation_oracle(strings)
    try:
        code = validate_code(strings)
    except CodeValidationError as exc:
        assert expected is not None and expected in str(exc), (strings, str(exc))
        return
    assert expected is None, strings
    assert code.generators == tuple(s.lstrip("+") for s in strings)


def _int64_first_clash(bits, n):
    """The first pair i < j of rows (x | z) of ``bits`` that anticommute,
    by the int64 symplectic product, or None."""
    x, z = bits[:, :n].astype(np.int64), bits[:, n:].astype(np.int64)
    clash = np.argwhere(np.triu(x @ z.T + z @ x.T, 1) % 2)
    return tuple(map(int, clash[0])) if clash.size else None


@pytest.mark.parametrize("seed", range(6))
def test_commutation_check_matches_the_int64_product(seed):
    # CSS rows on n = 300 qubits: X rows [I | A], Z rows in their kernel,
    # so all commute; an odd seed inserts one random row at a random place.
    # The constructor's float64 product must name the int64 product's
    # first clash pair, with the same text.
    rng = np.random.default_rng(seed)
    n, r = 300, 40
    a = rng.integers(0, 2, (r, n - r))
    xs = np.hstack([np.eye(r, dtype=np.int64), a])
    zs = rng.integers(0, 2, (r, n - r)) @ np.hstack([a.T, np.eye(n - r, dtype=np.int64)]) % 2
    bits = np.vstack([np.hstack([xs, 0 * xs]), np.hstack([0 * zs, zs])])
    if seed % 2:
        bits = np.insert(bits, rng.integers(0, 2 * r), rng.integers(0, 2, 2 * n), axis=0)
    gens = ["".join("IXZY"[u + 2 * v] for u, v in zip(row[:n], row[n:])) for row in bits]
    clash = _int64_first_clash(bits, n)
    assert (clash is None) == (seed % 2 == 0)
    if clash is None:
        assert StabilizerCode(gens).n == n
        return
    i, j = clash
    with pytest.raises(CodeValidationError) as exc:
        StabilizerCode(gens)
    assert exc.value.rows == clash
    assert str(exc.value) == f"generators {gens[i]} and {gens[j]} do not commute"


def test_min_distance():
    assert min_distance(five_qubit_code()).distance == 3
    assert min_distance(four_two_two_code()).distance == 2
    assert min_distance(repetition_code()).distance == 1
    for gens in (STEANE, SHOR, SURFACE_3):
        assert min_distance(validate_code(gens)).distance == 3
    assert str(min_distance(validate_code(NO_LOGICAL))) == ">= 3"
    capped = min_distance(five_qubit_code(), cap=2)
    assert not capped.exact
    assert capped.at_least == 3
    assert str(capped) == ">= 3"


def test_correctable_region_examples():
    code = five_qubit_code()
    assert correctable_region(code, [0, 1])
    assert not correctable_region(code, [0, 1, 2])
    assert correctable_region(code, [])


def test_correctable_matches_dense_oracle():
    small = [five_qubit_code(), four_two_two_code(), repetition_code(),
             validate_code(NO_LOGICAL)]
    for code in small:
        for size in range(code.n + 1):
            for region in combinations(range(code.n), size):
                assert correctable_region(code, region) == knill_laflamme_oracle(
                    code, region), (code, region)
    steane = validate_code(STEANE)
    for size in range(3):
        for region in combinations(range(steane.n), size):
            assert correctable_region(steane, region)
            assert knill_laflamme_oracle(steane, region), region
    # XXX on qubits 0, 1, 2 is a logical operator
    assert not correctable_region(steane, (0, 1, 2))
    assert not knill_laflamme_oracle(steane, (0, 1, 2))


def test_correctable_agrees_with_distance():
    for code in (five_qubit_code(), four_two_two_code(), repetition_code()):
        d = min_distance(code).distance
        for size in range(1, d):
            for region in combinations(range(code.n), size):
                assert correctable_region(code, region), (code, region)
        some_bad = any(
            not correctable_region(code, region)
            for region in combinations(range(code.n), d)
        )
        assert some_bad, f"no uncorrectable region of size d for {code}"


# (generators, grid shape of the qubit layout)
DENSE_ORACLE_CODES = (
    (FIVE_QUBIT_GENERATORS, (5,)),
    (FOUR_TWO_TWO_GENERATORS, (2, 2)),
    (REPETITION_3_GENERATORS, (3,)),
    (STEANE, (7,)),
    (SHOR, (3, 3)),
    (SURFACE_3, (3, 3)),
)


def test_code_entropy_matches_dense_oracle():
    for gens, _ in DENSE_ORACLE_CODES:
        code = validate_code(gens)
        rho = code.encoded_maximally_mixed()
        for size in range(code.n + 1):
            for region in combinations(range(code.n), size):
                dense = vn_entropy(rho, [f"q{q}" for q in region])
                assert abs(code_entropy(code, region) - dense) < 1e-12, (gens, region)


def test_structure_code_matches_dense_ree_lower():
    """On the grid partition at lam = d - 1, every per-block value equals
    the dense ree_lower of the block."""
    for gens, shape in DENSE_ORACLE_CODES:
        code = validate_code(gens)
        d = min_distance(code).distance
        if d < 2:
            continue  # no block is below the distance
        graph, emb = grid_graph(shape)
        blocks = [block.tolist() for block in grid_partition(emb, graph, d - 1).blocks]
        report = verify_structure_code(code, blocks)
        rho = code.encoded_maximally_mixed()
        dense = [ree_lower(rho, [f"q{q}" for q in block]) for block in blocks]
        assert report.passed
        assert np.allclose(report.parameters["per_block"], dense, rtol=0.0, atol=1e-12)


def test_code_entropy_beyond_the_dense_limit():
    # a 15-qubit repetition code: Pi_C / 2 is the even mixture of |0...0>
    # and |1...1>, so every nonempty region holds one classical bit
    n = 15
    code = validate_code("I" * i + "ZZ" + "I" * (n - 2 - i) for i in range(n - 1))
    assert code.k == 1
    assert code_entropy(code, []) == 0
    for size in range(1, n + 1):
        for region in combinations(range(n), size):
            assert code_entropy(code, region) == 1, region


def test_code_entropy_rejects_bad_regions():
    code = five_qubit_code()
    with pytest.raises(ValueError, match="twice"):
        code_entropy(code, [0, 0])
    with pytest.raises(ValueError, match="out of range"):
        code_entropy(code, [5])


def test_correctable_region_rejects_bad_regions():
    # the region check code_entropy makes: a repeat is refused, not dropped
    code = five_qubit_code()
    with pytest.raises(ValueError, match=r"^region \[0, 0, 1, 1\] lists a qubit twice$"):
        correctable_region(code, [0, 0, 1, 1])
    with pytest.raises(ValueError, match="out of range"):
        correctable_region(code, [5])


def test_encoding_isometry():
    code = five_qubit_code()
    iso = encoding_isometry(code)
    assert np.abs(iso.conj().T @ iso - np.eye(2)).max() < 1e-10
    # every column sits in the +1 eigenspace of every generator
    for g in code.generators:
        assert np.abs(pauli_matrix(g) @ iso - iso).max() < 1e-10
    # perfect-code check: the encoded maximally entangled state has
    # S(region) = 2 for every two-qubit region
    phi = np.eye(2, dtype=complex).ravel() / np.sqrt(2)
    vec = (iso @ phi.reshape(2, 2).T).T.ravel()
    layout = RegisterLayout.of(("R", 2), *[(f"q{i}", 2) for i in range(5)])
    rho = DensityMatrix.from_vector(layout, vec)
    for region in combinations(range(5), 2):
        labels = [f"q{q}" for q in region]
        assert abs(vn_entropy(rho, labels) - 2.0) < 1e-8


def test_approximate_indistinguishability_at_zero():
    # all code states look identical on a correctable region
    from locbound.verify import random_code_state

    code = five_qubit_code()
    rng = np.random.default_rng(11)
    states = [random_code_state(code, rng, mixed=(i % 2 == 0)) for i in range(20)]
    for region in combinations(range(5), 2):
        labels = [f"q{q}" for q in region]
        reduced = [s.reduced(labels) for s in states]
        for i in range(len(reduced)):
            for j in range(i + 1, len(reduced)):
                assert trace_distance(reduced[i], reduced[j]) < 1e-8


def test_code_file_format(tmp_path):
    text = "# a comment\nXZZXI\n\nIXZZX  # trailing comment\nXIXZZ\nZXIXZ\n"
    path = tmp_path / "five.code"
    path.write_text(text)
    code = read_code_file(path)
    assert (code.n, code.k) == (5, 1)

    with pytest.raises(ParseError) as err:
        parse_code_lines(["XZZXI", "XQZZX"])
    assert "line 2" in str(err.value)

    with pytest.raises(ParseError):
        parse_code_lines(["# nothing"])


@pytest.mark.parametrize("lines, message", [
    (["XX", "# two qubits", "", "XZZ", "ZZ"],
     "line 4: generators act on differing qubit counts: XZZ acts on 3 qubits, XX on 2"),
    (["ZZI", "", "IZZ", "# third", "ZIZ"],
     "line 5: dependent generators: product of lines (1, 3, 5) is the identity"),
    (["XX", "", "ZI"], "line 3: generators XX and ZI do not commute"),
    (["Z", "#", "Z", "-Z"], "line 4: -I is in the generated group"),
], ids=["mixed-length", "dependent", "non-commuting", "minus-identity"])
def test_code_file_errors_name_lines(lines, message):
    # whole-code errors sit at the last line they involve and name
    # generators by file line, not by list position
    with pytest.raises(ParseError) as err:
        parse_code_lines(lines)
    assert str(err.value) == message


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(
    st.text(alphabet="IXYZ+-# ", max_size=8),
    st.text(max_size=8),
), max_size=6))
def test_parse_code_lines_accepts_or_reports(lines):
    # any line list is a code or a ParseError, never another exception
    try:
        code = parse_code_lines(lines)
    except ParseError:
        return
    assert isinstance(code, StabilizerCode)
