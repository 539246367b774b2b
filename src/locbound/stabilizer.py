"""Stabilizer codes on one GF(2) tableau: correctability of regions,
minimum distance, code entropies and numeric encoding isometries.

A generator is its canonical signed string ("XZZXI", "-IZY"): letters over
I, X, Y, Z with a leading "-" when negative, so it is Hermitian by
construction. A code holds those strings and the one symplectic matrix
[X | Z] whose rows are their bit vectors (Aaronson-Gottesman,
quant-ph/0406196); the sign enters only the dense projector. Validation,
correctability (a region is correctable iff it supports no logical
operator) and the distance (the smallest region that fails it) are GF(2)
linear algebra on that matrix. Entropies of the encoded maximally mixed
state are GF(2) ranks too, at any n. The dense code projector serves the
encoders alone, for n <= 12.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from .qstate import MAX_QUBITS, DensityMatrix, RegisterLayout

_I2 = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_SINGLE = {"I": _I2, "X": _X, "Y": _Y, "Z": _Z}


def parse_pauli(text: str) -> str:
    """Canonical form of a signed Pauli string such as "XZZXI", "+YY" or
    "-IZZ": the letters, with a leading "-" when negative."""
    s = text.strip()
    sign = ""
    if s.startswith(("+", "-")):
        sign = "-" if s[0] == "-" else ""
        s = s[1:].strip()
    if not s:
        raise ValueError(f"empty Pauli string in {text!r}")
    for ch in s:
        if ch not in _SINGLE:
            raise ValueError(f"bad character {ch!r} in Pauli string {text!r}")
    return sign + s


def pauli_matrix(string: str) -> np.ndarray:
    """Dense 2^n x 2^n matrix of a canonical signed string (n <= 12)."""
    out = np.array([[-1.0 if string.startswith("-") else 1.0]], dtype=complex)
    for letter in string.lstrip("-"):
        out = np.kron(out, _SINGLE[letter])
    return out


# ---------------------------------------------------------------------------
# GF(2) linear algebra on symplectic rows


def _gf2_rref(mat: np.ndarray):
    """Reduced row echelon form over GF(2); returns (rref, pivot columns)."""
    a = (np.asarray(mat, dtype=np.uint8) % 2).copy()
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        hot = np.nonzero(a[r:, c])[0]
        if hot.size == 0:
            continue
        piv = r + hot[0]
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        hot = a[:, c].astype(bool)
        hot[r] = False
        a[hot] ^= a[r]
        pivots.append(c)
        r += 1
    return a, pivots


def _gf2_rank(mat: np.ndarray) -> int:
    if mat.size == 0:
        return 0
    _, pivots = _gf2_rref(mat)
    return len(pivots)


class CodeValidationError(ValueError):
    """An invalid generator list. ``rows`` are the 0-based positions of the
    generators at fault, and ``template`` is the message with ``{rows}``
    where it names them, so a file parser can name lines instead."""

    def __init__(self, template: str, rows: tuple = ()):
        super().__init__(template.format(rows=rows))
        self.template, self.rows = template, rows


class StabilizerCode:
    """Stabilizer code of commuting, independent signed Pauli strings, held
    as canonical signed strings and their (r, 2n) symplectic matrix.

    The constructor refuses non-commuting pairs, dependent generator
    lists, and lists whose group contains -I (detected by phase
    accumulation on dependent products), with a CodeValidationError.
    Dependence is an error, not a silent reduction.
    """

    def __init__(self, generators: Iterable[str]):
        gens = [parse_pauli(g) for g in generators]
        if not gens:
            raise CodeValidationError("empty generator list")
        widths = [len(g.lstrip("-")) for g in gens]
        odd = next((i for i, w in enumerate(widths) if w != widths[0]), None)
        if odd is not None:
            raise CodeValidationError(
                f"generators act on differing qubit counts: {gens[odd]} acts on "
                f"{widths[odd]} qubits, {gens[0]} on {widths[0]}", (odd,))
        self.generators = tuple(gens)
        letters = np.array([list(g.lstrip("-")) for g in gens])
        self.n = n = letters.shape[1]
        self.k = n - len(gens)
        self.symplectic_matrix = mat = np.hstack(
            [np.isin(letters, ("X", "Y")), np.isin(letters, ("Y", "Z"))]
        ).astype(np.uint8)
        self._projector: np.ndarray | None = None
        # symplectic form in float64, which numpy sends to BLAS (int64 it
        # does not): exact, as every entry is at most 2n < 2^53; argwhere
        # walks the pairs i < j in combinations order
        x, z = mat[:, :n].astype(np.float64), mat[:, n:].astype(np.float64)
        clash = np.argwhere(np.triu(x @ z.T + z @ x.T, 1) % 2)
        if clash.size:
            i, j = clash[0]
            raise CodeValidationError(f"generators {gens[i]} and {gens[j]} do not commute",
                                      (int(i), int(j)))
        # Row-reducing [G | I] leaves the dependencies as the rows whose G part
        # vanishes; their I parts name a basis of the generator subsets whose
        # product is +-I. Products of commuting generators form a group, so -I
        # lies in it iff some basis product is -I. A generator is i^e X(x) Z(z)
        # with e = 2 [negative] + #Y, and X(x) Z(z) X(x') Z(z') picks up
        # (-1)^(z.x').
        rref, pivots = _gf2_rref(np.hstack([mat, np.eye(len(gens), dtype=np.uint8)]))
        rank = sum(c < 2 * n for c in pivots)
        subsets = [tuple(np.flatnonzero(row[2 * n:]).tolist()) for row in rref[rank:]]
        if subsets:
            e = [2 * g.startswith("-") + g.count("Y") for g in gens]
            for subset in subsets:
                acc, phase = np.zeros(n, dtype=np.int64), 0
                for i in subset:
                    phase += e[i] + 2 * int(acc @ mat[i, :n])
                    acc ^= mat[i, n:]
                if phase % 4 == 2:
                    raise CodeValidationError("-I is in the generated group", subset)
            raise CodeValidationError(
                "dependent generators: product of {rows} is the identity", subsets[0])

    def code_projector(self) -> np.ndarray:
        """Dense projector onto the +1 joint eigenspace of the generators."""
        if self.n > MAX_QUBITS:
            raise ValueError(f"dense code projector limited to n <= {MAX_QUBITS}")
        if self._projector is None:
            dim = 2 ** self.n
            proj = np.eye(dim, dtype=complex)
            for g in self.generators:
                proj = proj @ (np.eye(dim) + pauli_matrix(g)) / 2
            self._projector = (proj + proj.conj().T) / 2
        return self._projector

    def state_layout(self) -> RegisterLayout:
        return RegisterLayout.qubits(*(f"q{i}" for i in range(self.n)))

    def encoded_maximally_mixed(self) -> DensityMatrix:
        """The state Pi_C / 2^k on registers q0..q(n-1)."""
        return DensityMatrix(
            self.state_layout(), self.code_projector() / 2 ** self.k, validate=False
        )

    def __repr__(self):
        return f"StabilizerCode(n={self.n}, k={self.k})"


def validate_code(generators: Iterable[str]) -> StabilizerCode:
    """The code of signed Pauli strings; see StabilizerCode for what it
    refuses."""
    return StabilizerCode(generators)


# ---------------------------------------------------------------------------
# Distance and correctability


@dataclass(frozen=True)
class DistanceResult:
    """Either an exact distance or an open-ended lower limit."""

    distance: int | None
    at_least: int

    @property
    def exact(self) -> bool:
        return self.distance is not None

    def __str__(self):
        return str(self.distance) if self.exact else f">= {self.at_least}"


def _region_columns(code: StabilizerCode, region: Sequence[int]) -> np.ndarray:
    """Mask of the region's X and Z columns in the symplectic matrix."""
    on = np.zeros(code.n, dtype=bool)
    on[list(region)] = True
    return np.concatenate([on, on])


def _correctable(code: StabilizerCode, region: Sequence[int]) -> bool:
    """True iff no logical operator is supported in the region (distinct
    in-range qubits).

    The left side counts the Paulis on the region that commute with every
    generator, the right side the stabilizers supported on the region; the
    first set contains the second, so equal counts mean equal sets.
    """
    cols = _region_columns(code, region)
    g = code.symplectic_matrix
    return 2 * len(region) - _gf2_rank(g[:, cols]) == len(g) - _gf2_rank(g[:, ~cols])


def min_distance(code: StabilizerCode, cap: int | None = None) -> DistanceResult:
    """Smallest size of a region that is not correctable, which is the
    smallest weight of a logical operator; exhaustive over sizes <= cap.
    """
    if code.n > 12:
        raise ValueError("exhaustive distance search limited to n <= 12")
    if cap is not None and cap < 0:
        raise ValueError("cap must be >= 0")
    cap = code.n if cap is None else min(cap, code.n)
    for weight in range(1, cap + 1):
        if not all(_correctable(code, r) for r in combinations(range(code.n), weight)):
            return DistanceResult(weight, weight)
    return DistanceResult(None, cap + 1)


def _distinct_qubits(code: StabilizerCode, region: Iterable[int]) -> list:
    """``region`` as a list, refused unless it names distinct qubits of
    ``code``."""
    region = list(region)
    if len(set(region)) != len(region):
        raise ValueError(f"region {region} lists a qubit twice")
    for q in region:
        if not 0 <= q < code.n:
            raise ValueError(f"qubit index {q} out of range")
    return region


def correctable_region(code: StabilizerCode, region: Iterable[int]) -> bool:
    """Knill-Laflamme correctability of the region.

    For a stabilizer code, Pi_C E Pi_C = c(E) Pi_C holds for every Pauli E
    on the region iff the region supports no logical operator (the
    cleaning argument), which is a GF(2) rank test.
    """
    return _correctable(code, _distinct_qubits(code, region))


def code_entropy(code: StabilizerCode, region: Iterable[int]) -> int:
    """Von Neumann entropy S(A), in bits, of the region A (distinct qubit
    indices) in the encoded maximally mixed state Pi_C / 2^k.

    The reduced state is the uniform mixture over the stabilizers supported
    in A, which are the kernel of the generators' restriction to the
    complement; with r = n - k generators this gives
    S(A) = |A| - r + rank(G restricted to the complement)
    (Fattal, Cubitt, Yamamoto, Bravyi, Chuang, quant-ph/0406168).
    """
    region = _distinct_qubits(code, region)
    g = code.symplectic_matrix
    return len(region) - len(g) + _gf2_rank(g[:, ~_region_columns(code, region)])


# ---------------------------------------------------------------------------
# Encoding isometry


def encoding_isometry(code: StabilizerCode) -> np.ndarray:
    """Deterministic isometry U: 2^k -> 2^n with image the code space.

    Columns come from projecting computational basis vectors in
    lexicographic order and orthonormalizing; the logical basis choice is
    arbitrary but fixed, and all verified quantities are invariant to it.
    """
    if code.k < 1:
        raise ValueError("encoding isometry requires k >= 1")
    proj = code.code_projector()
    dim = 2 ** code.n
    want = 2 ** code.k
    cols = []
    for j in range(dim):
        v = proj[:, j].copy()
        for _ in range(2):  # double Gram-Schmidt keeps orthogonality tight
            for c in cols:
                v -= c * (c.conj() @ v)
        norm = np.linalg.norm(v)
        if norm > 1e-10:
            cols.append(v / norm)
            if len(cols) == want:
                break
    if len(cols) != want:
        raise RuntimeError("projector rank below 2^k; generators inconsistent")
    return np.column_stack(cols)


# Standard small codes used throughout the tests and demos.
FIVE_QUBIT_GENERATORS = ("XZZXI", "IXZZX", "XIXZZ", "ZXIXZ")
FOUR_TWO_TWO_GENERATORS = ("XXXX", "ZZZZ")
REPETITION_3_GENERATORS = ("ZZI", "IZZ")


def five_qubit_code() -> StabilizerCode:
    return validate_code(FIVE_QUBIT_GENERATORS)


def four_two_two_code() -> StabilizerCode:
    return validate_code(FOUR_TWO_TWO_GENERATORS)


def repetition_code() -> StabilizerCode:
    return validate_code(REPETITION_3_GENERATORS)
