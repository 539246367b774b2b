"""Pauli algebra, stabilizer codes, correctability of regions, minimum
distance, and numeric encoding isometries.

Paulis are held in the symplectic representation P = i^e X(x) Z(z) with
bit vectors x, z and phase exponent e; Y carries e = 1 per qubit so that
Hermitian strings have e = x.z (mod 2). Correctability is a GF(2) rank
test on the generator matrix (a region is correctable iff it supports no
logical operator), and the distance is the smallest region that fails it.
Entropies of the encoded maximally mixed state are GF(2) ranks too, at any
n. The dense code projector serves the encoders alone, for n <= 12.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from .qstate import DensityMatrix, ParseError, RegisterLayout

_I2 = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_SINGLE = {"I": _I2, "X": _X, "Y": _Y, "Z": _Z}

_LETTER_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_BITS_LETTER = {v: k for k, v in _LETTER_BITS.items()}
_PHASES = {0: "", 1: "i", 2: "-", 3: "-i"}


class PauliError(ValueError):
    pass


@dataclass(frozen=True)
class Pauli:
    """n-qubit Pauli operator i^phase_exp * X(x) Z(z)."""

    n: int
    x: tuple
    z: tuple
    phase_exp: int = 0

    def __post_init__(self):
        if len(self.x) != self.n or len(self.z) != self.n:
            raise PauliError("bit vector length must equal n")

    @property
    def symplectic(self) -> np.ndarray:
        return np.array(self.x + self.z, dtype=np.uint8)

    def is_hermitian(self) -> bool:
        xz = sum(a & b for a, b in zip(self.x, self.z))
        return (self.phase_exp - xz) % 2 == 0

    def multiply(self, other: "Pauli") -> "Pauli":
        """Group product self * other with exact phase tracking."""
        if self.n != other.n:
            raise PauliError("length mismatch")
        # X(x)Z(z) X(x')Z(z') = (-1)^{z.x'} X(x+x') Z(z+z')
        cross = sum(a & b for a, b in zip(self.z, other.x))
        phase = (self.phase_exp + other.phase_exp + 2 * cross) % 4
        x = tuple((a ^ b) for a, b in zip(self.x, other.x))
        z = tuple((a ^ b) for a, b in zip(self.z, other.z))
        return Pauli(self.n, x, z, phase)

    def matrix(self) -> np.ndarray:
        """Dense 2^n x 2^n matrix (n <= 12)."""
        out = np.array([[1.0 + 0j]])
        extra = 0
        for xb, zb in zip(self.x, self.z):
            letter = _BITS_LETTER[(xb, zb)]
            if letter == "Y":
                extra += 1  # Y = i X Z
            out = np.kron(out, _SINGLE[letter])
        return (1j ** ((self.phase_exp - extra) % 4)) * out

    def __str__(self) -> str:
        letters = "".join(_BITS_LETTER[(xb, zb)] for xb, zb in zip(self.x, self.z))
        ys = letters.count("Y")
        rem = (self.phase_exp - ys) % 4
        return _PHASES[rem] + letters

    def __repr__(self) -> str:
        return f"Pauli({str(self)!r})"


def parse_pauli(text: str) -> Pauli:
    """Parse a signed Pauli string such as "XZZXI" or "-IZZ"."""
    s = text.strip()
    phase = 0
    if s.startswith(("+", "-")):
        if s[0] == "-":
            phase = 2
        s = s[1:].strip()
    if not s:
        raise PauliError(f"empty Pauli string in {text!r}")
    x, z = [], []
    for ch in s:
        if ch not in _LETTER_BITS:
            raise PauliError(f"bad character {ch!r} in Pauli string {text!r}")
        xb, zb = _LETTER_BITS[ch]
        x.append(xb)
        z.append(zb)
    ys = s.count("Y")
    return Pauli(len(s), tuple(x), tuple(z), (phase + ys) % 4)


def commutes(p: Pauli, q: Pauli) -> bool:
    """Commutation via the symplectic form x_p.z_q + z_p.x_q (mod 2)."""
    if p.n != q.n:
        raise PauliError("length mismatch")
    form = sum(a & d for a, d in zip(p.x, q.z)) + sum(a & d for a, d in zip(p.z, q.x))
    return form % 2 == 0


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
        for rr in range(rows):
            if rr != r and a[rr, c]:
                a[rr] ^= a[r]
        pivots.append(c)
        r += 1
    return a, pivots


def _gf2_rank(mat: np.ndarray) -> int:
    if mat.size == 0:
        return 0
    _, pivots = _gf2_rref(mat)
    return len(pivots)


class CodeValidationError(ValueError):
    pass


class StabilizerCode:
    """Validated stabilizer code: commuting, independent Hermitian generators.

    Use :func:`validate_code` to construct; the constructor assumes the
    checks already ran.
    """

    def __init__(self, generators: Sequence[Pauli]):
        self.generators = tuple(generators)
        self.n = self.generators[0].n
        self.k = self.n - len(self.generators)
        self.symplectic_matrix = np.array(
            [g.symplectic for g in self.generators], dtype=np.uint8
        )
        self._projector: np.ndarray | None = None

    def code_projector(self) -> np.ndarray:
        """Dense projector onto the +1 joint eigenspace of the generators."""
        if self.n > 12:
            raise ValueError("dense code projector limited to n <= 12")
        if self._projector is None:
            dim = 2 ** self.n
            proj = np.eye(dim, dtype=complex)
            for g in self.generators:
                proj = proj @ (np.eye(dim) + g.matrix()) / 2
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


def validate_code(generators: Iterable) -> StabilizerCode:
    """Validate generators and build the code.

    Rejects non-commuting pairs, dependent generator lists, and lists
    whose group contains -I (detected by phase accumulation on dependent
    products). Dependence is an error, not a silent reduction.
    """
    gens = [g if isinstance(g, Pauli) else parse_pauli(g) for g in generators]
    if not gens:
        raise CodeValidationError("empty generator list")
    n = gens[0].n
    if any(g.n != n for g in gens):
        raise CodeValidationError("generators act on differing qubit counts")
    for g in gens:
        if not g.is_hermitian():
            raise CodeValidationError(f"generator {g} is not Hermitian")
    for i, j in combinations(range(len(gens)), 2):
        if not commutes(gens[i], gens[j]):
            raise CodeValidationError(
                f"generators {gens[i]} and {gens[j]} do not commute"
            )
    # Row-reducing [G | I] leaves the dependencies as the rows whose G part
    # vanishes; their I parts name a basis of the generator subsets whose
    # product is +-I. Products of commuting generators form a group, so -I
    # lies in it iff some basis product is -I.
    mat = np.array([g.symplectic for g in gens], dtype=np.uint8)
    rref, pivots = _gf2_rref(np.hstack([mat, np.eye(len(gens), dtype=np.uint8)]))
    rank = sum(c < 2 * n for c in pivots)
    subsets = [tuple(np.flatnonzero(row[2 * n:]).tolist()) for row in rref[rank:]]
    if subsets:
        for subset in subsets:
            acc = gens[subset[0]]
            for idx in subset[1:]:
                acc = acc.multiply(gens[idx])
            if acc.phase_exp == 2:
                raise CodeValidationError("-I is in the generated group")
        raise CodeValidationError(
            f"dependent generators: product of {subsets[0]} is the identity"
        )
    return StabilizerCode(gens)


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
    cap = code.n if cap is None else min(cap, code.n)
    for weight in range(1, cap + 1):
        if not all(_correctable(code, r) for r in combinations(range(code.n), weight)):
            return DistanceResult(weight, weight)
    return DistanceResult(None, cap + 1)


def correctable_region(code: StabilizerCode, region: Iterable[int]) -> bool:
    """Knill-Laflamme correctability of the region.

    For a stabilizer code, Pi_C E Pi_C = c(E) Pi_C holds for every Pauli E
    on the region iff the region supports no logical operator (the
    cleaning argument), which is a GF(2) rank test.
    """
    region = sorted(set(region))
    for q in region:
        if not 0 <= q < code.n:
            raise ValueError(f"qubit index {q} out of range")
    return _correctable(code, region)


def code_entropy(code: StabilizerCode, region: Iterable[int]) -> int:
    """Von Neumann entropy S(A), in bits, of the region A (distinct qubit
    indices) in the encoded maximally mixed state Pi_C / 2^k.

    The reduced state is the uniform mixture over the stabilizers supported
    in A, which are the kernel of the generators' restriction to the
    complement; with r = n - k generators this gives
    S(A) = |A| - r + rank(G restricted to the complement)
    (Fattal, Cubitt, Yamamoto, Bravyi, Chuang, quant-ph/0406168).
    """
    region = list(region)
    if len(set(region)) != len(region):
        raise ValueError(f"region {region} lists a qubit twice")
    for q in region:
        if not 0 <= q < code.n:
            raise ValueError(f"qubit index {q} out of range")
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


# ---------------------------------------------------------------------------
# Code file format: one signed Pauli string per line, '#' comments


def parse_code_lines(lines: Iterable[str]) -> StabilizerCode:
    gens = []
    for line_no, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        try:
            gens.append(parse_pauli(text))
        except PauliError as exc:
            raise ParseError(line_no, str(exc)) from exc
    if not gens:
        raise ParseError(0, "no generators found")
    try:
        return validate_code(gens)
    except CodeValidationError as exc:
        raise ParseError(0, str(exc)) from exc


def read_code_file(path) -> StabilizerCode:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_code_lines(fh)


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
