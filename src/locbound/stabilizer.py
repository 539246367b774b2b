"""Pauli algebra, stabilizer codes, syndrome structure, Knill-Laflamme
correctability checks, brute-force minimum distance, and numeric encoding
isometries.

Paulis are held in the symplectic representation P = i^e X(x) Z(z) with
bit vectors x, z and phase exponent e; Y carries e = 1 per qubit so that
Hermitian strings have e = x.z (mod 2). Distance search is exhaustive and
weight-ordered: desk scale, correctness over speed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import Iterable, List, Sequence

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
    def weight(self) -> int:
        return sum(1 for xb, zb in zip(self.x, self.z) if xb or zb)

    @property
    def support(self) -> tuple:
        return tuple(j for j in range(self.n) if self.x[j] or self.z[j])

    @property
    def symplectic(self) -> np.ndarray:
        return np.array(self.x + self.z, dtype=np.uint8)

    def is_hermitian(self) -> bool:
        xz = sum(a & b for a, b in zip(self.x, self.z))
        return (self.phase_exp - xz) % 2 == 0

    def commutes_with(self, other: "Pauli") -> bool:
        return commutes(self, other)

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


def _reduce_against(vec: np.ndarray, rref: np.ndarray, pivots) -> np.ndarray:
    v = vec.copy()
    for row, c in enumerate(pivots):
        if v[c]:
            v ^= rref[row]
    return v


def _gf2_solve(rref: np.ndarray, pivots, target: np.ndarray):
    """Coefficients expressing target as a combination of the rref rows."""
    coeffs = np.zeros(rref.shape[0], dtype=np.uint8)
    v = target.copy()
    for row, c in enumerate(pivots):
        if v[c]:
            coeffs[row] = 1
            v ^= rref[row]
    return (coeffs, True) if not v.any() else (coeffs, False)


class CodeValidationError(ValueError):
    pass


@dataclass(frozen=True)
class CodeParams:
    n: int
    k: int
    d: int


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
        self._rref, self._pivots = _gf2_rref(self.symplectic_matrix)
        self._logicals: List[Pauli] | None = None
        self._projector: np.ndarray | None = None

    @property
    def logical_basis(self) -> List[Pauli]:
        """2k independent centralizer representatives modulo the group."""
        if self._logicals is None:
            self._logicals = self._compute_logicals()
        return list(self._logicals)

    def _compute_logicals(self) -> List[Pauli]:
        found: List[Pauli] = []
        basis_rows = [g.symplectic for g in self.generators]
        for weight in range(1, self.n + 1):
            if len(found) == 2 * self.k:
                break
            for vec in _symplectic_by_weight(self.n, weight):
                if not self._commutes_with_all(vec):
                    continue
                stacked = np.array(basis_rows + [vec], dtype=np.uint8)
                if _gf2_rank(stacked) == len(basis_rows) + 1:
                    basis_rows.append(vec)
                    found.append(_pauli_from_symplectic(self.n, vec))
                    if len(found) == 2 * self.k:
                        break
        return found

    def _commutes_with_all(self, vec: np.ndarray) -> bool:
        x, z = vec[: self.n], vec[self.n :]
        gx = self.symplectic_matrix[:, : self.n]
        gz = self.symplectic_matrix[:, self.n :]
        form = (gx @ z + gz @ x) % 2
        return not form.any()

    def in_group_up_to_phase(self, p: Pauli) -> bool:
        v = _reduce_against(p.symplectic, self._rref, self._pivots)
        return not v.any()

    def syndrome_of(self, p: Pauli) -> tuple:
        """Anticommutation pattern against the generators, as +1/-1 signs."""
        return tuple(1 if commutes(g, p) else -1 for g in self.generators)

    def code_projector(self) -> np.ndarray:
        """Dense projector onto the +1 joint eigenspace of the generators."""
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

    def params(self, cap: int | None = None) -> CodeParams:
        res = min_distance(self, cap)
        d = res.distance if res.distance is not None else res.at_least
        return CodeParams(self.n, self.k, d)

    def __repr__(self):
        return f"StabilizerCode(n={self.n}, k={self.k})"


def _pauli_from_symplectic(n: int, vec: np.ndarray) -> Pauli:
    x = tuple(int(b) for b in vec[:n])
    z = tuple(int(b) for b in vec[n:])
    ys = sum(a & b for a, b in zip(x, z))
    return Pauli(n, x, z, ys % 4)  # Hermitian representative


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
    mat = np.array([g.symplectic for g in gens], dtype=np.uint8)
    rref, pivots = _gf2_rref(mat)
    if len(pivots) < len(gens):
        # find an explicit dependency and inspect its accumulated phase
        for r in range(1, len(gens) + 1):
            for subset in combinations(range(len(gens)), r):
                acc = gens[subset[0]]
                for idx in subset[1:]:
                    acc = acc.multiply(gens[idx])
                if acc.weight == 0:
                    if acc.phase_exp == 2:
                        raise CodeValidationError("-I is in the generated group")
                    raise CodeValidationError(
                        f"dependent generators: product of {subset} is the identity"
                    )
        raise CodeValidationError("dependent generators")
    return StabilizerCode(gens)


# ---------------------------------------------------------------------------
# Distance and correctability


def _symplectic_by_weight(n: int, weight: int):
    """All symplectic vectors of the given weight, in string-lexicographic
    order of their I<X<Y<Z Pauli representation."""
    entries = []
    letter_order = {"X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
    for positions in combinations(range(n), weight):
        for letters in product("XYZ", repeat=weight):
            s = ["I"] * n
            for pos, letter in zip(positions, letters):
                s[pos] = letter
            entries.append(("".join(s), positions, letters))
    entries.sort(key=lambda e: e[0])
    for s, positions, letters in entries:
        vec = np.zeros(2 * n, dtype=np.uint8)
        for pos, letter in zip(positions, letters):
            xb, zb = letter_order[letter]
            vec[pos] = xb
            vec[pos + n] = zb
        yield vec


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


def min_distance(code: StabilizerCode, cap: int | None = None) -> DistanceResult:
    """Smallest weight of a Pauli commuting with all generators but outside
    the stabilizer group (up to phase); exhaustive over weights <= cap.
    """
    if code.n > 12:
        raise ValueError("exhaustive distance search limited to n <= 12")
    cap = code.n if cap is None else min(cap, code.n)
    for weight in range(1, cap + 1):
        for vec in _symplectic_by_weight(code.n, weight):
            if not code._commutes_with_all(vec):
                continue
            if not _reduce_against(vec, code._rref, code._pivots).any():
                continue
            return DistanceResult(weight, weight)
    return DistanceResult(None, cap + 1)


def correctable_region(code: StabilizerCode, region: Iterable[int]) -> bool:
    """Knill-Laflamme check on the region.

    True iff Pi_C P Pi_C = c(P) Pi_C for every Pauli P supported in the
    region; products E^dag F of region-supported Paulis reduce to such P
    up to phase, so this is the full pairwise condition.
    """
    region = sorted(set(region))
    for q in region:
        if not 0 <= q < code.n:
            raise ValueError(f"qubit index {q} out of range")
    proj = code.code_projector()
    dim = 2 ** code.n
    norm = 2 ** code.k
    for letters in product("IXYZ", repeat=len(region)):
        if all(ch == "I" for ch in letters):
            continue
        s = ["I"] * code.n
        for q, ch in zip(region, letters):
            s[q] = ch
        p = parse_pauli("".join(s))
        mid = proj @ p.matrix() @ proj
        c = mid.trace() / norm
        if np.abs(mid - c * proj).max() > 1e-9:
            return False
    return True


# ---------------------------------------------------------------------------
# Encoding isometry and syndrome structure


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


class SyndromeStructure:
    """Lazily enumerated syndrome projectors Pi_s = prod_i (I + s_i M_i)/2."""

    def __init__(self, code: StabilizerCode):
        if code.n > 10:
            raise ValueError("syndrome enumeration limited to n <= 10")
        self.code = code
        self._cache: dict = {}

    def projector(self, syndrome: Sequence[int]) -> np.ndarray:
        s = tuple(int(v) for v in syndrome)
        if len(s) != len(self.code.generators) or any(v not in (-1, 1) for v in s):
            raise ValueError("syndrome must be a +1/-1 vector, one entry per generator")
        if s not in self._cache:
            dim = 2 ** self.code.n
            proj = np.eye(dim, dtype=complex)
            for sign, g in zip(s, self.code.generators):
                proj = proj @ (np.eye(dim) + sign * g.matrix()) / 2
            self._cache[s] = (proj + proj.conj().T) / 2
        return self._cache[s]

    @property
    def code_projector(self) -> np.ndarray:
        return self.projector((1,) * len(self.code.generators))

    def syndromes(self):
        for signs in product((1, -1), repeat=len(self.code.generators)):
            yield signs


def syndrome_projectors(code: StabilizerCode) -> SyndromeStructure:
    return SyndromeStructure(code)


def correction_operator(code: StabilizerCode, syndrome: Sequence[int]) -> Pauli:
    """Minimum-weight Pauli with the given syndrome (lexicographic ties).

    Maps the syndrome subspace C_s into the code space; existence is
    guaranteed because independent generators make the syndrome map
    surjective.
    """
    s = tuple(int(v) for v in syndrome)
    if len(s) != len(code.generators) or any(v not in (-1, 1) for v in s):
        raise ValueError("syndrome must be a +1/-1 vector, one entry per generator")
    if all(v == 1 for v in s):
        return Pauli(code.n, (0,) * code.n, (0,) * code.n, 0)
    for weight in range(1, code.n + 1):
        for vec in _symplectic_by_weight(code.n, weight):
            p = _pauli_from_symplectic(code.n, vec)
            if code.syndrome_of(p) == s:
                return p
    raise RuntimeError("unreachable: every syndrome has a correction operator")


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
