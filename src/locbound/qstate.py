"""Register-labelled density matrices and pure states.

States carry an ordered register layout; the register order fixes the
Kronecker order of the underlying array, and every label-addressed
operation permutes internally, so callers never juggle indices.
A ClassicalQuantumState keeps the classical system as branch records,
tuples of (key, outcome) pairs, instead of a dense register; each record
carries an unnormalized matrix whose trace is the branch weight.
All logarithms elsewhere in the package are base 2 (registers count
qubits), and every value here is immutable after construction.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

HERM_ATOL = 1e-10
PSD_ATOL = 1e-10
TRACE_ATOL = 1e-10
NEGLIGIBLE = 1e-14  # a classical-quantum branch of weight <= this is dropped
MAX_QUBITS = 12  # dense states: circuit files, verify_sie, simulate_module, code_projector


def _is_power_of_two(d: int) -> bool:
    return d >= 1 and (d & (d - 1)) == 0


@dataclass(frozen=True)
class Register:
    """One named quantum subsystem: a label and a power-of-two dimension."""

    label: str
    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"register {self.label!r}: dimension must be >= 1")
        if not _is_power_of_two(self.dim):
            raise ValueError(
                f"register {self.label!r}: quantum dimension {self.dim} is not a power of 2"
            )


class RegisterLayout:
    """Ordered collection of uniquely labelled registers.

    The order defines the tensor (Kronecker) order of matrices and
    vectors over the layout.
    """

    def __init__(self, registers: Iterable[Register]):
        regs = tuple(registers)
        labels = tuple(r.label for r in regs)
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate register labels in {list(labels)}")
        self.registers = regs
        self.labels = labels
        self.dims = tuple(r.dim for r in regs)
        self.dim = int(math.prod(self.dims))
        self._index = {lab: i for i, lab in enumerate(labels)}

    @classmethod
    def qubits(cls, *labels: str) -> "RegisterLayout":
        """Layout of single-qubit quantum registers."""
        return cls(Register(lab, 2) for lab in labels)

    @classmethod
    def of(cls, *specs) -> "RegisterLayout":
        """Layout from (label, dim) tuples."""
        return cls(Register(*spec) for spec in specs)

    def __len__(self) -> int:
        return len(self.registers)

    def __contains__(self, label: str) -> bool:
        return label in self._index

    def __eq__(self, other) -> bool:
        return isinstance(other, RegisterLayout) and self.registers == other.registers

    def __hash__(self):
        return hash(self.registers)

    def __repr__(self):
        inner = ", ".join(f"{r.label}:{r.dim}" for r in self.registers)
        return f"RegisterLayout({inner})"

    def position(self, label: str) -> int:
        if label not in self._index:
            raise KeyError(f"unknown register label {label!r}")
        return self._index[label]

    def positions(self, labels: Iterable[str]) -> tuple:
        return tuple(self.position(lab) for lab in labels)

    def permutation(self, new_order: Sequence[str]) -> tuple:
        """Positions of ``new_order``, which must list every label once."""
        if len(new_order) != len(self) or set(new_order) != self._index.keys():
            raise ValueError("new_order must be a permutation of the layout labels")
        return self.positions(new_order)

    def subset(self, labels: Iterable[str]) -> "RegisterLayout":
        """Sub-layout of the given labels, keeping this layout's order."""
        keep = set(labels)
        for lab in keep:
            self.position(lab)
        return RegisterLayout(r for r in self.registers if r.label in keep)

    def complement(self, labels: Iterable[str]) -> tuple:
        drop = set(labels)
        for lab in drop:
            self.position(lab)
        return tuple(lab for lab in self.labels if lab not in drop)


class DensityMatrix:
    """Trace-one PSD operator over a register layout.

    Construction validates Hermiticity, positivity and unit trace to the
    module tolerances unless ``validate=False`` (used internally after
    channel arithmetic, which keeps a matrix Hermitian to rounding and
    renormalizes).
    """

    def __init__(self, layout: RegisterLayout, matrix, validate: bool = True):
        self.layout = layout
        mat = np.asarray(matrix, dtype=complex)
        d = self.layout.dim
        if mat.shape != (d, d):
            raise ValueError(f"matrix shape {mat.shape} does not match layout dimension {d}")
        if validate:
            if not np.abs(mat - mat.conj().T).max() <= HERM_ATOL:  # NaN fails too
                raise ValueError("matrix is not Hermitian to tolerance")
            evals = np.linalg.eigvalsh((mat + mat.conj().T) / 2)
            if not evals.min() >= -PSD_ATOL:
                raise ValueError(f"matrix has negative eigenvalue {evals.min():.3e}")
            tr = mat.trace().real
            if not abs(tr - 1.0) <= TRACE_ATOL:
                raise ValueError(f"trace {tr!r} is not 1 to tolerance")
        mat.setflags(write=False)
        self.matrix = mat

    @classmethod
    def from_vector(cls, layout, vector) -> "DensityMatrix":
        v = np.asarray(vector, dtype=complex).ravel()
        v = v / np.linalg.norm(v)
        return cls(layout, np.outer(v, v.conj()), validate=False)

    @property
    def dim(self) -> int:
        return self.layout.dim

    def reduced(self, keep: Iterable[str]) -> "DensityMatrix":
        """Reduced state on ``keep``, tracing out everything else."""
        return partial_trace(self, self.layout.complement(keep))

    def permuted(self, new_order: Sequence[str]) -> "DensityMatrix":
        """Same state with registers reordered to ``new_order``."""
        perm = self.layout.permutation(new_order)
        dims = self.layout.dims
        n = len(dims)
        t = self.matrix.reshape(dims + dims)
        t = t.transpose(tuple(perm) + tuple(p + n for p in perm))
        new_layout = RegisterLayout(self.layout.registers[p] for p in perm)
        return DensityMatrix(new_layout, t.reshape(self.dim, self.dim), validate=False)

    def __repr__(self):
        return f"DensityMatrix({self.layout!r})"


class PureState:
    """Unit vector over a register layout."""

    def __init__(self, layout: RegisterLayout, vector, validate: bool = True):
        self.layout = layout
        vec = np.asarray(vector, dtype=complex).ravel()
        if vec.shape != (self.layout.dim,):
            raise ValueError(
                f"vector length {vec.shape[0]} does not match layout dimension {self.layout.dim}"
            )
        if validate and not abs(np.linalg.norm(vec) - 1.0) <= HERM_ATOL:
            raise ValueError("vector norm is not 1 to tolerance")
        vec.setflags(write=False)
        self.vector = vec

    def to_density(self) -> DensityMatrix:
        return DensityMatrix.from_vector(self.layout, self.vector)

    def reduced(self, keep: Iterable[str]) -> DensityMatrix:
        return self.to_density().reduced(keep)

    def permuted(self, new_order: Sequence[str]) -> "PureState":
        """Same state with registers reordered to ``new_order``."""
        perm = self.layout.permutation(new_order)
        dims = self.layout.dims
        t = self.vector.reshape(dims).transpose(perm)
        new_layout = RegisterLayout(self.layout.registers[p] for p in perm)
        return PureState(new_layout, t.ravel(), validate=False)

    def __repr__(self):
        return f"PureState({self.layout!r})"


class ClassicalQuantumState:
    """Mixture of quantum states tagged by classical records.

    Represents states sum_s rho~_s (x) |s><s|_X without a dense classical
    register: the classical side stays structural, which keeps dimensions
    small and makes A:X separability automatic. A branch is (record,
    matrix), where the matrix is the unnormalized rho~_s = q_s rho_s, so
    its trace is the branch weight q_s. A record is the tuple of
    (key, outcome) pairs written so far, oldest first, so ``dict(record)``
    gives the last outcome of each key. A state enters through the
    validated ``from_density``; the channel steps of circuit.py check that
    the total weight is kept.
    """

    def __init__(self, layout: RegisterLayout, branches):
        self.layout = layout
        d = self.layout.dim
        items = []
        for record, mat in branches:
            mat = np.asarray(mat, dtype=complex)
            if mat.shape != (d, d):
                raise ValueError(
                    f"branch matrix shape {mat.shape} does not match layout dimension {d}"
                )
            mat.setflags(write=False)
            items.append((tuple(record), mat))
        if not items:
            raise ValueError("at least one branch required")
        self.branches = tuple(items)

    @classmethod
    def from_density(cls, dm: DensityMatrix) -> "ClassicalQuantumState":
        """One branch with the empty record."""
        return cls(dm.layout, [((), dm.matrix)])

    @functools.cached_property
    def total_weight(self) -> float:
        return float(sum(mat.trace().real for _, mat in self.branches))

    def average_state(self) -> DensityMatrix:
        """Quantum marginal sum_s q_s rho_s (classical register traced out)."""
        acc = sum(mat for _, mat in self.branches)  # from 0, so -0.0 sums to 0.0
        acc /= acc.trace().real
        return DensityMatrix(self.layout, acc, validate=False)

    def merged(self) -> "ClassicalQuantumState":
        """Sum the matrices of branches with equal records; drop branches of
        weight <= NEGLIGIBLE. A record's sum is a copy of its first matrix,
        made when a second one arrives, that the rest add into in place."""
        acc: dict = {}
        for record, mat in self.branches:
            have = acc.get(record)
            if have is None:
                acc[record] = mat
                continue
            if not have.flags.writeable:  # a branch matrix, not yet a sum of ours
                have = acc[record] = have.copy()
            np.add(have, mat, out=have)
        kept = [(rec, mat) for rec, mat in acc.items() if mat.trace().real > NEGLIGIBLE]
        return ClassicalQuantumState(self.layout, kept)

    def __repr__(self):
        return f"ClassicalQuantumState({self.layout!r}, branches={len(self.branches)})"


# ---------------------------------------------------------------------------
# Operations


def partial_trace(rho: DensityMatrix, drop: Iterable[str]) -> DensityMatrix:
    """Trace out the ``drop`` registers, preserving the remaining order.
    A label listed twice raises ValueError."""
    drop = list(drop)
    if len(set(drop)) != len(drop):
        label = next(lab for i, lab in enumerate(drop) if lab in drop[:i])
        raise ValueError(f"register {label!r} listed twice in {drop}")
    positions = sorted(rho.layout.positions(drop), reverse=True)
    dims = list(rho.layout.dims)
    t = rho.matrix.reshape(tuple(dims) + tuple(dims))
    for pos in positions:
        n = len(dims)
        t = np.trace(t, axis1=pos, axis2=pos + n)
        dims.pop(pos)
    keep = rho.layout.subset(rho.layout.complement(drop))
    d = keep.dim
    return DensityMatrix(keep, t.reshape(d, d), validate=False)


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    evals, vecs = np.linalg.eigh(mat)
    # zero out float noise: sqrt would amplify rounding dust to 1e-8
    evals = np.where(evals < 1e-14, 0.0, evals)
    return (vecs * np.sqrt(evals)) @ vecs.conj().T


def fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Uhlmann fidelity, squared convention: (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2.

    Evaluated as the squared nuclear norm of sqrt(rho) sqrt(sigma), which
    is the same quantity with better conditioning.
    """
    if rho.layout != sigma.layout:
        raise ValueError("fidelity requires identical layouts")
    a = _psd_sqrt(rho.matrix)
    b = _psd_sqrt(sigma.matrix)
    s = np.linalg.svd(a @ b, compute_uv=False)
    f = float(s.sum() ** 2)
    return min(max(f, 0.0), 1.0)


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Trace norm ||rho - sigma|| (sum of absolute eigenvalues)."""
    if rho.layout != sigma.layout:
        raise ValueError("trace_distance requires identical layouts")
    diff = rho.matrix - sigma.matrix
    evals = np.linalg.eigvalsh((diff + diff.conj().T) / 2)
    return float(np.abs(evals).sum())


def purify(rho: DensityMatrix) -> PureState:
    """Purification with the reference register R first.

    The reference dimension is the smallest power of two covering the
    rank of rho; tracing the reference back out reproduces rho.
    """
    evals, vecs = np.linalg.eigh(rho.matrix)
    order = np.argsort(evals)[::-1]
    evals = np.clip(evals[order], 0.0, None)
    vecs = vecs[:, order]
    rank = max(1, int(np.count_nonzero(evals > 1e-12)))
    ref_dim = 1 << (rank - 1).bit_length()
    vec = np.zeros((ref_dim, rho.dim), dtype=complex)
    for i in range(rank):
        vec[i] = np.sqrt(evals[i]) * vecs[:, i]
    ref = Register("R", ref_dim)
    layout = RegisterLayout((ref,) + rho.layout.registers)
    v = vec.ravel()
    return PureState(layout, v / np.linalg.norm(v), validate=False)


def max_entangled_state(k: int, label_r: str = "R", label_l: str = "L") -> PureState:
    """Maximally entangled state of k qubit pairs across two 2^k registers."""
    if k < 1:
        raise ValueError("k must be >= 1")
    d = 2 ** k
    layout = RegisterLayout.of((label_r, d), (label_l, d))
    v = np.eye(d, dtype=complex).ravel() / np.sqrt(d)
    return PureState(layout, v, validate=False)
