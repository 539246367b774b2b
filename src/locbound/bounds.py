"""Explicit-constant evaluation of the depth and overhead lower bounds.

Asymptotic statements are exposed only through their explicit-constant
proof forms; the geometry constants c1, c2 are inputs (defaulting to 1)
because the underlying theorems fix none. Floors that go negative are
clamped at 0: a vacuous lower bound is not an error. Every input check
is written so that NaN fails it, and names the argument. For an arbitrary
connectivity graph the same machinery gives the shape
m/k >= log(1/delta) / (const * |boundary|) by partitioning A into about
log(1/delta) sets; that remark is documentation only, the evaluators
below implement the Euclidean forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .entropy import g_slack


@dataclass(frozen=True)
class BoundInputs:
    """Inputs for the overhead floor; f = log_p(delta) is derived."""

    m: int
    k: int
    depth: float
    p: float
    delta: float
    dim: int
    c1: float = 1.0
    c2: float = 1.0

    def __post_init__(self):
        if not 1 <= self.k <= self.m:
            raise ValueError("require 1 <= k <= m")
        if not 0.0 < self.p < 1.0:
            raise ValueError("p must lie in (0, 1); f = log_p(delta) needs p < 1")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if not self.dim >= 1:
            raise ValueError("dim must be >= 1")
        if not self.depth >= 0:
            raise ValueError("depth must be >= 0")
        if not (self.c1 > 0 and self.c2 > 0):
            raise ValueError("c1, c2 must be positive")

    @property
    def f(self) -> float:
        # base-independent ratio log_p(delta) = ln delta / ln p
        return math.log(self.delta) / math.log(self.p)


@dataclass
class BoundReport:
    value: float
    active_branch: str
    intermediates: dict
    satisfiable: bool


def encoding_depth_floor(k: int, boundary_sizes: Sequence[float]) -> float:
    """Depth floor k / (3 sum |dGamma_i|) for any partition of the qubits.

    Returns +inf when the boundary sum vanishes with k > 0 (the bound is
    then infinite: no finite-depth circuit works).
    """
    if not k >= 0:
        raise ValueError(f"k must be >= 0, got {k!r}")
    sizes = [float(b) for b in boundary_sizes]
    if not all(b >= 0 for b in sizes):
        raise ValueError(f"boundary sizes must be >= 0, got {sizes!r}")
    if k == 0:
        return 0.0
    total = sum(sizes)
    if total == 0.0:
        return math.inf
    return k / (3.0 * total)


def encoding_depth_floor_geometric(k: int, d: int, m: int, dim: int,
                                   c1: float = 1.0, c2: float = 1.0) -> float:
    """Explicit-constant form k (d-1)^(1/D) / (3 c1 c2 m) of the encoding
    depth bound, from the partition choice lambda = d - 1."""
    if not d >= 2:
        raise ValueError(f"geometric encoding floor requires d >= 2, got {d!r}")
    if not (m >= 1 and k >= 0):
        raise ValueError(f"require m >= 1 and k >= 0, got m={m!r}, k={k!r}")
    if not dim >= 1:
        raise ValueError(f"dim must be >= 1, got {dim!r}")
    if not (c1 > 0 and c2 > 0):
        raise ValueError(f"c1, c2 must be positive, got c1={c1!r}, c2={c2!r}")
    lam = d - 1
    return k * lam ** (1.0 / dim) / (3.0 * c1 * c2 * m)


def syndrome_depth_floor(k: int, d: int, m: int, dim: int,
                         c1: float = 1.0, c2: float = 1.0) -> float:
    """Syndrome-extraction depth floor: one recovery layer is appended to
    reach the encoding bound, so Delta >= encoding floor - 1 (clamped)."""
    return max(0.0, encoding_depth_floor_geometric(k, d, m, dim, c1, c2) - 1.0)


def depth_bound_rhs(ree_lower_xi: float, delta: float, p: float,
                    gamma_size: int, lam_size: int) -> float:
    """Right side of 3 Delta |dGamma| >= E_R - sqrt(delta/p^|Gamma|)|Lambda|
    - g(sqrt(delta/p^|Gamma|)); the caller compares against 3 Delta |dGamma|.

    Nontrivial only when delta <= p^|Gamma|; beyond that the returned value
    is <= 0 and the inequality is vacuous.
    """
    if not math.isfinite(ree_lower_xi):
        raise ValueError(f"ree_lower_xi must be finite, got {ree_lower_xi!r}")
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must lie in (0, 1], got {p!r}")
    if not delta >= 0.0:
        raise ValueError(f"delta must be >= 0, got {delta!r}")
    if not (gamma_size >= 0 and lam_size >= 0):
        raise ValueError(f"gamma_size, lam_size must be >= 0, got {gamma_size!r}, {lam_size!r}")
    eps = delta / p ** gamma_size
    root = math.sqrt(eps)
    return ree_lower_xi - root * lam_size - g_slack(root)


def overhead_floor(inputs: BoundInputs) -> BoundReport:
    """Main overhead floor m/k >= (1/2) min(f^(1/D) / (3 c1 c2 Delta),
    p^(f/8) / (7 c2)), with the partition scale lambda = f/2.

    Reports both branch values, the active branch, intermediates, and a
    satisfiability verdict against the actual m/k.
    """
    f = inputs.f
    if inputs.depth > 0.0:
        term1 = f ** (1.0 / inputs.dim) / (3.0 * inputs.c1 * inputs.c2 * inputs.depth)
    else:
        term1 = math.inf  # zero-depth circuits make the first branch unconstraining
    term2 = inputs.p ** (f / 8.0) / (7.0 * inputs.c2)
    value = 0.5 * min(term1, term2)
    active = "partition" if term1 <= term2 else "p^(f/8)"
    return BoundReport(
        value=value,
        active_branch=active,
        intermediates={
            "f": f,
            "lambda": f / 2.0,
            "ell": inputs.c2 * inputs.m / (f / 2.0),
            "term_partition": term1,
            "term_noise": term2,
            "m": inputs.m,
            "k": inputs.k,
            "depth": inputs.depth,
            "p": inputs.p,
            "delta": inputs.delta,
            "dim": inputs.dim,
            "c1": inputs.c1,
            "c2": inputs.c2,
            "ratio_m_over_k": inputs.m / inputs.k,
        },
        satisfiable=inputs.m / inputs.k >= value,
    )
