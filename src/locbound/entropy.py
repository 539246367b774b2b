"""Entropic functionals in bits: von Neumann and relative entropy,
coherent information, conditional mutual information, and the binary
entropy / continuity-slack functions h and g.

Matrix logarithms go through Hermitian eigendecompositions only, and
every spectrum entropy -sum lam log2 lam is formed by `_spectrum_entropy`.
Relative entropy is a plain float: +inf when supp(rho) is not contained
in supp(sigma), where the support cutoff separates genuine violations
from float noise.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from .qstate import DensityMatrix

EIG_CUTOFF = 1e-12  # treat eigenvalues below this as 0 in x log x
SUPPORT_CUTOFF = 1e-10  # kernel threshold for the support test


def _spectrum_entropy(evals: np.ndarray) -> float:
    """-sum lam log2 lam over the eigenvalues above EIG_CUTOFF, in bits."""
    lam = evals[evals > EIG_CUTOFF]
    return float(-(lam * np.log2(lam)).sum())


def vn_entropy(rho: DensityMatrix, subset: Iterable[str] | None = None) -> float:
    """Von Neumann entropy S(subset) of the reduced state, in bits."""
    if subset is not None:
        subset = list(subset)
        rho = rho.reduced(subset)
    if not np.isfinite(rho.matrix).all():  # NaN eigenvalues would drop out of the sum
        raise ValueError("entropy of a state with a non-finite entry")
    evals = np.linalg.eigvalsh(rho.matrix)
    return _spectrum_entropy(np.clip(evals, 0.0, None))


def relative_entropy(rho: DensityMatrix, sigma) -> float:
    """Relative entropy D(rho || sigma) = tr rho (log rho - log sigma), in bits.

    ``sigma`` may be a DensityMatrix or any Hermitian PSD array of the
    same dimension (e.g. the non-normalized operator I (x) rho_B).
    Returns ``math.inf`` when supp(rho) is not contained in supp(sigma).
    """
    if isinstance(sigma, DensityMatrix):
        if rho.layout != sigma.layout:
            raise ValueError("relative_entropy requires identical layouts")
        sig = sigma.matrix
    else:
        sig = np.asarray(sigma, dtype=complex)
        if sig.shape != rho.matrix.shape:
            raise ValueError("sigma dimension mismatch")
    s_evals, s_vecs = np.linalg.eigh(sig)
    kernel = s_evals <= SUPPORT_CUTOFF
    if kernel.any():
        proj = s_vecs[:, kernel]
        leak = float(np.einsum("ik,ij,jk->", proj.conj(), rho.matrix, proj).real)
        if leak > SUPPORT_CUTOFF:
            return math.inf
    tr_rho_log_rho = -_spectrum_entropy(np.clip(np.linalg.eigvalsh(rho.matrix), 0.0, None))
    # tr(rho log sigma) restricted to the support of sigma
    log_s = np.where(s_evals > SUPPORT_CUTOFF, np.log2(np.clip(s_evals, SUPPORT_CUTOFF, None)), 0.0)
    rho_in_s = s_vecs.conj().T @ rho.matrix @ s_vecs
    tr_rho_log_sig = float((np.diag(rho_in_s).real * log_s).sum())
    return tr_rho_log_rho - tr_rho_log_sig


def _check_partition(rho: DensityMatrix, *parts) -> None:
    seen: set = set()
    for part in parts:
        for lab in part:
            rho.layout.position(lab)
            if lab in seen:
                raise ValueError(f"register {lab!r} appears on both sides")
            seen.add(lab)
    if seen != set(rho.layout.labels):
        raise ValueError("cut must cover the full layout")


def coherent_info(rho: DensityMatrix, a: Iterable[str]) -> float:
    """Coherent information I(A>B) = S(B) - S(AB), B the complement of A."""
    a = list(a)
    b = rho.layout.complement(a)
    _check_partition(rho, a, b)
    return vn_entropy(rho, b) - vn_entropy(rho)


def cond_mutual_info(rho: DensityMatrix, a, b, c) -> float:
    """Conditional mutual information I(A:B|C) = S(A|C) - S(A|BC)."""
    a, b, c = list(a), list(b), list(c)
    _check_partition(rho, a, b, c)
    s_ac = vn_entropy(rho, a + c)
    s_c = vn_entropy(rho, c) if c else 0.0
    s_abc = vn_entropy(rho)
    s_bc = vn_entropy(rho, b + c)
    return (s_ac - s_c) - (s_abc - s_bc)


def binary_entropy(x: float) -> float:
    """h(x) = -x log2 x - (1-x) log2 (1-x)."""
    if not 0.0 <= x <= 1.0:
        raise ValueError("binary entropy argument must lie in [0, 1]")
    out = 0.0
    if x > 0.0:
        out -= x * np.log2(x)
    if x < 1.0:
        out -= (1.0 - x) * np.log2(1.0 - x)
    return float(out)


def g_slack(x: float) -> float:
    """g(x) = (1 + x) h(x / (1 + x)), valid for any x >= 0.

    This is the continuity slack term; arguments above 1 only occur in
    saturated bound evaluations, where the formula remains well defined.
    """
    if not x >= 0.0:  # NaN fails it too
        raise ValueError(f"g argument x must be nonnegative, got {x!r}")
    if x == 0.0:
        return 0.0
    return float((1.0 + x) * binary_entropy(x / (1.0 + x)))


def g_continuity(eps: float) -> tuple:
    """(h(eps), g(eps)) for eps in [0, 1]."""
    if not 0.0 <= eps <= 1.0:
        raise ValueError("epsilon must lie in [0, 1]")
    return binary_entropy(eps), g_slack(eps)
