"""Relative entropy of entanglement: certified lower bounds from coherent
information, and numerical upper bounds by minimizing D(rho || sigma) over
explicitly separable ensembles.

The upper-bound search is a multi-restart local search over ensemble
parameters (softmax weights, unit-vector pure product factors); every
feasible point assembles to a separable state, so any returned value is a
sound upper bound regardless of convergence. One decode maps parameters to
an ensemble and one assembly maps an ensemble to sigma, for the objective
and the returned witness alike; the reported value is D(rho || sigma) from
`relative_entropy`. Restart seeds derive from the master seed, so results
are deterministic for a given budget. The restarts run on one OpenBLAS
thread (_one_blas_thread), which the products' small size favours.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .circuit import _one_blas_thread
from .entropy import _check_partition, relative_entropy, vn_entropy
from .qstate import DensityMatrix
from .rand import DEFAULT_SEED, rng_from

DEFAULT_RESTARTS = 20
DEFAULT_ITERATIONS = 2000
STOP_MARGIN = 5e-4  # ree_bracket stops restarting once upper <= lower + this
MAX_REE_DIM = 64  # total dimension the ensemble search accepts

_LN2 = np.log(2.0)
_EIG_FLOOR = 1e-18


@dataclass
class SeparableEnsemble:
    """Convex mixture of pure product states across a fixed cut.

    The assembled state is separable by construction: each term is
    weight * |a><a| (x) |b><b| with unit vectors a, b, in the register
    order (A side then B side).
    """

    weights: np.ndarray
    a_factors: np.ndarray  # (terms, dim_A), rows unit norm
    b_factors: np.ndarray  # (terms, dim_B), rows unit norm

    def assemble(self, layout) -> DensityMatrix:
        """Assembled separable state on the given (A then B) layout."""
        sigma, _ = _assemble(self.weights, self.a_factors, self.b_factors)
        return DensityMatrix(layout, sigma, validate=False)


@dataclass(frozen=True)
class ReeBracket:
    lower: float
    upper: float
    ensemble: SeparableEnsemble
    restarts_run: int = 0
    iterations_run: int = 0
    converged: bool = False


def _split_cut(rho: DensityMatrix, a, b):
    a = tuple(a)
    b = tuple(rho.layout.complement(a)) if b is None else tuple(b)
    _check_partition(rho, a, b)
    if not a or not b:
        raise ValueError("both sides of the cut must be nonempty")
    return a, b


def ree_lower(rho: DensityMatrix, a: Iterable[str], b: Iterable[str] | None = None) -> float:
    """Certified lower bound max(I(A>B), I(B>A), 0) on the REE."""
    return _ree_lower(rho, *_split_cut(rho, a, b))


def _ree_lower(rho: DensityMatrix, a: tuple, b: tuple) -> float:
    """max(S(B) - S(AB), S(A) - S(AB), 0) on a resolved cut."""
    s_ab = vn_entropy(rho)
    return max(vn_entropy(rho, b) - s_ab, vn_entropy(rho, a) - s_ab, 0.0)


# ---------------------------------------------------------------------------
# Upper bound: projected local search over ensemble parameters


def _decode(theta, terms, da, db):
    """Parameters -> (softmax weights p, unit factors a_hat, b_hat, and the
    factor norms |a|, |b| the tangential gradient divides by)."""
    t, na = terms, terms * da
    w = theta[:t]
    xa = theta[t : t + 2 * na].reshape(2, t, da)  # real and imaginary parts
    xb = theta[t + 2 * na :].reshape(2, t, db)
    ra = np.sqrt((xa * xa).sum(axis=(0, 2)))
    rb = np.sqrt((xb * xb).sum(axis=(0, 2)))
    ra += ra < 1e-30  # a zero factor is divided by 1
    rb += rb < 1e-30
    ew = np.exp(w - w.max())
    a = (xa[0] + 1j * xa[1]) / ra[:, None]
    b = (xb[0] + 1j * xb[1]) / rb[:, None]
    return ew / ew.sum(), a, b, ra, rb


def _assemble(p, ah, bh):
    """sigma = sum_t p_t |a_t b_t><a_t b_t| (Hermitian-symmetrized) and the
    product vectors a_t (x) b_t as rows."""
    c = (ah[:, :, None] * bh[:, None, :]).reshape(len(p), -1)
    sigma = (c.T * p) @ c.conj()
    return (sigma + sigma.conj().T) / 2, c


def _pack(w, a, b):
    return np.concatenate(
        [w, a.real.ravel(), a.imag.ravel(), b.real.ravel(), b.imag.ravel()]
    )


def _objective_and_grad(theta, rho_mat, terms, da, db, tr_rho_log_rho):
    p, ah, bh, ra, rb = _decode(theta, terms, da, db)
    sigma, c = _assemble(p, ah, bh)

    lam, v = np.linalg.eigh(sigma)
    lam_c = np.maximum(lam, _EIG_FLOOR)
    log_l = np.log(lam_c)
    rho_t = v.conj().T @ rho_mat @ v
    f = tr_rho_log_rho - float(rho_t.diagonal().real @ log_l) / _LN2

    # Daleckii-Krein divided differences of ln on sigma's spectrum; a pair
    # closer than 1e-14 keeps the mean of 1/lambda, the derivative's limit
    dl = lam_c[:, None] - lam_c[None, :]
    inv = 1.0 / lam_c
    phi = (inv[:, None] + inv[None, :]) / 2
    np.divide(log_l[:, None] - log_l[None, :], dl, out=phi, where=np.abs(dl) > 1e-14)
    m = v @ (rho_t * phi) @ v.conj().T  # d tr(rho ln sigma)[dsigma] = tr(M dsigma)

    # row t of mc is M |a_t b_t>; every factor gradient contracts it once
    mc = (c @ m.T).reshape(terms, da, db)
    ah_c = ah.conj()
    qa = np.einsum("tj,tij->ti", bh.conj(), mc)  # <b_t| M |a_t b_t>, on A
    rb_v = np.einsum("ti,tij->tj", ah_c, mc)  # <a_t| M |a_t b_t>, on B
    cmc = np.einsum("ti,ti->t", ah_c, qa).real  # <a_t b_t| M |a_t b_t>

    # weights (softmax chain rule)
    gamma = cmc / -_LN2
    grad_w = p * (gamma - p @ gamma)

    # factors: tangential gradient through normalization
    coef = -2.0 * p / _LN2
    ga = (coef / ra)[:, None] * (qa - cmc[:, None] * ah)
    gb = (coef / rb)[:, None] * (rb_v - cmc[:, None] * bh)
    return f, _pack(grad_w, ga, gb)


def _schmidt_terms(vec, da, db):
    mat = vec.reshape(da, db)
    u, s, vh = np.linalg.svd(mat)
    out = []
    for i in range(len(s)):
        if s[i] ** 2 > 1e-14:
            out.append((s[i] ** 2, u[:, i], vh[i, :]))
    return out


def _initial_theta(restart, rng, rho_mat, terms, da, db):
    a = rng.standard_normal((terms, da)) + 1j * rng.standard_normal((terms, da))
    b = rng.standard_normal((terms, db)) + 1j * rng.standard_normal((terms, db))
    w = np.full(terms, -12.0)
    if restart == 0:
        # eigenvector Schmidt ansatz: exact minimizer for pure inputs
        evals, evecs = np.linalg.eigh(rho_mat)
        slots = []
        for e in range(len(evals) - 1, -1, -1):
            if evals[e] > 1e-12:
                for sw, av, bv in _schmidt_terms(evecs[:, e], da, db):
                    slots.append((evals[e] * sw, av, bv))
        slots.sort(key=lambda item: -item[0])
        for t, (sw, av, bv) in enumerate(slots[:terms]):
            w[t] = np.log(max(sw, 1e-12))
            a[t] = av
            b[t] = bv
    elif restart == 1:
        # computational product basis, term t = (i, j) in row-major order:
        # sigma ~ maximally mixed
        a[:da * db] = np.repeat(np.eye(da), db, axis=0)
        b[:da * db] = np.tile(np.eye(db), (da, 1))
        w[:da * db] = 0.0
    else:
        w = rng.standard_normal(terms)
    return _pack(w, a, b)


def _run_restart(restart, seed, rho_mat, terms, da, db, tr_rho_log_rho, iterations):
    from scipy.optimize import minimize  # on first use: scipy triples `import locbound`

    rng = rng_from(seed)
    theta0 = _initial_theta(restart, rng, rho_mat, terms, da, db)
    res = minimize(
        _objective_and_grad,
        theta0,
        args=(rho_mat, terms, da, db, tr_rho_log_rho),
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": iterations, "ftol": 1e-14, "gtol": 1e-12},
    )
    p, ah, bh, _, _ = _decode(res.x, terms, da, db)
    return SeparableEnsemble(p, ah, bh), int(res.nit), bool(res.success)


def ree_upper(
    rho: DensityMatrix,
    a: Iterable[str],
    b: Iterable[str] | None = None,
    restarts: int = DEFAULT_RESTARTS,
    iterations: int = DEFAULT_ITERATIONS,
    seed: int = DEFAULT_SEED,
    stop_at: float | None = None,
):
    """Upper bound on the REE across the cut, with the witness ensemble.

    Returns (value, SeparableEnsemble). The value is D(rho || sigma) for
    the best separable sigma found; it is monotone non-increasing in the
    budget and always a valid upper bound. ``stop_at`` skips remaining
    restarts once the bound reaches that value (used by ree_bracket).
    """
    bracket = _ree_upper_bracket(rho, *_split_cut(rho, a, b), restarts, iterations, seed,
                                 stop_at)
    return bracket.upper, bracket.ensemble


def _ree_upper_bracket(rho, a_labels, b_labels, restarts, iterations, seed,
                       stop_at, lower: float = 0.0) -> ReeBracket:
    """The ensemble search on a resolved cut (a_labels, b_labels), as a
    bracket with the given certified ``lower`` bound."""
    if rho.dim > MAX_REE_DIM:
        raise ValueError(f"ree_upper supports total dimension <= {MAX_REE_DIM}")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    rho_p = rho.permuted(list(a_labels) + list(b_labels))
    da = rho_p.layout.subset(a_labels).dim
    db = rho_p.layout.subset(b_labels).dim
    terms = (da * db) ** 2
    rho_mat = rho_p.matrix
    tr_rho_log_rho = -vn_entropy(rho_p)

    seeds = np.random.SeedSequence(seed).spawn(restarts)

    best_val = np.inf
    best_ens = None
    total_iters = 0
    restarts_run = 0
    any_success = False

    with _one_blas_thread():
        for r in range(restarts):
            ens, nit, ok = _run_restart(
                r, seeds[r], rho_mat, terms, da, db, tr_rho_log_rho, iterations
            )
            v = max(relative_entropy(rho_p, ens.assemble(rho_p.layout)), 0.0)
            total_iters += nit
            restarts_run += 1
            any_success = any_success or ok
            if v < best_val:
                best_val, best_ens = v, ens
            if stop_at is not None and best_val <= stop_at + 1e-12:
                break

    return ReeBracket(
        lower=lower,
        upper=best_val,
        ensemble=best_ens,
        restarts_run=restarts_run,
        iterations_run=total_iters,
        converged=bool(any_success and np.isfinite(best_val)),
    )


def ree_bracket(
    rho: DensityMatrix,
    a: Iterable[str],
    b: Iterable[str] | None = None,
    restarts: int = DEFAULT_RESTARTS,
    iterations: int = DEFAULT_ITERATIONS,
    seed: int = DEFAULT_SEED,
) -> ReeBracket:
    """Two-sided REE bracket: certified lower bound, heuristic upper bound."""
    a_labels, b_labels = _split_cut(rho, a, b)
    lower = _ree_lower(rho, a_labels, b_labels)
    return _ree_upper_bracket(
        rho, a_labels, b_labels, restarts, iterations, seed, stop_at=lower + STOP_MARGIN,
        lower=lower,
    )

