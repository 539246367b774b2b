"""Relative entropy of entanglement: certified lower bounds from coherent
information, and numerical upper bounds by minimizing D(rho || sigma) over
explicitly separable ensembles.

The upper-bound search runs L-BFGS restarts over theta = [w | rows (a_t | b_t)
as interleaved complex]: softmax weights and explicitly normalized product
factors. The objective reads theta through views, writes one gradient array
and calls LAPACK's zheevd from scipy, imported on first use like `minimize`;
a call takes 23 % (2x2) and 14 % (2x4) less time than with numpy's eigh and
einsums (median of alternating runs, 2-core Xeon VM). The reported value does
not rest on it: one decode and one assembly give a separable witness sigma,
and the value is D(rho || sigma) from `relative_entropy`, a sound upper bound
at any convergence. Restart seeds derive from the master seed, so results are
deterministic for a given budget; restarts run on one OpenBLAS thread.
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
        return DensityMatrix(layout, (sigma + sigma.conj().T) / 2, validate=False)


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


def _rows(theta, terms, da):
    """theta = [w | rows (a_t | b_t) as interleaved complex] -> (softmax
    weights p, unit rows u_t = (a_t/|a_t| | b_t/|b_t|), and the norm r of
    each entry's factor, which the tangential gradient divides by)."""
    y = theta[terms:].reshape(terms, -1)
    r = np.sqrt(np.add.reduceat(y * y, [0, 2 * da], axis=1))
    r += r < 1e-30  # a zero factor is divided by 1
    r = np.repeat(r, [da, y.shape[1] // 2 - da], axis=1)
    ew = np.exp(theta[:terms] - theta[:terms].max())
    return ew / ew.sum(), y.view(complex) / r, r


def _decode(theta, terms, da):
    """Parameters -> (softmax weights, unit factors a_hat, b_hat)."""
    p, u, _ = _rows(theta, terms, da)
    return p, u[:, :da], u[:, da:]


def _assemble(p, ah, bh):
    """sigma = sum_t p_t |a_t b_t><a_t b_t|, Hermitian up to rounding, and
    the product vectors a_t (x) b_t as rows."""
    c = (ah[:, :, None] * bh[:, None, :]).reshape(len(p), -1)
    return (c.T * p) @ c.conj(), c


def _pack(w, a, b):
    return np.concatenate([w, np.hstack([a, b]).view(float).ravel()])


def _objective_and_grad(theta, rho_mat, terms, da, db, tr_rho_log_rho, zheevd):
    p, u, r = _rows(theta, terms, da)
    sigma, c = _assemble(p, u[:, :da], u[:, da:])
    lam, v, info = zheevd(sigma, lower=1)  # reads the lower triangle only
    np.maximum(lam, _EIG_FLOOR, out=lam)
    log_l = np.log(lam)
    vh = v.conj().T
    rho_t = vh @ rho_mat @ v
    f = tr_rho_log_rho - float(rho_t.diagonal().real @ log_l) / _LN2
    if info or f != f:
        raise np.linalg.LinAlgError(f"eigh of sigma failed: info {info}, f {f}")

    # Daleckii-Krein divided differences of ln on sigma's spectrum; a pair
    # closer than 1e-14 keeps the mean of 1/lambda, the derivative's limit
    inv = 0.5 / lam
    phi = np.add.outer(inv, inv)
    dl = np.subtract.outer(lam, lam)
    np.divide(np.subtract.outer(log_l, log_l), dl, out=phi, where=np.abs(dl) > 1e-14)
    rho_t *= phi
    m = v @ rho_t @ vh  # d tr(rho ln sigma)[dsigma] = tr(M dsigma)

    # row t of mc is M |a_t b_t>; grad holds <b_t|M|a_t b_t> on A and
    # <a_t|M|a_t b_t> on B, then the tangential part through normalization
    mc = (c @ m.T).reshape(terms, da, db)
    uc = u.conj()
    grad = np.empty_like(theta)
    gz = grad[terms:].view(complex).reshape(terms, -1)
    np.matmul(mc, uc[:, da:, None], out=gz[:, :da, None])
    np.matmul(uc[:, None, :da], mc, out=gz[:, None, da:])
    cmc = (uc[:, None, :da] @ gz[:, :da, None]).real.ravel()  # <a_t b_t| M |a_t b_t>
    gz -= cmc[:, None] * u
    k = p / -_LN2
    gz *= (2 * k)[:, None] / r
    grad[:terms] = k * (cmc - p @ cmc)  # weights (softmax chain rule)
    return f, grad


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
    from scipy.linalg.lapack import zheevd  # on first use: scipy triples `import locbound`
    from scipy.optimize import minimize

    rng = rng_from(seed)
    theta0 = _initial_theta(restart, rng, rho_mat, terms, da, db)
    res = minimize(
        _objective_and_grad,
        theta0,
        args=(rho_mat, terms, da, db, tr_rho_log_rho, zheevd),
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": iterations, "ftol": 1e-14, "gtol": 1e-12},
    )
    return SeparableEnsemble(*_decode(res.x, terms, da)), int(res.nit), bool(res.success)


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

