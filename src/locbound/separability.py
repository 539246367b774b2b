"""Relative entropy of entanglement: certified lower bounds from coherent
information, and numerical upper bounds by minimizing D(rho || sigma) over
explicitly separable ensembles.

The upper-bound search runs L-BFGS restarts over theta = [w | rows (a_t | b_t)
as interleaved complex]: softmax weights and explicitly normalized product
factors. The objective reads theta through views, writes one gradient array
and calls LAPACK's zheevd from scipy, imported on first use like `setulb`,
once per row. Each restart drives scipy's L-BFGS-B routine `setulb`
directly, with `minimize`'s settings and without its per-evaluation
wrappers; the tests keep `minimize` as the oracle that pins the driver bit
for bit. The restarts of a bracket run in lockstep: each keeps its own
`setulb` state, and each round every live restart advances until `setulb`
asks for f and g, and all asks go to one stacked objective call, so the
per-call cost of its ~45 numpy calls on at most 64 x 64 arrays is paid once
per round. Results fold in restart order and the stop is checked after each
fold, so the bracket is the one-after-another search's to the bit. Stopped
brackets on 2x2 and 2x4 cuts either end at restart 0 or run every restart,
and the first are those whose cut state is pure or has a positive partial
transpose (117 of 117 brackets, BENCH_34.json); on such a state, with a
stop set, restart 0 runs alone, since its partners would only ride along.
Stacking pays on 2x2 and 2x4 cuts only: W restarts took 0.35-0.78 (2x2,
W = 2..25) and 0.61-0.78 (2x4, W = 2..12) of the time one at a time,
0.95-1.01 on 4x4 and 1.12 on 4x8, so a call carries at most
_LOCKSTEP_TERMS ensemble terms: up to 25 restarts of a 2x2 cut (the rest
of a default budget), 6 of a 2x4 cut (full-budget 2x4 brackets took about
as long at 6 to 19) and one of 4x4 and larger cuts. Whole brackets were
timed at windows up to 19, the rest of a default budget; 20 to 25, reached
with larger budgets, rest on a fixed-iteration sweep alone. The reported
value does not rest on any of this: one decode and one assembly give a
separable witness sigma, and the value is D(rho || sigma) from
`relative_entropy`, a sound upper bound at any convergence. Restart seeds
are the children of the master seed in restart order, spawned as restarts
start, so results are deterministic for a given budget; restarts run on one
OpenBLAS thread.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .circuit import InvariantError, _one_blas_thread
from .entropy import _check_partition, relative_entropy, vn_entropy
from .qstate import DensityMatrix
from .rand import DEFAULT_SEED, rng_from

DEFAULT_RESTARTS = 20
DEFAULT_ITERATIONS = 2000
STOP_MARGIN = 5e-4  # ree_bracket stops restarting once upper <= lower + this
MAX_REE_DIM = 64  # total dimension the ensemble search accepts
# ensemble terms per stacked objective call, and at least one restart: 25
# restarts of a 2x2 cut, 6 of 2x4, one of 4x4 and larger cuts (the module
# docstring gives the measurements)
_LOCKSTEP_TERMS = 400

_LN2 = np.log(2.0)
_EIG_FLOOR = 1e-18


@dataclass(eq=False)
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
    """theta (N, n), one row [w | rows (a_t | b_t) as interleaved complex]
    per restart -> (softmax weights p (N, terms), unit rows u_t = (a_t/|a_t|
    | b_t/|b_t|), and the norm r of each entry's factor, which the
    tangential gradient divides by)."""
    y = theta[:, terms:].reshape(len(theta), terms, -1)
    r = np.sqrt(np.add.reduceat(y * y, [0, 2 * da], axis=2))
    r += r < 1e-30  # a zero factor is divided by 1
    r = r.repeat([da, y.shape[2] // 2 - da], axis=2)
    w = theta[:, :terms]
    ew = np.exp(w - np.maximum.reduce(w, axis=1, keepdims=True))
    return ew / np.add.reduce(ew, axis=1, keepdims=True), y.view(complex) / r, r


def _decode(theta, terms, da):
    """One parameter row -> (softmax weights, unit factors a_hat, b_hat)."""
    p, u, _ = _rows(theta[None], terms, da)
    return p[0], u[0, :, :da], u[0, :, da:]


def _assemble(p, ah, bh):
    """sigma = sum_t p_t |a_t b_t><a_t b_t|, Hermitian up to rounding, and
    the product vectors a_t (x) b_t as rows; p (..., terms) and factors
    (..., terms, dim) stack over leading axes."""
    c = (ah[..., :, None] * bh[..., None, :]).reshape(*p.shape, -1)
    return (c.swapaxes(-1, -2) * p[..., None, :]) @ c.conj(), c


def _pack(w, a, b):
    return np.concatenate([w, np.hstack([a, b]).view(float).ravel()])


def _objective_and_grad(theta, rho_mat, terms, da, db, tr_rho_log_rho, zheevd):
    """D(rho || sigma) in bits and its gradient for a stack of parameter
    rows: theta (N, n) -> (f, a list of N floats; grad (N, n)). Each row is
    what a one-row call gives to the bit, with one zheevd call per row. The
    first row whose eigensolve fails raises LinAlgError(message, row)."""
    n = len(theta)
    p, u, r = _rows(theta, terms, da)
    sigma, c = _assemble(p, u[..., :da], u[..., da:])
    lam, v, info = np.empty((n, da * db)), np.empty_like(sigma), [0] * n
    for i, s in enumerate(sigma):  # one call per row; zheevd reads the lower triangle only
        lam[i], v[i], info[i] = zheevd(s, lower=1)
    np.maximum(lam, _EIG_FLOOR, out=lam)
    log_l = np.log(lam)
    vh = v.conj().swapaxes(1, 2)
    rho_t = vh @ rho_mat @ v
    dots = (rho_t.diagonal(axis1=1, axis2=2).real[:, None] @ log_l[..., None]).ravel().tolist()
    f = [tr_rho_log_rho - dot / _LN2 for dot in dots]
    for i, (bad, fi) in enumerate(zip(info, f)):
        if bad or fi != fi:
            raise np.linalg.LinAlgError(f"eigh of sigma failed: info {bad}, f {fi}", i)

    # Daleckii-Krein divided differences of ln on sigma's spectrum; a pair
    # closer than 1e-14 keeps the mean of 1/lambda, the derivative's limit
    inv = 0.5 / lam
    phi = inv[:, :, None] + inv[:, None, :]
    dl = lam[:, :, None] - lam[:, None, :]
    np.divide(log_l[:, :, None] - log_l[:, None, :], dl, out=phi, where=np.abs(dl) > 1e-14)
    rho_t *= phi
    m = v @ rho_t @ vh  # d tr(rho ln sigma)[dsigma] = tr(M dsigma)

    # row t of mc is M |a_t b_t>; grad holds <b_t|M|a_t b_t> on A and
    # <a_t|M|a_t b_t> on B, then the tangential part through normalization
    mc = (c @ m.swapaxes(1, 2)).reshape(n, terms, da, db)
    uc = u.conj()
    grad = np.empty_like(theta)
    gz = grad[:, terms:].view(complex).reshape(n, terms, -1)
    np.matmul(mc, uc[..., da:, None], out=gz[..., :da, None])
    np.matmul(uc[..., None, :da], mc, out=gz[..., None, da:])
    # <a_t b_t| M |a_t b_t>, contiguous: a strided one moves the last bit of p @ cmc
    cmc = (uc[..., None, :da] @ gz[..., :da, None]).real.reshape(n, terms).copy()
    gz -= cmc[..., None] * u
    k = p / -_LN2
    gz *= (2 * k)[..., None] / r
    np.multiply(k, cmc - (p[:, None] @ cmc[..., None])[:, 0], out=grad[:, :terms])  # weights
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


def _lbfgsb(x, iterations, setulb):
    """One L-BFGS-B run from x, unbounded, through scipy's reverse-communication
    routine with minimize's settings: maxcor 10, maxls 20, ftol 1e-14,
    gtol 1e-12, maxfun 15000. setulb asks for f and g at x (task 3),
    reports an iteration (task 1) or stops; success is convergence (task 4).
    A generator: it yields x whenever setulb asks, takes (f, g) by send and
    returns (x, iterations run, success)."""
    n, m = x.size, 10
    f, g, bound, nbd = 0.0, np.zeros(n), np.zeros(n), np.zeros(n, np.int32)
    wa, iwa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m), np.zeros(3 * n, np.int32)
    task, ln_task, lsave = (np.zeros(k, np.int32) for k in (2, 2, 4))
    isave, dsave = np.zeros(44, np.int32), np.zeros(29)
    factr = 1e-14 / np.finfo(float).eps
    nit = nfev = 0
    while True:
        setulb(m, x, bound, bound, nbd, f, g, factr, 1e-12, wa, iwa, task, lsave, isave,
               dsave, 20, ln_task)
        if task[0] == 3:
            f, g = yield x
            nfev += 1
        elif task[0] == 1:
            nit += 1
            if nit >= iterations or nfev > 15000:
                task[:] = 5, 504 if nit >= iterations else 502
        else:
            return x, nit, bool(task[0] == 4)


def _ends_at_restart_0(rho_mat, da, db):
    """Whether a stopped search most likely ends at restart 0: the cut state
    is pure (tr rho^2 = 1), so the Schmidt start is the exact minimizer, or
    has a positive partial transpose, so it is separable on 2x2 and 2x3 cuts
    and the REE is 0. It schedules restarts only; no result depends on it."""
    if np.vdot(rho_mat, rho_mat).real > 1 - 1e-9:
        return True
    pt = rho_mat.reshape(da, db, da, db).swapaxes(1, 3).reshape(da * db, da * db)
    return np.linalg.eigvalsh(pt)[0] > -1e-12


def _lockstep(restarts, seed, rho_mat, terms, da, db, tr_rho_log_rho, iterations,
              alone_first=False):
    """The L-BFGS-B runs of restarts 0 .. restarts-1 in lockstep. Each round,
    every live run advances until setulb asks for f and g or stops, and all
    asks go to one stacked objective call. Yields (ensemble, iterations,
    success) per restart, in restart order, as soon as it and every earlier
    restart are done; the caller may stop at any yield and drop the rest.

    A run starts, and its seed is spawned, once it lies within the window of
    max(1, _LOCKSTEP_TERMS // terms) restarts after the last one yielded;
    with ``alone_first``, restart 0 runs alone. Each restart's start, run
    and result do not depend on the window: the seeds are the children of
    SeedSequence(seed) in restart order, and each row of a stacked call is
    what a one-row call gives to the bit."""
    from scipy.linalg.lapack import zheevd  # on first use: scipy triples `import locbound`
    from scipy.optimize._lbfgsb import setulb

    seeds = np.random.SeedSequence(seed)
    cap = max(1, _LOCKSTEP_TERMS // terms)
    live, done, started, folded = [], {}, 0, 0
    while folded < restarts:
        end = min(restarts, folded + (1 if alone_first and folded == 0 else cap))
        if started < end:
            for r, s in zip(range(started, end), seeds.spawn(end - started)):
                x = _initial_theta(r, rng_from(s), rho_mat, terms, da, db)
                live.append((r, _lbfgsb(x, iterations, setulb), None))
            started = end
        asks = []
        for r, run, fg in live:
            try:
                asks.append((r, run, run.send(fg)))
            except StopIteration as stop:
                x, nit, ok = stop.value
                done[r] = SeparableEnsemble(*_decode(x, terms, da)), nit, ok
        if asks:
            try:
                f, g = _objective_and_grad(np.array([x for _, _, x in asks]), rho_mat, terms,
                                           da, db, tr_rho_log_rho, zheevd)
            except np.linalg.LinAlgError as exc:  # a fault of the search, not of rho
                msg, row = exc.args
                raise InvariantError(f"REE restart {asks[row][0]}: {msg}") from exc
            live = [(r, run, fg) for (r, run, _), fg in zip(asks, zip(f, g))]
        else:
            live = []
        while folded in done:
            yield done.pop(folded)
            folded += 1


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

    best_val = np.inf
    best_ens = None
    total_iters = 0
    restarts_run = 0
    any_success = False
    alone_first = stop_at is not None and _ends_at_restart_0(rho_mat, da, db)

    with _one_blas_thread():
        for ens, nit, ok in _lockstep(restarts, seed, rho_mat, terms, da, db, tr_rho_log_rho,
                                      iterations, alone_first):
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

