import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import zheevd

from locbound import circuit, separability
from locbound.entropy import relative_entropy, vn_entropy
from locbound.qstate import (
    DensityMatrix,
    RegisterLayout,
    max_entangled_state,
)
from locbound.rand import random_density, random_pure, random_unitary
from locbound.separability import (
    SeparableEnsemble,
    _assemble,
    _decode,
    _objective_and_grad,
    _pack,
    ree_bracket,
    ree_lower,
    ree_upper,
)

Q2 = RegisterLayout.qubits("a", "b")


def bell_state():
    return max_entangled_state(1, "a", "b").to_density()


def test_ree_lower_examples():
    assert abs(ree_lower(bell_state(), ["a"]) - 1.0) < 1e-9
    rng = np.random.default_rng(0)
    prod = DensityMatrix(
        Q2,
        np.kron(random_density(rng, RegisterLayout.qubits("a")).matrix,
                random_density(rng, RegisterLayout.qubits("b")).matrix),
        validate=False,
    )
    assert abs(ree_lower(prod, ["a"])) < 1e-9
    mm = DensityMatrix(Q2, np.eye(4) / 4)
    assert ree_lower(mm, ["a"]) == 0.0  # max(-1, -1, 0)

    with pytest.raises(ValueError):
        ree_lower(mm, ["a"], ["a"])


def test_ree_upper_pure_product():
    rng = np.random.default_rng(1)
    prod = DensityMatrix(
        Q2,
        np.kron(random_pure(rng, RegisterLayout.qubits("a")).to_density().matrix,
                random_pure(rng, RegisterLayout.qubits("b")).to_density().matrix),
        validate=False,
    )
    val, ens = ree_upper(prod, ["a"], restarts=2, iterations=200, seed=0)
    assert val <= 1e-6


def test_ree_upper_bell_with_witness():
    val, ens = ree_upper(bell_state(), ["a"], restarts=3, iterations=400, seed=0)
    assert abs(val - 1.0) <= 1e-3
    # the witness ensemble itself must certify the bound
    sigma = ens.assemble(Q2)
    recomputed = relative_entropy(bell_state(), sigma)
    assert math.isfinite(recomputed)
    assert abs(recomputed - val) < 1e-9


def test_ree_upper_werner_quarter():
    # singlet weight 1/4: separable, certified by the positive partial
    # transpose of the input (2x2 case)
    psi_m = np.array([0, 1, -1, 0]) / np.sqrt(2)
    mat = 0.25 * np.outer(psi_m, psi_m) + 0.75 * np.eye(4) / 4
    pt = mat.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
    assert np.linalg.eigvalsh(pt).min() >= -1e-12
    wern = DensityMatrix(Q2, mat)
    val, _ = ree_upper(wern, ["a"], seed=0)
    assert val <= 0.02


def test_ree_upper_dimension_cap():
    big = RegisterLayout.of(("a", 16), ("b", 8))
    rho = DensityMatrix(big, np.eye(128) / 128)
    with pytest.raises(ValueError):
        ree_upper(rho, ["a"])


def test_ree_bracket_examples():
    br = ree_bracket(bell_state(), ["a"], seed=0)
    assert abs(br.lower - 1.0) < 1e-9
    assert br.lower <= br.upper + 1e-6
    assert br.upper <= 1.001

    rng = np.random.default_rng(2)
    prod = DensityMatrix(
        Q2,
        np.kron(random_density(rng, RegisterLayout.qubits("a")).matrix,
                random_density(rng, RegisterLayout.qubits("b")).matrix),
        validate=False,
    )
    br = ree_bracket(prod, ["a"], seed=0)
    assert br.lower == 0.0
    assert br.upper <= 1e-3

    v = np.zeros(4)
    v[0], v[3] = np.sqrt(0.75), np.sqrt(0.25)
    st = DensityMatrix.from_vector(Q2, v)
    br = ree_bracket(st, ["a"], seed=0)
    h_quarter = -(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25))
    assert abs(br.lower - h_quarter) < 1e-9
    assert br.upper - br.lower <= 1e-3


def test_pure_state_tightness():
    rng = np.random.default_rng(3)
    for i in range(20):
        rho = random_pure(rng, Q2).to_density()
        br = ree_bracket(rho, ["a"], seed=i)
        assert br.upper - br.lower <= 1e-3
        # for pure states the REE equals the entanglement entropy
        assert abs(br.lower - vn_entropy(rho, ["a"])) < 1e-9


def test_sandwich_random_states():
    rng = np.random.default_rng(4)
    layouts = [
        (Q2, 3, 120, 300),
        (RegisterLayout.of(("a", 2), ("b", 4)), 1, 60, 80),
        (RegisterLayout.of(("a", 4), ("b", 4)), 1, 30, 30),
    ]
    for lay, restarts, iters, n_states in layouts:
        for i in range(n_states):
            rho = random_density(rng, lay, rank=int(rng.integers(1, lay.dim + 1)))
            low = ree_lower(rho, ["a"])
            up, _ = ree_upper(rho, ["a"], restarts=restarts, iterations=iters, seed=i)
            assert low <= up + 1e-6


def test_monotone_under_separable_channels():
    # transport the witness ensemble through a random product channel:
    # separable channels map it to a separable state, so the transported
    # relative entropy stays a valid upper bound and cannot grow
    rng = np.random.default_rng(5)
    for i in range(15):
        rho = random_density(rng, Q2, rank=int(rng.integers(1, 5)))
        up, ens = ree_upper(rho, ["a"], restarts=3, iterations=200, seed=i)
        probs = rng.dirichlet(np.ones(3))
        kraus = [
            np.sqrt(p) * np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
            for p in probs
        ]
        def channel(mat):
            out = sum(k @ mat @ k.conj().T for k in kraus)
            return DensityMatrix(Q2, (out + out.conj().T) / 2, validate=False)

        out_rho = channel(rho.matrix)
        out_sig = channel(ens.assemble(Q2).matrix)
        transported = relative_entropy(out_rho, out_sig)
        assert math.isfinite(transported)
        assert transported <= up + 1e-3


def test_budget_monotone_and_deterministic():
    rng = np.random.default_rng(6)
    rho = random_density(rng, Q2)
    small, _ = ree_upper(rho, ["a"], restarts=1, iterations=40, seed=9)
    big, _ = ree_upper(rho, ["a"], restarts=6, iterations=400, seed=9)
    assert big <= small + 1e-12
    again, _ = ree_upper(rho, ["a"], restarts=6, iterations=400, seed=9)
    assert big == again


def _uniform_product_theta(terms, da, db):
    """Every term a computational product state |i j>, each of the da*db
    states taken equally often at equal weight: sigma is exactly I/d, so
    every eigenvalue pair of sigma is degenerate."""
    d = da * db
    a = np.zeros((terms, da), dtype=complex)
    b = np.zeros((terms, db), dtype=complex)
    for t in range(terms):
        i, j = divmod(t % d, db)
        a[t, i] = b[t, j] = 1.0
    return _pack(np.zeros(terms), a, b)


def _reference_objective_and_grad(theta, rho_mat, terms, da, db, tr_rho_log_rho):
    """The objective as first written, on the block layout
    [w | Re a | Im a | Re b | Im b]: numpy's eigh, einsums, one
    concatenate. The fast objective must reproduce it."""
    t, na = terms, terms * da
    xa = theta[t : t + 2 * na].reshape(2, t, da)
    xb = theta[t + 2 * na :].reshape(2, t, db)
    ra = np.sqrt((xa * xa).sum(axis=(0, 2)))
    rb = np.sqrt((xb * xb).sum(axis=(0, 2)))
    ra += ra < 1e-30
    rb += rb < 1e-30
    ew = np.exp(theta[:t] - theta[:t].max())
    p = ew / ew.sum()
    ah = (xa[0] + 1j * xa[1]) / ra[:, None]
    bh = (xb[0] + 1j * xb[1]) / rb[:, None]
    c = (ah[:, :, None] * bh[:, None, :]).reshape(terms, -1)
    sigma = (c.T * p) @ c.conj()
    sigma = (sigma + sigma.conj().T) / 2

    lam, v = np.linalg.eigh(sigma)
    lam_c = np.maximum(lam, 1e-18)
    log_l = np.log(lam_c)
    rho_t = v.conj().T @ rho_mat @ v
    f = tr_rho_log_rho - float(rho_t.diagonal().real @ log_l) / math.log(2)
    dl = lam_c[:, None] - lam_c[None, :]
    inv = 1.0 / lam_c
    phi = (inv[:, None] + inv[None, :]) / 2
    np.divide(log_l[:, None] - log_l[None, :], dl, out=phi, where=np.abs(dl) > 1e-14)
    m = v @ (rho_t * phi) @ v.conj().T

    mc = (c @ m.T).reshape(terms, da, db)
    qa = np.einsum("tj,tij->ti", bh.conj(), mc)
    rb_v = np.einsum("ti,tij->tj", ah.conj(), mc)
    cmc = np.einsum("ti,ti->t", ah.conj(), qa).real
    gamma = cmc / -math.log(2)
    grad_w = p * (gamma - p @ gamma)
    coef = -2.0 * p / math.log(2)
    ga = (coef / ra)[:, None] * (qa - cmc[:, None] * ah)
    gb = (coef / rb)[:, None] * (rb_v - cmc[:, None] * bh)
    return f, np.concatenate(
        [grad_w, ga.real.ravel(), ga.imag.ravel(), gb.real.ravel(), gb.imag.ravel()])


def _from_block_layout(theta, terms, da, db):
    """[w | Re a | Im a | Re b | Im b] -> [w | rows (a_t | b_t) as
    interleaved complex], the layout of the search."""
    xa = theta[terms : terms * (1 + 2 * da)].reshape(2, terms, da)
    xb = theta[terms * (1 + 2 * da) :].reshape(2, terms, db)
    return _pack(theta[:terms], xa[0] + 1j * xa[1], xb[0] + 1j * xb[1])


def _problem(da, db, seed=7):
    """A random full-rank rho on a da x db layout and tr(rho log2 rho)."""
    lay = RegisterLayout.of(("a", da), ("b", db))
    rho = random_density(np.random.default_rng(seed), lay)
    return lay, rho, -vn_entropy(rho)


def _objective(theta, rho, terms, da, db, tr_log):
    return _objective_and_grad(theta, rho.matrix, terms, da, db, tr_log, zheevd)


@pytest.mark.parametrize("da, db", [(2, 2), (2, 4), (4, 2)], ids=["2x2", "2x4", "4x2"])
@pytest.mark.parametrize("case", ["random", "uniform", "zero_row"])
def test_objective_matches_the_reference(da, db, case):
    lay, rho, tr_log = _problem(da, db)
    terms = (da * db) ** 2
    if case == "uniform":
        theta = _uniform_product_theta(terms, da, db)
        re_im = theta[terms:].reshape(terms, da + db, 2)
        old = np.concatenate([theta[:terms], re_im[:, :da, 0].ravel(), re_im[:, :da, 1].ravel(),
                              re_im[:, da:, 0].ravel(), re_im[:, da:, 1].ravel()])
    else:
        old = np.random.default_rng(11).standard_normal(terms * (1 + 2 * da + 2 * db))
        if case == "zero_row":  # a_3 = 0 takes the norm guard
            old[terms + 3 * da : terms + 4 * da] = 0.0
            old[terms + (terms + 3) * da : terms + (terms + 4) * da] = 0.0
        theta = _from_block_layout(old, terms, da, db)
    assert np.array_equal(_from_block_layout(old, terms, da, db), theta)

    f_ref, g_ref = _reference_objective_and_grad(old, rho.matrix, terms, da, db, tr_log)
    f, grad = _objective(theta, rho, terms, da, db, tr_log)
    assert abs(f - f_ref) <= 1e-12 * abs(f_ref)
    g_ref = _from_block_layout(g_ref, terms, da, db)
    np.testing.assert_allclose(grad, g_ref, rtol=1e-12, atol=1e-12 * np.abs(g_ref).max())
    if case == "zero_row":
        assert not grad[terms + 3 * 2 * (da + db) :][: 2 * da].any()

    # the witness path reads the same ensemble off theta
    witness = SeparableEnsemble(*_decode(theta, terms, da)).assemble(lay)
    assert abs(f - relative_entropy(rho, witness)) <= 1e-10


@settings(max_examples=60, deadline=None)
@given(
    dims=st.sampled_from([(2, 2), (2, 4), (4, 2)]),
    seed=st.integers(0, 2**32 - 1),
    row=st.integers(0, 15),
    side=st.sampled_from(["a", "b"]),
    log_c=st.floats(-12.0, 150.0),
)
def test_objective_is_invariant_under_factor_scale(dims, seed, row, side, log_c):
    # f reads factor rows only through their directions: scaling one row by
    # c keeps f and scales that row's gradient by 1/c, up to norms of 1e150
    da, db = dims
    lay, rho, tr_log = _problem(da, db)
    terms = (da * db) ** 2
    theta = np.random.default_rng(seed).standard_normal(terms * (1 + 2 * da + 2 * db))
    lo = terms + 2 * row * (da + db) + (0 if side == "a" else 2 * da)
    block = slice(lo, lo + 2 * (da if side == "a" else db))
    c = 10.0 ** log_c
    scaled = theta.copy()
    scaled[block] *= c
    f, grad = _objective(theta, rho, terms, da, db, tr_log)
    f_c, grad_c = _objective(scaled, rho, terms, da, db, tr_log)
    assert abs(f_c - f) <= 1e-12 * abs(f)
    scale = np.ones_like(grad)
    scale[block] = c
    np.testing.assert_allclose(grad_c * scale, grad, rtol=1e-12,
                               atol=1e-12 * np.abs(grad).max())


@pytest.mark.parametrize("entry", ["weight", "a", "b"])
def test_nan_parameter_raises_linalg_error(entry):
    # as numpy's eigh did: LAPACK may return NaN eigenvalues with info 0
    da, db = 2, 2
    lay, rho, tr_log = _problem(da, db)
    terms = (da * db) ** 2
    theta = np.random.default_rng(1).standard_normal(terms * (1 + 2 * da + 2 * db))
    theta[{"weight": 5, "a": terms + 1, "b": terms + 2 * da + 1}[entry]] = np.nan
    with pytest.raises(np.linalg.LinAlgError), np.errstate(invalid="ignore"):
        _objective(theta, rho, terms, da, db, tr_log)


def test_nan_spectrum_with_info_zero_raises_linalg_error():
    # zheevd reports info 0 for a diagonal input (here sigma = I/d) with one
    # NaN on the diagonal, and returns a NaN eigenvalue; the objective must
    # not pass the NaN value on as a number
    da, db = 2, 2
    lay, rho, tr_log = _problem(da, db)
    terms = (da * db) ** 2
    seen = []

    def nan_corner(sigma, lower):
        sigma = sigma.copy()
        sigma[0, 0] = np.nan
        out = zheevd(sigma, lower=lower)
        seen.append((out[2], np.isnan(out[0]).any()))
        return out

    theta = _uniform_product_theta(terms, da, db)
    with pytest.raises(np.linalg.LinAlgError):
        _objective_and_grad(theta, rho.matrix, terms, da, db, tr_log, nan_corner)
    assert seen == [(0, True)]


@pytest.mark.parametrize("da, db", [(2, 2), (2, 4), (4, 2)], ids=["2x2", "2x4", "4x2"])
@pytest.mark.parametrize("uniform", [False, True], ids=["random", "uniform"])
def test_gradient_matches_finite_differences(da, db, uniform):
    rng = np.random.default_rng(7)
    rho = random_density(rng, RegisterLayout.of(("a", da), ("b", db))).matrix
    terms = (da * db) ** 2  # as in the search
    if uniform:
        theta = _uniform_product_theta(terms, da, db)
        p, ah, bh = _decode(theta, terms, da)
        assert np.array_equal(_assemble(p, ah, bh)[0], np.eye(da * db) / (da * db))
    else:
        theta = rng.standard_normal(terms * (1 + 2 * da + 2 * db))
    evals = np.clip(np.linalg.eigvalsh(rho), 0, None)
    pos = evals[evals > 1e-12]
    tr_log = float((pos * np.log2(pos)).sum())
    f0, grad = _objective_and_grad(theta, rho, terms, da, db, tr_log, zheevd)
    # three coordinates from each kind of entry of theta: the weights, then
    # Re and Im of the a and the b factors, read off the layout's rows
    re_im = np.arange(theta.size)[terms:].reshape(terms, da + db, 2)
    kinds = [np.arange(terms), re_im[:, :da, 0], re_im[:, :da, 1], re_im[:, da:, 0],
             re_im[:, da:, 1]]
    picks = [rng.choice(k.ravel(), size=3, replace=False) for k in kinds]
    h = 1e-6
    for idx in np.concatenate(picks):
        bump = theta.copy()
        bump[idx] += h
        f1, _ = _objective_and_grad(bump, rho, terms, da, db, tr_log, zheevd)
        fd = (f1 - f0) / h
        assert abs(fd - grad[idx]) < 5e-5 * max(1.0, abs(fd)), (idx, fd, grad[idx])


def test_search_runs_on_one_blas_thread_and_restores_counts(monkeypatch):
    # small products run faster on one OpenBLAS thread; the caller's
    # counts come back once the bracket is done
    counts = circuit._openblas_thread_counts()
    if not counts:
        pytest.skip("no OpenBLAS copy of numpy or scipy found")
    old = [get() for get, _ in counts]
    seen = []
    restart = separability._run_restart

    def watched(*args):
        seen.append([get() for get, _ in counts])
        return restart(*args)

    monkeypatch.setattr(separability, "_run_restart", watched)
    try:
        for _, put in counts:
            put(2)
        ree_bracket(random_density(np.random.default_rng(3), Q2, rank=2), ["a"],
                    restarts=2, iterations=20)
        assert seen == [[1] * len(counts)] * 2
        assert [get() for get, _ in counts] == [2] * len(counts)
    finally:
        for (_, put), n in zip(counts, old):
            put(n)


def test_missing_blas_library_or_symbol_is_skipped(monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(circuit, "_OPENBLAS", (
            ("numpy", "numpy.libs/libscipy_openblas64_-*.so", "_no_such_suffix"),
            ("numpy", "no_such_dir/*.so", ""),
            ("no_such_package_for_locbound", "*.so", ""),
        ))
        circuit._openblas_thread_counts.cache_clear()
        try:
            assert circuit._openblas_thread_counts() == ()
            assert ree_upper(bell_state(), ["a"], restarts=1, iterations=5)[0] >= 0.0
        finally:
            circuit._openblas_thread_counts.cache_clear()
