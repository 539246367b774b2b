"""Seeded random states, unitaries and channels (Ginibre / Haar / Stinespring)."""

from __future__ import annotations

import numpy as np

from .qstate import DensityMatrix, PureState, RegisterLayout

DEFAULT_SEED = 0xC0DE


def rng_from(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def random_unitary(rng, dim: int) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix."""
    rng = rng_from(rng)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_pure(rng, layout: RegisterLayout) -> PureState:
    rng = rng_from(rng)
    v = rng.standard_normal(layout.dim) + 1j * rng.standard_normal(layout.dim)
    return PureState(layout, v / np.linalg.norm(v), validate=False)


def random_density(rng, layout: RegisterLayout, rank: int | None = None) -> DensityMatrix:
    """Ginibre-induced random density matrix of the given rank."""
    rng = rng_from(rng)
    d = layout.dim
    r = d if rank is None else max(1, min(rank, d))
    g = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
    mat = g @ g.conj().T
    mat /= mat.trace().real
    return DensityMatrix(layout, mat, validate=False)


def random_kraus_channel(rng, dim_in: int, dim_out: int | None = None, n_kraus: int = 2):
    """Random channel via a Haar random Stinespring isometry.

    Returns a list of Kraus operators (dim_out x dim_in) summing to the
    identity on the input.
    """
    rng = rng_from(rng)
    dim_out = dim_in if dim_out is None else dim_out
    g = rng.standard_normal((dim_out * n_kraus, dim_in)) + 1j * rng.standard_normal(
        (dim_out * n_kraus, dim_in)
    )
    q, _ = np.linalg.qr(g)  # isometry: q^dag q = I_{dim_in}
    return [q[i * dim_out : (i + 1) * dim_out, :] for i in range(n_kraus)]

