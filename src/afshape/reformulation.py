"""Hermitian splitting and diagonal loading of the AF kernels.

Each kernel A = D_p J_k is unitary, so both Hermitian matrices

    ar = (A + A^H) / 2        ai = j (A - A^H) / 2

have eigenvalues in [-1, 1], and for any vector z

    z^H A z = (z^H ar z) - j (z^H ai z)

with the two parenthesized quadratic forms real. Consequently
|z^H A z|^2 = (z^H ar z)^2 + (z^H ai z)^2, which is what lets the quartic
region objective be driven through quadratic pieces. Loading both halves
with zeta = 1 + delta, the unitary spectral bound plus a margin, makes
L = ar + zeta*I and ai + zeta*I positive definite for every kernel without
looking at a single eigenvalue.

The paper writes each loaded matrix as the square of its Hermitian root R
so that the objective becomes a sum of squared distances. The solve never
needs R itself: its auxiliary update sets u = R x / ||R x||, so every
product it forms is

    R u = R R x / ||R x|| = L x / sqrt(x^H L x),

and L x needs only A x = d_p * x[(i + k) mod N] and
A^H x = conj(d_p)[(i - k) mod N] * x[(i - k) mod N]. For a unimodular x
the quadratic forms are x^H (ar + zeta*I) x = zeta N + Re r[k, p] and
x^H (ai + zeta*I) x = zeta N - Im r[k, p].

build_loaded_region therefore precomputes, once per region, just those
gather indices and Doppler diagonals plus the dense sum of all loaded
matrices (the quadratic block of the solver's x-step). split_kernel and
load_and_root still build the dense matrices and their roots by
eigendecomposition: they are the slow reference the fast path is tested
against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .af_core import AFKernel, RegionSpec, doppler_phase_vector


class LoadingError(RuntimeError):
    """Diagonal loading failed to make a kernel matrix positive definite."""

    def __init__(self, k: int, p: int, part: str, min_eig: float, zeta: float):
        self.k = k
        self.p = p
        self.part = part
        self.min_eig = min_eig
        self.zeta = zeta
        super().__init__(
            f"loaded {part} matrix for (k={k}, p={p}) is not positive definite: "
            f"min eigenvalue {min_eig:.6e} at loading level {zeta:.6e}"
        )


@dataclass(eq=False)
class SplitPair:
    """Hermitian pieces of one kernel: ar = (A+A^H)/2, ai = j(A-A^H)/2."""

    k: int
    p: int
    ar: np.ndarray
    ai: np.ndarray


@dataclass(eq=False)
class LoadedPair:
    """One kernel's loaded matrices and their Hermitian PSD square roots."""

    k: int
    p: int
    zeta: float
    ar_loaded: np.ndarray
    ai_loaded: np.ndarray
    ar_root: np.ndarray
    ai_root: np.ndarray


@dataclass(eq=False)
class LoadedRegion:
    """Everything precomputed for one (n, region) pair.

    Row c of each (|R|, N) array belongs to the c-th (k, p) of
    region.pairs(): A x = fwd_diag[c] * x[fwd_idx[c]] and
    A^H x = bwd_diag[c] * x[bwd_idx[c]]. quad_sum caches the region-wide
    sum of all loaded matrices, sum(ar + ai) + 2 |R| zeta I (the quadratic
    block reused by every outer iteration of the solver).
    """

    n: int
    region: RegionSpec
    zeta: float
    fwd_idx: np.ndarray
    bwd_idx: np.ndarray
    fwd_diag: np.ndarray
    bwd_diag: np.ndarray
    quad_sum: np.ndarray


def split_kernel(kernel: AFKernel) -> SplitPair:
    """Split a kernel into the Hermitian matrices carrying Re and -Im of z^H A z."""
    a = kernel.matrix
    ah = a.conj().T
    return SplitPair(k=kernel.k, p=kernel.p, ar=(a + ah) / 2.0, ai=0.5j * (a - ah))


def _hermitian_root(mat: np.ndarray, floor: float, k: int, p: int, part: str, zeta: float) -> np.ndarray:
    eigvals, eigvecs = np.linalg.eigh(mat)
    if eigvals[0] <= floor:
        raise LoadingError(k, p, part, float(eigvals[0]), zeta)
    root = (eigvecs * np.sqrt(eigvals)) @ eigvecs.conj().T
    # symmetrize away eigh rounding so the Hermitian invariant holds exactly
    return (root + root.conj().T) / 2.0


def load_and_root(split: SplitPair, zeta: float) -> LoadedPair:
    """Apply the loading level and take Hermitian PSD square roots via eigh."""
    n = split.ar.shape[0]
    bump = zeta * np.eye(n)
    ar_loaded = split.ar + bump
    ai_loaded = split.ai + bump
    floor = 1e-12 * zeta
    return LoadedPair(
        k=split.k,
        p=split.p,
        zeta=float(zeta),
        ar_loaded=ar_loaded,
        ai_loaded=ai_loaded,
        ar_root=_hermitian_root(ar_loaded, floor, split.k, split.p, "ar", zeta),
        ai_root=_hermitian_root(ai_loaded, floor, split.k, split.p, "ai", zeta),
    )


def build_loaded_region(n: int, region: RegionSpec, delta: float = 0.01) -> LoadedRegion:
    """Gather indices, Doppler diagonals and loaded-matrix sum of a region."""
    delta = float(delta)
    if not (math.isfinite(delta) and delta > 0):
        raise ValueError(f"loading margin delta must be finite and > 0, got {delta}")
    region.validate_for(n)
    zeta = 1.0 + delta
    cells = region.pairs()
    rows = np.arange(n)
    lags = np.array([k for k, _ in cells])[:, None]
    fwd_idx = (rows + lags) % n
    bwd_idx = (rows - lags) % n
    fwd_diag = np.array([doppler_phase_vector(p, n) for _, p in cells])
    bwd_diag = np.take_along_axis(fwd_diag.conj(), bwd_idx, axis=1)
    # ar + ai = S + S^H with S = (1 + j) A / 2, and A holds d_p[i] at (i, (i + k) mod N)
    half = np.zeros((n, n), dtype=complex)
    np.add.at(half, (np.broadcast_to(rows, fwd_idx.shape), fwd_idx), 0.5 * (1 + 1j) * fwd_diag)
    quad_sum = half + half.conj().T
    quad_sum.flat[::n + 1] += 2.0 * len(cells) * zeta  # the loading, on the diagonal in place
    return LoadedRegion(n=n, region=region, zeta=zeta, fwd_idx=fwd_idx, bwd_idx=bwd_idx,
                        fwd_diag=fwd_diag, bwd_diag=bwd_diag, quad_sum=quad_sum)
