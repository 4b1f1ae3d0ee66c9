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

A region is the product of its K lags and P Doppler bins, and A x
factors into a lag shift and a Doppler row. build_loaded_region
therefore precomputes, once per region, just the K shift and un-shift
indices and the P Doppler rows (af_core's region tables, not one row per
cell), plus the dense sum of all loaded matrices (the quadratic block of
the solver's x-step) and a bound on its top eigenvalue (the x-step's gamma_x).
split_kernel and load_and_root still build the dense matrices and their
roots by eigendecomposition: they are the slow reference the fast path is
tested against.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .af_core import AFKernel, RegionSpec, _length, _region_tables, as_positive


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

    Row a of the (K, N) tables shift_idx and unshift_idx belongs to lag
    k = region.delays[a] and row b of the (P, N) doppler_rows to bin
    p = region.dopplers[b], so cell (k, p) of region.pairs() has
    A x = doppler_rows[b] * x[shift_idx[a]]. unshift_idx holds flat indices
    into a (K, N) array y with y.take(unshift_idx)[a, i] = y[a, (i - k) mod N],
    which moves row a back by its lag: A^H x = y.take(unshift_idx)[a] when
    y[a] = conj(doppler_rows[b]) * x. quad_sum caches the region-wide sum of
    all loaded matrices, Q = sum(ar + ai) + 2 |R| zeta I (the quadratic block
    reused by every outer iteration of the solver), and gamma_x a rigorous
    upper bound on lambda_max(Q), found without any factorization (see
    build_loaded_region). The x-step's matrix is gamma_x I - Q bordered by
    the auxiliary vector, and Q never changes during a solve, so neither
    does gamma_x.
    """

    n: int
    region: RegionSpec
    zeta: float
    shift_idx: np.ndarray
    unshift_idx: np.ndarray
    doppler_rows: np.ndarray
    quad_sum: np.ndarray
    gamma_x: float


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


# power steps behind the Collatz-Wielandt bound on lambda_max(quad_sum); at
# eight it is within 1% of rho(|Q|) and 2-3% of lambda_max on the benchmark regions
GAMMA_STEPS = 8


def _collatz_wielandt_bound(shift_idx: np.ndarray, back_idx: np.ndarray,
                            s_abs: np.ndarray) -> float:
    """Upper bound on the spectral radius of the lag-structured matrix H.

    H is nonnegative with (H v)[i] = sum over lags of s_abs[i] v[i + k] +
    s_abs[i - k] v[i - k] (indices mod N), so it is applied as 2K weighted
    gathers and never formed. For every v > 0, rho(H) <= max_i (H v)_i / v_i
    (Collatz-Wielandt); v = 1 gives H's largest row sum (Gershgorin). Power
    steps v <- (H + sigma I) v move v towards H's Perron vector, where the
    ratio falls to rho(H), and for a nonnegative matrix the ratio never
    rises along power steps (A v <= r v gives A (A v) <= r (A v)), so only
    the last one is computed. The shift sigma = 1/4 of H's largest row sum
    damps the eigenvalues of H at or near -rho(H) (a cyclic lag pattern is
    often bipartite), so the ratio keeps falling; sigma > 0 also keeps
    v > 0 when a row of H is zero. v is not rescaled: a row of H sums to at
    most sqrt(2) |R| <= sqrt(2) N^2, so each step multiplies v by less than
    2 N^2, far from overflow in GAMMA_STEPS steps.
    """
    k, n = shift_idx.shape
    # the gathers of H, then sigma v[i] as one more row
    idx = np.concatenate([shift_idx, back_idx, np.arange(n)[None, :]])
    wgt = np.empty(idx.shape)
    wgt[:k] = s_abs
    np.take(s_abs, back_idx, out=wgt[k:-1])
    wgt[-1] = 0.0
    h = wgt.sum(axis=0)  # H 1, the row sums
    sigma = 0.25 * h.max()
    wgt[-1] = sigma
    h += sigma
    terms = np.empty_like(wgt)
    for _ in range(GAMMA_STEPS):
        v = h
        h = np.multiply(v.take(idx, out=terms), wgt, out=terms).sum(axis=0)
    return float((h / v).max() - sigma)


def loading_level(delta, n: int, cells: int) -> float:
    """The loading level zeta = 1 + delta, or ValueError unless delta is a usable margin.

    delta must be a finite real > 0 and not a bool, with 1 + delta > 1 in
    float64, or zeta = 1 would load nothing. Every value of a solve on n
    entries and cells region cells must also stay finite: with zeta =
    1 + delta, ||s|| <= 2 |R| sqrt(1 + zeta), gamma_x <= |R| (2 zeta +
    sqrt(2)) and gamma_x I - Q <= 2 sqrt(2) |R| I, so the largest, the UQP
    objective, is <= |R| (4 zeta N + (2 + 2 sqrt(2)) N + 2 zeta + 2) <=
    8 |R| zeta (N + 1) for delta >= 0.21; D [x; 1] and M2's 2 |R| zeta N
    stay below it.
    """
    delta = as_positive(delta, "delta")
    zeta = 1.0 + delta
    if zeta == 1.0:
        raise ValueError(f"delta={delta!r} is too small: 1 + delta rounds to 1, "
                         f"and loading needs 1 + delta > 1")
    if not 8 * cells * zeta * (n + 1) <= sys.float_info.max:
        raise ValueError(f"delta={delta!r} overflows 8 |R| (1 + delta) (N + 1) for "
                         f"|R|={cells}, n={n}")
    return zeta


def build_loaded_region(n: int, region: RegionSpec, delta: float = 0.01) -> LoadedRegion:
    """Lag indices, Doppler rows, loaded-matrix sum Q and gamma_x of a region.

    gamma_x bounds lambda_max(Q) from above without an eigendecomposition.
    Q is Hermitian, so lambda_max(Q) <= rho(Q) <= rho(|Q|) (Wielandt), and
    |Q| <= G entrywise for the nonnegative G that adds the magnitudes of
    every lag's entries, so rho(|Q|) <= rho(G) (Perron-Frobenius). G is
    2 |R| zeta I plus the lag-structured H of _collatz_wielandt_bound, which
    bounds rho(H). Where no two lags meet mod N (k and -k, lag 0, or
    k = N/2), G = |Q| and the bound approaches rho(|Q|), within a few
    percent of lambda_max(Q) on the benchmark regions. Weyl's bound
    |R| (2 zeta + sqrt(2)) caps it (each cell adds ar + ai = S + S^H with
    S = (1 + j) A / 2 and ||S|| = 1/sqrt(2), plus 2 zeta I), and the smaller
    of the two is raised by a rounding margin of 4 N eps: both are exact on
    a single cell, where the computed lambda_max(Q) can sit an ulp above them.
    delta passes loading_level's checks, which give zeta = 1 + delta.
    """
    n = _length(n)
    region.validate_for(n)
    zeta = loading_level(delta, n, region.size)
    rows = np.arange(n)
    shift_idx, doppler_rows = _region_tables(n, region.delays, region.dopplers)
    back_idx = (rows - np.array(region.delays)[:, None]) % n
    unshift_idx = back_idx + n * np.arange(len(back_idx))[:, None]
    # ar + ai = S + S^H with S = (1 + j) A / 2, and A holds d_p[i] at (i, (i + k) mod N),
    # so every lag writes the same row sum of S at its own positions; the lags are
    # distinct mod N, so neither write below hits a position twice
    s_row = (0.5 * (1 + 1j) * doppler_rows).sum(axis=0)
    quad_sum = np.zeros((n, n), dtype=complex)
    quad_sum[rows, shift_idx] = s_row
    quad_sum[shift_idx, rows] += s_row.conj()
    loading = 2.0 * region.size * zeta
    quad_sum.flat[::n + 1] += loading  # on the diagonal in place
    bound = loading + _collatz_wielandt_bound(shift_idx, back_idx, np.abs(s_row))
    weyl = region.size * (2.0 * zeta + math.sqrt(2.0))
    gamma_x = min(weyl, bound) * (1.0 + 4 * n * sys.float_info.epsilon)
    return LoadedRegion(n=n, region=region, zeta=zeta, shift_idx=shift_idx,
                        unshift_idx=unshift_idx, doppler_rows=doppler_rows, quad_sum=quad_sum,
                        gamma_x=gamma_x)
