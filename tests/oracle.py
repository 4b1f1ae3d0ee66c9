"""Independent reference implementations the tests check the package against.

Everything here is deliberately written the slow, literal way (scalar
loops, cmath, exhaustive enumeration) so it cannot share a fault with the
vectorized paths inside the package.
"""

import cmath
import json
import math
from pathlib import Path

import numpy as np


def af_sum_reference(values, k, p):
    """r[k, p] as the literal term-by-term cyclic sum.

    Indices follow the 1-based definition: term n is
    x_n * conj(x_{n-k}) * exp(-2j pi (n - k) p / N), with n - k wrapped
    mod N inside the code lookup only (the exponent is already periodic
    for integer p).
    """
    n = len(values)
    total = 0.0 + 0.0j
    for i in range(n):  # i = n - 1
        total += (
            complex(values[i])
            * complex(values[(i - k) % n]).conjugate()
            * cmath.exp(-2j * cmath.pi * (i + 1 - k) * p / n)
        )
    return total


def quadratic_form(matrix, vector):
    """v^H M v as a plain float/complex, no shortcuts."""
    v = np.asarray(vector)
    return complex(np.conj(v) @ (np.asarray(matrix) @ v))


def random_unitary(n, rng):
    """Random unitary via QR of a complex Gaussian, R-diagonal phase fixed."""
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_psd(n, rng, scale=1.0):
    """Random Hermitian positive semidefinite matrix."""
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scale * (g.conj().T @ g) / n


def exhaustive_uqp_optimum(d_mat, levels):
    """Maximize [x; 1]^H D [x; 1] over an `levels`-point phase alphabet.

    Enumerates every combination of the first N entries (the trailing
    entry stays pinned at 1) and returns (best_x, best_objective).
    """
    d_mat = np.asarray(d_mat)
    n = d_mat.shape[0] - 1
    alphabet = np.exp(2j * np.pi * np.arange(levels) / levels)
    grids = np.meshgrid(*([alphabet] * n), indexing="ij")
    combos = np.stack(grids, axis=-1).reshape(-1, n)
    lifted = np.concatenate([combos, np.ones((combos.shape[0], 1))], axis=1)
    objectives = np.einsum("ia,ab,ib->i", lifted.conj(), d_mat, lifted).real
    best = int(np.argmax(objectives))
    return combos[best], float(objectives[best])


def pmli_inner_fixed_count(d_mat, x_start, gamma2, track_objective=False):
    """Fixed-count PMLI: always gamma2 steps, with no fixed-point exit.

    afshape.solver.pmli_inner must return the same code, bit for bit. With
    track_objective=True this returns all gamma2 + 1 objectives; the
    package's steps + 1 values must be their prefix, bit for bit, and every
    later value here must repeat the package's last one.
    """
    # imported here so the rest of the oracle loads without the package
    from afshape import CodeSequence

    d_mat = np.asarray(d_mat)
    n = x_start.n
    if d_mat.shape != (n + 1, n + 1):
        raise ValueError(f"UQP matrix must be {(n + 1, n + 1)} for a length-{n} code, "
                         f"got {d_mat.shape}")
    if gamma2 < 1:
        raise ValueError(f"gamma2 must be >= 1, got {gamma2}")
    phases = x_start.phases.copy()
    xbar = np.empty(n + 1, dtype=complex)
    xbar[n] = 1.0
    objectives = []
    for _ in range(gamma2):
        xbar[:n] = np.exp(1j * phases)
        y = d_mat @ xbar
        if track_objective:
            objectives.append(float(np.real(np.vdot(xbar, y))))
        head = y[:n]
        new_phases = np.angle(head)
        zero = head == 0
        if np.any(zero):
            new_phases[zero] = phases[zero]
        phases = new_phases
    result = CodeSequence(phases=phases)
    if track_objective:
        xbar[:n] = np.exp(1j * phases)
        objectives.append(float(np.real(np.vdot(xbar, d_mat @ xbar))))
        return result, np.asarray(objectives)
    return result


def pmli_inner_reference(d_mat, x_start, gamma2, floor=0.0, track_objective=False):
    """afshape.solver.pmli_inner built on pmli_inner_fixed_count alone.

    When floor > 0 and eps |f_0| <= floor, with f_0 the start code's
    objective and eps float64's machine epsilon, the fixed-count trajectory
    is cut at its first objective that does not exceed the one before, and
    that iterate is returned with the objectives up to it. Otherwise the
    fixed-count result is returned as it is. The package must return the
    same code, bit for bit; on the cut path also the same objectives.
    """
    result, objectives = pmli_inner_fixed_count(d_mat, x_start, gamma2, track_objective=True)
    if floor > 0 and np.finfo(float).eps * abs(objectives[0]) <= floor:
        flat = np.flatnonzero(~(objectives[1:] > objectives[:-1]))
        if flat.size:
            steps = int(flat[0]) + 1
            result = pmli_inner_fixed_count(d_mat, x_start, steps)
            objectives = objectives[:steps + 1]
    return (result, objectives) if track_objective else result


def build_bx(aux, loaded):
    """Hermitian (N+1) x (N+1) form B with [x; 1]^H B [x; 1] = M2 - const.

    The constant is 2 * region.size * zeta * N (from the unit norms of the
    auxiliary vectors and ||x||^2 = N). The top-left block is the cached
    region-wide sum of loaded matrices; the border is -sqrt(zeta N) s, with
    aux = s the summed auxiliary vector of afshape.solver.update_aux.
    """
    n = loaded.n
    linear = -math.sqrt(loaded.zeta * n) * aux
    bx = np.zeros((n + 1, n + 1), dtype=complex)
    bx[:n, :n] = loaded.quad_sum
    bx[:n, n] = linear
    bx[n, :n] = np.conj(linear)
    return bx


def update_aux_two_halves(x, loaded):
    """afshape.solver.update_aux as written with one array per loaded half.

    q, sqrt(q), the weights w = 1 / sqrt(q) and the M2 gaps are formed once
    for the ar halves (from Re r) and once for the ai halves (from Im r), and
    their sums are added last. The package's single halves array sums in
    another order, so it must match this within a relative tolerance; the
    RuntimeError on a failed loading is the same.
    """
    values = x.values
    rows = loaded.doppler_rows
    shifted = values[loaded.shift_idx]
    r = (shifted * values.conj()) @ rows.T
    zn = loaded.zeta * loaded.n
    q_r = zn + r.real
    q_i = zn - r.imag
    if not (q_r.min() > 0.0 and q_i.min() > 0.0):
        raise RuntimeError(f"loaded matrices are not positive definite at this code: "
                           f"min x^H L x = {min(q_r.min(), q_i.min()):.6e} "
                           f"at loading level {loaded.zeta:.6e}")
    root_r = np.sqrt(q_r)
    root_i = np.sqrt(q_i)
    w_r = 1.0 / root_r
    w_i = 1.0 / root_i
    root_zn = math.sqrt(zn)
    gap_r = r.real / (root_r + root_zn)
    gap_i = r.imag / (root_i + root_zn)
    m2 = float(np.vdot(gap_r, gap_r) + np.vdot(gap_i, gap_i))
    weights = (0.5 * w_r + 0.5j * w_i) @ rows
    terms = np.multiply(shifted, weights, out=shifted)
    np.conjugate(weights, out=weights)
    terms += np.multiply(weights, values, out=weights).take(loaded.unshift_idx)
    s = terms.sum(axis=0)
    s += loaded.zeta * (w_r.sum() + w_i.sum()) * values
    return s, float(np.vdot(r, r).real), m2


def build_uqp_frobenius(aux, loaded, out=None):
    """build_uqp with gamma_x = ||B||_F, the looser bound it first used.

    Both bounds keep D's leading N x N block PSD, which is all PMLI's
    monotonicity needs, and PMLI reaches the same fixed points under either;
    the solve with the package's bound must stay within a stated tolerance of
    this. out is ignored: D is built afresh on every call.
    """
    bx = build_bx(aux, loaded)
    return float(np.linalg.norm(bx)) * np.eye(bx.shape[0]) - bx


def af_grid_reference(x):
    """af_grid as first written with N rows: one FFT per cyclic lag row, all N.

    The body is the N-row af_grid's, unchanged. The package transforms rows
    0 .. N//2 and copies the rest as mirror images, so each of its cells must
    stay within rounding of this one.
    """
    # imported here so the rest of the oracle loads without the package
    from afshape.af_core import AFGrid, to_db

    n = x.n
    values = x.values
    bins = np.arange(n) - n // 2
    lag_rows = np.conj(values) * values[(np.arange(n) + np.arange(n)[:, None]) % n]
    magnitude = np.abs(np.fft.fft(lag_rows, axis=1))[:, bins % n]
    magnitude[0, n // 2] = n
    return AFGrid(n=n, bins=bins, magnitude=magnitude,
                  magnitude_db=to_db(magnitude, float(n)))


def af_grid_to_csv(self, path, db=False):
    """The AF grid CSV as first written: every value of every row through f"{v:.17g}".

    The body is the first grid writer's, unchanged (self is the grid, one
    row per lag), so the CLI's streamed writer must produce the same bytes.
    """
    grid = self.magnitude_db if db else self.magnitude
    lines = ["lag," + ",".join(str(int(b)) for b in self.bins)]
    for lag, row in zip(self.lags, grid):
        lines.append(f"{int(lag)}," + ",".join(f"{v:.17g}" for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def trace_to_json(trace, path):
    """trace.json as first written: json.dumps(..., indent=2) of the whole trace.

    The CLI's streamed JSON writer must produce the same bytes.
    """
    Path(path).write_text(json.dumps(trace.to_json_dict(), indent=2) + "\n")


def write_code_csv(x, path):
    """code.csv as first written, the body unchanged (x is the code).

    The CLI's CSV writer must produce the same bytes.
    """
    values = x.values
    lines = ["index,phase_rad,re,im"]
    for i, (phase, value) in enumerate(zip(x.phases, values)):
        lines.append(f"{i},{phase:.17g},{value.real:.17g},{value.imag:.17g}")
    path.write_text("\n".join(lines) + "\n")


def trace_to_csv(self, path):
    """trace.csv as first written, the body unchanged (self is the trace).

    The CLI's CSV writer must produce the same bytes.
    """
    lines = ["outer_iter,C,m2_objective"]
    for t, c, m2 in zip(self.outer_iters, self.c_values, self.m2_values):
        lines.append(f"{t},{c:.17g},{m2:.17g}")
    Path(path).write_text("\n".join(lines) + "\n")
