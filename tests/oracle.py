"""Independent reference implementations the tests check the package against.

Everything here is deliberately written the slow, literal way (scalar
loops, cmath, exhaustive enumeration) so it cannot share a fault with the
vectorized paths inside the package.
"""

import cmath
import json
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

    afshape.solver.pmli_inner must return the same bits: the same code and,
    with track_objective=True, the same gamma2 + 1 objectives.
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


def build_uqp_frobenius(aux, loaded):
    """build_uqp with gamma_x = ||B||_F, the looser bound it first used.

    Both bounds keep D's leading N x N block PSD, which is all PMLI's
    monotonicity needs, and PMLI reaches the same fixed points under either;
    the solve with the Weyl bound must stay within a stated tolerance of this.
    """
    from afshape.solver import build_bx

    bx = build_bx(aux, loaded)
    return float(np.linalg.norm(bx)) * np.eye(bx.shape[0]) - bx


def af_grid_to_csv(self, path, db=False):
    """AFGrid.to_csv as first written: every value of every row through f"{v:.17g}".

    The body is the method's, unchanged (self is the AFGrid), so the fast
    writer in the package must produce the same bytes.
    """
    grid = self.magnitude_db if db else self.magnitude
    lines = ["lag," + ",".join(str(int(b)) for b in self.bins)]
    for lag, row in zip(self.lags, grid):
        lines.append(f"{int(lag)}," + ",".join(f"{v:.17g}" for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def trace_to_json(trace, path):
    """trace.json as first written: json.dumps(..., indent=2) of the whole trace.

    ConvergenceTrace.write_json must produce the same bytes.
    """
    Path(path).write_text(json.dumps(trace.to_json_dict(), indent=2) + "\n")
