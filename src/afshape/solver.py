"""Cyclic block-coordinate solver for region-suppressed AF shaping.

The design problem is to minimize the quartic region energy

    C(x) = sum_{(k,p) in region} |x^H A_{k,p} x|^2,    |x_n| = 1,

which this module attacks through the separable surrogate

    M2(x, u) = sum_{(k,p)} ||Ar^{1/2} x - sqrt(zeta N) u^r_{k,p}||^2
                         + ||Ai^{1/2} x - sqrt(zeta N) u^i_{k,p}||^2

built from the loaded Hermitian matrices L (see reformulation) and one
auxiliary unit vector per loaded matrix. Two blocks alternate:

* u-step: for fixed x the minimizer is closed form, u = R x / ||R x||
  with R = L^{1/2}. The solver only ever uses u through R u, and
  R u = L x / sqrt(x^H L x), so the auxiliary set stores R u directly and
  no square root of a matrix is taken.
* x-step: for fixed u, M2 equals (up to an additive constant) the
  quadratic form [x; 1]^H B [x; 1], whose top-left block is the sum of all
  loaded matrices and whose border is -sqrt(zeta N) sum R u. Subtracting B
  from gamma_x * I, with gamma_x = ||B||_F at or above B's top eigenvalue,
  flips the minimization into maximizing a PSD quadratic form over
  unit-modulus entries, which the power-method-like iteration
  x <- exp(j arg(head of D [x; 1])) (PMLI) improves monotonically. The
  trailing entry stays pinned at 1.

Each full cycle therefore never increases M2. Expanding the squares with
||u|| = 1 gives, per loaded matrix,

    ||R x - sqrt(zeta N) u||^2 = x^H L x + zeta N - 2 sqrt(zeta N) Re(x^H R u),

with x^H L x = zeta N + Re r[k, p] for the ar half and zeta N - Im r[k, p]
for the ai half, so M2, the u-step and the border of B are whole-array
operations over the (|R|, N) gather tables of the LoadedRegion.

The quartic C is evaluated once per outer iteration for the stopping rule
|C_t - C_{t-1}| <= epsilon * C_{t-1} and recorded, together with M2 and
wall time, in a ConvergenceTrace. With an identical config and seed the
solve is fully deterministic.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .af_core import CodeSequence, RegionSpec, eval_objective
from .reformulation import LoadedRegion, build_loaded_region


@dataclass
class SolverConfig:
    """Validated bundle of every knob one solve depends on."""

    n: int
    region: RegionSpec
    gamma1: int = 1000
    gamma2: int = 500
    epsilon: float = 1e-6
    seed: int = 0
    delta: float = 0.01

    def __post_init__(self) -> None:
        for name in ("n", "gamma1", "gamma2", "seed"):
            value = getattr(self, name)
            if int(value) != value:
                raise ValueError(f"{name} must be an integer, got {value!r}")
            setattr(self, name, int(value))
        if self.n < 2:
            raise ValueError(f"code length must be >= 2, got {self.n}")
        if self.gamma1 < 1:
            raise ValueError(f"gamma1 must be >= 1, got {self.gamma1}")
        if self.gamma2 < 1:
            raise ValueError(f"gamma2 must be >= 1, got {self.gamma2}")
        for name in ("epsilon", "delta"):
            value = float(getattr(self, name))
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value}")
            setattr(self, name, value)
        self.region.validate_for(self.n)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "k": list(self.region.delays),
            "p": list(self.region.dopplers),
            "gamma1": self.gamma1,
            "gamma2": self.gamma2,
            "epsilon": self.epsilon,
            "seed": self.seed,
            "delta": self.delta,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "SolverConfig":
        unknown = set(data) - CONFIG_KEYS
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for required in ("n", "k", "p"):
            if required not in data:
                raise ValueError(f"missing required config key {required!r}")
        kwargs = {key: value for key, value in data.items() if key not in ("n", "k", "p")}
        region = RegionSpec(delays=tuple(data["k"]), dopplers=tuple(data["p"]))
        return cls(n=data["n"], region=region, **kwargs)


# keys of a JSON config: the settable fields, with the region given as k and p
CONFIG_KEYS = frozenset({f.name for f in fields(SolverConfig)} - {"region"} | {"k", "p"})


@dataclass(eq=False)
class AuxiliarySet:
    """R u for every loaded matrix, one row per (k, p) in region.pairs() order.

    ru_r[c] = R u^r and ru_i[c] = R u^i of the c-th cell, where u is the
    auxiliary unit vector and R the Hermitian root of the loaded matrix.
    """

    ru_r: np.ndarray
    ru_i: np.ndarray


@dataclass(eq=False)
class ConvergenceTrace:
    """Per-outer-iteration record of one solve.

    Row 0 describes the initial code (before any iteration). When the
    inner trace is collected, inner_objectives[i] holds the UQP objective
    values of outer iteration i + 1 (there is no inner block behind row 0).
    """

    outer_iters: list = field(default_factory=list)
    c_values: list = field(default_factory=list)
    m2_values: list = field(default_factory=list)
    elapsed_ms: list = field(default_factory=list)
    inner_objectives: list | None = None

    def record(self, outer_iter: int, c_value: float, m2_value: float,
               elapsed: float, inner=None) -> None:
        self.outer_iters.append(int(outer_iter))
        self.c_values.append(float(c_value))
        self.m2_values.append(float(m2_value))
        self.elapsed_ms.append(float(elapsed))
        if self.inner_objectives is not None and inner is not None:
            self.inner_objectives.append([float(v) for v in inner])

    def to_csv(self, path) -> None:
        """Deterministic CSV: timing stays out so reruns are byte-identical."""
        lines = ["outer_iter,C,m2_objective"]
        for t, c, m2 in zip(self.outer_iters, self.c_values, self.m2_values):
            lines.append(f"{t},{c:.17g},{m2:.17g}")
        Path(path).write_text("\n".join(lines) + "\n")

    def to_json_dict(self) -> dict:
        return {
            "outer_iter": list(self.outer_iters),
            "C": list(self.c_values),
            "m2_objective": list(self.m2_values),
            "elapsed_ms": list(self.elapsed_ms),
            "inner_objectives": self.inner_objectives,
        }


@dataclass(eq=False)
class SolverState:
    """Mutable view of one running solve, handed to the outer-step callback."""

    x: CodeSequence
    aux: AuxiliarySet
    loaded: LoadedRegion
    trace: ConvergenceTrace
    outer_iter: int


def init_random_code(n: int, seed: int) -> CodeSequence:
    """Random unimodular code: phases i.i.d. uniform on [0, 2 pi)."""
    rng = np.random.default_rng(seed)
    return CodeSequence(phases=rng.uniform(0.0, 2.0 * np.pi, n))


def _loaded_forms(values: np.ndarray, loaded: LoadedRegion):
    """A x per cell and the quadratic forms x^H L x of both loaded halves.

    Returns (A x as a (|R|, N) array, zeta N + Re r, zeta N - Im r), where
    r = x^H A x; the forms use ||x||^2 = N, which holds for unimodular x.
    """
    ax = loaded.fwd_diag * values[loaded.fwd_idx]
    r = ax @ values.conj()
    zn = loaded.zeta * loaded.n
    return ax, zn + r.real, zn - r.imag


def update_aux(x: CodeSequence, loaded: LoadedRegion) -> AuxiliarySet:
    """Closed-form minimizers of M2 over the unit vectors, for fixed x.

    u = R x / ||R x|| maximizes Re{x^H R u} over the unit sphere, which is
    exactly the u-dependence of M2 with its sign flipped; it is stored as
    R u = L x / sqrt(x^H L x). Raises RuntimeError when some x^H L x is not
    positive, i.e. the loading failed to make that matrix positive definite.
    """
    values = x.values
    ax, q_r, q_i = _loaded_forms(values, loaded)
    if not (np.all(q_r > 0.0) and np.all(q_i > 0.0)):
        raise RuntimeError(f"loaded matrices are not positive definite at this code: "
                           f"min x^H L x = {min(q_r.min(), q_i.min()):.6e} "
                           f"at loading level {loaded.zeta:.6e}")
    ahx = loaded.bwd_diag * values[loaded.bwd_idx]
    zx = loaded.zeta * values
    l_r = 0.5 * (ax + ahx) + zx
    l_i = 0.5j * (ax - ahx) + zx
    return AuxiliarySet(ru_r=l_r / np.sqrt(q_r)[:, None], ru_i=l_i / np.sqrt(q_i)[:, None])


def m2_objective(x: CodeSequence, aux: AuxiliarySet, loaded: LoadedRegion) -> float:
    """Surrogate objective sum[x^H L x + zeta N - 2 sqrt(zeta N) Re(x^H R u)]."""
    values = x.values
    _, q_r, q_i = _loaded_forms(values, loaded)
    zn = loaded.zeta * loaded.n
    ru_sum = aux.ru_r.sum(axis=0) + aux.ru_i.sum(axis=0)
    cross = np.vdot(values, ru_sum).real
    return float(q_r.sum() + q_i.sum() + 2 * q_r.size * zn - 2.0 * math.sqrt(zn) * cross)


def build_bx(aux: AuxiliarySet, loaded: LoadedRegion) -> np.ndarray:
    """Hermitian (N+1) x (N+1) form B with [x; 1]^H B [x; 1] = M2 - const.

    The constant is 2 * region.size * zeta * N (from the unit norms of the
    auxiliary vectors and ||x||^2 = N). The top-left block is the cached
    region-wide sum of loaded matrices; the border carries the cross terms
    -sqrt(zeta N) sum R u against the auxiliary vectors.
    """
    n = loaded.n
    linear = -math.sqrt(loaded.zeta * n) * (aux.ru_r.sum(axis=0) + aux.ru_i.sum(axis=0))
    bx = np.zeros((n + 1, n + 1), dtype=complex)
    bx[:n, :n] = loaded.quad_sum
    bx[:n, n] = linear
    bx[n, :n] = np.conj(linear)
    return bx


def build_uqp(aux: AuxiliarySet, loaded: LoadedRegion) -> np.ndarray:
    """PSD matrix D = gamma_x * I - B whose UQP maximization is the x-step.

    gamma_x = ||B||_F, a cheap upper bound on the top eigenvalue of the
    Hermitian B.
    """
    bx = build_bx(aux, loaded)
    return float(np.linalg.norm(bx)) * np.eye(bx.shape[0]) - bx


def pmli_inner(d_mat: np.ndarray, x_start: CodeSequence, gamma2: int,
               track_objective: bool = False):
    """Power-method-like iterations on the pinned-tail UQP.

    Repeats x <- exp(j arg(first N entries of D [x; 1])) for gamma2 steps;
    the trailing entry of the lifted vector stays pinned at 1. For PSD D
    the objective [x; 1]^H D [x; 1] never decreases. Entries of D [x; 1]
    that are exactly zero keep their previous phase, which leaves the
    objective unchanged and keeps runs deterministic.

    With track_objective=True the return value is (code, objectives) where
    objectives holds the UQP objective of every visited iterate
    (gamma2 + 1 values).
    """
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


def run(config: SolverConfig, collect_inner: bool = False, on_outer=None):
    """Execute the full cyclic solve; returns (final code, trace).

    One outer iteration builds the UQP matrix from the current auxiliary
    vectors, runs gamma2 inner power-method-like steps on the code, then
    refreshes the auxiliary vectors at the new code. The loop stops when
    the quartic objective's relative change falls to epsilon or after
    gamma1 outer iterations, whichever comes first. Pass on_outer to
    observe the SolverState after each outer iteration.
    """
    loaded = build_loaded_region(config.n, config.region, delta=config.delta)
    x = init_random_code(config.n, config.seed)
    aux = update_aux(x, loaded)
    trace = ConvergenceTrace(inner_objectives=[] if collect_inner else None)
    start = time.perf_counter()
    c_prev = eval_objective(x, config.region)
    trace.record(0, c_prev, m2_objective(x, aux, loaded), 0.0)
    state = SolverState(x=x, aux=aux, loaded=loaded, trace=trace, outer_iter=0)
    for t in range(1, config.gamma1 + 1):
        d_mat = build_uqp(aux, loaded)
        inner = None
        if collect_inner:
            x, inner = pmli_inner(d_mat, x, config.gamma2, track_objective=True)
        else:
            x = pmli_inner(d_mat, x, config.gamma2)
        aux = update_aux(x, loaded)
        c_now = eval_objective(x, config.region)
        elapsed = (time.perf_counter() - start) * 1e3
        trace.record(t, c_now, m2_objective(x, aux, loaded), elapsed, inner)
        state.x = x
        state.aux = aux
        state.outer_iter = t
        if on_outer is not None:
            on_outer(state)
        if abs(c_now - c_prev) <= config.epsilon * abs(c_prev):
            break
        c_prev = c_now
    return x, trace
