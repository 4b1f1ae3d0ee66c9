"""Cyclic block-coordinate solver for region-suppressed AF shaping.

The design problem is to minimize the quartic region energy

    C(x) = sum_{(k,p) in region} |x^H A_{k,p} x|^2,    |x_n| = 1,

which this module attacks through the separable surrogate

    M2(x, u) = sum_{(k,p)} ||Ar^{1/2} x - sqrt(zeta N) u^r_{k,p}||^2
                         + ||Ai^{1/2} x - sqrt(zeta N) u^i_{k,p}||^2

built from the loaded Hermitian matrices L (see reformulation) and one
auxiliary unit vector per loaded matrix. Two blocks alternate:

* u-step: for fixed x the minimizer is closed form, u = R x / ||R x||
  with R = L^{1/2}. The solver only ever uses u through the one vector
  s = sum over the region of R u^r + R u^i, and
  R u = L x / sqrt(x^H L x), so the u-step returns s directly and no
  square root of a matrix is taken.
* x-step: for fixed u, M2 equals (up to an additive constant) the
  quadratic form [x; 1]^H B [x; 1], whose top-left block Q is the sum of
  all loaded matrices and whose border is -sqrt(zeta N) s. Subtracting B
  from gamma_x * I, with gamma_x at or above Q's top eigenvalue, flips the
  minimization into maximizing [x; 1]^H D [x; 1] over unit-modulus
  entries, which the power-method-like iteration
  x <- exp(j arg(head of D [x; 1])) (PMLI) improves monotonically. The
  trailing entry stays pinned at 1.

PMLI needs only D's leading N x N block D11 = gamma_x I - Q to be PSD, not
all of D. With h = head of D [x_k; 1], the objective rises by

    f(x_{k+1}) - f(x_k) = d^H D d + 2 Re(d^H D [x_k; 1]),   d = [x_{k+1} - x_k; 0],

because the lifted vectors differ only in their head. The trailing entry of
d is 0, so d^H D d = d_head^H D11 d_head >= 0, and Re(d^H D [x_k; 1]) =
Re(x_{k+1}^H h) - Re(x_k^H h) >= 0 because x_{k+1} = exp(j arg h)
maximizes Re(x^H h) over unit-modulus x, whatever gamma_x is.

gamma_x comes from Weyl's inequality and needs no eigendecomposition. Each
cell adds ar + ai + 2 zeta I to Q, and ar + ai = S + S^H with
S = (1 + j) A / 2 and ||S|| = 1/sqrt(2) (A is a unitary shift-and-modulate
kernel), so

    gamma_x = |R| (2 zeta + sqrt(2)) >= lambda_max(Q).

The full D is in general not PSD with this gamma_x (it ignores the
border), and need not be. A smaller gamma_x makes each PMLI step move
further, so fewer steps reach a fixed point.

Each full cycle therefore never increases M2. Expanding the squares with
||u|| = 1 gives, per loaded matrix,

    ||R x - sqrt(zeta N) u||^2 = x^H L x + zeta N - 2 sqrt(zeta N) Re(x^H R u),

with x^H L x = zeta N + Re r[k, p] for the ar half and zeta N - Im r[k, p]
for the ai half. The u-step is therefore one pass over the (|R|, N) gather
tables of the LoadedRegion, and summing the terms gives

    M2 = x^H Q x + 2 |R| zeta N - 2 sqrt(zeta N) Re(x^H s)

with Q the cached sum of all loaded matrices, so M2 comes from B itself
and needs no pass over the tables.

The same pass yields the quartic C = sum |r[k, p]|^2, so the u-step also
returns C at the new code. C is used once per outer iteration for the
stopping rule |C_t - C_{t-1}| <= epsilon * C_{t-1} and recorded, together
with M2 and wall time, in a ConvergenceTrace, which also records why the
solve stopped. With an identical config and seed the solve is fully
deterministic.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

# eval_objective is not called here; it stays importable from this module
# because perfbench/tracer.py wraps afshape.solver.eval_objective
from .af_core import CodeSequence, RegionSpec, eval_objective  # noqa: F401
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


def _indented_number_list(values: list, pad: str) -> str:
    """json.dumps(values, indent=2) for a flat list of numbers nested at pad."""
    if not values:
        return "[]"
    item_pad = pad + "  "
    body = json.dumps(values)[1:-1].replace(", ", ",\n" + item_pad)
    return f"[\n{item_pad}{body}\n{pad}]"


def _indented_block(block: np.ndarray, pad: str) -> str:
    """_indented_number_list(block.tolist(), pad) for a float64 inner block.

    A block that stopped at a fixed point ends in a long run of one value,
    which is formatted once and repeated. The run is found on the bits, so
    -0.0 after 0.0 and NaN tails keep their own text.
    """
    bits = block.view(np.uint64)
    if bits.size == 0:
        return "[]"
    differs = np.flatnonzero(bits != bits[-1])
    start = int(differs[-1]) + 1 if differs.size else 0
    text = _indented_number_list(block[:start + 1].tolist(), pad)
    repeats = bits.size - 1 - start
    if not repeats:
        return text
    close = len(pad) + 2  # "\n" + pad + "]"
    item = ",\n" + pad + "  " + json.dumps(block[-1:].tolist())[1:-1]
    return text[:-close] + item * repeats + text[-close:]


@dataclass(eq=False)
class ConvergenceTrace:
    """Per-outer-iteration record of one solve.

    Row 0 describes the initial code (before any iteration). When the
    inner trace is collected, inner_objectives[i] holds the UQP objective
    values of outer iteration i + 1 as one float64 array (there is no inner
    block behind row 0); to_json_dict turns the arrays into plain lists.
    A finished solve also records the code it started from, why it stopped
    ("epsilon" when the relative change of C fell to epsilon, "gamma1" at
    the outer-iteration cap) and that last relative change of C.
    """

    outer_iters: list = field(default_factory=list)
    c_values: list = field(default_factory=list)
    m2_values: list = field(default_factory=list)
    elapsed_ms: list = field(default_factory=list)
    inner_objectives: list | None = None
    initial_code: CodeSequence | None = None
    stop_reason: str | None = None
    final_rel_change: float | None = None

    def record(self, outer_iter: int, c_value: float, m2_value: float,
               elapsed: float, inner=None) -> None:
        self.outer_iters.append(int(outer_iter))
        self.c_values.append(float(c_value))
        self.m2_values.append(float(m2_value))
        self.elapsed_ms.append(float(elapsed))
        if self.inner_objectives is not None and inner is not None:
            self.inner_objectives.append(np.array(inner, dtype=float))

    def to_csv(self, path) -> None:
        """Deterministic CSV: timing stays out so reruns are byte-identical."""
        lines = ["outer_iter,C,m2_objective"]
        for t, c, m2 in zip(self.outer_iters, self.c_values, self.m2_values):
            lines.append(f"{t},{c:.17g},{m2:.17g}")
        Path(path).write_text("\n".join(lines) + "\n")

    def _json_fields(self) -> dict:
        """The fields of trace.json in order, inner blocks still as arrays."""
        return {
            "outer_iter": list(self.outer_iters),
            "C": list(self.c_values),
            "m2_objective": list(self.m2_values),
            "elapsed_ms": list(self.elapsed_ms),
            "inner_objectives": self.inner_objectives,
            "stop_reason": self.stop_reason,
            "final_rel_change": self.final_rel_change,
        }

    def to_json_dict(self) -> dict:
        payload = self._json_fields()
        if self.inner_objectives is not None:
            payload["inner_objectives"] = [block.tolist() for block in self.inner_objectives]
        return payload

    def write_json(self, path) -> None:
        """Write json.dumps(self.to_json_dict(), indent=2) + "\n", byte for byte.

        indent=2 selects json's pure-Python encoder, which is slow on the
        inner trace (gamma2 + 1 floats per outer iteration). Here every flat
        number list goes through the C encoder and is re-indented by
        replacing its ", " separators (no number's text contains one), and
        the inner blocks are encoded and written one at a time, each with
        its trailing run of bitwise-equal values formatted once.
        """
        with open(path, "w") as fh:
            sep = "{\n  "
            for key, value in self._json_fields().items():
                fh.write(f"{sep}{json.dumps(key)}: ")
                sep = ",\n  "
                if key == "inner_objectives" and value:
                    fh.write("[")
                    block_sep = "\n    "
                    for block in value:
                        fh.write(block_sep + _indented_block(block, "    "))
                        block_sep = ",\n    "
                    fh.write("\n  ]")
                elif isinstance(value, list):
                    fh.write(_indented_number_list(value, "  "))
                else:
                    fh.write(json.dumps(value))
            fh.write("\n}\n")


@dataclass(eq=False)
class SolverState:
    """Mutable view of one running solve, handed to the outer-step callback."""

    x: CodeSequence
    aux: np.ndarray
    loaded: LoadedRegion
    trace: ConvergenceTrace
    outer_iter: int


def init_random_code(n: int, seed: int) -> CodeSequence:
    """Random unimodular code: phases i.i.d. uniform on [0, 2 pi)."""
    rng = np.random.default_rng(seed)
    return CodeSequence(phases=rng.uniform(0.0, 2.0 * np.pi, n))


def update_aux(x: CodeSequence, loaded: LoadedRegion) -> tuple[np.ndarray, float]:
    """Closed-form u-step for fixed x: (s, C) with s = sum over cells of R u^r + R u^i.

    u = R x / ||R x|| maximizes Re{x^H R u} (the u-part of M2 with its sign
    flipped) over the unit sphere, and R u = L x / sqrt(x^H L x), so s weights
    each row of A x and A^H x by 1 / sqrt(x^H L x). C = sum |r|^2 is the
    region energy at x, from the r = x^H A x the weights are built on.
    Raises RuntimeError when some x^H L x is not positive, i.e. the loading
    failed to make that matrix positive definite.
    """
    values = x.values
    ax = values[loaded.fwd_idx]
    ahx = values[loaded.bwd_idx]
    # in place, so the two gathers are the only (|R|, N) arrays built
    np.multiply(loaded.fwd_diag, ax, out=ax)
    np.multiply(loaded.bwd_diag, ahx, out=ahx)
    r = ax @ values.conj()
    # x^H L x of both loaded halves, using ||x||^2 = N for unimodular x
    zn = loaded.zeta * loaded.n
    q_r = zn + r.real
    q_i = zn - r.imag
    if not (np.all(q_r > 0.0) and np.all(q_i > 0.0)):
        raise RuntimeError(f"loaded matrices are not positive definite at this code: "
                           f"min x^H L x = {min(q_r.min(), q_i.min()):.6e} "
                           f"at loading level {loaded.zeta:.6e}")
    w_r = 1.0 / np.sqrt(q_r)
    w_i = 1.0 / np.sqrt(q_i)
    # L_r x = (A x + A^H x) / 2 + zeta x and L_i x = j (A x - A^H x) / 2 + zeta x
    s = ((0.5 * w_r + 0.5j * w_i) @ ax + (0.5 * w_r - 0.5j * w_i) @ ahx
         + loaded.zeta * (w_r.sum() + w_i.sum()) * values)
    return s, float(np.vdot(r, r).real)


def m2_objective(x: CodeSequence, aux: np.ndarray, loaded: LoadedRegion) -> float:
    """Surrogate objective x^H quad_sum x + 2 |R| zeta N - 2 sqrt(zeta N) Re(x^H s).

    This is [x; 1]^H B [x; 1] plus build_bx's constant, with aux = s the
    summed auxiliary vector of update_aux.
    """
    values = x.values
    zn = loaded.zeta * loaded.n
    quad = np.vdot(values, loaded.quad_sum @ values).real
    cross = np.vdot(values, aux).real
    return float(quad + 2 * loaded.region.size * zn - 2.0 * math.sqrt(zn) * cross)


def build_bx(aux: np.ndarray, loaded: LoadedRegion) -> np.ndarray:
    """Hermitian (N+1) x (N+1) form B with [x; 1]^H B [x; 1] = M2 - const.

    The constant is 2 * region.size * zeta * N (from the unit norms of the
    auxiliary vectors and ||x||^2 = N). The top-left block is the cached
    region-wide sum of loaded matrices; the border is -sqrt(zeta N) s, with
    aux = s the summed auxiliary vector of update_aux.
    """
    n = loaded.n
    linear = -math.sqrt(loaded.zeta * n) * aux
    bx = np.zeros((n + 1, n + 1), dtype=complex)
    bx[:n, :n] = loaded.quad_sum
    bx[:n, n] = linear
    bx[n, :n] = np.conj(linear)
    return bx


def build_uqp(aux: np.ndarray, loaded: LoadedRegion) -> np.ndarray:
    """D = gamma_x * I - B, whose pinned-tail UQP maximization is the x-step.

    gamma_x = |R| (2 zeta + sqrt(2)) is Weyl's bound on lambda_max(Q), with
    Q the top-left block of B, so D's leading N x N block is PSD. That is
    all PMLI's monotonicity needs, because the trailing entry of [x; 1] is
    pinned (see the module docstring); the full D need not be PSD. D is
    build_bx's array negated in place with gamma_x added to its diagonal,
    so no other (N+1)^2 array is built.
    """
    n = loaded.n
    gamma_x = loaded.region.size * (2.0 * loaded.zeta + math.sqrt(2.0))
    d_mat = build_bx(aux, loaded)
    np.negative(d_mat, out=d_mat)
    d_mat.flat[::n + 2] += gamma_x
    return d_mat


def pmli_inner(d_mat: np.ndarray, x_start: CodeSequence, gamma2: int,
               track_objective: bool = False):
    """Power-method-like iterations on the pinned-tail UQP.

    Repeats x <- exp(j arg(first N entries of D [x; 1])) for at most gamma2
    steps; stops at an exact fixed point. The trailing entry of the lifted
    vector stays pinned at 1. When D's leading N x N block is PSD the
    objective [x; 1]^H D [x; 1] never decreases: consecutive lifted vectors
    differ only in their head, so the trailing row and column of D never
    enter the second-order term of the step. Entries of D [x; 1] that are
    exactly zero keep their previous phase, which leaves the objective
    unchanged and keeps runs deterministic.

    A step whose new phases are bitwise equal to the current ones is a
    fixed point: every later step would compute the same lifted vector and
    the same phases again, so stopping there returns exactly the code that
    gamma2 steps would. The test is on the bytes, because == takes -0.0 for
    0.0 and never matches NaN.

    With track_objective=True the return value is (code, objectives) where
    objectives holds the UQP objective of every iterate gamma2 steps would
    visit (gamma2 + 1 values; after a fixed point they repeat the last one).

    At small N numpy's per-call overhead outweighs the arithmetic, so the
    loop allocates nothing per step: the lifted vector, D [x; 1] and two
    phase buffers are built once, each step writes cos and sin of the
    phases into the real and imaginary parts of the lifted vector (the
    bits of exp(j phases)), and the current and new phase buffers swap.
    x_start's phases are copied first, so x_start is never written.
    """
    d_mat = np.asarray(d_mat)
    n = x_start.n
    if d_mat.shape != (n + 1, n + 1):
        raise ValueError(f"UQP matrix must be {(n + 1, n + 1)} for a length-{n} code, "
                         f"got {d_mat.shape}")
    if gamma2 < 1:
        raise ValueError(f"gamma2 must be >= 1, got {gamma2}")
    phases = x_start.phases.copy()
    new_phases = np.empty(n)
    xbar = np.empty(n + 1, dtype=complex)
    xbar[n] = 1.0
    cos_part = xbar.real[:n]
    sin_part = xbar.imag[:n]
    y = np.empty(n + 1, dtype=complex)
    head = y[:n]
    head_re = head.real
    head_im = head.imag
    objectives = []
    for _ in range(gamma2):
        np.cos(phases, out=cos_part)
        np.sin(phases, out=sin_part)
        np.dot(d_mat, xbar, out=y)
        if track_objective:
            objectives.append(float(np.vdot(xbar, y).real))
        np.arctan2(head_im, head_re, out=new_phases)  # np.angle(head), bit for bit
        if np.count_nonzero(head) < n:
            zero = head == 0
            new_phases[zero] = phases[zero]
        if new_phases.tobytes() == phases.tobytes():
            break
        phases, new_phases = new_phases, phases
    result = CodeSequence(phases=phases)
    if track_objective:
        np.cos(phases, out=cos_part)
        np.sin(phases, out=sin_part)
        np.dot(d_mat, xbar, out=y)
        objectives.append(float(np.vdot(xbar, y).real))
        objectives += objectives[-1:] * (gamma2 + 1 - len(objectives))
        return result, np.asarray(objectives)
    return result


def run(config: SolverConfig, collect_inner: bool = False, on_outer=None):
    """Execute the full cyclic solve; returns (final code, trace).

    One outer iteration builds the UQP matrix from the current auxiliary
    vectors, runs at most gamma2 inner power-method-like steps on the code
    (stopping at an exact fixed point), then refreshes the auxiliary
    vectors and the quartic objective at the new code. The loop stops when
    the quartic objective's relative change falls to epsilon or after
    gamma1 outer iterations, whichever comes first; the trace records which
    one, the last relative change and the initial code. Pass on_outer to
    observe the SolverState after each outer iteration.
    """
    loaded = build_loaded_region(config.n, config.region, delta=config.delta)
    x = init_random_code(config.n, config.seed)
    aux, c_prev = update_aux(x, loaded)
    trace = ConvergenceTrace(inner_objectives=[] if collect_inner else None, initial_code=x)
    start = time.perf_counter()
    trace.record(0, c_prev, m2_objective(x, aux, loaded), 0.0)
    state = SolverState(x=x, aux=aux, loaded=loaded, trace=trace, outer_iter=0)
    for t in range(1, config.gamma1 + 1):
        d_mat = build_uqp(aux, loaded)
        inner = None
        if collect_inner:
            x, inner = pmli_inner(d_mat, x, config.gamma2, track_objective=True)
        else:
            x = pmli_inner(d_mat, x, config.gamma2)
        aux, c_now = update_aux(x, loaded)
        elapsed = (time.perf_counter() - start) * 1e3
        trace.record(t, c_now, m2_objective(x, aux, loaded), elapsed, inner)
        state.x = x
        state.aux = aux
        state.outer_iter = t
        if on_outer is not None:
            on_outer(state)
        change = abs(c_now - c_prev)
        trace.final_rel_change = (change / abs(c_prev) if c_prev != 0
                                  else 0.0 if change == 0 else math.inf)
        if change <= config.epsilon * abs(c_prev):
            trace.stop_reason = "epsilon"
            break
        c_prev = c_now
    else:
        trace.stop_reason = "gamma1"
    return x, trace
