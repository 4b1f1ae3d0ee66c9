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

gamma_x needs no eigendecomposition. Q is Hermitian, so lambda_max(Q) <=
rho(Q) <= rho(|Q|) (Wielandt), and for every positive vector v,
rho(|Q|) <= max_i (|Q| v)_i / v_i (Collatz-Wielandt). Starting from v = 1,
which gives Gershgorin's row-sum bound, a few power steps bring v close to
the Perron vector of |Q| (or of a lag-structured G >= |Q| where lags meet
mod N), and the ratio falls to within a few percent of lambda_max(Q). Weyl's
bound |R| (2 zeta + sqrt(2)) caps it. Q is the same matrix in every outer
iteration, so build_loaded_region computes gamma_x once per solve, and the
solve keeps one D: run builds gamma_x I - Q before the first cycle, and each
cycle rewrites only D's border sqrt(zeta N) s (see build_uqp).

The full D is in general not PSD with this gamma_x (it ignores the
border), and need not be. A smaller gamma_x makes each PMLI step move
further, so fewer steps reach a fixed point.

Each full cycle therefore never increases M2. At u = u(x) the u-step's
closed form leaves, per loaded matrix,

    ||R x - sqrt(zeta N) u||^2 = (||R x|| - sqrt(zeta N))^2 = (sqrt(q) - sqrt(zeta N))^2,

with q = x^H L x = zeta N + Re r[k, p] for the ar half and zeta N - Im r[k, p]
for the ai half. The u-step needs only the K lag shifts and the P Doppler
rows of the LoadedRegion to form every r (never one row per cell: see
update_aux), and it holds q of both halves in one real array of 2 |R|
values, on which sqrt(q), the weights and the M2 terms are each formed once.
It already takes sqrt(q) for its weights, so it returns M2(x, u(x)) as the
sum of these terms, each written as (q - zeta N) / (sqrt(q) + sqrt(zeta N))
squared so that nothing cancels.
m2_objective evaluates M2 at any (x, u) from B itself, as
x^H Q x + 2 |R| zeta N - 2 sqrt(zeta N) Re(x^H s).

The same pass yields the quartic C = sum |r[k, p]|^2, so the u-step also
returns C at the new code.

What the solve lowers is therefore f(x) = M2(x, u(x)) = sum (sqrt(q) -
sqrt(zeta N))^2, not C itself. C = sum (q - zeta N)^2 = sum (sqrt(q) -
sqrt(zeta N))^2 (sqrt(q) + sqrt(zeta N))^2, so f is a weighted C with the
same zero set, and the solve's limit points are stationary for f, not
necessarily for C.

An MM cycle only has to lower the surrogate, not solve the UQP exactly, so
PMLI need not run to its fixed point either. The UQP objective g = [x; 1]^H
D [x; 1] rises by exactly what M2 falls at the cycle's fixed u, and float64
shows a rise in g no smaller than about eps |g| (eps the machine epsilon).
run therefore hands PMLI the floor epsilon * M2: while eps |g| is within
that floor, PMLI stops at its first step whose g does not rise, past which
its steps only move the phases by rounding until they repeat. Once M2 has
fallen below eps |g| / epsilon, as on a deeply nulled region, a fall of M2
the stopping rule cares about may no longer show in g, and PMLI runs to its
exact fixed point, which is what keeps lowering M2 there.

One cycle, x-step then u-step, is the map mm_step. run drives it: it owns
the ConvergenceTrace (C, M2, wall time and PMLI's objective block per
row, why the solve stopped),
on_outer, the stopping rule |C_t - C_{t-1}| <= epsilon * C_{t-1}, and a
runtime check that M2 never rises. With an identical config and seed the
solve is fully deterministic.
"""

from __future__ import annotations

import math
import numbers
import sys
import time
from dataclasses import dataclass, field, fields

import numpy as np

# eval_objective is not called here; it stays importable from this module
# because perfbench/tracer.py wraps afshape.solver.eval_objective
from .af_core import CodeSequence, RegionSpec, as_integer, eval_objective  # noqa: F401
from .af_core import _energy, _region_product
from .reformulation import LoadedRegion, build_loaded_region

_EPS = sys.float_info.epsilon  # float64's machine epsilon


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
        # the integer settings and the least value each may take
        for name, least in (("n", 2), ("gamma1", 1), ("gamma2", 1), ("seed", 0)):
            setattr(self, name, as_integer(getattr(self, name), name, least))
        for name in ("epsilon", "delta"):
            value = getattr(self, name)
            # bool is a Real; compared, not converted: float(10**400) raises OverflowError
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not 0 < value <= sys.float_info.max):
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")
            setattr(self, name, float(value))
        if 1.0 + self.delta == 1.0:  # the loading level would round to 1, loading nothing
            raise ValueError(f"delta={self.delta!r} is too small: 1 + delta rounds to 1")
        self.region.validate_for(self.n)
        # every value of the solve must stay finite: with zeta = 1 + delta, ||s|| <= 2 |R|
        # sqrt(1 + zeta), gamma_x <= |R| (2 zeta + sqrt(2)) and gamma_x I - Q <= 2 sqrt(2) |R| I,
        # so the largest, the UQP objective, is <= |R| (4 zeta N + (2 + 2 sqrt(2)) N + 2 zeta + 2)
        # <= 8 |R| zeta (N + 1) for delta >= 0.21; D [x; 1] and M2's 2 |R| zeta N stay below it
        if not 8 * self.region.size * (1.0 + self.delta) * (self.n + 1) <= sys.float_info.max:
            raise ValueError(f"delta={self.delta!r} overflows 8 |R| (1 + delta) (N + 1) for "
                             f"|R|={self.region.size}, n={self.n}")

    def to_json_dict(self) -> dict:
        """The settings in declaration order, the region written as k and p after n."""
        data = {"n": self.n, "k": list(self.region.delays), "p": list(self.region.dopplers)}
        data.update((f.name, getattr(self, f.name)) for f in fields(self)
                    if f.name not in ("n", "region"))
        return data

    @classmethod
    def from_json_dict(cls, data: dict) -> "SolverConfig":
        unknown = set(data) - CONFIG_KEYS
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for required in ("n", "k", "p"):
            if required not in data:
                raise ValueError(f"missing required config key {required!r}")
        kwargs = {key: value for key, value in data.items() if key not in ("n", "k", "p")}
        n = as_integer(data["n"], "n", 2)  # first: k and p's a..b ranges are checked against n
        return cls(n=n, region=RegionSpec.for_length(n, data["k"], data["p"]), **kwargs)


# keys of a JSON config: the settable fields, with the region given as k and p
CONFIG_KEYS = frozenset({f.name for f in fields(SolverConfig)} - {"region"} | {"k", "p"})


# the run record states when C first fell to C0 / divisor, for each divisor
QUALITY_DIVISORS = (10, 100, 1000)


@dataclass(eq=False)
class ConvergenceTrace:
    """Per-outer-iteration record of one solve.

    Row 0 describes the initial code (before any iteration); run passes it
    to the constructor, and record adds one row per outer iteration with its
    inner block: inner_objectives[i] is the array pmli_inner returned for
    outer iteration i + 1, the UQP objective of every iterate it visited,
    steps + 1 values. to_json_dict gives every field of trace.json in order,
    the arrays as plain lists; the CLI writes that dict as trace.json and
    the outer_iter, C and m2_objective columns as trace.csv.
    A finished solve also records the code it started from and its run
    record: why it stopped ("epsilon" when the relative change of C fell to
    epsilon, "gamma1" at the outer-iteration cap), that last relative change
    of C, the two per-solve constants of the x-step, the loading level zeta
    and gamma_x, and inner_steps, the PMLI steps of the whole solve (the sum
    of len(block) - 1), and time_to_quality: for each target C0/10, C0/100
    and C0/1000, the first row whose C reached it, as its outer_iter and
    elapsed_ms, or None where no row did. run_record is the one list of
    those fields; trace.json and manifest.json both end with it, so a new
    field is added there alone.
    """

    outer_iters: list = field(default_factory=list)
    c_values: list = field(default_factory=list)
    m2_values: list = field(default_factory=list)
    elapsed_ms: list = field(default_factory=list)
    inner_objectives: list = field(default_factory=list)
    initial_code: CodeSequence | None = None
    stop_reason: str | None = None
    final_rel_change: float | None = None
    zeta: float | None = None
    gamma_x: float | None = None

    def record(self, outer_iter: int, c_value: float, m2_value: float,
               elapsed: float, inner: np.ndarray) -> None:
        self.outer_iters.append(int(outer_iter))
        self.c_values.append(float(c_value))
        self.m2_values.append(float(m2_value))
        self.elapsed_ms.append(float(elapsed))
        self.inner_objectives.append(inner)

    def to_json_dict(self) -> dict:
        return {
            "outer_iter": list(self.outer_iters),
            "C": list(self.c_values),
            "m2_objective": list(self.m2_values),
            "elapsed_ms": list(self.elapsed_ms),
            "inner_objectives": [block.tolist() for block in self.inner_objectives],
            **self.run_record(),
        }

    def run_record(self) -> dict:
        """The fields trace.json and manifest.json both end with, in file order."""
        return {"stop_reason": self.stop_reason, "final_rel_change": self.final_rel_change,
                "zeta": self.zeta, "gamma_x": self.gamma_x,
                "inner_steps": sum(len(block) - 1 for block in self.inner_objectives),
                "time_to_quality": self._time_to_quality()}

    def _time_to_quality(self) -> dict:
        c_values = np.array(self.c_values, dtype=float)
        reached = {}
        for divisor in QUALITY_DIVISORS:
            rows = np.flatnonzero(c_values <= c_values[0] / divisor) if c_values.size else ()
            reached[f"C0/{divisor}"] = (
                {"outer_iter": self.outer_iters[rows[0]], "elapsed_ms": self.elapsed_ms[rows[0]]}
                if len(rows) else None)
        return reached


@dataclass(eq=False)
class SolverState:
    """Mutable view of one running solve, handed to the outer-step callback."""

    x: CodeSequence
    loaded: LoadedRegion
    trace: ConvergenceTrace
    outer_iter: int


def init_random_code(n: int, seed: int) -> CodeSequence:
    """Random unimodular code: phases i.i.d. uniform on [0, 2 pi)."""
    rng = np.random.default_rng(seed)
    return CodeSequence(phases=rng.uniform(0.0, 2.0 * np.pi, n))


def update_aux(x: CodeSequence, loaded: LoadedRegion) -> tuple[np.ndarray, float, float]:
    """Closed-form u-step for fixed x: (s, C, M2) with s = sum over cells of R u^r + R u^i.

    u = R x / ||R x|| maximizes Re{x^H R u} (the u-part of M2 with its sign
    flipped) over the unit sphere, and R u = L x / sqrt(x^H L x), so s weights
    each cell's A x and A^H x by 1 / sqrt(x^H L x). C = sum |r|^2 is the
    region energy at x, with the bits of eval_objective, and M2 = M2(x, u(x))
    = sum (sqrt(q) - sqrt(zeta N))^2 over both halves of every cell, from the
    roots sqrt(q) of q = x^H L x the weights use (see the module docstring);
    it equals m2_objective(x, s, loaded) up to rounding.

    Nothing is formed per cell. With F the (P, N) Doppler rows and
    xs[k] = x[(i + k) mod N] the K shifted copies of x, af_core's region
    product r = (xs * conj(x)) F^T is the (K, P) block of every x^H A x.
    Conjugated in place and viewed as one real (K, 2P) array, halves, its
    columns alternate Re r and -Im r, so q = halves + zeta N holds x^H L x
    of both halves of every cell. The weights w = 1 / (2 sqrt(q)) overwrite
    q; viewed as complex they are alpha = (w_r + j w_i) / 2 per cell, with
    w_r and w_i the two halves' 1 / sqrt(q). With W = alpha F, the A x half
    of s is sum_k xs[k] * W[k]; the A^H x half has weights conj(alpha), so it
    is sum_k of the row conj(W[k]) * x shifted back by k, one flat gather of
    a (K, N) array.
    Raises RuntimeError when some x^H L x is not positive, i.e. the loading
    failed to make that matrix positive definite.
    """
    values = x.values
    rows = loaded.doppler_rows
    shifted, r = _region_product(values, loaded.shift_idx, rows)
    # Re r and -Im r side by side; + zeta N gives x^H L x of both halves, as ||x||^2 = N
    halves = np.conjugate(r, out=r).view(float)
    zn = loaded.zeta * loaded.n
    q = halves + zn
    if not q.min() > 0.0:  # a NaN minimum fails too
        raise RuntimeError(f"loaded matrices are not positive definite at this code: "
                           f"min x^H L x = {q.min():.6e} at loading level {loaded.zeta:.6e}")
    root = np.sqrt(q, out=q)
    # sqrt(q) - sqrt(zeta N) = (q - zeta N) / (sqrt(q) + sqrt(zeta N)), with q - zeta N = halves
    gap = halves / (root + math.sqrt(zn))
    m2 = float(np.vdot(gap, gap))
    c = _energy(r)
    w = np.divide(0.5, root, out=q)
    # L_r x = (A x + A^H x) / 2 + zeta x and L_i x = j (A x - A^H x) / 2 + zeta x
    weights = w.view(complex) @ rows
    # both halves in place in the two (K, N) arrays: xs * W, plus conj(W) * x moved back
    terms = np.multiply(shifted, weights, out=shifted)
    np.conjugate(weights, out=weights)
    terms += np.multiply(weights, values, out=weights).take(loaded.unshift_idx)
    s = terms.sum(axis=0)
    s += 2.0 * loaded.zeta * w.sum() * values
    return s, c, m2


def m2_objective(x: CodeSequence, aux: np.ndarray, loaded: LoadedRegion) -> float:
    """Surrogate objective x^H quad_sum x + 2 |R| zeta N - 2 sqrt(zeta N) Re(x^H s).

    This is [x; 1]^H B [x; 1] plus the constant 2 |R| zeta N, with aux = s
    the summed auxiliary vector of any u (update_aux's for u = u(x)). The
    solve does not call it: at u = u(x) the u-step returns the same value
    without the cancellation between terms of size 2 |R| zeta N.
    """
    values = x.values
    zn = loaded.zeta * loaded.n
    quad = np.vdot(values, loaded.quad_sum @ values).real
    cross = np.vdot(values, aux).real
    return float(quad + 2 * loaded.region.size * zn - 2.0 * math.sqrt(zn) * cross)


def build_uqp(aux: np.ndarray, loaded: LoadedRegion, out: np.ndarray | None = None) -> np.ndarray:
    """D = gamma_x * I - B, whose pinned-tail UQP maximization is the x-step.

    gamma_x = loaded.gamma_x bounds lambda_max(Q) from above, with Q the
    top-left block of B, so D's leading N x N block is PSD. That is all
    PMLI's monotonicity needs, because the trailing entry of [x; 1] is
    pinned (see the module docstring); the full D need not be PSD.

    Only the border of D depends on aux. With out=None a new D is built:
    gamma_x I - Q, gamma_x at D[N, N], and the border sqrt(zeta N) s and its
    conjugate. Given out, a D built earlier for the same loaded region, only
    its 2N border entries are rewritten and out is returned; the result has
    the bits of a fresh build.
    """
    n = loaded.n
    if out is None:
        out = np.empty((n + 1, n + 1), dtype=complex)
        np.negative(loaded.quad_sum, out=out[:n, :n])
        out[n, n] = 0.0
        out.reshape(-1)[::n + 2] += loaded.gamma_x  # the diagonal, through a view
    border = np.multiply(aux, math.sqrt(loaded.zeta * n), out=out[:n, n])
    np.conjugate(border, out=out[n, :n])
    return out


def pmli_inner(d_mat: np.ndarray, x_start: CodeSequence, gamma2: int,
               track_objective: bool = False, floor: float = 0.0):
    """Power-method-like iterations on the pinned-tail UQP.

    Repeats x <- exp(j arg(first N entries of D [x; 1])) for at most gamma2
    steps; stops at an exact fixed point, or, when floor allows it, at the
    first step whose objective does not rise. The trailing entry of the
    lifted vector stays pinned at 1. When D's leading N x N block is PSD the
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

    floor is an absolute objective gain below which the caller has no use
    for further steps (run passes epsilon * M2). The smallest rise float64
    can show in the objective f is about eps |f|, with eps the machine
    epsilon, so when eps |f_0| <= floor at the start code the loop also
    evaluates f = Re(vdot(xbar, D xbar)) at every iterate, from the D xbar
    it forms anyway, and returns the first iterate whose f does not exceed
    its predecessor's. Past that step PMLI only moves the phases by
    rounding until they repeat. With the default floor = 0, or when
    eps |f_0| > floor, a rise could still matter to the caller, and the loop
    runs to the exact fixed point: that keeps deep nulls reachable, where
    M2 has fallen so far that only the exact loop still lowers it.

    With track_objective=True the return value is (code, objectives) where
    objectives holds the UQP objective of every iterate visited, from
    x_start to the returned code: steps + 1 values for the steps taken. A
    stop at a fixed point ends the array with two equal values, and every
    later value of a gamma2-step run would repeat them; an objective stop
    ends it with the value that did not rise.

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
    value = None
    watch = floor > 0.0  # the start code's objective decides it in the first step
    for step in range(gamma2):
        np.cos(phases, out=cos_part)
        np.sin(phases, out=sin_part)
        np.dot(d_mat, xbar, out=y)
        if watch or track_objective:
            last, value = value, float(np.vdot(xbar, y).real)
            if track_objective:
                objectives.append(value)
            if step == 0:
                watch = watch and _EPS * abs(value) <= floor
            elif watch and not value > last:
                break
        np.arctan2(head_im, head_re, out=new_phases)  # np.angle(head), bit for bit
        if np.count_nonzero(head) < n:
            zero = head == 0
            new_phases[zero] = phases[zero]
        if new_phases.tobytes() == phases.tobytes():
            if track_objective:
                objectives.append(value)  # the fixed point's objective, from this step
            break
        phases, new_phases = new_phases, phases
    else:
        if track_objective:
            np.cos(phases, out=cos_part)
            np.sin(phases, out=sin_part)
            np.dot(d_mat, xbar, out=y)
            objectives.append(float(np.vdot(xbar, y).real))
    result = CodeSequence(phases=phases)
    if track_objective:
        return result, np.asarray(objectives)
    return result


def mm_step(x: CodeSequence, s: np.ndarray, loaded: LoadedRegion, d_mat: np.ndarray,
            gamma2: int, floor: float = 0.0):
    """One MM cycle (x-step, then u-step at the new code): (x, s, C, M2, inner).

    Writes sqrt(zeta N) s into the border of d_mat, a D that build_uqp built
    for loaded, and never writes x or s. inner is PMLI's objective block,
    steps + 1 values (see pmli_inner). floor goes to pmli_inner: with the
    default 0 the x-step runs PMLI to an exact fixed point; run passes
    epsilon * M2 so that it may stop once its objective no longer rises.
    """
    d_mat = build_uqp(s, loaded, out=d_mat)
    x, inner = pmli_inner(d_mat, x, gamma2, track_objective=True, floor=floor)
    s, c, m2 = update_aux(x, loaded)
    return x, s, c, m2, inner


def run(config: SolverConfig, on_outer=None):
    """Execute the full cyclic solve; returns (final code, trace).

    Builds the UQP matrix D once (see build_uqp), then runs one mm_step per
    outer iteration until the quartic objective's relative change falls to
    epsilon or after gamma1 outer iterations; the trace records which one,
    the last relative change, the initial code, zeta, gamma_x and every
    outer iteration's inner block, whose length less one is its PMLI steps.
    Pass on_outer to observe the SolverState after each outer iteration. An
    M2 rise above 1e-12 * 2 |R| zeta N, rounding on terms of that size,
    means a broken x-step or u-step and raises RuntimeError.

    Each x-step gets floor = epsilon * M2 at the current code: a cycle that
    lowers M2 by less than that is below what the stopping rule resolves, so
    PMLI may stop at its first step whose objective does not rise, as long
    as float64 can still show a rise of that size (see pmli_inner). On a
    nulled region, where M2 is smaller than that, PMLI runs to its exact
    fixed point as before.
    """
    loaded = build_loaded_region(config.n, config.region, delta=config.delta)
    x = init_random_code(config.n, config.seed)
    s, c_prev, m2_prev = update_aux(x, loaded)
    d_mat = build_uqp(s, loaded)
    m2_slack = 1e-12 * 2 * loaded.region.size * loaded.zeta * loaded.n
    trace = ConvergenceTrace(outer_iters=[0], c_values=[c_prev], m2_values=[m2_prev],
                             elapsed_ms=[0.0], initial_code=x, zeta=loaded.zeta,
                             gamma_x=loaded.gamma_x)
    start = time.perf_counter()
    state = SolverState(x=x, loaded=loaded, trace=trace, outer_iter=0)
    for t in range(1, config.gamma1 + 1):
        x, s, c_now, m2, inner = mm_step(x, s, loaded, d_mat, config.gamma2,
                                         floor=config.epsilon * m2_prev)
        if m2 - m2_prev > m2_slack:
            raise RuntimeError(f"M2 rose from {m2_prev:.17g} to {m2:.17g} in outer iteration "
                               f"{t}, more than the rounding slack {m2_slack:.3g}")
        elapsed = (time.perf_counter() - start) * 1e3
        trace.record(t, c_now, m2, elapsed, inner)
        state.x = x
        state.outer_iter = t
        if on_outer is not None:
            on_outer(state)
        change = abs(c_now - c_prev)
        trace.final_rel_change = (change / abs(c_prev) if c_prev != 0
                                  else 0.0 if change == 0 else math.inf)
        if change <= config.epsilon * abs(c_prev):
            trace.stop_reason = "epsilon"
            break
        c_prev, m2_prev = c_now, m2
    else:
        trace.stop_reason = "gamma1"
    return x, trace
