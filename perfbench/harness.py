"""Closed-loop design benchmark for afshape.

One process runs one workload: the same generated config (workload shape
plus the benchmark seed as the program's seed) goes through
``afshape.cli.run_and_export`` again and again, one design at a time,
until the measuring time is used up (and at least MIN_DESIGNS times).
Every design writes into its own directory under ``.perfbench/`` at the
repository root, and its outputs are checked afterwards (see checks.py).

Timing comes from the benchmark's own wrappers: ``afshape.cli.run`` is
replaced by a version that injects an ``on_outer`` callback, which
timestamps every outer iteration. With tracing on, every other design also
records spans around the package's public functions (see tracer.py).
"""

from __future__ import annotations

import ctypes
import dataclasses
import gc
import json
import math
import os
import platform
import resource
import statistics
import tempfile
import time
from contextlib import ExitStack
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import afshape.cli as cli
from afshape.af_core import RegionSpec
from afshape.solver import SolverConfig

import checks
from tracer import ROOT_SPAN, TRACED, Tracer, patched

ROOT = Path(__file__).resolve().parents[1]
WORK_DIR = ROOT / ".perfbench"
# three designs let the median outvote one disturbed design
MIN_DESIGNS = 3
# set-up samples: at least MIN, then more while they fit in SETUP_TOPUP_S
MIN_SETUP_SAMPLES = 5
MAX_SETUP_SAMPLES = 51
SETUP_TOPUP_S = 2.0
# the reference solve's seed, on which acceptance criterion 6 sets the floor
FLOOR_SEED = 0
# time-to-quality targets: C falls to C0 / target
TARGETS = (10, 100)
# at most this many pmli_inner calls per traced design are replayed to
# count useful inner steps when no trace.json exists
REPLAY_CALLS = 100


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    delays: tuple
    dopplers: tuple
    gamma1: int
    gamma2: int
    verbose: bool = False
    # suppression floor (dB), held on FLOOR_SEED only; see README.md
    floor_db: float | None = None

    def config(self, seed: int) -> SolverConfig:
        return SolverConfig(n=self.n, region=RegionSpec(self.delays, self.dopplers),
                            gamma1=self.gamma1, gamma2=self.gamma2, seed=seed)

    def floor_for(self, seed: int):
        return self.floor_db if seed == FLOOR_SEED else None


_REF_BINS = tuple(range(-15, -12)) + tuple(range(11, 15))
WORKLOADS = {w.name: w for w in (
    Workload("ref31", 31, (5, 6, 7), _REF_BINS, 1000, 500, floor_db=10.0),
    Workload("wide64", 64, tuple(range(1, 13)), tuple(range(-10, 11)), 100, 100),
    Workload("long128", 128, (1, 2, 3), tuple(range(-2, 3)), 20, 50),
    Workload("ref31-verbose", 31, (5, 6, 7), _REF_BINS, 300, 500, verbose=True),
)}


class _SetupDone(Exception):
    """Raised from on_outer to end a setup-only sample."""


class RunProbe:
    """Wraps afshape.cli.run so an injected on_outer timestamps each outer step."""

    def __init__(self, stop_after_setup: bool = False):
        self.stop_after_setup = stop_after_setup
        self.t0 = None
        self.outer_times = []
        self.hits = {}  # target -> (outer iteration, seconds since t0)

    def wrap(self, run):
        def probed(*args, on_outer=None, **kwargs):
            def observe(state):
                now = time.perf_counter()
                self.outer_times.append(now)
                c_values = state.trace.c_values
                for target in TARGETS:
                    if target not in self.hits and c_values[-1] <= c_values[0] / target:
                        self.hits[target] = (state.outer_iter, now - self.t0)
                if self.stop_after_setup:
                    raise _SetupDone
                if on_outer is not None:
                    on_outer(state)
            return run(*args, on_outer=observe, **kwargs)
        return probed

    @property
    def setup_s(self) -> float:
        return self.outer_times[0] - self.t0


class Captures:
    """Inputs kept from one traced design for the per-layer counts."""

    def __init__(self, stride: int):
        self.stride = stride
        self.loaded = None
        self.inner_calls = []
        self._calls = 0

    def loaded_region(self, fn):
        def capture(*args, **kwargs):
            self.loaded = fn(*args, **kwargs)
            return self.loaded
        return capture

    def pmli_inner(self, fn):
        def capture(*args, **kwargs):
            if self._calls % self.stride == 0:
                self.inner_calls.append((fn, args, kwargs))
            self._calls += 1
            return fn(*args, **kwargs)
        return capture

    def replayed_objectives(self) -> list:
        return [fn(*args, **{**kwargs, "track_objective": True})[1]
                for fn, args, kwargs in self.inner_calls]


def array_bytes(obj) -> int:
    """Bytes of every numpy array reachable through dataclass fields and containers."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if dataclasses.is_dataclass(obj):
        return sum(array_bytes(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    if isinstance(obj, dict):
        return sum(array_bytes(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(array_bytes(v) for v in obj)
    return 0


def useful_step_frac(blocks) -> float:
    """Inner steps up to the last change of the objective, over steps taken."""
    useful = taken = 0
    for block in blocks:
        block = np.asarray(block)
        changed = np.flatnonzero(block[1:] != block[:-1])
        useful += int(changed[-1]) + 1 if changed.size else 0
        taken += block.size - 1
    return useful / taken


@dataclass
class Design:
    index: int
    outdir: Path
    traced: bool
    wall_s: float = math.nan
    setup_s: float = math.nan
    outer_iters: int = 0
    outer_ms: list = dataclasses.field(default_factory=list)
    hits: dict = dataclasses.field(default_factory=dict)
    error: str | None = None
    failures: list = dataclasses.field(default_factory=list)
    captures: Captures | None = None

    @property
    def ok(self) -> bool:
        return self.error is None and not self.failures


def _call_run_and_export(config, outdir, verbose, probe, tracer=None, captures=None):
    """One run_and_export under the probe (and the tracer); returns wall seconds."""
    with ExitStack() as stack:
        if tracer is not None:
            # captures go on first so replays later call the untraced function
            stack.enter_context(patched("afshape.solver", "build_loaded_region",
                                        captures.loaded_region))
            stack.enter_context(patched("afshape.solver", "pmli_inner", captures.pmli_inner))
            for module, attr, name in TRACED:
                stack.enter_context(patched(module, attr, tracer.wrapper(name)))
            stack.enter_context(tracer.span(ROOT_SPAN))
        stack.enter_context(patched("afshape.cli", "run", probe.wrap))
        probe.t0 = time.perf_counter()
        cli.run_and_export(config, outdir, verbose=verbose)
        return time.perf_counter() - probe.t0


def setup_sample(config, outdir, verbose) -> float:
    """Seconds from entering run_and_export to the first on_outer, then stop."""
    probe = RunProbe(stop_after_setup=True)
    try:
        _call_run_and_export(config, outdir, verbose, probe)
    except _SetupDone:
        return probe.setup_s
    raise RuntimeError("run_and_export finished without an outer iteration")


def run_design(config, design: Design, verbose: bool, tracer=None) -> None:
    probe = RunProbe()
    if tracer is not None:
        tracer.design = design.index
        design.captures = Captures(stride=max(1, math.ceil(config.gamma1 / REPLAY_CALLS)))
    try:
        design.wall_s = _call_run_and_export(config, design.outdir, verbose, probe,
                                             tracer, design.captures)
    except Exception as exc:  # a design that raises counts as failed
        design.error = f"{type(exc).__name__}: {exc}"
        return
    design.setup_s = probe.setup_s
    design.outer_iters = len(probe.outer_times)
    design.outer_ms = list(np.diff(probe.outer_times) * 1e3)
    design.hits = dict(probe.hits)


def check_designs(designs, config, workload, oracle) -> None:
    reference = None
    for design in designs:
        if design.error is not None:
            continue
        design.failures = checks.check_design(
            design.outdir, config, oracle,
            min_suppression_db=workload.floor_for(config.seed), verbose=workload.verbose)
        digest = checks.output_digest(design.outdir)
        if reference is None:
            reference = digest
        elif digest != reference:
            design.failures.append("code.csv/trace.csv differ from the first design's")


def high_percentile(samples):
    """(q, value) for the highest q with at least ten samples beyond it, else None."""
    ordered = sorted(samples)
    n = len(ordered)
    for q in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - q / 100.0) >= 10:
            return q, ordered[max(0, math.ceil(q / 100.0 * n) - 1)]
    return None


class Row:
    """One printed metric: summary of its samples, or a reason it has none."""

    def __init__(self, name, unit, samples=(), note=None):
        self.name = name
        self.unit = unit
        self.samples = [float(v) for v in samples]
        self.note = note

    @property
    def value(self) -> float:
        return statistics.median(self.samples)

    def line(self) -> str:
        if not self.samples:
            return f"{self.name:<44} {self.unit:<15} {self.note}"
        high = high_percentile(self.samples)
        high_text = f"p{high[0]:g}={high[1]:.6g}" if high else "p-high n/a (needs >= 20 samples)"
        note = f"  [{self.note}]" if self.note else ""
        return (f"{self.name:<44} {self.unit:<15} median={self.value:.6g}  "
                f"{high_text}  n={len(self.samples)}{note}")


def _median_or_nan(values):
    return statistics.median(values) if values else math.nan


def end_to_end_rows(designs, setup_samples, peak_rss_mb, workload) -> list:
    done = [d for d in designs if d.error is None]
    rows = [
        Row("wall_s", "s", [d.wall_s for d in done]),
        Row("setup_s", "s", setup_samples, note="warm: after a discarded warm-up design"),
    ]
    for target in TARGETS:
        reached = [d.hits[target] for d in done if target in d.hits]
        if reached:
            rows.append(Row(f"ttq_{target}x_s", "s", [t for _, t in reached]))
            rows.append(Row(f"iters_{target}x", "count", [i for i, _ in reached]))
        else:
            why = f"not reached within gamma1={workload.gamma1}"
            rows.append(Row(f"ttq_{target}x_s", "s", note=why))
            rows.append(Row(f"iters_{target}x", "count", note=why))
    final = [_final_quality(d) for d in done]
    rows += [
        Row("final_c", "energy", [c for c, _ in final]),
        Row("suppression_db", "dB", [s for _, s in final]),
        Row("peak_rss_mb", "MB", [peak_rss_mb]),
        Row("failed_frac", "ratio", [sum(not d.ok for d in designs) / len(designs)]),
    ]
    return rows


def _final_quality(design: Design) -> tuple:
    manifest = json.loads((design.outdir / "manifest.json").read_text())
    return manifest["final_c"], manifest["suppression_db"]


def per_layer_rows(designs, tracer, workload) -> tuple:
    """Per-layer rows from the traced designs, plus notes on accounting/overhead."""
    traced = [d for d in designs if d.traced and d.error is None]
    untraced = [d for d in designs if not d.traced and d.error is None]
    layers = {d.index: tracer.layer_totals(d.index) for d in traced}

    def span_stat(name, field):
        return [layers[d.index].get(name, {}).get(field, 0) for d in traced]

    def inner_blocks(design):
        if workload.verbose:
            return json.loads((design.outdir / "trace.json").read_text())["inner_objectives"]
        return design.captures.replayed_objectives()

    pmli_calls = span_stat("solver.pmli_inner", "calls")
    pmli_total = span_stat("solver.pmli_inner", "total_s")
    final = [_final_quality(d) for d in traced]
    rows = [
        Row("reformulation.build_loaded_region.self_s", "s",
            span_stat("reformulation.build_loaded_region", "self_s")),
        Row("reformulation.loaded_bytes", "bytes_computed",
            [array_bytes(d.captures.loaded) for d in traced],
            note="sum of ndarray.nbytes held by the LoadedRegion"),
        Row("solver.pmli_inner.calls", "count", pmli_calls),
        Row("solver.pmli_inner.self_s", "s", span_stat("solver.pmli_inner", "self_s")),
        Row("solver.pmli_inner.ms_per_call", "ms",
            [1e3 * t / c for t, c in zip(pmli_total, pmli_calls)]),
        Row("solver.pmli_inner.useful_step_frac", "ratio",
            [useful_step_frac(inner_blocks(d)) for d in traced],
            note="from trace.json" if workload.verbose
            else f"replay of 1 in {traced[0].captures.stride} calls"),
        Row("solver.update_aux.self_s", "s", span_stat("solver.update_aux", "self_s")),
        Row("solver.m2_objective.self_s", "s", span_stat("solver.m2_objective", "self_s")),
        Row("solver.build_uqp.self_s", "s", span_stat("solver.build_uqp", "self_s")),
        Row("af_core.eval_objective.calls", "count", span_stat("af_core.eval_objective", "calls")),
        Row("af_core.eval_objective.self_s", "s", span_stat("af_core.eval_objective", "self_s")),
        Row("solver.run.self_s", "s", span_stat("solver.run", "self_s")),
        Row("solver.outer_iters", "count", [d.outer_iters for d in traced]),
        Row("solver.outer_ms", "ms", [v for d in traced for v in d.outer_ms]),
        Row("af_core.af_grid.calls", "count", span_stat("af_core.af_grid", "calls")),
        Row("af_core.af_grid.self_s", "s", span_stat("af_core.af_grid", "self_s")),
        Row("metrics.compare.self_s", "s", span_stat("metrics.compare", "self_s")),
        Row("cli.run_and_export.self_s", "s", span_stat(ROOT_SPAN, "self_s")),
        Row("cli.output_bytes", "bytes",
            [sum(f.stat().st_size for f in d.outdir.iterdir()) for d in traced]),
        Row("solver.final_c", "energy", [c for c, _ in final]),
        Row("metrics.suppression_db", "dB", [s for _, s in final]),
    ]
    for target in TARGETS:
        reached = [d.hits[target][0] for d in traced if target in d.hits]
        rows.append(Row(f"solver.iters_{target}x", "count", reached,
                        note=None if reached else f"not reached within gamma1={workload.gamma1}"))

    notes = []
    for name in (ROOT_SPAN, "solver.run"):
        subtree = tracer.layer_totals(traced[0].index, under=name)
        parts = sorted(subtree.items(), key=lambda item: -item[1]["self_s"])
        notes.append(f"span accounting: {name} {subtree[name]['total_s']:.4f} s = "
                     + " + ".join(f"{n} {v['self_s']:.4f}" for n, v in parts)
                     + f" = {sum(v['self_s'] for _, v in parts):.4f} s of self time")
    traced_wall = _median_or_nan([d.wall_s for d in traced])
    plain_wall = _median_or_nan([d.wall_s for d in untraced])
    notes.append(f"tracing overhead: traced wall_s {traced_wall:.4f} - untraced "
                 f"{plain_wall:.4f} = {traced_wall - plain_wall:+.4f} s "
                 f"({(traced_wall - plain_wall) / plain_wall:+.2%}; "
                 f"{len(traced)} traced vs {len(untraced)} untraced designs)")
    return rows, notes


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git_commit(root: Path) -> str:
    git = root / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).exists():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.exists():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment(workload: Workload, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload.name,
        "seed": seed,
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_commit": _git_commit(ROOT),
    }


def run_benchmark(workload: Workload, seed: int, seconds: float, trace: bool, emit=print):
    """Run one workload; print its report through emit and return the result dict.

    Returns None when no design finished, so there is nothing to report.
    """
    config = workload.config(seed)
    oracle = checks.load_oracle(ROOT)
    emit("environment: " + json.dumps(environment(workload, seed)))
    WORK_DIR.mkdir(exist_ok=True)
    tracer = Tracer() if trace else None
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        tmp = Path(tmp)
        # the first pass through each code path pays lazy loading; a one-step
        # design takes every path of run_and_export and is discarded
        cli.run_and_export(dataclasses.replace(config, gamma1=1), tmp / "warmup",
                           verbose=workload.verbose)
        designs = []
        start = time.perf_counter()
        while True:
            index = len(designs)
            design = Design(index, tmp / f"design{index}", traced=trace and index % 2 == 1)
            gc.collect()  # start every design with the same collector state
            run_design(config, design, workload.verbose, tracer if design.traced else None)
            designs.append(design)
            # stop when one more design of average length would overrun the time
            elapsed = time.perf_counter() - start
            if len(designs) >= MIN_DESIGNS and elapsed * (1 + 1 / len(designs)) > seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setup_samples = [d.setup_s for d in designs if d.error is None and not d.traced]
        topup_start = time.perf_counter()
        while not trace and (
                len(setup_samples) < MIN_SETUP_SAMPLES
                or (len(setup_samples) < MAX_SETUP_SAMPLES
                    and time.perf_counter() - topup_start < SETUP_TOPUP_S)):
            gc.collect()
            setup_samples.append(setup_sample(config, tmp / f"setup{len(setup_samples)}",
                                              workload.verbose))
        check_designs(designs, config, workload, oracle)
        for design in designs:
            for problem in ([design.error] if design.error else []) + design.failures:
                emit(f"FAILED design {design.index}: {problem}")
        if not any(d.error is None and d.traced == trace for d in designs):
            return None
        if trace:
            rows, notes = per_layer_rows(designs, tracer, workload)
        else:
            rows, notes = end_to_end_rows(designs, setup_samples, peak_rss_mb, workload), []
    if trace:
        spans_path = WORK_DIR / f"spans-{workload.name}-seed{seed}.jsonl"
        tracer.dump(spans_path)
        notes.append(f"spans written to {spans_path.relative_to(ROOT)}")
    emit(f"{workload.name} seed={seed}: {len(designs)} designs, "
         f"{'traced' if trace else 'untraced'}; design wall times "
         f"{[round(d.wall_s, 4) for d in designs]} s")
    emit("metric, unit, median, highest percentile with >= 10 samples beyond it, count")
    for row in rows:
        emit(row.line())
    for note in notes:
        emit(note)
    failed = sum(not d.ok for d in designs)
    return {
        "correct": failed == 0,
        "attempted": len(designs),
        "failed": failed,
        "rows": rows,
    }
