"""Acceptance suite: one test per shipped criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print. Criteria 5 and 6 share a single full-scale reference run (n=31,
lags {5,6,7}, bins {-15..-13, 11..14}, 500 inner x 1000 outer iterations),
so the suite takes a few tens of seconds end to end.
"""

import time

import numpy as np
import pytest

from afshape import (
    CodeSequence,
    RegionSpec,
    SolverConfig,
    build_kernel,
    build_loaded_region,
    compare,
    eval_objective,
    init_random_code,
    load_and_root,
    pmli_inner,
    run,
    split_kernel,
)
from afshape.cli import parse_config, run_and_export
from oracle import af_sum_reference, exhaustive_uqp_optimum, quadratic_form, random_psd

REFERENCE_REGION = RegionSpec(delays=(5, 6, 7),
                              dopplers=(-15, -14, -13, 11, 12, 13, 14))
REFERENCE_CONFIG = SolverConfig(n=31, region=REFERENCE_REGION, gamma1=1000,
                                gamma2=500, epsilon=1e-6, seed=0)


def _criterion(number, description, passed):
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {number}: {description}")
    assert passed, f"criterion {number} failed: {description}"


@pytest.fixture(scope="module")
def reference_run():
    """One full-scale solve shared by the monotonicity and suppression checks."""
    start = time.perf_counter()
    x_final, trace = run(REFERENCE_CONFIG, collect_inner=True)
    seconds = time.perf_counter() - start
    return x_final, trace, seconds


def test_criterion_1_af_oracle_equivalence():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for n in (4, 8, 16, 32):
        half = (n + 1) // 2
        pairs = [(k, p) for k in range(-(n - 1), n) for p in range(-half, half)]
        kernels = {pair: build_kernel(pair[0], pair[1], n).matrix for pair in pairs}
        for _ in range(50):  # 200 random codes across the four sizes
            values = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
            for pair in pairs:
                matrix_form = quadratic_form(kernels[pair], values)
                explicit = af_sum_reference(values, *pair)
                worst = max(worst, abs(matrix_form - explicit))
    seconds = time.perf_counter() - start
    _criterion(1, f"matrix form vs explicit sum, worst |diff| {worst:.2e} "
                  f"(<= 1e-10), {seconds:.1f} s (< 10 s)",
               worst <= 1e-10 and seconds < 10.0)


def test_criterion_2_split_identity():
    rng = np.random.default_rng(202)
    worst = 0.0
    for trial in range(1000):
        n = (4, 8, 16)[trial % 3]
        half = (n + 1) // 2
        k = int(rng.integers(-(n - 1), n))
        p = int(rng.integers(-half, half))
        kernel = build_kernel(k, p, n)
        pair = split_kernel(kernel)
        z = rng.normal(size=n) + 1j * rng.normal(size=n)
        lhs = abs(quadratic_form(kernel.matrix, z)) ** 2
        rhs = (quadratic_form(pair.ar, z).real ** 2
               + quadratic_form(pair.ai, z).real ** 2)
        worst = max(worst, abs(lhs - rhs) / max(lhs, 1e-30))
    _criterion(2, f"|z^H A z|^2 split identity, worst rel err {worst:.2e} (<= 1e-10)",
               worst <= 1e-10)


def _reference_pairs(loaded):
    """The region's dense loaded matrices and Hermitian roots, built the slow way."""
    return [load_and_root(split_kernel(build_kernel(k, p, loaded.n)), loaded.zeta)
            for k, p in loaded.region.pairs()]


def test_criterion_3_quartic_chain():
    loaded = build_loaded_region(31, REFERENCE_REGION)
    pairs = _reference_pairs(loaded)
    zn = loaded.zeta * 31
    worst = 0.0
    for seed in range(20):
        x = init_random_code(31, seed)
        v = x.values
        chain = 0.0
        for pair in pairs:
            chain += (quadratic_form(pair.ar_loaded, v).real - zn) ** 2
            chain += (quadratic_form(pair.ai_loaded, v).real - zn) ** 2
        direct = eval_objective(x, REFERENCE_REGION)
        worst = max(worst, abs(direct - chain) / direct)
    _criterion(3, f"quartic objective vs loaded chain, worst rel err {worst:.2e} "
                  f"(<= 1e-8)", worst <= 1e-8)


def test_criterion_4_pd_loading_and_roots():
    loaded = build_loaded_region(31, REFERENCE_REGION)
    min_eig = np.inf
    worst_rec = 0.0
    for pair in _reference_pairs(loaded):
        for mat, root in ((pair.ar_loaded, pair.ar_root),
                          (pair.ai_loaded, pair.ai_root)):
            min_eig = min(min_eig, float(np.linalg.eigvalsh(mat)[0]))
            worst_rec = max(worst_rec, float(
                np.linalg.norm(root @ root - mat) / np.linalg.norm(mat)))
    _criterion(4, f"loaded matrices PD (min eig {min_eig:.3e} > 0) and roots "
                  f"reconstruct (worst rel Frobenius {worst_rec:.2e} <= 1e-9)",
               min_eig > 0.0 and worst_rec <= 1e-9)


def test_criterion_5_monotone_inner_and_outer(reference_run):
    _, trace, seconds = reference_run
    inner_ok = True
    for block in trace.inner_objectives:
        block = np.asarray(block)
        if not np.all(np.diff(block) >= -1e-9 * np.abs(block[:-1])):
            inner_ok = False
            break
    m2 = np.asarray(trace.m2_values)
    outer_ok = bool(np.all(np.diff(m2) <= 1e-9 * np.abs(m2[:-1])))
    _criterion(5, f"inner UQP objective non-decreasing per block ({inner_ok}), "
                  f"M2 non-increasing across outer iterations ({outer_ok}), "
                  f"{seconds:.0f} s (< 300 s)",
               inner_ok and outer_ok and seconds < 300.0)


def test_criterion_6_suppression_and_convergence(reference_run):
    x_final, trace, _ = reference_run
    c = trace.c_values
    x_initial = init_random_code(REFERENCE_CONFIG.n, REFERENCE_CONFIG.seed)
    suppression = compare(x_initial, x_final, REFERENCE_REGION).suppression_db
    eps_fired = abs(c[-1] - c[-2]) <= REFERENCE_CONFIG.epsilon * abs(c[-2])
    stopped = eps_fired or trace.outer_iters[-1] == REFERENCE_CONFIG.gamma1
    shrunk = c[-1] < 0.1 * c[0]
    _criterion(6, f"suppression {suppression:.1f} dB (>= 10), stop rule fired "
                  f"({stopped}), final C {c[-1]:.3g} < 0.1 x initial {c[0]:.3g}",
               suppression >= 10.0 and stopped and shrunk)


def test_criterion_7_exhaustive_uqp_seed():
    rng = np.random.default_rng(707)
    ok = True
    detail = []
    for _ in range(3):
        d_mat = random_psd(4, rng, scale=2.0)  # n = 3 plus the pinned tail
        best_x, best_obj = exhaustive_uqp_optimum(d_mat, levels=16)
        start = CodeSequence.from_values(best_x)
        _, objectives = pmli_inner(d_mat, start, gamma2=50, track_objective=True)
        ok = ok and objectives[-1] >= best_obj - 1e-9 * abs(best_obj)
        detail.append(f"{best_obj:.6g}->{objectives[-1]:.6g}")
    _criterion(7, "PMLI from the 16-level exhaustive optimum never loses "
                  f"objective ({', '.join(detail)})", ok)


def test_criterion_8_byte_identical_reruns(tmp_path):
    argv = ["--n", "16", "--k", "1,2", "--p", "2..3", "--gamma1", "25",
            "--gamma2", "40", "--seed", "5"]
    config, _ = parse_config(argv, env={})
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run_and_export(config, out_a)
    run_and_export(config, out_b)
    same = all((out_a / name).read_bytes() == (out_b / name).read_bytes()
               for name in ("code.csv", "trace.csv"))
    _criterion(8, "identical config and seed give byte-identical code.csv "
                  "and trace.csv", same)


def test_criterion_9_unimodularity_after_round_trip(tmp_path):
    config, _ = parse_config(["--n", "16", "--k", "1,2", "--p", "2..3",
                              "--gamma1", "25", "--gamma2", "40"], env={})
    out = tmp_path / "run"
    run_and_export(config, out)
    worst = 0.0
    for line in (out / "code.csv").read_text().strip().splitlines()[1:]:
        _, _, re, im = line.split(",")
        worst = max(worst, abs(abs(complex(float(re), float(im))) - 1.0))
    _criterion(9, f"exported entries unimodular after round-trip, worst "
                  f"|.|-1 = {worst:.2e} (<= 1e-12)", worst <= 1e-12)
