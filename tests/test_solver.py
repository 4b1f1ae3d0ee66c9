"""Tests for the cyclic solver: auxiliary updates, UQP construction, PMLI."""

import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from afshape import (
    CodeSequence,
    LoadedRegion,
    RegionSpec,
    SolverConfig,
    build_kernel,
    build_loaded_region,
    build_uqp,
    doppler_phase_vector,
    eval_objective,
    init_random_code,
    load_and_root,
    m2_objective,
    mm_step,
    pmli_inner,
    run,
    split_kernel,
    update_aux,
)
from afshape import solver
from afshape.cli import main
from oracle import (build_bx, build_uqp_frobenius, pmli_inner_fixed_count, quadratic_form,
                    random_psd, update_aux_two_halves)

SMALL_REGION = RegionSpec(delays=(1, 2), dopplers=(2, 3, -3))
REF_REGION = RegionSpec(delays=(5, 6, 7), dopplers=(-15, -14, -13, 11, 12, 13, 14))
WIDE_REGION = RegionSpec(delays=tuple(range(1, 13)), dopplers=tuple(range(-10, 11)))


def small_config(**overrides):
    base = dict(n=16, region=SMALL_REGION, gamma1=40, gamma2=50, seed=1)
    base.update(overrides)
    return SolverConfig(**base)


def identity_loaded_region(n):
    """Degenerate region whose single kernel is A = I (so ar = I, ai = 0), zeta = 1.

    One lag-0 row and one all-ones Doppler row; Q = 3 I, so gamma_x = 3.
    """
    region = RegionSpec(delays=(0,), dopplers=(1,))
    rows = np.arange(n)[None, :]
    return LoadedRegion(n=n, region=region, zeta=1.0, shift_idx=rows, unshift_idx=rows,
                        doppler_rows=np.ones((1, n), dtype=complex), quad_sum=3.0 * np.eye(n),
                        gamma_x=3.0)


def reference_pairs(loaded):
    """Dense loaded matrices and Hermitian roots of every cell, built the slow way."""
    return [load_and_root(split_kernel(build_kernel(k, p, loaded.n)), loaded.zeta)
            for k, p in loaded.region.pairs()]


def reference_aux(x, pairs):
    """R u with u = R x / ||R x||, per loaded matrix, from explicit roots."""
    out = []
    for root in ([p.ar_root for p in pairs], [p.ai_root for p in pairs]):
        rows = []
        for r in root:
            rx = r @ x.values
            rows.append(r @ (rx / np.linalg.norm(rx)))
        out.append(np.array(rows))
    return out


# --------------------------------------------------------------- config

def test_config_validation():
    with pytest.raises(ValueError):
        small_config(gamma1=0)
    with pytest.raises(ValueError):
        small_config(gamma2=0)
    with pytest.raises(ValueError):
        small_config(epsilon=0.0)
    with pytest.raises(ValueError):
        small_config(delta=-0.1)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            small_config(epsilon=bad)
        with pytest.raises(ValueError):
            small_config(delta=bad)
    with pytest.raises(ValueError):
        small_config(n=40, gamma1=2.5)
    # bools, strings, non-finite integers and negative seeds, all as ValueError
    for bad in (dict(gamma2=True), dict(n=False), dict(delta="0.1"), dict(epsilon=None),
                dict(gamma1=np.inf), dict(seed=1e400), dict(n=np.nan), dict(seed=-1),
                dict(epsilon=10**400), dict(gamma1=-(10**400))):
        with pytest.raises(ValueError):
            small_config(**bad)
    assert small_config(gamma1=np.int64(7), seed=3.0).seed == 3
    # region must fit the code length
    with pytest.raises(ValueError):
        SolverConfig(n=4, region=RegionSpec(delays=(5,), dopplers=(1,)))


def test_config_json_round_trip():
    config = small_config(epsilon=1e-5, seed=9, delta=0.02)
    clone = SolverConfig.from_json_dict(config.to_json_dict())
    assert clone == config


def test_config_from_json_rejects_unknown_and_missing():
    with pytest.raises(ValueError):
        SolverConfig.from_json_dict({"n": 8, "k": [1], "p": [1], "bogus": 3})
    with pytest.raises(ValueError):
        SolverConfig.from_json_dict({"n": 8, "k": [1]})
    for removed in ("zeta_policy", "gamma_x_mode", "inner_epsilon"):
        with pytest.raises(ValueError, match="unknown config keys"):
            SolverConfig.from_json_dict({"n": 8, "k": [1], "p": [1], removed: None})


def test_config_refuses_delta_past_m2_overflow():
    # the edge is the delta at which 8 |R| (1 + delta) (N + 1), which bounds the UQP
    # objective, D [x; 1] and M2's constant, reaches the largest float; below it a
    # verbose run raises no overflow warning (filterwarnings = error)
    for n, region in ((2, RegionSpec(delays=1, dopplers=0)), (31, REF_REGION), (64, WIDE_REGION),
                      (128, RegionSpec(delays=(1, 2, 3), dopplers=(-2, -1, 0, 1, 2)))):
        edge = sys.float_info.max / (8 * region.size * (n + 1)) - 1
        with pytest.raises(ValueError, match="overflows"):
            SolverConfig(n=n, region=region, delta=1.001 * edge)
        for seed in range(3):
            config = SolverConfig(n=n, region=region, gamma1=3, gamma2=20, seed=seed,
                                  delta=0.999 * edge)
            _, trace = run(config, collect_inner=True)
            assert np.isfinite(trace.c_values + trace.m2_values).all()
            assert all(np.isfinite(block).all() for block in trace.inner_objectives)


# ------------------------------------------------------------ init/aux

def test_init_random_code_deterministic_and_unimodular():
    a = init_random_code(16, 7)
    b = init_random_code(16, 7)
    np.testing.assert_array_equal(a.phases, b.phases)
    assert not np.array_equal(a.phases, init_random_code(16, 8).phases)
    assert np.all((0.0 <= a.phases) & (a.phases < 2.0 * np.pi))


def test_update_aux_unit_norms():
    # Re(x^H R u) = Re((R x)^H u) <= ||R x|| for every unit u, with equality
    # only at u = R x / ||R x||, so the sum over the cells reaches
    # sum(||R_r x|| + ||R_i x||) only when every u is the unit maximizer
    loaded = build_loaded_region(8, RegionSpec(delays=(1, 3), dopplers=(-2, 2)))
    x = init_random_code(8, 0)
    s, _, _ = update_aux(x, loaded)
    assert s.shape == (8,)
    bound = sum(np.linalg.norm(pair.ar_root @ x.values) + np.linalg.norm(pair.ai_root @ x.values)
                for pair in reference_pairs(loaded))
    assert np.vdot(x.values, s).real == pytest.approx(bound, abs=1e-12)


def test_update_aux_identity_roots_give_normalized_code():
    # L_r = 2I and L_i = I, so u = x / sqrt(N) and R u = sqrt(2) u, u
    n = 6
    loaded = identity_loaded_region(n)
    x = init_random_code(n, 2)
    s, _, _ = update_aux(x, loaded)
    np.testing.assert_allclose(s, (np.sqrt(2.0) + 1.0) * x.values / np.sqrt(n), atol=1e-12)


def test_update_aux_beats_random_unit_vectors():
    # the closed form must minimize the u-terms of M2 over the unit sphere,
    # i.e. maximize Re(x^H (R_r u^r + R_i u^i)) = Re((R_r x)^H u^r + (R_i x)^H u^i)
    n = 6
    loaded = build_loaded_region(n, RegionSpec(delays=(1,), dopplers=(2,)))
    (pair,) = reference_pairs(loaded)
    x = init_random_code(n, 3)
    s, _, _ = update_aux(x, loaded)
    best = np.vdot(x.values, s).real
    products = (pair.ar_root @ x.values, pair.ai_root @ x.values)
    rng = np.random.default_rng(17)
    for _ in range(200):
        cands = rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))
        cands /= np.linalg.norm(cands, axis=1, keepdims=True)
        value = sum(np.vdot(product, cand).real for product, cand in zip(products, cands))
        assert value <= best + 1e-12


def test_update_aux_rejects_indefinite_loading():
    loaded = build_loaded_region(8, RegionSpec(delays=(1, 3), dopplers=(-2, 2)))
    loaded.zeta = -2.0  # x^H L x = zeta N +- (Re or Im r) < 0, since |r| <= N
    with pytest.raises(RuntimeError, match="not positive definite"):
        update_aux(init_random_code(8, 0), loaded)


def test_update_aux_c_matches_eval_objective():
    # C = sum |r|^2 from the u-step's r = x^H A x against the FFT evaluator
    rng = np.random.default_rng(59)
    for n, region in ((31, REF_REGION), (64, WIDE_REGION),
                      (128, RegionSpec(delays=(3, 4, 5), dopplers=(-20, -19, 40, 41, 42)))):
        loaded = build_loaded_region(n, region)
        for _ in range(5):
            x = CodeSequence(phases=rng.uniform(0, 2 * np.pi, n))
            _, c, _ = update_aux(x, loaded)
            assert isinstance(c, float)
            assert abs(c - eval_objective(x, region)) <= 1e-12 * eval_objective(x, region)


def test_root_free_path_matches_root_reference():
    # sum R u, M2 (the u-step's closed form and m2_objective) and the border
    # of B against explicit Hermitian roots
    rng = np.random.default_rng(53)
    for n, region in ((8, RegionSpec(delays=(1, 2), dopplers=(-2, 3))),
                      (13, RegionSpec(delays=(-6, 4), dopplers=(-7, 0, 5))),
                      (16, SMALL_REGION)):
        loaded = build_loaded_region(n, region)
        pairs = reference_pairs(loaded)
        scale = np.sqrt(loaded.zeta * n)
        for _ in range(4):
            x = CodeSequence(phases=rng.uniform(0, 2 * np.pi, n))
            aux, _, m2 = update_aux(x, loaded)
            ref_r, ref_i = reference_aux(x, pairs)
            ref_s = ref_r.sum(axis=0) + ref_i.sum(axis=0)
            assert np.linalg.norm(aux - ref_s) <= 1e-12 * np.linalg.norm(ref_s)
            ref_m2 = 0.0
            for pair, ru_r, ru_i in zip(pairs, ref_r, ref_i):
                for root, ru in ((pair.ar_root, ru_r), (pair.ai_root, ru_i)):
                    rx = root @ x.values
                    ref_m2 += np.linalg.norm(rx - scale * rx / np.linalg.norm(rx)) ** 2
            assert abs(m2_objective(x, aux, loaded) - ref_m2) <= 1e-12 * ref_m2
            assert abs(m2 - ref_m2) <= 1e-12 * ref_m2
            border = build_bx(aux, loaded)[:n, n]
            ref_border = -scale * ref_s
            assert np.linalg.norm(border - ref_border) <= 1e-12 * np.linalg.norm(ref_border)


# ----------------------------------------------------------- UQP build

def test_build_bx_structure():
    n = 8
    loaded = build_loaded_region(n, RegionSpec(delays=(1, 2), dopplers=(-2, 3)))
    x = init_random_code(n, 4)
    s, _, _ = update_aux(x, loaded)
    bx = build_bx(s, loaded)
    assert bx.shape == (n + 1, n + 1)
    np.testing.assert_allclose(bx, bx.conj().T, atol=1e-13)
    np.testing.assert_allclose(bx[:n, :n], loaded.quad_sum, atol=1e-13)
    assert bx[n, n] == 0.0
    scale = np.sqrt(loaded.zeta * n)
    ref_r, ref_i = reference_aux(x, reference_pairs(loaded))
    expected = -scale * (ref_r.sum(axis=0) + ref_i.sum(axis=0))
    np.testing.assert_allclose(bx[:n, n], expected, atol=1e-13)


def test_m2_equals_lifted_quadratic_plus_constant():
    n = 8
    region = RegionSpec(delays=(1, 2), dopplers=(-2, 3))
    loaded = build_loaded_region(n, region)
    x = init_random_code(n, 5)
    aux, _, _ = update_aux(x, loaded)
    bx = build_bx(aux, loaded)
    lifted = np.concatenate([x.values, [1.0]])
    direct = m2_objective(x, aux, loaded)
    via_form = quadratic_form(bx, lifted).real + 2.0 * region.size * loaded.zeta * n
    assert abs(direct - via_form) <= 1e-9 * direct


@st.composite
def uqp_cases(draw):
    """A code length, a valid region, a loading margin and a code seed."""
    n = draw(st.integers(min_value=2, max_value=64))
    half = (n + 1) // 2
    delays = draw(st.lists(st.integers(-(n - 1), n - 1), min_size=1, max_size=6,
                           unique_by=lambda k: k % n))
    dopplers = draw(st.lists(st.integers(-half, half - 1), min_size=1, max_size=6,
                             unique_by=lambda p: p % n))
    assume(not (0 in delays and 0 in dopplers))  # the mainlobe is no valid cell
    delta = draw(st.sampled_from([1e-3, 0.01, 0.5]))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return n, RegionSpec(delays=tuple(delays), dopplers=tuple(dopplers)), delta, seed


@settings(max_examples=200, deadline=None)
@given(uqp_cases())
def test_build_uqp_is_psd(case):
    # gamma_x must sit at or above lambda_max(Q) on every region, loading and
    # code: PMLI pins the trailing entry of [x; 1], so its monotonicity needs
    # only D's leading N x N block to be PSD
    n, region, delta, seed = case
    loaded = build_loaded_region(n, region, delta=delta)
    x = init_random_code(n, seed)
    s, _, _ = update_aux(x, loaded)
    d_mat = build_uqp(s, loaded)
    assert np.array_equal(d_mat, d_mat.conj().T)
    head = d_mat[:n, :n]
    assert np.linalg.eigvalsh(head)[0] >= -1e-10 * np.linalg.norm(head)
    _, objectives = pmli_inner(d_mat, x, 60, track_objective=True)
    assert np.all(np.diff(objectives) >= -1e-9 * np.abs(objectives[:-1]))


def quad_sum_from_cell_tables(n, region, zeta):
    """quad_sum by the per-cell construction: one (|R|, N) row of S = (1 + j) A / 2 per cell."""
    cells = region.pairs()
    rows = np.arange(n)
    fwd_idx = (rows + np.array([k for k, _ in cells])[:, None]) % n
    fwd_diag = np.array([doppler_phase_vector(p, n) for _, p in cells])
    half = np.zeros((n, n), dtype=complex)
    np.add.at(half, (np.broadcast_to(rows, fwd_idx.shape), fwd_idx), 0.5 * (1 + 1j) * fwd_diag)
    quad_sum = half + half.conj().T
    quad_sum.flat[::n + 1] += 2.0 * len(cells) * zeta
    return quad_sum


LONG_REGION = RegionSpec(delays=(1, 2, 3), dopplers=(-2, -1, 0, 1, 2))
# the benchmark shapes, then regions with a lag and its negative, a lag of N/2, a
# negative lag above N/2 in size, k = 0 with p != 0, a single lag and a single Doppler bin
LAG_FACTOR_EXAMPLES = [
    (31, REF_REGION, 0.01, 0),
    (64, WIDE_REGION, 0.01, 0),
    (128, LONG_REGION, 0.01, 0),
    (9, RegionSpec(delays=(-4, 1, 8), dopplers=(-5, 0, 3)), 0.01, 3),
    (12, RegionSpec(delays=(-5, -1, 1, 6), dopplers=(-6, 2, 5)), 0.01, 1),
    (13, RegionSpec(delays=(-9, -6, 3), dopplers=(-7, 0, 5)), 0.5, 2),
    (16, RegionSpec(delays=(0, 3), dopplers=(-8, 5)), 0.01, 4),
    (10, RegionSpec(delays=(-2,), dopplers=(-5, -1, 1, 4)), 1e-3, 5),
    (11, RegionSpec(delays=(-5, 0, 2, 7), dopplers=(3,)), 0.01, 6),
    (2, RegionSpec(delays=(1,), dopplers=(0,)), 0.01, 7),
    (2, RegionSpec(delays=(0,), dopplers=(-1,)), 1e-3, 0),
]


def with_examples(test):
    for case in LAG_FACTOR_EXAMPLES:
        test = example(case)(test)
    return test


@settings(max_examples=200, deadline=None)
@with_examples
@given(uqp_cases())
def test_quad_sum_matches_cell_table_construction(case):
    # bit for bit against the per-cell np.add.at construction that the lag rows replace
    n, region, delta, _ = case
    loaded = build_loaded_region(n, region, delta=delta)
    assert np.array_equal(loaded.quad_sum.view(np.uint64),
                          quad_sum_from_cell_tables(n, region, loaded.zeta).view(np.uint64))


@settings(max_examples=100, deadline=None)
@with_examples
@given(uqp_cases())
def test_loaded_region_tables_are_lag_factored(case):
    # no table grows with |R| = K P: K shift rows, K un-shift rows, P Doppler rows
    n, region, delta, _ = case
    loaded = build_loaded_region(n, region, delta=delta)
    entries = sum(value.size for name, value in vars(loaded).items()
                  if isinstance(value, np.ndarray) and name != "quad_sum")
    assert entries <= (2 * len(region.delays) + len(region.dopplers)) * n


@settings(max_examples=100, deadline=None)
@with_examples
@given(uqp_cases())
def test_update_aux_matches_root_reference_on_random_regions(case):
    # (s, C) of the lag-factored u-step against explicit roots and the FFT evaluator
    n, region, delta, seed = case
    loaded = build_loaded_region(n, region, delta=delta)
    x = init_random_code(n, seed)
    s, c, _ = update_aux(x, loaded)
    ref_r, ref_i = reference_aux(x, reference_pairs(loaded))
    ref_s = ref_r.sum(axis=0) + ref_i.sum(axis=0)
    assert np.linalg.norm(s - ref_s) <= 1e-12 * np.linalg.norm(ref_s)
    ref_c = eval_objective(x, region)
    if region.delays == (0,):
        # r = sum_i d_p[i] = 0 at lag 0 for every p != 0, so C is rounding alone
        assert c <= region.size * (1e-12 * n) ** 2
    else:
        assert abs(c - ref_c) <= 1e-12 * ref_c


@settings(max_examples=200, deadline=None)
@with_examples
@given(uqp_cases())
def test_update_aux_matches_two_array_u_step(case):
    # one halves array against one array per loaded half: the sums run in
    # another order, and every summand of C and M2 is nonnegative
    n, region, delta, seed = case
    loaded = build_loaded_region(n, region, delta=delta)
    x = init_random_code(n, seed)
    s, c, m2 = update_aux(x, loaded)
    ref_s, ref_c, ref_m2 = update_aux_two_halves(x, loaded)
    assert np.linalg.norm(s - ref_s) <= 1e-13 * np.linalg.norm(ref_s)
    assert abs(c - ref_c) <= 1e-13 * ref_c
    assert abs(m2 - ref_m2) <= 1e-13 * ref_m2
    loaded.zeta = -2.0  # x^H L x = zeta N +- (Re or Im r) < 0, since |r| <= N
    with pytest.raises(RuntimeError, match="not positive definite") as raised:
        update_aux(x, loaded)
    with pytest.raises(RuntimeError) as ref_raised:
        update_aux_two_halves(x, loaded)
    assert str(raised.value) == str(ref_raised.value)


def test_build_uqp_is_gamma_x_minus_bx():
    loaded = build_loaded_region(8, SMALL_REGION)
    s, _, _ = update_aux(init_random_code(8, 6), loaded)
    bx = build_bx(s, loaded)
    gamma_x = loaded.gamma_x
    np.testing.assert_allclose(build_uqp(s, loaded), gamma_x * np.eye(9) - bx,
                               rtol=0, atol=1e-13 * gamma_x)
    assert gamma_x >= np.linalg.eigvalsh(bx[:8, :8])[-1]
    # below lambda_max(B): the bound covers Q alone, not the border, so the full D is not PSD
    assert gamma_x < np.linalg.eigvalsh(bx)[-1]


@settings(max_examples=200, deadline=None)
@with_examples
@given(uqp_cases())
def test_gamma_x_bounds_lambda_max_below_weyl(case):
    # the Collatz-Wielandt gamma_x lies between lambda_max(Q) and Weyl's bound
    # (both raised by the same 4 N eps rounding margin), and keeps D's leading
    # block PSD (eigvalsh here only, never in the solve)
    n, region, delta, seed = case
    loaded = build_loaded_region(n, region, delta=delta)
    weyl = region.size * (2 * loaded.zeta + np.sqrt(2)) * (1 + 4 * n * np.finfo(float).eps)
    assert np.linalg.eigvalsh(loaded.quad_sum)[-1] <= loaded.gamma_x <= weyl
    s, _, _ = update_aux(init_random_code(n, seed), loaded)
    head = build_uqp(s, loaded)[:n, :n]
    assert np.linalg.eigvalsh(head)[0] >= -1e-10 * np.linalg.norm(head)


def test_gamma_x_is_near_lambda_max_on_benchmark_regions():
    # within 3% of lambda_max(Q), where Weyl's bound sat 5-43% above it
    for n, region, _, _ in LAG_FACTOR_EXAMPLES[:3]:
        loaded = build_loaded_region(n, region)
        assert loaded.gamma_x <= 1.03 * np.linalg.eigvalsh(loaded.quad_sum)[-1]


def test_build_uqp_reuses_out_bit_for_bit():
    for n, region, delta, seed in LAG_FACTOR_EXAMPLES:
        loaded = build_loaded_region(n, region, delta=delta)
        s1, _, _ = update_aux(init_random_code(n, seed), loaded)
        s2, _, _ = update_aux(init_random_code(n, seed + 1), loaded)
        out = build_uqp(s1, loaded)
        assert build_uqp(s2, loaded, out=out) is out
        assert out.tobytes() == build_uqp(s2, loaded).tobytes()


def test_run_builds_one_uqp_matrix_per_solve(monkeypatch):
    outs = []

    def recording_build_uqp(aux, loaded, out=None):
        outs.append(out)
        return build_uqp(aux, loaded, out=out)

    monkeypatch.setattr(solver, "build_uqp", recording_build_uqp)
    for config in (small_config(gamma1=6, epsilon=1e-15), small_config(gamma1=4, seed=2)):
        del outs[:]
        _, trace = run(config)
        assert len(outs) == trace.outer_iters[-1] + 1  # once before the loop, then per cycle
        assert sum(out is None for out in outs) == 1 and outs[0] is None
        assert all(out is outs[1] for out in outs[1:])


def test_solve_matches_frobenius_gamma_on_ref31(monkeypatch):
    # both bounds keep D's leading N x N block PSD and PMLI reaches the same
    # fixed points, so the reference solve may move only by rounding: the
    # stated tolerance. The oracle ignores out and builds D afresh each time
    config = SolverConfig(n=31, region=REF_REGION, gamma1=1000, gamma2=500, seed=0)
    _, trace = run(config)
    monkeypatch.setattr(solver, "build_uqp", build_uqp_frobenius)
    _, ref_trace = run(config)
    assert trace.stop_reason == ref_trace.stop_reason
    assert trace.outer_iters[-1] == ref_trace.outer_iters[-1]
    c, ref_c = trace.c_values[-1], ref_trace.c_values[-1]
    assert abs(c - ref_c) <= 1e-11 * ref_c
    assert np.all(np.diff(trace.m2_values) <= 0.0)


# ----------------------------------------------------------------- PMLI

def test_pmli_identity_matrix_is_fixed_point():
    x = init_random_code(7, 1)
    result = pmli_inner(np.eye(8), x, gamma2=1)
    np.testing.assert_allclose(result.values, x.values, atol=1e-12)


def test_pmli_zero_matrix_keeps_phases_exactly():
    x = init_random_code(5, 2)
    result = pmli_inner(np.zeros((6, 6)), x, gamma2=4)
    np.testing.assert_array_equal(result.phases, x.phases)


def test_pmli_monotone_on_random_psd():
    rng = np.random.default_rng(23)
    for n in (4, 7):
        d_mat = random_psd(n + 1, rng, scale=3.0)
        x = CodeSequence(phases=rng.uniform(0, 2 * np.pi, n))
        result, objectives = pmli_inner(d_mat, x, gamma2=60, track_objective=True)
        assert result.n == n
        diffs = np.diff(objectives)
        assert np.all(diffs >= -1e-9 * np.abs(objectives[:-1]))


def test_pmli_objective_matches_direct_evaluation():
    rng = np.random.default_rng(29)
    n = 5
    d_mat = random_psd(n + 1, rng)
    x = CodeSequence(phases=rng.uniform(0, 2 * np.pi, n))
    result, objectives = pmli_inner(d_mat, x, gamma2=3, track_objective=True)
    start = np.concatenate([x.values, [1.0]])
    final = np.concatenate([result.values, [1.0]])
    assert objectives[0] == pytest.approx(quadratic_form(d_mat, start).real, rel=1e-12)
    assert objectives[-1] == pytest.approx(quadratic_form(d_mat, final).real, rel=1e-12)


@pytest.fixture
def pmli_steps(monkeypatch):
    """Counts the steps pmli_inner takes: each step calls np.arctan2 once."""

    class CountingNumpy:
        def __init__(self):
            self.steps = 0

        def __getattr__(self, name):
            return getattr(np, name)

        def arctan2(self, *args, **kwargs):
            self.steps += 1
            return np.arctan2(*args, **kwargs)

    counter = CountingNumpy()
    monkeypatch.setattr(solver, "np", counter)
    return counter


def test_pmli_zero_head_row_keeps_phase_and_still_stops(pmli_steps):
    rng = np.random.default_rng(31)
    n = 6
    d_mat = random_psd(n + 1, rng, scale=3.0)
    d_mat[2, :] = 0.0  # head entry 2 is exactly zero at every step
    d_mat[:, 2] = 0.0  # (keeps D Hermitian PSD)
    x = CodeSequence(phases=rng.uniform(0, 2 * np.pi, n))
    gamma2 = 2000
    result = pmli_inner(d_mat, x, gamma2)
    assert 1 < pmli_steps.steps < gamma2
    assert result.phases[2] == x.phases[2]
    assert result.phases.tobytes() == pmli_inner_fixed_count(d_mat, x, gamma2).phases.tobytes()


def test_pmli_tracked_early_stop_returns_steps_plus_one_objectives(pmli_steps):
    rng = np.random.default_rng(37)
    n = 7
    d_mat = random_psd(n + 1, rng, scale=2.0)
    x = CodeSequence(phases=rng.uniform(0, 2 * np.pi, n))
    gamma2 = 1500
    result, objectives = pmli_inner(d_mat, x, gamma2, track_objective=True)
    steps = pmli_steps.steps
    assert 1 < steps < gamma2
    assert objectives.shape == (steps + 1,)
    assert objectives[-1] == objectives[-2]  # the fixed-point step changed nothing
    # the fixed-count loop's values: the same bits over the steps taken, then repeats
    ref_result, ref_objectives = pmli_inner_fixed_count(d_mat, x, gamma2, track_objective=True)
    assert objectives.tobytes() == ref_objectives[:steps + 1].tobytes()
    assert np.all(ref_objectives[steps + 1:] == objectives[-1])
    assert result.phases.tobytes() == ref_result.phases.tobytes()


def test_pmli_at_fixed_point_returns_after_one_step(pmli_steps):
    rng = np.random.default_rng(43)
    n = 9
    d_mat = random_psd(n + 1, rng)
    x = CodeSequence(phases=rng.uniform(0, 2 * np.pi, n))
    start = pmli_inner_fixed_count(d_mat, x, 2000)  # the oracle's steps are not counted
    assert pmli_inner_fixed_count(d_mat, start, 1).phases.tobytes() == start.phases.tobytes()
    result = pmli_inner(d_mat, start, gamma2=500)
    assert pmli_steps.steps == 1
    assert result.phases.tobytes() == pmli_inner_fixed_count(d_mat, start, 500).phases.tobytes()
    assert result.phases.tobytes() == start.phases.tobytes()


@pytest.mark.parametrize("track_objective", [False, True])
@pytest.mark.parametrize("at_fixed_point", [False, True])
def test_pmli_leaves_start_phases_unchanged(track_objective, at_fixed_point):
    # the loop writes its phase buffers in place and swaps them, so the start
    # code must be copied first, also when the first step already stops
    rng = np.random.default_rng(47)
    n = 8
    d_mat = random_psd(n + 1, rng, scale=2.0)
    x = CodeSequence(phases=rng.uniform(0, 2 * np.pi, n))
    if at_fixed_point:
        x = pmli_inner_fixed_count(d_mat, x, 2000)
        assert pmli_inner_fixed_count(d_mat, x, 1).phases.tobytes() == x.phases.tobytes()
    before = x.phases.tobytes()
    out = pmli_inner(d_mat, x, gamma2=300, track_objective=track_objective)
    result = out[0] if track_objective else out
    assert x.phases.tobytes() == before
    assert not np.shares_memory(result.phases, x.phases)
    assert (result.phases.tobytes() == before) == at_fixed_point


def test_pmli_validates_inputs():
    x = init_random_code(5, 0)
    with pytest.raises(ValueError):
        pmli_inner(np.eye(5), x, gamma2=3)  # must be (n+1) x (n+1)
    with pytest.raises(ValueError):
        pmli_inner(np.eye(6), x, gamma2=0)


# ------------------------------------------------------------------ run

def test_run_is_deterministic():
    x1, trace1 = run(small_config())
    x2, trace2 = run(small_config())
    np.testing.assert_array_equal(x1.phases, x2.phases)
    assert trace1.c_values == trace2.c_values
    assert trace1.m2_values == trace2.m2_values
    assert trace1.outer_iters == trace2.outer_iters


def test_run_decreases_objective():
    _, trace = run(small_config())
    assert trace.c_values[-1] < trace.c_values[0]


def test_run_m2_never_increases():
    _, trace = run(small_config(), collect_inner=True)
    m2 = np.array(trace.m2_values)
    assert np.all(np.diff(m2) <= 1e-9 * np.abs(m2[:-1]))
    for block in trace.inner_objectives:
        block = np.asarray(block)
        assert np.all(np.diff(block) >= -1e-9 * np.abs(block[:-1]))


def test_run_quartic_chain_agrees_at_every_outer_iteration():
    # the trace's C, computed bin by bin, must match the loaded-matrix form
    config = small_config(gamma1=10)
    seen = []
    pairs = []

    def check(state):
        if not pairs:
            pairs.extend(reference_pairs(state.loaded))
        v = state.x.values
        zn = state.loaded.zeta * config.n
        chain = 0.0
        for pair in pairs:
            chain += (quadratic_form(pair.ar_loaded, v).real - zn) ** 2
            chain += (quadratic_form(pair.ai_loaded, v).real - zn) ** 2
        direct = state.trace.c_values[-1]
        assert abs(direct - chain) <= 1e-8 * max(direct, 1e-30)
        seen.append(state.outer_iter)

    run(config, on_outer=check)
    assert seen == list(range(1, len(seen) + 1))


@pytest.mark.parametrize("config", [
    SolverConfig(n=31, region=REF_REGION, gamma1=40, gamma2=500, seed=0),
    SolverConfig(n=64, region=WIDE_REGION, gamma1=8, gamma2=100, seed=0),
], ids=["ref31", "wide64"])
def test_run_c_matches_eval_objective_at_every_outer_iteration(config):
    # the loop takes C and M2 from the u-step; the FFT evaluator and
    # m2_objective stay the references. m2_objective cancels terms of size
    # 2 |R| zeta N (about 1,300 on ref31, where late rows have M2 below 1),
    # so M2 is compared at that scale
    loaded = build_loaded_region(config.n, config.region, delta=config.delta)
    m2_scale = 2 * config.region.size * loaded.zeta * config.n
    checked = []

    def check_m2(x, m2):
        s, _, _ = update_aux(x, loaded)
        assert abs(m2 - m2_objective(x, s, loaded)) <= 1e-12 * m2_scale

    def check(state):
        c = state.trace.c_values[-1]
        assert abs(c - eval_objective(state.x, config.region)) <= 1e-12 * c
        check_m2(state.x, state.trace.m2_values[-1])
        checked.append(state.outer_iter)

    _, trace = run(config, on_outer=check)
    c0 = eval_objective(trace.initial_code, config.region)
    assert abs(trace.c_values[0] - c0) <= 1e-12 * c0
    check_m2(trace.initial_code, trace.m2_values[0])
    assert checked == trace.outer_iters[1:]


def stale_x_step(monkeypatch, from_call=5):
    """Break the x-step: from outer iteration from_call on, PMLI returns the solve's initial code.

    The first call's start code is the initial code, init_random_code(n, seed).
    """
    starts = []

    def stale(d_mat, x_start, gamma2, track_objective=False):
        starts.append(x_start)
        if len(starts) < from_call:
            return pmli_inner(d_mat, x_start, gamma2, track_objective=track_objective)
        x0 = CodeSequence(phases=starts[0].phases)
        return (x0, np.zeros(2)) if track_objective else x0

    monkeypatch.setattr(solver, "pmli_inner", stale)
    return starts


@pytest.mark.parametrize("collect_inner", [False, True])
def test_run_raises_when_m2_rises(monkeypatch, collect_inner):
    config = small_config(gamma1=20, epsilon=1e-15)
    _, trace = run(config)
    assert trace.m2_values[0] > trace.m2_values[4]  # M2 at the initial code is a rise
    starts = stale_x_step(monkeypatch)
    with pytest.raises(RuntimeError, match="M2 rose .* in outer iteration 5,"):
        run(config, collect_inner=collect_inner)
    assert starts[0].phases.tobytes() == init_random_code(config.n, config.seed).phases.tobytes()
    assert len(starts) == 5


def test_main_exits_3_when_m2_rises(monkeypatch, tmp_path, capsys):
    stale_x_step(monkeypatch)
    out = tmp_path / "results"
    argv = ["--n", "12", "--k", "1,2", "--p", "2,3", "--gamma1", "10", "--gamma2", "20",
            "--epsilon", "1e-15", "--out", str(out)]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err and "M2 rose" in err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("config, track_objective, stop_reason", [
    (small_config(gamma1=100, epsilon=1e-2, seed=2), False, "epsilon"),
    (small_config(gamma1=6, epsilon=1e-15), True, "gamma1"),
], ids=["plain-epsilon", "tracked-gamma1"])
def test_mm_step_loop_reproduces_run(config, track_objective, stop_reason):
    # the cycle run by hand, with run's stop rule, gives run's rows and code bit for bit
    x_run, trace = run(config, collect_inner=track_objective)
    assert trace.stop_reason == stop_reason
    loaded = build_loaded_region(config.n, config.region, delta=config.delta)
    x = init_random_code(config.n, config.seed)
    s, c_prev, m2 = update_aux(x, loaded)
    d_mat = build_uqp(s, loaded)
    c_rows, m2_rows, blocks = [c_prev], [m2], []
    for _ in range(config.gamma1):
        phases, s_before = x.phases.copy(), s.copy()
        x_next, s_next, c_now, m2, inner = mm_step(x, s, loaded, d_mat, config.gamma2,
                                                   track_objective)
        assert x.phases.tobytes() == phases.tobytes() and s.tobytes() == s_before.tobytes()
        x, s = x_next, s_next
        c_rows.append(c_now)
        m2_rows.append(m2)
        blocks.append(inner)
        if abs(c_now - c_prev) <= config.epsilon * abs(c_prev):
            break
        c_prev = c_now
    assert np.array(c_rows).tobytes() == np.array(trace.c_values).tobytes()
    assert np.array(m2_rows).tobytes() == np.array(trace.m2_values).tobytes()
    assert x.phases.tobytes() == x_run.phases.tobytes()
    if track_objective:
        assert len(blocks) == len(trace.inner_objectives)
        for block, ref in zip(blocks, trace.inner_objectives):
            assert block.tobytes() == ref.tobytes()
    else:
        assert blocks == [None] * len(blocks) and trace.inner_objectives is None


def test_run_makes_no_m2_objective_call(monkeypatch):
    calls = []

    def counting_m2_objective(*args):
        calls.append(args)
        return m2_objective(*args)

    monkeypatch.setattr(solver, "m2_objective", counting_m2_objective)
    _, trace = run(small_config(gamma1=5, epsilon=1e-15), collect_inner=True)
    assert trace.outer_iters[-1] == 5
    assert calls == []


def test_run_takes_no_eigendecomposition(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("eigendecomposition on the solve path")

    for name in ("eig", "eigh", "eigvals", "eigvalsh", "svd", "cholesky"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    _, trace = run(small_config(gamma1=3, epsilon=1e-15))
    assert trace.outer_iters[-1] == 3


def test_run_respects_gamma1_cap():
    _, trace = run(small_config(gamma1=3, epsilon=1e-15))
    assert trace.outer_iters[-1] <= 3
    assert len(trace.c_values) == len(trace.outer_iters)
    assert trace.stop_reason == "gamma1"
    c = trace.c_values
    assert trace.final_rel_change == abs(c[-1] - c[-2]) / c[-2]
    assert trace.final_rel_change > 1e-15


def test_run_stops_when_epsilon_fires():
    _, trace = run(small_config(gamma1=500, epsilon=1.0))
    # a relative tolerance of 100% is satisfied by the very first comparison
    assert trace.outer_iters[-1] == 1
    assert trace.stop_reason == "epsilon"
    assert trace.final_rel_change <= 1.0


def test_run_returns_its_initial_code():
    config = small_config(gamma1=2)
    _, trace = run(config)
    expected = init_random_code(config.n, config.seed)
    assert trace.initial_code.phases.tobytes() == expected.phases.tobytes()


def test_run_final_code_objective_matches_trace():
    x, trace = run(small_config())
    assert eval_objective(x, SMALL_REGION) == pytest.approx(trace.c_values[-1], rel=1e-12)


def test_run_objective_is_global_phase_invariant():
    x, _ = run(small_config(gamma1=5))
    rotated = CodeSequence(phases=x.phases + 1.234)
    c0 = eval_objective(x, SMALL_REGION)
    c1 = eval_objective(rotated, SMALL_REGION)
    assert abs(c0 - c1) <= 1e-10 * max(c0, 1.0)


def test_trace_csv_layout(tmp_path):
    _, trace = run(small_config(gamma1=4, epsilon=1e-15))
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "outer_iter,C,m2_objective"
    assert len(lines) == 1 + len(trace.outer_iters)
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == pytest.approx(trace.c_values[0], rel=1e-15)


def test_trace_json_contains_timing_and_inner():
    _, trace = run(small_config(gamma1=3, epsilon=1e-15), collect_inner=True)
    payload = trace.to_json_dict()
    assert set(payload) == {"outer_iter", "C", "m2_objective", "elapsed_ms",
                            "inner_objectives", "stop_reason", "final_rel_change",
                            "zeta", "gamma_x"}
    assert payload["stop_reason"] == "gamma1"
    loaded = build_loaded_region(16, SMALL_REGION)
    assert (payload["zeta"], payload["gamma_x"]) == (loaded.zeta, loaded.gamma_x)
    assert payload["final_rel_change"] == trace.final_rel_change
    assert len(payload["elapsed_ms"]) == len(payload["C"])
    assert len(payload["inner_objectives"]) == payload["outer_iter"][-1]
