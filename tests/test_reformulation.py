"""Tests for Hermitian splitting, the loading level, matrix roots, and region tables."""

import json
import math
import sys

import numpy as np
import pytest

from afshape import (
    AFKernel,
    LoadingError,
    RegionSpec,
    SplitPair,
    build_kernel,
    build_loaded_region,
    eval_objective,
    init_random_code,
    load_and_root,
    split_kernel,
)
from oracle import quadratic_form, random_unitary

REFERENCE_REGION = RegionSpec(delays=(5, 6, 7), dopplers=(-15, -14, -13, 11, 12, 13, 14))


def identity_kernel(n):
    return AFKernel(k=0, p=0, matrix=np.eye(n, dtype=complex))


# ---------------------------------------------------------------- split

def test_split_identity_kernel():
    pair = split_kernel(identity_kernel(4))
    np.testing.assert_allclose(pair.ar, np.eye(4), atol=1e-15)
    np.testing.assert_allclose(pair.ai, np.zeros((4, 4)), atol=1e-15)


def test_split_purely_skew_kernel():
    # ai = j(A - A^H)/2, so A = jI gives ai = -I; the sign is pinned by the
    # reconstruction A = ar - j*ai
    pair = split_kernel(AFKernel(k=0, p=0, matrix=1j * np.eye(3)))
    np.testing.assert_allclose(pair.ar, np.zeros((3, 3)), atol=1e-15)
    np.testing.assert_allclose(pair.ai, -np.eye(3), atol=1e-15)


def test_split_reconstructs_kernel():
    for k, p in [(1, 2), (-3, -4), (7, 0)]:
        kernel = build_kernel(k, p, 8)
        pair = split_kernel(kernel)
        np.testing.assert_allclose(pair.ar - 1j * pair.ai, kernel.matrix, atol=1e-14)


def test_split_parts_are_hermitian():
    pair = split_kernel(build_kernel(3, -2, 9))
    np.testing.assert_allclose(pair.ar, pair.ar.conj().T, atol=1e-15)
    np.testing.assert_allclose(pair.ai, pair.ai.conj().T, atol=1e-15)


def test_split_magnitude_identity_random_unitaries():
    # |z^H A z|^2 splits into the two real quadratic forms squared
    rng = np.random.default_rng(12)
    for trial in range(1000):
        n = (4, 8, 16)[trial % 3]
        a = random_unitary(n, rng)
        pair = split_kernel(AFKernel(k=0, p=0, matrix=a))
        z = rng.normal(size=n) + 1j * rng.normal(size=n)
        lhs = abs(quadratic_form(a, z)) ** 2
        rhs = quadratic_form(pair.ar, z).real ** 2 + quadratic_form(pair.ai, z).real ** 2
        assert abs(lhs - rhs) <= 1e-10 * max(lhs, 1e-30)


def test_split_quadratic_forms_are_real():
    rng = np.random.default_rng(5)
    pair = split_kernel(build_kernel(2, 3, 8))
    z = rng.normal(size=8) + 1j * rng.normal(size=8)
    assert abs(quadratic_form(pair.ar, z).imag) < 1e-12
    assert abs(quadratic_form(pair.ai, z).imag) < 1e-12


# ----------------------------------------------------------- loading level

def test_choose_zeta_bound_policy():
    # the loading level is always the bound policy, zeta = 1 + delta
    region = RegionSpec(delays=(1,), dopplers=(2,))
    assert build_loaded_region(8, region, delta=0.25).zeta == pytest.approx(1.25)
    assert build_loaded_region(8, region).zeta == pytest.approx(1.01)


def test_choose_zeta_reference_region():
    zeta = build_loaded_region(31, REFERENCE_REGION, delta=0.01).zeta
    assert 1.0 < zeta <= 1.01
    for k, p in REFERENCE_REGION.pairs():
        s = split_kernel(build_kernel(k, p, 31))
        assert np.linalg.eigvalsh(s.ar)[0] > -zeta
        assert np.linalg.eigvalsh(s.ai)[0] > -zeta


def test_eigenvalue_ranges_serializable():
    # every eigenvalue of a split half lies in [-1, 1], so 1 + delta loads
    # each half strictly positive definite; the per-cell ranges dump to JSON
    region = RegionSpec(delays=(1,), dopplers=(2, -3))
    ranges = {}
    for k, p in region.pairs():
        s = split_kernel(build_kernel(k, p, 8))
        ar, ai = np.linalg.eigvalsh(s.ar), np.linalg.eigvalsh(s.ai)
        ranges[f"{k},{p}"] = {"ar_min": ar[0], "ar_max": ar[-1],
                              "ai_min": ai[0], "ai_max": ai[-1]}
    ranges = json.loads(json.dumps(ranges))
    assert set(ranges) == {"1,-3", "1,2"}
    zeta = build_loaded_region(8, region).zeta
    for entry in ranges.values():
        assert -1.0 - 1e-12 <= entry["ar_min"] <= entry["ar_max"] <= 1.0 + 1e-12
        assert -1.0 - 1e-12 <= entry["ai_min"] <= entry["ai_max"] <= 1.0 + 1e-12
        assert min(entry["ar_min"], entry["ai_min"]) > -zeta


def test_build_loaded_region_rejects_bad_delta():
    region = RegionSpec(delays=(1,), dopplers=(2,))
    for delta in (0.0, -0.5, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            build_loaded_region(8, region, delta=delta)
    # a delta lost in 1 + delta would load nothing: zeta = 1 leaves x^H L x = 0 reachable
    for delta in (1e-17, 1e-16):
        with pytest.raises(ValueError, match="1 \\+ delta > 1"):
            build_loaded_region(2, RegionSpec(1, 0), delta=delta)


def test_build_loaded_region_takes_solver_config_delta_rule():
    # the one loading-margin rule: a bool or a text is no margin, and a delta that
    # overflows 8 |R| (1 + delta) (N + 1) is refused before the solve overflows
    edge = sys.float_info.max / (8 * REFERENCE_REGION.size * 32)
    for delta in (True, "0.01", 3.3e305, 1.001 * edge):
        with pytest.raises(ValueError):
            build_loaded_region(31, REFERENCE_REGION, delta=delta)
    assert build_loaded_region(31, REFERENCE_REGION, delta=0.999 * edge).zeta == 1 + 0.999 * edge


# --------------------------------------------------------- load_and_root

def test_load_and_root_identity_example():
    pair = split_kernel(identity_kernel(5))
    loaded = load_and_root(pair, zeta=1.0)
    np.testing.assert_allclose(loaded.ar_loaded, 2.0 * np.eye(5), atol=1e-15)
    np.testing.assert_allclose(loaded.ar_root, np.sqrt(2.0) * np.eye(5), atol=1e-12)
    np.testing.assert_allclose(loaded.ai_loaded, np.eye(5), atol=1e-15)
    np.testing.assert_allclose(loaded.ai_root, np.eye(5), atol=1e-12)


def test_roots_are_hermitian_and_psd():
    loaded = load_and_root(split_kernel(build_kernel(5, -13, 31)), zeta=1.01)
    for root in (loaded.ar_root, loaded.ai_root):
        np.testing.assert_array_equal(root, root.conj().T)
        assert np.linalg.eigvalsh(root)[0] > 0


def test_roots_reconstruct_loaded_matrices():
    for k, p in [(5, -15), (6, 12), (7, 14)]:
        loaded = load_and_root(split_kernel(build_kernel(k, p, 31)), zeta=1.0087)
        for root, target in ((loaded.ar_root, loaded.ar_loaded),
                             (loaded.ai_root, loaded.ai_loaded)):
            err = np.linalg.norm(root @ root - target) / np.linalg.norm(target)
            assert err < 1e-9


def test_load_and_root_raises_on_indefinite():
    pair = split_kernel(build_kernel(3, 2, 8))
    with pytest.raises(LoadingError) as excinfo:
        load_and_root(pair, zeta=0.1)  # well below the negative eigenvalues
    message = str(excinfo.value)
    assert "k=3" in message and "p=2" in message


# ------------------------------------------------------- region assembly

def reference_pairs(loaded):
    """Dense loaded matrices and roots of every cell, by the slow construction."""
    return [load_and_root(split_kernel(build_kernel(k, p, loaded.n)), loaded.zeta)
            for k, p in loaded.region.pairs()]


def test_build_loaded_region_caches_sums():
    region = RegionSpec(delays=(1, 2), dopplers=(-2, 3))
    loaded = build_loaded_region(8, region)
    expected = sum(p.ar_loaded + p.ai_loaded for p in reference_pairs(loaded))
    np.testing.assert_allclose(loaded.quad_sum, expected, atol=1e-13)
    np.testing.assert_array_equal(loaded.quad_sum, loaded.quad_sum.conj().T)


def test_loaded_region_tables_apply_each_kernel():
    # a negative lag, a lag above N/2 and Doppler 0
    n = 9
    region = RegionSpec(delays=(-4, 1, 8), dopplers=(-5, 0, 3))
    loaded = build_loaded_region(n, region)
    assert loaded.shift_idx.shape == loaded.unshift_idx.shape == (3, n)
    assert loaded.doppler_rows.shape == (3, n)
    x = init_random_code(n, 3).values
    for c, (k, p) in enumerate(region.pairs()):
        row, col = divmod(c, len(region.dopplers))
        assert (region.delays[row], region.dopplers[col]) == (k, p)
        a = build_kernel(k, p, n).matrix
        d_p = loaded.doppler_rows[col]
        np.testing.assert_allclose(d_p * x[loaded.shift_idx[row]], a @ x, atol=1e-14)
        # A^H x through the flat un-shift of a (K, N) array whose row `row` is conj(d_p) * x
        y = np.zeros((3, n), dtype=complex)
        y[row] = d_p.conj() * x
        np.testing.assert_allclose(y.take(loaded.unshift_idx)[row], a.conj().T @ x, atol=1e-14)


def test_build_loaded_region_validates_region():
    with pytest.raises(ValueError):
        build_loaded_region(6, RegionSpec(delays=(7,), dopplers=(1,)))


def test_quartic_chain_equivalence():
    # sum |x^H A x|^2 recomputed through the loaded matrices
    region = REFERENCE_REGION
    loaded = build_loaded_region(31, region)
    pairs = reference_pairs(loaded)
    zn = loaded.zeta * 31
    for seed in range(5):
        x = init_random_code(31, seed)
        v = x.values
        chain = 0.0
        for pair in pairs:
            chain += (quadratic_form(pair.ar_loaded, v).real - zn) ** 2
            chain += (quadratic_form(pair.ai_loaded, v).real - zn) ** 2
        direct = eval_objective(x, region)
        assert abs(direct - chain) <= 1e-8 * direct

