"""Tests for the discrete AF primitives."""

import cmath

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from afshape import (
    DB_FLOOR,
    CodeSequence,
    RegionSpec,
    SolverConfig,
    af_grid,
    build_doppler_diag,
    build_kernel,
    build_loaded_region,
    build_shift,
    doppler_phase_vector,
    eval_af,
    eval_objective,
    init_random_code,
    to_db,
)
from afshape.cli import _grid_table, _write_csv
from oracle import af_grid_reference, af_sum_reference, quadratic_form


def all_pairs(n):
    half = (n + 1) // 2
    return [(k, p) for k in range(-(n - 1), n) for p in range(-half, half)]


# ---------------------------------------------------------------- types

def test_code_sequence_basic():
    x = CodeSequence(phases=np.array([0.0, np.pi / 2, np.pi]))
    assert x.n == 3
    np.testing.assert_allclose(np.abs(x.values), 1.0, atol=1e-15)


def test_code_sequence_rejects_short_and_multidim():
    with pytest.raises(ValueError):
        CodeSequence(phases=np.array([0.1]))
    with pytest.raises(ValueError):
        CodeSequence(phases=np.zeros((2, 2)))


def test_code_sequence_from_values_round_trip():
    rng = np.random.default_rng(3)
    x = init_random_code(9, 3)
    y = CodeSequence.from_values(x.values)
    np.testing.assert_allclose(y.values, x.values, atol=1e-14)


def test_region_sorts_and_dedups():
    region = RegionSpec(delays=(7, 5, 5, 6), dopplers=(2, -3, 2))
    assert region.delays == (5, 6, 7)
    assert region.dopplers == (-3, 2)
    assert region.size == 6
    assert region.pairs()[0] == (5, -3)


def test_region_rejects_empty_and_mainlobe():
    with pytest.raises(ValueError):
        RegionSpec(delays=(), dopplers=(1,))
    with pytest.raises(ValueError):
        RegionSpec(delays=(1,), dopplers=())
    with pytest.raises(ValueError):
        RegionSpec(delays=(0, 1), dopplers=(0, 2))


def test_region_allows_zero_on_one_axis():
    RegionSpec(delays=(0,), dopplers=(1, 2))
    RegionSpec(delays=(1,), dopplers=(0,))


def test_region_rejects_non_integer_indices():
    with pytest.raises(ValueError):
        RegionSpec(delays=(1.5,), dopplers=(1,))
    # a bool must not pass as index 1, and an infinity must not raise OverflowError
    for bad in (True, np.True_, np.inf, -np.inf, np.float64(np.inf), np.nan):
        with pytest.raises(ValueError):
            RegionSpec(delays=(bad,), dopplers=(1,))
        with pytest.raises(ValueError):
            RegionSpec(delays=(1,), dopplers=(bad,))
    with pytest.raises(ValueError):
        SolverConfig.from_json_dict({"n": 8, "k": [True], "p": [1]})


def test_region_range_validation():
    region = RegionSpec(delays=(5, 6, 7), dopplers=(-15, 11))
    region.validate_for(31)
    with pytest.raises(ValueError):
        region.validate_for(8)  # lag 7 needs n >= 8 but bin -15 does not fit
    with pytest.raises(ValueError):
        RegionSpec(delays=(9,), dopplers=(1,)).validate_for(8)
    # Doppler bins run -ceil(n/2) .. ceil(n/2)-1
    RegionSpec(delays=(1,), dopplers=(-16,)).validate_for(31)
    with pytest.raises(ValueError):
        RegionSpec(delays=(1,), dopplers=(16,)).validate_for(31)


def test_region_rejects_cyclic_aliases():
    # for odd n, bin -(n+1)/2 is bin (n-1)/2; lags k and k - n are one cyclic row
    with pytest.raises(ValueError, match="Doppler bins -16 and 15"):
        RegionSpec(delays=(1,), dopplers=(-16, 15)).validate_for(31)
    with pytest.raises(ValueError, match="delay lags -26 and 5"):
        RegionSpec(delays=(-26, 5), dopplers=(3,)).validate_for(31)
    # for even n both ends of the Doppler range are distinct cells
    RegionSpec(delays=(1, -30), dopplers=(-16, 15)).validate_for(32)


def index_text(indices):
    """The distinct indices as a comma/range text: each run of consecutive ones as a..b."""
    runs = []
    for i in sorted(set(indices)):
        if runs and runs[-1][1] == i - 1:
            runs[-1][1] = i
        else:
            runs.append([i, i])
    return ",".join(f"{lo}..{hi}" if lo < hi else str(lo) for lo, hi in runs)


@st.composite
def regions_in_range(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    half = (n + 1) // 2
    delays = draw(st.lists(st.integers(-(n - 1), n - 1), min_size=1, max_size=4))
    dopplers = draw(st.lists(st.integers(-half, half - 1), min_size=1, max_size=4))
    assume(not (0 in delays and 0 in dopplers))
    phases = draw(st.lists(st.floats(0.0, 2 * np.pi), min_size=n, max_size=n))
    return n, delays, dopplers, phases


@settings(max_examples=200, deadline=None)
@given(regions_in_range())
def test_valid_regions_count_each_cyclic_cell_once(case):
    n, delays, dopplers, phases = case
    region = RegionSpec(delays=tuple(delays), dopplers=tuple(dopplers))
    # the same indices as texts, in drawn order or as ranges, name the same region
    for text in (lambda ix: ",".join(map(str, ix)), index_text):
        assert RegionSpec(delays=text(delays), dopplers=text(dopplers)) == region
    distinct = (len({k % n for k in region.delays}) == len(region.delays)
                and len({p % n for p in region.dopplers}) == len(region.dopplers))
    try:
        region.validate_for(n)
    except ValueError:
        assert not distinct  # in-range indices fail only by aliasing
        return
    assert distinct
    config = SolverConfig(n=n, region=region)
    data = config.to_json_dict()
    assert SolverConfig.from_json_dict(data) == config
    texts = {"k": index_text(delays), "p": index_text(dopplers)}
    assert SolverConfig.from_json_dict({**data, **texts}) == config
    cells = {(k % n, p % n) for k, p in region.pairs()}
    assert len(cells) == region.size
    x = CodeSequence(phases=np.asarray(phases))
    expected = sum(abs(af_sum_reference(x.values, k, p)) ** 2 for k, p in region.pairs())
    assert eval_objective(x, region) == pytest.approx(expected, rel=1e-12, abs=1e-12)


# ------------------------------------------------------------- builders

def test_doppler_diag_zero_bin_is_identity():
    np.testing.assert_allclose(build_doppler_diag(0, 4), np.eye(4), atol=1e-15)


def test_doppler_diag_half_rate_alternates():
    diag = np.diag(build_doppler_diag(2, 4))
    np.testing.assert_allclose(diag, [-1.0, 1.0, -1.0, 1.0], atol=1e-15)


def test_doppler_diag_negative_bin_conjugates():
    n = 31
    diag = np.diag(build_doppler_diag(-13, n))
    expected = [cmath.exp(2j * cmath.pi * 13 * m / n) for m in range(1, n + 1)]
    np.testing.assert_allclose(diag, expected, atol=1e-13)


def test_doppler_diag_last_entry_is_one():
    for n, p in [(5, 3), (8, -4), (31, 15), (12, 1)]:
        diag = np.diag(build_doppler_diag(p, n))
        assert abs(diag[-1] - 1.0) < 1e-12


def test_shift_zero_lag_is_identity():
    np.testing.assert_array_equal(build_shift(0, 5), np.eye(5))


def test_shift_action_matches_block_form():
    x = np.array([1.0, 2.0, 3.0])
    np.testing.assert_array_equal(build_shift(1, 3) @ x, [2.0, 3.0, 1.0])
    np.testing.assert_array_equal(build_shift(-1, 3) @ x, [3.0, 1.0, 2.0])
    np.testing.assert_array_equal(build_shift(-1, 3), build_shift(1, 3).T)


def test_shift_rejects_out_of_range_lag():
    with pytest.raises(ValueError):
        build_shift(5, 5)
    with pytest.raises(ValueError):
        build_shift(-5, 5)


def test_kernels_are_unitary():
    n = 8
    for k, p in all_pairs(n):
        a = build_kernel(k, p, n).matrix
        assert np.max(np.abs(a.conj().T @ a - np.eye(n))) < 1e-12


def test_build_kernel_rejects_bad_doppler():
    with pytest.raises(ValueError):
        build_kernel(1, 5, 8)


# every scalar entry point reads its length, lag, bin and seed by as_integer
NOT_INTEGER_CALLS = {
    "kernel-half-lag": lambda: build_kernel(1.5, 0, 8),
    "kernel-half-bin": lambda: build_kernel(1, 0.5, 8),
    "kernel-bool-lag": lambda: build_kernel(True, 1, 8),
    "kernel-half-length": lambda: build_kernel(1, 1, 8.5),
    "shift-half-lag": lambda: build_shift(2.5, 8),
    "shift-text-length": lambda: build_shift(2, "8"),
    "doppler-half-length": lambda: doppler_phase_vector(1, 8.5),
    "doppler-bool-bin": lambda: doppler_phase_vector(True, 8),
    "validate-half-length": lambda: RegionSpec(1, 1).validate_for(8.5),
    "loaded-half-length": lambda: build_loaded_region(8.5, RegionSpec(1, 1)),
    "random-half-length": lambda: init_random_code(8.5, 0),
    "random-half-seed": lambda: init_random_code(8, 0.5),
    "random-negative-seed": lambda: init_random_code(8, -1),
}


@pytest.mark.parametrize("call", NOT_INTEGER_CALLS.values(), ids=NOT_INTEGER_CALLS.keys())
def test_scalar_entry_points_refuse_non_integers(call):
    with pytest.raises(ValueError):
        call()


def test_scalar_entry_points_read_integral_floats_as_integers():
    # 2.0 reads as 2, as in a RegionSpec or a SolverConfig
    np.testing.assert_array_equal(build_shift(2.0, 8.0), build_shift(2, 8))
    kernel = build_kernel(np.int64(2), -1.0, 8)
    assert (type(kernel.k), type(kernel.p)) == (int, int)
    np.testing.assert_array_equal(kernel.matrix, build_kernel(2, -1, 8).matrix)
    np.testing.assert_array_equal(doppler_phase_vector(3.0, 8.0), doppler_phase_vector(3, 8))
    region = RegionSpec(1, 1)
    assert build_loaded_region(8.0, region).gamma_x == build_loaded_region(8, region).gamma_x
    assert init_random_code(8.0, 3.0).phases.tobytes() == init_random_code(8, 3).phases.tobytes()


# ------------------------------------------------------------ eval_af

def test_eval_af_matches_scalar_reference():
    n = 8
    for seed in range(3):
        x = init_random_code(n, seed)
        v = x.values
        for k, p in all_pairs(n):
            expected = af_sum_reference(v, k, p)
            assert abs(eval_af(x, k, p) - expected) < 1e-12
            kernel = build_kernel(k, p, n)
            assert abs(quadratic_form(kernel.matrix, v) - expected) < 1e-12


def test_eval_af_mainlobe_equals_n():
    for n in (4, 9, 31):
        x = init_random_code(n, n)
        assert abs(eval_af(x, 0, 0) - n) < 1e-12


def test_eval_af_two_element_example():
    x = CodeSequence(phases=np.zeros(2))
    assert abs(eval_af(x, 1, 0) - 2.0) < 1e-14


def test_eval_af_magnitude_bounded_by_n():
    n = 16
    x = init_random_code(n, 5)
    for k, p in all_pairs(n):
        assert abs(eval_af(x, k, p)) <= n + 1e-9


def test_eval_af_global_phase_invariance():
    n = 12
    x = init_random_code(n, 11)
    shifted = CodeSequence(phases=x.phases + 0.7318)
    for k, p in [(1, 1), (3, -2), (-4, 5), (11, -6)]:
        assert abs(abs(eval_af(x, k, p)) - abs(eval_af(shifted, k, p))) < 1e-10


def test_eval_af_validates_indices():
    x = init_random_code(8, 0)
    with pytest.raises(ValueError):
        eval_af(x, 8, 0)
    with pytest.raises(ValueError):
        eval_af(x, 0, 4)


@pytest.mark.parametrize("k, p", [(1.5, 0), (True, 1), (1, False), (0, 2.5), ("1", 0),
                                  (float("nan"), 1)],
                         ids=["half-lag", "bool-lag", "bool-bin", "half-bin", "text-lag",
                              "nan-lag"])
def test_eval_af_takes_integer_indices_only(k, p):
    # the integer rule RegionSpec and SolverConfig use: no fraction, no bool, no text
    with pytest.raises(ValueError, match="finite integer"):
        eval_af(init_random_code(8, 0), k, p)


def test_eval_af_reads_integral_floats_as_integers():
    x = init_random_code(8, 0)
    assert eval_af(x, 2.0, np.int64(-1)) == eval_af(x, 2, -1)


# ------------------------------------------------------- eval_objective

def test_eval_objective_matches_per_bin_sum():
    x = init_random_code(10, 2)
    region = RegionSpec(delays=(1, 3), dopplers=(-2, 2, 4))
    expected = sum(abs(eval_af(x, k, p)) ** 2 for k, p in region.pairs())
    assert eval_objective(x, region) == pytest.approx(expected, rel=1e-14)


def test_eval_objective_matches_scalar_oracle():
    rng = np.random.default_rng(41)
    for n in (5, 8, 13):
        for _ in range(5):
            # distinct cyclic lags, each as k or its alias k - n; lag 0 would admit the mainlobe
            residues = rng.choice(np.arange(1, n), size=3, replace=False)
            delays = tuple(int(k - n * rng.integers(2)) for k in residues)
            dopplers = tuple(int(p) for p in rng.choice(np.arange(n) - n // 2, size=2,
                                                        replace=False))
            region = RegionSpec(delays=delays, dopplers=dopplers)
            x = CodeSequence(phases=rng.uniform(0, 2 * np.pi, n))
            expected = sum(abs(af_sum_reference(x.values, k, p)) ** 2 for k, p in region.pairs())
            assert eval_objective(x, region) == pytest.approx(expected, rel=1e-12)


def test_eval_objective_validates_region_against_code():
    x = init_random_code(6, 0)
    region = RegionSpec(delays=(5, 6), dopplers=(1,))
    with pytest.raises(ValueError):
        eval_objective(x, region)


def test_objective_of_mainlobe_only_region_is_impossible():
    # the (0, 0) bin would contribute N^2; the type system refuses it
    with pytest.raises(ValueError):
        RegionSpec(delays=(0,), dopplers=(0,))


# -------------------------------------------------------------- af_grid

def test_af_grid_shapes_and_axes():
    # one row per cyclic lag: row k is lags k and k - n
    grid31 = af_grid(init_random_code(31, 0))
    assert grid31.magnitude.shape == grid31.magnitude_db.shape == (31, 31)
    assert grid31.bins[0] == -15 and grid31.bins[-1] == 15
    grid8 = af_grid(init_random_code(8, 0))
    assert grid8.magnitude.shape == grid8.magnitude_db.shape == (8, 8)
    assert grid8.bins[0] == -4 and grid8.bins[-1] == 3
    assert not hasattr(grid8, "lags")


def test_af_grid_matches_eval_af():
    for n in (7, 8):
        x = init_random_code(n, 4)
        grid = af_grid(x)
        for k in range(-(n - 1), n):
            for j, p in enumerate(grid.bins):
                assert abs(grid.magnitude[k % n, j] - abs(eval_af(x, k, int(p)))) < 1e-12


def negated_bin_columns(bins, n):
    """For each column, the column of its negated bin, read mod n off the grid's own axis."""
    cyclic = list(np.asarray(bins) % n)
    return [cyclic.index(-b % n) for b in bins]


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=70).flatmap(
    lambda n: st.lists(st.floats(min_value=0.0, max_value=2 * np.pi), min_size=n, max_size=n)))
def test_af_grid_mirrors_half_its_rows_within_rounding_of_the_full_transform(phases):
    # |r(-k, p)| = |r(k, -p)|: row N - k is row k at bin -p, bit for bit in both arrays
    x = CodeSequence(phases=phases)
    n = x.n
    grid = af_grid(x)
    columns = negated_bin_columns(grid.bins, n)
    for k in range(1, (n + 1) // 2):
        for values in (grid.magnitude, grid.magnitude_db):
            assert values[n - k].tobytes() == values[k, columns].tobytes(), (n, k)
    reference = af_grid_reference(x)
    assert np.array_equal(grid.bins, reference.bins)
    assert np.max(np.abs(grid.magnitude - reference.magnitude)) <= 1e-12 * n


@pytest.mark.parametrize("n", [2, 3, 8, 9, 31, 64, 128])
def test_af_grid_transforms_half_the_lag_rows(n, monkeypatch):
    fft = np.fft.fft
    rows = []

    def counted(a, *args, **kwargs):
        rows.append(np.shape(a)[0])
        return fft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "fft", counted)
    af_grid(init_random_code(n, 1))
    assert rows == [n // 2 + 1]


def test_af_grid_records_a_copy_of_its_code():
    x = init_random_code(9, 2)
    grid = af_grid(x)
    assert grid.code is not x
    assert grid.code.phases.tobytes() == x.phases.tobytes()
    x.phases[0] += 1.0
    assert grid.code.phases.tobytes() != x.phases.tobytes()


def test_af_grid_mainlobe_cell_is_zero_db():
    for seed in range(20):
        for n in range(2, 65):
            grid = af_grid(init_random_code(n, seed))
            assert grid.magnitude_db[0, n // 2] == 0.0
            assert grid.magnitude_db.tobytes() == to_db(grid.magnitude, n).tobytes()


def test_af_grid_db_values_never_positive():
    grid = af_grid(init_random_code(16, 8))
    assert np.max(grid.magnitude_db) <= 1e-9


def test_to_db_floor_and_reference():
    assert float(to_db(0.0, 4.0)) == DB_FLOOR
    assert float(to_db(4.0, 4.0)) == 0.0
    assert float(to_db(4.0e-6, 4.0)) == DB_FLOOR
    assert float(to_db(0.4, 4.0)) == pytest.approx(-20.0, abs=1e-12)


def test_af_grid_csv_round_trip(tmp_path):
    x = init_random_code(5, 7)
    grid = af_grid(x)
    path = tmp_path / "grid.csv"
    _write_csv(path, *_grid_table(grid, db=False))
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header[0] == "lag"
    assert [int(b) for b in header[1:]] == list(grid.bins)
    # the header and all 2n - 1 lags, -(n-1) first; lag k reads row k mod n
    assert len(lines) == 2 * x.n
    row = lines[3].split(",")
    assert int(row[0]) == -2
    np.testing.assert_allclose([float(v) for v in row[1:]], grid.magnitude[-2 % x.n], rtol=1e-15)

