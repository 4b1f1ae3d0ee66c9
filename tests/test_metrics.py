"""Tests for the suppression-quality reports."""

import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from afshape import (
    CodeSequence,
    RegionSpec,
    SolverConfig,
    af_grid,
    compare,
    eval_af,
    eval_objective,
    init_random_code,
    region_levels_db,
    report,
    run,
)
from afshape import af_core, metrics
from afshape.af_core import AFGrid
from afshape.metrics import ComparisonReport, RegionReport

REGION = RegionSpec(delays=(1, 3), dopplers=(-2, 2))


def grid_scan_peak_db(x):
    """Oracle: max sidelobe level over every (k, p) except the mainlobe."""
    n = x.n
    half = (n + 1) // 2
    worst = -np.inf
    for k in range(-(n - 1), n):
        for p in range(-half, half):
            if k == 0 and p == 0:
                continue
            level = 20.0 * np.log10(max(abs(eval_af(x, k, p)), 1e-30) / n)
            worst = max(worst, max(level, -100.0))
    return worst


def test_report_fields_against_scan_oracle():
    x = init_random_code(8, 3)
    rep = report(x, REGION)
    assert rep.region_energy == eval_objective(x, REGION)
    levels = [20.0 * np.log10(abs(eval_af(x, k, p)) / 8) for k, p in REGION.pairs()]
    assert rep.region_avg_db == pytest.approx(np.mean(levels), abs=1e-12)
    assert rep.region_peak_db == pytest.approx(np.max(levels), abs=1e-12)
    assert rep.global_peak_sidelobe_db == pytest.approx(grid_scan_peak_db(x), abs=1e-10)


def test_report_levels_are_nonpositive():
    rep = report(init_random_code(12, 9), REGION)
    assert rep.region_peak_db <= 1e-9
    assert rep.global_peak_sidelobe_db <= 1e-9
    assert rep.region_avg_db <= rep.region_peak_db


def test_global_peak_at_least_region_peak():
    for seed in range(4):
        rep = report(init_random_code(10, seed), REGION)
        assert rep.global_peak_sidelobe_db >= rep.region_peak_db - 1e-12


def test_region_levels_match_eval_af():
    x = init_random_code(9, 4)
    for k, p, level in region_levels_db(x, REGION):
        expected = 20.0 * np.log10(abs(eval_af(x, k, p)) / 9)
        assert level == pytest.approx(expected, abs=1e-12)


def test_flat_code_hits_zero_db_sidelobe():
    # all-ones code: every zero-Doppler lag repeats the mainlobe value N
    x = CodeSequence(phases=np.zeros(8))
    rep = report(x, RegionSpec(delays=(1,), dopplers=(1,)))
    assert rep.global_peak_sidelobe_db == pytest.approx(0.0, abs=1e-12)


def test_compare_same_code_is_zero():
    x = init_random_code(8, 5)
    result = compare(x, x, REGION)
    assert result.suppression_db == 0.0
    assert all(b == a for _, _, b, a in result.bin_levels)


def test_compare_reuses_a_given_after_grid(monkeypatch):
    x0 = init_random_code(8, 1)
    x1 = init_random_code(8, 2)
    plain = compare(x0, x1, REGION)
    grid = af_grid(x1)
    calls = []

    def counted(x):
        calls.append(x)
        return af_grid(x)

    monkeypatch.setattr(metrics, "af_grid", counted)
    reused = compare(x0, x1, REGION, after_grid=grid)
    assert calls == [x0]
    assert reused.to_json_dict() == plain.to_json_dict()


def test_compare_transforms_each_region_once(monkeypatch):
    # one region product per code, for its levels and its energy alike
    region_calls = []

    def counted(values, shift_idx, doppler_rows):
        region_calls.append(shift_idx.shape[0] * doppler_rows.shape[0])
        return product(values, shift_idx, doppler_rows)

    product = af_core._region_product
    monkeypatch.setattr(af_core, "_region_product", counted)
    compare(init_random_code(8, 1), init_random_code(8, 2), REGION)
    assert region_calls == [REGION.size, REGION.size]


def assembled_report(x, region, levels):
    """RegionReport from region_levels_db, eval_objective and af_grid, one call each."""
    values = [level for _, _, level in levels]
    sidelobes = af_grid(x).magnitude_db
    sidelobes[0, x.n // 2] = -np.inf
    return RegionReport(n=x.n, delays=region.delays, dopplers=region.dopplers,
                        region_energy=eval_objective(x, region),
                        region_avg_db=float(np.mean(values)),
                        region_peak_db=float(np.max(values)),
                        global_peak_sidelobe_db=float(sidelobes.max()))


@st.composite
def compare_cases(draw):
    """A code length, a valid region and two code seeds."""
    n = draw(st.integers(min_value=2, max_value=48))
    half = (n + 1) // 2
    delays = draw(st.lists(st.integers(-(n - 1), n - 1), min_size=1, max_size=5,
                           unique_by=lambda k: k % n))
    dopplers = draw(st.lists(st.integers(-half, half - 1), min_size=1, max_size=5,
                             unique_by=lambda p: p % n))
    assume(not (0 in delays and 0 in dopplers))
    seeds = draw(st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)))
    return n, RegionSpec(delays=tuple(delays), dopplers=tuple(dopplers)), seeds


@settings(max_examples=100, deadline=None)
@given(compare_cases())
def test_compare_equals_report_from_the_public_evaluators(case):
    # exactly, so report.json keeps its bytes
    n, region, (seed_before, seed_after) = case
    before = init_random_code(n, seed_before)
    after = init_random_code(n, seed_after)
    levels_before = region_levels_db(before, region)
    levels_after = region_levels_db(after, region)
    report_before = assembled_report(before, region, levels_before)
    report_after = assembled_report(after, region, levels_after)
    expected = ComparisonReport(
        before=report_before,
        after=report_after,
        suppression_db=report_before.region_avg_db - report_after.region_avg_db,
        bin_levels=[(k, p, b, a) for (k, p, b), (_, _, a) in zip(levels_before, levels_after)],
    )
    assert compare(before, after, region).to_json_dict() == expected.to_json_dict()
    assert report(after, region).to_json_dict() == report_after.to_json_dict()


def test_compare_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        compare(init_random_code(8, 0), init_random_code(9, 0), REGION)


def test_compare_rejects_an_after_grid_of_another_length():
    # the global peak would be read from the other code's grid
    x8 = init_random_code(8, 0)
    with pytest.raises(ValueError, match="after_grid"):
        compare(x8, x8, RegionSpec(1, 1), after_grid=af_grid(init_random_code(9, 0)))


def test_compare_rejects_an_after_grid_of_another_code():
    # a grid of the right length but another code gives another global peak:
    # 0.0 dB here, where after's own grid reads -5.11 dB
    x = init_random_code(8, 0)
    y = CodeSequence(phases=np.zeros(8))
    with pytest.raises(ValueError, match="after_grid"):
        compare(x, x, RegionSpec(1, 1), after_grid=af_grid(y))
    assert compare(x, x, RegionSpec(1, 1)).after.global_peak_sidelobe_db == pytest.approx(
        -5.11, abs=0.005)


def test_compare_rejects_a_hand_built_after_grid():
    # a grid that records no code cannot be shown to belong to after
    x = init_random_code(8, 0)
    grid = af_grid(x)
    bare = AFGrid(n=grid.n, bins=grid.bins, magnitude=grid.magnitude,
                  magnitude_db=grid.magnitude_db)
    with pytest.raises(ValueError, match="after_grid"):
        compare(x, x, RegionSpec(1, 1), after_grid=bare)


def test_compare_reports_positive_suppression_after_solve():
    config = SolverConfig(n=16, region=RegionSpec(delays=(1, 2), dopplers=(2, 3, -3)),
                          gamma1=40, gamma2=50, seed=1)
    x_final, _ = run(config)
    x_initial = init_random_code(16, 1)
    result = compare(x_initial, x_final, config.region)
    assert result.suppression_db > 0.0
    assert result.suppression_db == pytest.approx(
        result.before.region_avg_db - result.after.region_avg_db, abs=1e-12)


def test_comparison_json():
    x0 = init_random_code(8, 1)
    x1 = init_random_code(8, 2)
    result = compare(x0, x1, REGION)
    payload = json.loads(json.dumps(result.to_json_dict()))
    assert set(payload) == {"before", "after", "suppression_db", "bin_levels"}
    assert payload["before"]["region"] == {"k": [1, 3], "p": [-2, 2]}
    assert len(payload["bin_levels"]) == REGION.size


def test_report_json_round_trip():
    rep = report(init_random_code(8, 6), REGION)
    payload = json.loads(json.dumps(rep.to_json_dict()))
    assert payload["n"] == 8
    assert payload["region_energy"] == rep.region_energy
    assert payload["region_avg_db"] == rep.region_avg_db
