"""Tests for the suppression-quality reports."""

import json

import numpy as np
import pytest

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
from afshape import metrics

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


def test_compare_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        compare(init_random_code(8, 0), init_random_code(9, 0), REGION)


def test_compare_reports_positive_suppression_after_solve():
    config = SolverConfig(n=16, region=RegionSpec(delays=(1, 2), dopplers=(2, 3, -3)),
                          gamma1=40, gamma2=50, seed=1)
    x_final, _ = run(config)
    x_initial = init_random_code(16, 1)
    result = compare(x_initial, x_final, config.region)
    assert result.suppression_db > 0.0
    assert result.suppression_db == pytest.approx(
        result.before.region_avg_db - result.after.region_avg_db, abs=1e-12)


def test_comparison_json_and_csv(tmp_path):
    x0 = init_random_code(8, 1)
    x1 = init_random_code(8, 2)
    result = compare(x0, x1, REGION)
    payload = json.loads(json.dumps(result.to_json_dict()))
    assert set(payload) == {"before", "after", "suppression_db", "bin_levels"}
    assert payload["before"]["region"] == {"k": [1, 3], "p": [-2, 2]}
    assert len(payload["bin_levels"]) == REGION.size

    path = tmp_path / "levels.csv"
    result.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "k,p,before_db,after_db"
    assert len(lines) == 1 + REGION.size
    k, p, before_db, after_db = lines[1].split(",")
    assert (int(k), int(p)) == result.bin_levels[0][:2]
    assert float(before_db) == pytest.approx(result.bin_levels[0][2], rel=1e-15)
    assert float(after_db) == pytest.approx(result.bin_levels[0][3], rel=1e-15)


def test_report_json_round_trip():
    rep = report(init_random_code(8, 6), REGION)
    payload = json.loads(json.dumps(rep.to_json_dict()))
    assert payload["n"] == 8
    assert payload["region_energy"] == rep.region_energy
    assert payload["region_avg_db"] == rep.region_avg_db
