"""Byte-equality gate: the early-exit PMLI loop against the fixed-count reference.

Each config runs run_and_export twice in-process, once with the package's
pmli_inner and once with the fixed-count loop from tests/oracle.py patched
in its place, and compares every output file. Both runs happen on the same
machine, so no stored hash (which would depend on the BLAS build) is used.
"""

import json

import pytest

from afshape import RegionSpec, SolverConfig, solver
from afshape.cli import run_and_export
from oracle import pmli_inner_fixed_count

REF_REGION = RegionSpec(delays=(5, 6, 7), dopplers=(-15, -14, -13, 11, 12, 13, 14))
WIDE_REGION = RegionSpec(delays=tuple(range(1, 13)), dopplers=tuple(range(-10, 11)))

# name -> (config, verbose, whether the inner loop reaches a fixed point)
CONFIGS = {
    "ref31": (SolverConfig(n=31, region=REF_REGION, gamma1=30, gamma2=500, seed=0),
              False, True),
    "wide64": (SolverConfig(n=64, region=WIDE_REGION, gamma1=8, gamma2=20, seed=0),
               False, False),
    "ref31-verbose": (SolverConfig(n=31, region=REF_REGION, gamma1=20, gamma2=500, seed=3),
                      True, True),
}
BYTE_EQUAL = ("code.csv", "trace.csv", "af_grid.csv", "af_grid_db.csv", "report.json")


def reaches_fixed_point(d_mat, x_start, gamma2):
    """True when the last of gamma2 fixed-count steps changes no bit of the phases."""
    before_last = pmli_inner_fixed_count(d_mat, x_start, gamma2 - 1)
    return (pmli_inner_fixed_count(d_mat, before_last, 1).phases.tobytes()
            == before_last.phases.tobytes())


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_early_exit_outputs_match_fixed_count_loop(name, tmp_path, monkeypatch):
    config, verbose, fixed_points = CONFIGS[name]
    run_and_export(config, tmp_path / "new", verbose=verbose)

    calls = []

    def reference(d_mat, x_start, gamma2, track_objective=False):
        calls.append((d_mat, x_start, gamma2))
        return pmli_inner_fixed_count(d_mat, x_start, gamma2, track_objective)

    monkeypatch.setattr(solver, "pmli_inner", reference)
    run_and_export(config, tmp_path / "ref", verbose=verbose)
    monkeypatch.undo()

    # the config exercises the path it is here for
    assert any(reaches_fixed_point(*call) for call in calls) == fixed_points

    for fname in BYTE_EQUAL:
        assert (tmp_path / "new" / fname).read_bytes() == (tmp_path / "ref" / fname).read_bytes(), fname
    if verbose:
        new, ref = (json.loads((tmp_path / side / "trace.json").read_text())
                    for side in ("new", "ref"))
        for payload in (new, ref):
            del payload["elapsed_ms"]
        assert new == ref
    new, ref = (json.loads((tmp_path / side / "manifest.json").read_text())
                for side in ("new", "ref"))
    for key in ("final_c", "suppression_db", "stop_reason", "final_rel_change"):
        assert new[key] == ref[key], key
