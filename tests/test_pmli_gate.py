"""Byte-equality gate: the package's PMLI loop against the fixed-count reference.

Each config runs run_and_export twice in-process, once with the package's
pmli_inner and once with pmli_inner_reference from tests/oracle.py patched
in its place, and compares every output file. The reference is built on the
fixed-count loop alone: with the config's own epsilon, run's floor lets
PMLI stop at its first objective that does not rise, and the reference cuts
the fixed-count trajectory there; with epsilon = 1e-15 the floor is too
small for that, PMLI runs to its exact fixed point, and the reference is
the fixed-count loop as it is. Both runs happen on the same machine, so no
stored hash (which would depend on the BLAS build) is used.
"""

import dataclasses
import json
import sys

import numpy as np
import pytest

from afshape import RegionSpec, SolverConfig, solver
from afshape.cli import run_and_export
from oracle import pmli_inner_fixed_count, pmli_inner_reference

REF_REGION = RegionSpec(delays=(5, 6, 7), dopplers=(-15, -14, -13, 11, 12, 13, 14))
WIDE_REGION = RegionSpec(delays=tuple(range(1, 13)), dopplers=tuple(range(-10, 11)))

# name -> (config, verbose, whether the objective stop cuts some call short of
# gamma2 steps, whether the exact loop reaches a fixed point)
CONFIGS = {
    "ref31": (SolverConfig(n=31, region=REF_REGION, gamma1=30, gamma2=500, seed=0),
              False, True, True),
    "wide64": (SolverConfig(n=64, region=WIDE_REGION, gamma1=8, gamma2=20, seed=0),
               False, True, False),
    "ref31-verbose": (SolverConfig(n=31, region=REF_REGION, gamma1=20, gamma2=500, seed=3),
                      True, True, True),
}
BYTE_EQUAL = ("code.csv", "trace.csv", "af_grid.csv", "af_grid_db.csv", "report.json")


def reaches_fixed_point(d_mat, x_start, gamma2, floor):
    """True when the last of gamma2 fixed-count steps changes no bit of the phases (floor unused)."""
    before_last = pmli_inner_fixed_count(d_mat, x_start, gamma2 - 1)
    return (pmli_inner_fixed_count(d_mat, before_last, 1).phases.tobytes()
            == before_last.phases.tobytes())


def objective_gate(d_mat, x_start, gamma2, floor):
    """True when floor lets PMLI stop at an objective that does not rise."""
    _, objectives = pmli_inner_fixed_count(d_mat, x_start, 1, track_objective=True)
    return floor > 0 and sys.float_info.epsilon * abs(objectives[0]) <= floor


def cut_short(d_mat, x_start, gamma2, floor):
    """True when the reference cuts the call before gamma2 steps."""
    _, objectives = pmli_inner_reference(d_mat, x_start, gamma2, floor, track_objective=True)
    return objectives.size < gamma2 + 1


def assert_outputs_match_reference(config, verbose, tmp_path, monkeypatch):
    """Runs config with the package's loop and with the reference; returns the calls seen."""
    run_and_export(config, tmp_path / "new", verbose=verbose)

    calls = []

    def reference(d_mat, x_start, gamma2, track_objective=False, floor=0.0):
        # D is rewritten in place every cycle, so the call keeps a copy
        calls.append((d_mat.copy(), x_start, gamma2, floor))
        return pmli_inner_reference(d_mat, x_start, gamma2, floor, track_objective)

    monkeypatch.setattr(solver, "pmli_inner", reference)
    run_and_export(config, tmp_path / "ref", verbose=verbose)
    monkeypatch.undo()

    for fname in BYTE_EQUAL:
        assert (tmp_path / "new" / fname).read_bytes() == (tmp_path / "ref" / fname).read_bytes(), fname
    if verbose:
        new, ref = (json.loads((tmp_path / side / "trace.json").read_text())
                    for side in ("new", "ref"))
        new_blocks, ref_blocks = (payload.pop("inner_objectives") for payload in (new, ref))
        # the step count follows the blocks, which the reference may carry past a fixed point
        assert new.pop("inner_steps") == sum(len(block) - 1 for block in new_blocks)
        for payload in (new, ref):  # the milliseconds differ between runs
            del payload["elapsed_ms"]
            for hit in payload["time_to_quality"].values():
                if hit is not None:
                    del hit["elapsed_ms"]
        del ref["inner_steps"]
        assert new == ref
        # every block matches the reference's bit for bit; where the reference
        # runs all gamma2 fixed-count steps, its later values repeat the last one
        assert len(new_blocks) == len(ref_blocks) == len(calls)
        for block, ref_block, call in zip(new_blocks, ref_blocks, calls):
            head, tail = np.array(ref_block[:len(block)]), np.array(ref_block[len(block):])
            assert np.array(block).tobytes() == head.tobytes()
            assert tail.tobytes() == np.repeat(head[-1:], tail.size).tobytes()
            if objective_gate(*call):
                assert tail.size == 0
    new, ref = (json.loads((tmp_path / side / "manifest.json").read_text())
                for side in ("new", "ref"))
    for key in ("final_c", "suppression_db", "stop_reason", "final_rel_change"):
        assert new[key] == ref[key], key
    return calls


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_early_exit_outputs_match_fixed_count_loop(name, tmp_path, monkeypatch):
    # the config's own epsilon: the objective stop
    config, verbose, cuts, _ = CONFIGS[name]
    calls = assert_outputs_match_reference(config, verbose, tmp_path, monkeypatch)
    # the config exercises the path it is here for
    assert all(objective_gate(*call) for call in calls)
    assert any(cut_short(*call) for call in calls) == cuts


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_exact_path_outputs_match_fixed_count_loop(name, tmp_path, monkeypatch):
    # epsilon = 1e-15 keeps every floor below the objective's resolution
    config, verbose, _, fixed_points = CONFIGS[name]
    config = dataclasses.replace(config, epsilon=1e-15)
    calls = assert_outputs_match_reference(config, verbose, tmp_path, monkeypatch)
    assert not any(objective_gate(*call) for call in calls)
    assert any(reaches_fixed_point(*call) for call in calls) == fixed_points
