"""Byte-equality gate: the CLI's streaming writers against the first-written ones.

The CLI writes every CSV through one writer, a header and then a line per
row. For the AF grid it formats each of the N cyclic lag rows once and
writes all 2N - 1 lags from them; the first-written writer takes the tiled
grid, one row per lag, which tiled_view builds. code.csv and trace.csv go
through the same writer. Every JSON file streams json.dump into the file,
so trace.json's peak memory stays a small multiple of the file's size.
All must write exactly the bytes of the straightforward writers kept in
tests/oracle.py. Both sides run here, so no stored hash is used.
"""

import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from afshape import CodeSequence, RegionSpec, SolverConfig
from afshape.af_core import DB_FLOOR, AFGrid, af_grid
from afshape.cli import (_code_table, _grid_table, _trace_table, _write_csv, _write_json,
                         run_and_export)
from afshape.solver import ConvergenceTrace, init_random_code, run
from oracle import af_grid_to_csv, trace_to_csv, trace_to_json, write_code_csv

# values whose text is easy to get wrong: signed zeros, the smallest subnormal,
# a huge finite value, both infinities and NaN
SPECIALS = [0.0, -0.0, 5e-324, 1e308, math.inf, -math.inf, math.nan, 0.1]


def tiled_view(grid):
    """The (2N - 1)-row grid the first-written writer takes: lag k is row k mod N."""
    lags = np.arange(-(grid.n - 1), grid.n)
    rows = lags % grid.n
    return SimpleNamespace(lags=lags, bins=grid.bins, magnitude=grid.magnitude[rows],
                           magnitude_db=grid.magnitude_db[rows])


def assert_same_csv(grid, tmp_path):
    for db in (False, True):
        _write_csv(tmp_path / "new.csv", *_grid_table(grid, db=db))
        af_grid_to_csv(tiled_view(grid), tmp_path / "ref.csv", db=db)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes(), db


def assert_same_json(trace, tmp_path):
    _write_json(tmp_path / "new.json", trace.to_json_dict())
    trace_to_json(trace, tmp_path / "ref.json")
    assert (tmp_path / "new.json").read_bytes() == (tmp_path / "ref.json").read_bytes()


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 9, 64, 128])
def test_af_grid_csv_matches_reference(n, tmp_path):
    assert_same_csv(af_grid(init_random_code(n, n)), tmp_path)


def test_hand_built_grid_csv_matches_reference(tmp_path):
    specials = [0.0, -0.0, 5e-324, 1e308, math.inf, math.nan, DB_FLOOR, 0.1]
    unique = np.array(specials)
    zeros = np.zeros(len(specials))
    magnitude = np.array([unique, unique[::-1], unique, -unique, unique[::-1], zeros, -zeros,
                          np.roll(unique, 3)])
    grid = AFGrid(n=8, bins=np.arange(8) - 4,
                  magnitude=magnitude, magnitude_db=np.maximum(magnitude, DB_FLOOR))
    # rows 0 and 2 share their bytes; rows 5 and 6 compare equal but differ in
    # bytes and in text ("0" against "-0")
    assert magnitude[0].tobytes() == magnitude[2].tobytes()
    assert np.array_equal(magnitude[5], magnitude[6])
    assert_same_csv(grid, tmp_path)


def test_exported_grid_csvs_match_reference(tmp_path):
    # the CLI path: af_grid.csv and af_grid_db.csv of a run, against the first-written
    # writer on the grid rebuilt from code.csv (17 significant digits round-trip float64)
    region = RegionSpec(delays=(1, 2), dopplers=(-1, 0, 1))
    config = SolverConfig(n=9, region=region, gamma1=6, gamma2=20, seed=3)
    run_and_export(config, tmp_path / "out")
    lines = (tmp_path / "out" / "code.csv").read_text().splitlines()[1:]
    phases = [float(line.split(",")[1]) for line in lines]
    grid = tiled_view(af_grid(CodeSequence(phases=phases)))
    for name, db in (("af_grid.csv", False), ("af_grid_db.csv", True)):
        af_grid_to_csv(grid, tmp_path / "ref.csv", db=db)
        assert (tmp_path / "out" / name).read_bytes() == (tmp_path / "ref.csv").read_bytes()


def assert_same_bytes(new_path, ref_path):
    assert new_path.read_bytes() == ref_path.read_bytes()


def test_hand_built_code_csv_matches_reference(tmp_path):
    # the CLI reads only phases and values, so each can hold every special value
    values = np.empty(len(SPECIALS), dtype=complex)
    values.real = SPECIALS
    values.imag = SPECIALS[::-1]
    x = SimpleNamespace(phases=np.roll(SPECIALS, 3), values=values)
    _write_csv(tmp_path / "new.csv", *_code_table(x))
    write_code_csv(x, tmp_path / "ref.csv")
    assert_same_bytes(tmp_path / "new.csv", tmp_path / "ref.csv")


def test_hand_built_trace_csv_matches_reference(tmp_path):
    trace = ConvergenceTrace(outer_iters=list(range(len(SPECIALS))), c_values=SPECIALS,
                             m2_values=SPECIALS[::-1])
    _write_csv(tmp_path / "new.csv", *_trace_table(trace))
    trace_to_csv(trace, tmp_path / "ref.csv")
    assert_same_bytes(tmp_path / "new.csv", tmp_path / "ref.csv")


def test_exported_code_and_trace_csvs_match_reference(tmp_path):
    # the CLI path: code.csv and trace.csv of a run, against the first-written
    # writers on the same deterministic solve
    config = SolverConfig(n=9, region=RegionSpec(delays=(1, 2), dopplers=(-1, 0, 1)),
                          gamma1=6, gamma2=20, seed=3)
    run_and_export(config, tmp_path / "out")
    x, trace = run(config)
    write_code_csv(x, tmp_path / "code.csv")
    trace_to_csv(trace, tmp_path / "trace.csv")
    for name in ("code.csv", "trace.csv"):
        assert_same_bytes(tmp_path / "out" / name, tmp_path / name)


def recorded_trace(inner_blocks, **attrs):
    trace = ConvergenceTrace(outer_iters=[0], c_values=[10.0], m2_values=[20.0],
                             elapsed_ms=[0.0])
    for t, inner in enumerate(inner_blocks, start=1):
        trace.record(t, 10.0 / (t + 1), 20.0 / (t + 1), 0.5 * t, np.array(inner, dtype=float))
    for name, value in attrs.items():
        setattr(trace, name, value)
    return trace


@pytest.mark.parametrize("trace", [
    recorded_trace([], stop_reason=None, final_rel_change=None),
    ConvergenceTrace(),
    recorded_trace([[1.0, math.nan, 2.5], [math.inf, -math.inf, -0.0, 5e-324]],
                   stop_reason="epsilon", final_rel_change=math.inf),
    recorded_trace([[3.0], [1e308, 0.1, 1.0 / 3.0]], stop_reason="gamma1",
                   final_rel_change=math.nan),
    # blocks that end at a fixed point repeat their last value: runs of one
    # value, -0.0 next to 0.0, and NaN tails must keep their own text
    recorded_trace([[2.0, 2.0, 2.0, 2.0], [7.5], [-1.0, -1.0]]),
    recorded_trace([[1.0, -0.0, -0.0, 0.0, 0.0, 0.0], [0.0, -0.0], [-0.0, 0.0]]),
    recorded_trace([[4.0, math.nan, math.nan, math.nan], [math.nan, 1.0, math.inf, math.inf],
                    [math.nan, math.nan]]),
], ids=["empty-inner", "empty-trace", "nan-inf-rows", "short-rows",
        "one-value", "zero-after-negative-zero", "nan-tail"])
def test_hand_built_trace_json_matches_reference(trace, tmp_path):
    assert_same_json(trace, tmp_path)


@pytest.mark.parametrize("epsilon", [1e-15, 0.05])
def test_run_trace_json_matches_reference(epsilon, tmp_path):
    region = RegionSpec(delays=(1, 2), dopplers=(-1, 0, 1))
    config = SolverConfig(n=8, region=region, gamma1=12, gamma2=40, epsilon=epsilon, seed=5)
    _, trace = run(config)
    assert trace.stop_reason == ("gamma1" if epsilon < 1e-9 else "epsilon")
    assert_same_json(trace, tmp_path)


def test_trace_json_writer_streams(tmp_path):
    # json.dump writes the encoder's chunks as they come, so its peak stays near the
    # file's size (about 1.4x on this trace); json.dumps of the whole trace holds the
    # text and its pieces at once (about 5.5x), which shows in ref31-verbose's peak RSS
    region = RegionSpec(delays=(5, 6, 7), dopplers=(-15, -14, -13, 11, 12, 13, 14))
    config = SolverConfig(n=31, region=region, gamma1=300, gamma2=500, seed=0)
    _, trace = run(config)
    path = tmp_path / "trace.json"
    tracemalloc.start()
    try:
        _write_json(path, trace.to_json_dict())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * path.stat().st_size
