"""Smoke test of the benchmark harness on a tiny design; runs in seconds.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import afshape.cli as cli  # noqa: E402
import checks  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402

TINY = harness.Workload("tiny", 8, (1, 2), (1,), gamma1=3, gamma2=5)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", [TINY, harness.dataclasses.replace(TINY, verbose=True)],
                         ids=["plain", "verbose"])
@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    lines = []
    result = harness.run_benchmark(workload, seed=0, seconds=0.0, trace=trace,
                                   emit=lines.append)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= harness.MIN_DESIGNS
    last = json.loads(run.result_line(result, SPEC, trace))
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(last["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        assert last["metrics"][metric["name"]]["unit"] == metric["unit"]
        printed = [line for line in lines if line.split()[:1] == [metric["name"]]]
        assert printed and printed[0].split()[1] == metric["unit"]
        assert "median=" in printed[0]


@pytest.fixture
def tiny_outputs(tmp_path):
    config = TINY.config(seed=0)
    cli.run_and_export(config, tmp_path, verbose=True)
    return config, tmp_path, checks.load_oracle(ROOT)


def test_intact_outputs_pass(tiny_outputs):
    config, outdir, oracle = tiny_outputs
    assert checks.check_design(outdir, config, oracle, verbose=True) == []


def _rewrite_row(path, index, edit):
    lines = path.read_text().splitlines()
    fields = lines[index].split(",")
    lines[index] = ",".join(edit(fields))
    path.write_text("\n".join(lines) + "\n")


def test_off_circle_code_entry_fails(tiny_outputs):
    config, outdir, oracle = tiny_outputs
    _rewrite_row(outdir / "code.csv", 1,
                 lambda f: f[:2] + [repr(1.5 * float(f[2])), repr(1.5 * float(f[3]))])
    failures = checks.check_design(outdir, config, oracle)
    assert any("unit circle" in f for f in failures)
    assert any("oracle C" in f for f in failures)


def test_rising_m2_and_wrong_final_c_fail(tiny_outputs):
    config, outdir, oracle = tiny_outputs
    last = len((outdir / "trace.csv").read_text().splitlines()) - 1
    _rewrite_row(outdir / "trace.csv", last,
                 lambda f: [f[0], repr(2.0 * float(f[1])), repr(10.0 * float(f[2]))])
    failures = checks.check_design(outdir, config, oracle)
    assert any("M2 rises" in f for f in failures)
    assert any("oracle C" in f for f in failures)


def test_quality_floor_applies_on_its_seed_only(tiny_outputs):
    config, outdir, oracle = tiny_outputs
    floored = harness.dataclasses.replace(TINY, floor_db=1000.0)
    assert floored.floor_for(0) == 1000.0 and floored.floor_for(1) is None
    failures = checks.check_design(outdir, config, oracle, min_suppression_db=1000.0)
    assert any("suppression" in f for f in failures)


def test_differing_reruns_fail(tmp_path):
    config = TINY.config(seed=0)
    designs = [harness.Design(i, tmp_path / f"d{i}", traced=False) for i in range(2)]
    for design in designs:
        cli.run_and_export(config, design.outdir)
    harness.check_designs(designs, config, TINY, checks.load_oracle(ROOT))
    assert all(d.ok for d in designs)
    # a different seed in the second directory breaks byte-identity only
    cli.run_and_export(TINY.config(seed=1), designs[1].outdir)
    harness.check_designs(designs, config, TINY, checks.load_oracle(ROOT))
    assert designs[0].ok
    assert designs[1].failures == ["code.csv/trace.csv differ from the first design's"]
