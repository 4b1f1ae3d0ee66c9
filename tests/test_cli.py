"""Tests for configuration resolution, the export pipeline, and exit codes."""

import json
import sys
import tracemalloc

import numpy as np
import pytest

from afshape import LoadingError, __version__
from afshape import cli
from afshape.cli import (
    ConfigError,
    main,
    parse_config,
    run_and_export,
)
from afshape.af_core import RegionSpec
from afshape.solver import SolverConfig, run

SMALL_ARGS = ["--n", "12", "--k", "1,2", "--p", "2,3", "--gamma1", "10",
              "--gamma2", "20"]


def small_solver_config(**overrides):
    config, _ = parse_config(SMALL_ARGS, env={})
    data = config.to_json_dict()
    data.update(overrides)
    return SolverConfig.from_json_dict(data)


# ----------------------------------------------------------- index sets

# each index-set form and the sorted, distinct set it names
INDEX_SETS = [
    ("5,6,7", (5, 6, 7)),
    ("5..7", (5, 6, 7)),
    ("-15..-13,11..14", (-15, -14, -13, 11, 12, 13, 14)),
    ([3, 1, 2, 2], (1, 2, 3)),
    (["1", "4..5"], (1, 4, 5)),
    (7, (7,)),
]
BAD_INDEX_SETS = ["7..5", "1,7..5", "a", "", "1,,2", [True], [None], {"x": 1}, {"5": 1},
                  "5..", "1..2..3"]


def test_index_set_variants(tmp_path):
    # RegionSpec reads every form; the library, a JSON dict and a --config file agree
    for value, expected in INDEX_SETS:
        assert RegionSpec(delays=value, dopplers=value) == RegionSpec(expected, expected)
        for key, axis in (("k", "delays"), ("p", "dopplers")):
            data = {"n": 31, "k": [1], "p": [1], key: value}
            config = SolverConfig.from_json_dict(data)
            assert getattr(config.region, axis) == expected
            path = tmp_path / "run.json"
            path.write_text(json.dumps(data))
            assert parse_config(["--config", str(path)], env={})[0] == config


def test_index_set_rejects_garbage(tmp_path, capsys):
    out = tmp_path / "out"
    for bad in BAD_INDEX_SETS:
        with pytest.raises(ValueError):
            RegionSpec(delays=bad, dopplers=(1,))
        with pytest.raises(ValueError):
            SolverConfig.from_json_dict({"n": 8, "k": [1], "p": bad})
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"n": 8, "k": bad, "p": [1]}))
        assert main(["--config", str(path), "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        if isinstance(bad, str):
            assert main(["--n", "8", "--k", "1", "--p", bad, "--out", str(out)]) == 2
            assert "config error" in capsys.readouterr().err
    assert not out.exists()


# --------------------------------------------------------------- config

def test_parse_config_reference_flags():
    config, args = parse_config(
        ["--n", "31", "--k", "5,6,7", "--p", "-15..-13,11..14", "--seed", "0"],
        env={})
    assert config.n == 31
    assert config.region.delays == (5, 6, 7)
    assert config.region.dopplers == (-15, -14, -13, 11, 12, 13, 14)
    assert config.gamma1 == 1000 and config.gamma2 == 500
    assert config.epsilon == 1e-6 and config.seed == 0
    assert config.delta == 0.01
    assert args.out == "afshape_out"


def test_parse_config_defaults_seed_zero():
    config, _ = parse_config(["--n", "8", "--k", "1", "--p", "2"], env={})
    assert config.seed == 0


def test_env_seed_fallback_and_precedence():
    env = {"AFSHAPE_SEED": "42"}
    config, _ = parse_config(["--n", "8", "--k", "1", "--p", "2"], env=env)
    assert config.seed == 42
    config, _ = parse_config(["--n", "8", "--k", "1", "--p", "2", "--seed", "7"], env=env)
    assert config.seed == 7
    with pytest.raises(ConfigError):
        parse_config(["--n", "8", "--k", "1", "--p", "2"], env={"AFSHAPE_SEED": "x"})


def test_flags_override_config_file(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"n": 8, "k": [1], "p": [2], "seed": 3, "gamma1": 5}))
    config, _ = parse_config(["--config", str(path), "--seed", "9"], env={})
    assert config.seed == 9 and config.gamma1 == 5 and config.n == 8


def test_config_file_seed_beats_env(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"n": 8, "k": [1], "p": [2], "seed": 3}))
    config, _ = parse_config(["--config", str(path)], env={"AFSHAPE_SEED": "42"})
    assert config.seed == 3


def test_config_file_errors(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ConfigError):
        parse_config(["--config", str(missing), "--n", "8", "--k", "1", "--p", "2"],
                     env={})
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        parse_config(["--config", str(bad)], env={})
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"n": 8, "k": [1], "p": [2], "mystery": 1}))
    with pytest.raises(ConfigError):
        parse_config(["--config", str(unknown)], env={})
    not_object = tmp_path / "list.json"
    not_object.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        parse_config(["--config", str(not_object)], env={})
    not_utf8 = tmp_path / "latin.json"
    not_utf8.write_bytes(b'\xff\xfe{"n": 8}')
    with pytest.raises(ConfigError, match="UTF-8"):
        parse_config(["--config", str(not_utf8)], env={})


def test_missing_required_settings():
    with pytest.raises(ConfigError):
        parse_config(["--k", "1", "--p", "2"], env={})
    with pytest.raises(ConfigError):
        parse_config(["--n", "8", "--p", "2"], env={})


# ------------------------------------------------------------ exit codes

def test_main_config_error_exit_2(capsys):
    assert main(["--n", "8", "--k", "0", "--p", "0"]) == 2
    assert "config error" in capsys.readouterr().err


def test_main_removed_config_key_exit_2(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"n": 8, "k": [1], "p": [2], "zeta_policy": "exact"}))
    assert main(["--config", str(path), "--dry-run"]) == 2
    assert "unknown config keys: ['zeta_policy']" in capsys.readouterr().err


def test_main_non_finite_settings_exit_2(tmp_path, capsys):
    for flag, value in (("--epsilon", "nan"), ("--delta", "inf")):
        assert main(SMALL_ARGS + [flag, value, "--out", str(tmp_path / "out")]) == 2
        assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flags, env, config_text", [
    (["--seed", "-1"], {}, None),
    (["--seed", "-1", "--dry-run"], {}, None),
    ([], {"AFSHAPE_SEED": "-1"}, None),
    ([], {}, '{"gamma1": Infinity}'),
    ([], {}, '{"seed": 1e400}'),
    ([], {}, '{"gamma2": true}'),
    ([], {}, '{"delta": "0.1"}'),
    (["--delta", "1e-16"], {}, None),
], ids=["seed-flag", "seed-flag-dry-run", "seed-env", "gamma1-inf", "seed-overflow",
        "gamma2-bool", "delta-string", "delta-lost-in-loading"])
def test_main_bad_number_exit_2(flags, env, config_text, tmp_path, monkeypatch, capsys):
    # each is refused at the config boundary, before any output directory exists;
    # no gamma flags here, since flags would override the file's values
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    argv = ["--n", "12", "--k", "1,2", "--p", "2,3", *flags, "--out", str(tmp_path / "out")]
    if config_text is not None:
        path = tmp_path / "run.json"
        path.write_text(config_text)
        argv += ["--config", str(path)]
    assert main(argv) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_main_aliased_region_exit_2(tmp_path, capsys):
    for flags in (["--k", "5,-26", "--p", "3"], ["--k", "5", "--p", "-16,15"]):
        assert main(["--n", "31", *flags, "--out", str(tmp_path / "out")]) == 2
        assert "same cyclic cell" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("region, message", [
    ({"k": "1..3000000", "p": "1"}, "delay lag 3000000 outside"),
    ({"k": "1", "p": "-3000000..1"}, "Doppler bin -3000000 outside"),
], ids=["delay", "doppler"])
@pytest.mark.parametrize("source", ["flags", "file"])
def test_main_huge_range_exit_2_before_expanding(region, message, source, tmp_path, capsys):
    # the range's ends are checked against n first: expanded, it would take ~300 MB
    if source == "flags":
        argv = ["--n", "31", f"--k={region['k']}", f"--p={region['p']}"]
    else:
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"n": 31, **region}))
        argv = ["--config", str(path)]
    tracemalloc.start()
    try:
        assert main(argv + ["--dry-run"]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6
    assert message in capsys.readouterr().err


def test_main_overflowing_delta_exit_2(tmp_path, capsys):
    # 2 |R| (1 + delta) N overflows at 1e307, which the solve would only find as a NaN
    # (exit 3); at 0.6x that edge M2's constant is finite, but the verbose trace's UQP
    # objective is not
    edge = sys.float_info.max / (2 * 21 * 31) - 1
    for delta in ("1e307", repr(0.6 * edge)):
        argv = ["--n", "31", "--k", "5..7", "--p=-15..-13,11..14", "--gamma1", "5",
                "--delta", delta, "--verbose", "--out", str(tmp_path / "out")]
        assert main(argv) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def test_main_missing_n_exit_2(capsys):
    assert main(["--k", "1", "--p", "2"]) == 2
    capsys.readouterr()


def test_main_dry_run_writes_nothing(tmp_path, capsys):
    out = tmp_path / "results"
    code = main(SMALL_ARGS + ["--out", str(out), "--dry-run"])
    assert code == 0
    assert not out.exists()
    echoed = json.loads(capsys.readouterr().out)
    assert echoed["n"] == 12 and echoed["k"] == [1, 2]


def test_main_success_exit_0(tmp_path, capsys):
    out = tmp_path / "results"
    assert main(SMALL_ARGS + ["--out", str(out)]) == 0
    message = capsys.readouterr().out
    assert "dB" in message
    assert sorted(f.name for f in out.iterdir()) == [
        "af_grid.csv", "af_grid_db.csv", "code.csv", "manifest.json",
        "report.json", "trace.csv",
    ]


def test_main_unwritable_out_exit_2(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    assert main(SMALL_ARGS + ["--out", str(blocker / "sub")]) == 2
    assert "cannot write" in capsys.readouterr().err


def fail_on(monkeypatch, writer, name, fail):
    """Patch the cli writer to call fail(path) for the output file name, else write as usual."""
    write = getattr(cli, writer)

    def patched(path, *args):
        if path.name == name:
            fail(path)
        write(path, *args)

    monkeypatch.setattr(cli, writer, patched)


def test_main_numerical_failure_removes_outputs(tmp_path, monkeypatch, capsys):
    def boom(path):
        raise LoadingError(1, 2, "ar", -1.0, 0.5)

    fail_on(monkeypatch, "_write_csv", "trace.csv", boom)
    out = tmp_path / "results"
    assert main(SMALL_ARGS + ["--out", str(out)]) == 3
    assert "numerical failure" in capsys.readouterr().err
    assert list(out.iterdir()) == []  # partial outputs were removed


@pytest.mark.parametrize("writer, name, flags", [
    ("_write_csv", "af_grid.csv", []),
    ("_write_json", "trace.json", ["--verbose"]),
], ids=["grid-csv", "trace-json"])
def test_main_removes_half_written_output(writer, name, flags, tmp_path, monkeypatch, capsys):
    def write_then_fail(path):
        with open(path, "w") as fh:
            fh.write("first line\n")
        raise RuntimeError("disk went away mid-write")

    fail_on(monkeypatch, writer, name, write_then_fail)
    out = tmp_path / "results"
    assert main(SMALL_ARGS + flags + ["--out", str(out)]) == 3
    assert "numerical failure" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_failed_rerun_leaves_no_outputs(tmp_path, monkeypatch, capsys):
    # the rerun fails after writing code.csv and af_grid.csv; the first run's manifest,
    # report and traces must go too, or the manifest would list files that are gone
    out = tmp_path / "results"
    run_and_export(small_solver_config(seed=1), out, verbose=True)

    def fail(path):
        raise RuntimeError("disk went away mid-write")

    fail_on(monkeypatch, "_write_csv", "af_grid_db.csv", fail)
    assert main(SMALL_ARGS + ["--seed", "2", "--out", str(out)]) == 3
    assert "numerical failure" in capsys.readouterr().err
    assert list(out.iterdir()) == []


# ---------------------------------------------------------- file outputs

def test_run_and_export_artifacts(tmp_path):
    out = tmp_path / "results"
    config = small_solver_config()
    manifest = run_and_export(config, out)

    code_lines = (out / "code.csv").read_text().strip().splitlines()
    assert code_lines[0] == "index,phase_rad,re,im"
    assert len(code_lines) == 1 + config.n
    for line in code_lines[1:]:
        _, phase, re, im = line.split(",")
        assert abs(complex(float(re), float(im))) == pytest.approx(1.0, abs=1e-12)
        assert abs(np.exp(1j * float(phase)) - complex(float(re), float(im))) < 1e-12

    grid_db = np.loadtxt(out / "af_grid_db.csv", delimiter=",", skiprows=1)
    assert grid_db.shape == (2 * config.n - 1, config.n + 1)  # lag column + bins
    assert np.max(grid_db[:, 1:]) <= 1e-9

    trace_lines = (out / "trace.csv").read_text().strip().splitlines()
    assert trace_lines[0] == "outer_iter,C,m2_objective"

    report = json.loads((out / "report.json").read_text())
    assert set(report) == {"before", "after", "suppression_db", "bin_levels"}

    manifest_data = json.loads((out / "manifest.json").read_text())
    assert manifest_data["config"] == config.to_json_dict()
    assert manifest_data["tool_version"] == __version__
    assert manifest_data["final_c"] == float(trace_lines[-1].split(",")[1])
    assert manifest_data["final_c"] == report["after"]["region_energy"]
    assert set(manifest_data["outputs"]) == {
        "code", "af_grid", "af_grid_db", "trace", "report", "manifest"}
    assert manifest_data["suppression_db"] == report["suppression_db"]
    assert manifest_data["stop_reason"] == "gamma1"  # 10 outer steps, epsilon 1e-6
    assert manifest_data["final_rel_change"] > config.epsilon
    assert manifest == manifest_data


def test_run_record_energies_are_the_trace_c_bit_for_bit(tmp_path):
    # the reference region: the report forms C as the u-step does, so final_c
    # is trace.csv's last C and the before energy its first, to the last bit
    region = RegionSpec.for_length(31, "5..7", "-15..-13,11..14")
    out = tmp_path / "out"
    run_and_export(SolverConfig(n=31, region=region, gamma1=40, gamma2=500, seed=0), out)
    c_values = [line.split(",")[1] for line in
                (out / "trace.csv").read_text().strip().splitlines()[1:]]
    assert len(c_values) == 41
    manifest = json.loads((out / "manifest.json").read_text())
    report = json.loads((out / "report.json").read_text())
    assert manifest["final_c"] == float(c_values[-1])
    assert report["before"]["region_energy"] == float(c_values[0])


def test_run_and_export_verbose_adds_inner_trace(tmp_path):
    out = tmp_path / "results"
    run_and_export(small_solver_config(), out, verbose=True)
    payload = json.loads((out / "trace.json").read_text())
    assert len(payload["inner_objectives"]) == payload["outer_iter"][-1]
    manifest_data = json.loads((out / "manifest.json").read_text())
    # both files end with the same run record: keys, values and order
    record = ["stop_reason", "final_rel_change", "zeta", "gamma_x", "inner_steps",
              "time_to_quality"]
    assert list(payload)[-len(record):] == record
    assert list(manifest_data)[-len(record):] == record
    assert [payload[key] for key in record] == [manifest_data[key] for key in record]
    assert "stop_reason" not in (out / "trace.csv").read_text()
    assert payload["inner_steps"] == sum(len(block) - 1 for block in payload["inner_objectives"])


def test_time_to_quality_agrees_with_trace_csv(tmp_path):
    # ref31 seed 0: C falls to C0/10 at outer iteration 173 and to C0/100 at 920,
    # and never to C0/1000 within the 1000-iteration cap
    region = RegionSpec.for_length(31, "5..7", "-15..-13,11..14")
    out = tmp_path / "out"
    run_and_export(SolverConfig(n=31, region=region, gamma1=1000, gamma2=500, seed=0), out,
                   verbose=True)
    rows = [line.split(",") for line in (out / "trace.csv").read_text().splitlines()[1:]]
    c_values = [float(c) for _, c, _ in rows]
    payload = json.loads((out / "trace.json").read_text())
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["time_to_quality"] == payload["time_to_quality"]
    hits = payload["time_to_quality"]
    assert list(hits) == ["C0/10", "C0/100", "C0/1000"]
    assert [hit and hit["outer_iter"] for hit in hits.values()] == [173, 920, None]
    for name, hit in hits.items():
        goal = c_values[0] / int(name.split("/")[1])
        reached = [i for i, c in enumerate(c_values) if c <= goal]
        if hit is None:
            assert reached == []
            continue
        row = reached[0]
        assert hit["outer_iter"] == int(rows[row][0])
        assert hit["elapsed_ms"] == payload["elapsed_ms"][row]


def test_plain_run_holds_the_verbose_inner_blocks(tmp_path):
    # verbose only logs and writes trace.json: the library run keeps the same blocks
    config = small_solver_config(gamma1=6, epsilon=1e-15)
    _, trace = run(config)
    run_and_export(config, tmp_path / "out", verbose=True)
    blocks = json.loads((tmp_path / "out" / "trace.json").read_text())["inner_objectives"]
    assert len(blocks) == len(trace.inner_objectives) == 6
    for block, ref in zip(blocks, trace.inner_objectives):
        assert np.array(block, dtype=float).tobytes() == ref.tobytes()


def test_plain_run_removes_stale_inner_trace(tmp_path):
    out = tmp_path / "results"
    config = small_solver_config()
    run_and_export(config, out, verbose=True)
    assert (out / "trace.json").exists()
    run_and_export(config, out)
    assert not (out / "trace.json").exists()
    manifest_data = json.loads((out / "manifest.json").read_text())
    assert "trace_json" not in manifest_data["outputs"]


def test_reruns_are_byte_identical(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    config = small_solver_config()
    run_and_export(config, out_a)
    run_and_export(config, out_b)
    for name in ("code.csv", "trace.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_manifest_round_trip_is_lossless(tmp_path):
    manifest = run_and_export(small_solver_config(epsilon=1.0), tmp_path / "out")
    assert manifest["stop_reason"] == "epsilon"
    assert manifest == json.loads((tmp_path / "out" / "manifest.json").read_text())
