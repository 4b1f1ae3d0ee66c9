"""Command-line front end: configure a solve, run it, export artifacts.

A run writes six files into --out, and trace.json when --verbose:

    code.csv        index, phase_rad, re, im (17 significant digits)
    af_grid.csv     |r| magnitude grid, lags -(N-1)..N-1 as rows, Doppler bins as columns
    af_grid_db.csv  the same grid in mainlobe-referenced dB
    trace.csv       outer_iter, C, m2_objective
    report.json     before/after region reports and the suppression figure
    manifest.json   config echo, version, timestamps, file paths, final_c,
                    suppression_db, then the run record
    trace.json      (--verbose) the full trace with timing and inner objectives,
                    then the run record

run_and_export returns the manifest dict it writes. Both JSON files end
with the same run record, ConvergenceTrace.run_record: why the solve
stopped, the last relative change of C, and the x-step's two per-solve
constants (the loading level and its bound on Q's top eigenvalue); the
verbose log prints it too. final_c is the FFT evaluator's region energy,
the bits of af_core.eval_objective and of report.json's after energy; its
last digits can differ from trace.csv's last C, which the u-step computes.

Settings come from flags, from a JSON config file (--config), or both;
flags win over file values, and AFSHAPE_SEED supplies the seed when
neither does. SolverConfig.from_json_dict checks the merged settings, and
--k/--p and a file's k/p take the index-set format RegionSpec reads. Exit
codes: 0 success, 2 configuration error, 3 numerical failure, a rise of the
surrogate M2 included (partial outputs are removed on failure).
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .af_core import CodeSequence, af_grid
from .metrics import compare
from .solver import CONFIG_KEYS, SolverConfig, run

logger = logging.getLogger("afshape")


class ConfigError(ValueError):
    """Invalid or incomplete run configuration."""


_OUTPUT_NAMES = {
    "code": "code.csv",
    "af_grid": "af_grid.csv",
    "af_grid_db": "af_grid_db.csv",
    "trace": "trace.csv",
    "report": "report.json",
    "manifest": "manifest.json",
}


def load_config_file(path) -> dict:
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return data


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="afshape",
        description="Design slow-time radar codes whose ambiguity function is "
                    "suppressed over chosen delay/Doppler regions.",
    )
    parser.add_argument("--n", type=int, help="code length (number of chirps)")
    parser.add_argument("--k", help="delay lags, e.g. '5,6,7' or '5..7'")
    parser.add_argument("--p", help="Doppler bins, e.g. '-15..-13,11..14'")
    parser.add_argument("--gamma1", type=int, help="max outer iterations (default 1000)")
    parser.add_argument("--gamma2", type=int,
                        help="at most this many inner power-method steps per outer step; "
                             "stops once the step objective no longer rises, or at an exact "
                             "fixed point on a deeply nulled region (see --epsilon; "
                             "default 500)")
    parser.add_argument("--epsilon", type=float,
                        help="relative stopping tolerance on the region energy; epsilon * M2 "
                             "also sets when the inner loop may stop early (default 1e-6)")
    parser.add_argument("--seed", type=int,
                        help="RNG seed for the initial code (default: AFSHAPE_SEED, then 0)")
    parser.add_argument("--delta", type=float,
                        help="loading margin; the loading level is 1 + delta (default 0.01)")
    parser.add_argument("--out", default="afshape_out",
                        help="output directory (default ./afshape_out)")
    parser.add_argument("--config", help="JSON config file; flags override file values")
    parser.add_argument("--dry-run", action="store_true",
                        help="validate the configuration, print it, and exit")
    parser.add_argument("--verbose", action="store_true",
                        help="log progress and record the inner-iteration objective trace")
    return parser


_REGION_FLAGS = ("--k", "--p")


def _merge_negative_values(argv) -> list:
    """Join '--k'/'--p' with a following negative-looking value.

    argparse refuses values like '-15..-13,11..14' after a space because
    they look like option strings; folding them into the '--flag=value'
    form keeps the documented syntax working.
    """
    out = []
    i = 0
    while i < len(argv):
        token = argv[i]
        if (token in _REGION_FLAGS and i + 1 < len(argv)
                and argv[i + 1].startswith("-") and not argv[i + 1].startswith("--")):
            out.append(f"{token}={argv[i + 1]}")
            i += 2
        else:
            out.append(token)
            i += 1
    return out


def resolve_config(args: argparse.Namespace, env=None) -> SolverConfig:
    """Merge config file, flags, and environment into a SolverConfig."""
    env = os.environ if env is None else env
    merged = load_config_file(args.config) if args.config else {}
    for name in sorted(CONFIG_KEYS):  # every config key has a flag of the same name
        value = getattr(args, name)
        if value is not None:
            merged[name] = value
    if "seed" not in merged and "AFSHAPE_SEED" in env:
        raw = env["AFSHAPE_SEED"]
        try:
            merged["seed"] = int(raw)
        except ValueError:
            raise ConfigError(f"AFSHAPE_SEED must be an integer, got {raw!r}") from None
    try:
        return SolverConfig.from_json_dict(merged)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def parse_config(argv=None, env=None):
    """Parse argv into a validated SolverConfig plus the raw namespace."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(_merge_negative_values(argv))
    return resolve_config(args, env=env), args


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2) + "\n")


def _write_code_csv(x: CodeSequence, path: Path) -> None:
    values = x.values
    lines = ["index,phase_rad,re,im"]
    for i, (phase, value) in enumerate(zip(x.phases, values)):
        lines.append(f"{i},{phase:.17g},{value.real:.17g},{value.imag:.17g}")
    path.write_text("\n".join(lines) + "\n")


def _log_outer(state) -> None:
    t = state.outer_iter
    if t == 1 or t % 50 == 0:
        logger.info("outer %4d: C=%.6e  M2=%.6e", t,
                     state.trace.c_values[-1], state.trace.m2_values[-1])


def run_and_export(config: SolverConfig, outdir, verbose: bool = False) -> dict:
    """Solve, evaluate, write every run artifact into outdir; returns the manifest.

    The manifest is the dict written to manifest.json, ending with the
    trace's run record.

    Any failure after files have started to appear removes the partial
    outputs before the exception propagates.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    started = _utc_now()
    if verbose:
        logger.info("starting solve: n=%d, region %dx%d, gamma1=%d, gamma2=%d",
                    config.n, len(config.region.delays), len(config.region.dopplers),
                    config.gamma1, config.gamma2)
    x_final, trace = run(config, collect_inner=verbose,
                         on_outer=_log_outer if verbose else None)
    grid = af_grid(x_final)
    comparison = compare(trace.initial_code, x_final, config.region, after_grid=grid)

    paths = {name: outdir / fname for name, fname in _OUTPUT_NAMES.items()}
    if verbose:
        paths["trace_json"] = outdir / "trace.json"
    else:
        (outdir / "trace.json").unlink(missing_ok=True)  # left by an earlier verbose run
    written = []  # each path is listed before its writer runs, so a partial file is removed too
    try:
        written.append(paths["code"])
        _write_code_csv(x_final, paths["code"])
        written.append(paths["af_grid"])
        grid.to_csv(paths["af_grid"])
        written.append(paths["af_grid_db"])
        grid.to_csv(paths["af_grid_db"], db=True)
        written.append(paths["trace"])
        trace.to_csv(paths["trace"])
        written.append(paths["report"])
        _write_json(paths["report"], comparison.to_json_dict())
        if verbose:
            written.append(paths["trace_json"])
            trace.write_json(paths["trace_json"])
        manifest = {
            "config": config.to_json_dict(),
            "tool_version": __version__,
            "started": started,
            "finished": _utc_now(),
            "outputs": {name: str(path.resolve()) for name, path in paths.items()},
            "final_c": comparison.after.region_energy,
            "suppression_db": comparison.suppression_db,
            **trace.run_record(),
        }
        written.append(paths["manifest"])
        _write_json(paths["manifest"], manifest)
    except BaseException:
        for path in written:
            path.unlink(missing_ok=True)
        raise
    if verbose:
        record = ", ".join(f"{key}={value}" for key, value in trace.run_record().items())
        logger.info("finished after %d outer iterations (%s): C=%.6e, suppression %.2f dB",
                    trace.outer_iters[-1], record, trace.c_values[-1], comparison.suppression_db)
    return manifest


def main(argv=None) -> int:
    try:
        config, args = parse_config(argv)
    except ConfigError as exc:
        print(f"afshape: config error: {exc}", file=sys.stderr)
        return 2
    if args.verbose:
        logging.basicConfig(level=logging.INFO, stream=sys.stderr,
                            format="%(name)s %(message)s")
    if args.dry_run:
        print(json.dumps(config.to_json_dict(), indent=2))
        return 0
    try:
        manifest = run_and_export(config, args.out, verbose=args.verbose)
    except OSError as exc:
        print(f"afshape: cannot write outputs: {exc}", file=sys.stderr)
        return 2
    except (FloatingPointError, RuntimeError) as exc:
        print(f"afshape: numerical failure: {exc}", file=sys.stderr)
        return 3
    print(f"final region energy {manifest['final_c']:.6g}; region average suppressed by "
          f"{manifest['suppression_db']:.2f} dB; outputs in {args.out}")
    return 0
