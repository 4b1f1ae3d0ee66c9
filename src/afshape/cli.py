"""Command-line front end: configure a solve, run it, export artifacts.

A run writes six files into --out, and trace.json when --verbose:

    code.csv        index, phase_rad, re, im (17 significant digits)
    af_grid.csv     |r| magnitude grid, lags -(N-1)..N-1 as rows, Doppler bins as columns;
                    by |r(-k, p)| = |r(k, -p)| row N - k is an exact copy of row k at bin -p
    af_grid_db.csv  the same grid in mainlobe-referenced dB
    trace.csv       outer_iter, C, m2_objective
    report.json     before/after region reports and the suppression figure
    manifest.json   config echo, version, timestamps, file paths, final_c,
                    suppression_db, then the run record
    trace.json      (--verbose) the full trace with timing and inner objectives,
                    then the run record

Every solve keeps its inner blocks; --verbose chooses only whether
progress is logged and trace.json is written. run_and_export returns the
manifest dict it writes. Both JSON files end with the same run record,
ConvergenceTrace.run_record: why the solve stopped, the last relative
change of C, the x-step's two per-solve constants (the loading level and
its bound on Q's top eigenvalue), the solve's total inner steps and its
time to C0/10, C0/100 and C0/1000; the verbose log prints it too. Those
milliseconds, like elapsed_ms, differ between reruns. final_c,
report.json's after energy, equals trace.csv's last C bit for bit, as its
before energy equals the first C.

Settings come from flags, from a JSON config file (--config), or both;
flags win over file values, and AFSHAPE_SEED supplies the seed when
neither does. SolverConfig.from_json_dict checks the merged settings, and
--k/--p and a file's k/p take the index-set format RegionSpec reads. Exit
codes: 0 success, 2 configuration error, 3 numerical failure, a rise of the
surrogate M2 included. A run that fails while writing removes every one of
its output files, so no manifest is left beside missing files.

Only this module writes files; the others describe their results as dicts
and arrays. JSON files stream through one writer, json.dump with indent=2
and a newline, and CSVs through another, a header and a line per row.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from datetime import datetime, timezone
from operator import itemgetter
from pathlib import Path

from . import __version__
from .af_core import AFGrid, CodeSequence, _mirror_columns, af_grid
from .metrics import compare
from .solver import CONFIG_KEYS, ConvergenceTrace, SolverConfig, run

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
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except ValueError as exc:  # a JSONDecodeError, or a UnicodeDecodeError
        raise ConfigError(f"config file {path} is not valid UTF-8 JSON: {exc}") from exc
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
                        help="log progress and write trace.json")
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
    """Stream json.dump(payload, indent=2) plus a newline into path."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _write_csv(path: Path, header: str, lines) -> None:
    """Stream header, then each of lines, into path, every one ending in a newline."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.writelines(f"{line}\n" for line in lines)


def _code_table(x: CodeSequence) -> tuple:
    """code.csv's header and lines: index, phase, re and im at 17 significant digits."""
    lines = (f"{i},{phase:.17g},{value.real:.17g},{value.imag:.17g}"
             for i, (phase, value) in enumerate(zip(x.phases, x.values)))
    return "index,phase_rad,re,im", lines


def _trace_table(trace: ConvergenceTrace) -> tuple:
    """trace.csv's header and lines; timing stays out so reruns are byte-identical."""
    lines = (f"{t},{c:.17g},{m2:.17g}"
             for t, c, m2 in zip(trace.outer_iters, trace.c_values, trace.m2_values))
    return "outer_iter,C,m2_objective", lines


def _grid_table(grid: AFGrid, db: bool) -> tuple:
    """An AF grid CSV's header and lines: the lag, then one column per Doppler bin.

    Every lag -(N-1) .. N-1 gets its line. Lag k is row k mod N, so each of
    the N rows becomes one text, its values at 17 significant digits. By the
    point symmetry |r(-k, p)| = |r(k, -p)|, af_grid makes row N - k an exact
    copy of row k at bin -p. A row past N//2 whose bytes are that copy takes
    row k's value texts in mirrored bin order (_mirror_columns: reversed for
    odd N, and for even N the first bin kept and the rest reversed). Every
    other row, those of a hand-built grid included, is formatted from its
    own values.
    """
    values = grid.magnitude_db if db else grid.magnitude
    n = grid.n
    mirror = _mirror_columns(n)
    pick = itemgetter(0, *(mirror + 1).tolist())  # the leading "" of a split text, then mirror
    texts = []
    for k, row in enumerate(values.tolist()):
        if k > n // 2 and values[k].tobytes() == values[n - k, mirror].tobytes():
            texts.append(",".join(pick(texts[n - k].split(","))))
        else:
            texts.append(",%.17g" * n % tuple(row))
    lines = (f"{lag}{texts[lag % n]}" for lag in range(1 - n, n))
    return "lag," + ",".join(str(int(b)) for b in grid.bins), lines


def _log_outer(state) -> None:
    t = state.outer_iter
    if t == 1 or t % 50 == 0:
        logger.info("outer %4d: C=%.6e  M2=%.6e", t,
                     state.trace.c_values[-1], state.trace.m2_values[-1])


def run_and_export(config: SolverConfig, outdir, verbose: bool = False) -> dict:
    """Solve, evaluate, write every run artifact into outdir; returns the manifest.

    The manifest is the dict written to manifest.json, ending with the
    trace's run record.

    A failure while writing removes every output file of the run, those an
    earlier run left in outdir included, before the exception propagates.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    started = _utc_now()
    if verbose:
        logger.info("starting solve: n=%d, region %dx%d, gamma1=%d, gamma2=%d",
                    config.n, len(config.region.delays), len(config.region.dopplers),
                    config.gamma1, config.gamma2)
    x_final, trace = run(config, on_outer=_log_outer if verbose else None)
    grid = af_grid(x_final)
    comparison = compare(trace.initial_code, x_final, config.region, after_grid=grid)

    paths = {name: outdir / fname for name, fname in _OUTPUT_NAMES.items()}
    if verbose:
        paths["trace_json"] = outdir / "trace.json"
    else:
        (outdir / "trace.json").unlink(missing_ok=True)  # left by an earlier verbose run
    try:
        _write_csv(paths["code"], *_code_table(x_final))
        _write_csv(paths["af_grid"], *_grid_table(grid, db=False))
        _write_csv(paths["af_grid_db"], *_grid_table(grid, db=True))
        _write_csv(paths["trace"], *_trace_table(trace))
        _write_json(paths["report"], comparison.to_json_dict())
        if verbose:
            _write_json(paths["trace_json"], trace.to_json_dict())
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
        _write_json(paths["manifest"], manifest)
    except BaseException:
        for path in paths.values():  # the whole output set, an earlier run's files too
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
