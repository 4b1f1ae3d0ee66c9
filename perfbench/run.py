"""Run one afshape benchmark workload and print its metrics.

    python3 perfbench/run.py --workload ref31 --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one process each

Run from the repository root. The package is imported from ./src and the
reference oracle from ./tests/oracle.py. The report goes to stdout; its
last line is one JSON object with the keys correct, attempted, failed and
metrics, holding the end-to-end metrics named in BENCHMARK.json (or, with
--trace 1, the per-layer ones). Exits 2 when the package cannot be
imported, and 1 when the oracle is missing or no design finished.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> None:
    """Run BLAS on one thread; must happen before numpy loads.

    OpenBLAS threads spin while they wait for work. When another process
    shares the cores, that spinning made set-up up to 20x slower.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def result_line(result: dict, spec: dict, trace: bool) -> str:
    rows = {row.name: row for row in result["rows"]}
    metrics = {}
    for metric in spec["per_layer" if trace else "end_to_end"]:
        row = rows[metric["name"]]
        if not row.samples:
            raise RuntimeError(f"metric {row.name} has no value: {row.note}")
        metrics[row.name] = {"value": row.value, "unit": row.unit}
    return json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def run_each(args, names) -> int:
    """Run the workloads one after another, each in its own process so that
    peak RSS stays per workload; returns the worst exit code."""
    worst = 0
    for name in names:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(command, check=False).returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    pin_blas_threads()
    sys.dont_write_bytecode = True  # leave the checkout's source directories as they are
    sys.path.insert(0, str(ROOT / "src"))
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        import harness
    except (ImportError, OSError) as exc:
        print(f"perfbench: cannot load the program under test: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_each(args, harness.WORKLOADS)
    if args.workload not in harness.WORKLOADS:
        parser.error(f"--workload must be 'all' or one of {', '.join(harness.WORKLOADS)}")

    result = harness.run_benchmark(harness.WORKLOADS[args.workload], args.seed,
                                   args.seconds, bool(args.trace))
    if result is None:
        print("perfbench: no design finished", file=sys.stderr)
        return 1
    print(result_line(result, spec, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
