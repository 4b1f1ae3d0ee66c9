"""Output checks run on every benchmark design; any failure fails the design.

The region energy is recomputed from the exported code with the literal
scalar sum in the repository's test oracle (tests/oracle.py), loaded by
file path so nothing in the package can share a fault with it.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
from pathlib import Path

import numpy as np

# |x_n| of the exported 17-digit entries (acceptance criterion 9).
UNIT_TOL = 1e-12
# oracle C vs the last trace.csv row, relative to max(1, C): both sum the
# same |r|^2 terms in a different order from 17-digit phases.
C_RTOL = 1e-9
# step-to-step rise allowed in the M2 column, relative (criterion 5).
M2_RTOL = 1e-9


def load_oracle(root: Path):
    path = root / "tests" / "oracle.py"
    spec = importlib.util.spec_from_file_location("afshape_test_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def read_code(path: Path) -> np.ndarray:
    rows = Path(path).read_text().strip().splitlines()[1:]
    return np.array([complex(float(re), float(im))
                     for _, _, re, im in (row.split(",") for row in rows)])


def read_trace(path: Path) -> tuple:
    """(C column, M2 column) of trace.csv."""
    rows = Path(path).read_text().strip().splitlines()[1:]
    c_values, m2_values = [], []
    for row in rows:
        _, c, m2 = row.split(",")
        c_values.append(float(c))
        m2_values.append(float(m2))
    return c_values, m2_values


def output_digest(outdir: Path) -> str:
    """Hash of the two byte-stable outputs, code.csv and trace.csv."""
    h = hashlib.sha256()
    for name in ("code.csv", "trace.csv"):
        h.update((Path(outdir) / name).read_bytes())
    return h.hexdigest()


def check_design(outdir: Path, config, oracle, min_suppression_db=None,
                 verbose: bool = False) -> list:
    """Every failed check of one design's outputs, as messages (empty when correct)."""
    outdir = Path(outdir)
    failures = []
    values = read_code(outdir / "code.csv")
    if values.size != config.n:
        return [f"code.csv has {values.size} entries, expected {config.n}"]
    worst = float(np.max(np.abs(np.abs(values) - 1.0)))
    if worst > UNIT_TOL:
        failures.append(f"code.csv entry off the unit circle by {worst:.3e}")

    c_values, m2_values = read_trace(outdir / "trace.csv")
    c_oracle = sum(abs(oracle.af_sum_reference(values, k, p)) ** 2
                   for k, p in config.region.pairs())
    if not abs(c_oracle - c_values[-1]) <= C_RTOL * max(1.0, abs(c_values[-1])):
        failures.append(f"oracle C {c_oracle!r} != trace.csv final C {c_values[-1]!r}")
    m2 = np.asarray(m2_values)
    rises = np.diff(m2) > M2_RTOL * np.abs(m2[:-1])
    if np.any(rises):
        failures.append(f"M2 rises at outer iteration {int(np.argmax(rises)) + 1}")

    suppression = json.loads((outdir / "report.json").read_text())["suppression_db"]
    if min_suppression_db is not None and not suppression >= min_suppression_db:
        failures.append(f"suppression {suppression:.2f} dB below {min_suppression_db} dB")

    if verbose:
        inner = json.loads((outdir / "trace.json").read_text())["inner_objectives"]
        if len(inner) != len(c_values) - 1:
            failures.append(f"trace.json has {len(inner)} inner blocks for "
                            f"{len(c_values) - 1} outer iterations")
    return failures
