"""Post-design evaluation of suppression quality.

All levels are in dB referenced to the mainlobe (r[0, 0] = N maps to
0 dB), so every level of a unimodular code is <= 0 dB. Region statistics
are taken over the per-(k, p) bins of the suppression region; the global
peak sidelobe scans the full lag/Doppler grid with only the mainlobe cell
excluded. A report transforms each code's region once, for its levels and
its energy alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .af_core import (
    DB_FLOOR,
    AFGrid,
    CodeSequence,
    RegionSpec,
    _region_cells,
    af_grid,
    to_db,
)


@dataclass
class RegionReport:
    """Suppression figures of one code over one region."""

    n: int
    delays: tuple
    dopplers: tuple
    region_energy: float
    region_avg_db: float
    region_peak_db: float
    global_peak_sidelobe_db: float

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "region": {"k": list(self.delays), "p": list(self.dopplers)},
            "region_energy": self.region_energy,
            "region_avg_db": self.region_avg_db,
            "region_peak_db": self.region_peak_db,
            "global_peak_sidelobe_db": self.global_peak_sidelobe_db,
        }


@dataclass
class ComparisonReport:
    """Before/after suppression summary for a fixed region.

    suppression_db is the drop in the region's average level, so positive
    values mean the 'after' code is better. bin_levels carries the
    per-(k, p) levels as (k, p, before_db, after_db) rows.
    """

    before: RegionReport
    after: RegionReport
    suppression_db: float
    bin_levels: list

    def to_json_dict(self) -> dict:
        return {
            "before": self.before.to_json_dict(),
            "after": self.after.to_json_dict(),
            "suppression_db": self.suppression_db,
            "bin_levels": [
                {"k": k, "p": p, "before_db": b, "after_db": a}
                for k, p, b, a in self.bin_levels
            ],
        }


def region_levels_db(x: CodeSequence, region: RegionSpec) -> list:
    """Per-(k, p) levels 20*log10(|r|/N), in region.pairs() order."""
    levels = to_db(np.abs(_region_cells(x, region)), float(x.n))
    return [(k, p, float(level)) for (k, p), level in zip(region.pairs(), levels.flat)]


def report(x: CodeSequence, region: RegionSpec) -> RegionReport:
    """Evaluate one code: region energy, average/peak level, global peak."""
    return _levels_and_report(x, region, None)[1]


def _levels_and_report(x: CodeSequence, region: RegionSpec,
                       grid: AFGrid | None) -> tuple[np.ndarray, RegionReport]:
    """region_levels_db's flat dB levels and report(x, region); grid is af_grid(x) if at hand."""
    cells = _region_cells(x, region)
    levels = to_db(np.abs(cells), float(x.n)).ravel()
    sidelobes = (af_grid(x) if grid is None else grid).magnitude_db.copy()
    sidelobes[0, x.n // 2] = DB_FLOOR  # mask the mainlobe cell (lag 0, bin 0)
    return levels, RegionReport(
        n=x.n,
        delays=region.delays,
        dopplers=region.dopplers,
        region_energy=float(np.sum(cells.real ** 2 + cells.imag ** 2)),  # eval_objective's bits
        region_avg_db=float(np.mean(levels)),
        region_peak_db=float(np.max(levels)),
        global_peak_sidelobe_db=float(sidelobes.max()),
    )


def compare(before: CodeSequence, after: CodeSequence, region: RegionSpec,
            after_grid: AFGrid | None = None) -> ComparisonReport:
    """Compare two codes of the same length over one region.

    Pass after_grid when af_grid(after) is already at hand.
    """
    if before.n != after.n:
        raise ValueError(f"code lengths differ: {before.n} vs {after.n}")
    levels_before, report_before = _levels_and_report(before, region, None)
    levels_after, report_after = _levels_and_report(after, region, after_grid)
    bin_levels = [
        (k, p, float(level_b), float(level_a))
        for (k, p), level_b, level_a in zip(region.pairs(), levels_before, levels_after)
    ]
    return ComparisonReport(
        before=report_before,
        after=report_after,
        suppression_db=report_before.region_avg_db - report_after.region_avg_db,
        bin_levels=bin_levels,
    )
