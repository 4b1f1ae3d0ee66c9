"""Post-design evaluation of suppression quality.

All levels are in dB referenced to the mainlobe (r[0, 0] = N maps to
0 dB), so every level of a unimodular code is <= 0 dB. Region statistics
are taken over the per-(k, p) bins of the suppression region; the global
peak sidelobe scans the full lag/Doppler grid with only the mainlobe cell
excluded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .af_core import (
    DB_FLOOR,
    AFGrid,
    CodeSequence,
    RegionSpec,
    _lag_spectra,
    af_grid,
    eval_objective,
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
    region.validate_for(x.n)
    spectra = _lag_spectra(x.values, region.delays)
    levels = to_db(np.abs(spectra[:, np.mod(region.dopplers, x.n)]), float(x.n))
    return [(k, p, float(level)) for (k, p), level in zip(region.pairs(), levels.flat)]


def report(x: CodeSequence, region: RegionSpec) -> RegionReport:
    """Evaluate one code: region energy, average/peak level, global peak."""
    return _report(x, region, region_levels_db(x, region))


def _report(x: CodeSequence, region: RegionSpec, bin_levels: list,
            grid: AFGrid | None = None) -> RegionReport:
    """report() from region_levels_db(x, region) and, if at hand, af_grid(x)."""
    levels = [level for _, _, level in bin_levels]
    sidelobes = (af_grid(x) if grid is None else grid).magnitude_db.copy()
    sidelobes[x.n - 1, x.n // 2] = DB_FLOOR  # mask the mainlobe cell
    return RegionReport(
        n=x.n,
        delays=region.delays,
        dopplers=region.dopplers,
        region_energy=eval_objective(x, region),
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
    levels_before = region_levels_db(before, region)
    levels_after = region_levels_db(after, region)
    report_before = _report(before, region, levels_before)
    report_after = _report(after, region, levels_after, after_grid)
    bin_levels = [
        (k, p, level_b, level_a)
        for (k, p, level_b), (_, _, level_a) in zip(levels_before, levels_after)
    ]
    return ComparisonReport(
        before=report_before,
        after=report_after,
        suppression_db=report_before.region_avg_db - report_after.region_avg_db,
        bin_levels=bin_levels,
    )
