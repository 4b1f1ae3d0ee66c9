"""Slow-time radar code design by ambiguity-function shaping.

Given a code length N and a delay/Doppler region to keep quiet, the
package designs unimodular (constant-modulus) code sequences whose
discrete ambiguity function carries as little energy as possible over
that region, and reports the achieved suppression.
"""

__version__ = "0.1.0"

from .af_core import (
    DB_FLOOR,
    AFGrid,
    AFKernel,
    CodeSequence,
    RegionSpec,
    af_grid,
    build_doppler_diag,
    build_kernel,
    build_shift,
    doppler_phase_vector,
    eval_af,
    eval_objective,
    to_db,
)
from .metrics import ComparisonReport, RegionReport, compare, region_levels_db, report
from .reformulation import (
    LoadedPair,
    LoadedRegion,
    LoadingError,
    SplitPair,
    build_loaded_region,
    load_and_root,
    split_kernel,
)
from .solver import (
    ConvergenceTrace,
    SolverConfig,
    SolverState,
    build_uqp,
    init_random_code,
    m2_objective,
    mm_step,
    pmli_inner,
    run,
    update_aux,
)

__all__ = [
    "__version__",
    "DB_FLOOR",
    "AFGrid",
    "AFKernel",
    "CodeSequence",
    "ComparisonReport",
    "ConvergenceTrace",
    "LoadedPair",
    "LoadedRegion",
    "LoadingError",
    "RegionReport",
    "RegionSpec",
    "SolverConfig",
    "SolverState",
    "SplitPair",
    "af_grid",
    "build_doppler_diag",
    "build_kernel",
    "build_loaded_region",
    "build_shift",
    "build_uqp",
    "compare",
    "doppler_phase_vector",
    "eval_af",
    "eval_objective",
    "init_random_code",
    "load_and_root",
    "m2_objective",
    "mm_step",
    "pmli_inner",
    "region_levels_db",
    "report",
    "run",
    "split_kernel",
    "to_db",
    "update_aux",
]
