"""Structure-aware SpMV performance simulator."""
from .instance import MatrixInstance
from .simulator import (
    BestFormatOutcome,
    FormatSkip,
    SpmvMeasurement,
    simulate_best,
    simulate_best_detailed,
    simulate_spmv,
)
from .batch import BOTTLENECKS, GridResult, GridSkip, simulate_grid
from .fused import FusedSpecSource
from .noise import noise_factors, NOISE_SIGMA
