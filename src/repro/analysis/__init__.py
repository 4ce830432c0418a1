"""Analysis helpers: regression, simulation-output statistics, reporting."""

from .regression import LinearFit, fit_line, r_squared, residuals
from .report import format_kv, format_series, format_table
from .stats import (
    BatchMeansResult,
    batch_means,
    exponential_ks_test,
    poisson_dispersion,
)

__all__ = [
    "LinearFit",
    "fit_line",
    "r_squared",
    "residuals",
    "format_table",
    "format_series",
    "format_kv",
    "batch_means",
    "BatchMeansResult",
    "exponential_ks_test",
    "poisson_dispersion",
]
