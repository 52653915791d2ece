"""Reporting helpers: figure data series and text tables."""

from .series import cdf_at, cdf_series, histogram_series
from .tables import ascii_table, format_row

__all__ = [
    "ascii_table",
    "cdf_at",
    "cdf_series",
    "format_row",
    "histogram_series",
]
