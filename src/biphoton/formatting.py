"""Deterministic number formatting for CSV and JSON artifacts.

All floating point values written by the toolkit are rounded to nine
significant digits.  This keeps repeated runs byte-identical across
platforms while staying well below the numerical tolerances of any
quantity the toolkit reports.  Every CSV artifact is written by
`write_csv`, with LF line endings.
"""

from __future__ import annotations

import math
from typing import Any, Iterable

import numpy as np

SIGNIFICANT_DIGITS = 9


def fmt(value: float) -> str:
    """Render a float with nine significant digits (CSV cell format)."""
    return f"{float(value):.{SIGNIFICANT_DIGITS}g}"


def write_csv(path: str, header: Iterable[str], rows: Iterable[Iterable[float]]) -> None:
    """Write a CSV file: the header, then one line of `fmt` cells per row, LF line endings."""
    with open(path, "w", newline="") as handle:
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(",".join(map(fmt, row)) + "\n")


def sig9(value: float) -> float:
    """Round to nine significant digits."""
    value = float(value)
    if not math.isfinite(value):
        return value
    return float(fmt(value))


def json_sanitize(obj: Any) -> Any:
    """Recursively convert to JSON-friendly types with rounded floats.

    numpy scalars and arrays become plain Python values, floats are
    rounded to nine significant digits and non-finite values map to
    ``None`` so the output stays strict JSON.
    """
    if isinstance(obj, dict):
        return {str(key): json_sanitize(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_sanitize(val) for val in obj]
    if isinstance(obj, np.ndarray):
        return [json_sanitize(val) for val in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        return sig9(value) if math.isfinite(value) else None
    return obj
