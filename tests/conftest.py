"""Shared pytest plumbing for the test suite.

The acceptance tests append one PASS/FAIL line per criterion to
``ACCEPTANCE_LINES``; the hook below replays them in a dedicated section
of the terminal summary so the verdicts are visible without ``-s``.
``half_maximum_width`` is the numerical width oracle that the closed-form
spectrum widths are checked against, and ``midpoint_grid`` the symmetric
lattice that the test assemblies are gated to.  Every test starts with
the one-entry memo of ``evaluate_design`` empty, so that no test sees
the point an earlier one evaluated and test order cannot matter.
"""

import math

import numpy as np
import pytest

from biphoton import memory_interface
from biphoton.signal_model import TimeGrid

ACCEPTANCE_LINES: list[str] = []


def record_criterion(number: int, ok: bool, detail: str) -> str:
    line = f"criterion {number} {'PASS' if ok else 'FAIL'}: {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    return line


def midpoint_grid(half_width, step):
    """Nodes (j + 1/2) step, symmetric about zero, out to ``half_width`` and at least one per side."""
    count = max(1, math.ceil(half_width / step - 0.5))
    edge = (count - 0.5) * step
    return TimeGrid(2 * count, -edge, edge)


@pytest.fixture(autouse=True)
def cold_design_memo():
    memory_interface._design_terms.cache_clear()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def half_maximum_width(x, y) -> float:
    """Full width at half maximum of a sampled curve.

    The crossings are located by linear interpolation between the
    bracketing samples on each side of the (unique, interior) peak.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError("x and y must be 1-d arrays of equal length")
    k = int(np.argmax(y))
    peak = y[k]
    if peak <= 0:
        raise ValueError("curve has no positive peak")
    half = 0.5 * peak

    below_left = np.nonzero(y[: k + 1] < half)[0]
    below_right = np.nonzero(y[k:] < half)[0]
    if below_left.size == 0 or below_right.size == 0:
        raise ValueError("half maximum is not bracketed on both sides of the peak")

    i = below_left[-1]
    x_left = x[i] + (half - y[i]) * (x[i + 1] - x[i]) / (y[i + 1] - y[i])
    j = k + below_right[0]
    x_right = x[j - 1] + (half - y[j - 1]) * (x[j] - x[j - 1]) / (y[j] - y[j - 1])
    return float(x_right - x_left)
