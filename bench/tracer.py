"""Span recorder for the traced benchmark run.

The tracer wraps public ``biphoton`` functions at every module attribute
through which a caller reaches them (``from .x import f`` copies the
binding, so ``memory_interface.assemble_gated_jta`` has to be wrapped
separately from ``joint_amplitude.assemble_gated_jta``).  Nothing under
``src/`` changes.  Each call becomes one span: id, parent id, operation
id, name, start, end, a small per-name detail and the exception type if
it raised.  Spans are appended under a lock, because the sweep pool calls
from worker threads, and kept in memory until the run ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from typing import Any, Callable


def _jta_arg(args: tuple, kwargs: dict) -> Any:
    return args[0] if args else kwargs["jta"]


def _cells(result: Any) -> int:
    rows, cols = result.values.shape
    return int(rows * cols)


# Span name -> (attribute, modules that bind it, detail extractor).  The
# extractor sees (args, kwargs, result) and returns a JSON-friendly value.
TARGETS: dict[str, tuple[str, tuple[str, ...], Callable | None]] = {
    "memory_interface.sweep_design_space": (
        "sweep_design_space",
        ("biphoton.memory_interface", "biphoton.cli", "biphoton"),
        lambda a, k, r: len(r.failures),
    ),
    "memory_interface.read_in_efficiency": (
        "read_in_efficiency",
        ("biphoton.memory_interface", "biphoton"),
        None,
    ),
    "memory_interface.evaluate_design": (
        "evaluate_design",
        ("biphoton.memory_interface", "biphoton.cli", "biphoton"),
        None,
    ),
    "memory_interface.write_efficiency_map_csv": (
        "write_efficiency_map_csv",
        ("biphoton.memory_interface", "biphoton.cli"),
        None,
    ),
    "joint_amplitude.assemble_gated_jta": (
        "assemble_gated_jta",
        ("biphoton.joint_amplitude", "biphoton.memory_interface", "biphoton"),
        lambda a, k, r: _cells(r),
    ),
    "joint_amplitude.to_frequency_domain": (
        "to_frequency_domain",
        ("biphoton.joint_amplitude", "biphoton"),
        None,
    ),
    "joint_amplitude.marginal_signal_spectrum": (
        "marginal_signal_spectrum",
        ("biphoton.joint_amplitude", "biphoton.cli", "biphoton"),
        None,
    ),
    "schmidt.schmidt_decompose": (
        "schmidt_decompose",
        ("biphoton.schmidt", "biphoton.memory_interface", "biphoton"),
        lambda a, k, r: int(max(_jta_arg(a, k).values.shape)),
    ),
    "counting.read_counts_csv": (
        "read_counts_csv",
        ("biphoton.counting", "biphoton.cli", "biphoton"),
        lambda a, k, r: [len(r[0]), len(r[1])],
    ),
    "counting.subtract_accidentals": (
        "subtract_accidentals",
        ("biphoton.counting", "biphoton.cli", "biphoton"),
        None,
    ),
    "counting.heralding_efficiency": (
        "heralding_efficiency",
        ("biphoton.counting", "biphoton.cli", "biphoton"),
        None,
    ),
    "counting.heralded_g2": (
        "heralded_g2",
        ("biphoton.counting", "biphoton.cli", "biphoton"),
        None,
    ),
    "counting.linear_rate_fit": (
        "linear_rate_fit",
        ("biphoton.counting", "biphoton.cli", "biphoton"),
        None,
    ),
    "counting.fit_hsp_bandwidth": (
        "fit_hsp_bandwidth",
        ("biphoton.counting", "biphoton.cli", "biphoton"),
        None,
    ),
    "formatting.json_sanitize": (
        "json_sanitize",
        ("biphoton.formatting", "biphoton.cli"),
        None,
    ),
}

REDUCE_SPANS = (
    "counting.subtract_accidentals",
    "counting.heralding_efficiency",
    "counting.heralded_g2",
)

# Span tuple layout.
SPAN_ID, PARENT, OP, NAME, START, END, DETAIL, ERROR = range(8)


class Tracer:
    """Installs span-recording wrappers and collects the spans."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.op_id = 0
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, func: Callable, detail: Callable | None) -> Callable:
        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                # A pool thread with nothing open of its own: the span that
                # is open on the main thread (the sweep) caused it.
                main = self._main_stack
                parent = main[-1] if main and stack is not main else 0
            span_id = next(self._ids)
            op_id = self.op_id
            stack.append(span_id)
            error = None
            result = None
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                info = detail(args, kwargs, result) if detail and error is None else None
                with self._lock:
                    self.spans.append((span_id, parent, op_id, name, start, end, info, error))

        return traced

    def install(self) -> None:
        """Wrap every target in every already imported module that binds it.

        A process that has not imported the package (the cli_session client)
        patches nothing.
        """
        if self._patched:
            return
        for name, (attr, modules, detail) in TARGETS.items():
            home = sys.modules.get(modules[0])
            if home is None:
                continue
            original = getattr(home, attr)
            wrapper = self.wrap(name, original, detail)
            for module_name in modules:
                module = sys.modules.get(module_name)
                if module is not None and getattr(module, attr, None) is original:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.spans, handle)


def load_spans(paths: list[str]) -> list[tuple]:
    """Spans written by `Tracer.dump` in other processes, with fresh ids."""
    spans = []
    ids = itertools.count(1)
    for path in paths:
        with open(path) as handle:
            raw = json.load(handle)
        remap = {0: 0}
        for span in raw:
            remap[span[SPAN_ID]] = next(ids)
        for span in raw:
            span = list(span)
            span[SPAN_ID] = remap[span[SPAN_ID]]
            span[PARENT] = remap.get(span[PARENT], 0)
            spans.append(tuple(span))
    return spans


def _covered(intervals: list[tuple[float, float]], low: float, high: float) -> float:
    """Length of the union of ``intervals`` clipped to [low, high]."""
    total = 0.0
    cursor = low
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, high)
        if end > start:
            total += end - start
            cursor = end
    return total


def layer_metrics(spans: list[tuple]) -> dict[str, tuple[float, str]]:
    """Per-layer totals, self times and counts from a list of spans.

    A wrapped function that was never called reports zero calls and zero
    time.  Self time is a span's duration minus the part of it covered by
    its child spans.
    """
    by_name: dict[str, list[tuple]] = {name: [] for name in TARGETS}
    children: dict[int, list[tuple[float, float]]] = {}
    names = {}
    for span in spans:
        by_name.setdefault(span[NAME], []).append(span)
        children.setdefault(span[PARENT], []).append((span[START], span[END]))
        names[span[SPAN_ID]] = span[NAME]

    def total(name: str) -> float:
        return sum(s[END] - s[START] for s in by_name[name])

    def self_total(name: str) -> float:
        return sum(
            (s[END] - s[START]) - _covered(children.get(s[SPAN_ID], []), s[START], s[END])
            for s in by_name[name]
        )

    def outermost(group: tuple[str, ...]) -> list[tuple]:
        return [
            s for name in group for s in by_name[name] if names.get(s[PARENT]) not in group
        ]

    evaluate = "memory_interface.evaluate_design"
    sweep = "memory_interface.sweep_design_space"
    assemble = by_name["joint_amplitude.assemble_gated_jta"]
    decompose = by_name["schmidt.schmidt_decompose"]
    reads = [s for s in by_name["counting.read_counts_csv"] if s[DETAIL] is not None]
    fits = by_name["counting.fit_hsp_bandwidth"]
    reduce_spans = outermost(REDUCE_SPANS)
    sanitize = outermost(("formatting.json_sanitize",))
    return {
        "memory_interface.evaluate_calls": (len(by_name[evaluate]), "count"),
        "memory_interface.evaluate_s": (total(evaluate), "s"),
        "memory_interface.evaluate_self_s": (self_total(evaluate), "s"),
        "memory_interface.sweep_s": (total(sweep), "s"),
        "memory_interface.sweep_self_s": (self_total(sweep), "s"),
        "memory_interface.failed_cells": (
            sum(s[DETAIL] for s in by_name[sweep] if s[DETAIL] is not None),
            "count",
        ),
        "memory_interface.csv_write_s": (total("memory_interface.write_efficiency_map_csv"), "s"),
        "joint_amplitude.assemble_calls": (len(assemble), "count"),
        "joint_amplitude.assemble_s": (total("joint_amplitude.assemble_gated_jta"), "s"),
        "joint_amplitude.lattice_mb": (
            sum(s[DETAIL] for s in assemble if s[DETAIL] is not None) * 8 / 1e6,
            "MB",
        ),
        "joint_amplitude.fft_s": (total("joint_amplitude.to_frequency_domain"), "s"),
        "joint_amplitude.spectrum_calls": (
            len(by_name["joint_amplitude.marginal_signal_spectrum"]),
            "count",
        ),
        "joint_amplitude.spectrum_s": (total("joint_amplitude.marginal_signal_spectrum"), "s"),
        "schmidt.decompose_calls": (len(decompose), "count"),
        "schmidt.decompose_s": (total("schmidt.schmidt_decompose"), "s"),
        "schmidt.max_n": (max((s[DETAIL] or 0 for s in decompose), default=0), "count"),
        "counting.read_s": (total("counting.read_counts_csv"), "s"),
        "counting.rows_read": (sum(s[DETAIL][0] for s in reads), "count"),
        "counting.rows_skipped": (sum(s[DETAIL][1] for s in reads), "count"),
        "counting.reduce_s": (sum(s[END] - s[START] for s in reduce_spans), "s"),
        "counting.rate_fit_s": (total("counting.linear_rate_fit"), "s"),
        "counting.fit_calls": (len(fits), "count"),
        "counting.fit_s": (total("counting.fit_hsp_bandwidth"), "s"),
        "counting.fit_failures": (sum(1 for s in fits if s[ERROR] is not None), "count"),
        "formatting.sanitize_s": (sum(s[END] - s[START] for s in sanitize), "s"),
    }
