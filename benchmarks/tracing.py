"""Span tracing around the package's public functions, from outside it.

``Tracer.install`` replaces every module attribute of the package that *is*
one of the traced function objects (so the ``from .x import y`` copies in
``nested`` and ``cli`` are caught too) with a wrapper that records one span
per call: name, start, end, parent span, op id and a few counts read off the
return value.  ``Tracer.restore`` puts the originals back.  A traced name
the package no longer defines is skipped, so it reports zero calls.

The CLI solves the node pairs of a stage on a thread pool.  A span opened
on a worker thread with nothing open on that thread takes as its parent the
innermost span open on the op's own thread, which is the recursion that
started the pool.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import sys
import threading
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Optional

TRACED = (
    "parse_tree",
    "cost_matrix",
    "trajectories",
    "solve_transport_lp",
    "wasserstein_distance",
    "sinkhorn_auto",
    "sinkhorn",
    "sinkhorn_stabilized",
    "nested_exact",
    "nested_sinkhorn",
    "nested_bound_report",
    "verify_entropic_equivalence",
    "conditional_marginal_residuals",
    "martingale_check",
)

OP_SPAN = "cli.main"
_SCALING = frozenset({"sinkhorn_auto", "sinkhorn", "sinkhorn_stabilized"})
_RECURSIONS = frozenset({"nested_exact", "nested_sinkhorn"})


def _scaling_info(result: Any) -> dict:
    return {"iterations": int(result.iterations), "converged": bool(result.converged)}


def _lp_info(result: Any) -> dict:
    return {"cells": int(result.plan.matrix.size)}


def _recursion_info(result: Any) -> dict:
    return {"subproblems": sum(len(table) for table in result.stage_tables)}


_INFO: dict[str, Callable[[Any], dict]] = {
    "sinkhorn_auto": _scaling_info,
    "sinkhorn": _scaling_info,
    "sinkhorn_stabilized": _scaling_info,
    "solve_transport_lp": _lp_info,
    "nested_exact": _recursion_info,
    "nested_sinkhorn": _recursion_info,
}


def _read_info(info_of: Optional[Callable[[Any], dict]], result: Any) -> dict:
    # a result type that no longer carries the field reports no count
    if info_of is None:
        return {}
    try:
        return info_of(result)
    except (AttributeError, TypeError, ValueError):
        return {}


@dataclass
class Span:
    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float
    op: int
    info: dict

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans in memory while installed."""

    def __init__(self, package: str = "nested_sinkhorn") -> None:
        self.package = package
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._op_id = 0
        self._op_stack: list[int] = []
        self._patched: list[tuple[Any, str, Callable]] = []

    # -- span bookkeeping -----------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> tuple[int, Optional[int], list[int]]:
        stack = self._stack()
        try:
            parent: Optional[int] = (stack or self._op_stack)[-1]
        except IndexError:  # the op's own span, or a call outside any op
            parent = None
        with self._lock:
            span_id = next(self._ids)
        stack.append(span_id)
        return span_id, parent, stack

    def _close(self, span_id: int, parent: Optional[int], stack: list[int], name: str,
               start: float, end: float, info: dict) -> None:
        stack.pop()
        span = Span(span_id, parent, name, start, end, self._op_id, info)
        with self._lock:
            self.spans.append(span)

    def run_op(self, op_id: int, fn: Callable[[], Any]) -> Any:
        """Run one operation under a root span named :data:`OP_SPAN`."""
        self._op_id = op_id
        span_id, parent, stack = self._open()
        self._op_stack = stack
        start = perf_counter()
        try:
            return fn()
        finally:
            end = perf_counter()
            self._close(span_id, parent, stack, OP_SPAN, start, end, {})
            self._op_stack = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        info_of = _INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id, parent, stack = self._open()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = perf_counter()
                self._close(span_id, parent, stack, name, start, end,
                            {"error": type(exc).__name__})
                raise
            end = perf_counter()
            self._close(span_id, parent, stack, name, start, end, _read_info(info_of, result))
            return result

        return traced

    # -- installation ---------------------------------------------------------

    def _modules(self) -> list[Any]:
        prefix = self.package + "."
        return [mod for key, mod in sorted(sys.modules.items())
                if mod is not None and (key == self.package or key.startswith(prefix))]

    def install(self) -> None:
        modules = self._modules()
        for name in TRACED:
            wrappers: dict[int, Callable] = {}
            for mod in modules:
                obj = mod.__dict__.get(name)
                if not callable(obj):
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(name, obj)
                self._patched.append((mod, name, obj))
                setattr(mod, name, wrappers[id(obj)])

    def restore(self) -> None:
        for mod, name, original in reversed(self._patched):
            setattr(mod, name, original)
        self._patched.clear()


# -- per-op metrics -----------------------------------------------------------

def _covered(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = {}
    for span in spans:
        kids = [(max(s, span.start), min(e, span.end))
                for s, e in children.get(span.id, [])]
        out[span.id] = span.duration - _covered([k for k in kids if k[1] > k[0]])
    return out


def op_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one operation's spans."""
    by_id = {span.id: span for span in spans}
    own = self_times(spans)

    def named(*names: str) -> list[Span]:
        return [span for span in spans if span.name in names]

    def total(items: list[Span]) -> float:
        return sum(span.duration for span in items)

    def self_total(items: list[Span]) -> float:
        return sum(own[span.id] for span in items)

    # scaling solves entered from outside the scaling layer
    scaling = [span for span in named(*_SCALING)
               if span.parent is None or by_id[span.parent].name not in _SCALING]
    iterations = [span.info["iterations"] for span in scaling if "iterations" in span.info]
    lps = named("solve_transport_lp")
    recursions = named(*_RECURSIONS)
    cost_matrices = named("cost_matrix")
    walks = named("trajectories")
    return {
        "sinkhorn.calls": len(scaling),
        "sinkhorn.s": total(scaling),
        "sinkhorn.iterations": sum(iterations),
        "sinkhorn.iterations_p50": statistics.median(iterations) if iterations else 0,
        "sinkhorn.iterations_max": max(iterations, default=0),
        "sinkhorn.unconverged_calls": sum(
            1 for span in scaling if span.info.get("converged") is False),
        "sinkhorn.stabilized_calls": len(named("sinkhorn_stabilized")),
        "sinkhorn.underflow_retries": sum(
            1 for span in named("sinkhorn")
            if span.info.get("error") == "KernelUnderflowError"),
        "transport.lp_calls": len(lps),
        "transport.lp_s": total(lps),
        "transport.lp_s_max": max((span.duration for span in lps), default=0.0),
        "transport.lp_cells_max": max((span.info.get("cells", 0) for span in lps), default=0),
        "nested.subproblems": sum(span.info.get("subproblems", 0) for span in recursions),
        "nested.exact_s": total(named("nested_exact")),
        "nested.sinkhorn_s": total(named("nested_sinkhorn")),
        "nested.recursion_self_s": self_total(recursions),
        "nested.bound_report_self_s": self_total(named("nested_bound_report")),
        "nested.equivalence_s": self_total(named("verify_entropic_equivalence")),
        "nested.residuals_s": total(named("conditional_marginal_residuals")),
        "nested.martingale_s": total(named("martingale_check")),
        "scenario_tree.parse_s": total(named("parse_tree")),
        "scenario_tree.cost_matrix_s": total(cost_matrices),
        "scenario_tree.cost_matrix_calls": len(cost_matrices),
        "scenario_tree.trajectories_s": total(walks),
        "scenario_tree.trajectories_calls": len(walks),
        "cli.self_s": self_total(named(OP_SPAN)),
    }
