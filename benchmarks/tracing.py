"""Per-layer tracing from outside the package.

Each traced function is replaced, for the traced passes only, by a wrapper
installed under the name its caller looks up (``programs.h_eq``,
``evaluator.worst_case_penalty_batch``, ``numpy.linalg.eigh`` ...).  A
wrapper records a span; a span's self time is its duration minus the part
of it that its child spans cover, and each span counts the calls made
beneath it, so that ratios such as eigensolves per oracle call are measured
where the work happens.  Spans opened in a worker thread with no open span
of their own are children of the innermost open span of the main thread
(the Monte-Carlo evaluator fans out to a thread pool).

A wrapped name that no longer exists is recorded as absent instead of
failing, so that a later refactor degrades the trace rather than breaking it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import threading
import time

import numpy as np

# (module, attribute, span name): each function is wrapped under the
# attribute its callers look up at call time
WRAPPED = (
    ("numpy.linalg", "eigh", "lapack.eigh"),
    ("numpy.linalg", "eigvalsh", "lapack.eigvalsh"),
    ("scipy.linalg", "eigvals", "lapack.pencil_eigvals"),
    ("lqpersuasion.programs", "h_eq", "programs.h_eq"),
    ("lqpersuasion.programs", "_minimize_penalized", "programs._minimize_penalized"),
    ("lqpersuasion.programs", "solve_penalized", "programs.solve_penalized"),
    ("lqpersuasion.programs", "solve_pp", "programs.solve_pp"),
    ("lqpersuasion.programs", "solve_pop", "programs.solve_pop"),
    ("lqpersuasion.programs", "solve_spop", "programs.solve_spop"),
    ("lqpersuasion.programs", "extract_projection", "programs.extract_projection"),
    ("lqpersuasion.programs", "sweep", "programs.sweep"),
    ("lqpersuasion.evaluator", "worst_case_penalty_batch", "evaluator.worst_case_penalty_batch"),
    ("lqpersuasion.evaluator", "prior_samples", "evaluator.prior_samples"),
    ("lqpersuasion.evaluator", "mc_true_cost", "evaluator.mc_true_cost"),
    ("lqpersuasion.evaluator", "radius_threshold_cost", "evaluator.radius_threshold_cost"),
    ("lqpersuasion.instance", "derive_coefficients", "instance.derive_coefficients"),
    ("lqpersuasion.cli", "main", "cli.main"),
)

SEARCH = ("programs._minimize_penalized", "programs.solve_penalized",
          "programs.solve_pp", "programs.solve_pop", "programs.solve_spop")
EIGH, EIGVALSH, PENCIL = "lapack.eigh", "lapack.eigvalsh", "lapack.pencil_eigvals"

# spans that must record calls on each workload (the layers the workload
# exists to exercise); a zero there means the trace no longer sees the layer
BUSY = {
    "solve-ladder": (EIGH, "programs.h_eq", "programs._minimize_penalized",
                     "programs.extract_projection", "instance.derive_coefficients",
                     "cli.main"),
    "sweep-bench3": (EIGH, "programs.h_eq", "programs._minimize_penalized",
                     "programs.extract_projection", "programs.sweep", "cli.main"),
    "mc-eval": ("evaluator.worst_case_penalty_batch", "evaluator.prior_samples",
                "evaluator.mc_true_cost", "evaluator.radius_threshold_cost", "cli.main"),
}

# per-layer metrics that are work counts or certificate ratios: identical
# across passes and runs of the same seed
DETERMINISTIC = (
    "lapack.eigh.calls", "lapack.eigvalsh.calls", "lapack.pencil_eigvals.calls",
    "h_eq.calls", "h_eq.eigensolves_per_call", "h_eq.pencil_per_call", "h_eq.worst_gap_ratio",
    "search.solves", "search.oracle_calls_per_solve", "search.rho_ratio_max",
    "extract_projection.calls", "sweep.points", "wcpb.calls", "wcpb.rows",
    "radius_threshold_cost.calls", "derive_coefficients.calls", "cli.output_bytes",
)


class _Span:
    __slots__ = ("t0", "children", "counts")

    def __init__(self, t0: float):
        self.t0 = t0
        self.children: list[tuple[float, float]] = []
        self.counts: dict[str, int] = {}


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals (children in threads may overlap)."""
    total, end = 0.0, -math.inf
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


class Tracer:
    """Span recorder; wrappers pass straight through while ``on`` is false."""

    def __init__(self):
        self.on = False
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[_Span] = []
        self._restore: list[tuple[object, str, object]] = []
        self.absent: list[str] = []
        self.reset()

    def reset(self) -> None:
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.beneath: dict[str, dict[str, int]] = {}  # name -> calls made under it
        self.gap_notes: list[tuple] = []
        self.rho_notes: list[tuple] = []
        self.rows = 0
        self.points = 0
        self.unobserved: set[str] = set()

    def _stack(self) -> list[_Span]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn, observe):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = tracer._main_stack[-1] if tracer._main_stack else None
            span = _Span(time.perf_counter())
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                self_s = (t1 - span.t0) - _covered(span.children)
                with tracer._lock:
                    tracer.calls[name] = tracer.calls.get(name, 0) + 1
                    tracer.self_s[name] = tracer.self_s.get(name, 0.0) + self_s
                    below = tracer.beneath.setdefault(name, {})
                    for k, v in span.counts.items():
                        below[k] = below.get(k, 0) + v
                    if parent is not None:
                        parent.children.append((span.t0, t1))
                        parent.counts[name] = parent.counts.get(name, 0) + 1
                        for k, v in span.counts.items():
                            parent.counts[k] = parent.counts.get(k, 0) + v
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every name in WRAPPED that exists; record the others as absent."""
        for modname, attr, name in WRAPPED:
            try:
                module = importlib.import_module(modname)
            except ImportError:
                module = None
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(name)
                continue
            self._restore.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn, self._observer(name, fn)))
        self._programs = importlib.import_module("lqpersuasion.programs")

    def _observer(self, name: str, fn):
        """Records what a call returned, for the certificate ratios and work
        counts; the costly part is deferred to ``metrics``."""
        try:
            sig = inspect.signature(fn)
        except (TypeError, ValueError):
            return None

        if name == "programs.h_eq":
            def observe(args, kwargs, res):
                a = sig.bind(*args, **kwargs).arguments
                self.gap_notes.append((a["D"], a["E"], a.get("tol"), res.value, res.dual_value))
        elif name in ("programs.solve_pp", "programs.solve_pop", "programs.solve_spop"):
            def observe(args, kwargs, sol):
                a = sig.bind(*args, **kwargs).arguments
                self.rho_notes.append((a["dc"], a.get("rho"), sol.rho))
        elif name == "evaluator.worst_case_penalty_batch":
            def observe(args, kwargs, res):
                with self._lock:
                    self.rows += int(np.shape(res)[0])
        elif name == "programs.sweep":
            def observe(args, kwargs, rows):
                self.points += len(rows)
        else:
            return None

        def guarded(args, kwargs, result):
            try:
                observe(args, kwargs, result)
            except (TypeError, KeyError, AttributeError, IndexError):
                self.unobserved.add(name)

        return guarded

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()

    # ----------------------------------------------------------------------
    # per-layer metrics
    # ----------------------------------------------------------------------

    def _c(self, name: str) -> int:
        return self.calls.get(name, 0)

    def _s(self, *names: str) -> float:
        return sum(self.self_s.get(n, 0.0) for n in names)

    def _under(self, name: str, *children: str) -> int:
        below = self.beneath.get(name, {})
        return sum(below.get(c, 0) for c in children)

    def _worst_gap_ratio(self) -> float:
        """max (value - dual_value)/tol over oracle calls; tol as h_eq defaults it."""
        norm_cache: dict[int, float] = {}

        def norm(a) -> float:
            key = id(a)
            if key not in norm_cache:
                s = 0.5 * (np.asarray(a, float) + np.asarray(a, float).T)
                norm_cache[key] = float(np.max(np.abs(np.linalg.eigvalsh(s)), initial=0.0))
            return norm_cache[key]

        worst = 0.0
        for d, e, tol, value, dual in self.gap_notes:
            if tol is None:
                tol = 1e-9 * (1.0 + norm(d) + norm(e))
            worst = max(worst, (value - dual) / tol)
        return worst

    def _rho_ratio_max(self) -> float:
        worst = 0.0
        for dc, rho, cert in self.rho_notes:
            if rho is None:
                rho = self._programs.default_rho(dc)
            worst = max(worst, cert / rho)
        return worst

    def metrics(self, output_bytes: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of the spans recorded since the last reset."""
        heq = "programs.h_eq"
        mp = "programs._minimize_penalized"
        n_heq, n_search = self._c(heq), self._c(mp)
        wcpb = "evaluator.worst_case_penalty_batch"
        m = {
            "lapack.eigh.calls": (self._c(EIGH), "count"),
            "lapack.eigh.self_s": (self._s(EIGH), "s"),
            "lapack.eigvalsh.calls": (self._c(EIGVALSH), "count"),
            "lapack.eigvalsh.self_s": (self._s(EIGVALSH), "s"),
            "lapack.pencil_eigvals.calls": (self._c(PENCIL), "count"),
            "lapack.pencil_eigvals.self_s": (self._s(PENCIL), "s"),
            "h_eq.calls": (n_heq, "count"),
            "h_eq.self_s": (self._s(heq), "s"),
            "h_eq.eigensolves_per_call": (
                self._under(heq, EIGH, EIGVALSH) / n_heq if n_heq else 0.0, "count"),
            "h_eq.pencil_per_call": (self._under(heq, PENCIL) / n_heq if n_heq else 0.0, "count"),
            "h_eq.worst_gap_ratio": (self._worst_gap_ratio(), "ratio"),
            "search.solves": (n_search, "count"),
            "search.oracle_calls_per_solve": (
                self._under(mp, heq) / n_search if n_search else 0.0, "count"),
            "search.self_s": (self._s(*SEARCH), "s"),
            "search.rho_ratio_max": (self._rho_ratio_max(), "ratio"),
            "extract_projection.calls": (self._c("programs.extract_projection"), "count"),
            "extract_projection.self_s": (self._s("programs.extract_projection"), "s"),
            "sweep.points": (self.points, "count"),
            "sweep.self_s": (self._s("programs.sweep"), "s"),
            "wcpb.calls": (self._c(wcpb), "count"),
            "wcpb.rows": (self.rows, "count"),
            "wcpb.self_s": (self._s(wcpb), "s"),
            "wcpb.ns_per_row": (self._s(wcpb) / self.rows * 1e9 if self.rows else 0.0, "ns"),
            "prior_samples.self_s": (self._s("evaluator.prior_samples"), "s"),
            "mc_true_cost.self_s": (self._s("evaluator.mc_true_cost"), "s"),
            "radius_threshold_cost.calls": (self._c("evaluator.radius_threshold_cost"), "count"),
            "radius_threshold_cost.self_s": (self._s("evaluator.radius_threshold_cost"), "s"),
            "derive_coefficients.calls": (self._c("instance.derive_coefficients"), "count"),
            "derive_coefficients.self_s": (self._s("instance.derive_coefficients"), "s"),
            "cli.self_s": (self._s("cli.main"), "s"),
            "cli.output_bytes": (output_bytes, "bytes"),
        }
        return m

    def missing_busy(self, workload: str) -> list[str]:
        """Busy layers of the workload that recorded no call (absent names excepted)."""
        return [n for n in BUSY[workload] if n not in self.absent and self._c(n) == 0]
