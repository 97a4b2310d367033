"""Outside-in tracing of oemsim's layers.

The tracer wraps module attributes of the installed program (the public
functions that one layer calls in the next) so that every call records a span:
name, start, end, its own id and the id of the span that caused it. Spans are
kept in memory and reduced to per-layer totals and self times when a pass
ends. NumPy's eigen routines are wrapped as counters only, without spans.

Nothing inside the program is edited: the wrappers replace module attributes
for the duration of a traced pass and are removed afterwards.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict

#: (module, attribute, span name). Calls inside oemsim look these attributes
#: up at call time, so replacing them here intercepts every internal call.
SPANS = (
    ("oemsim.model", "SystemParameters.replace", "model.replace"),
    ("oemsim.model", "solve_steady_state", "model.solve_steady_state"),
    ("oemsim.dynamics", "build_drift", "dynamics.build_drift"),
    ("oemsim.dynamics", "build_diffusion", "dynamics.build_diffusion"),
    ("oemsim.dynamics", "is_stable", "dynamics.is_stable"),
    ("oemsim.verify", "is_stable", "dynamics.is_stable"),
    ("oemsim.dynamics", "solve_lyapunov", "dynamics.solve_lyapunov"),
    ("scipy.linalg", "solve_continuous_lyapunov", "dynamics.bartels_stewart"),
    ("oemsim.gaussian", "extract_bipartite", "gaussian.extract_bipartite"),
    ("oemsim.gaussian", "log_negativity", "gaussian.log_negativity"),
    ("oemsim.sweep", "evaluate_point", "sweep.evaluate_point"),
    ("oemsim.sweep", "run_sweep", "sweep.run_sweep"),
    ("oemsim.sweep", "write_csv", "sweep.write_csv"),
    ("oemsim.cli", "main", "cli.main"),
    ("oemsim.verify", "integrate_covariance", "verify.integrate_covariance"),
    ("oemsim.verify", "lyapunov_bruteforce", "verify.lyapunov_bruteforce"),
)

#: NumPy eigen routines counted under one counter
EIGEN_ROUTINES = ("eig", "eigvals", "eigh", "eigvalsh")
EIGEN_COUNTER = "numpy.eig"


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Install with `install()`, run traced code, `uninstall()`, then `reduce()`.

    Span ids come from one `itertools.count`, whose `next` is atomic under the
    interpreter lock, so pool threads need no extra lock for them.

    Spans from worker threads whose own stack is empty take the innermost
    open span of the main thread as their parent: that is the call that
    submitted them to the pool.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main_thread = threading.main_thread()
        self._ids = itertools.count(1)
        self._count_lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self.spans: list[tuple[str, int, int, int, int]] = []
        self.counts: dict[str, int] = defaultdict(int)

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module_name, path, name in SPANS:
            owner, attr = _resolve(module_name, path)
            self._patch(owner, attr, self._span_wrapper(_raw(owner, attr), name))
        linalg = importlib.import_module("numpy.linalg")
        for attr in EIGEN_ROUTINES:
            self._patch(linalg, attr,
                        self._count_wrapper(getattr(linalg, attr), EIGEN_COUNTER))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, _raw(owner, attr)))
        setattr(owner, attr, replacement)

    # -- wrappers ---------------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span_wrapper(self, fn, name: str):
        spans = self.spans
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                main = self._main_stack
                parent = main[-1] if main else 0
            span_id = next(self._ids)
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((name, start, end, span_id, parent))

        return traced

    def _count_wrapper(self, fn, name: str):
        counts = self.counts
        lock = self._count_lock

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            with lock:
                counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- reduction --------------------------------------------------------

    def reduce(self) -> tuple[dict[str, dict[str, float]], dict[str, int]]:
        """Per span name calls, total ms and self ms, and the counters.

        Clears both, so that each pass is reduced on its own.

        Self time is a span's duration minus the part of its interval that
        its child spans cover (children in pool threads may overlap).
        """
        children: dict[int, list[tuple[int, int]]] = defaultdict(list)
        for _, start, end, _, parent in self.spans:
            if parent:
                children[parent].append((start, end))
        out: dict[str, dict[str, float]] = {}
        for name, start, end, span_id, _ in self.spans:
            covered = _covered(children.get(span_id, ()), start, end)
            entry = out.setdefault(name, {"calls": 0, "total_ms": 0.0,
                                          "self_ms": 0.0})
            entry["calls"] += 1
            entry["total_ms"] += (end - start) / 1e6
            entry["self_ms"] += (end - start - covered) / 1e6
        counts = dict(self.counts)
        self.spans.clear()
        self.counts.clear()
        return out, counts


def _raw(owner, attr: str):
    """The attribute itself; for a class, the plain function, not a bound one."""
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def _covered(intervals, start: int, end: int) -> int:
    """Length of the union of `intervals` clipped to [start, end]."""
    total = 0
    cursor = start
    for lo, hi in sorted(intervals):
        lo = max(lo, cursor)
        hi = min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total
