"""Span recording for traced benchmark passes.

A traced pass replaces chosen functions with wrappers that record one span
per call: an id, the id of the enclosing span, a layer name and start/end
times from ``time.perf_counter``.  Each function is wrapped where the calling
module binds it (``setattr`` on that module), so calls made inside the
defining module through other names are not counted twice.  Spans stay in
memory; the runner writes them out once, when the run ends.
"""

from __future__ import annotations

import functools
import itertools
import time
from collections import Counter
from typing import Callable, Dict, List, Tuple

# (module, attribute, span name): the names the package's callers bind
WRAPPED = (
    ("harness", "sample_er", "models.sample"),
    ("harness", "sample_gaussian", "models.sample"),
    ("harness", "_full_matrix", "witness.build"),
    ("decomposition", "build_matrix", "witness.build"),
    ("detect", "build_matrix", "witness.build"),
    ("detect", "check_sos_feasibility", "witness.feasibility"),
    ("harness", "psd_check", "spectral.psd"),
    ("witness", "psd_check", "spectral.psd"),
    ("decomposition", "sym_operator_norm", "spectral.norm"),
    ("decomposition", "rect_operator_norm", "spectral.norm"),
    ("decomposition", "build_component", "decomposition.component_build"),
    ("labelings", "build_component", "decomposition.component_build"),
    ("harness", "verify_expansion_H22", "decomposition.expansion"),
    ("harness", "verify_expansion_H12", "decomposition.expansion"),
    ("harness", "v_star", "labelings.enumerate"),
    ("harness", "count_contributing", "labelings.enumerate"),
    ("harness", "count_bound", "labelings.enumerate"),
    ("harness", "constrained_family_v_star", "labelings.enumerate"),
    ("harness", "test_submatrix", "detect.submatrix"),
    ("harness", "test_comb", "detect.comb"),
    ("workloads", "exact_expected_trace", "labelings.trace_oracle"),
    ("workloads", "run", "harness.run"),
    ("workloads", "emit", "harness.emit"),
)

# factories whose results are wrapped instead of the call itself
WRAPPED_OPERATORS = (
    ("decomposition", "component_operator"),
    ("decomposition", "class1_sum_operator"),
)

Span = Tuple[int, int, str, float, float]


class Tracer:
    """Collects spans and counters while its wrappers are installed."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._ids = itertools.count(1)
        self._undo: List[Tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable, on_result: Callable = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(tracer._ids)
            parent = tracer._stack[-1] if tracer._stack else 0
            tracer._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append((sid, parent, name, start, end))
            return result if on_result is None else on_result(result)

        return traced

    def _patch(self, module, attr: str, replacement) -> None:
        self._undo.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def install(self, modules: Dict[str, object]) -> None:
        """Wrap every name of WRAPPED and the potrf/matvec hooks."""
        from scipy.sparse.linalg import LinearOperator

        def count_dense(report):
            if report.method == "dense-eigendecomposition":
                self.counts["dense_eig_verdicts"] += 1
            return report

        for mod, attr, name in WRAPPED:
            module = modules[mod]
            hook = count_dense if name == "spectral.psd" else None
            self._patch(module, attr, self.wrap(name, getattr(module, attr), hook))

        def timed_operator(op):
            matvec = self.wrap("decomposition.matvec", op.matvec)
            return LinearOperator(op.shape, matvec=matvec, rmatvec=matvec, dtype=op.dtype)

        for mod, attr in WRAPPED_OPERATORS:
            module = modules[mod]
            factory = getattr(module, attr)
            self._patch(module, attr, functools.wraps(factory)(
                lambda *a, _f=factory, **k: timed_operator(_f(*a, **k))))

        spectral = modules["spectral"]
        lookup = spectral.get_lapack_funcs

        def get_lapack_funcs(names, *args, **kwargs):
            funcs = lookup(names, *args, **kwargs)
            if isinstance(names, str):
                return self.wrap(f"spectral.{names}", funcs)
            self.counts["factorization_verdicts"] += "potrf" in names
            return [self.wrap(f"spectral.{n}", f) for n, f in zip(names, funcs)]

        self._patch(spectral, "get_lapack_funcs", get_lapack_funcs)

    def uninstall(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)


def layer_totals(spans: List[Span]) -> Tuple[Dict[str, float], Dict[str, float], Counter]:
    """Inclusive time, self time and call count per span name.

    Self time is a span's duration minus the durations of its direct
    children; children never outlive their parent, so nothing is
    subtracted twice.
    """
    total: Dict[str, float] = {}
    own: Dict[str, float] = {}
    calls: Counter = Counter()
    child_time: Dict[int, float] = {}
    for sid, parent, _, start, end in spans:
        child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    for sid, _, name, start, end in spans:
        total[name] = total.get(name, 0.0) + (end - start)
        own[name] = own.get(name, 0.0) + (end - start) - child_time.get(sid, 0.0)
        calls[name] += 1
    return total, own, calls
