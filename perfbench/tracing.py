"""Spans around qminlab's public functions, recorded from outside the package.

The tracer replaces each traced function at every module attribute that holds
it (``qminlab.search.eig_sym`` and ``qminlab.spectra.eig_sym`` are the same
function reached two ways), so calls are caught whichever alias the caller
uses.  Spans are kept in memory as ``[name, start, end, parent, count]`` and
reduced to per-layer metrics by :func:`summarize`.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import time


def _count_matrices(args, result):
    return len(args[0])


def _count_graphs(args, result):
    return result.graphs_examined


# (module, function, span name, count taken from the call or None)
TRACED = (
    ("spectra", "qmin_stack", "spectra.qmin_stack", _count_matrices),
    ("spectra", "eig_sym", "spectra.eig_sym", None),
    ("spectra", "q_min_of", "spectra.q_min_of", None),
    ("search", "find_extremal", "search.find_extremal", _count_graphs),
    ("search", "interlacing_check", "search.interlacing_check", None),
    ("search", "majorization_scan", "search.majorization_scan", None),
    ("graphs", "is_isomorphic", "graphs.is_isomorphic", None),
    ("graphs", "structure_report", "graphs.structure_report", None),
    ("charpoly", "charpoly_oracle", "charpoly.charpoly_oracle", None),
    ("patterns", "check_U_pattern", "patterns.check_U_pattern", None),
    ("families", "build_U_std", "families.build", None),
    ("families", "build_K", "families.build", None),
    ("graph6", "decode_graph6", "graph6.decode_graph6", None),
)

# Span names; each gets its calls and busy seconds reported.
LAYERS = tuple(dict.fromkeys(span for _, _, span, _ in TRACED))


class Tracer:
    """Records one span per traced call while ``recording`` is true."""

    def __init__(self):
        self.spans: list[list] = []
        self.recording = False
        self._open: list[int] = []

    def install(self, package) -> None:
        """Wrap every function in TRACED at each qminlab attribute holding it."""
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        for module_name, attr, span, count in TRACED:
            original = getattr(getattr(package, module_name), attr)
            wrapper = self._wrap(original, span, count)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)

    def _wrap(self, fn, span_name, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            parent = self._open[-1] if self._open else -1
            span = [span_name, 0.0, 0.0, parent, 0]
            self._open.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            if count is not None:
                span[4] = count(args, result)
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def summarize(spans) -> dict[str, float]:
    """Per-layer metrics from a span list.

    A span's self time is its duration minus the durations of its direct
    children; spans nest strictly because the workload is single-threaded.
    """
    child_s = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = 0
        out[f"{layer}.s"] = 0.0
    for name, start, end, _, _ in spans:
        out[f"{name}.calls"] += 1
        out[f"{name}.s"] += end - start

    swept = set()  # find_extremal spans that ran at least one eigensolve
    for name, _, _, parent, _ in spans:
        if name == "spectra.qmin_stack":
            while parent >= 0 and spans[parent][0] != "search.find_extremal":
                parent = spans[parent][3]
            if parent >= 0:
                swept.add(parent)
    self_s = graphs = hits = 0
    for at, (name, start, end, _, count) in enumerate(spans):
        if name != "search.find_extremal":
            continue
        self_s += end - start - child_s[at]
        if at in swept:
            graphs += count
        else:
            hits += 1
    matrices = sum(s[4] for s in spans if s[0] == "spectra.qmin_stack")
    qmin_s = out["spectra.qmin_stack.s"]
    out["spectra.qmin_stack.matrices"] = matrices
    out["spectra.qmin_stack.matrices_per_s"] = matrices / qmin_s if qmin_s else 0.0
    out["search.self_s"] = self_s
    out["search.graphs_examined"] = graphs
    out["search.graphs_per_self_s"] = graphs / self_s if self_s else 0.0
    out["search.cache_hits"] = hits
    return out
