"""Span tracing from outside the program, and the per-layer arithmetic.

``Tracer.install()`` wraps every public function (each module's ``__all__``)
of the seven ``twolevel`` layers.  A wrapper replaces the function in its
defining module and in every ``twolevel`` module that imported the name
directly, so that calls such as ``risk.sample_population`` or
``cli.run_monte_carlo`` are seen too.  Classes stay the real classes, because
``isinstance`` checks rely on them; the one exception is a span around
``CoefficientPanel.__post_init__``, which counts the panel cells built.

A span is ``[name, layer, start, end, parent, op, work]``: ``parent`` is the
index of the enclosing span (None at an op's root), ``op`` the op index and
``work`` a count of the work the call did (cells, rows, points), if any.
Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

LAYERS = ("basis", "simulate", "estimators", "risk", "design", "dataio", "cli")
# Work counted at a span: function name -> f(args, kwargs, result) -> number.
WORK = {
    "basis.fourier_matrix": lambda a, kw, out: out.size,
    "simulate.CoefficientPanel": lambda a, kw, out: a[0].coeffs.size,
    "estimators.pooled_coefficients": lambda a, kw, out: (
        a[0].m - (_arg(a, kw, 1, "exclude_subject") is not None)),
    "risk.run_monte_carlo": lambda a, kw, out: sum(r.failures for r in out.values()),
    "design.enumerate_designs": lambda a, kw, out: len(out.points),
    "dataio.parse_table": lambda a, kw, out: sum(idx.size for idx in out.indices),
}
NAME, LAYER, START, END, PARENT, OP, WORK_DONE = range(7)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs.get(name)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op: int | None = None
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, layer: str, fn):
        spans, stack, work = self.spans, self.stack, WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, layer, time.perf_counter(), 0.0,
                    stack[-1] if stack else None, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if work is not None:
                span[WORK_DONE] = work(args, kwargs, out)
            return out

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"twolevel.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for public in module.__all__:
                fn = getattr(module, public)
                if not isinstance(fn, type) and callable(fn):
                    wrappers[id(fn)] = (fn, self.wrap(f"{layer}.{public}", layer, fn))
        importers = [m for key, m in list(sys.modules.items())
                     if key == "twolevel" or key.startswith("twolevel.")]
        for module in importers:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._patch(module, attr, wrappers[id(value)][1])
        panel = modules["simulate"].CoefficientPanel
        self._patch(panel, "__post_init__",
                    self.wrap("simulate.CoefficientPanel", "simulate", panel.__post_init__))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s[NAME], "layer": s[LAYER],
                                     "start": s[START], "end": s[END], "parent": s[PARENT],
                                     "op": s[OP], "work": s[WORK_DONE]}) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[PARENT] is not None:
            children[s[PARENT]].append((s[START], s[END]))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s[START]
        for start, end in sorted(children[i]):
            start, end = max(start, reach), min(end, s[END])
            if end > start:
                covered += end - start
                reach = end
        out.append(s[END] - s[START] - covered)
    return out


def _outermost(spans, names) -> list[int]:
    """Spans named in ``names`` with no ancestor named in ``names``."""
    picked = []
    for i, s in enumerate(spans):
        if s[NAME] not in names:
            continue
        p = s[PARENT]
        while p is not None and spans[p][NAME] not in names:
            p = spans[p][PARENT]
        if p is None:
            picked.append(i)
    return picked


def layer_metrics(spans, ops: int) -> dict[str, float]:
    """Per-op means of the per-layer figures over ``ops`` traced ops."""
    own = self_times(spans)
    out = {}
    for layer in LAYERS:
        mine = [i for i, s in enumerate(spans) if s[LAYER] == layer]
        out[f"{layer}.calls"] = len(mine) / ops
        out[f"{layer}.self_s"] = sum(own[i] for i in mine) / ops

    def work(name):
        return sum(s[WORK_DONE] for s in spans if s[NAME] == name) / ops

    def inclusive(*names):
        return sum(spans[i][END] - spans[i][START] for i in _outermost(spans, names)) / ops

    out["basis.fourier_matrix.cells"] = work("basis.fourier_matrix")
    out["simulate.panel_cells"] = work("simulate.CoefficientPanel")
    out["estimators.pooled_rows"] = work("estimators.pooled_coefficients")
    out["risk.run_monte_carlo.calls"] = sum(
        s[NAME] == "risk.run_monte_carlo" for s in spans) / ops
    out["risk.estimator_failures"] = work("risk.run_monte_carlo")
    out["design.points"] = work("design.enumerate_designs")
    out["dataio.parse_s"] = inclusive("dataio.load_table", "dataio.parse_table")
    out["dataio.split_s"] = inclusive("dataio.split")
    out["dataio.compare_self_s"] = sum(
        own[i] for i, s in enumerate(spans) if s[NAME] == "dataio.compare_estimators") / ops
    out["dataio.rows_parsed"] = work("dataio.parse_table")
    return out


def self_by_op(spans) -> dict[int, float]:
    """Sum of the self times of every span, per op."""
    out = defaultdict(float)
    for s, own in zip(spans, self_times(spans)):
        out[s[OP]] += own
    return dict(out)
