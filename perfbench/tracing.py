"""Span tracing of the program's layers from outside the program.

`Tracer.install` replaces each traced function wherever a caller looks it up:
every attribute of every loaded `minhist.*` module that is the original
function object (for example `realness.emd`, bound at import, as well as
`transport.emd`), and the methods of `GalleryIndex` on the class.

A call made while no traced call is open gets a span (name, start, end,
parent, workload-op id); so does every call of a SPAN function. A call of a
HOT function inside another traced call (`bis` inside `search`,
`build_2dmh` inside `refine`, ...) is only counted and its time summed, and
that time is charged to the enclosing span as child time. A span's self
time is its duration minus its child time. Spans stay in memory until the
run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional

import numpy as np

SPAN, HOT = "span", "hot"


def _nnz(h) -> int:
    return int(np.count_nonzero(h.mass))


def _params(args, kwargs):
    params = args[2] if len(args) > 2 else kwargs.get("params")
    return None if params is None else (params.r, params.s, params.e)


def _on_solve(tracer: "Tracer", span, args, kwargs, result) -> None:
    tracer.samples["transport.lp_vars"].append(_nnz(args[0]) * _nnz(args[1]))
    tracer.samples["transport.solves"].append((span, _params(args, kwargs)))


def _on_hist2d(tracer: "Tracer", span, args, kwargs, result) -> None:
    tracer.samples["histogram.nnz_bins"].append(_nnz(result))
    tracer.samples["histogram.pairs_binned"].append(result.pair_count)


def _on_refine(tracer: "Tracer", span, args, kwargs, result) -> None:
    tracer.samples["refine.results"].append((result, args[1]))


def _on_save(tracer: "Tracer", span, args, kwargs, result) -> None:
    tracer.samples["identify.index_bytes"].append(Path(args[1]).stat().st_size)


def _on_load(tracer: "Tracer", span, args, kwargs, result) -> None:
    tracer.samples["identify.gallery_dense_bytes"].append(
        sum(e.hist.mass.nbytes for e in result.entries))


# (defining module, function name, traced name, mode, result hook)
FUNCTIONS = [
    ("minhist.template", "load_directory", "template.load_directory", SPAN, None),
    ("minhist.template", "load_template", "template.load", HOT, None),
    ("minhist.template", "rescale_to_500dpi", "template.rescale", HOT, None),
    ("minhist.histogram", "build_2dmh", "histogram.build_2dmh", HOT, _on_hist2d),
    ("minhist.histogram", "build_4dmh", "histogram.build_4dmh", HOT, None),
    ("minhist.transport", "emd", "transport.emd", SPAN, _on_solve),
    ("minhist.transport", "transport_plan", "transport.plan", SPAN, _on_solve),
    ("minhist.transport", "build_cost_matrix", "transport.cost_matrix", HOT, None),
    ("minhist.realness", "train", "realness.train", SPAN, None),
    ("minhist.realness", "classify_template", "realness.classify", SPAN, None),
    ("minhist.realness", "average_histogram", "realness.average", HOT, None),
    ("minhist.identify", "build_index", "identify.build_index", SPAN, None),
    ("minhist.identify", "search", "identify.search", SPAN, None),
    ("minhist.identify", "bis", "identify.bis", HOT, None),
    ("minhist.refine", "init_template", "refine.init", HOT, None),
    ("minhist.refine", "refine", "refine.refine", SPAN, _on_refine),
    ("minhist.analysis", "mds_embed", "analysis.mds", SPAN, None),
    ("minhist.analysis", "bootstrap_neighborhood", "analysis.bootstrap", SPAN, None),
]
# (module, class, method, traced name, mode, result hook)
METHODS = [
    ("minhist.identify", "GalleryIndex", "enroll", "identify.enroll", HOT, None),
    ("minhist.identify", "GalleryIndex", "save", "identify.save", SPAN, _on_save),
    ("minhist.identify", "GalleryIndex", "load", "identify.load", SPAN, _on_load),
]
# transport_plan is also called by emd inside transport; only calls made from
# other modules (the refiner) are traced as plans.
NOT_IN_DEFINING_MODULE = {"transport_plan"}


def rebind(mod_name: str, attr: str, make: Callable[[Callable], Callable]) -> List[Callable]:
    """Replace the function `mod_name.attr` by make(function) wherever a
    caller looks it up: every attribute of a loaded minhist module that is
    the original object. Returns the callables that undo it."""
    original = getattr(importlib.import_module(mod_name), attr, None)
    if original is None:
        return []
    replacement = make(original)
    undo = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "minhist" or name.startswith("minhist.")):
            continue
        if attr in NOT_IN_DEFINING_MODULE and name == mod_name:
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, replacement)
                undo.append(functools.partial(setattr, mod, key, original))
    return undo


class Tracer:
    def __init__(self) -> None:
        # span: [name, start, end, parent index or None, op id, child seconds]
        self.spans: List[list] = []
        self.calls: Dict[str, int] = defaultdict(int)
        self.busy: Dict[str, float] = defaultdict(float)
        self.samples: Dict[str, list] = defaultdict(list)
        self.op: Optional[str] = None
        # frames: [child seconds, own span index or None, nearest span index]
        self._stack: List[list] = []
        self._restore: List[Callable[[], None]] = []

    def wrap(self, name: str, fn: Callable, mode: str, hook) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            span_index = None
            owner = stack[-1][2] if stack else None
            if mode == SPAN or not stack:
                span_index = len(tracer.spans)
                tracer.spans.append([name, 0.0, 0.0, owner, tracer.op, 0.0])
                owner = span_index
            frame = [0.0, span_index, owner]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][0] += end - start
                if span_index is not None:
                    span = tracer.spans[span_index]
                    span[1], span[2], span[5] = start, end, frame[0]
                tracer.calls[name] += 1
                tracer.busy[name] += end - start
            if hook is not None:
                hook(tracer, span_index, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for mod_name, attr, name, mode, hook in FUNCTIONS:
            self._restore += rebind(mod_name, attr, functools.partial(
                lambda n, m, h, fn: self.wrap(n, fn, m, h), name, mode, hook))
        for mod_name, cls_name, attr, name, mode, hook in METHODS:
            cls = getattr(importlib.import_module(mod_name), cls_name)
            static = inspect.getattr_static(cls, attr, None)
            if static is None:
                continue
            if isinstance(static, classmethod):
                replacement = classmethod(self.wrap(name, static.__func__, mode, hook))
            else:
                replacement = self.wrap(name, static, mode, hook)
            setattr(cls, attr, replacement)
            self._restore.append(functools.partial(setattr, cls, attr, static))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    # ----- derived figures -------------------------------------------------

    def self_time(self, name: str) -> float:
        return sum((s[2] - s[1] - s[5] for s in self.spans if s[0] == name), 0.0)

    def top_level_time(self) -> float:
        return sum((s[2] - s[1] for s in self.spans if s[3] is None), 0.0)

    def children(self, parent_name: str, child_name: str) -> int:
        return sum(1 for s in self.spans
                   if s[0] == child_name and s[3] is not None
                   and self.spans[s[3]][0] == parent_name)

    def dump(self, origin: float) -> List[list]:
        return [[name, round(start - origin, 7), round(end - origin, 7), parent, op]
                for name, start, end, parent, op, _ in self.spans]


def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def _quantile(values, q: float) -> float:
    return float(np.quantile(values, q)) if len(values) else 0.0


def layer_metrics(tr: Tracer, wall_s: float, overhead_frac: float) -> Dict[str, tuple]:
    """Per-layer metrics of one traced run: name -> (value, unit). Times are
    raw seconds of the traced run; wall_s excludes calibration probes."""
    emd_ms = [1e3 * (s[2] - s[1]) for s in tr.spans if s[0] == "transport.emd"]
    refine_runs = tr.samples["refine.results"]
    accepted = sum(len(r.trace) - 1 for r, _ in refine_runs)
    candidates = sum(_iterations(r, cfg) * cfg.batch_size for r, cfg in refine_runs)
    statuses = [r.status for r, _ in refine_runs]
    train_params = _train_grid_points(tr)
    lp_vars = tr.samples["transport.lp_vars"]
    return {
        "transport.emd.calls": (tr.calls["transport.emd"], "count"),
        "transport.emd.busy_s": (tr.busy["transport.emd"], "s"),
        "transport.emd_ms.p50": (_median(emd_ms), "ms"),
        "transport.emd_ms.p90": (_quantile(emd_ms, 0.9), "ms"),
        "transport.lp_vars": (int(sum(lp_vars)), "count"),
        "transport.lp_vars.p50": (_median(lp_vars), "count"),
        "transport.cost_matrix.busy_s": (tr.busy["transport.cost_matrix"], "s"),
        "transport.plan.calls": (tr.calls["transport.plan"], "count"),
        "transport.plan.busy_s": (tr.busy["transport.plan"], "s"),
        "refine.candidates": (candidates, "count"),
        "refine.accepted": (accepted, "count"),
        "refine.accept_ratio": (accepted / candidates if candidates else 0.0, "ratio"),
        "refine.self_s": (tr.self_time("refine.refine"), "s"),
        "refine.status.success": (statuses.count("success"), "count"),
        "refine.status.stall": (statuses.count("stall"), "count"),
        "refine.status.timeout": (statuses.count("timeout"), "count"),
        "histogram.build_2dmh.calls": (tr.calls["histogram.build_2dmh"], "count"),
        "histogram.build_2dmh.busy_s": (tr.busy["histogram.build_2dmh"], "s"),
        "histogram.pairs_binned": (int(sum(tr.samples["histogram.pairs_binned"])), "count"),
        "histogram.nnz_bins.p50": (_median(tr.samples["histogram.nnz_bins"]), "count"),
        "histogram.build_4dmh.calls": (tr.calls["histogram.build_4dmh"], "count"),
        "histogram.build_4dmh.busy_s": (tr.busy["histogram.build_4dmh"], "s"),
        "identify.search.calls": (tr.calls["identify.search"], "count"),
        "identify.search.self_s": (tr.self_time("identify.search"), "s"),
        "identify.comparisons": (tr.calls["identify.bis"], "count"),
        "identify.bis.busy_s": (tr.busy["identify.bis"], "s"),
        "identify.save.busy_s": (tr.busy["identify.save"], "s"),
        "identify.load.busy_s": (tr.busy["identify.load"], "s"),
        "identify.index_bytes": (max(tr.samples["identify.index_bytes"], default=0), "bytes"),
        "identify.gallery_dense_bytes": (
            max(tr.samples["identify.gallery_dense_bytes"], default=0), "bytes"),
        "template.load.calls": (tr.calls["template.load"], "count"),
        "template.load.busy_s": (tr.busy["template.load"], "s"),
        "template.rescale.busy_s": (tr.busy["template.rescale"], "s"),
        "realness.train.self_s": (tr.self_time("realness.train"), "s"),
        "realness.grid_points": (train_params, "count"),
        "realness.classify.self_s": (tr.self_time("realness.classify"), "s"),
        "analysis.bootstrap.busy_s": (tr.busy["analysis.bootstrap"], "s"),
        "analysis.bootstrap.self_s": (tr.self_time("analysis.bootstrap"), "s"),
        "analysis.bootstrap.emd_calls": (
            tr.children("analysis.bootstrap", "transport.emd"), "count"),
        "analysis.mds.busy_s": (tr.busy["analysis.mds"], "s"),
        "trace.coverage": (tr.top_level_time() / wall_s, "ratio"),
        "trace.overhead_frac": (overhead_frac, "ratio"),
    }


def _iterations(result, cfg) -> int:
    """Refinement iterations run, each proposing cfg.batch_size candidates."""
    accepted = len(result.trace) - 1
    if result.status == "stall":
        return accepted + 1
    if result.status == "timeout":
        return cfg.max_iters
    return accepted


def _train_grid_points(tr: Tracer) -> int:
    """Distinct cost parameter points solved inside realness.train spans."""
    points = set()
    for span, params in tr.samples["transport.solves"]:
        parent = tr.spans[span][3]
        if parent is not None and tr.spans[parent][0] == "realness.train":
            points.add(params)
    return len(points)
