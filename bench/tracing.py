"""Span tracing around openobj's public entry points, installed from the
benchmark's own files.

Each traced callable is replaced, in every openobj module that holds a
reference to it, by a wrapper that records a span (name, start, end,
parent) and optional counts. ``uninstall`` puts the originals back, so the
untraced phase of a run executes openobj unmodified.

A layer's self time is its span's duration minus the part of that interval
covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans


class CoverageError(RuntimeError):
    """A layer that the workload is listed as exercising recorded no calls."""


def self_times(spans) -> list:
    """Per span: duration minus the union of its children's intervals,
    clipped to the parent's interval."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for child in sorted(children[i], key=lambda s: s.start):
            lo = max(child.start, cursor)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(span.end - span.start - covered)
    return out


def _rows(rep) -> int:
    """Feature count of a set representation (FeatureSet or 2D array)."""
    shape = getattr(rep, "shape", None)
    if shape is not None:
        return shape[0] if len(shape) == 2 else 1
    return len(rep)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.views: dict[str, set] = defaultdict(set)
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def wrap(self, name, fn, count=None):
        signature = inspect.signature(fn) if count else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, 0.0, 0.0, parent)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                count(self, name, bound.arguments, result)
            return result

        return wrapper

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self, targets):
        """targets: (name, owner, attr, count) tuples. A function owner is a
        module; every openobj module attribute bound to the same object is
        replaced too, so calls through ``from x import f`` names are seen."""
        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "openobj"]
        for name, owner, attr, count in targets:
            original = getattr(owner, attr)  # AttributeError if renamed
            wrapper = self.wrap(name, original, count)
            if inspect.isclass(owner):
                self._patch(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reporting ---------------------------------------------------------

    def layer_totals(self) -> dict:
        """{name: (calls, self seconds)} over all recorded spans."""
        calls = Counter()
        own = Counter()
        for span, t in zip(self.spans, self_times(self.spans)):
            calls[span.name] += 1
            own[span.name] += t
        return {name: (calls[name], own[name]) for name in calls}

    def ancestor(self, index: int, name: str) -> int | None:
        """Index of the nearest enclosing span called name, if any."""
        parent = self.spans[index].parent
        while parent is not None and self.spans[parent].name != name:
            parent = self.spans[parent].parent
        return parent

    def dump(self) -> list:
        return [[s.name, s.start, s.end, s.parent] for s in self.spans]


# -- counters attached to individual entry points ------------------------------

def count_views(tracer, name, args, result):
    tracer.views[name].add(id(args["cloud"]))


def count_pool_rows(tracer, name, args, result):
    tracer.counts[name + ".pool_rows"] += len(args["pool"])


def count_token_sweeps(tracer, name, args, result):
    tracer.counts[name + ".token_sweeps"] += len(args["doc"]) * args["iters"]


def count_feature_pairs(tracer, name, args, result):
    tracer.counts[name + ".feature_pairs"] += _rows(args["u"]) * _rows(args["v"])


def count_protocol(tracer, name, args, result):
    log, _ = result
    for event in log.events:
        if event.action == "ask":
            tracer.counts[name + ".asks"] += 1
        else:  # teach and correct both call learner.teach
            tracer.counts[name + ".teaches"] += 1


def count_candidates(tracer, name, args, result):
    tracer.counts[name + ".candidates"] += len(result)


# Traced entry points: (span name, openobj module, attribute, counter).
# The learner surface (pipelines.teach / pipelines.classify) is added per
# learner class in openobj_targets.
TARGETS = (
    ("pointcloud.compute_reference_frame", "pointcloud", "compute_reference_frame", None),
    ("descriptors.compute_good", "descriptors", "compute_good", count_views),
    ("descriptors.compute_feature_set", "descriptors", "compute_feature_set", count_views),
    ("descriptors.estimate_normals", "descriptors", "estimate_normals", None),
    ("descriptors.compute_spin_image", "descriptors", "compute_spin_image", None),
    ("descriptors.feature_matrix", "descriptors", "FeatureSet.as_matrix", None),
    ("representations.build_dictionary", "representations", "build_dictionary", count_pool_rows),
    ("representations.lda_update", "representations", "lda_update", count_token_sweeps),
    ("representations.lda_infer", "representations", "lda_infer", count_token_sweeps),
    ("learning.set_distance", "learning", "set_distance", count_feature_pairs),
    ("learning.icd", "learning", "icd", None),
    ("learning.classify_instances", "learning", "classify_instances", None),
    ("learning.bayes_teach", "learning", "bayes_teach", None),
    ("learning.bayes_classify", "learning", "bayes_classify", None),
    ("evaluation.kfold", "evaluation", "kfold", None),
    ("evaluation.run_protocol", "evaluation", "run_protocol", count_protocol),
    ("segmentation.detect_objects", "segmentation", "detect_objects", count_candidates),
    ("segmentation.ransac_plane", "segmentation", "ransac_plane", None),
    ("segmentation.extract_prism", "segmentation", "extract_prism", None),
    ("segmentation.euclidean_cluster", "segmentation", "euclidean_cluster", None),
    ("nbv.render_virtual", "nbv", "render_virtual", None),
    ("nbv.viewpoint_entropy", "nbv", "viewpoint_entropy", None),
    ("nbv.select_next_view", "nbv", "select_next_view", None),
    ("synthgen.generate_dataset", "synthgen", "generate_dataset", None),
    ("synthgen.generate_scene", "synthgen", "generate_scene", None),
)
LEARNER_SPANS = ("pipelines.teach", "pipelines.classify")
SPAN_NAMES = tuple(t[0] for t in TARGETS) + LEARNER_SPANS

# The end-to-end metric each layer should move, and on which workload. A
# traced run fails when a layer linked to its workload records no calls.
_DESK, _OPEN, _TABLE = "desk_cv", "open_ended", "table_scene"
_FEATURES = (("run_s", _DESK), ("setup_s", _OPEN), ("run_s", _OPEN), ("run_s", _TABLE))
LINKS = {
    "pointcloud.compute_reference_frame": (("run_s", _DESK),),
    "descriptors.compute_good": (("run_s", _DESK),),
    "descriptors.compute_feature_set": _FEATURES,
    "descriptors.estimate_normals": _FEATURES,
    "descriptors.compute_spin_image": _FEATURES,
    "descriptors.feature_matrix": (("run_s", _DESK), ("run_s", _OPEN), ("run_s", _TABLE)),
    "representations.build_dictionary": (
        ("run_s", _DESK), ("setup_s", _OPEN), ("setup_s", _TABLE)),
    "representations.lda_update": (("run_s", _OPEN), ("setup_s", _TABLE)),
    "representations.lda_infer": (("run_s", _OPEN), ("run_s", _TABLE)),
    "learning.set_distance": (("run_s", _OPEN),),
    "learning.icd": (("run_s", _OPEN),),
    "learning.classify_instances": (("run_s", _DESK), ("run_s", _OPEN)),
    "learning.bayes_teach": (("run_s", _DESK), ("run_s", _OPEN), ("setup_s", _TABLE)),
    "learning.bayes_classify": (("run_s", _DESK), ("run_s", _OPEN)),
    "pipelines.teach": (("run_s", _DESK), ("run_s", _OPEN), ("setup_s", _TABLE)),
    "pipelines.classify": (("run_s", _DESK), ("run_s", _OPEN), ("run_s", _TABLE)),
    "evaluation.kfold": (("run_s", _DESK),),
    "evaluation.run_protocol": (("run_s", _OPEN),),
    "segmentation.detect_objects": (("run_s", _TABLE),),
    "segmentation.ransac_plane": (("run_s", _TABLE),),
    "segmentation.extract_prism": (("run_s", _TABLE),),
    "segmentation.euclidean_cluster": (("run_s", _TABLE),),
    "nbv.render_virtual": (("run_s", _TABLE),),
    "nbv.viewpoint_entropy": (("run_s", _TABLE),),
    "nbv.select_next_view": (("run_s", _TABLE),),
    "synthgen.generate_dataset": (("setup_s", _DESK), ("setup_s", _OPEN), ("setup_s", _TABLE)),
    "synthgen.generate_scene": (("setup_s", _TABLE),),
}


# Counts measured where the work happens, beyond each span's .calls and
# .self_ms.
EXTRA_METRICS = {
    "descriptors.compute_good.per_view": "calls/view",
    "descriptors.compute_feature_set.per_view": "calls/view",
    "representations.build_dictionary.pool_rows": "rows",
    "representations.lda_update.token_sweeps": "tokens",
    "representations.lda_infer.token_sweeps": "tokens",
    "representations.lda_infer.chains_per_classify": "chains/query",
    "learning.set_distance.feature_pairs": "pairs",
    "evaluation.run_protocol.asks": "count",
    "evaluation.run_protocol.teaches": "count",
    "segmentation.detect_objects.candidates": "count",
}
OVERHEAD_METRIC = "trace.overhead_s"


def openobj_targets():
    """TARGETS resolved to (span name, owner, attribute, counter), plus
    teach and classify on every learner class, so learners built inside
    make_cv_pipeline are traced as well as the benchmark's own."""
    targets = []
    for name, module, attr, count in TARGETS:
        owner = importlib.import_module("openobj." + module)
        *path, attr = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        targets.append((name, owner, attr, count))
    pipelines = importlib.import_module("openobj.pipelines")
    for _, cls in inspect.getmembers(pipelines, inspect.isclass):
        if cls.__module__ == pipelines.__name__:
            for attr in ("teach", "classify"):
                if attr in cls.__dict__:
                    targets.append((f"pipelines.{attr}", cls, attr, None))
    return targets


def metric_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in SPAN_NAMES:
        units[name + ".calls"] = "count"
        units[name + ".self_ms"] = "ms"
        units.update({k: u for k, u in EXTRA_METRICS.items() if k.startswith(name + ".")})
    units[OVERHEAD_METRIC] = "s"
    return units


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer values from one traced run (without the overhead)."""
    totals = tracer.layer_totals()
    values = {}
    for name in SPAN_NAMES:
        calls, own = totals.get(name, (0, 0.0))
        values[name + ".calls"] = calls
        values[name + ".self_ms"] = own * 1000.0
    for name in ("descriptors.compute_good", "descriptors.compute_feature_set"):
        views = len(tracer.views[name])
        values[name + ".per_view"] = values[name + ".calls"] / views if views else 0.0
    # Gibbs chains run on behalf of a classify call, per classify call that
    # ran any (spin-set and GOOD queries run none).
    queries = [
        tracer.ancestor(i, "pipelines.classify")
        for i, s in enumerate(tracer.spans)
        if s.name == "representations.lda_infer"
    ]
    chains = [q for q in queries if q is not None]
    values["representations.lda_infer.chains_per_classify"] = (
        len(chains) / len(set(chains)) if chains else 0.0
    )
    for key in EXTRA_METRICS:
        if key not in values:
            values[key] = tracer.counts[key]
    return values


def check_coverage(values: dict, workload: str) -> None:
    """Fail loudly when a layer linked to the workload has no calls, so a
    rename or inlining cannot silently zero a per-layer metric."""
    missing = [
        name for name, links in LINKS.items()
        if any(w == workload for _, w in links) and values[name + ".calls"] == 0
    ]
    if missing:
        raise CoverageError(f"{workload}: no calls recorded for " + ", ".join(missing))
