"""Metrics, k-fold cross-validation and the simulated teacher.

The teacher drives a learner through teach/ask/correct interactions,
introducing a new category whenever the sliding-window accuracy clears the
threshold, and stops at a breakpoint (no improvement within the iteration
budget) or when the data runs out. ``run_protocol`` is the one entry
point: given a transition point rho it switches context, introducing
categories from context A until rho is passed, then from B, and only asks
about categories of the current context.
"""

from __future__ import annotations

import itertools
import json
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .errors import (JsonRecord, OpenobjError, check_count, check_fields, check_fraction,
                     finite_number, integer, seeded)

__all__ = [
    "ConfusionMatrix",
    "LabeledDataset",
    "ProtocolEvent",
    "ProtocolLog",
    "ProtocolSummary",
    "metrics",
    "kfold",
    "run_protocol",
    "pick_rho",
    "EvaluationError",
    "replay_accuracies",
    "write_summary_csv",
]

DEFAULT_TAU = 0.67
DEFAULT_WINDOW_MULT = 3
DEFAULT_BREAKPOINT_LIMIT = 100
DEFAULT_VIEWS_PER_TEACH = 3


class EvaluationError(OpenobjError):
    pass


@dataclass(frozen=True, eq=False)
class ConfusionMatrix:
    """Rows = true label, columns = predicted label."""

    labels: tuple
    counts: np.ndarray

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        n = len(self.labels)
        if counts.shape != (n, n):
            raise EvaluationError(f"confusion counts must be {n} x {n}")
        if np.any(counts < 0):
            raise EvaluationError("confusion counts must be non-negative")
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def to_csv(self, path) -> None:
        import csv

        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["true\\predicted", *self.labels])
            for label, row in zip(self.labels, self.counts):
                writer.writerow([label, *row.tolist()])


@dataclass
class LabeledDataset:
    """Ordered views per category, with an optional A/B context split."""

    views: dict
    contexts: dict | None = None

    def __post_init__(self):
        if not isinstance(self.views, Mapping) or not self.views:
            raise EvaluationError("views must map each category to its views")
        for label, views in self.views.items():
            if not isinstance(label, str):
                raise EvaluationError(f"category labels must be strings, got {label!r}")
            if not isinstance(views, (list, tuple)) or not views:
                raise EvaluationError(f"category {label!r} needs a non-empty list of views")
        if self.contexts is not None:
            if not isinstance(self.contexts, Mapping):
                raise EvaluationError("contexts must map each category to 'A' or 'B'")
            if set(self.contexts) != set(self.views):
                raise EvaluationError("context map must cover exactly the categories")
            if any(c not in ("A", "B") for c in self.contexts.values()):
                raise EvaluationError("contexts must be 'A' or 'B'")

    @property
    def categories(self) -> list:
        return list(self.views)


@dataclass(frozen=True)
class ProtocolEvent(JsonRecord):
    error = EvaluationError
    iteration: int
    action: str  # teach | ask | correct
    category: str
    view_id: int
    predicted: str | None = None
    correct: bool | None = None
    accuracy: float | None = None  # sliding-window accuracy after an ask
    known: int | None = None  # categories introduced when the event fired

    def __post_init__(self):
        check_fields(self, EvaluationError)


@dataclass
class ProtocolLog:
    events: list = field(default_factory=list)
    termination: str | None = None  # breakpoint | lack_of_data

    def asks(self) -> list:
        return [e for e in self.events if e.action == "ask"]

    @property
    def introductions(self) -> list:
        """(iteration, category) of each category's first teach event."""
        first = {}
        for e in self.events:
            if e.action == "teach":
                first.setdefault(e.category, e.iteration)
        return [(iteration, category) for category, iteration in first.items()]

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for event in self.events:
                fh.write(json.dumps(event.to_json_dict(), sort_keys=True) + "\n")


@dataclass
class ProtocolSummary:
    qci: int
    nlc: int
    aic: float
    gca: float
    apa: float
    termination: str
    alc1: int | None = None
    alc2: int | None = None
    adaptability: float | None = None

    def to_json_dict(self) -> dict:
        out = {
            "QCI": self.qci,
            "NLC": self.nlc,
            "AIC": self.aic,
            "GCA": self.gca,
            "APA": self.apa,
            "termination": self.termination,
        }
        if self.alc1 is not None:
            out.update(
                {"ALC1": self.alc1, "ALC2": self.alc2, "adaptability": self.adaptability}
            )
        return out


def write_summary_csv(summaries, path) -> None:
    """One CSV row per experiment summary (for parameter sweeps)."""
    import csv

    keys = ["QCI", "NLC", "AIC", "GCA", "APA", "termination", "ALC1", "ALC2", "adaptability"]
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(keys)
        for summary in summaries:
            row = summary.to_json_dict()
            writer.writerow([row.get(k, "") for k in keys])


# ---------------------------------------------------------------------------
# Classical evaluation
# ---------------------------------------------------------------------------

def metrics(cm: ConfusionMatrix) -> dict:
    """Accuracy plus micro/macro precision and recall from a confusion
    matrix. Macro averages treat classes with no predictions (0/0) as 0 and
    raise a flag so the caller can tell."""
    counts = cm.counts
    total = cm.total
    if total == 0:
        raise EvaluationError("empty confusion matrix")
    tp = np.diag(counts).astype(np.float64)
    fp = counts.sum(axis=0) - tp
    fn = counts.sum(axis=1) - tp
    accuracy = tp.sum() / total

    def macro(numer, denom):
        undefined = denom == 0
        vals = np.where(undefined, 0.0, numer / np.where(undefined, 1.0, denom))
        return float(vals.mean()), bool(undefined.any())

    precision_macro, p_undef = macro(tp, tp + fp)
    recall_macro, r_undef = macro(tp, tp + fn)
    return {
        "accuracy": float(accuracy),
        "precision_micro": float(tp.sum() / (tp + fp).sum()),
        "precision_macro": precision_macro,
        "recall_micro": float(tp.sum() / (tp + fn).sum()),
        "recall_macro": recall_macro,
        "macro_undefined_classes": p_undef or r_undef,
    }


def kfold(
    dataset: LabeledDataset, k: int, pipeline, seed: int = 0, jobs: int = 1
) -> ConfusionMatrix:
    """Stratified k-fold cross-validation.

    ``pipeline(train, test_views) -> predicted labels`` where train is a
    list of (label, view) pairs. Views of each category are shuffled once
    (seeded) and dealt round-robin into folds, so categories with fewer
    than k views simply miss some folds, which run in order. Deterministic
    per seed. ``jobs`` must be the integer 1.
    """
    if not integer(jobs) or jobs != 1:
        raise EvaluationError(f"jobs must be 1, as kfold runs its folds in order; got {jobs!r}")
    check_count("k", k, 2, EvaluationError)
    rng = seeded(seed, EvaluationError)
    folds = [[] for _ in range(k)]
    for label in dataset.categories:
        views = dataset.views[label]
        order = rng.permutation(len(views))
        for slot, view_idx in enumerate(order):
            folds[slot % k].append((label, views[view_idx]))

    labels = tuple(dataset.categories)
    index = {lab: i for i, lab in enumerate(labels)}
    counts = np.zeros((len(labels), len(labels)), dtype=np.int64)
    for i, test in enumerate(folds):
        train = [item for j, fold in enumerate(folds) if j != i for item in fold]
        predicted = pipeline(train, [view for _, view in test])
        if len(predicted) != len(test):
            raise EvaluationError(
                f"fold {i}: the pipeline returned {len(predicted)} labels for {len(test)} views"
            )
        for (true_label, _), pred_label in zip(test, predicted):
            if pred_label not in index:
                raise EvaluationError(f"predicted label {pred_label!r} is not a dataset category")
            counts[index[true_label], index[pred_label]] += 1
    return ConfusionMatrix(labels=labels, counts=counts)


# ---------------------------------------------------------------------------
# Simulated teacher
# ---------------------------------------------------------------------------

def _summarize(log: ProtocolLog, contexts) -> ProtocolSummary:
    """Every field from the log; ALC1 and ALC2 count the introductions per
    context when a context map is given."""
    asks = log.asks()
    qci = len(asks)
    introduced = [category for _, category in log.introductions]
    nlc = len(introduced)
    stored = sum(e.action in ("teach", "correct") for e in log.events)
    alc1 = alc2 = adaptability = None
    if contexts is not None:
        alc1 = sum(contexts[c] == "A" for c in introduced)
        alc2 = nlc - alc1
        if log.termination == "breakpoint" and alc1 > 0:
            adaptability = alc2 / alc1
    return ProtocolSummary(
        qci=qci,
        nlc=nlc,
        aic=stored / nlc if nlc else 0.0,
        gca=float(sum(e.correct for e in asks) / qci) if qci else 0.0,
        apa=float(np.mean([e.accuracy for e in asks])) if asks else 0.0,
        termination=log.termination,
        alc1=alc1,
        alc2=alc2,
        adaptability=adaptability,
    )


def run_protocol(
    dataset: LabeledDataset,
    learner,
    tau: float = DEFAULT_TAU,
    window_mult: int = DEFAULT_WINDOW_MULT,
    breakpoint_limit: int = DEFAULT_BREAKPOINT_LIMIT,
    views_per_teach: int = DEFAULT_VIEWS_PER_TEACH,
    seed: int = 0,
    rho: int | None = None,
) -> tuple[ProtocolLog, ProtocolSummary]:
    """The simulated-teacher protocol, with an optional context switch.

    The learner must expose ``teach(category, view)`` and
    ``classify(view) -> category``. Categories are introduced in a seeded
    random order; a new one enters when the sliding accuracy over the last
    min(k, window_mult * n) asks exceeds tau (with at least n asks since
    the last introduction). The run stops at a breakpoint after
    ``breakpoint_limit`` asks without crossing tau, or with lack_of_data
    when views run out: an asked category has none left, or the next one
    to introduce has fewer than ``views_per_teach`` and is never taught.

    With a transition point ``rho`` the dataset's context map splits the
    categories: they come from context A while the introduced count has not
    yet exceeded rho (checked before each introduction, so A contributes
    rho + 1 categories when it has them), then from context B. Asks skip
    categories that are out of the current context, and the summary adds
    ALC1, ALC2 and the adaptability ALC2 / ALC1, which is only defined when
    the run terminates at a breakpoint.
    """
    if rho is not None:
        check_count("rho", rho, 1, EvaluationError)
        if dataset.contexts is None:
            raise EvaluationError("context protocol needs a context map")
    check_fraction("tau", tau, EvaluationError)
    for name, count in (("window_mult", window_mult), ("breakpoint_limit", breakpoint_limit),
                        ("views_per_teach", views_per_teach)):
        check_count(name, count, 1, EvaluationError)
    # without rho every category is in context A and the switch never comes
    contexts = dataset.contexts if rho is not None else dict.fromkeys(dataset.views, "A")
    switch_after = rho if rho is not None else len(contexts)
    pools = {ctx: [c for c in dataset.categories if contexts[c] == ctx] for ctx in ("A", "B")}
    if rho is not None and not (pools["A"] and pools["B"]):
        raise EvaluationError("both contexts must hold at least one category")
    rng = seeded(seed, EvaluationError)
    for ctx, pool in pools.items():
        pools[ctx] = iter([pool[i] for i in rng.permutation(len(pool))])
    unseen = {label: iter(enumerate(views)) for label, views in dataset.views.items()}
    log = ProtocolLog(termination="lack_of_data")

    introduced: list[str] = []
    ask_history: list[bool] = []  # all ask outcomes in order
    iteration = 0  # question/correction iteration counter
    k = 0  # asks since the latest introduction
    accuracy = 0.0  # sliding-window accuracy after the latest ask

    def introduce(category) -> bool:
        """Teach a category its first views_per_teach unseen views; False,
        teaching nothing, when fewer are left."""
        views = list(itertools.islice(unseen[category], views_per_teach))
        if len(views) < views_per_teach:
            return False
        for view_id, view in views:
            learner.teach(category, view)
            log.events.append(ProtocolEvent(iteration, "teach", category, view_id,
                                            known=len(introduced) + 1))
        introduced.append(category)
        return True

    while True:
        n = len(introduced)
        # the first two categories enter before any ask, later ones once
        # n asks have passed and the window accuracy exceeds tau
        if n < 2 or (k >= n and accuracy > tau):
            context = "B" if n > switch_after else "A"
            category = next(pools[context], None)
            if category is None or not introduce(category):
                break
            asked = itertools.cycle([c for c in introduced if contexts[c] == context])
            k = 0
            continue
        if k >= breakpoint_limit:
            log.termination = "breakpoint"
            break
        category = next(asked)
        item = next(unseen[category], None)
        if item is None:
            break
        view_id, view = item
        predicted = learner.classify(view)
        correct = predicted == category
        iteration += 1
        k += 1
        ask_history.append(correct)
        accuracy = float(np.mean(ask_history[-min(k, window_mult * n):]))
        log.events.append(ProtocolEvent(iteration, "ask", category, view_id, predicted=predicted,
                                        correct=correct, accuracy=accuracy, known=n))
        if not correct:
            learner.teach(category, view)
            log.events.append(ProtocolEvent(iteration, "correct", category, view_id, known=n))

    return log, _summarize(log, contexts if rho is not None else None)


def pick_rho(alc: float, seed: int = 0) -> int:
    """Context transition point: uniform integer in
    [ceil(0.65 alc), floor(0.85 alc)]."""
    if not (finite_number(alc) and abs(alc) < 2**53):  # keeps rho within int64
        raise EvaluationError(f"ALC must be finite and below 2**53, got {alc!r}")
    lo = int(np.ceil(0.65 * alc))
    hi = int(np.floor(0.85 * alc))
    if hi < lo:
        raise EvaluationError(f"empty transition interval for ALC = {alc}")
    return int(seeded(seed, EvaluationError).integers(lo, hi + 1))


def replay_accuracies(log: ProtocolLog, window_mult: int = DEFAULT_WINDOW_MULT) -> list:
    """Recompute every sliding-window accuracy from the raw event list.

    Only actions, categories and correctness are consulted: a category's
    first teach marks its introduction, asks since the latest introduction
    bound the window at min(k, window_mult * n).
    """
    check_count("window_mult", window_mult, 1, EvaluationError)
    out = []
    history = []
    seen = set()
    k = 0
    for event in log.events:
        if event.action == "teach" and event.category not in seen:
            seen.add(event.category)
            k = 0
        elif event.action == "ask":
            history.append(event.correct)
            k += 1
            window = min(k, window_mult * len(seen))
            out.append(float(np.mean(history[-window:])))
    return out
