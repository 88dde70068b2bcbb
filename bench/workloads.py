"""The benchmark's workloads. Each one builds its inputs in ``setup`` (the
timed set-up phase) from a fixed view set and the seed, and drives openobj
through its public functions in ``run`` (one pass of the timed phase),
returning the outputs that are checked and digested.

Sizes are chosen so that every run of every workload fits the benchmark's
time budget on a 2-core machine; BENCHMARK.json says why each workload
was chosen.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from openobj import evaluation, nbv, pipelines, segmentation, synthgen
from openobj.evaluation import LabeledDataset
from openobj.pipelines import ExperimentConfig
from openobj.synthgen import CategorySpec, ShapeSpec

from measure import latency_summary

# The acceptance-criterion-3 desk categories.
DESK = (
    ("box", "box", (0.12, 0.08, 0.05)),
    ("cylinder", "cylinder", (0.035, 0.14)),
    ("sphere", "sphere", (0.05,)),
    ("cone", "cone", (0.05, 0.13)),
    ("plate", "plate", (0.15, 0.1)),
)
JITTER = 0.15  # CategorySpec default: views vary dimensions by +-15 %
# Each workload's object views are one fixed set, generated with the
# acceptance-criterion-3 seed; the benchmark seed varies what is done with
# them (fold split, category order, the scene stream). Accuracy then
# varies with the workload's inputs, not with which views a learner got.
DATA_SEED = 42


def desk_specs(points: int, scales=(1.0,)) -> list:
    suffix = len(scales) > 1
    return [
        CategorySpec(
            f"{name}_x{scale:g}" if suffix else name,
            kind,
            tuple(d * scale for d in dims),
            points=points,
            noise_sigma=0.002,
            jitter=JITTER,
        )
        for scale in scales
        for name, kind, dims in DESK
    ]


@dataclass
class Result:
    """One pass: digested outputs, correct answers over attempts, failed
    output checks, workload-specific figures and latency samples."""

    outputs: object
    correct: int
    attempts: int
    problems: list
    detail: dict
    samples: dict  # latency name -> durations in seconds

    @property
    def accuracy(self) -> float:
        return self.correct / self.attempts


# ---------------------------------------------------------------------------
# desk_cv: batch scoring of a configuration
# ---------------------------------------------------------------------------

class DeskCV:
    name = "desk_cv"
    # criterion-3 thresholds per configuration
    configs = (("good", "instance", 0.90), ("bow", "bayes", 0.80))

    def setup(self, seed):
        views = synthgen.generate_dataset(desk_specs(350), 40, seed=DATA_SEED)
        return LabeledDataset(views=views), seed

    def run(self, state, ops):
        dataset, seed = state
        outputs, problems, detail = {}, [], {}
        fold_s = []
        correct = attempts = 0
        for rep, learner, threshold in self.configs:
            config = ExperimentConfig(representation=rep, learner=learner, seed=seed)
            pipeline = pipelines.make_cv_pipeline(config)
            predictions = []

            def timed_fold(train, test, pipeline=pipeline, predictions=predictions):
                predicted = ops.timed(fold_s, pipeline, train, test)
                predictions.append(list(predicted))
                return predicted

            cm = evaluation.kfold(dataset, k=10, pipeline=timed_fold, seed=seed, jobs=1)
            accuracy = evaluation.metrics(cm)["accuracy"]
            key = f"{rep}/{learner}"
            outputs[key] = predictions
            detail[key + ".accuracy"] = accuracy
            correct += int(np.trace(cm.counts))
            attempts += cm.total
            if accuracy < threshold:
                problems.append(f"{key} accuracy {accuracy:.3f} below {threshold}")
        return Result(outputs, correct, attempts, problems, detail, {"fold": fold_s})


# ---------------------------------------------------------------------------
# open_ended: teaching protocol with a growing memory
# ---------------------------------------------------------------------------

class _TimedLearner:
    """Client-side view of a learner under the simulated teacher: counts
    every call and times teaches and asks."""

    def __init__(self, learner, ops, teach_s, ask_s):
        self.learner, self.ops = learner, ops
        self.teach_s, self.ask_s = teach_s, ask_s

    def teach(self, category, view):
        self.ops.timed(self.teach_s, self.learner.teach, category, view)

    def classify(self, view):
        return self.ops.timed(self.ask_s, self.learner.classify, view)


class OpenEnded:
    name = "open_ended"
    scales = (0.7, 1.4)  # 5 kinds x 2 scales = 10 categories
    views = 25
    points = 200
    gibbs_iters = 10
    learners = (("spinset", "instance"), ("lda", "bayes"))
    # How much work a protocol does depends on its category order (which
    # categories get confused, and when); several orders per pass average
    # that out, so the pass time varies less from seed to seed.
    orders = 2

    def config(self, rep, learner, seed):
        return ExperimentConfig(
            representation=rep, learner=learner, gibbs_iters=self.gibbs_iters, seed=seed
        )

    def setup(self, seed):
        views = synthgen.generate_dataset(
            desk_specs(self.points, self.scales), self.views, seed=DATA_SEED
        )
        # Off-line stage as in the protocol command: one dictionary from
        # the whole view pool, built before any teaching.
        clouds = [cloud for category in views.values() for cloud in category]
        dictionary = pipelines.build_dictionary_from_clouds(
            clouds, self.config("lda", "bayes", seed)
        )
        return LabeledDataset(views=views), dictionary, seed

    def run(self, state, ops):
        dataset, dictionary, seed = state
        outputs, problems, detail = {}, [], {}
        teach_s, ask_s = [], []
        correct = asks = nlc = 0
        for order, (rep, learner) in itertools.product(range(self.orders), self.learners):
            built = pipelines.build_learner(self.config(rep, learner, seed), dictionary)
            client = _TimedLearner(built, ops, teach_s, ask_s)
            log, summary = evaluation.run_protocol(
                dataset, client, seed=seed * self.orders + order
            )
            key = f"order{order}:{rep}/{learner}"
            outputs[key] = {
                "events": [e.to_json_dict() for e in log.events],
                "summary": summary.to_json_dict(),
            }
            logged = [e.accuracy for e in log.asks()]
            if evaluation.replay_accuracies(log) != logged:
                problems.append(f"{key}: replayed accuracies differ from the log")
            detail[key] = summary.to_json_dict()
            correct += sum(e.correct for e in log.asks())
            asks += summary.qci
            nlc += summary.nlc
        detail["nlc"] = nlc
        return Result(outputs, correct, asks, problems, detail, {"ask": ask_s, "teach": teach_s})


# ---------------------------------------------------------------------------
# table_scene: read-only recognition of segmented objects, plus NBV
# ---------------------------------------------------------------------------

TABLE_HEIGHT = 0.7
# Object slots on the 1.2 x 0.8 m table: centers at least 0.34 m apart and
# 0.23 m inside the edges, so objects never touch and never sit near the
# edge. Objects float 4 cm above the table, as in acceptance criterion 9,
# so a plane fitted within its tolerance cannot cut their lowest points.
SLOTS = tuple((x, y) for x in (-0.36, 0.0, 0.36) for y in (-0.17, 0.17))
CLEARANCE = 0.04
DOWN = np.array([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0]])


def _reach(kind, dims) -> float:
    """Largest distance of a sampled surface point from the shape origin."""
    if kind == "cone":  # base disc at the origin, apex at height h
        return max(dims)
    if kind == "sphere":
        return dims[0]
    if kind == "cylinder":
        return math.hypot(dims[0], dims[1] / 2)
    return math.hypot(*(d / 2 for d in dims))


class TableScene:
    name = "table_scene"
    teach_views = 8
    points = 250
    gibbs_iters = 5
    min_objects = 100
    poses = ((0.0, 0.0), (0.4, 0.0), (-0.4, 0.3), (0.3, -0.3))

    def setup(self, seed):
        # The frozen learner is the same for every seed; the seed only
        # chooses the scene stream.
        config = ExperimentConfig(
            representation="local_lda", learner="bayes", gibbs_iters=self.gibbs_iters,
            seed=DATA_SEED,
        )
        views = synthgen.generate_dataset(
            desk_specs(self.points), self.teach_views, seed=DATA_SEED
        )
        clouds = [cloud for category in views.values() for cloud in category]
        dictionary = pipelines.build_dictionary_from_clouds(clouds, config)
        learner = pipelines.build_learner(config, dictionary)
        for category, category_views in views.items():
            for view in category_views:
                learner.teach(category, view)
        poses = [nbv.CameraPose(rotation=DOWN, translation=[x, y, 2.0]) for x, y in self.poses]
        # Every cloud handed to the learner stays referenced in ``keep`` for
        # the learner's lifetime: its feature cache is keyed on id(cloud),
        # and a freed cloud's id can be reused by a later candidate, which
        # then gets the stale features and results depend on memory reuse.
        return {"learner": learner, "scenes": self.scenes(seed), "poses": poses,
                "config": config, "keep": [views]}

    def scenes(self, seed):
        """(scene cloud, [(category, slot)]) with 3-4 objects each, until
        at least min_objects objects."""
        rng = np.random.default_rng(seed)
        out, total = [], 0
        while total < self.min_objects:
            count = int(rng.integers(3, 5))
            objects, truth = [], []
            for slot in rng.choice(len(SLOTS), size=count, replace=False):
                name, kind, dims = DESK[int(rng.integers(len(DESK)))]
                dims = tuple(d * (1.0 + rng.uniform(-JITTER, JITTER)) for d in dims)
                x, y = SLOTS[slot]
                objects.append(ShapeSpec(
                    kind, dims, points=self.points, noise_sigma=0.002,
                    rotation=synthgen.random_rotation(rng),
                    translation=(x, y, _reach(kind, dims) + CLEARANCE),
                    seed=int(rng.integers(0, 2**31 - 1)),
                ))
                truth.append((name, (x, y)))
            cloud, _ = synthgen.generate_scene(
                objects, table_height=TABLE_HEIGHT, n_outliers=50,
                seed=int(rng.integers(0, 2**31 - 1)),
            )
            out.append((cloud, truth))
            total += count
        return out

    @staticmethod
    def next_view(scene, poses, config, seed):
        """Entropy of each candidate pose's render, weighted by travel from
        the first pose; returns the sampled pose's index and the entropies."""
        entropies, weighted = [], []
        for pose in poses:
            view = nbv.render_virtual(scene, pose, config.nbv_resolution)
            clusters = segmentation.euclidean_cluster(view, link_dist=0.03, min_pts=5)
            entropy = nbv.viewpoint_entropy(
                nbv.SegmentedScene(clusters=tuple(clusters), total_area=len(view))
            )
            entropies.append(entropy)
            weighted.append((pose, nbv.weighted_entropy(entropy, pose, poses[0], config.sigma_nbv)))
        chosen = nbv.select_next_view(weighted, seed=seed)
        return next(i for i, pose in enumerate(poses) if pose is chosen), entropies

    def run(self, state, ops):
        learner, scenes, poses, config = (
            state["learner"], state["scenes"], state["poses"], state["config"]
        )
        outputs, problems = [], []
        object_s, scene_s = [], []
        correct = attempts = 0
        params = segmentation.SegmentationParams(seed=config.seed)
        for index, (scene, truth) in enumerate(scenes):
            start = time.perf_counter()
            candidates = ops.call(segmentation.detect_objects, scene, params)
            if len(candidates) != len(truth):
                problems.append(f"scene {index}: {len(candidates)} candidates, "
                                f"expected {len(truth)}")
            labels, claimed = [], set()
            for candidate in candidates:
                label = ops.timed(object_s, learner.classify, candidate.cloud)
                labels.append(label)
                cx, cy = candidate.cloud.points[:, :2].mean(axis=0)
                nearest = min(range(len(truth)),
                              key=lambda i: math.dist((cx, cy), truth[i][1]))
                if nearest not in claimed and truth[nearest][0] == label:
                    correct += 1
                claimed.add(nearest)
            chosen, entropies = ops.call(self.next_view, scene, poses, config, index)
            scene_s.append(time.perf_counter() - start)
            attempts += len(truth)
            outputs.append({
                "labels": labels,
                "entropies": entropies,
                "next_view": chosen,
            })
            state["keep"].append(candidates)
        detail = {"objects": sum(len(t) for _, t in scenes), "detected": len(object_s)}
        return Result(outputs, correct, attempts, problems, detail,
                      {"object": object_s, "scene": scene_s})


WORKLOADS = {w.name: w for w in (DeskCV(), OpenEnded(), TableScene())}


def summarize(results) -> dict:
    """Workload-specific figures over all passes of a run."""
    first = results[0]
    detail = dict(first.detail)
    for key in first.samples:
        detail[key + "_latency"] = latency_summary(
            [s for r in results for s in r.samples[key]]
        )
    return detail
