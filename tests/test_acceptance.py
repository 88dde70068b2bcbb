"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

The recognition thresholds are surrogates measured on synthetic desk-scale
data; real-dataset headline numbers are out of scope.
"""

import itertools
import time
from contextlib import contextmanager

import numpy as np
import pytest

from openobj.descriptors import (
    compute_good,
    compute_spin_image,
    project_distribution,
)
from openobj.evaluation import (
    DEFAULT_BREAKPOINT_LIMIT,
    DEFAULT_TAU,
    DEFAULT_VIEWS_PER_TEACH,
    DEFAULT_WINDOW_MULT,
    ConfusionMatrix,
    LabeledDataset,
    kfold,
    metrics,
    pick_rho,
    replay_accuracies,
    run_protocol,
)
from openobj.learning import (
    BayesMemory,
    InstanceCategory,
    InstanceMemory,
    bayes_classify,
    bayes_teach,
    classify_instances,
    icd,
    set_distance,
)
from openobj.nbv import (
    CameraPose,
    SegmentedScene,
    render_virtual,
    select_next_view,
    viewpoint_entropy,
)
from openobj.pipelines import ExperimentConfig, make_cv_pipeline
from openobj.pointcloud import PointCloud, voxel_downsample
from openobj.representations import TopicModel, lda_infer, lda_update, local_lda_update, phi
from openobj.segmentation import SegmentationParams, detect_objects, euclidean_cluster_indices
from openobj.synthgen import CategorySpec, ShapeSpec, generate_dataset, generate_scene, generate_view, random_rotation


@contextmanager
def criterion(number, label):
    try:
        yield
    except Exception:
        print(f"[criterion {number:02d}] {label}: FAIL")
        raise
    print(f"[criterion {number:02d}] {label}: PASS")


def skewed_object(seed=0, m=900):
    rng = np.random.default_rng(seed)
    box = generate_view(
        ShapeSpec("box", (0.24, 0.16, 0.08), points=m, noise_sigma=0.001, seed=seed)
    ).points
    blob = rng.normal(scale=0.008, size=(m // 4, 3)) + np.array([0.1, 0.055, 0.03])
    return PointCloud(np.vstack([box, blob]))


class PerfectLearner:
    def __init__(self):
        self.taught = []

    def teach(self, category, view):
        self.taught.append((category, view))

    def classify(self, view):
        return view["label"]


class AlwaysWrongLearner:
    def teach(self, category, view):
        pass

    def classify(self, view):
        return "__nope__"


def labeled_views(categories, views_per_cat):
    return LabeledDataset(
        views={
            cat: [{"label": cat, "id": i} for i in range(views_per_cat)]
            for cat in categories
        }
    )


def test_criterion_01_good_invariances():
    with criterion(1, "global descriptor invariances"):
        start = time.monotonic()
        cloud = skewed_object(seed=3)
        reference = compute_good(cloud, n=15).bins
        rng = np.random.default_rng(1234)
        exact = 0
        for _ in range(100):
            moved = cloud.transform(random_rotation(rng), rng.uniform(-1, 1, 3))
            bins = compute_good(moved, n=15).bins
            cosine = bins @ reference / (np.linalg.norm(bins) * np.linalg.norm(reference))
            assert cosine >= 0.99
            exact += int(np.array_equal(bins, reference))
        assert exact >= 95

        scaled = compute_good(PointCloud(cloud.points * 3.7), n=15).bins
        np.testing.assert_allclose(scaled, reference, atol=1e-9)
        doubled = compute_good(PointCloud(np.vstack([cloud.points] * 2)), n=15).bins
        np.testing.assert_allclose(doubled, reference, atol=1e-9)
        assert time.monotonic() - start < 10.0


def test_criterion_02_descriptor_lengths():
    with criterion(2, "descriptor length per bin count"):
        cloud = skewed_object(seed=4)
        assert len(compute_good(cloud, n=5).bins) == 75
        assert len(compute_good(cloud, n=15).bins) == 675


@pytest.fixture(scope="module")
def desk_dataset():
    categories = [
        CategorySpec("box", "box", (0.12, 0.08, 0.05), points=350, noise_sigma=0.002),
        CategorySpec("cylinder", "cylinder", (0.035, 0.14), points=350, noise_sigma=0.002),
        CategorySpec("sphere", "sphere", (0.05,), points=350, noise_sigma=0.002),
        CategorySpec("cone", "cone", (0.05, 0.13), points=350, noise_sigma=0.002),
        CategorySpec("plate", "plate", (0.15, 0.1), points=350, noise_sigma=0.002),
    ]
    return LabeledDataset(views=generate_dataset(categories, 40, seed=42))


def test_criterion_03_desk_scale_recognition(desk_dataset):
    with criterion(3, "desk-scale recognition thresholds"):
        start = time.monotonic()
        good_cfg = ExperimentConfig(
            representation="good", learner="instance", good_bins=15, seed=0
        )
        cm = kfold(desk_dataset, k=10, pipeline=make_cv_pipeline(good_cfg), seed=0)
        good_acc = metrics(cm)["accuracy"]
        assert good_acc >= 0.90, f"global descriptor + 1-NN accuracy {good_acc:.3f}"

        bow_cfg = ExperimentConfig(
            representation="bow", learner="bayes", dictionary_size=90, seed=0
        )
        cm = kfold(desk_dataset, k=10, pipeline=make_cv_pipeline(bow_cfg), seed=0)
        bow_acc = metrics(cm)["accuracy"]
        assert bow_acc >= 0.80, f"naive Bayes + BoW accuracy {bow_acc:.3f}"
        assert time.monotonic() - start < 120.0


def test_criterion_04_oracle_equivalence():
    with criterion(4, "brute-force oracle equivalence"):
        rng = np.random.default_rng(7)

        for _ in range(50):  # asymmetric set distance
            u = rng.uniform(0, 1, size=(int(rng.integers(1, 15)), 5))
            v = rng.uniform(0, 1, size=(int(rng.integers(1, 15)), 5))
            oracle = np.mean([min(np.linalg.norm(a - b) for b in v) for a in u])
            assert abs(set_distance(u, v) - oracle) <= 1e-9

        for _ in range(50):  # intra-category distance and normalized distances
            instances = [
                rng.uniform(0, 1, size=(int(rng.integers(2, 5)), 4)) for _ in range(4)
            ]
            cat = InstanceCategory("x")
            for inst in instances:
                cat.add(inst)
            total = sum(
                set_distance(instances[i], instances[j])
                for i, j in itertools.permutations(range(4), 2)
            )
            assert abs(icd(cat) - total / 12) <= 1e-9
            # a second category sets ICD-bar, the mean of the two ICDs
            other = InstanceCategory("y", [rng.uniform(0, 1, size=(3, 4)) for _ in range(2)])
            memory = InstanceMemory({"x": cat, "y": other})
            target = rng.uniform(0, 1, size=(3, 4))
            d_min = min(set_distance(target, inst) for inst in instances)
            d_avg = np.mean([set_distance(target, inst) for inst in instances])
            a1 = classify_instances(target, memory, mode="A1").scores["x"]
            assert abs(a1 - d_min / icd(cat)) <= 1e-9
            icd_bar = (icd(cat) + icd(other)) / 2
            a2 = classify_instances(target, memory, mode="A2").scores["x"]
            assert abs(a2 - 2 * d_avg / (icd(cat) + icd_bar)) <= 1e-9

        for _ in range(50):  # clustering vs full-matrix union-find
            pts = rng.uniform(0, 0.25, size=(int(rng.integers(20, 120)), 3))
            link = float(rng.uniform(0.03, 0.08))
            got = [g.tolist() for g in euclidean_cluster_indices(PointCloud(pts), link)]
            dist = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
            parent = list(range(len(pts)))

            def find(a):
                while parent[a] != a:
                    parent[a] = parent[parent[a]]
                    a = parent[a]
                return a

            for i in range(len(pts)):
                for j in range(i + 1, len(pts)):
                    if dist[i, j] < link:
                        ri, rj = find(i), find(j)
                        if ri != rj:
                            parent[max(ri, rj)] = min(ri, rj)
            comps = {}
            for i in range(len(pts)):
                comps.setdefault(find(i), []).append(i)
            expected = sorted(comps.values(), key=lambda c: c[0])
            assert got == expected

        for _ in range(50):  # voxel grid downsampling
            pts = rng.uniform(-0.3, 0.3, size=(int(rng.integers(10, 200)), 3))
            voxel = float(rng.uniform(0.02, 0.1))
            out = voxel_downsample(PointCloud(pts), voxel)
            origin = pts.min(axis=0)
            buckets = {}
            for p in pts:
                buckets.setdefault(
                    tuple(np.floor((p - origin) / voxel).astype(int)), []
                ).append(p)
            expected = sorted(tuple(np.mean(b, axis=0)) for b in buckets.values())
            got = sorted(map(tuple, out.points))
            assert len(got) == len(expected)
            np.testing.assert_allclose(got, expected, atol=1e-9)

        for _ in range(50):  # spin-image binning (integer counts)
            pts = rng.uniform(-0.08, 0.08, size=(40, 3))
            normal = rng.normal(size=3)
            normal /= np.linalg.norm(normal)
            keypoint = rng.uniform(-0.02, 0.02, size=3)
            iw, sl = 4, 0.05
            img = compute_spin_image(PointCloud(pts), keypoint, normal, iw, sl)
            expected = np.zeros((iw + 1, 2 * iw + 1))
            for p in pts:
                d = p - keypoint
                beta = d @ normal
                alpha = np.sqrt(max(d @ d - beta**2, 0.0))
                if alpha > sl or abs(beta) > sl:
                    continue
                row = min(int(np.floor(alpha * iw / sl)), iw)
                col = min(max(int(np.floor((beta + sl) * iw / sl)), 0), 2 * iw)
                expected[row, col] += 1
            assert np.array_equal(img, expected)

        for _ in range(50):  # global-descriptor projection binning
            pts = rng.uniform(-0.4, 0.4, size=(int(rng.integers(5, 80)), 3))
            n = int(rng.integers(2, 9))
            l, eps = 1.0, 1e-6
            plane = ("XoZ", "XoY", "YoZ")[int(rng.integers(3))]
            axes = {"XoZ": (0, 2), "XoY": (0, 1), "YoZ": (1, 2)}[plane]
            got = project_distribution(PointCloud(pts), plane, l=l, n=n)
            expected = np.zeros((n, n))
            for p in pts:
                r = int(np.floor(n * (p[axes[0]] + l / 2) / (l + eps)))
                c = int(np.floor(n * (p[axes[1]] + l / 2) / (l + eps)))
                expected[r, c] += 1
            np.testing.assert_allclose(got, expected / expected.sum(), atol=1e-9)


def test_criterion_05_bayes_order_invariance():
    with criterion(5, "naive Bayes teaching-order invariance"):
        rng = np.random.default_rng(11)
        events = [(f"cat{i % 3}", rng.integers(0, 8, size=6)) for i in range(6)]
        probes = [rng.integers(0, 8, size=6) for _ in range(100)]
        reference_state = None
        reference_predictions = None
        perms = list(itertools.permutations(range(6)))
        picked = [perms[i] for i in rng.choice(len(perms), size=20, replace=False)]
        for perm in picked:
            memory = BayesMemory()
            for idx in perm:
                bayes_teach(memory, events[idx][0], events[idx][1])
            state = {
                lab: (c.n_k, c.accumulators.tobytes())
                for lab, c in sorted(memory.categories.items())
            }
            predictions = [bayes_classify(memory, probe).label for probe in probes]
            if reference_state is None:
                reference_state = state
                reference_predictions = predictions
            else:
                assert state == reference_state
                assert predictions == reference_predictions


def test_criterion_06_lda_contracts():
    with criterion(6, "topic model contracts"):
        rng = np.random.default_rng(13)
        model = TopicModel(k=5, v=12, rng_seed=2)
        for _ in range(8):
            doc = rng.integers(0, 12, size=int(rng.integers(5, 25)))
            lda_update(model, doc)
            model.check_consistent()
            p = phi(model)
            np.testing.assert_allclose(p.sum(axis=0), 1.0, atol=1e-9)
            hist = lda_infer(model, rng.integers(0, 12, size=10))
            assert abs(hist.theta.sum() - 1.0) <= 1e-9

        wk, nk, updates = model.n_wk.copy(), model.n_k.copy(), model.n_updates
        lda_infer(model, rng.integers(0, 12, size=15))
        assert np.array_equal(model.n_wk, wk) and np.array_equal(model.n_k, nk)
        assert model.n_updates == updates

        models = {}
        local_lda_update(models, "a", [0, 1, 2], k=3, v=6)
        frozen = models["a"].n_wk.copy()
        local_lda_update(models, "b", [3, 4, 5], k=3, v=6)
        assert np.array_equal(models["a"].n_wk, frozen)

        hits = 0
        for seed in range(10):
            two = TopicModel(k=2, v=2, alpha=0.1, rng_seed=seed)
            lda_update(two, [0] * 60, iters=200)
            lda_update(two, [1] * 60, iters=200)
            if np.all(phi(two).max(axis=0) > 0.8):
                hits += 1
        assert hits >= 9


def test_criterion_07_protocol_fidelity():
    with criterion(7, "teaching protocol fidelity"):
        assert DEFAULT_TAU == 0.67
        assert DEFAULT_WINDOW_MULT == 3
        assert DEFAULT_BREAKPOINT_LIMIT == 100
        assert DEFAULT_VIEWS_PER_TEACH == 3
        defaults = run_protocol.__defaults__
        assert (DEFAULT_TAU, DEFAULT_WINDOW_MULT, DEFAULT_BREAKPOINT_LIMIT,
                DEFAULT_VIEWS_PER_TEACH) == defaults[:4]

        data = labeled_views(["a", "b", "c", "d", "e"], 12)
        learner = PerfectLearner()
        log, summary = run_protocol(data, learner, seed=5)
        assert summary.termination == "lack_of_data"
        assert summary.nlc == 5
        assert summary.gca == 1.0
        teach_views = {(c, v["id"]) for c, v in learner.taught}
        assert len(teach_views) == len(learner.taught)  # three distinct views per teach

        data = labeled_views(["a", "b"], 120)
        log, summary = run_protocol(data, AlwaysWrongLearner(), seed=6)
        assert summary.termination == "breakpoint"
        assert summary.qci == 100

        class Flaky:
            count = 0

            def teach(self, category, view):
                pass

            def classify(self, view):
                Flaky.count += 1
                return view["label"] if Flaky.count % 3 else "__wrong__"

        data = labeled_views(["a", "b", "c"], 40)
        log, _ = run_protocol(data, Flaky(), seed=7)
        logged = [e.accuracy for e in log.events if e.action == "ask"]
        assert replay_accuracies(log) == logged


def test_criterion_08_context_protocol():
    with criterion(8, "context-change protocol and transition sampling"):
        views = {}
        contexts = {}
        for i in range(4):
            for ctx in ("A", "B"):
                name = f"{ctx.lower()}{i}"
                views[name] = [{"label": name, "id": j} for j in range(20)]
                contexts[name] = ctx
        data = LabeledDataset(views=views, contexts=contexts)
        log, summary = run_protocol(data, PerfectLearner(), rho=3, seed=4)
        # switch fires once the introduced count exceeds rho: A gives rho+1
        assert summary.alc1 == 4
        assert summary.alc2 == 4
        intro_contexts = [contexts[cat] for _, cat in log.introductions]
        alc1_from_log = sum(1 for c in intro_contexts if c == "A")
        alc2_from_log = len(intro_contexts) - alc1_from_log
        assert (alc1_from_log, alc2_from_log) == (summary.alc1, summary.alc2)
        assert alc2_from_log / alc1_from_log == summary.alc2 / summary.alc1

        # adaptability is reported only for breakpoint terminations
        assert summary.termination == "lack_of_data"
        assert summary.adaptability is None

        class ContextBlind:
            def teach(self, category, view):
                pass

            def classify(self, view):
                return view["label"] if view["label"].startswith("a") else "__wrong__"

        big = {
            name: [{"label": name, "id": j} for j in range(120)] for name in views
        }
        data2 = LabeledDataset(views=big, contexts=contexts)
        log2, summary2 = run_protocol(data2, ContextBlind(), rho=3, seed=4)
        assert summary2.termination == "breakpoint"
        assert summary2.adaptability == pytest.approx(summary2.alc2 / summary2.alc1)

        draws = [pick_rho(20, seed=s) for s in range(10000)]
        assert min(draws) >= int(np.ceil(0.65 * 20))
        assert max(draws) <= int(np.floor(0.85 * 20))


def test_criterion_09_segmentation():
    with criterion(9, "table-scene segmentation"):
        start = time.monotonic()
        # The best-scoring sampled plane may deviate from the true table by
        # up to ~tau across the hull, so the boxes float 4 cm above it to
        # keep their bottoms inside the prism band for any admissible fit.
        objects = [
            ShapeSpec("box", (0.08, 0.06, 0.1), points=500,
                      translation=(0.25, 0.15, 0.09), seed=11),
            ShapeSpec("box", (0.05, 0.05, 0.07), points=500,
                      translation=(-0.25, -0.1, 0.075), seed=12),
            ShapeSpec("box", (0.1, 0.04, 0.05), points=500,
                      translation=(0.0, 0.2, 0.065), seed=13),
        ]
        scene, labels = generate_scene(objects, seed=1, n_outliers=60)
        params = SegmentationParams(plane_tau=0.02, plane_iterations=200, seed=0)
        candidates = detect_objects(scene, params)
        assert len(candidates) == 3

        from openobj.segmentation import ransac_plane

        plane = ransac_plane(scene, params.plane_tau, params.plane_iterations, params.seed)
        angle = np.degrees(np.arccos(np.clip(abs(plane.normal @ [0, 0, 1]), -1, 1)))
        assert angle < 2.0

        truth = {
            k: {tuple(p) for p in scene.points[labels == k]} for k in (1, 2, 3)
        }
        for cand in candidates:
            got = {tuple(p) for p in cand.cloud.points}
            overlaps = {k: len(got & pts) for k, pts in truth.items()}
            best = max(overlaps, key=overlaps.get)
            assert overlaps[best] / len(got) >= 0.95  # cluster purity
            assert overlaps[best] / len(truth[best]) >= 0.95  # object coverage
        assert time.monotonic() - start < 5.0


def test_criterion_10_next_best_view():
    with criterion(10, "viewpoint entropy and view selection"):
        rng = np.random.default_rng(17)
        one = SegmentedScene(clusters=(PointCloud(rng.uniform(0, 1, (30, 3))),))
        assert viewpoint_entropy(one) == 0.0
        for k in (2, 5, 8):
            clusters = tuple(PointCloud(rng.uniform(0, 1, (25, 3))) for _ in range(k))
            assert viewpoint_entropy(SegmentedScene(clusters=clusters)) == pytest.approx(
                np.log(k), abs=1e-12
            )

        plate = np.column_stack(
            [rng.uniform(-0.4, 0.4, 5000), rng.uniform(-0.4, 0.4, 5000), np.full(5000, 1.0)]
        )
        box = np.column_stack(
            [rng.uniform(-0.2, 0.2, 400), rng.uniform(-0.2, 0.2, 400), rng.uniform(0, 0.2, 400)]
        )
        world = PointCloud(np.vstack([plate, box]))
        down = CameraPose(
            rotation=np.array([[1.0, 0, 0], [0, -1.0, 0], [0, 0, -1.0]]),
            translation=[0.0, 0.0, 3.0],
        )
        visible = render_virtual(world, down, resolution=16)
        assert all(p[2] > 0.9 for p in visible.points)

        poses = [CameraPose(rotation=np.eye(3), translation=[float(i), 0, 0]) for i in range(2)]
        candidates = [(poses[0], 3.0), (poses[1], 1.0)]
        hits = sum(
            select_next_view(candidates, seed=s) is poses[0] for s in range(10000)
        )
        assert abs(hits / 10000 - 0.75) < 0.02


def test_criterion_11_metrics():
    with criterion(11, "confusion-matrix metrics"):
        cm2 = ConfusionMatrix(labels=("a", "b"), counts=np.array([[5, 1], [2, 4]]))
        result = metrics(cm2)
        assert abs(result["accuracy"] - 0.75) <= 1e-12
        assert abs(result["precision_macro"] - (5 / 7 + 4 / 5) / 2) <= 1e-12
        assert abs(result["recall_macro"] - (5 / 6 + 4 / 6) / 2) <= 1e-12
        assert abs(result["precision_micro"] - 0.75) <= 1e-12
        assert abs(result["recall_micro"] - 0.75) <= 1e-12

        cm3 = ConfusionMatrix(
            labels=("a", "b", "c"),
            counts=np.array([[10, 2, 1], [3, 7, 2], [0, 1, 9]]),
        )
        result = metrics(cm3)
        total = 35
        assert abs(result["accuracy"] - 26 / total) <= 1e-12
        assert abs(
            result["precision_macro"] - (10 / 13 + 7 / 10 + 9 / 12) / 3
        ) <= 1e-12
        assert abs(
            result["recall_macro"] - (10 / 13 + 7 / 12 + 9 / 10) / 3
        ) <= 1e-12

        rng = np.random.default_rng(19)
        random_cm = ConfusionMatrix(
            labels=tuple("abcd"), counts=rng.integers(0, 30, size=(4, 4))
        )
        result = metrics(random_cm)
        assert abs(result["precision_micro"] - result["accuracy"]) <= 1e-12
        assert abs(result["recall_micro"] - result["accuracy"]) <= 1e-12
