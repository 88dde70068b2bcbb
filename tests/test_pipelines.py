"""Representation/learner wiring: config validation and the learner
wrappers driven by the simulated teacher."""

import inspect
import math
from unittest import mock

import numpy as np
import pytest

from openobj.descriptors import compute_feature_set, compute_good
from openobj.evaluation import LabeledDataset, kfold, metrics, run_protocol
from openobj.nbv import render_virtual
from openobj import pipelines
from openobj.learning import LearningError, chi2, log_posterior
from openobj.pipelines import (
    LEARNERS,
    REPRESENTATIONS,
    ConfigError,
    ExperimentConfig,
    build_dictionary_from_clouds,
    build_learner,
    make_cv_pipeline,
)
from openobj.representations import (
    TopicModel,
    build_dictionary,
    lda_infer,
    lda_update,
    local_lda_update,
)
from openobj.synthgen import CategorySpec, generate_dataset


@pytest.fixture(scope="module")
def tiny_dataset():
    categories = [
        CategorySpec("box", "box", (0.12, 0.08, 0.05), points=150, noise_sigma=0.001),
        CategorySpec("sphere", "sphere", (0.05,), points=150, noise_sigma=0.001),
        CategorySpec("cone", "cone", (0.05, 0.13), points=150, noise_sigma=0.001),
    ]
    return LabeledDataset(views=generate_dataset(categories, 10, seed=7))


class TestConfig:
    def test_defaults_valid(self):
        ExperimentConfig().validate()

    def test_bad_representation(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(representation="vfh").validate()

    def test_spinset_bayes_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(representation="spinset", learner="bayes").validate()

    def test_ct_with_bayes_rejected(self):
        # only the instance memory can answer UNKNOWN
        ExperimentConfig(learner="instance", ct=0.5).validate()
        with pytest.raises(ConfigError, match="ct"):
            ExperimentConfig(representation="bow", learner="bayes", ct=0.5).validate()

    @pytest.mark.parametrize("name", [
        "voxel", "support_length", "support_angle", "alpha", "beta", "sigma_nbv", "ct",
    ])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, name, value):
        with pytest.raises(ConfigError, match=name):
            ExperimentConfig(**{name: value}).validate()

    @pytest.mark.parametrize("name", ["window_mult", "breakpoint_limit", "views_per_teach"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_teacher_counts_must_be_positive(self, name, value):
        with pytest.raises(ConfigError, match=f"{name} must be at least 1"):
            ExperimentConfig(**{name: value}).validate()

    @pytest.mark.parametrize("name,least", [
        ("seed", 0), ("max_dictionary_pool", 1), ("nbv_resolution", 1),
    ])
    def test_seed_and_sizes_have_a_floor(self, name, least):
        ExperimentConfig(**{name: least}).validate()
        with pytest.raises(ConfigError, match=f"{name} must be at least {least}"):
            ExperimentConfig(**{name: least - 1}).validate()

    @pytest.mark.parametrize("name,value", [
        ("image_width", 2.5), ("good_bins", 5.5), ("topics", 3.7), ("seed", 1.0),
        ("folds", "10"),
    ])
    def test_counts_must_be_integers(self, name, value):
        ExperimentConfig(**{name: np.int64(getattr(ExperimentConfig(), name))}).validate()
        with pytest.raises(ConfigError, match=f"{name} must be an integer"):
            ExperimentConfig(**{name: value}).validate()

    @pytest.mark.parametrize("angle", [0.0, -10.0, 180.5])
    def test_support_angle_range(self, angle):
        ExperimentConfig(support_angle=180.0).validate()
        with pytest.raises(ConfigError, match="support_angle"):
            ExperimentConfig(support_angle=angle).validate()

    def test_dictionary_required(self):
        cfg = ExperimentConfig(representation="bow", learner="bayes")
        with pytest.raises(ConfigError):
            build_learner(cfg, dictionary=None)


# (function, parameter, config field): each function's default is the
# config's default for the field it is passed
DEFAULT_WIRING = [
    (compute_good, "n", "good_bins"),
    (compute_feature_set, "voxel", "voxel"),
    (compute_feature_set, "image_width", "image_width"),
    (compute_feature_set, "support_length", "support_length"),
    (compute_feature_set, "support_angle", "support_angle"),
    (build_dictionary, "v", "dictionary_size"),
    (build_dictionary, "seed", "seed"),
    (TopicModel, "alpha", "alpha"),
    (TopicModel, "beta", "beta"),
    (lda_update, "iters", "gibbs_iters"),
    (lda_infer, "iters", "gibbs_iters"),
    (local_lda_update, "iters", "gibbs_iters"),
    (local_lda_update, "k", "topics"),
    (local_lda_update, "v", "dictionary_size"),
    (local_lda_update, "alpha", "alpha"),
    (local_lda_update, "beta", "beta"),
    (local_lda_update, "seed", "seed"),
    (run_protocol, "tau", "tau"),
    (run_protocol, "window_mult", "window_mult"),
    (run_protocol, "breakpoint_limit", "breakpoint_limit"),
    (run_protocol, "views_per_teach", "views_per_teach"),
    (run_protocol, "seed", "seed"),
    (render_virtual, "resolution", "nbv_resolution"),
]


@pytest.mark.parametrize("fn,param,name", DEFAULT_WIRING,
                         ids=[f"{fn.__name__}.{param}" for fn, param, _ in DEFAULT_WIRING])
def test_config_defaults_match_function_defaults(fn, param, name):
    default = inspect.signature(fn).parameters[param].default
    value = getattr(ExperimentConfig(), name)
    assert default == value and type(default) is type(value)


class TestLearnerWrappers:
    def run_protocol_with(self, config, dataset):
        dictionary = None
        if config.representation in ("bow", "lda", "local_lda"):
            clouds = [c for views in dataset.views.values() for c in views]
            dictionary = build_dictionary_from_clouds(clouds, config)
        learner = build_learner(config, dictionary)
        return run_protocol(dataset, learner, seed=1)

    def test_good_instance_protocol(self, tiny_dataset):
        cfg = ExperimentConfig(representation="good", learner="instance", good_bins=5)
        log, summary = self.run_protocol_with(cfg, tiny_dataset)
        assert summary.nlc == 3
        assert summary.gca > 0.8

    def test_spinset_instance_protocol(self, tiny_dataset):
        cfg = ExperimentConfig(
            representation="spinset", learner="instance", voxel=0.025,
            support_length=0.05, nocd_mode="A2",
        )
        log, summary = self.run_protocol_with(cfg, tiny_dataset)
        assert summary.nlc >= 2
        assert summary.qci > 0

    def test_bow_bayes_protocol(self, tiny_dataset):
        cfg = ExperimentConfig(
            representation="bow", learner="bayes", voxel=0.025, dictionary_size=20
        )
        log, summary = self.run_protocol_with(cfg, tiny_dataset)
        assert summary.nlc >= 2

    def test_local_lda_instance_protocol(self, tiny_dataset):
        cfg = ExperimentConfig(
            representation="local_lda", learner="instance", voxel=0.025,
            dictionary_size=20, topics=8, gibbs_iters=10,
        )
        log, summary = self.run_protocol_with(cfg, tiny_dataset)
        assert summary.nlc >= 2

    def test_lda_bayes_protocol(self, tiny_dataset):
        cfg = ExperimentConfig(
            representation="lda", learner="bayes", voxel=0.025,
            dictionary_size=20, topics=8, gibbs_iters=10,
        )
        log, summary = self.run_protocol_with(cfg, tiny_dataset)
        assert summary.nlc >= 2

    def test_spinset_fallback_honours_ct(self, tiny_dataset):
        # One instance per category: no ICD yet, so classify takes the
        # nearest-instance fallback.
        from openobj.learning import UNKNOWN, set_distance

        box, sphere = tiny_dataset.views["box"][0], tiny_dataset.views["sphere"][0]
        plain = build_learner(ExperimentConfig(representation="spinset", voxel=0.025))
        plain.teach("box", box)
        gap = set_distance(plain.features.get(sphere), plain.features.get(box))
        assert gap > 0
        assert plain.classify(sphere) == "box"
        strict = build_learner(
            ExperimentConfig(representation="spinset", voxel=0.025, ct=gap / 2)
        )
        strict.teach("box", box)
        assert all(c.icd is None for c in strict.memory)
        assert strict.classify(box) == "box"
        assert strict.classify(sphere) == UNKNOWN

    @pytest.mark.parametrize("representation,learner", [
        (rep, mem) for rep in REPRESENTATIONS for mem in LEARNERS
        if (rep, mem) != ("spinset", "bayes")
    ])
    def test_classify_before_teach_raises(self, tiny_dataset, representation, learner):
        cfg = ExperimentConfig(
            representation=representation, learner=learner, voxel=0.025,
            dictionary_size=20, topics=8, gibbs_iters=10,
        )
        dictionary = None
        if representation in ("bow", "lda", "local_lda"):
            dictionary = build_dictionary_from_clouds(tiny_dataset.views["box"][:2], cfg)
        learner = build_learner(cfg, dictionary)
        with pytest.raises(LearningError, match="no categories"):
            learner.classify(tiny_dataset.views["cone"][0])

    @pytest.mark.parametrize("learner_kind", LEARNERS)
    def test_local_lda_queries_go_to_the_memory_scorer(self, tiny_dataset, learner_kind):
        # the query is represented in each category's own topic space and
        # scored there: chi-squared to the nearest instance, or the Bayes
        # log posterior, with ties to the earliest taught label
        cfg = ExperimentConfig(
            representation="local_lda", learner=learner_kind, voxel=0.025,
            dictionary_size=20, topics=8, gibbs_iters=10,
        )
        clouds = [c for views in tiny_dataset.views.values() for c in views]
        learner = build_learner(cfg, build_dictionary_from_clouds(clouds, cfg))
        for label in ("cone", "box", "sphere"):
            for cloud in tiny_dataset.views[label][:3]:
                learner.teach(label, cloud)
        scorer = "bayes_classify" if learner.bayes else "classify_instances"
        real, predictions = getattr(pipelines, scorer), []

        def record(*args):
            predictions.append(real(*args))
            return predictions[-1]

        with mock.patch.object(pipelines, scorer, side_effect=record):
            for label in ("box", "sphere", "cone"):
                for cloud in tiny_dataset.views[label][3:6]:
                    doc = learner._doc(cloud)
                    views = {lab: lda_infer(m, doc, cfg.gibbs_iters)
                             for lab, m in learner.models.items()}
                    if learner.bayes:
                        scores = {lab: log_posterior(learner.memory, lab, views[lab].counts)
                                  for lab in learner.memory.categories}
                        best = max(scores, key=scores.get)
                    else:
                        scores = {c.label: min(chi2(views[c.label].theta, inst)
                                               for inst in c.instances)
                                  for c in learner.memory}
                        best = min(scores, key=scores.get)
                    assert learner.classify(cloud) == best
                    assert predictions[-1].scores == scores
                    assert list(scores) == ["cone", "box", "sphere"]
        assert len(predictions) == 9

    def test_stored_instances_match_log(self, tiny_dataset):
        cfg = ExperimentConfig(representation="good", learner="instance", good_bins=5)
        learner = build_learner(cfg)
        log, summary = run_protocol(tiny_dataset, learner, seed=2)
        taught = sum(1 for e in log.events if e.action in ("teach", "correct"))
        assert learner.stored_instances() == taught


class TestCvPipeline:
    def test_good_cv_runs(self, tiny_dataset):
        cfg = ExperimentConfig(representation="good", learner="instance", good_bins=5)
        cm = kfold(tiny_dataset, k=5, pipeline=make_cv_pipeline(cfg), seed=0)
        assert metrics(cm)["accuracy"] > 0.8

    def test_lda_instance_cv_runs(self, tiny_dataset):
        cfg = ExperimentConfig(
            representation="lda", learner="instance", voxel=0.025,
            dictionary_size=20, topics=8, gibbs_iters=10,
        )
        cm = kfold(tiny_dataset, k=3, pipeline=make_cv_pipeline(cfg), seed=0)
        assert cm.total == 30


class TestFeatureCache:
    def test_freed_cloud_id_never_serves_stale_features(self, tiny_dataset):
        # Each view is copied into a fresh cloud that is dropped right after
        # use, so CPython readily hands a later copy the same id. The cache
        # must still return each copy's own spin images and GOOD bins.
        from openobj.descriptors import compute_feature_set, compute_good
        from openobj.pipelines import _FeatureCache
        from openobj.pointcloud import PointCloud

        config = ExperimentConfig(representation="spinset")
        cache = _FeatureCache(config)
        views = [v for views in tiny_dataset.views.values() for v in views[:3]]
        for view in views:
            cloud = PointCloud(view.points.copy())
            got = cache.get(cloud)
            want = compute_feature_set(
                cloud, voxel=config.voxel, image_width=config.image_width,
                support_length=config.support_length, support_angle=config.support_angle,
            ).as_matrix()
            assert np.array_equal(got, want)
            del cloud
        for view in views:
            cloud = PointCloud(view.points.copy())
            want = compute_good(cloud, n=config.good_bins).bins
            assert np.array_equal(cache.good(cloud), want)
            del cloud

    @pytest.mark.parametrize("representation", ["good", "spinset"])
    def test_one_off_queries_leave_no_entries(self, tiny_dataset, representation):
        # Table-top candidates are classified once and dropped; their
        # features must go with them.
        from openobj.pointcloud import PointCloud

        learner = build_learner(ExperimentConfig(representation=representation, voxel=0.02))
        taught = [(label, views[:2]) for label, views in tiny_dataset.views.items()]
        for label, views in taught:
            for view in views:
                learner.teach(label, view)
        query = tiny_dataset.views["box"][5]
        for _ in range(50):
            learner.classify(PointCloud(query.points.copy()))
        assert len(learner.features._store) == 6

    def test_clouds_do_not_keep_a_discarded_cache_alive(self, tiny_dataset):
        import gc
        import weakref

        from openobj.pipelines import _FeatureCache

        cache = _FeatureCache(ExperimentConfig())
        cloud = tiny_dataset.views["box"][0]
        cache.good(cloud)
        ref = weakref.ref(cache)
        del cache
        gc.collect()
        assert ref() is None

    def test_cv_computes_good_once_per_view(self, tiny_dataset, monkeypatch):
        from openobj import pipelines

        calls = []
        original = pipelines.compute_good

        def counted(cloud, *args, **kwargs):
            calls.append(cloud)
            return original(cloud, *args, **kwargs)

        monkeypatch.setattr(pipelines, "compute_good", counted)
        cfg = ExperimentConfig(representation="good", learner="instance", good_bins=5)
        kfold(tiny_dataset, k=5, pipeline=make_cv_pipeline(cfg), seed=0)
        assert len(calls) == len({id(c) for c in calls}) == 30
