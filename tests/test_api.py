"""Each library module's ``__all__`` lists exactly its public names, each
frozen parameter record checks every field by the one field rule, each
JSON record keeps its keys, each record that holds arrays compares by
identity, every count and seed argument takes an integer, every real
argument a finite number in its range, every number argument has one of
these rules, both rotation records refuse the same matrices, the
point-cloud stages refuse non-finite points, and random streams and JSON
reads go through the intake rules of ``errors``."""

import ast
import importlib
import inspect
import math
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import openobj
from openobj.descriptors import (
    DescriptorError,
    FeatureSet,
    GoodDescriptor,
    compute_feature_set,
    compute_good,
    compute_spin_image,
    estimate_normals,
    project_distribution,
)
from openobj.errors import as_array, read_json, read_text
from openobj.evaluation import (
    ConfusionMatrix,
    EvaluationError,
    LabeledDataset,
    ProtocolEvent,
    ProtocolLog,
    kfold,
    pick_rho,
    replay_accuracies,
    run_protocol,
)
from openobj.learning import (
    BayesCategory,
    BayesMemory,
    InstanceCategory,
    InstanceMemory,
    LearningError,
    bayes_teach,
    classify_instances,
    instance_teach,
    lowest_score,
)
from openobj.nbv import (
    CameraPose,
    NbvError,
    rank_views,
    render_virtual,
    select_next_view,
    weighted_entropy,
)
from openobj.pipelines import ConfigError, ExperimentConfig, collect_feature_pool
from openobj.pointcloud import (
    PointCloud,
    PointCloudError,
    ReferenceFrame,
    compute_reference_frame,
    crop_cube,
    voxel_downsample,
)
from openobj.representations import (
    Dictionary,
    RepresentationError,
    TopicHistogram,
    TopicModel,
    build_dictionary,
    lda_infer,
    lda_update,
    local_lda_update,
)
from openobj.segmentation import (
    Plane,
    SegmentationError,
    SegmentationParams,
    euclidean_cluster,
    euclidean_cluster_indices,
    extract_prism,
    ransac_plane,
)
from openobj.synthgen import (
    CategorySpec,
    ShapeSpec,
    SynthgenError,
    generate_dataset,
    generate_scene,
)

LIBRARY_MODULES = [
    "descriptors", "evaluation", "learning", "nbv", "pipelines", "pointcloud",
    "representations", "segmentation", "synthgen",
]


@pytest.mark.parametrize("name", LIBRARY_MODULES)
def test_all_lists_every_public_definition(name):
    module = importlib.import_module(f"openobj.{name}")
    assert all(hasattr(module, exported) for exported in module.__all__)
    defined = [
        attr for attr, value in vars(module).items()
        if not attr.startswith("_")
        and (inspect.isfunction(value) or inspect.isclass(value))
        and value.__module__ == module.__name__
    ]
    assert sorted(set(defined) - set(module.__all__)) == []


SHAPE = {"kind": "box", "dimensions": (0.1, 0.1, 0.1)}
# (record, its module's error, the arguments it needs)
FROZEN_RECORDS = [
    (ExperimentConfig, ConfigError, {}),
    (SegmentationParams, SegmentationError, {}),
    (ShapeSpec, SynthgenError, SHAPE),
    (CategorySpec, SynthgenError, {"name": "box", **SHAPE}),
]
# a value each annotation refuses
REFUSED = {"int": 2.5, "float": math.nan, "float | None": math.nan}


@pytest.mark.parametrize("record,error,required", FROZEN_RECORDS,
                         ids=[r.__name__ for r, _, _ in FROZEN_RECORDS])
def test_field_rule_covers_every_field(record, error, required):
    record(**required)
    checked = [f for f in fields(record) if f.type in REFUSED]
    assert checked
    for f in checked:
        with pytest.raises(error, match=f"^{f.name} must be an? "):
            record(**{**required, f.name: REFUSED[f.type]})


def sample_records():
    """One record of each JSON record class, built as the library builds it."""
    instances = InstanceCategory("mug")
    for x in ([0.0, 1.0], [1.0, 0.0], [2.0, 2.0]):
        instances.add(np.array(x))
    model = TopicModel(k=2, v=3)
    lda_update(model, [0, 2, 2], iters=2)
    memory = BayesMemory()
    bayes_teach(memory, "mug", np.array([1, 0, 2]))
    taught = InstanceMemory()
    instance_teach(taught, "mug", np.array([[1, 2], [3, 4]], dtype=np.uint8))
    return [
        Dictionary(np.eye(2)),
        model,
        instances,
        memory.categories["mug"],
        memory,
        ProtocolEvent(iteration=1, action="ask", category="mug", view_id=4, predicted="mug",
                      correct=True, accuracy=1.0, known=2),
        taught,
    ]


JSON_KEYS = {
    Dictionary: {"words"},
    TopicModel: {"scope", "k", "v", "alpha", "beta", "rng_seed", "n_updates", "n_wk", "n_k"},
    InstanceCategory: {"label", "instances"},
    BayesCategory: {"n_k", "accumulators"},
    BayesMemory: {"categories"},
    InstanceMemory: {"categories"},
    ProtocolEvent: {"iteration", "action", "category", "view_id", "predicted", "correct",
                    "accuracy", "known"},
}


def test_json_keys_are_pinned():
    records = sample_records()
    assert {type(r) for r in records} == set(JSON_KEYS)
    for record in records:
        assert set(record.to_json_dict()) == JSON_KEYS[type(record)]
    assert set(records[4].to_json_dict()["categories"]["mug"]) == JSON_KEYS[BayesCategory]
    assert set(records[6].to_json_dict()["categories"]["mug"]) == JSON_KEYS[InstanceCategory]


# records that hold arrays; two calls of a builder give records of equal contents
ARRAY_RECORDS = {
    ReferenceFrame: lambda: ReferenceFrame(np.zeros(3), np.eye(3)),
    Plane: lambda: Plane(np.array([0.0, 0, 1]), 0.5, [1, 2]),
    FeatureSet: lambda: FeatureSet(np.ones((2, 4)), np.zeros((2, 3)), np.zeros((2, 3))),
    GoodDescriptor: lambda: GoodDescriptor(
        np.ones(3), 1, ReferenceFrame(np.zeros(3), np.eye(3)), (0, 1, 2)
    ),
    Dictionary: lambda: Dictionary(np.eye(2)),
    TopicHistogram: lambda: TopicHistogram(np.array([0.25, 0.75]), np.array([1, 3])),
    TopicModel: lambda: TopicModel(k=2, v=3),
    InstanceCategory: lambda: InstanceCategory("mug", [[1.0, 2.0], [3.0, 4.0]]),
    InstanceMemory: lambda: InstanceMemory({"mug": InstanceCategory("mug", [[1.0, 2.0]])}),
    BayesCategory: lambda: BayesCategory(1, np.array([1, 2])),
    BayesMemory: lambda: BayesMemory({"mug": BayesCategory(1, np.array([1, 2]))}),
    ConfusionMatrix: lambda: ConfusionMatrix(("a", "b"), np.eye(2, dtype=int)),
    CameraPose: lambda: CameraPose(np.eye(3), np.zeros(3)),
    ShapeSpec: lambda: ShapeSpec(**SHAPE),
}


@pytest.mark.parametrize("build", ARRAY_RECORDS.values(), ids=[c.__name__ for c in ARRAY_RECORDS])
def test_array_records_compare_by_identity(build):
    a, b = build(), build()
    assert a == a and not a == b and a != b
    assert hash(a) == hash(a) and len({a, b}) == 2


def dataset():
    return LabeledDataset(views={"a": [0, 1], "b": [2, 3]})


CLOUD = PointCloud(np.random.default_rng(0).uniform(size=(20, 3)))
POSE = CameraPose(np.eye(3), np.zeros(3))
UP = np.array([0.0, 0.0, 1.0])
# (function, parameter, the message's name for it, its least value, its
# module's error, a call that passes it)
COUNT_ARGUMENTS = [
    (lda_update, "iters", "iters", 1, RepresentationError,
     lambda n: lda_update(TopicModel(k=2, v=3), [0, 1], n)),
    (lda_infer, "iters", "iters", 1, RepresentationError,
     lambda n: lda_infer(TopicModel(k=2, v=3), [0, 1], n)),
    (build_dictionary, "v", "dictionary size", 2, RepresentationError,
     lambda n: build_dictionary(np.eye(4), v=n)),
    (kfold, "k", "k", 2, EvaluationError, lambda n: kfold(dataset(), n, pipeline=None)),
    (run_protocol, "window_mult", "window_mult", 1, EvaluationError,
     lambda n: run_protocol(dataset(), None, window_mult=n)),
    (run_protocol, "breakpoint_limit", "breakpoint_limit", 1, EvaluationError,
     lambda n: run_protocol(dataset(), None, breakpoint_limit=n)),
    (run_protocol, "views_per_teach", "views_per_teach", 1, EvaluationError,
     lambda n: run_protocol(dataset(), None, views_per_teach=n)),
    (replay_accuracies, "window_mult", "window_mult", 1, EvaluationError,
     lambda n: replay_accuracies(ProtocolLog(), n)),
    (generate_dataset, "views_per_category", "views_per_category", 1, SynthgenError,
     lambda n: generate_dataset([CategorySpec("a", "sphere", (0.1,))], n)),
    (ransac_plane, "iterations", "iterations", 1, SegmentationError,
     lambda n: ransac_plane(CLOUD, 0.1, n, 0)),
    (compute_spin_image, "image_width", "image width", 1, DescriptorError,
     lambda n: compute_spin_image(CLOUD, np.zeros(3), UP, n)),
    (compute_feature_set, "image_width", "image width", 1, DescriptorError,
     lambda n: compute_feature_set(CLOUD, image_width=n)),
    (project_distribution, "n", "bins per side", 2, DescriptorError,
     lambda n: project_distribution(CLOUD, "XoY", 3.0, n)),
    (compute_good, "n", "bins per side", 2, DescriptorError, lambda n: compute_good(CLOUD, n)),
    (run_protocol, "rho", "rho", 1, EvaluationError,
     lambda n: run_protocol(dataset(), None, rho=n)),
    (render_virtual, "resolution", "resolution", 1, NbvError,
     lambda n: render_virtual(CLOUD, POSE, n)),
    (collect_feature_pool, "cap", "cap", 1, RepresentationError,
     lambda n: collect_feature_pool([np.eye(4)], n, 0)),
    (local_lda_update, "iters", "iters", 1, RepresentationError,
     lambda n: local_lda_update({}, "mug", [0, 1], n, k=2, v=3)),
    (euclidean_cluster_indices, "min_pts", "min_pts", 1, SegmentationError,
     lambda n: euclidean_cluster_indices(CLOUD, 0.1, n)),
    (euclidean_cluster_indices, "max_pts", "max_pts", 1, SegmentationError,
     lambda n: euclidean_cluster_indices(CLOUD, 0.1, 1, n)),
    (euclidean_cluster, "min_pts", "min_pts", 1, SegmentationError,
     lambda n: euclidean_cluster(CLOUD, 0.1, n)),
    (euclidean_cluster, "max_pts", "max_pts", 1, SegmentationError,
     lambda n: euclidean_cluster(CLOUD, 0.1, 1, n)),
    (generate_scene, "n_outliers", "n_outliers", 0, SynthgenError,
     lambda n: generate_scene([], table_points=50, n_outliers=n)),
]


@pytest.mark.parametrize("name,least,error,call", [entry[2:] for entry in COUNT_ARGUMENTS],
                         ids=[f"{entry[2]}-{entry[4].__name__}" for entry in COUNT_ARGUMENTS])
@pytest.mark.parametrize("value", ["fraction", "bool", "below"])
def test_count_arguments_take_integers_from_their_floor(name, least, error, call, value):
    bad = {"fraction": least + 0.5, "bool": True, "below": least - 1}[value]
    with pytest.raises(error, match=f"^{name} must be an integer of at least {least}"):
        call(bad)


# what no real argument takes, and the values refused by one that must be
# positive, by one that may be any finite number, and by one that may be None
NOT_REALS = (True, "1", None, math.nan, math.inf)
NOT_POSITIVE = (*NOT_REALS, 0.0, -1.0)
NOT_FINITE = (*NOT_REALS, -math.inf)
NOT_OPTIONAL_REALS = (True, "1", math.nan, math.inf, -math.inf)
PLANE = Plane(normal=UP, d=0.0, inlier_indices=[0, 1, 2])
# (function, parameter, the message's name for it, its module's error, a
# call that passes it, the values it refuses)
REAL_ARGUMENTS = [
    (crop_cube, "side", "cube side", PointCloudError,
     lambda x: crop_cube(CLOUD, np.zeros(3), x), NOT_POSITIVE),
    (voxel_downsample, "voxel", "voxel size", PointCloudError,
     lambda x: voxel_downsample(CLOUD, x), NOT_POSITIVE),
    (ransac_plane, "tau", "tau", SegmentationError,
     lambda x: ransac_plane(CLOUD, x, 5, 0), NOT_POSITIVE),
    (euclidean_cluster_indices, "link_dist", "link_dist", SegmentationError,
     lambda x: euclidean_cluster_indices(CLOUD, x), NOT_POSITIVE),
    (euclidean_cluster, "link_dist", "link_dist", SegmentationError,
     lambda x: euclidean_cluster(CLOUD, x), NOT_POSITIVE),
    (extract_prism, "min_h", "min_h", SegmentationError,
     lambda x: extract_prism(CLOUD, PLANE, x, 0.5), NOT_FINITE),
    (extract_prism, "max_h", "max_h", SegmentationError,
     lambda x: extract_prism(CLOUD, PLANE, 0.0, x), (*NOT_FINITE, 0.0)),
    (compute_spin_image, "support_length", "support length", DescriptorError,
     lambda x: compute_spin_image(CLOUD, np.zeros(3), UP, support_length=x), NOT_POSITIVE),
    (compute_spin_image, "support_angle", "support angle", DescriptorError,
     lambda x: compute_spin_image(CLOUD, np.zeros(3), UP, support_angle=x),
     (*NOT_POSITIVE, 180.5)),
    (compute_feature_set, "voxel", "voxel size", DescriptorError,
     lambda x: compute_feature_set(CLOUD, voxel=x), NOT_POSITIVE),
    (compute_feature_set, "support_length", "support length", DescriptorError,
     lambda x: compute_feature_set(CLOUD, support_length=x), NOT_POSITIVE),
    (compute_feature_set, "support_angle", "support angle", DescriptorError,
     lambda x: compute_feature_set(CLOUD, support_angle=x), (*NOT_POSITIVE, 180.5)),
    (project_distribution, "l", "enclosing square side", DescriptorError,
     lambda x: project_distribution(CLOUD, "XoY", x, 2), NOT_POSITIVE),
    (weighted_entropy, "sigma", "sigma", NbvError,
     lambda x: weighted_entropy(1.0, POSE, POSE, x), NOT_POSITIVE),
    (weighted_entropy, "h", "entropy h", NbvError,
     lambda x: weighted_entropy(x, POSE, POSE, 1.0), (*NOT_FINITE, -1.0)),
    (local_lda_update, "alpha", "alpha", RepresentationError,
     lambda x: local_lda_update({}, "mug", [0, 1], k=2, v=3, alpha=x), NOT_POSITIVE),
    (local_lda_update, "beta", "beta", RepresentationError,
     lambda x: local_lda_update({}, "mug", [0, 1], k=2, v=3, beta=x), NOT_POSITIVE),
    (lowest_score, "ct", "ct", LearningError,
     lambda x: lowest_score({"mug": 1.0}, x), NOT_OPTIONAL_REALS),
    (classify_instances, "ct", "ct", LearningError,
     lambda x: classify_instances(np.zeros(3), InstanceMemory(), "nn_fixed", ct=x),
     NOT_OPTIONAL_REALS),
    (run_protocol, "tau", "tau", EvaluationError,
     lambda x: run_protocol(dataset(), None, tau=x), (*NOT_POSITIVE, 1.0)),
    (pick_rho, "alc", "ALC", EvaluationError, lambda x: pick_rho(x), (*NOT_FINITE, 2.0**53)),
    (kfold, "jobs", "jobs", EvaluationError,
     lambda x: kfold(dataset(), 2, pipeline=None, jobs=x), (*NOT_POSITIVE, 2)),
    (generate_scene, "table_height", "table_height", SynthgenError,
     lambda x: generate_scene([], table_height=x, table_points=50), NOT_FINITE),
]


@pytest.mark.parametrize("name,error,call,refused", [entry[2:] for entry in REAL_ARGUMENTS],
                         ids=[f"{entry[0].__name__}-{entry[1]}" for entry in REAL_ARGUMENTS])
def test_real_arguments_take_finite_numbers_in_their_range(name, error, call, refused):
    for value in refused:
        with pytest.raises(error, match=f"^{name} must"):
            call(value)


# int- or float-annotated parameters that no table above holds, and why
UNTABLED_NUMBERS = {
    (local_lda_update, "k"): "builds a new category's TopicModel, whose k field refuses it",
    (local_lda_update, "v"): "builds a new category's TopicModel, whose v field refuses it",
    (generate_scene, "table_points"): "builds the table's ShapeSpec, whose points field checks it",
}


def test_every_number_argument_has_a_rule():
    numbers = set()
    for module_name in LIBRARY_MODULES:
        module = importlib.import_module(f"openobj.{module_name}")
        for attr in module.__all__:
            value = getattr(module, attr)
            if not inspect.isfunction(value):
                continue
            for name, parameter in inspect.signature(value).parameters.items():
                if str(parameter.annotation).removesuffix(" | None") in ("int", "float"):
                    numbers.add((value, name))
    tabled = ({entry[:2] for entry in COUNT_ARGUMENTS + REAL_ARGUMENTS}
              | {(function, "seed") for function, _, _ in SEED_ARGUMENTS})
    assert numbers - tabled == set(UNTABLED_NUMBERS)


NOT_ROTATIONS = {
    "shear": [[1.0, 1, 0], [0, 1, 0], [0, 0, 1]],
    "scale": np.diag([2.0, 0.5, 1.0]),
    "off-by-2e-9": np.eye(3) + np.diag([2e-9, -2e-9, 0.0]),
    "reflection": np.diag([1.0, 1.0, -1.0]),
}
# record -> (its module's error, its matrix's name, a build from (matrix, origin))
ROTATION_RECORDS = {
    "CameraPose": (NbvError, "camera rotation", lambda r, t: CameraPose(r, t)),
    "ReferenceFrame": (PointCloudError, "frame axes", lambda r, t: ReferenceFrame(t, r)),
}


@pytest.mark.parametrize("record", ROTATION_RECORDS)
@pytest.mark.parametrize("case", NOT_ROTATIONS)
def test_rotation_records_refuse_the_same_matrices(record, case):
    error, name, build = ROTATION_RECORDS[record]
    build(np.eye(3) + np.diag([4e-10, -4e-10, 0.0]), np.zeros(3))  # rounding is accepted
    with pytest.raises(error, match=f"^{name} must be orthonormal with determinant \\+1"):
        build(NOT_ROTATIONS[case], np.zeros(3))


@pytest.mark.parametrize("record", ROTATION_RECORDS)
@pytest.mark.parametrize("part", ["matrix", "origin"])
@pytest.mark.parametrize("value", [math.nan, math.inf], ids=repr)
def test_rotation_records_refuse_non_finite_numbers(record, part, value):
    error, _, build = ROTATION_RECORDS[record]
    bad = np.zeros(3)
    bad[1] = value
    with pytest.raises(error, match="finite"):
        if part == "matrix":
            build(np.eye(3) + np.diag(bad), np.zeros(3))
        else:
            build(np.eye(3), bad)
# (function, its module's error, a call that passes it the seed)
SEED_ARGUMENTS = [
    (kfold, EvaluationError, lambda s: kfold(dataset(), 2, pipeline=None, seed=s)),
    (run_protocol, EvaluationError, lambda s: run_protocol(dataset(), None, seed=s)),
    (pick_rho, EvaluationError, lambda s: pick_rho(10.0, s)),
    (select_next_view, NbvError, lambda s: select_next_view([("a", 1.0), ("b", 2.0)], s)),
    (rank_views, NbvError, lambda s: rank_views(CLOUD, [POSE], POSE, 1.0, seed=s)),
    (collect_feature_pool, RepresentationError,
     lambda s: collect_feature_pool([np.eye(4)], 2, s)),
    (build_dictionary, RepresentationError, lambda s: build_dictionary(np.eye(4), v=2, seed=s)),
    (local_lda_update, RepresentationError,
     lambda s: local_lda_update({}, "mug", [0, 1], k=2, v=3, seed=s)),
    (ransac_plane, SegmentationError, lambda s: ransac_plane(CLOUD, 0.1, 5, s)),
    (generate_dataset, SynthgenError,
     lambda s: generate_dataset([CategorySpec("a", "sphere", (0.1,))], 1, seed=s)),
    (generate_scene, SynthgenError, lambda s: generate_scene([], table_points=50, seed=s)),
]
# the records that check their seed field when built: (error, required arguments)
SEEDED_RECORDS = {
    ExperimentConfig: (ConfigError, {}),
    SegmentationParams: (SegmentationError, {}),
    ShapeSpec: (SynthgenError, SHAPE),
    TopicModel: (RepresentationError, {"k": 2, "v": 3}),
}
NOT_SEEDS = [-1, 1.5, None, True, "0"]


@pytest.mark.parametrize("function,error,call", SEED_ARGUMENTS,
                         ids=[function.__name__ for function, _, _ in SEED_ARGUMENTS])
@pytest.mark.parametrize("seed", NOT_SEEDS, ids=repr)
def test_seed_arguments_take_integers_from_zero(function, error, call, seed):
    with pytest.raises(error, match="^seed must be an integer of at least 0"):
        call(seed)


def seed_parameter(value):
    """The name of ``value``'s seed parameter, or None."""
    try:
        names = inspect.signature(value).parameters
    except (TypeError, ValueError):
        return None
    return next((name for name in names if name.endswith("seed")), None)


def test_every_seed_is_checked():
    public = {getattr(importlib.import_module(f"openobj.{name}"), attr)
              for name in LIBRARY_MODULES
              for attr in importlib.import_module(f"openobj.{name}").__all__}
    seeded = {value for value in public if callable(value) and seed_parameter(value)}
    assert seeded == {function for function, _, _ in SEED_ARGUMENTS} | set(SEEDED_RECORDS)
    for record, (error, required) in SEEDED_RECORDS.items():
        for seed in NOT_SEEDS:
            with pytest.raises(error, match=seed_parameter(record)):
                record(**required, **{seed_parameter(record): seed})


def cloud_with(value):
    points = np.random.default_rng(1).uniform(size=(100, 3))
    points[37, 1] = value
    return PointCloud(points)


# (its module's error, a stage that reads every point)
NONFINITE_POINTS = [
    (PointCloudError, compute_reference_frame),
    (PointCloudError, compute_good),
    (DescriptorError, estimate_normals),
    (DescriptorError, compute_feature_set),
    (SegmentationError, lambda cloud: euclidean_cluster_indices(cloud, 0.1)),
    (SegmentationError, lambda cloud: euclidean_cluster(cloud, 0.1)),
    (NbvError, lambda cloud: render_virtual(cloud, POSE)),
    (NbvError, lambda cloud: rank_views(cloud, [POSE], POSE, 1.0)),
]


@pytest.mark.parametrize("error,stage", NONFINITE_POINTS,
                         ids=["compute_reference_frame", "compute_good", "estimate_normals",
                              "compute_feature_set", "euclidean_cluster_indices",
                              "euclidean_cluster", "render_virtual", "rank_views"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=repr)
def test_point_stages_refuse_non_finite_points(error, stage, value):
    stage(cloud_with(0.5))
    with pytest.raises(error, match="^points must be finite$"):
        stage(cloud_with(value))


class TestIntakeRules:
    def test_as_array_reads_a_ragged_nesting_as_none(self):
        assert as_array([[1, 2], [3]]).tolist() is None
        assert as_array([[1, 2], [3, 4]]).tolist() == [[1, 2], [3, 4]]

    def test_read_text_refuses_a_non_ascii_file(self, tmp_path):
        path = tmp_path / "view.txt"
        path.write_bytes(b"x = 1\n\xff\n")
        with pytest.raises(SegmentationError, match=f"^{re.escape(str(path))}: not an ASCII file$"):
            read_text(path, SegmentationError)

    @pytest.mark.parametrize("content,message", [
        (b"[1, \xff]", "not an ASCII file$"),
        (b"[1, 2", "not a JSON file: "),
        (b"1" * 5000, "not a JSON file: "),
        (b"[" * 100_000, "not a JSON file: "),
    ], ids=["not-ascii", "not-json", "huge-int", "nested-too-deep"])
    def test_read_json_raises_one_typed_error(self, tmp_path, content, message):
        path = tmp_path / "poses.json"
        path.write_bytes(content)
        with pytest.raises(NbvError, match=f"^{re.escape(str(path))}: {message}"):
            read_json(path, NbvError)

    def test_read_json_returns_the_value(self, tmp_path):
        path = tmp_path / "words.json"
        path.write_text('{"words": [[1.5, 2]]}')
        assert read_json(path, NbvError) == {"words": [[1.5, 2]]}


# call name -> the only places that may make it: a module, or a module's function
CALLS_ALLOWED = {
    "default_rng": {"errors.py", "representations.py:lda_update", "representations.py:lda_infer"},
    "json.load": {"errors.py"},
    "json.loads": {"errors.py"},
}


def calls_made(tree, module):
    """(call name, module, enclosing function) of each call in CALLS_ALLOWED."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
                    name = f"{func.value.id}.{func.attr}" if func.value.id == "json" else name
                if name in CALLS_ALLOWED:
                    found.append((name, module, function))
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
            visit(child, inner or function)

    visit(tree, None)
    return found


def test_streams_and_json_reads_go_through_errors():
    made = []
    for path in sorted(Path(openobj.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        made += calls_made(tree, path.name)
        json_imports = [node for node in ast.walk(tree)
                        if isinstance(node, ast.ImportFrom) and node.module == "json"]
        assert not json_imports, f"{path.name} imports names from json"
    stray = [(name, f"{module}:{function}") for name, module, function in made
             if not {module, f"{module}:{function}"} & CALLS_ALLOWED[name]]
    assert stray == []
    assert {("default_rng", "errors.py", "seeded"), ("json.loads", "errors.py", "read_json"),
            ("default_rng", "representations.py", "lda_update"),
            ("default_rng", "representations.py", "lda_infer")} <= set(made)
