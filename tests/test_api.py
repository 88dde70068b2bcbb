"""Each library module's ``__all__`` lists exactly its public names, each
frozen parameter record checks every field by the one field rule, each
JSON record keeps its keys, each record that holds arrays compares by
identity, every count and seed argument takes an integer, the point-cloud
stages refuse non-finite points, and random streams and JSON reads go
through the intake rules of ``errors``."""

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
    bayes_teach,
    instance_teach,
)
from openobj.nbv import CameraPose, NbvError, rank_views, render_virtual, select_next_view
from openobj.pipelines import ConfigError, ExperimentConfig, collect_feature_pool
from openobj.pointcloud import PointCloud, PointCloudError, ReferenceFrame, compute_reference_frame
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
# (argument, its least value, its module's error, a call that passes it)
COUNT_ARGUMENTS = [
    ("iters", 1, RepresentationError, lambda n: lda_update(TopicModel(k=2, v=3), [0, 1], n)),
    ("iters", 1, RepresentationError, lambda n: lda_infer(TopicModel(k=2, v=3), [0, 1], n)),
    ("dictionary size", 2, RepresentationError,
     lambda n: build_dictionary(np.eye(4), v=n)),
    ("k", 2, EvaluationError, lambda n: kfold(dataset(), n, pipeline=None)),
    ("window_mult", 1, EvaluationError, lambda n: run_protocol(dataset(), None, window_mult=n)),
    ("breakpoint_limit", 1, EvaluationError,
     lambda n: run_protocol(dataset(), None, breakpoint_limit=n)),
    ("views_per_teach", 1, EvaluationError,
     lambda n: run_protocol(dataset(), None, views_per_teach=n)),
    ("window_mult", 1, EvaluationError, lambda n: replay_accuracies(ProtocolLog(), n)),
    ("views_per_category", 1, SynthgenError,
     lambda n: generate_dataset([CategorySpec("a", "sphere", (0.1,))], n)),
    ("iterations", 1, SegmentationError, lambda n: ransac_plane(CLOUD, 0.1, n, 0)),
    ("image width", 1, DescriptorError,
     lambda n: compute_spin_image(CLOUD, np.zeros(3), np.array([0.0, 0.0, 1.0]), n)),
]


@pytest.mark.parametrize("name,least,error,call", COUNT_ARGUMENTS,
                         ids=[f"{name}-{error.__name__}" for name, _, error, _ in COUNT_ARGUMENTS])
@pytest.mark.parametrize("value", ["fraction", "bool", "below"])
def test_count_arguments_take_integers_from_their_floor(name, least, error, call, value):
    bad = {"fraction": least + 0.5, "bool": True, "below": least - 1}[value]
    with pytest.raises(error, match=f"^{name} must be an integer of at least {least}"):
        call(bad)


POSE = CameraPose(np.eye(3), np.zeros(3))
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
