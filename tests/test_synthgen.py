"""Synthetic generators: determinism, geometry and provenance labels."""

import numpy as np
import pytest

from openobj.synthgen import (
    CategorySpec,
    ShapeSpec,
    SynthgenError,
    generate_dataset,
    generate_scene,
    generate_view,
)


class TestGenerateView:
    def test_noiseless_sphere_radius(self):
        spec = ShapeSpec(kind="sphere", dimensions=(0.1,), points=500, seed=3)
        cloud = generate_view(spec)
        radii = np.linalg.norm(cloud.points, axis=1)
        np.testing.assert_allclose(radii, 0.1, atol=1e-9)

    @pytest.mark.parametrize("sigma", [-1.0, float("nan"), float("inf")])
    def test_bad_noise_sigma_rejected(self, sigma):
        with pytest.raises(SynthgenError, match="noise_sigma"):
            ShapeSpec(kind="sphere", dimensions=(0.1,), noise_sigma=sigma)

    def test_same_seed_identical(self):
        spec = ShapeSpec(kind="box", dimensions=(0.1, 0.2, 0.05), points=300, seed=9)
        a = generate_view(spec)
        b = generate_view(spec)
        np.testing.assert_array_equal(a.points, b.points)

    def test_centered_box_mean_near_origin(self):
        spec = ShapeSpec(kind="box", dimensions=(0.2, 0.2, 0.2), points=4000, seed=1)
        cloud = generate_view(spec)
        # sample mean within 3 sigma / sqrt(m) of the true center
        bound = 3 * 0.1 / np.sqrt(4000)
        assert np.all(np.abs(cloud.points.mean(axis=0)) < bound)

    def test_pose_applied(self):
        rot = np.array([[0, -1, 0], [1, 0, 0], [0, 0, 1]], dtype=float)
        spec = ShapeSpec(
            kind="plate", dimensions=(0.2, 0.1), points=200,
            rotation=rot, translation=(1, 2, 3), seed=5,
        )
        cloud = generate_view(spec)
        base = generate_view(ShapeSpec(kind="plate", dimensions=(0.2, 0.1), points=200, seed=5))
        np.testing.assert_allclose(cloud.points, base.points @ rot.T + [1, 2, 3])


class TestGenerateDataset:
    CATS = [
        CategorySpec("box", "box", (0.1, 0.06, 0.04), points=100),
        CategorySpec("ball", "sphere", (0.05,), points=100),
    ]

    def test_counts_and_layout(self, tmp_path):
        root = tmp_path / "ds"
        data = generate_dataset(self.CATS, 5, seed=2, root=str(root))
        assert set(data) == {"box", "ball"}
        assert all(len(v) == 5 for v in data.values())
        files = sorted(p.relative_to(root) for p in root.rglob("*.pcd"))
        assert len(files) == 10
        assert (root / "manifest.json").exists()

    @pytest.mark.parametrize("views", [0, -3])
    def test_needs_a_view_per_category(self, tmp_path, views):
        with pytest.raises(SynthgenError, match="views_per_category"):
            generate_dataset(self.CATS, views, root=str(tmp_path / "ds"))
        assert not (tmp_path / "ds").exists()

    def test_regeneration_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        generate_dataset(self.CATS, 3, seed=7, root=str(a))
        generate_dataset(self.CATS, 3, seed=7, root=str(b))
        for fa in sorted(a.rglob("*")):
            if fa.is_file():
                fb = b / fa.relative_to(a)
                assert fa.read_bytes() == fb.read_bytes()

    @pytest.mark.parametrize("numpy_int", ["seed", "views", "points"])
    def test_manifest_of_numpy_integers(self, tmp_path, numpy_int):
        def generate(root, wrap):
            cats = [CategorySpec("ball", "sphere", (0.05,), points=wrap(60, "points"))]
            generate_dataset(cats, wrap(2, "views"), seed=wrap(3, "seed"), root=str(root))
            return (root / "manifest.json").read_bytes()

        plain = generate(tmp_path / "plain", lambda value, name: value)
        wrapped = generate(tmp_path / "numpy",
                           lambda value, name: np.int64(value) if name == numpy_int else value)
        assert wrapped == plain

    def test_jitter_within_bound(self, tmp_path):
        import json

        root = tmp_path / "ds"
        generate_dataset(self.CATS, 20, seed=4, root=str(root))
        manifest = json.loads((root / "manifest.json").read_text())
        for cat in self.CATS:
            for spec in manifest["specs"][cat.name]:
                for base, got in zip(cat.dimensions, spec["dimensions"]):
                    assert abs(got - base) <= cat.jitter * base + 1e-12


def shape_spec(**kwargs):
    return ShapeSpec(**{"kind": "box", "dimensions": (0.1, 0.1, 0.1), **kwargs})


def category_spec(**kwargs):
    return CategorySpec(**{"name": "box", "kind": "box", "dimensions": (0.1, 0.1, 0.1), **kwargs})


class TestSpecChecks:
    """Both spec records refuse a bad value when built, naming its field."""

    @pytest.mark.parametrize("build", [shape_spec, category_spec])
    @pytest.mark.parametrize("name,value", [
        ("kind", "torus"),
        ("dimensions", (float("nan"), 0.1, 0.1)),
        ("dimensions", (float("inf"), 0.1, 0.1)),
        ("dimensions", (0.1, -0.1, 0.1)),
        ("dimensions", 0.1),
        ("points", 60.5),
        ("points", 49),
        ("noise_sigma", -0.001),
    ])
    def test_bad_field_rejected(self, build, name, value):
        with pytest.raises(SynthgenError, match=name if name == "kind" else f"^{name} must"):
            build(**{name: value})

    def test_negative_seed_rejected(self):
        with pytest.raises(SynthgenError, match="^seed must"):
            shape_spec(seed=-1)

    @pytest.mark.parametrize("name,value", [
        ("rotation", "ab"), ("rotation", None), ("rotation", np.eye(2)),
        ("rotation", np.full((3, 3), np.nan)), ("rotation", [[1, 0, 0], [0, 1]]),
        ("translation", None), ("translation", (0.0, 0.0)), ("translation", "abc"),
        ("translation", (np.inf, 0.0, 0.0)), ("translation", (10**400, 0, 0)),
    ])
    def test_bad_pose_rejected(self, name, value):
        shape_spec(rotation=[[0, -1, 0], [1, 0, 0], [0, 0, 1]], translation=[1, 2, 3])
        with pytest.raises(SynthgenError, match=f"^{name} must hold [39] finite numbers"):
            shape_spec(**{name: value})

    @pytest.mark.parametrize("build", [shape_spec, category_spec])
    @pytest.mark.parametrize("kind,dimensions,count", [
        ("box", (0.1,), 3), ("box", (), 3), ("cylinder", (0.1,), 2), ("sphere", (0.1, 0.1), 1),
        ("cone", (0.1, 0.1, 0.1), 2), ("plate", (0.1, 0.1, 0.1), 2),
    ])
    def test_each_kind_takes_its_number_of_dimensions(self, build, kind, dimensions, count):
        with pytest.raises(SynthgenError, match=f"^dimensions must be {count} positive .* {kind}$"):
            build(kind=kind, dimensions=dimensions)

    @pytest.mark.parametrize("jitter", [float("nan"), 2.0, 1.0, -0.1])
    def test_jitter_must_lie_in_unit_interval(self, jitter):
        category_spec(jitter=0.0)
        with pytest.raises(SynthgenError, match="^jitter must"):
            category_spec(jitter=jitter)


class TestGenerateScene:
    def test_labels_cover_everything(self):
        objects = [
            ShapeSpec("box", (0.1, 0.08, 0.12), points=200, translation=(0.2, 0.1, 0.06), seed=1),
            ShapeSpec("cylinder", (0.04, 0.15), points=200, translation=(-0.2, -0.1, 0.075), seed=2),
        ]
        cloud, labels = generate_scene(objects, seed=5, n_outliers=40)
        assert len(cloud) == len(labels)
        assert set(np.unique(labels)) == {-1, 0, 1, 2}
        assert np.sum(labels == 1) == 200
        assert np.sum(labels == -1) == 40

    def test_objects_sit_above_table(self):
        objects = [ShapeSpec("box", (0.1, 0.1, 0.1), points=150, translation=(0, 0, 0.05), seed=3)]
        cloud, labels = generate_scene(objects, table_height=0.7, seed=6)
        box_pts = cloud.points[labels == 1]
        assert box_pts[:, 2].min() > 0.699

    def test_deterministic(self):
        objects = [ShapeSpec("sphere", (0.05,), points=100, translation=(0, 0, 0.05), seed=9)]
        a, la = generate_scene(objects, seed=8)
        b, lb = generate_scene(objects, seed=8)
        np.testing.assert_array_equal(a.points, b.points)
        np.testing.assert_array_equal(la, lb)
