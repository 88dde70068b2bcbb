"""Viewpoint entropy, virtual rendering and probabilistic view selection."""

import json

import numpy as np
import pytest

from openobj import nbv
from openobj.nbv import (
    CameraPose,
    NbvError,
    SegmentedScene,
    load_poses,
    rank_views,
    render_virtual,
    select_next_view,
    viewpoint_entropy,
    weighted_entropy,
)
from openobj.pointcloud import PointCloud
from openobj.segmentation import euclidean_cluster
from openobj.synthgen import ShapeSpec, generate_scene, random_rotation


def cluster(n, offset=0.0):
    rng = np.random.default_rng(int(offset * 100) + n)
    return PointCloud(rng.uniform(0, 0.1, size=(n, 3)) + offset)


class TestViewpointEntropy:
    def test_single_cluster_zero(self):
        scene = SegmentedScene(clusters=(cluster(40),))
        assert viewpoint_entropy(scene) == pytest.approx(0.0)

    def test_equal_clusters_log_k(self):
        for k in (2, 4, 7):
            scene = SegmentedScene(clusters=tuple(cluster(30, i) for i in range(k)))
            assert viewpoint_entropy(scene) == pytest.approx(np.log(k), abs=1e-12)

    def test_matches_summation_oracle(self):
        rng = np.random.default_rng(2)
        sizes = rng.integers(5, 60, size=6)
        scene = SegmentedScene(clusters=tuple(cluster(int(s), i) for i, s in enumerate(sizes)))
        total = sizes.sum()
        oracle = -sum((s / total) * np.log(s / total) for s in sizes)
        assert viewpoint_entropy(scene) == pytest.approx(oracle, abs=1e-12)

    def test_permutation_invariance(self):
        clusters = tuple(cluster(10 * (i + 1), i) for i in range(4))
        a = viewpoint_entropy(SegmentedScene(clusters=clusters))
        b = viewpoint_entropy(SegmentedScene(clusters=clusters[::-1]))
        assert a == pytest.approx(b, abs=1e-12)

    def test_larger_total_area_allowed(self):
        scene = SegmentedScene(clusters=(cluster(20), cluster(20, 1.0)), total_area=80)
        assert viewpoint_entropy(scene) > 0

    def test_uniform_area_scaling_invariance(self):
        # tripling every cluster (and hence the total) keeps the fractions
        clusters = tuple(cluster(8 * (i + 1), i) for i in range(3))
        base = viewpoint_entropy(SegmentedScene(clusters=clusters))
        tripled = tuple(
            PointCloud(np.vstack([c.points] * 3)) for c in clusters
        )
        scaled = viewpoint_entropy(SegmentedScene(clusters=tripled))
        assert scaled == pytest.approx(base, abs=1e-12)


def looking_down_pose(height=2.0):
    # camera above the scene, +Z pointing down toward it
    rot = np.array([[1.0, 0, 0], [0, -1.0, 0], [0, 0, -1.0]])
    return CameraPose(rotation=rot, translation=np.array([0.0, 0.0, height]))


class TestRenderVirtual:
    def test_single_point_survives(self):
        world = PointCloud([[0.0, 0.0, 0.0]])
        out = render_virtual(world, looking_down_pose(), resolution=32)
        np.testing.assert_allclose(out.points, [[0, 0, 0]])

    def test_depth_buffer_keeps_nearer(self):
        # both points project to the same pixel; the higher one (closer to
        # the downward camera) wins
        world = PointCloud([[0.0, 0.0, 0.5], [0.0, 0.0, 0.0]])
        out = render_virtual(world, looking_down_pose(), resolution=8)
        assert len(out) == 1
        np.testing.assert_allclose(out.points[0], [0, 0, 0.5])

    def test_occluder_hides_object(self):
        rng = np.random.default_rng(3)
        # dense plate at z = 1 shadows a box sitting below it
        plate = np.column_stack(
            [rng.uniform(-0.4, 0.4, 4000), rng.uniform(-0.4, 0.4, 4000), np.full(4000, 1.0)]
        )
        box = np.column_stack(
            [rng.uniform(-0.2, 0.2, 300), rng.uniform(-0.2, 0.2, 300), rng.uniform(0, 0.2, 300)]
        )
        world = PointCloud(np.vstack([plate, box]))
        out = render_virtual(world, looking_down_pose(3.0), resolution=16)
        assert all(p[2] > 0.9 for p in out.points)

    def test_output_subset_of_input(self):
        rng = np.random.default_rng(4)
        world = PointCloud(rng.uniform(-1, 1, size=(500, 3)))
        out = render_virtual(world, looking_down_pose(), resolution=16)
        world_set = {tuple(p) for p in world.points}
        assert all(tuple(p) in world_set for p in out.points)

    def test_empty_world_rejected(self):
        with pytest.raises(NbvError):
            render_virtual(PointCloud(np.empty((0, 3))), looking_down_pose())


class TestWeightedEntropy:
    def test_zero_distance_weight(self):
        pose = looking_down_pose()
        sigma = 0.4
        expected = 1.0 / (sigma * np.sqrt(2 * np.pi))
        assert weighted_entropy(1.0, pose, pose, sigma) == pytest.approx(expected)

    def test_far_pose_vanishes(self):
        a = looking_down_pose()
        b = CameraPose(rotation=np.eye(3), translation=[100.0, 0, 0])
        assert weighted_entropy(5.0, a, b, sigma=0.3) == pytest.approx(0.0, abs=1e-12)

    def test_matches_formula_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            t1, t2 = rng.uniform(-1, 1, size=(2, 3))
            a = CameraPose(rotation=np.eye(3), translation=t1)
            b = CameraPose(rotation=np.eye(3), translation=t2)
            h = float(rng.uniform(0, 3))
            sigma = float(rng.uniform(0.1, 2))
            oracle = (
                h
                / (sigma * np.sqrt(2 * np.pi))
                * np.exp(-np.linalg.norm(t1 - t2) ** 2 / (2 * sigma**2))
            )
            assert weighted_entropy(h, a, b, sigma) == pytest.approx(oracle, abs=1e-12)

    @pytest.mark.parametrize("sigma", [0.0, -0.5, np.nan, np.inf, -np.inf])
    def test_sigma_outside_positive_finite_rejected(self, sigma):
        pose = looking_down_pose()
        with pytest.raises(NbvError, match="sigma must be positive and finite"):
            weighted_entropy(1.0, pose, pose, sigma)


class TestSelectNextView:
    def poses(self, n):
        return [CameraPose(rotation=np.eye(3), translation=[float(i), 0, 0]) for i in range(n)]

    def test_single_candidate(self):
        pose = self.poses(1)[0]
        assert select_next_view([(pose, 2.0)], seed=0) is pose

    def test_frequencies_match_weights(self):
        p1, p2 = self.poses(2)
        candidates = [(p1, 3.0), (p2, 1.0)]
        hits = sum(
            select_next_view(candidates, seed=s).translation[0] == 0.0 for s in range(10000)
        )
        assert abs(hits / 10000 - 0.75) < 0.02

    def test_scale_invariance(self):
        p1, p2, p3 = self.poses(3)
        base = [select_next_view([(p1, 1.0), (p2, 2.0), (p3, 3.0)], seed=s) for s in range(50)]
        scaled = [
            select_next_view([(p1, 10.0), (p2, 20.0), (p3, 30.0)], seed=s) for s in range(50)
        ]
        assert [p.translation[0] for p in base] == [p.translation[0] for p in scaled]

    def test_all_zero_rejected(self):
        p1, p2 = self.poses(2)
        with pytest.raises(NbvError):
            select_next_view([(p1, 0.0), (p2, 0.0)], seed=0)

    def test_negative_weight_rejected(self):
        p1, p2 = self.poses(2)
        with pytest.raises(NbvError):
            select_next_view([(p1, 1.0), (p2, -0.5)], seed=0)

    def test_returns_the_item_as_given(self):
        assert select_next_view([(7, 0.0), ("x", 1.0)], seed=3) == "x"

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("at", [0, 2])
    def test_non_finite_weight_rejected(self, bad, at):
        candidates = [("a", 1.0), ("b", 1.0), ("c", 1.0)]
        candidates[at] = (candidates[at][0], bad)
        for seed in range(5):
            with pytest.raises(NbvError, match="must be finite and non-negative"):
                select_next_view(candidates, seed=seed)


def table_world(seed=0):
    objects = [
        ShapeSpec("box", (0.1, 0.08, 0.1), points=300, translation=(0.25, 0.1, 0.05), seed=1),
        ShapeSpec("cylinder", (0.04, 0.14), points=300, translation=(-0.2, -0.1, 0.07), seed=2),
        ShapeSpec("sphere", (0.05,), points=300, translation=(0.0, 0.2, 0.05), seed=3),
    ]
    return generate_scene(objects, seed=seed, n_outliers=20)[0]


def random_poses(n, seed):
    rng = np.random.default_rng(seed)
    return [CameraPose(random_rotation(rng), rng.uniform(-1, 1, 3)) for _ in range(n)]


def sparse_world():
    """Points 1 m apart: every render keeps some, none of them link."""
    return PointCloud(np.array([[i, (i * 7) % 5, (i * 3) % 4] for i in range(12)], dtype=float))


class Spy:
    def __init__(self, fn):
        self.fn, self.calls = fn, 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.fn(*args, **kwargs)


class TestRankViews:
    def test_clustering_constants(self):
        assert (nbv.CLUSTER_LINK_DIST, nbv.CLUSTER_MIN_PTS) == (0.03, 5)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_equals_the_per_pose_loop(self, seed):
        world = table_world(seed)
        poses = random_poses(9, seed)
        current = poses[seed % 9]
        entropies, candidates = [], []
        for pose in poses:
            view = render_virtual(world, pose, 96)
            clusters = euclidean_cluster(view, link_dist=0.03, min_pts=5)
            h = viewpoint_entropy(SegmentedScene(tuple(clusters), len(view))) if clusters else 0.0
            entropies.append(h)
            candidates.append((pose, weighted_entropy(h, pose, current, 0.7)))
        chosen = select_next_view(candidates, seed=seed)
        expected = next(i for i, pose in enumerate(poses) if pose is chosen)
        got = rank_views(world, poses, current, 0.7, resolution=96, seed=seed)
        assert got == (entropies, [w for _, w in candidates], expected)
        assert all(h > 0 for h in entropies)

    def test_empty_and_clusterless_renders_score_zero(self, monkeypatch):
        world = table_world()
        poses = random_poses(3, 5)

        def render(world, pose, resolution):
            if pose is poses[0]:
                return world.select(np.array([], dtype=np.int64))
            if pose is poses[1]:
                return sparse_world()
            return render_virtual(world, pose, resolution)

        monkeypatch.setattr(nbv, "render_virtual", render)
        entropies, weights, chosen = rank_views(world, poses, poses[2], 1.0)
        assert entropies[:2] == [0.0, 0.0] and weights[:2] == [0.0, 0.0]
        assert entropies[2] > 0 and chosen == 2

    def test_all_zero_weights_select_none(self, monkeypatch):
        spy = Spy(select_next_view)
        monkeypatch.setattr(nbv, "select_next_view", spy)
        poses = random_poses(4, 6)
        entropies, weights, chosen = rank_views(sparse_world(), poses, poses[0], 0.5)
        assert entropies == weights == [0.0] * 4
        assert chosen is None and spy.calls == 0

    def test_empty_pose_list_rejected(self):
        with pytest.raises(NbvError):
            rank_views(table_world(), [], looking_down_pose(), 0.5)

    @pytest.mark.parametrize("sigma", [np.nan, np.inf, 0.0])
    def test_sigma_outside_positive_finite_rejected(self, sigma):
        poses = random_poses(2, 9)
        with pytest.raises(NbvError, match="sigma must be positive and finite"):
            rank_views(table_world(), poses, poses[0], sigma)

    def test_repeated_pose_gives_the_sampled_index(self):
        world = table_world()
        pose = random_poses(1, 7)[0]
        drawn = []
        for seed in range(12):
            entropies, weights, chosen = rank_views(world, [pose] * 3, pose, 0.5, 96, seed)
            assert chosen == select_next_view(list(enumerate(weights)), seed=seed)
            drawn.append(chosen)
        assert set(drawn) == {0, 1, 2}

    def test_calls_go_through_the_module_names(self, monkeypatch):
        spies = {name: Spy(getattr(nbv, name)) for name in (
            "render_virtual", "euclidean_cluster", "viewpoint_entropy", "weighted_entropy",
            "select_next_view")}
        for name, spy in spies.items():
            monkeypatch.setattr(nbv, name, spy)
        poses = random_poses(5, 8)
        rank_views(table_world(), poses, poses[0], 0.5, resolution=96)
        assert {name: spy.calls for name, spy in spies.items()} == {
            "render_virtual": 5, "euclidean_cluster": 5, "viewpoint_entropy": 5,
            "weighted_entropy": 5, "select_next_view": 1}


class TestCameraPose:
    def test_reflection_rejected(self):
        bad = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(NbvError):
            CameraPose(rotation=bad, translation=[0, 0, 0])

    @pytest.mark.parametrize("rotation", [
        [[1.0, 1, 0], [0, 1, 0], [0, 0, 1]],
        np.diag([2.0, 0.5, 1.0]),
        np.eye(3) + np.diag([2e-9, -2e-9, 0.0]),
    ], ids=["shear", "scale", "off-by-2e-9"])
    def test_non_rotation_rejected(self, rotation):
        assert abs(np.linalg.det(rotation) - 1.0) < 1e-9
        with pytest.raises(NbvError, match="orthonormal"):
            CameraPose(rotation=rotation, translation=[0, 0, 0])

    def test_rounding_within_tolerance_accepted(self):
        rotation = np.eye(3) + np.diag([4e-10, -4e-10, 0.0])
        CameraPose(rotation=rotation, translation=[0, 0, 0])

    @pytest.mark.parametrize("rotation,translation", [
        (np.full((3, 3), np.nan), [0, 0, 1]),
        (np.eye(3), [0, np.nan, 1]),
        (np.eye(3), [np.inf, 0, 1]),
    ], ids=["nan-rotation", "nan-translation", "inf-translation"])
    def test_non_finite_rejected(self, rotation, translation):
        with pytest.raises(NbvError, match="finite"):
            CameraPose(rotation=rotation, translation=translation)

    def test_world_camera_round_trip(self):
        rng = np.random.default_rng(6)
        from openobj.synthgen import random_rotation

        pose = CameraPose(rotation=random_rotation(rng), translation=rng.uniform(-1, 1, 3))
        pts = rng.uniform(-1, 1, size=(20, 3))
        cam = pose.to_camera(pts)
        back = cam @ pose.rotation.T + pose.translation
        np.testing.assert_allclose(back, pts, atol=1e-12)


class TestLoadPoses:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "poses.json"
        rot = np.eye(3)
        payload = [
            {"rotation": rot.ravel().tolist(), "translation": [0.1, 0.2, 0.3]},
            {"rotation": rot.ravel().tolist(), "translation": [1.0, 0.0, 0.0]},
        ]
        path.write_text(json.dumps(payload))
        poses = load_poses(path)
        assert len(poses) == 2
        np.testing.assert_allclose(poses[0].translation, [0.1, 0.2, 0.3])

    def test_non_rotation_names_the_pose(self, tmp_path):
        path = tmp_path / "poses.json"
        shear = [1.0, 1, 0, 0, 1, 0, 0, 0, 1]
        payload = [{"rotation": np.eye(3).ravel().tolist(), "translation": [0, 0, 1]},
                   {"rotation": shear, "translation": [0, 0, 1]}]
        path.write_text(json.dumps(payload))
        with pytest.raises(NbvError, match="pose 1: camera rotation must be orthonormal"):
            load_poses(path)
