"""Viewpoint entropy, virtual rendering and probabilistic view selection."""

import json

import numpy as np
import pytest

from openobj.nbv import (
    CameraPose,
    NbvError,
    SegmentedScene,
    load_poses,
    render_virtual,
    select_next_view,
    viewpoint_entropy,
    weighted_entropy,
)
from openobj.pointcloud import PointCloud


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


class TestCameraPose:
    def test_reflection_rejected(self):
        bad = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(NbvError):
            CameraPose(rotation=bad, translation=[0, 0, 0])

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
