"""Geometry core: PCD round-trips, filters and the unique reference frame."""

import numpy as np
import pytest

from openobj.pointcloud import (
    PointCloud,
    PointCloudError,
    centroid,
    compute_reference_frame,
    crop_cube,
    load_pcd,
    save_pcd,
    voxel_downsample,
)
from openobj.synthgen import random_rotation


def random_cloud(rng, m=100, scale=0.3):
    return PointCloud(rng.uniform(-scale, scale, size=(m, 3)))


class TestPcdIO:
    def test_three_valid_rows(self, tmp_path):
        path = tmp_path / "a.pcd"
        path.write_text(
            "FIELDS x y z\nPOINTS 3\nDATA ascii\n0 0 0\n1 2 3\n-1 -2 -3\n"
        )
        cloud = load_pcd(path)
        assert len(cloud) == 3
        np.testing.assert_allclose(cloud.points[1], [1, 2, 3])

    def test_nan_row_dropped(self, tmp_path):
        path = tmp_path / "a.pcd"
        path.write_text(
            "FIELDS x y z\nPOINTS 4\nDATA ascii\n0 0 0\nnan nan nan\n1 1 1\n2 2 2\n"
        )
        cloud = load_pcd(path)
        assert len(cloud) == 3
        np.testing.assert_allclose(cloud.points[1], [1, 1, 1])

    def test_round_trip_within_tolerance(self, tmp_path):
        rng = np.random.default_rng(7)
        cloud = random_cloud(rng, 200, scale=0.9)
        path = tmp_path / "rt.pcd"
        save_pcd(path, cloud)
        back = load_pcd(path)
        assert len(back) == len(cloud)
        np.testing.assert_allclose(back.points, cloud.points, atol=1e-6)

    def test_round_trip_colors(self, tmp_path):
        rng = np.random.default_rng(8)
        colors = rng.integers(0, 256, size=(50, 3), dtype=np.uint8)
        cloud = PointCloud(rng.uniform(-0.5, 0.5, size=(50, 3)), colors)
        path = tmp_path / "c.pcd"
        save_pcd(path, cloud)
        back = load_pcd(path)
        assert back.colors is not None
        np.testing.assert_array_equal(back.colors, colors)

    def test_non_numeric_field_names_line(self, tmp_path):
        path = tmp_path / "bad.pcd"
        path.write_text("FIELDS x y z\nPOINTS 2\nDATA ascii\n0 0 0\n0 oops 0\n")
        with pytest.raises(PointCloudError, match="line 5"):
            load_pcd(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.pcd"
        path.write_text("POINTS 1\n0 0 0\n")
        with pytest.raises(PointCloudError):
            load_pcd(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_pcd(tmp_path / "nope.pcd")

    def test_declared_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.pcd"
        path.write_text("FIELDS x y z\nPOINTS 5\nDATA ascii\n0 0 0\n1 1 1\n")
        with pytest.raises(PointCloudError, match="declares 5"):
            load_pcd(path)

    @pytest.mark.parametrize("rgb", ["nan", "1e20", "-5", "4.5", "inf", "4294967296"])
    def test_rgb_must_be_a_packed_integer(self, tmp_path, rgb):
        path = tmp_path / "bad.pcd"
        path.write_text(f"FIELDS x y z rgb\nPOINTS 2\nDATA ascii\n0 0 0 255\n1 2 3 {rgb}\n")
        with pytest.raises(PointCloudError, match="line 5: rgb"):
            load_pcd(path)

    def test_largest_packed_rgb_loads(self, tmp_path):
        path = tmp_path / "a.pcd"
        path.write_text("FIELDS x y z rgb\nPOINTS 2\nDATA ascii\n0 0 0 4294967295\n1 2 3 6.0\n")
        np.testing.assert_array_equal(load_pcd(path).colors, [[255, 255, 255], [0, 0, 6]])

    def test_count_other_than_one_rejected(self, tmp_path):
        path = tmp_path / "bad.pcd"
        path.write_text("FIELDS x y z\nCOUNT 2 1 1\nPOINTS 1\nDATA ascii\n1 2 3 4\n")
        with pytest.raises(PointCloudError, match="line 2: every COUNT"):
            load_pcd(path)

    def test_row_with_extra_values_rejected(self, tmp_path):
        path = tmp_path / "bad.pcd"
        path.write_text("FIELDS x y z\nPOINTS 2\nDATA ascii\n0 0 0\n1 2 3 4\n")
        with pytest.raises(PointCloudError, match="line 5: expected 3 fields, got 4"):
            load_pcd(path)

    def test_foreign_header_lines_ignored(self, tmp_path):
        path = tmp_path / "full.pcd"
        path.write_text(
            "VERSION 0.7\nFIELDS x y z\nSIZE 4 4 4\nTYPE F F F\nCOUNT 1 1 1\n"
            "WIDTH 2\nHEIGHT 1\nVIEWPOINT 0 0 0 1 0 0 0\nPOINTS 2\nDATA ascii\n"
            "0.1 0.2 0.3\n0.4 0.5 0.6\n"
        )
        cloud = load_pcd(path)
        assert len(cloud) == 2


class TestCropCube:
    def test_all_kept(self):
        rng = np.random.default_rng(0)
        cloud = PointCloud(rng.uniform(-0.5, 0.5, size=(100, 3)))
        assert len(crop_cube(cloud, (0, 0, 0), 2.0)) == 100

    def test_boundary_point_dropped(self):
        cloud = PointCloud([[1.1, 0, 0], [0.9, 0, 0]])
        kept = crop_cube(cloud, (0, 0, 0), 2.0)
        assert len(kept) == 1
        np.testing.assert_allclose(kept.points[0], [0.9, 0, 0])

    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(-2, 2, size=(1000, 3))
        cloud = PointCloud(pts)
        center = np.array([0.3, -0.2, 0.1])
        side = 1.7
        kept = crop_cube(cloud, center, side)
        expected = [p for p in pts if all(abs(p[i] - center[i]) <= side / 2 for i in range(3))]
        np.testing.assert_allclose(kept.points, np.asarray(expected))

    @pytest.mark.parametrize("side", [0.0, -1.0, np.nan, np.inf])
    def test_side_outside_zero_to_infinity_rejected(self, side):
        with pytest.raises(PointCloudError, match="cube side must be positive and finite"):
            crop_cube(PointCloud([[0, 0, 0]]), (0, 0, 0), side)


class TestVoxelDownsample:
    def test_two_points_one_voxel(self):
        cloud = PointCloud([[0, 0, 0], [0.004, 0, 0]])
        out = voxel_downsample(cloud, 0.01)
        assert len(out) == 1
        np.testing.assert_allclose(out.points[0], [0.002, 0, 0])

    def test_grid_points_survive(self):
        grid = np.array([[i * 0.02, 0.0, 0.0] for i in range(5)])
        out = voxel_downsample(PointCloud(grid), 0.01)
        assert sorted(map(tuple, out.points)) == sorted(map(tuple, grid))

    def test_matches_bucket_oracle(self):
        rng = np.random.default_rng(11)
        pts = rng.uniform(-0.2, 0.2, size=(500, 3))
        voxel = 0.02
        out = voxel_downsample(PointCloud(pts), voxel)
        origin = pts.min(axis=0)
        buckets = {}
        for p in pts:
            key = tuple(np.floor((p - origin) / voxel).astype(int))
            buckets.setdefault(key, []).append(p)
        expected = sorted(tuple(np.mean(v, axis=0)) for v in buckets.values())
        got = sorted(map(tuple, out.points))
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_bucket_uniqueness(self):
        rng = np.random.default_rng(12)
        out = voxel_downsample(PointCloud(rng.uniform(0, 1, size=(300, 3))), 0.05)
        origin = out.points.min(axis=0)
        keys = {tuple(np.floor((p - origin + 1e-12) / 0.05).astype(int)) for p in out.points}
        assert len(keys) == len(out)

    def test_empty_cloud_rejected(self):
        with pytest.raises(PointCloudError, match="empty"):
            voxel_downsample(PointCloud(np.empty((0, 3))), 0.01)

    def test_single_point(self):
        out = voxel_downsample(PointCloud([[0.3, 0.4, 0.5]]), 0.05)
        np.testing.assert_allclose(out.points, [[0.3, 0.4, 0.5]])

    def test_nonpositive_voxel_rejected(self):
        with pytest.raises(PointCloudError):
            voxel_downsample(PointCloud([[0, 0, 0]]), 0.0)

    @pytest.mark.parametrize("voxel", [np.nan, np.inf])
    def test_non_finite_voxel_rejected(self, voxel):
        with pytest.raises(PointCloudError, match="voxel size must be positive and finite"):
            voxel_downsample(PointCloud([[0, 0, 0], [1, 1, 1]]), voxel)


class TestCentroid:
    def test_single_point(self):
        np.testing.assert_allclose(centroid(PointCloud([[1.0, 2.0, 3.0]])), [1, 2, 3])

    def test_symmetric_pair(self):
        np.testing.assert_allclose(
            centroid(PointCloud([[-1, 0, 0], [1, 0, 0]])), [0, 0, 0]
        )

    def test_matches_summation_oracle(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(100, 3))
        total = np.zeros(3)
        for p in pts:
            total += p
        np.testing.assert_allclose(centroid(PointCloud(pts)), total / 100, atol=1e-12)

    def test_translation_covariance(self):
        rng = np.random.default_rng(6)
        cloud = random_cloud(rng)
        d = np.array([0.3, -0.1, 0.25])
        np.testing.assert_allclose(
            centroid(PointCloud(cloud.points + d)), centroid(cloud) + d, atol=1e-12
        )


def skewed_cloud(rng, m=400):
    """Anisotropic cloud with no mirror symmetry (stable frame)."""
    pts = rng.uniform(-0.5, 0.5, size=(m, 3)) * np.array([0.3, 0.18, 0.07])
    blob = rng.normal(scale=0.01, size=(m // 4, 3)) + np.array([0.12, 0.06, 0.025])
    return PointCloud(np.vstack([pts, blob]))


class TestReferenceFrame:
    def test_symmetric_cloud_positive_sign(self):
        # Mirror-symmetric about the YoZ plane: the vote ties and the
        # "greater or equal" branch keeps S_x = +1.
        base = np.array(
            [[0.2, 0.05, 0.01], [0.2, -0.05, -0.01], [0.4, 0.02, 0.03], [0.3, -0.07, 0.02]]
        )
        pts = np.vstack([base, base * np.array([-1, 1, 1])])
        frame = compute_reference_frame(PointCloud(pts))
        local = frame.to_local(pts)
        assert np.sum(local[:, 0] > 0.015) == np.sum(local[:, 0] < -0.015)

    def test_box_axes_align_with_world(self):
        # Corners of a 4 x 2 x 1 box: eigenvectors are the world axes with
        # X along the longest extent.
        corners = np.array(
            [[sx * 2.0, sy * 1.0, sz * 0.5] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)]
        )
        frame = compute_reference_frame(PointCloud(corners))
        np.testing.assert_allclose(np.abs(frame.axes[:, 0]), [1, 0, 0], atol=1e-9)
        np.testing.assert_allclose(np.abs(frame.axes[:, 1]), [0, 1, 0], atol=1e-9)
        np.testing.assert_allclose(np.abs(frame.axes[:, 2]), [0, 0, 1], atol=1e-9)

    def test_rigid_equivariance(self):
        rng = np.random.default_rng(42)
        cloud = skewed_cloud(rng)
        frame = compute_reference_frame(cloud)
        for _ in range(20):
            rot = random_rotation(rng)
            shift = rng.uniform(-1, 1, size=3)
            moved = cloud.transform(rot, shift)
            moved_frame = compute_reference_frame(moved)
            np.testing.assert_allclose(moved_frame.axes, rot @ frame.axes, atol=1e-6)
            np.testing.assert_allclose(
                moved_frame.origin, rot @ frame.origin + shift, atol=1e-6
            )

    def test_orthonormal_right_handed(self):
        rng = np.random.default_rng(9)
        for seed in range(10):
            cloud = skewed_cloud(np.random.default_rng(seed))
            frame = compute_reference_frame(cloud)
            np.testing.assert_allclose(frame.axes.T @ frame.axes, np.eye(3), atol=1e-9)
            assert abs(np.linalg.det(frame.axes) - 1.0) < 1e-9

    def test_degenerate_clouds_rejected(self):
        with pytest.raises(PointCloudError, match="degenerate"):
            compute_reference_frame(PointCloud([[0, 0, 0], [1, 0, 0]]))
        line = PointCloud([[i * 0.1, 0, 0] for i in range(10)])
        with pytest.raises(PointCloudError, match="degenerate"):
            compute_reference_frame(line)

