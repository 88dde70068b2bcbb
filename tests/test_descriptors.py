"""Global descriptor and spin-image feature extraction."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from openobj import descriptors
from openobj.descriptors import (
    DescriptorError,
    compute_feature_set,
    compute_good,
    compute_spin_image,
    estimate_normals,
    project_distribution,
    projection_entropy,
    projection_variance,
)
from openobj.pointcloud import PointCloud
from openobj.synthgen import (
    CategorySpec,
    ShapeSpec,
    generate_dataset,
    generate_view,
    random_rotation,
)


def skewed_object(seed=0, m=800):
    """Anisotropic view with no mirror symmetry: box plus a corner blob."""
    rng = np.random.default_rng(seed)
    box = generate_view(
        ShapeSpec("box", (0.24, 0.16, 0.08), points=m, noise_sigma=0.001, seed=seed)
    ).points
    blob = rng.normal(scale=0.008, size=(m // 4, 3)) + np.array([0.1, 0.055, 0.03])
    return PointCloud(np.vstack([box, blob]))


class TestProjectDistribution:
    def test_all_points_at_origin(self):
        cloud = PointCloud(np.zeros((10, 3)))
        m = project_distribution(cloud, "XoY", l=1.0, n=5)
        assert m[2, 2] == 1.0
        assert m.sum() == 1.0
        assert np.count_nonzero(m) == 1

    def test_upper_bound_lands_in_last_bin(self):
        cloud = PointCloud([[0.5, 0.5, 0.5]])
        m = project_distribution(cloud, "XoY", l=1.0, n=5)
        assert m[4, 4] == 1.0

    def test_matches_floor_arithmetic_oracle(self):
        # grid of points over a 4 x 2 rectangle in the XoY plane
        xs, ys = np.meshgrid(np.linspace(-2, 2, 21), np.linspace(-1, 1, 11))
        pts = np.column_stack([xs.ravel(), ys.ravel(), np.zeros(xs.size)])
        n, l, eps = 5, 4.0, 1e-6
        got = project_distribution(PointCloud(pts), "XoY", l=l, n=n)
        expected = np.zeros((n, n))
        for x, y, _ in pts:
            r = int(np.floor(n * (x + l / 2) / (l + eps)))
            c = int(np.floor(n * (y + l / 2) / (l + eps)))
            expected[r, c] += 1
        expected /= expected.sum()
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_not_enclosing_raises(self):
        cloud = PointCloud([[0.6, 0, 0]])
        with pytest.raises(DescriptorError, match="not enclosing"):
            project_distribution(cloud, "XoY", l=1.0, n=5)

    def test_plane_conventions(self):
        # one point off-center along each axis pins the (alpha, beta) picks
        cloud = PointCloud([[0.4, 0.0, -0.4]])
        m_xoz = project_distribution(cloud, "XoZ", l=1.0, n=5)
        assert m_xoz[4, 0] == 1.0  # alpha = x, beta = z
        m_xoy = project_distribution(cloud, "XoY", l=1.0, n=5)
        assert m_xoy[4, 2] == 1.0  # alpha = x, beta = y
        m_yoz = project_distribution(cloud, "YoZ", l=1.0, n=5)
        assert m_yoz[2, 0] == 1.0  # alpha = y, beta = z


class TestProjectionStats:
    def test_entropy_two_equal_bins(self):
        assert projection_entropy([0.5, 0.5, 0, 0]) == pytest.approx(1.0)

    def test_entropy_uniform(self):
        assert projection_entropy(np.full(25, 1 / 25)) == pytest.approx(np.log2(25))

    def test_entropy_matches_oracle(self):
        rng = np.random.default_rng(3)
        v = rng.dirichlet(np.ones(49))
        oracle = -sum(p * np.log2(p) for p in v if p > 0)
        assert projection_entropy(v) == pytest.approx(oracle, abs=1e-12)

    def test_entropy_rejects_negative(self):
        with pytest.raises(DescriptorError):
            projection_entropy([-0.1, 1.1])

    def test_variance_point_mass(self):
        v = np.zeros(25)
        v[7] = 1.0
        assert projection_variance(v) == 0.0

    def test_variance_two_point(self):
        v = np.zeros(4)
        v[0] = 0.5
        v[2] = 0.5  # indices 1 and 3 (1-based), mu = 2, var = 1
        assert projection_variance(v) == pytest.approx(1.0)

    def test_variance_matches_oracle(self):
        rng = np.random.default_rng(4)
        v = rng.dirichlet(np.ones(30))
        mu = sum((i + 1) * p for i, p in enumerate(v))
        oracle = sum((i + 1 - mu) ** 2 * p for i, p in enumerate(v))
        assert projection_variance(v) == pytest.approx(oracle, abs=1e-12)


class TestComputeGood:
    def test_descriptor_lengths(self):
        cloud = skewed_object()
        assert len(compute_good(cloud, n=5)) == 75
        assert len(compute_good(cloud, n=15)) == 675

    @pytest.mark.parametrize("n", [5.5, 5.0])
    def test_fractional_bin_count_rejected(self, n):
        cloud = skewed_object()
        assert len(compute_good(cloud, n=np.int64(5))) == 75
        with pytest.raises(DescriptorError, match="integer number of at least 2 bins"):
            compute_good(cloud, n=n)

    def test_blocks_are_distributions(self):
        d = compute_good(skewed_object(), n=7)
        blocks = d.bins.reshape(3, -1)
        assert np.all(d.bins >= 0)
        np.testing.assert_allclose(blocks.sum(axis=1), 1.0, atol=1e-9)

    def test_uniform_scale_invariance(self):
        cloud = skewed_object(seed=5)
        d1 = compute_good(cloud, n=9)
        d2 = compute_good(PointCloud(cloud.points * 2.0), n=9)
        np.testing.assert_allclose(d1.bins, d2.bins, atol=1e-9)
        assert d1.order == d2.order

    def test_translation_invariance(self):
        cloud = skewed_object(seed=6)
        d1 = compute_good(cloud, n=9)
        d2 = compute_good(PointCloud(cloud.points + [0.7, -0.4, 1.1]), n=9)
        np.testing.assert_allclose(d1.bins, d2.bins, atol=1e-9)

    def test_duplication_invariance(self):
        cloud = skewed_object(seed=7)
        doubled = PointCloud(np.vstack([cloud.points, cloud.points]))
        d1 = compute_good(cloud, n=9)
        d2 = compute_good(doubled, n=9)
        np.testing.assert_allclose(d1.bins, d2.bins, atol=1e-9)

    def test_rigid_motion_similarity(self):
        cloud = skewed_object(seed=8)
        ref = compute_good(cloud, n=15).bins
        rng = np.random.default_rng(88)
        exact = 0
        for _ in range(25):
            moved = cloud.transform(random_rotation(rng), rng.uniform(-1, 1, 3))
            d = compute_good(moved, n=15).bins
            cos = d @ ref / (np.linalg.norm(d) * np.linalg.norm(ref))
            assert cos >= 0.99
            exact += int(np.array_equal(d, ref))
        assert exact >= 23

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(0, 2**16),
        st.integers(300, 900),
        st.integers(0, 2**32 - 1),
        st.tuples(*[st.floats(-2.0, 2.0)] * 3),
    )
    def test_rigid_motion_and_permutation_property(self, seed, m, motion, shift):
        cloud = skewed_object(seed=seed, m=m)
        ref = compute_good(cloud, n=15).bins
        assert np.array_equal(compute_good(PointCloud(cloud.points + shift), n=15).bins, ref)
        rng = np.random.default_rng(motion)
        moved = cloud.transform(random_rotation(rng), shift).points
        d = compute_good(PointCloud(moved[rng.permutation(len(moved))]), n=15).bins
        assert d @ ref / (np.linalg.norm(d) * np.linalg.norm(ref)) >= 0.99

    def test_off_center_mass_handled(self):
        # cone: centroid well below the AABB midpoint must not error
        cone = generate_view(ShapeSpec("cone", (0.06, 0.2), points=600, seed=9))
        d = compute_good(cone, n=5)
        np.testing.assert_allclose(d.bins.reshape(3, -1).sum(axis=1), 1.0, atol=1e-9)


def keypoints_of(cloud, voxel):
    """The keypoint rule alone: the point nearest each occupied voxel's
    center."""
    return cloud.points[descriptors._keypoint_indices(cloud.points, voxel)]


class TestKeypoints:
    """compute_feature_set keeps one keypoint per occupied voxel."""

    def test_single_point(self):
        cloud = PointCloud([[0.4, 0.5, 0.6]])
        keys = compute_feature_set(cloud, 0.1).keypoints
        np.testing.assert_array_equal(keys, [[0.4, 0.5, 0.6]])

    def test_closest_to_center_wins(self):
        # two points in one voxel [0, 0.1): center at 0.05
        cloud = PointCloud([[0.01, 0.05, 0.05], [0.048, 0.05, 0.05]])
        keys = compute_feature_set(cloud, 0.1).keypoints
        assert len(keys) == 1
        np.testing.assert_allclose(keys[0], [0.048, 0.05, 0.05])

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(0, 0.3, size=(400, 3))
        voxel = 0.05
        keys = compute_feature_set(PointCloud(pts), voxel).keypoints
        origin = pts.min(axis=0)
        buckets = {}
        for p in pts:
            buckets.setdefault(tuple(np.floor((p - origin) / voxel).astype(int)), []).append(p)
        expected = set()
        for cell, members in buckets.items():
            center = origin + (np.array(cell) + 0.5) * voxel
            best = min(members, key=lambda q: np.linalg.norm(q - center))
            expected.add(tuple(best))
        assert {tuple(k) for k in keys} == expected

    def test_subset_of_cloud(self):
        rng = np.random.default_rng(6)
        pts = rng.uniform(0, 0.2, size=(200, 3))
        keys = compute_feature_set(PointCloud(pts), 0.03).keypoints
        cloud_set = {tuple(p) for p in pts}
        assert all(tuple(k) in cloud_set for k in keys)


class TestSpinImage:
    def test_neighbor_on_normal_axis(self):
        cloud = PointCloud([[0, 0, 0.03]])
        img = compute_spin_image(cloud, [0, 0, 0], [0, 0, 1], 4, 0.05)
        # alpha = 0, beta = 0.03: row 0, col = floor((0.03+0.05)*4/0.05) = 6
        assert img[0, 6] == 1

    def test_neighbor_in_tangent_plane(self):
        cloud = PointCloud([[0.03, 0, 0]])
        img = compute_spin_image(cloud, [0, 0, 0], [0, 0, 1], 4, 0.05)
        # beta = 0, alpha = 0.03: row floor(0.03*4/0.05) = 2, col = 4
        assert img[2, 4] == 1

    def test_dimensions(self):
        cloud = PointCloud(np.random.default_rng(0).uniform(-0.04, 0.04, (30, 3)))
        img = compute_spin_image(cloud, [0, 0, 0], [0, 0, 1], 4, 0.05)
        assert img.shape == (5, 9)

    def test_matches_binning_oracle(self):
        rng = np.random.default_rng(7)
        pts = rng.uniform(-0.06, 0.06, size=(50, 3))
        keypoint = np.zeros(3)
        normal = np.array([0.0, 0.0, 1.0])
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
        np.testing.assert_array_equal(img, expected)

    def test_support_angle_filter(self):
        pts = np.array([[0.01, 0, 0.01], [0.01, 0, -0.01]])
        normals = np.array([[0, 0, 1.0], [0, 0, -1.0]])
        img = compute_spin_image(
            PointCloud(pts), [0, 0, 0], [0, 0, 1], 4, 0.05,
            support_angle=60.0, point_normals=normals,
        )
        assert img.sum() == 1  # the anti-parallel normal is skipped

    def test_pose_invariance(self):
        rng = np.random.default_rng(9)
        pts = rng.uniform(-0.04, 0.04, size=(60, 3))
        keypoint = np.array([0.01, -0.01, 0.0])
        normal = np.array([0.0, 0.0, 1.0])
        base = compute_spin_image(PointCloud(pts), keypoint, normal, 4, 0.05)
        for _ in range(5):
            rot = random_rotation(rng)
            shift = rng.uniform(-1, 1, 3)
            moved = compute_spin_image(
                PointCloud(pts @ rot.T + shift), rot @ keypoint + shift, rot @ normal, 4, 0.05
            )
            np.testing.assert_array_equal(base, moved)


class TestFeatureSet:
    def test_single_voxel_single_feature(self):
        rng = np.random.default_rng(10)
        pts = rng.uniform(0, 0.008, size=(60, 3))
        fs = compute_feature_set(PointCloud(pts), voxel=0.01)
        assert len(fs) == 1

    def test_histogram_shape_default(self):
        cloud = generate_view(ShapeSpec("box", (0.08, 0.06, 0.04), points=300, seed=2))
        fs = compute_feature_set(cloud, voxel=0.02, image_width=4)
        assert fs.as_matrix().shape[1] == 5 * 9

    def test_feature_count_equals_occupied_voxels(self):
        cloud = generate_view(ShapeSpec("cylinder", (0.04, 0.12), points=400, seed=3))
        fs = compute_feature_set(cloud, voxel=0.02)
        assert len(fs) == len(keypoints_of(cloud, 0.02))


def reference_spin_image(cloud, keypoint, normal, image_width=4, support_length=0.05,
                         support_angle=90.0, point_normals=None):
    """One-keypoint spin image: the per-keypoint loop body that the
    batched kernel replaced."""
    keypoint = np.asarray(keypoint, dtype=np.float64).reshape(3)
    normal = np.asarray(normal, dtype=np.float64).reshape(3)
    iw = int(image_width)
    sl = float(support_length)
    delta = cloud.points - keypoint
    beta = delta @ normal
    alpha_sq = np.maximum(np.einsum("ij,ij->i", delta, delta) - beta**2, 0.0)
    alpha = np.sqrt(alpha_sq)
    keep = (alpha <= sl) & (np.abs(beta) <= sl)
    if point_normals is not None:
        point_normals = np.asarray(point_normals, dtype=np.float64)
        cos_limit = np.cos(np.radians(support_angle))
        keep &= point_normals @ normal >= cos_limit - 1e-12
    rows = np.minimum(np.floor(alpha[keep] * iw / sl).astype(np.int64), iw)
    cols = np.clip(np.floor((beta[keep] + sl) * iw / sl).astype(np.int64), 0, 2 * iw)
    histogram = np.zeros((iw + 1, 2 * iw + 1))
    np.add.at(histogram, (rows, cols), 1.0)
    return histogram


def reference_feature_matrix(cloud, voxel=0.01, image_width=4, support_length=0.05,
                             support_angle=90.0):
    """compute_feature_set's matrix, one reference spin image per keypoint."""
    normals = estimate_normals(cloud)
    return np.stack([
        reference_spin_image(
            cloud, cloud.points[i], normals[i], image_width, support_length,
            support_angle, point_normals=normals,
        ).ravel()
        for i in descriptors._keypoint_indices(cloud.points, voxel)
    ])


@st.composite
def spin_runs(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    m = draw(st.integers(1, 150))
    extent = draw(st.floats(0.01, 0.3))
    points = np.random.default_rng(seed).uniform(-extent, extent, size=(m, 3))
    params = dict(
        voxel=draw(st.floats(0.005, 0.1)),
        image_width=draw(st.integers(1, 8)),
        support_length=draw(st.floats(0.005, 0.3)),
        support_angle=draw(st.floats(1.0, 180.0)),
    )
    return PointCloud(points), params


class TestSpinImageKernel:
    @settings(max_examples=60, deadline=None)
    @given(spin_runs())
    def test_matches_per_keypoint_reference(self, run):
        cloud, params = run
        fs = compute_feature_set(cloud, **params)
        assert np.array_equal(fs.as_matrix(), reference_feature_matrix(cloud, **params))

    def test_one_point_cloud(self):
        cloud = PointCloud([[0.1, -0.2, 0.3]])
        fs = compute_feature_set(cloud)
        assert np.array_equal(fs.as_matrix(), reference_feature_matrix(cloud))
        assert fs.as_matrix().sum() == 1  # the keypoint itself

    def test_keypoints_with_empty_support(self):
        rng = np.random.default_rng(11)
        cloud = PointCloud(rng.uniform(-0.03, 0.03, size=(40, 3)))
        keypoints = np.array([[0.0, 0.0, 0.0], [5.0, 5.0, 5.0], [-5.0, 0.0, 0.0]])
        normals = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        images = compute_spin_image(cloud, keypoints, normals, 4, 0.05)
        assert images.shape == (3, 5, 9)
        for got, keypoint, normal in zip(images, keypoints, normals):
            assert np.array_equal(got, reference_spin_image(cloud, keypoint, normal, 4, 0.05))
        assert images[0].sum() > 0
        assert not images[1:].any()

    def test_cloud_spanning_several_blocks(self):
        cloud = generate_view(ShapeSpec("box", (0.2, 0.15, 0.1), points=1500, seed=12))
        fs = compute_feature_set(cloud)
        assert len(fs) > 3 * (descriptors._BLOCK_PAIRS // len(cloud))
        assert np.array_equal(fs.as_matrix(), reference_feature_matrix(cloud))

    @pytest.mark.parametrize("name,value", [
        ("voxel", np.nan), ("voxel", np.inf), ("support_length", np.nan),
        ("support_length", np.inf), ("image_width", -2), ("image_width", 0),
        ("image_width", np.nan), ("support_angle", 0.0), ("support_angle", np.nan),
    ])
    def test_feature_set_rejects_what_validate_rejects(self, name, value):
        cloud = PointCloud(np.random.default_rng(14).uniform(0, 0.05, size=(30, 3)))
        with np.errstate(all="raise"), pytest.raises(DescriptorError, match=name.replace("_", " ")):
            compute_feature_set(cloud, **{name: value})

    @pytest.mark.parametrize("name,value", [
        ("support_length", np.nan), ("support_length", np.inf), ("support_length", 0.0),
        ("image_width", -2), ("image_width", 0), ("support_angle", 181.0),
    ])
    def test_spin_image_rejects_what_validate_rejects(self, name, value):
        cloud = PointCloud([[0.0, 0.0, 0.01]])
        with np.errstate(all="raise"), pytest.raises(DescriptorError, match=name.replace("_", " ")):
            compute_spin_image(cloud, [0.0, 0.0, 0.0], [0.0, 0.0, 1.0], **{name: value})

    @pytest.mark.parametrize("width", [2.5, 4.0])
    def test_fractional_image_width_rejected(self, width):
        cloud = PointCloud(np.random.default_rng(14).uniform(0, 0.05, size=(30, 3)))
        assert compute_feature_set(cloud, image_width=np.int64(2)).matrix.shape[1] == 15
        with pytest.raises(DescriptorError, match="image width must be an integer"):
            compute_feature_set(cloud, image_width=width)

    def test_empty_cloud_rejected(self):
        with pytest.raises(DescriptorError, match="empty cloud"):
            compute_feature_set(PointCloud(np.zeros((0, 3))))

    def test_mismatched_normals_rejected(self):
        cloud = PointCloud([[0.0, 0.0, 0.0]])
        with pytest.raises(DescriptorError):
            compute_spin_image(cloud, np.zeros((2, 3)), [0.0, 0.0, 1.0])

    def test_feature_set_fields(self):
        cloud = generate_view(ShapeSpec("sphere", (0.05,), points=200, seed=13))
        fs = compute_feature_set(cloud, voxel=0.02)
        assert fs.as_matrix() is fs.matrix
        assert fs.keypoints.shape == fs.normals.shape == (len(fs), 3)
        assert np.array_equal(fs.keypoints, keypoints_of(cloud, 0.02))
        for name in ("matrix", "keypoints", "normals"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(fs, name)[0, 0] = 1.0

    def test_golden_feature_matrices(self):
        # Determinism guard: SHA-256 of the little-endian float64 feature
        # matrices of a fixed synthgen set, recorded from the per-keypoint
        # implementation.
        data = generate_dataset([
            CategorySpec("box", "box", (0.12, 0.08, 0.05), points=200, noise_sigma=0.002),
            CategorySpec("cylinder", "cylinder", (0.035, 0.14), points=200, noise_sigma=0.002),
            CategorySpec("cone", "cone", (0.05, 0.13), points=200, noise_sigma=0.002),
        ], 3, seed=42)
        digest = hashlib.sha256()
        for name in sorted(data):
            for view in data[name]:
                matrix = compute_feature_set(view, voxel=0.015).as_matrix()
                digest.update(np.ascontiguousarray(matrix, dtype="<f8").tobytes())
        assert digest.hexdigest() == (
            "48ad23e5d84b1b61e8b92a937f27e8b283337ee7bbc50b609ad90f4fdf41a824"
        )


def reference_normals(cloud):
    """estimate_normals over the whole cloud in one block."""
    pts = cloud.points
    k = min(descriptors._NORMAL_NEIGHBOURS, len(pts))
    _, nbrs = cKDTree(pts).query(pts, k=k)
    patches = pts[nbrs.reshape(len(pts), k)]
    centered = patches - patches.mean(axis=1, keepdims=True)
    _, vecs = np.linalg.eigh(np.einsum("mki,mkj->mij", centered, centered))
    normals = vecs[:, :, 0]
    normals[np.einsum("mi,mi->m", normals, -pts) < 0] *= -1.0
    return normals


def assert_same_bits(got, want):
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


class TestNormalBlocks:
    def test_cloud_spanning_several_blocks(self):
        cloud = generate_view(ShapeSpec("box", (0.3, 0.2, 0.1), points=30000, seed=17))
        assert len(cloud) > 2 * descriptors._BLOCK_PAIRS // descriptors._NORMAL_NEIGHBOURS
        assert_same_bits(estimate_normals(cloud), reference_normals(cloud))

    @pytest.mark.parametrize("m", [1, 2, 37, 71, 200])
    def test_small_blocks_and_a_one_point_tail(self, m, monkeypatch):
        # blocks of 7 points: 71 points leave a last block of one
        monkeypatch.setattr(descriptors, "_BLOCK_PAIRS", 7 * descriptors._NORMAL_NEIGHBOURS)
        cloud = PointCloud(np.random.default_rng(m).uniform(-0.1, 0.1, size=(m, 3)))
        assert_same_bits(estimate_normals(cloud), reference_normals(cloud))
