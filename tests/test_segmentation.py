"""Plane fitting, prism extraction, clustering and candidate detection."""

import contextlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull

from openobj import segmentation
from openobj.pointcloud import PointCloud
from openobj.segmentation import (
    Plane,
    SegmentationError,
    SegmentationParams,
    _edge_gap,
    _plane_basis,
    detect_objects,
    euclidean_cluster,
    euclidean_cluster_indices,
    extract_prism,
    ransac_plane,
)
from openobj.synthgen import ShapeSpec, generate_scene, random_rotation


def reference_boundary_distance(hull, query2d):
    """Distance from each 2D query point to the hull polygon's boundary, by
    a walk over its edges (hull.vertices runs around the polygon)."""
    vertices = hull.points[hull.vertices]
    dists = np.full(len(query2d), np.inf)
    for a, b in zip(vertices, np.roll(vertices, -1, axis=0)):
        ab = b - a
        t = np.clip(((query2d - a) @ ab) / (ab @ ab), 0.0, 1.0)
        dists = np.minimum(dists, np.linalg.norm(query2d - (a + t[:, None] * ab), axis=1))
    return dists


def reference_inside(hull, query2d):
    """Hull membership with 1e-9 slack, by the edge lines' signs."""
    values = query2d @ hull.equations[:, :2].T + hull.equations[:, 2]
    return np.all(values <= 1e-9, axis=1)


def reference_draws(pts, tau, iterations, seed):
    """All ``iterations`` samples of ransac_plane's seeded stream, scored one
    at a time: (normal, d, inlier count), or None for a collinear sample."""
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(iterations):
        i, j, k = rng.choice(len(pts), size=3, replace=False)
        normal = np.cross(pts[j] - pts[i], pts[k] - pts[i])
        norm = np.linalg.norm(normal)
        if norm < 1e-12:
            draws.append(None)
            continue
        normal = normal / norm
        d = -normal @ pts[i]
        draws.append((normal, d, int(np.sum(np.abs(pts @ normal + d) < tau))))
    return draws


def reference_stop(draws, m):
    """How many of ``draws`` the stop rule takes: each better sample, with
    inlier ratio w, asks for ceil(log(1 - p) / log(1 - w^3)) draws in all,
    with p = 0.999, and w = 1 for none more; ``len(draws)`` is the cap."""
    best, needed = -1, len(draws)
    for drawn, draw in enumerate(draws, start=1):
        if draw is not None and draw[2] > best:
            best = draw[2]
            hit = (best / m) ** 3
            if hit == 1.0:
                needed = drawn
            elif hit > 0.0:
                needed = math.ceil(math.log1p(-0.999) / math.log1p(-hit))
        if drawn >= needed:
            return drawn
    return len(draws)


def reference_plane(pts, tau, draws):
    """The first best-scoring sample of ``draws`` as ransac_plane returns it:
    normal with its largest component positive, d and the inlier indices."""
    scored = [draw for draw in draws if draw is not None]
    normal, d, _ = max(scored, key=lambda draw: draw[2])  # max keeps the first
    if normal[np.argmax(np.abs(normal))] < 0:
        normal, d = -normal, -d
    return normal, d, np.flatnonzero(np.abs(pts @ normal + d) < tau)


def fixed_count_ransac(scene, tau, iterations, seed):
    """ransac_plane as it was before the stop rule: the best of all
    ``iterations`` samples."""
    normal, d, inliers = reference_plane(
        scene.points, tau, reference_draws(scene.points, tau, iterations, seed)
    )
    return Plane(normal=normal, d=d, inlier_indices=inliers)


@contextlib.contextmanager
def counted_draws():
    """A list that gets one entry per ``Generator.choice`` call made by a
    generator built inside the block: ransac_plane's draws."""
    draws = []
    make = np.random.default_rng

    class Counting:
        def __init__(self, seed):
            self.rng = make(seed)

        def choice(self, *args, **kwargs):
            draws.append(None)
            return self.rng.choice(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.random, "default_rng", Counting)
        yield draws


def assert_plane_is(plane, expected):
    normal, d, inliers = expected
    assert (plane.normal == normal).all()
    assert plane.d == d
    assert plane.inlier_indices.tolist() == inliers.tolist()


def table_scene(seed=0, n_outliers=60):
    objects = [
        ShapeSpec("box", (0.08, 0.06, 0.1), points=250, translation=(0.25, 0.15, 0.05), seed=11),
        ShapeSpec("box", (0.05, 0.05, 0.07), points=250, translation=(-0.25, -0.1, 0.035), seed=12),
        ShapeSpec("box", (0.1, 0.04, 0.05), points=250, translation=(0.0, 0.2, 0.025), seed=13),
    ]
    return generate_scene(objects, seed=seed, n_outliers=n_outliers)


class TestRansacPlane:
    def test_synthetic_plane_recovered(self):
        rng = np.random.default_rng(1)
        plane_pts = np.column_stack(
            [rng.uniform(-1, 1, 500), rng.uniform(-1, 1, 500), np.full(500, 0.7)]
        )
        outliers = rng.uniform(-1, 1, size=(50, 3))
        scene = PointCloud(np.vstack([plane_pts, outliers]))
        plane = ransac_plane(scene, tau=0.02, iterations=200, seed=0)
        angle = np.degrees(np.arccos(np.clip(abs(plane.normal @ [0, 0, 1]), -1, 1)))
        assert angle < 2.0
        assert len(plane.inlier_indices) >= 500

    def test_three_points_exact(self):
        scene = PointCloud([[0, 0, 0], [1, 0, 0], [0, 1, 0.5]])
        plane = ransac_plane(scene, tau=0.01, iterations=50, seed=3)
        assert len(plane.inlier_indices) == 3
        np.testing.assert_allclose(plane.signed_distance(scene.points), 0, atol=1e-12)

    def test_seed_determinism(self):
        rng = np.random.default_rng(2)
        scene = PointCloud(rng.uniform(-1, 1, size=(200, 3)))
        a = ransac_plane(scene, tau=0.05, iterations=100, seed=7)
        b = ransac_plane(scene, tau=0.05, iterations=100, seed=7)
        np.testing.assert_array_equal(a.normal, b.normal)
        assert a.d == b.d
        np.testing.assert_array_equal(a.inlier_indices, b.inlier_indices)

    def test_inliers_monotone_in_tau(self):
        rng = np.random.default_rng(4)
        scene = PointCloud(rng.uniform(-1, 1, size=(300, 3)))
        counts = []
        for tau in (0.01, 0.05, 0.1, 0.2):
            plane = ransac_plane(scene, tau=tau, iterations=150, seed=5)
            counts.append(len(plane.inlier_indices))
        assert counts == sorted(counts)

    def test_too_few_points(self):
        with pytest.raises(SegmentationError):
            ransac_plane(PointCloud([[0, 0, 0], [1, 1, 1]]), 0.02, 10, 0)

    @pytest.mark.parametrize("tau", [0.0, np.nan, np.inf])
    def test_tau_outside_zero_to_infinity_rejected(self, tau):
        scene = PointCloud([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
        with pytest.raises(SegmentationError, match="tau must be positive and finite"):
            ransac_plane(scene, tau, 10, seed=0)

    def test_all_collinear_no_plane(self):
        line = PointCloud([[i * 0.1, 0.0, 0.0] for i in range(5)])
        with counted_draws() as made, pytest.raises(SegmentationError, match="no plane"):
            ransac_plane(line, 0.02, 50, seed=0)
        assert len(made) == 50  # collinear samples count towards the cap

    @settings(max_examples=60, deadline=None)
    @given(
        cloud_seed=st.integers(0, 2**32 - 1),
        n_points=st.integers(10, 400),
        outlier_share=st.floats(0.0, 0.5),
        tau=st.floats(0.002, 0.1),
        iterations=st.integers(1, 200),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_best_of_the_draws_the_stop_rule_takes(
        self, cloud_seed, n_points, outlier_share, tau, iterations, seed
    ):
        n_outliers = int(n_points * outlier_share)
        n_plane = n_points - n_outliers
        rng = np.random.default_rng(cloud_seed)
        xy = rng.uniform(-1, 1, size=(n_plane, 2))
        a, b, c = rng.uniform(-1, 1, size=3)
        z = xy @ [a, b] + c + rng.normal(0, 0.005, n_plane)
        pts = np.vstack([np.column_stack([xy, z]), rng.uniform(-2, 2, size=(n_outliers, 3))])
        draws = reference_draws(pts, tau, iterations, seed)
        taken = reference_stop(draws, len(pts))
        with counted_draws() as made:
            plane = ransac_plane(PointCloud(pts), tau, iterations, seed)
        assert len(made) == taken
        assert_plane_is(plane, reference_plane(pts, tau, draws[:taken]))

    def test_table_scene_stops_early(self):
        scene = table_scene()[0]
        with counted_draws() as made:
            plane = ransac_plane(scene, 0.02, 200, seed=0)
        draws = reference_draws(scene.points, 0.02, 200, seed=0)
        assert len(made) == reference_stop(draws, len(scene)) < 30
        assert_plane_is(plane, reference_plane(scene.points, 0.02, draws[:len(made)]))

    def test_plane_free_cloud_uses_the_cap(self):
        pts = np.random.default_rng(3).uniform(-1, 1, size=(300, 3))
        with counted_draws() as made:
            plane = ransac_plane(PointCloud(pts), 0.01, 200, seed=4)
        assert len(made) == 200
        assert_plane_is(plane, reference_plane(pts, 0.01, reference_draws(pts, 0.01, 200, 4)))

    def test_planar_cloud_stops_at_its_first_plane(self):
        # six points on a line and two off it, all at z = 0.7: 20 of the 56
        # samples are collinear, and any other one holds every point
        pts = np.array([[x, 0.0, 0.7] for x in range(6)] + [[0.0, 1.0, 0.7], [1.0, 1.0, 0.7]])
        firsts = []
        for seed in range(20):
            draws = reference_draws(pts, 0.01, 50, seed)
            first = next(i for i, draw in enumerate(draws, start=1) if draw is not None)
            with counted_draws() as made:
                plane = ransac_plane(PointCloud(pts), 0.01, 50, seed)
            assert len(made) == first
            assert len(plane.inlier_indices) == len(pts)
            firsts.append(first)
        assert max(firsts) > 1  # some seeds drew collinear samples first

    def test_normal_canonical_upward(self):
        rng = np.random.default_rng(10)
        table = np.column_stack(
            [rng.uniform(-1, 1, 300), rng.uniform(-1, 1, 300), np.full(300, 0.7)]
        )
        plane = ransac_plane(PointCloud(table), 0.02, 100, seed=0)
        assert plane.normal[2] > 0


class TestPlane:
    def test_nan_normal_refused(self):
        with pytest.raises(SegmentationError, match="^plane normal must be finite$"):
            Plane(normal=[math.nan] * 3, d=0.0, inlier_indices=[0, 1, 2])

    def test_nan_offset_refused(self):
        with pytest.raises(SegmentationError, match="^plane offset d must be a finite number"):
            Plane(normal=[0.0, 0.0, 1.0], d=math.nan, inlier_indices=[0, 1, 2])


class TestExtractPrism:
    def plane_with_hull(self):
        xs, ys = np.meshgrid(np.linspace(-0.5, 0.5, 11), np.linspace(-0.5, 0.5, 11))
        pts = np.column_stack([xs.ravel(), ys.ravel(), np.zeros(xs.size)])
        return PointCloud(pts), Plane(
            normal=np.array([0.0, 0.0, 1.0]), d=0.0, inlier_indices=np.arange(len(pts))
        )

    def test_point_above_interior_kept(self):
        table, plane = self.plane_with_hull()
        scene = PointCloud(np.vstack([table.points, [[0.0, 0.0, 0.05]]]))
        plane = Plane(plane.normal, plane.d, np.arange(len(table)))
        kept = extract_prism(scene, plane, 0.01, 0.5)
        assert len(kept) == 1
        np.testing.assert_allclose(kept.points[0], [0, 0, 0.05])

    def test_point_outside_hull_dropped(self):
        table, plane = self.plane_with_hull()
        scene = PointCloud(np.vstack([table.points, [[2.0, 0.0, 0.05]]]))
        plane = Plane(plane.normal, plane.d, np.arange(len(table)))
        kept = extract_prism(scene, plane, 0.01, 0.5)
        assert len(kept) == 0

    def test_inverted_band_rejected(self):
        table, plane = self.plane_with_hull()
        with pytest.raises(SegmentationError):
            extract_prism(table, plane, 0.5, 0.1)

    def test_too_few_inliers_rejected(self):
        scene = PointCloud([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
        plane = Plane(normal=np.array([0.0, 0.0, 1.0]), d=0.0, inlier_indices=np.array([0, 1]))
        with pytest.raises(SegmentationError):
            extract_prism(scene, plane, 0.01, 0.5)

    def test_scene_objects_recovered(self):
        # Boxes floated 1 cm above the table so every object point sits
        # strictly inside the (0.005, 0.5) height band.
        objects = [
            ShapeSpec("box", (0.08, 0.06, 0.1), points=250,
                      translation=(0.25, 0.15, 0.06), seed=11),
            ShapeSpec("box", (0.05, 0.05, 0.07), points=250,
                      translation=(-0.25, -0.1, 0.045), seed=12),
        ]
        scene, labels = generate_scene(objects, seed=2, n_outliers=60)
        plane = ransac_plane(scene, 0.02, 200, seed=0)
        kept = extract_prism(scene, plane, 0.005, 0.5)
        got = {tuple(p) for p in kept.points}
        want = {tuple(p) for p in scene.points[labels > 0]}
        assert got == want


class TestEuclideanCluster:
    def test_two_blobs(self):
        rng = np.random.default_rng(6)
        a = rng.normal(scale=0.01, size=(100, 3))
        b = rng.normal(scale=0.01, size=(100, 3)) + [0.5, 0, 0]
        clusters = euclidean_cluster(PointCloud(np.vstack([a, b])), 0.05)
        assert len(clusters) == 2
        assert sorted(len(c) for c in clusters) == [100, 100]

    def test_singleton(self):
        clusters = euclidean_cluster(PointCloud([[1.0, 2.0, 3.0]]), 0.05, min_pts=1)
        assert len(clusters) == 1 and len(clusters[0]) == 1

    def test_matches_union_find_oracle(self):
        rng = np.random.default_rng(7)
        for trial in range(5):
            pts = rng.uniform(0, 0.3, size=(120, 3))
            link = (0.03, 0.045, 0.06)[trial % 3]
            # O(m^2) oracle over the full distance matrix
            dist = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
            adj = dist < link
            seen = np.zeros(len(pts), dtype=bool)
            components = []
            for start in range(len(pts)):
                if seen[start]:
                    continue
                stack, comp = [start], []
                seen[start] = True
                while stack:
                    u = stack.pop()
                    comp.append(u)
                    for v in np.flatnonzero(adj[u]):
                        if not seen[v]:
                            seen[v] = True
                            stack.append(v)
                components.append(sorted(comp))
            components.sort(key=lambda c: c[0])
            sizes = sorted({len(c) for c in components})
            # no filter, then bounds that cut both ends of the size range
            for min_pts, max_pts in [(1, None), (2, None), (1, sizes[-1] - 1),
                                     (sizes[len(sizes) // 2], sizes[-1])]:
                got = euclidean_cluster_indices(PointCloud(pts), link, min_pts, max_pts)
                expected = [c for c in components if len(c) >= min_pts
                            and (max_pts is None or len(c) <= max_pts)]
                assert [g.tolist() for g in got] == expected

    @pytest.mark.parametrize("link_dist", [0.0, np.nan, np.inf])
    def test_link_dist_outside_zero_to_infinity_rejected(self, link_dist):
        pts = np.random.default_rng(5).uniform(0, 0.3, size=(50, 3))
        with pytest.raises(SegmentationError, match="link_dist must be positive and finite"):
            euclidean_cluster_indices(PointCloud(pts), link_dist)

    def test_partition_property(self):
        rng = np.random.default_rng(8)
        pts = rng.uniform(0, 0.4, size=(200, 3))
        clusters = euclidean_cluster_indices(PointCloud(pts), 0.05, min_pts=1)
        flat = np.concatenate(clusters)
        assert len(flat) == len(pts)
        assert len(np.unique(flat)) == len(pts)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(9)
        pts = rng.uniform(0, 0.3, size=(150, 3))
        base = euclidean_cluster(PointCloud(pts), 0.05)
        perm = rng.permutation(len(pts))
        shuffled = euclidean_cluster(PointCloud(pts[perm]), 0.05)
        key = lambda c: sorted(map(tuple, c.points))
        assert sorted(map(key, base)) == sorted(map(key, shuffled))


def floating_scene(seed):
    """A scene laid out like the table_scene benchmark's: 3-4 rotated desk
    shapes with sensor noise at well-spaced spots, lifted so their lowest
    points clear a 0.7 m table by 4 cm, and 50 outliers."""
    rng = np.random.default_rng(seed)
    shapes = [("box", (0.12, 0.08, 0.05)), ("cylinder", (0.035, 0.14)), ("sphere", (0.05,)),
              ("cone", (0.05, 0.13)), ("plate", (0.15, 0.1))]
    spots = [(x, y) for x in (-0.36, 0.0, 0.36) for y in (-0.17, 0.17)]
    objects = []
    for spot in rng.choice(len(spots), size=int(rng.integers(3, 5)), replace=False):
        kind, dims = shapes[int(rng.integers(len(shapes)))]
        # the farthest surface point from the shape's origin
        if kind == "cone":
            reach = max(dims)
        elif kind == "cylinder":
            reach = math.hypot(dims[0], dims[1] / 2)
        else:  # box and plate half-diagonals, sphere radius
            reach = math.hypot(*dims) / (1 if kind == "sphere" else 2)
        objects.append(ShapeSpec(
            kind, dims, points=250, noise_sigma=0.002, rotation=random_rotation(rng),
            translation=(*spots[spot], reach + 0.04), seed=int(rng.integers(2**31 - 1)),
        ))
    return generate_scene(objects, n_outliers=50, seed=int(rng.integers(2**31 - 1)))[0]


class TestDetectObjects:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_candidates_equal_the_fixed_count_ones(self, seed, monkeypatch):
        scene = floating_scene(seed)
        params = SegmentationParams(seed=0)
        candidates = detect_objects(scene, params)
        monkeypatch.setattr(segmentation, "ransac_plane", fixed_count_ransac)
        expected = detect_objects(scene, params)
        assert len(candidates) == len(expected) >= 3
        for got, want in zip(candidates, expected):
            assert got.track_id == want.track_id
            assert got.cloud.points.tobytes() == want.cloud.points.tobytes()

    def test_three_boxes_found(self):
        scene, labels = table_scene()
        params = SegmentationParams(seed=0)
        candidates = detect_objects(scene, params)
        assert len(candidates) == 3
        plane = ransac_plane(scene, params.plane_tau, params.plane_iterations, params.seed)
        basis = _plane_basis(plane.normal)
        hull = ConvexHull(scene.points[plane.inlier_indices] @ basis.T)
        for cand in candidates:
            size = np.max(cand.cloud.points.max(axis=0) - cand.cloud.points.min(axis=0))
            assert params.min_size <= size <= params.max_size
            center2d = (cand.cloud.points.mean(axis=0) @ basis.T)[None, :]
            assert reference_inside(hull, center2d)[0]
            assert reference_boundary_distance(hull, center2d)[0] >= params.edge_margin
            # each candidate should be at least 95 % points of one object
            got = {tuple(p) for p in cand.cloud.points}
            best = max(
                (
                    len(got & {tuple(p) for p in scene.points[labels == k]})
                    for k in (1, 2, 3)
                )
            )
            assert best / len(got) >= 0.95

    @pytest.mark.parametrize("axis,value", [(2, math.nan), (1, math.inf), (1, -math.inf)],
                             ids=["nan", "inf", "-inf"])
    def test_a_non_finite_point_changes_no_candidate(self, axis, value):
        # it is never a plane inlier nor in the prism, so the clustering
        # never sees it; a plane sample holding +-inf is skipped; no step warns
        scene, _ = table_scene()
        params = SegmentationParams(seed=0)
        expected = detect_objects(scene, params)
        points = scene.points.copy()
        points[100, axis] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            candidates = detect_objects(PointCloud(points), params)
        assert len(candidates) == len(expected) == 3
        for got, want in zip(candidates, expected):
            assert got.cloud.points.tobytes() == want.cloud.points.tobytes()

    def test_oversize_cluster_excluded(self):
        # dense 2 m rod above the table: one connected cluster, fails the
        # size bound
        rod = ShapeSpec("box", (2.0, 0.05, 0.05), points=6000, translation=(0, 0, 0.035), seed=21)
        scene, _ = generate_scene([rod], table_extent=(3.0, 2.0), seed=3)
        candidates = detect_objects(scene, SegmentationParams(seed=0))
        assert candidates == []

    def test_near_edge_excluded(self):
        # box centered 1 cm from the hull edge with a 5 cm margin
        box = ShapeSpec("box", (0.06, 0.06, 0.06), points=300,
                        translation=(0.59, 0.0, 0.03), seed=22)
        scene, _ = generate_scene([box], table_extent=(1.2, 0.8), seed=4)
        candidates = detect_objects(scene, SegmentationParams(seed=0, edge_margin=0.05))
        assert candidates == []

    @staticmethod
    def touching_boxes():
        # two 6 cm boxes 2 cm apart: one cluster at link_dist 0.03, two at
        # the refinement pass's 0.015
        boxes = [
            ShapeSpec("box", (0.06, 0.06, 0.06), points=300, translation=(x, 0.0, 0.03), seed=s)
            for x, s in ((-0.04, 31), (0.04, 32))
        ]
        return generate_scene(boxes, seed=5)

    def test_oversize_cluster_refined_into_objects(self):
        scene, labels = self.touching_boxes()
        assert len(detect_objects(scene, SegmentationParams(seed=0))) == 1
        # each box keeps about 230 points above the table, both about 460
        candidates = detect_objects(scene, SegmentationParams(seed=0, max_pts=400))
        assert len(candidates) == 2
        owners = []
        for cand in candidates:
            rows = {tuple(p) for p in cand.cloud.points}
            owners.append({int(k) for p, k in zip(scene.points, labels) if tuple(p) in rows})
        assert sorted(owners, key=min) == [{1}, {2}]

    def test_refined_cluster_still_oversize_dropped(self):
        scene, _ = self.touching_boxes()
        assert detect_objects(scene, SegmentationParams(seed=0, max_pts=200)) == []


class TestEdgeGap:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(3, 40), st.floats(0.0, 0.5))
    def test_matches_edge_walk(self, seed, n, margin):
        # random hull and query points inside, on both sides of, and well
        # outside its boundary
        rng = np.random.default_rng(seed)
        hull = ConvexHull(rng.uniform(-1, 1, size=(n, 2)) * rng.uniform(0.1, 2.0, size=2))
        query = rng.uniform(-2.5, 2.5, size=(50, 2))
        gap = _edge_gap(hull, query)
        walk = reference_boundary_distance(hull, query)
        inside = reference_inside(hull, query)
        np.testing.assert_allclose(gap[inside], walk[inside], rtol=0, atol=1e-12)
        assert np.all(gap[~inside] < 0)
        # detect_objects keeps a centre when gap >= margin; the walk kept it
        # when inside and walk >= margin
        decided = np.abs(walk - margin) > 1e-9
        np.testing.assert_array_equal(
            (gap >= margin)[decided], (inside & (walk >= margin))[decided]
        )


class TestSegmentationParams:
    @pytest.mark.parametrize("name,value", [
        ("plane_tau", 0.0),
        ("plane_tau", float("nan")),
        ("plane_iterations", 0),
        ("plane_iterations", 2.5),
        ("prism_min", float("nan")),
        ("prism_max", 0.005),
        ("prism_max", float("inf")),
        ("link_dist", 0.0),
        ("link_dist", float("nan")),
        ("min_pts", 0),
        ("min_pts", 2.5),
        ("max_pts", 29),
        ("min_size", -0.01),
        ("min_size", float("nan")),
        ("max_size", float("nan")),
        ("max_size", -1.0),
        ("edge_margin", float("nan")),
        ("edge_margin", -0.01),
        ("seed", -1),
        ("seed", True),
    ])
    def test_bad_field_rejected(self, name, value):
        with pytest.raises(SegmentationError, match=f"^{name} must"):
            SegmentationParams(**{name: value})

    def test_defaults_and_bounds_accepted(self):
        SegmentationParams()
        SegmentationParams(min_pts=1, max_pts=1, min_size=0.0, max_size=0.0, edge_margin=0.0)
