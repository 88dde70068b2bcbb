"""Table-top scene decomposition: dominant-plane RANSAC, prism extraction
above the plane, Euclidean clustering and the object-candidate filter
(cluster size and distance from the table edge).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.spatial import ConvexHull, QhullError, cKDTree

from .errors import (OpenobjError, check_count, check_fields, check_finite, check_positive,
                     finite_array, seeded)
from .pointcloud import PointCloud, PointCloudError

__all__ = [
    "Plane",
    "ObjectCandidate",
    "SegmentationParams",
    "ransac_plane",
    "extract_prism",
    "euclidean_cluster",
    "euclidean_cluster_indices",
    "detect_objects",
    "SegmentationError",
]


class SegmentationError(OpenobjError):
    pass


# probability that ransac_plane has drawn an all-inlier sample when it stops
PLANE_CONFIDENCE = 0.999


@dataclass(frozen=True, eq=False)
class Plane:
    """Plane {p : normal . p + d = 0}, finite with a unit normal, with the
    indices of its inliers in the scene cloud it was fitted to."""

    normal: np.ndarray
    d: float
    inlier_indices: np.ndarray

    def __post_init__(self):
        n = finite_array(self.normal, (1,), SegmentationError, "plane normal must be finite")
        if n.shape != (3,) or abs(np.linalg.norm(n) - 1.0) > 1e-9:
            raise SegmentationError("plane normal must be a 3-vector of unit length")
        finite_array(self.d, (0,), SegmentationError, "plane offset d must be a finite number")
        object.__setattr__(self, "normal", n)
        object.__setattr__(
            self, "inlier_indices", np.asarray(self.inlier_indices, dtype=np.int64)
        )

    def signed_distance(self, points: np.ndarray) -> np.ndarray:
        return np.asarray(points, dtype=np.float64) @ self.normal + self.d


@dataclass
class ObjectCandidate:
    """A segmented cluster that passed the size and table-edge tests;
    ``track_id`` is its position among the refined clusters."""

    cloud: PointCloud
    track_id: int


@dataclass(frozen=True)
class SegmentationParams:
    """Tunables for the detection pipeline; plane tau/iterations follow the
    reference setup, the rest are configuration. ``plane_iterations`` caps
    ransac_plane's samples, which stop earlier once enough are drawn.
    Checked when built: a bad value raises SegmentationError naming its
    field."""

    plane_tau: float = 0.02
    plane_iterations: int = 200
    prism_min: float = 0.005
    prism_max: float = 0.5
    link_dist: float = 0.03
    min_pts: int = 30
    max_pts: int = 50000
    min_size: float = 0.0
    max_size: float = 0.6
    edge_margin: float = 0.05
    seed: int = 0

    def __post_init__(self):
        check_fields(self, SegmentationError)
        for name in ("plane_tau", "link_dist"):
            check_positive(name, getattr(self, name), SegmentationError)
        for name, least in (("plane_iterations", 1), ("min_pts", 1), ("max_pts", self.min_pts),
                            ("seed", 0)):
            check_count(name, getattr(self, name), least, SegmentationError)
        for name, ok, rule in (
            ("prism_max", self.prism_max > self.prism_min, "exceed prism_min"),
            ("min_size", self.min_size >= 0, "be non-negative"),
            ("max_size", self.max_size >= self.min_size, "be at least min_size"),
            ("edge_margin", self.edge_margin >= 0, "be non-negative"),
        ):
            if not ok:
                raise SegmentationError(f"{name} must {rule}")


def _samples_needed(inlier_ratio: float) -> float:
    """Hartley & Zisserman's sample count: draws after which a sample of 3
    inliers has turned up with probability PLANE_CONFIDENCE, were
    ``inlier_ratio`` of the points on the plane. 0 when all of them are,
    infinite when none is."""
    hit = inlier_ratio ** 3
    if hit >= 1.0:
        return 0
    if hit <= 0.0:
        return math.inf
    return math.ceil(math.log1p(-PLANE_CONFIDENCE) / math.log1p(-hit))


def ransac_plane(scene: PointCloud, tau: float, iterations: int, seed: int) -> Plane:
    """Best plane through 3 sampled points, scored by inliers within tau
    (detect_objects passes SegmentationParams' plane_tau and
    plane_iterations).

    Samples are drawn one at a time, and ``iterations`` caps their number.
    After each better plane, with inlier ratio w, the draws stop once
    ceil(log(1 - p) / log(1 - w^3)) have been made in all, with
    p = PLANE_CONFIDENCE (Hartley & Zisserman, Multiple View Geometry,
    4.7.1); w = 1 stops at once. Collinear samples and samples with a +-inf
    point count as draws; a +-inf or NaN point is never an inlier. The
    draws are a prefix of the fixed-count stream, so the result is the best
    plane of the first draws up to the stop.

    Deterministic for a fixed seed; the normal is canonicalized so its
    largest-magnitude component is positive (tables in z-up worlds get an
    upward normal).
    """
    pts = scene.points
    m = len(pts)
    if m < 3:
        raise SegmentationError("need at least 3 points for a plane")
    check_positive("tau", tau, SegmentationError)
    check_count("iterations", iterations, 1, SegmentationError)
    rng = seeded(seed, SegmentationError)
    best_count = -1
    best = None
    drawn = 0
    stop = iterations
    with np.errstate(invalid="ignore"):  # inf - inf and inf * 0 of a +-inf point
        while drawn < stop:
            i, j, k = rng.choice(m, size=3, replace=False)
            drawn += 1
            normal = np.cross(pts[j] - pts[i], pts[k] - pts[i])
            norm = np.linalg.norm(normal)
            if norm < 1e-12 or not math.isfinite(norm):
                continue  # a collinear sample, or one with a +-inf point
            normal = normal / norm
            d = -normal @ pts[i]
            count = int(np.sum(np.abs(pts @ normal + d) < tau))
            if count > best_count:
                best_count = count
                best = (normal, d)
                stop = min(iterations, _samples_needed(count / m))
        if best is None:
            raise SegmentationError("no plane found: all samples collinear")
        normal, d = best
        axis = int(np.argmax(np.abs(normal)))
        if normal[axis] < 0:
            normal, d = -normal, -d
        inliers = np.flatnonzero(np.abs(pts @ normal + d) < tau)
    return Plane(normal=normal, d=d, inlier_indices=inliers)


def _plane_basis(normal: np.ndarray) -> np.ndarray:
    """Two orthonormal in-plane directions, rows of a (2, 3) matrix."""
    seed_axis = np.zeros(3)
    seed_axis[int(np.argmin(np.abs(normal)))] = 1.0
    u = np.cross(seed_axis, normal)
    u /= np.linalg.norm(u)
    v = np.cross(normal, u)
    return np.vstack([u, v])


def _table_hull(scene: PointCloud, plane: Plane):
    """The plane's in-plane basis and the 2D convex hull of its inliers."""
    if len(plane.inlier_indices) < 3:
        raise SegmentationError("not enough plane inliers to build a hull")
    basis = _plane_basis(plane.normal)
    try:
        hull = ConvexHull(scene.points[plane.inlier_indices] @ basis.T)
    except QhullError as exc:
        raise SegmentationError(f"degenerate plane inliers: {exc}") from exc
    return basis, hull


def _edge_gap(hull: ConvexHull, pts2d: np.ndarray) -> np.ndarray:
    """Minus the largest edge-line value of each 2D point: negative outside
    the hull, and inside it the distance to the boundary. Qhull's edge
    lines (a, b, c) have unit normals (a, b) and a x + b y + c < 0 inside,
    and the nearest boundary point of a point inside a convex polygon lies
    on its nearest edge line."""
    return -np.max(pts2d @ hull.equations[:, :2].T + hull.equations[:, 2], axis=1)


def extract_prism(
    scene: PointCloud, plane: Plane, min_h: float, max_h: float
) -> PointCloud:
    """Points whose height above the plane lies in (min_h, max_h) and whose
    projection falls inside the convex hull of the plane inliers."""
    check_finite("min_h", min_h, SegmentationError)
    check_finite("max_h", max_h, SegmentationError)
    if not max_h > min_h:
        raise SegmentationError(f"max_h must exceed min_h, got {max_h!r} and {min_h!r}")
    basis, hull = _table_hull(scene, plane)
    with np.errstate(invalid="ignore"):  # inf * 0 of a +-inf point
        heights = plane.signed_distance(scene.points)
        in_band = (heights > min_h) & (heights < max_h)
        inside = _edge_gap(hull, scene.points @ basis.T) >= -1e-9  # 1e-9 slack
    return scene.select(in_band & inside)


def euclidean_cluster_indices(
    cloud: PointCloud, link_dist: float, min_pts: int = 1, max_pts: int | None = None
) -> list[np.ndarray]:
    """Connected components of the link graph, as index arrays.

    Points closer than link_dist (strict) are linked; components with size
    outside [min_pts, max_pts] are discarded. Clusters are ordered by their
    lowest contained point index, so the result does not depend on
    traversal order.
    """
    # imported here: scipy.sparse.csgraph loads scipy.sparse.linalg, about
    # 3 MB that the paths which never segment a scene should not carry
    from scipy.sparse.csgraph import connected_components

    check_positive("link_dist", link_dist, SegmentationError)
    check_count("min_pts", min_pts, 1, SegmentationError)
    if max_pts is not None:
        check_count("max_pts", max_pts, min_pts, SegmentationError)
    m = len(cloud)
    if m == 0:
        return []
    tree = cKDTree(finite_array(cloud.points, (2,), SegmentationError, "points must be finite"))
    pairs = tree.query_pairs(r=link_dist, output_type="ndarray")
    if len(pairs):
        gap = np.linalg.norm(cloud.points[pairs[:, 0]] - cloud.points[pairs[:, 1]], axis=1)
        pairs = pairs[gap < link_dist]  # strict inequality
    graph = coo_matrix(
        (np.ones(len(pairs), dtype=bool), (pairs[:, 0], pairs[:, 1])), shape=(m, m)
    )
    n_components, labels = connected_components(graph, directed=False)
    sizes = np.bincount(labels, minlength=n_components)
    # members of each component in ascending point order
    members = np.split(np.argsort(labels, kind="stable"), np.cumsum(sizes)[:-1])
    keep = sizes >= min_pts
    if max_pts is not None:
        keep &= sizes <= max_pts
    clusters = [members[c] for c in np.flatnonzero(keep)]
    clusters.sort(key=lambda idx: idx[0])
    return clusters


def euclidean_cluster(
    cloud: PointCloud, link_dist: float, min_pts: int = 1, max_pts: int | None = None
) -> list[PointCloud]:
    """Size-filtered connected components as point clouds."""
    return [cloud.select(idx) for idx in euclidean_cluster_indices(cloud, link_dist, min_pts, max_pts)]


def detect_objects(
    scene: PointCloud, params: SegmentationParams = SegmentationParams()
) -> list[ObjectCandidate]:
    """Full detection pipeline: plane -> prism -> clusters -> filter.

    Clusters exceeding the point-count cap (touching piles) get one
    refinement pass with half the link distance. A survivor is kept when
    its largest extent lies in [min_size, max_size] and its centre,
    projected onto the table, is at least edge_margin inside the table
    hull.
    """
    plane = ransac_plane(scene, params.plane_tau, params.plane_iterations, params.seed)
    prism = extract_prism(scene, plane, params.prism_min, params.prism_max)
    clusters = euclidean_cluster(prism, params.link_dist, params.min_pts, max_pts=None)

    refined = []
    for cluster in clusters:
        if len(cluster) > params.max_pts:
            refined.extend(
                euclidean_cluster(cluster, params.link_dist / 2, params.min_pts, params.max_pts)
            )
        else:
            refined.append(cluster)

    basis, hull = _table_hull(scene, plane)
    candidates = []
    for track_id, cluster in enumerate(refined):
        size = np.max(np.ptp(cluster.points, axis=0))
        center2d = (cluster.points.mean(axis=0) @ basis.T)[None, :]
        if (params.min_size <= size <= params.max_size
                and _edge_gap(hull, center2d)[0] >= params.edge_margin):
            candidates.append(ObjectCandidate(cloud=cluster, track_id=track_id))
    return candidates
