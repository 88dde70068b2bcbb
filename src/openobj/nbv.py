"""Next-best-view selection: viewpoint entropy over segmented scenes,
orthographic depth-buffer rendering of virtual views, Gaussian distance
weighting and probabilistic view selection, composed by ``rank_views``
into the one render -> cluster -> entropy -> weight -> sample policy."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (OpenobjError, check_count, check_pose, check_positive, check_rotation,
                     finite_array, finite_number, read_json, seeded)
from .pointcloud import PointCloud
from .segmentation import euclidean_cluster

__all__ = [
    "CameraPose",
    "SegmentedScene",
    "viewpoint_entropy",
    "render_virtual",
    "weighted_entropy",
    "select_next_view",
    "rank_views",
    "load_poses",
    "NbvError",
]

DEFAULT_RESOLUTION = 128
EXTENT_MARGIN = 0.05  # orthographic window grows 5 % past the scene AABB
# rank_views clusters renders with no table assumption (any direction works)
CLUSTER_LINK_DIST, CLUSTER_MIN_PTS = 0.03, 5


class NbvError(OpenobjError):
    pass


@dataclass(frozen=True, eq=False)
class CameraPose:
    """Camera-to-world rotation and translation; the camera looks along
    its local +Z axis. The rotation passes ``errors.check_rotation``."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        check_pose(self, NbvError)
        check_rotation(self.rotation, NbvError, "camera rotation")

    def to_camera(self, points: np.ndarray) -> np.ndarray:
        return (np.asarray(points, dtype=np.float64) - self.translation) @ self.rotation


@dataclass(frozen=True)
class SegmentedScene:
    """Cluster decomposition of a rendered view. Cluster area is its
    visible point count; total_area defaults to the sum but may be larger
    when the scene holds non-cluster points."""

    clusters: tuple
    total_area: float | None = None

    def __post_init__(self):
        clusters = tuple(self.clusters)
        object.__setattr__(self, "clusters", clusters)
        covered = float(sum(len(c) for c in clusters))
        total = covered if self.total_area is None else float(self.total_area)
        if total < covered:
            raise NbvError("total area cannot undercut the cluster areas")
        object.__setattr__(self, "total_area", total)


def viewpoint_entropy(scene: SegmentedScene) -> float:
    """H = -sum (A_i / S) log(A_i / S) over cluster area fractions."""
    if not scene.clusters:
        raise NbvError("need at least one cluster")
    areas = np.array([len(c) for c in scene.clusters], dtype=np.float64)
    if np.any(areas <= 0) or scene.total_area <= 0:
        raise NbvError("cluster areas must be positive")
    fractions = areas / scene.total_area
    return float(-np.sum(fractions * np.log(fractions)))


def render_virtual(
    world: PointCloud,
    pose: CameraPose,
    resolution: int = DEFAULT_RESOLUTION,
) -> PointCloud:
    """Virtual view by orthographic projection with a depth buffer.

    Points are binned onto a resolution x resolution pixel grid over the
    camera-frame XY window, a square fitted to the scene plus a margin;
    each pixel keeps its nearest point (smallest camera z). The result is
    the subset of world points that stay visible, in world coordinates.
    """
    if len(world) == 0:
        raise NbvError("empty world cloud")
    check_count("resolution", resolution, 1, NbvError)
    cam = pose.to_camera(finite_array(world.points, (2,), NbvError, "points must be finite"))
    xy = cam[:, :2]
    lo = xy.min(axis=0)
    hi = xy.max(axis=0)
    span = float(np.max(hi - lo)) * (1 + EXTENT_MARGIN) + 1e-12
    origin = (lo + hi) / 2 - span / 2
    pix = np.floor((xy - origin) / span * resolution).astype(np.int64)
    in_window = np.all((pix >= 0) & (pix < resolution), axis=1)
    flat = pix[:, 0] * resolution + pix[:, 1]
    idx = np.flatnonzero(in_window)
    if len(idx) == 0:
        return world.select(idx)
    # group by pixel, keep the smallest camera z (ties: lowest point index)
    order = np.lexsort((idx, cam[idx, 2], flat[idx]))
    ranked = idx[order]
    first = np.ones(len(ranked), dtype=bool)
    first[1:] = flat[ranked[1:]] != flat[ranked[:-1]]
    return world.select(np.sort(ranked[first]))


def weighted_entropy(h: float, v: CameraPose, v_c: CameraPose, sigma: float) -> float:
    """Gaussian travel-distance weighting of a view entropy:
    H / (sigma sqrt(2 pi)) * exp(-|t_v - t_vc|^2 / (2 sigma^2)), H >= 0."""
    if not (finite_number(h) and h >= 0):
        raise NbvError(f"entropy h must be finite and non-negative, got {h!r}")
    check_positive("sigma", sigma, NbvError)
    dist_sq = float(np.sum((v.translation - v_c.translation) ** 2))
    weight = np.exp(-dist_sq / (2 * sigma**2)) / (sigma * np.sqrt(2 * np.pi))
    return float(h * weight)


def select_next_view(candidates, seed: int = 0):
    """Sample one of the (item, weighted entropy) candidates with
    probability proportional to its weight and return its item as given
    (a pose, or an index); deterministic per seed."""
    if not candidates:
        raise NbvError("no candidate views")
    items = [item for item, _ in candidates]
    weights = np.array([w for _, w in candidates], dtype=np.float64)
    if not np.all((weights >= 0) & (weights < np.inf)):  # refuses NaN too
        raise NbvError("weighted entropies must be finite and non-negative")
    total = weights.sum()
    if total <= 0:
        raise NbvError("all candidate weights are zero")
    rng = seeded(seed, NbvError)
    idx = int(np.searchsorted(np.cumsum(weights / total), rng.random(), side="right"))
    return items[min(idx, len(items) - 1)]


def rank_views(world, poses, current, sigma, resolution=DEFAULT_RESOLUTION, seed=0):
    """Entropies of the poses' clustered renders (0.0 for an empty or
    cluster-free render) and the same weighted by travel from ``current``,
    in pose order, and the index sampled by weight (None if all are 0)."""
    check_count("seed", seed, 0, NbvError)  # used only when some weight is positive
    if not poses:
        raise NbvError("no candidate views")
    entropies, weights = [], []
    for pose in poses:
        view = render_virtual(world, pose, resolution)
        clusters = euclidean_cluster(view, CLUSTER_LINK_DIST, CLUSTER_MIN_PTS)
        scene = SegmentedScene(tuple(clusters), total_area=len(view))
        entropies.append(viewpoint_entropy(scene) if clusters else 0.0)
        weights.append(weighted_entropy(entropies[-1], pose, current, sigma))
    if not any(w > 0 for w in weights):
        return entropies, weights, None
    return entropies, weights, select_next_view(list(enumerate(weights)), seed=seed)


def load_poses(path) -> list:
    """Candidate poses from a JSON list of {rotation (row-major 9),
    translation (3)}."""
    raw = read_json(path, NbvError)
    if not isinstance(raw, list):
        raise NbvError(f"{path}: expected a JSON list of poses")
    poses = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict) or not {"rotation", "translation"} <= entry.keys():
            raise NbvError(f"{path}: pose {i} needs a 9-value rotation and a 3-value translation")
        try:
            poses.append(CameraPose(rotation=entry["rotation"], translation=entry["translation"]))
        except NbvError as exc:
            raise NbvError(f"{path}: pose {i}: {exc}") from None
    return poses
