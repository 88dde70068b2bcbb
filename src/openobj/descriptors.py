"""Object-view feature extraction: the global orthographic object
descriptor (three binned projections in a disambiguated PCA frame, ordered
by entropy then variance) and spin-image local features over
voxel-selected keypoints.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cmp_to_key

import numpy as np
from scipy.spatial import cKDTree

from .errors import OpenobjError, check_count, check_positive, finite_array
from .pointcloud import PointCloud, PointCloudError, ReferenceFrame, compute_reference_frame

__all__ = [
    "GoodDescriptor",
    "FeatureSet",
    "project_distribution",
    "projection_entropy",
    "projection_variance",
    "compute_good",
    "estimate_normals",
    "compute_spin_image",
    "compute_feature_set",
    "DescriptorError",
]

PROJECTION_PLANES = ("XoZ", "XoY", "YoZ")
# (alpha, beta) coordinate picks per projection plane
_PLANE_AXES = {"XoZ": (0, 2), "XoY": (0, 1), "YoZ": (1, 2)}

# Upper-bound epsilon (meters) in the bin index formulas: strictly smaller
# than any meaningful object dimension.
BIN_EPSILON = 1e-6

DEFAULT_GOOD_BINS = 15
DEFAULT_KEYPOINT_VOXEL = 0.01
DEFAULT_IMAGE_WIDTH = 4
DEFAULT_SUPPORT_LENGTH = 0.05
DEFAULT_SUPPORT_ANGLE = 90.0

# Normals come from PCA over this many nearest neighbours.
_NORMAL_NEIGHBOURS = 10

# Most (keypoint, neighbor) pairs one spin-image block, or (point,
# neighbor) pairs one normal-estimation block, may hold: about 70 bytes of
# temporaries each, so about 9 MB per block.
_BLOCK_PAIRS = 1 << 17


class DescriptorError(OpenobjError):
    pass


@dataclass(frozen=True, eq=False)
class GoodDescriptor:
    """Concatenation of three flattened n x n projection distributions.

    ``order`` records which projection landed in which block; each block is
    individually normalized to unit mass.
    """

    bins: np.ndarray
    n: int
    frame: ReferenceFrame
    order: tuple

    def __post_init__(self):
        bins = np.asarray(self.bins, dtype=np.float64)
        if bins.shape != (3 * self.n * self.n,):
            raise DescriptorError(f"expected {3 * self.n**2} bins, got {bins.shape}")
        if np.any(bins < 0):
            raise DescriptorError("descriptor bins must be non-negative")
        if np.any(np.abs(bins.reshape(3, -1).sum(axis=1) - 1.0) > 1e-9):
            raise DescriptorError("each projection block must sum to 1")
        object.__setattr__(self, "bins", bins)

    def __len__(self) -> int:
        return len(self.bins)

    def to_json_dict(self) -> dict:
        return {
            "type": "good",
            "params": {"n": self.n, "order": list(self.order)},
            "values": self.bins.tolist(),
        }


@dataclass(frozen=True, eq=False)
class FeatureSet:
    """The spin images of one object view.

    Row i of the read-only (k, d) ``matrix`` is the flattened spin image of
    keypoint i; ``keypoints`` and ``normals`` are (k, 3).
    """

    matrix: np.ndarray
    keypoints: np.ndarray
    normals: np.ndarray

    def __post_init__(self):
        for name in ("matrix", "keypoints", "normals"):
            view = np.asarray(getattr(self, name), dtype=np.float64).view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)

    def __len__(self) -> int:
        return len(self.matrix)

    def as_matrix(self) -> np.ndarray:
        return self.matrix


# ---------------------------------------------------------------------------
# Global descriptor
# ---------------------------------------------------------------------------

def project_distribution(
    cloud_in_frame: PointCloud, plane: str, l: float, n: int
) -> np.ndarray:
    """n x n distribution matrix of one orthographic projection.

    Points must already be expressed in the object frame and fit inside
    the centered square of side ``l``; the bin index for coordinate a is
    floor(n (a + l/2) / (l + eps)), which maps the upper bound onto the
    last bin instead of out of range. The matrix is normalized to total
    mass 1.
    """
    if plane not in _PLANE_AXES:
        raise DescriptorError(f"unknown projection plane {plane!r}")
    check_count("bins per side", n, 2, DescriptorError)
    check_positive("enclosing square side", l, DescriptorError)
    if len(cloud_in_frame) == 0:
        raise DescriptorError("empty cloud")
    ia, ib = _PLANE_AXES[plane]
    alpha = cloud_in_frame.points[:, ia]
    beta = cloud_in_frame.points[:, ib]
    if np.any(np.abs(alpha) > l / 2) or np.any(np.abs(beta) > l / 2):
        raise DescriptorError("l not enclosing: projected point outside the square")
    rows = np.floor(n * (alpha + l / 2) / (l + BIN_EPSILON)).astype(np.int64)
    cols = np.floor(n * (beta + l / 2) / (l + BIN_EPSILON)).astype(np.int64)
    matrix = np.zeros((n, n))
    np.add.at(matrix, (rows, cols), 1.0)
    return matrix / matrix.sum()


def projection_entropy(m: np.ndarray) -> float:
    """Shannon entropy (bits) of a flattened distribution, 0 log 0 = 0."""
    m = np.asarray(m, dtype=np.float64).ravel()
    if np.any(m < 0):
        raise DescriptorError("distribution entries must be non-negative")
    nz = m[m > 0]
    return float(-np.sum(nz * np.log2(nz)))


def projection_variance(m: np.ndarray) -> float:
    """Variance of the bin-index random variable under the distribution.

    Indices are 1-based over the flattened vector: mu = sum i m_i,
    var = sum (i - mu)^2 m_i.
    """
    m = np.asarray(m, dtype=np.float64).ravel()
    if np.any(m < 0):
        raise DescriptorError("distribution entries must be non-negative")
    idx = np.arange(1, len(m) + 1, dtype=np.float64)
    mu = float(np.sum(idx * m))
    return float(np.sum((idx - mu) ** 2 * m))


def compute_good(cloud: PointCloud, n: int = DEFAULT_GOOD_BINS) -> GoodDescriptor:
    """Full global descriptor pipeline for one object view.

    The object frame comes from the disambiguated PCA (sign band
    ``pointcloud.SIGN_THRESHOLD``); the three
    projections share one centered square whose side is the largest
    bounding-box edge, grown when off-center mass (e.g. cone-like shapes)
    would fall outside it. The highest-entropy projection fills the first
    block; the remaining two follow in increasing variance. Ties closer
    than 1e-9 fall back to the fixed plane precedence XoZ < XoY < YoZ.
    """
    frame = compute_reference_frame(cloud)
    local = PointCloud(frame.to_local(cloud.points))
    l = float(max(np.max(np.ptp(local.points, axis=0)), 2.0 * np.max(np.abs(local.points))))

    matrices = {p: project_distribution(local, p, l, n) for p in PROJECTION_PLANES}
    entropy = {p: projection_entropy(matrices[p]) for p in PROJECTION_PLANES}
    variance = {p: projection_variance(matrices[p]) for p in PROJECTION_PLANES}

    precedence = {p: i for i, p in enumerate(PROJECTION_PLANES)}

    def ordered(values, descending):
        def compare(a, b):
            if abs(values[a] - values[b]) < 1e-9:
                return precedence[a] - precedence[b]
            if values[a] < values[b]:
                return 1 if descending else -1
            return -1 if descending else 1

        return sorted(PROJECTION_PLANES, key=cmp_to_key(compare))

    first = ordered(entropy, descending=True)[0]
    rest = [p for p in ordered(variance, descending=False) if p != first]
    order = (first, rest[0], rest[1])
    bins = np.concatenate([matrices[p].ravel() for p in order])
    return GoodDescriptor(bins=bins, n=n, frame=frame, order=order)


# ---------------------------------------------------------------------------
# Local features
# ---------------------------------------------------------------------------

def _keypoint_indices(points: np.ndarray, voxel: float) -> np.ndarray:
    """Index of the point nearest each occupied voxel's center."""
    origin = points.min(axis=0)
    idx = np.floor((points - origin) / voxel).astype(np.int64)
    dist = np.linalg.norm(points - (origin + (idx + 0.5) * voxel), axis=1)
    # points grouped by voxel in (x, y, z) order, each voxel's by distance;
    # the sort is stable, so equal distances keep the lowest index first
    order = np.lexsort((dist, idx[:, 2], idx[:, 1], idx[:, 0]))
    cells = idx[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = np.any(cells[1:] != cells[:-1], axis=1)
    return order[first]


def estimate_normals(cloud: PointCloud) -> np.ndarray:
    """Per-point surface normals by PCA over the _NORMAL_NEIGHBOURS (10)
    nearest neighbors, oriented toward the sensor at the origin.

    Points go through in blocks of at most _BLOCK_PAIRS (point, neighbor)
    pairs, which bounds the patch and covariance temporaries for large
    clouds; each normal comes from its own patch alone, so the blocks do
    not change it.
    """
    pts = finite_array(cloud.points, (2,), DescriptorError, "points must be finite")
    m = len(pts)
    if m == 0:
        raise DescriptorError("empty cloud")
    k = min(_NORMAL_NEIGHBOURS, m)
    tree = cKDTree(pts)
    # the whole eigenvector stack is kept so that the orientation einsum
    # reads the normals with the strides it always has
    vecs = np.empty((m, 3, 3))
    step = max(1, _BLOCK_PAIRS // k)
    for start in range(0, m, step):
        _, nbrs = tree.query(pts[start:start + step], k=k)
        patches = pts[nbrs.reshape(-1, k)]  # (b, k, 3)
        centered = patches - patches.mean(axis=1, keepdims=True)
        cov = np.einsum("mki,mkj->mij", centered, centered)
        vecs[start:start + step] = np.linalg.eigh(cov)[1]  # batched; ascending eigenvalues
    normals = vecs[:, :, 0]
    flip = np.einsum("mi,mi->m", normals, -pts) < 0
    normals[flip] *= -1.0
    return normals


def compute_spin_image(
    cloud: PointCloud,
    keypoint,
    normal,
    image_width: int = DEFAULT_IMAGE_WIDTH,
    support_length: float = DEFAULT_SUPPORT_LENGTH,
    support_angle: float = DEFAULT_SUPPORT_ANGLE,
    point_normals: np.ndarray | None = None,
) -> np.ndarray:
    """Raw-count spin images around one keypoint (shape (3,)) or a stack
    of keypoints (shape (k, 3)), with unit normals of the same shape.

    Neighbors inside the support cylinder (radius SL, height 2 SL around
    the tangent plane) contribute the pair alpha = radial distance to the
    normal axis, beta = signed distance to the tangent plane, binned into
    an (IW+1) x (2 IW + 1) histogram. When per-point normals are given,
    neighbors whose normal deviates from the keypoint normal by more than
    the support angle are skipped; without them the angle test is off.
    Returns one (IW+1, 2 IW + 1) histogram, or (k, IW+1, 2 IW + 1) for a
    stack.

    Every (keypoint, neighbor) pair of a block of keypoints is binned by
    one bincount over the flat index (keypoint, row, col); a block holds
    at most _BLOCK_PAIRS pairs (at least one keypoint), which bounds the
    temporaries for large clouds.
    """
    message = "need finite keypoints and normals of matching shape (3,) or (k, 3)"
    keypoints, normals = finite_array([keypoint, normal], (2, 3), DescriptorError, message)
    if keypoints.shape[-1:] != (3,):
        raise DescriptorError(message)
    if np.any(np.abs(np.linalg.norm(normals, axis=-1) - 1.0) > 1e-9):
        raise DescriptorError("keypoint normal must be unit length")
    # the bounds ExperimentConfig sets
    check_positive("support length", support_length, DescriptorError)
    check_count("image width", image_width, 1, DescriptorError)
    check_positive("support angle", support_angle, DescriptorError)
    if support_angle > 180:
        raise DescriptorError(f"support angle must be at most 180, got {support_angle!r}")
    iw = int(image_width)
    sl = float(support_length)
    n_rows, n_cols = iw + 1, 2 * iw + 1
    points = cloud.points
    if point_normals is not None:
        point_normals = np.asarray(point_normals, dtype=np.float64)
        cos_limit = np.cos(np.radians(support_angle)) - 1e-12

    stack_k = keypoints.reshape(-1, 3)
    stack_n = normals.reshape(-1, 3)
    m = len(points)
    histograms = np.empty((len(stack_k), n_rows * n_cols))
    step = max(1, _BLOCK_PAIRS // max(m, 1))
    for start in range(0, len(stack_k), step):
        block_k = stack_k[start:start + step]
        block_n = stack_n[start:start + step, :, None]  # (b, 3, 1)
        b = len(block_k)
        delta = np.empty((b, m, 3))
        for axis in range(3):  # broadcasting over the 3-wide last axis is slower
            np.subtract(points[:, axis], block_k[:, axis, None], out=delta[..., axis])
        # batched matrix-vector products and einsum keep the arithmetic of
        # the one-keypoint computation, so the bins equal its bins
        beta = (delta @ block_n)[..., 0]
        alpha = np.einsum("kij,kij->ki", delta, delta)
        alpha -= beta**2
        np.sqrt(np.maximum(alpha, 0.0, out=alpha), out=alpha)
        keep = (alpha <= sl) & (np.abs(beta) <= sl)
        if point_normals is not None:
            keep &= (point_normals @ block_n)[..., 0] >= cos_limit
        pairs = np.flatnonzero(keep)
        rows = np.minimum(np.floor(alpha.ravel()[pairs] * iw / sl).astype(np.int64), iw)
        cols = np.clip(
            np.floor((beta.ravel()[pairs] + sl) * iw / sl).astype(np.int64), 0, 2 * iw
        )
        flat = (pairs // m * n_rows + rows) * n_cols + cols
        histograms[start:start + b] = np.bincount(
            flat, minlength=b * n_rows * n_cols
        ).reshape(b, -1)
    return histograms.reshape(keypoints.shape[:-1] + (n_rows, n_cols))


def compute_feature_set(
    cloud: PointCloud,
    voxel: float = DEFAULT_KEYPOINT_VOXEL,
    image_width: int = DEFAULT_IMAGE_WIDTH,
    support_length: float = DEFAULT_SUPPORT_LENGTH,
    support_angle: float = DEFAULT_SUPPORT_ANGLE,
) -> FeatureSet:
    """Spin images over voxel-selected keypoints of an object view, one
    per occupied voxel: the point nearest the voxel's center. Normals come
    from estimate_normals."""
    check_positive("voxel size", voxel, DescriptorError)
    normals = estimate_normals(cloud)  # raises for an empty cloud
    key_idx = _keypoint_indices(cloud.points, voxel)
    keypoints = cloud.points[key_idx]
    images = compute_spin_image(
        cloud,
        keypoints,
        normals[key_idx],
        image_width,
        support_length,
        support_angle,
        point_normals=normals,
    )
    return FeatureSet(
        matrix=images.reshape(len(key_idx), -1), keypoints=keypoints, normals=normals[key_idx]
    )
