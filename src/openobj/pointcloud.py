"""Core point cloud types, ASCII PCD I/O, pre-processing filters and the
unique object reference frame shared by the global descriptor.

All geometry is metric (meters) and stored in float64 numpy arrays. Every
operation is a pure function: inputs are never mutated and repeated calls
give identical results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OpenobjError, check_positive, check_rotation, finite_array, read_text

__all__ = [
    "PointCloud",
    "ReferenceFrame",
    "load_pcd",
    "save_pcd",
    "crop_cube",
    "voxel_downsample",
    "centroid",
    "compute_reference_frame",
    "PointCloudError",
]

# Sign threshold (meters) for the axis disambiguation vote. Points closer
# than this to the candidate plane can flip side between trials and are
# ignored when counting.
SIGN_THRESHOLD = 0.015


class PointCloudError(OpenobjError):
    """Raised for empty/degenerate clouds and malformed cloud files."""


@dataclass(frozen=True, eq=False)
class PointCloud:
    """An unordered set of 3D points with optional per-point RGB colors.

    ``points`` is an (m, 3) float64 array; ``colors``, when present, is an
    (m, 3) uint8 array of the same length. Clouds compare and hash by
    identity, so a cloud can key a weak per-view cache.
    """

    points: np.ndarray
    colors: np.ndarray | None = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise PointCloudError(f"points must be (m, 3), got {pts.shape}")
        object.__setattr__(self, "points", pts)
        if self.colors is not None:
            col = np.asarray(self.colors, dtype=np.uint8)
            if col.shape != pts.shape:
                raise PointCloudError(
                    f"colors shape {col.shape} does not match points {pts.shape}"
                )
            object.__setattr__(self, "colors", col)

    def __len__(self) -> int:
        return self.points.shape[0]

    def select(self, index) -> "PointCloud":
        """New cloud containing the points picked by a numpy index."""
        cols = self.colors[index] if self.colors is not None else None
        return PointCloud(self.points[index], cols)

    def transform(self, rotation: np.ndarray, translation=(0.0, 0.0, 0.0)) -> "PointCloud":
        """Rigidly move the cloud: p -> R p + t."""
        rotation = np.asarray(rotation, dtype=np.float64)
        translation = np.asarray(translation, dtype=np.float64)
        return PointCloud(self.points @ rotation.T + translation, self.colors)


@dataclass(frozen=True, eq=False)
class ReferenceFrame:
    """Object-centered coordinate system: origin and orthonormal axes.

    ``axes`` columns are the X, Y, Z directions expressed in world
    coordinates, a right-handed rotation by ``errors.check_rotation``.
    """

    origin: np.ndarray
    axes: np.ndarray

    def __post_init__(self):
        origin = finite_array(self.origin, (1,), PointCloudError, "frame origin must be finite")
        if origin.shape != (3,):
            raise PointCloudError("frame origin must hold 3 numbers")
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "axes", check_rotation(self.axes, PointCloudError, "frame axes"))

    def to_local(self, points: np.ndarray) -> np.ndarray:
        """World coordinates -> frame coordinates."""
        return (np.asarray(points, dtype=np.float64) - self.origin) @ self.axes


# ---------------------------------------------------------------------------
# ASCII PCD subset I/O
# ---------------------------------------------------------------------------

def _pack_rgb(colors: np.ndarray) -> np.ndarray:
    c = colors.astype(np.uint32)
    return (c[:, 0] << 16) | (c[:, 1] << 8) | c[:, 2]


def _unpack_rgb(packed: np.ndarray) -> np.ndarray:
    p = packed.astype(np.uint32)
    return np.stack([(p >> 16) & 0xFF, (p >> 8) & 0xFF, p & 0xFF], axis=1).astype(np.uint8)


def load_pcd(path) -> PointCloud:
    """Read an ASCII PCD file (subset: FIELDS x y z [rgb], DATA ascii).

    Rows containing NaN coordinates are dropped; the order of the remaining
    points is preserved. Unknown header lines (VERSION, WIDTH, ...) are
    ignored so files written by other tools still load, but every COUNT
    entry must be 1. Each data row holds one value per field, and an rgb
    value is a packed integer in [0, 2^32).
    """
    lines = read_text(path, PointCloudError).splitlines()
    fields = None
    declared = None
    data_start = None
    for i, line in enumerate(lines):
        token = line.split("#", 1)[0].strip()
        if not token:
            continue
        parts = token.split()
        key = parts[0].upper()
        if key == "FIELDS":
            fields = [p.lower() for p in parts[1:]]
        elif key == "POINTS":
            try:
                declared = int(parts[1])
            except (IndexError, ValueError):
                raise PointCloudError(f"{path}: malformed POINTS header on line {i + 1}")
        elif key == "COUNT":
            if any(p != "1" for p in parts[1:]):
                raise PointCloudError(f"{path}: line {i + 1}: every COUNT entry must be 1")
        elif key == "DATA":
            if len(parts) < 2 or parts[1].lower() != "ascii":
                raise PointCloudError(f"{path}: only DATA ascii is supported (line {i + 1})")
            data_start = i + 1
            break
    if fields is None or data_start is None:
        raise PointCloudError(f"{path}: missing FIELDS or DATA header")
    if fields[:3] != ["x", "y", "z"]:
        raise PointCloudError(f"{path}: FIELDS must start with x y z, got {fields}")
    has_rgb = len(fields) > 3 and fields[3] == "rgb"

    rows = []
    rgb = []
    for lineno in range(data_start, len(lines)):
        token = lines[lineno].strip()
        if not token:
            continue
        parts = token.split()
        if len(parts) != len(fields):
            raise PointCloudError(
                f"{path}: line {lineno + 1}: expected {len(fields)} fields, got {len(parts)}"
            )
        try:
            values = [float(p) for p in parts]
        except ValueError:
            raise PointCloudError(f"{path}: line {lineno + 1}: non-numeric field")
        rows.append(values[:3])
        if has_rgb:
            if not (values[3].is_integer() and 0 <= values[3] < 2**32):
                raise PointCloudError(
                    f"{path}: line {lineno + 1}: rgb must be an integer in [0, 2^32), "
                    f"got {parts[3]}"
                )
            rgb.append(int(values[3]))

    pts = np.asarray(rows, dtype=np.float64).reshape(-1, 3)
    if declared is not None and len(pts) != declared:
        raise PointCloudError(
            f"{path}: header declares {declared} points but file has {len(pts)}"
        )
    keep = np.all(np.isfinite(pts), axis=1)
    colors = None
    if has_rgb:
        colors = _unpack_rgb(np.asarray(rgb, dtype=np.uint32)[keep])
    return PointCloud(pts[keep], colors)


def save_pcd(path, cloud: PointCloud) -> None:
    """Write the ASCII PCD subset; coordinates carry 6 significant digits."""
    has_rgb = cloud.colors is not None
    fields = "x y z rgb" if has_rgb else "x y z"
    lines = [f"FIELDS {fields}", f"POINTS {len(cloud)}", "DATA ascii"]
    packed = _pack_rgb(cloud.colors) if has_rgb else None
    for i, p in enumerate(cloud.points):
        row = f"{p[0]:.6g} {p[1]:.6g} {p[2]:.6g}"
        if has_rgb:
            row += f" {packed[i]:d}"
        lines.append(row)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Filters
# ---------------------------------------------------------------------------

def crop_cube(cloud: PointCloud, center, side: float) -> PointCloud:
    """Keep points inside the axis-aligned cube of the given side length.

    A point survives when every |coordinate - center| <= side / 2. NaN
    points are dropped; the center must be 3 finite numbers.
    """
    check_positive("cube side", side, PointCloudError)
    message = "cube center must be 3 finite numbers"
    center = finite_array(center, (1,), PointCloudError, message)
    if center.shape != (3,):
        raise PointCloudError(message)
    with np.errstate(invalid="ignore"):
        inside = np.all(np.abs(cloud.points - center) <= side / 2.0, axis=1)
    inside &= np.all(np.isfinite(cloud.points), axis=1)
    return cloud.select(inside)


def voxel_downsample(cloud: PointCloud, voxel: float) -> PointCloud:
    """One point per occupied voxel: the centroid of that voxel's points.

    The grid is anchored at the cloud's minimum corner, so results depend
    on translation only through the grid phase.
    """
    check_positive("voxel size", voxel, PointCloudError)
    if len(cloud) == 0:
        raise PointCloudError("empty cloud")
    idx = np.floor((cloud.points - cloud.points.min(axis=0)) / voxel).astype(np.int64)
    # Unique voxel cells in deterministic (lexicographic) order.
    cells, inverse = np.unique(idx, axis=0, return_inverse=True)
    sums = np.zeros((len(cells), 3))
    np.add.at(sums, inverse, cloud.points)
    counts = np.bincount(inverse, minlength=len(cells)).astype(np.float64)
    return PointCloud(sums / counts[:, None])


def centroid(cloud: PointCloud) -> np.ndarray:
    """Componentwise mean of the points (the object's geometric center)."""
    if len(cloud) == 0:
        raise PointCloudError("empty cloud")
    return cloud.points.mean(axis=0)


# ---------------------------------------------------------------------------
# Unique reference frame
# ---------------------------------------------------------------------------

def _sorted_eigenbasis(cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues descending with a deterministic tie-break."""
    values, vectors = np.linalg.eigh(cov)
    order = np.argsort(values)[::-1]
    values = values[order]
    vectors = vectors[:, order]
    # Near-equal eigenvalues: order the pair lexicographically by the
    # absolute eigenvector components so the basis does not depend on
    # solver internals.
    for i in range(2):
        if abs(values[i] - values[i + 1]) < 1e-12:
            a, b = np.abs(vectors[:, i]), np.abs(vectors[:, i + 1])
            if tuple(b) > tuple(a):
                vectors[:, [i, i + 1]] = vectors[:, [i + 1, i]]
                values[[i, i + 1]] = values[[i + 1, i]]
    return values, vectors


def _orient_by_skewness(axis: np.ndarray, centered: np.ndarray) -> np.ndarray:
    """Deterministic provisional direction for an eigenvector.

    The third central moment of the projections is a rotation-invariant
    scalar, so choosing its non-negative direction keeps the provisional
    frame equivariant. Exactly symmetric clouds (moment 0) fall back to a
    fixed lexicographic rule.
    """
    proj = centered @ axis
    moment = float(np.sum(proj**3))
    if moment < 0:
        return -axis
    if moment == 0.0:
        for component in axis:
            if component != 0.0:
                return axis if component > 0 else -axis
    return axis


def compute_reference_frame(cloud: PointCloud) -> ReferenceFrame:
    """Unique, repeatable object frame from PCA plus a point-count vote.

    The covariance eigenvectors give a provisional frame (X, Y from the two
    dominant eigenvectors, Z = X x Y). In that frame, per axis, the points
    with coordinate > t and < -t, t = SIGN_THRESHOLD, are counted; S_x is
    +1 when the positive side has at least as many points, likewise S_y.
    When s = S_x * S_y is -1 both X and Y are flipped (Z is unchanged by a
    joint flip). Note the joint rule: S_x = S_y = -1 gives s = +1 and no
    flip.
    """
    m = len(cloud)
    if m < 3:
        raise PointCloudError("degenerate cloud: need at least 3 points")
    finite_array(cloud.points, (2,), PointCloudError, "points must be finite")
    c = centroid(cloud)
    centered = cloud.points - c
    cov = (centered.T @ centered) / m
    values, vectors = _sorted_eigenbasis(cov)
    scale = max(values[0], 1e-30)
    if values[1] / scale < 1e-10:
        raise PointCloudError("degenerate cloud: points are collinear")
    if (values[0] - values[2]) / scale < 1e-10:
        raise PointCloudError("degenerate cloud: isotropic covariance")

    v1 = _orient_by_skewness(vectors[:, 0], centered)
    v2 = _orient_by_skewness(vectors[:, 1], centered)
    # Re-orthogonalize v2 against v1 to kill accumulated rounding.
    v2 = v2 - (v2 @ v1) * v1
    v2 /= np.linalg.norm(v2)
    z = np.cross(v1, v2)
    z /= np.linalg.norm(z)

    x_local = centered @ v1
    y_local = centered @ v2
    t = SIGN_THRESHOLD
    s_x = 1.0 if np.sum(x_local > t) >= np.sum(x_local < -t) else -1.0
    s_y = 1.0 if np.sum(y_local > t) >= np.sum(y_local < -t) else -1.0
    s = s_x * s_y
    axes = np.column_stack([s * v1, s * v2, z])
    return ReferenceFrame(origin=c, axes=axes)
