"""Deterministic synthetic data: parametric object views (box, cylinder,
sphere, cone, flat plate), labeled desk-scale datasets and table scenes
with per-point provenance for segmentation oracles.

Every generator is a pure function of its seed, so regeneration gives
byte-identical output.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (OpenobjError, _plain, check_count, check_fields, check_finite, check_pose,
                     finite_number, seeded)
from .pointcloud import PointCloud, save_pcd

__all__ = [
    "ShapeSpec",
    "CategorySpec",
    "generate_view",
    "generate_dataset",
    "generate_scene",
    "random_rotation",
    "SynthgenError",
]

# each shape kind and the number of dimensions it takes
SHAPE_KINDS = {"box": 3, "cylinder": 2, "sphere": 1, "cone": 2, "plate": 2}


class SynthgenError(OpenobjError):
    pass


def _check_shape(spec) -> None:
    """ShapeSpec's and CategorySpec's shared check, run when either is built."""
    check_fields(spec, SynthgenError)
    if spec.kind not in SHAPE_KINDS:
        raise SynthgenError(f"unknown shape kind {spec.kind!r}")
    dims, count = spec.dimensions, SHAPE_KINDS[spec.kind]
    if not (isinstance(dims, (tuple, list)) and len(dims) == count
            and all(finite_number(d) and d > 0 for d in dims)):
        raise SynthgenError(f"dimensions must be {count} positive finite numbers for a {spec.kind}")
    if spec.points < 50:
        raise SynthgenError("points must be at least 50")
    if spec.noise_sigma < 0:
        raise SynthgenError(f"noise_sigma must be non-negative, got {spec.noise_sigma}")


@dataclass(frozen=True, eq=False)
class ShapeSpec:
    """One parametric object view: primitive kind, metric dimensions,
    sample count, per-axis Gaussian noise and a rigid pose."""

    kind: str
    dimensions: tuple
    points: int = 400
    noise_sigma: float = 0.0
    rotation: np.ndarray = field(default_factory=lambda: np.eye(3))
    translation: np.ndarray = (0.0, 0.0, 0.0)
    seed: int = 0

    def __post_init__(self):
        _check_shape(self)
        if self.seed < 0:
            raise SynthgenError("seed must be non-negative")
        check_pose(self, SynthgenError)


@dataclass(frozen=True)
class CategorySpec:
    """A family of shapes forming one category; views jitter the base
    dimensions by +-jitter (relative, in [0, 1)) for intra-class variation."""

    name: str
    kind: str
    dimensions: tuple
    points: int = 400
    noise_sigma: float = 0.0
    jitter: float = 0.15

    def __post_init__(self):
        _check_shape(self)
        if not 0 <= self.jitter < 1:
            raise SynthgenError("jitter must lie in [0, 1)")


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform random rotation matrix (quaternion method)."""
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


# ---------------------------------------------------------------------------
# Area-uniform surface sampling per primitive
# ---------------------------------------------------------------------------

def _sample_box(rng, dims, m):
    a, b, c = dims
    areas = np.array([b * c, b * c, a * c, a * c, a * b, a * b])
    faces = rng.choice(6, size=m, p=areas / areas.sum())
    u = rng.uniform(-0.5, 0.5, size=m)
    v = rng.uniform(-0.5, 0.5, size=m)
    pts = np.empty((m, 3))
    for f in range(6):
        sel = faces == f
        axis = f // 2
        sign = 1.0 if f % 2 == 0 else -1.0
        other = [i for i in range(3) if i != axis]
        pts[sel, axis] = sign * dims[axis] / 2.0
        pts[sel, other[0]] = u[sel] * dims[other[0]]
        pts[sel, other[1]] = v[sel] * dims[other[1]]
    return pts


def _sample_cylinder(rng, dims, m):
    r, h = dims
    lateral = 2 * np.pi * r * h
    cap = np.pi * r * r
    part = rng.choice(3, size=m, p=np.array([lateral, cap, cap]) / (lateral + 2 * cap))
    theta = rng.uniform(0, 2 * np.pi, size=m)
    pts = np.empty((m, 3))
    side = part == 0
    pts[side, 0] = r * np.cos(theta[side])
    pts[side, 1] = r * np.sin(theta[side])
    pts[side, 2] = rng.uniform(-h / 2, h / 2, size=side.sum())
    for which, zsign in ((1, 1.0), (2, -1.0)):
        sel = part == which
        rad = r * np.sqrt(rng.uniform(0, 1, size=sel.sum()))
        pts[sel, 0] = rad * np.cos(theta[sel])
        pts[sel, 1] = rad * np.sin(theta[sel])
        pts[sel, 2] = zsign * h / 2
    return pts


def _sample_sphere(rng, dims, m):
    (r,) = dims
    v = rng.normal(size=(m, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return r * v


def _sample_cone(rng, dims, m):
    r, h = dims
    slant = np.sqrt(r * r + h * h)
    lateral = np.pi * r * slant
    base = np.pi * r * r
    on_side = rng.uniform(0, 1, size=m) < lateral / (lateral + base)
    theta = rng.uniform(0, 2 * np.pi, size=m)
    # sqrt gives area-uniform sampling along the slant (density grows with
    # radius) and over the base disc.
    rad = np.sqrt(rng.uniform(0, 1, size=m))
    pts = np.empty((m, 3))
    side = on_side
    pts[side, 0] = r * rad[side] * np.cos(theta[side])
    pts[side, 1] = r * rad[side] * np.sin(theta[side])
    pts[side, 2] = h * (1 - rad[side])  # apex at z = h, base rim at z = 0
    flat = ~on_side
    pts[flat, 0] = r * rad[flat] * np.cos(theta[flat])
    pts[flat, 1] = r * rad[flat] * np.sin(theta[flat])
    pts[flat, 2] = 0.0
    return pts


def _sample_plate(rng, dims, m):
    a, b = dims
    pts = np.empty((m, 3))
    pts[:, 0] = rng.uniform(-a / 2, a / 2, size=m)
    pts[:, 1] = rng.uniform(-b / 2, b / 2, size=m)
    pts[:, 2] = 0.0
    return pts


_SAMPLERS = {
    "box": _sample_box,
    "cylinder": _sample_cylinder,
    "sphere": _sample_sphere,
    "cone": _sample_cone,
    "plate": _sample_plate,
}


def generate_view(spec: ShapeSpec) -> PointCloud:
    """Surface-sampled, rigidly posed points with per-axis Gaussian noise."""
    rng = seeded(spec.seed, SynthgenError)
    pts = _SAMPLERS[spec.kind](rng, spec.dimensions, spec.points)
    pts = pts @ spec.rotation.T + spec.translation
    if spec.noise_sigma > 0:
        pts = pts + rng.normal(scale=spec.noise_sigma, size=pts.shape)
    return PointCloud(pts)


def _view_spec(category: CategorySpec, rng: np.random.Generator, seed: int) -> ShapeSpec:
    dims = tuple(
        d * (1.0 + rng.uniform(-category.jitter, category.jitter))
        for d in category.dimensions
    )
    return ShapeSpec(
        kind=category.kind,
        dimensions=dims,
        points=category.points,
        noise_sigma=category.noise_sigma,
        rotation=random_rotation(rng),
        translation=rng.uniform(-0.1, 0.1, size=3),
        seed=seed,
    )


def generate_dataset(
    categories: list[CategorySpec],
    views_per_category: int,
    seed: int = 0,
    root=None,
    contexts: dict | None = None,
):
    """Per-category object views with randomized pose and dimension jitter.

    Returns {category: [PointCloud, ...]}. When ``root`` is given the views
    are also written as ``<root>/<category>/view_####.pcd`` plus a
    ``manifest.json`` recording the seed, the specs and the optional
    context map.
    """
    check_count("views_per_category", views_per_category, 1, SynthgenError)
    rng = seeded(seed, SynthgenError)
    dataset = {}
    manifest = {"seed": seed, "views_per_category": views_per_category, "specs": {}}
    if contexts is not None:
        manifest["contexts"] = dict(contexts)
    for cat in categories:
        views = []
        specs = []
        for v in range(views_per_category):
            view_seed = int(rng.integers(0, 2**31 - 1))
            spec = _view_spec(cat, rng, view_seed)
            views.append(generate_view(spec))
            specs.append({name: getattr(spec, name)
                          for name in ("kind", "dimensions", "points", "noise_sigma", "seed")})
        dataset[cat.name] = views
        manifest["specs"][cat.name] = specs
    if root is not None:
        os.makedirs(root, exist_ok=True)
        for name, views in dataset.items():
            cat_dir = os.path.join(root, name)
            os.makedirs(cat_dir, exist_ok=True)
            for i, cloud in enumerate(views):
                save_pcd(os.path.join(cat_dir, f"view_{i:04d}.pcd"), cloud)
        with open(os.path.join(root, "manifest.json"), "w", encoding="ascii") as fh:
            json.dump(_plain(manifest), fh, indent=2, sort_keys=True)
            fh.write("\n")
    return dataset


def generate_scene(
    objects: list[ShapeSpec],
    table_extent: tuple = (1.2, 0.8),
    table_height: float = 0.7,
    table_points: int = 3000,
    n_outliers: int = 0,
    seed: int = 0,
):
    """Table plane plus posed objects, with per-point provenance labels.

    Labels: 0 = table, 1..len(objects) = object index + 1, -1 = outliers
    (scattered below the table plane). Object translations in the specs are
    interpreted relative to the table surface.
    """
    check_finite("table_height", table_height, SynthgenError)
    check_count("n_outliers", n_outliers, 0, SynthgenError)
    rng = seeded(seed, SynthgenError)
    table_spec = ShapeSpec(
        kind="plate",
        dimensions=table_extent,
        points=table_points,
        translation=(0.0, 0.0, table_height),
        seed=int(rng.integers(0, 2**31 - 1)),
    )
    parts = [generate_view(table_spec).points]
    labels = [np.zeros(table_points, dtype=np.int64)]
    for i, obj in enumerate(objects):
        lifted = (*obj.translation[:2], obj.translation[2] + table_height)
        cloud = generate_view(replace(obj, translation=lifted))
        parts.append(cloud.points)
        labels.append(np.full(len(cloud), i + 1, dtype=np.int64))
    if n_outliers > 0:
        out = np.empty((n_outliers, 3))
        out[:, 0] = rng.uniform(-table_extent[0], table_extent[0], size=n_outliers)
        out[:, 1] = rng.uniform(-table_extent[1], table_extent[1], size=n_outliers)
        out[:, 2] = rng.uniform(0.0, table_height - 0.05, size=n_outliers)
        parts.append(out)
        labels.append(np.full(n_outliers, -1, dtype=np.int64))
    return PointCloud(np.vstack(parts)), np.concatenate(labels)
