#!/usr/bin/env python3
"""Walk through the scene pipeline: build a synthetic table scene, crop the
working volume, find the dominant plane, lift the prism above it and
cluster the remainder into object candidates."""

import numpy as np

from openobj.pointcloud import crop_cube, voxel_downsample
from openobj.segmentation import SegmentationParams, detect_objects, extract_prism, ransac_plane
from openobj.synthgen import ShapeSpec, generate_scene

# A table at z = 0.7 with three floated boxes and some floor clutter.
objects = [
    ShapeSpec("box", (0.08, 0.06, 0.1), points=500, translation=(0.25, 0.15, 0.09), seed=1),
    ShapeSpec("cylinder", (0.035, 0.12), points=500, translation=(-0.25, -0.1, 0.1), seed=2),
    ShapeSpec("box", (0.1, 0.04, 0.05), points=500, translation=(0.0, 0.2, 0.065), seed=3),
]
scene, labels = generate_scene(objects, seed=0, n_outliers=80)
print(f"scene: {len(scene)} points ({np.sum(labels == 0)} table, "
      f"{np.sum(labels > 0)} object, {np.sum(labels < 0)} clutter)")

# Region-of-interest cube and voxel thinning, as a sensor front end would do.
roi = crop_cube(scene, center=(0, 0, 0.8), side=2.0)
thinned = voxel_downsample(roi, voxel=0.005)
print(f"after cube crop: {len(roi)}; after 5 mm voxel grid: {len(thinned)}")

# Dominant plane by sampled-consensus (tau = 20 mm, 200 hypotheses).
plane = ransac_plane(scene, tau=0.02, iterations=200, seed=0)
print(f"plane normal {np.round(plane.normal, 3)}, {len(plane.inlier_indices)} inliers")

prism = extract_prism(scene, plane, min_h=0.005, max_h=0.5)
print(f"prism above the plane: {len(prism)} points")

# Candidates: clusters of fitting size whose centre is at least 5 cm
# inside the table hull.
candidates = detect_objects(scene, SegmentationParams(seed=0))
for cand in candidates:
    extent = np.ptp(cand.cloud.points, axis=0)
    print(f"candidate {cand.track_id}: {len(cand.cloud)} points, "
          f"extent {np.round(extent, 3)}")
