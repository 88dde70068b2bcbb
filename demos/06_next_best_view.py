#!/usr/bin/env python3
"""Score candidate camera poses by cluster entropy of their virtual
renders, discount far poses, and sample the next view."""

import numpy as np

from openobj.nbv import CameraPose, rank_views
from openobj.synthgen import ShapeSpec, generate_scene

objects = [
    ShapeSpec("box", (0.1, 0.08, 0.1), points=600, translation=(0.25, 0.1, 0.09), seed=1),
    ShapeSpec("cylinder", (0.04, 0.14), points=600, translation=(-0.2, -0.12, 0.11), seed=2),
    ShapeSpec("sphere", (0.05,), points=600, translation=(0.0, 0.22, 0.09), seed=3),
]
world, _ = generate_scene(objects, seed=4)

down = np.array([[1.0, 0, 0], [0, -1.0, 0], [0, 0, -1.0]])
current = CameraPose(rotation=down, translation=[0.0, 0.0, 2.0])
candidates = [
    CameraPose(rotation=down, translation=[x, y, 2.0])
    for x, y in [(0.0, 0.0), (0.4, 0.0), (-0.4, 0.3), (0.8, -0.6)]
]

# the orthographic render depends only on the rotation, so these four poses
# share one entropy and the travel weight alone tells them apart
entropies, weighted, chosen = rank_views(world, candidates, current, sigma=0.5, resolution=96)
for i, (pose, entropy, hw) in enumerate(zip(candidates, entropies, weighted)):
    print(f"pose {i} at {pose.translation}: H={entropy:.3f}, weighted={hw:.3f}")

probs = np.array(weighted) / sum(weighted)
print(f"selection probabilities: {np.round(probs, 3)}")
print(f"next view: pose {chosen}, translation {candidates[chosen].translation}")
