"""Golden SHA-256 hashes of two geometry outputs: the GOOD descriptor that
`describe --type good` prints, and the candidates `detect_objects` keeps
on three fixed table scenes.

The scenes exercise both parts of the candidate filter: scene 2 has boxes
at several distances from the table edge and one rod longer than
`max_size`, so its kept `track_id`s have gaps.
"""

import hashlib

import numpy as np
import pytest

from openobj.cli import main
from openobj.pointcloud import save_pcd
from openobj.segmentation import SegmentationParams, detect_objects
from openobj.synthgen import ShapeSpec, generate_scene, generate_view, random_rotation

GOOD_DESCRIBE = "659a63632d09a678f3bddfbd93fd711e626819094040d59d2cb59785c5f80e55"


def test_describe_good_matches_golden(tmp_path, capsys):
    view = generate_view(ShapeSpec("cone", (0.05, 0.13), points=400, noise_sigma=0.002, seed=3))
    pcd = tmp_path / "view.pcd"
    save_pcd(pcd, view)
    assert main(["describe", str(pcd), "--type", "good"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOOD_DESCRIBE


def scene_inside():
    """Three boxes well inside the table."""
    boxes = [
        ShapeSpec("box", (0.08, 0.06, 0.1), points=250, translation=(0.25, 0.15, 0.05), seed=11),
        ShapeSpec("box", (0.05, 0.05, 0.07), points=250, translation=(-0.25, -0.1, 0.035), seed=12),
        ShapeSpec("box", (0.1, 0.04, 0.05), points=250, translation=(0.0, 0.2, 0.025), seed=13),
    ]
    return generate_scene(boxes, seed=0, n_outliers=60)[0]


def scene_edges():
    """Five 6 cm boxes 0.03 to 0.3 m from the edge of a 1.2 x 0.8 m
    table, and a 0.7 m rod."""
    spots = [(0.57, 0.0), (0.52, 0.2), (0.45, -0.25), (0.0, 0.37), (-0.3, 0.0)]
    objects = [
        ShapeSpec("box", (0.06, 0.06, 0.06), points=300, translation=(x, y, 0.04), seed=40 + i)
        for i, (x, y) in enumerate(spots)
    ]
    objects.append(
        ShapeSpec("box", (0.7, 0.05, 0.05), points=3000, translation=(-0.1, -0.2, 0.04), seed=50)
    )
    return generate_scene(objects, seed=6, n_outliers=40)[0]


def scene_rotated():
    """Four rotated shapes of different kinds, with sensor noise."""
    rng = np.random.default_rng(7)
    shapes = [("cylinder", (0.035, 0.12)), ("sphere", (0.05,)), ("cone", (0.05, 0.13)),
              ("box", (0.12, 0.08, 0.05))]
    objects = [
        ShapeSpec(kind, dims, points=300, noise_sigma=0.002, rotation=random_rotation(rng),
                  translation=(-0.4 + 0.27 * i, 0.3 * (-1) ** i, 0.12), seed=60 + i)
        for i, (kind, dims) in enumerate(shapes)
    ]
    return generate_scene(objects, seed=8, n_outliers=50)[0]


# scene: (candidate count, track_ids, SHA-256 of the candidates' points)
DETECT_GOLDEN = {
    scene_inside: (
        3, [0, 1, 2], "b1b9a1158e23abf301c3d77ce71e92dd669ed5eddf79ee1f275127f1167a456e"
    ),
    scene_edges: (
        3, [1, 2, 4], "14d87e01fd8967ca881f4d24d24bf97b36672ef0029967aa74a0d9719d150a3b"
    ),
    scene_rotated: (
        4, [0, 1, 2, 3], "838264e010589ebb9cadc4a8c8f7080e5b04a727314c418863487294e46de187"
    ),
}


@pytest.mark.parametrize("make_scene", list(DETECT_GOLDEN), ids=lambda f: f.__name__)
def test_detect_objects_matches_golden(make_scene):
    candidates = detect_objects(make_scene(), SegmentationParams(seed=0))
    digest = hashlib.sha256()
    for candidate in candidates:
        digest.update(candidate.cloud.points.tobytes())
    got = (len(candidates), [c.track_id for c in candidates], digest.hexdigest())
    assert got == DETECT_GOLDEN[make_scene]
