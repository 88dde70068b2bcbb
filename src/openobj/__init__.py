"""Open-ended 3D object category learning from point clouds.

Submodules:

- ``pointcloud``: geometry types, PCD I/O, filters, object reference frame
- ``segmentation``: plane detection, prism extraction, clustering
- ``descriptors``: global orthographic descriptor and spin images
- ``representations``: visual-word dictionary, BoW, topic models
- ``learning``: instance-based and naive-Bayes open-ended learners
- ``evaluation``: metrics, cross-validation, simulated-teacher protocols
- ``nbv``: viewpoint entropy and next-best-view selection
- ``synthgen``: deterministic synthetic datasets and scenes
- ``pipelines``: representation/learner wiring for experiments
- ``errors``: ``OpenobjError``, one intake rule per input kind (counts, seeds,
  reals, rotations, nestings, files), and the records' field and JSON rules
"""

from . import (
    descriptors,
    evaluation,
    learning,
    nbv,
    pipelines,
    pointcloud,
    representations,
    segmentation,
    synthgen,
)
from .errors import OpenobjError

__all__ = [
    "OpenobjError",
    "descriptors",
    "evaluation",
    "learning",
    "nbv",
    "pipelines",
    "pointcloud",
    "representations",
    "segmentation",
    "synthgen",
]

__version__ = "0.1.0"
