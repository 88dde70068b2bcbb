#!/usr/bin/env python3
"""From local surface patches to compact object histograms: spin images
over voxel keypoints, a k-means visual-word dictionary, bag-of-words
counts and per-category topic models."""

import zlib

import numpy as np

from openobj.descriptors import compute_feature_set
from openobj.pipelines import collect_feature_pool
from openobj.representations import (TopicModel, bow_encode, build_dictionary, lda_infer,
                                     lda_update, phi)
from openobj.synthgen import CategorySpec, generate_dataset

data = generate_dataset(
    [
        CategorySpec("box", "box", (0.12, 0.08, 0.05), points=250, noise_sigma=0.001),
        CategorySpec("sphere", "sphere", (0.05,), points=250, noise_sigma=0.001),
    ],
    views_per_category=6,
    seed=3,
)

features = {
    name: [compute_feature_set(v, voxel=0.02).as_matrix() for v in views]
    for name, views in data.items()
}
sample = features["box"][0]
print(f"box view 0: {len(sample)} keypoints, one flattened spin image each: "
      f"feature matrix {sample.shape}")

pool = collect_feature_pool(
    [m for matrices in features.values() for m in matrices], cap=4000, seed=0
)
dictionary = build_dictionary(pool, v=20, seed=0)
print(f"dictionary: {dictionary.size} words of dimension {dictionary.words.shape[1]}")

counts = bow_encode(sample, dictionary)
print(f"bag-of-words counts (sum = {counts.sum()}): {counts}")

# Per-category topic models, updated incrementally one view at a time;
# each is seeded by its label's CRC-32, as the local-LDA learner seeds them.
models = {}
for name, matrices in features.items():
    models[name] = TopicModel(k=6, v=dictionary.size, scope=name,
                              rng_seed=zlib.crc32(name.encode()) ^ 1)
    for matrix in matrices[:4]:
        words = np.argmin(
            np.linalg.norm(matrix[:, None] - dictionary.words[None], axis=2), axis=1
        )
        lda_update(models[name], words)

held_out = features["box"][5]
words = np.argmin(
    np.linalg.norm(held_out[:, None] - dictionary.words[None], axis=2), axis=1
)
for name, model in models.items():
    theta = lda_infer(model, words).theta
    print(f"held-out box view against {name!r} topics: theta = {np.round(theta, 3)}")
print(f"topic-word columns sum to {phi(models['box']).sum(axis=0).round(6)}")
