#!/usr/bin/env python3
"""Run the simulated teacher end to end: a single-context session and a
context-change session, then read the summary measures off the log."""

from openobj.evaluation import (
    LabeledDataset,
    pick_rho,
    replay_accuracies,
    run_protocol,
)
from openobj.pipelines import ExperimentConfig, build_learner
from openobj.synthgen import CategorySpec, generate_dataset

categories = [
    CategorySpec("box", "box", (0.12, 0.08, 0.05), points=200, noise_sigma=0.001),
    CategorySpec("cylinder", "cylinder", (0.035, 0.14), points=200, noise_sigma=0.001),
    CategorySpec("sphere", "sphere", (0.05,), points=200, noise_sigma=0.001),
    CategorySpec("cone", "cone", (0.05, 0.13), points=200, noise_sigma=0.001),
]
data = generate_dataset(categories, views_per_category=25, seed=9)
dataset = LabeledDataset(views=data)

learner = build_learner(ExperimentConfig(representation="good", learner="instance",
                                         good_bins=15))
log, summary = run_protocol(dataset, learner, seed=0)
print("single-context session")
print(f"  termination: {summary.termination}")
print(f"  QCI={summary.qci}  NLC={summary.nlc}  AIC={summary.aic:.2f}")
print(f"  GCA={summary.gca:.3f}  APA={summary.apa:.3f}")
replayed = replay_accuracies(log)
logged = [e.accuracy for e in log.events if e.action == "ask"]
print(f"  replayed sliding accuracies match log: {replayed == logged}")

# The transition point is normally sampled around a prior run's
# learned-category count; at desk scale that interval is shown here and a
# fixed small rho drives the actual session.
print(f"sampled rho for ALC=20: {pick_rho(alc=20, seed=1)} (interval [13, 17])")
contexts = {"box": "A", "cylinder": "A", "sphere": "B", "cone": "B"}
ctx_dataset = LabeledDataset(views=data, contexts=contexts)
rho = 1
learner = build_learner(ExperimentConfig(representation="good", learner="instance",
                                         good_bins=15))
log, summary = run_protocol(ctx_dataset, learner, rho=rho, seed=0)
print("context-change session")
print(f"  rho={rho}  termination: {summary.termination}")
print(f"  ALC1={summary.alc1}  ALC2={summary.alc2}  adaptability={summary.adaptability}")
