"""Command-line front end: dataset generation, descriptor dumps,
cross-validation, teaching-protocol experiments and next-best-view runs.

Config files are flat ``key = value`` text (# comments allowed); keys must
be experiment-config fields or the generator keys below, and command-line
flags override file values. All randomness flows from --seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from .descriptors import compute_feature_set, compute_good
from .evaluation import (
    LabeledDataset,
    kfold,
    metrics,
    pick_rho,
    run_context_protocol,
    run_protocol,
    write_summary_csv,
)
from .nbv import CameraPose, load_poses, render_virtual, SegmentedScene, select_next_view, viewpoint_entropy, weighted_entropy
from .pipelines import (
    ConfigError,
    ExperimentConfig,
    _FeatureCache,
    build_dictionary_from_clouds,
    build_learner,
    make_cv_pipeline,
)
from .pointcloud import load_pcd
from .representations import Dictionary
from .segmentation import euclidean_cluster
from .synthgen import CategorySpec, generate_dataset

GEN_KEYS = {"categories", "views", "points", "noise_sigma", "context_split"}

DEFAULT_CATEGORIES = (
    CategorySpec("box", "box", (0.12, 0.08, 0.05)),
    CategorySpec("cylinder", "cylinder", (0.035, 0.14)),
    CategorySpec("sphere", "sphere", (0.05,)),
    CategorySpec("cone", "cone", (0.05, 0.13)),
    CategorySpec("plate", "plate", (0.15, 0.1)),
)


class CliError(Exception):
    pass


def parse_config_file(path) -> dict:
    """Flat key = value lines; unknown keys are hard errors."""
    known = set(ExperimentConfig.field_names()) | GEN_KEYS
    values = {}
    with open(path, "r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise CliError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in known:
                raise CliError(f"{path}:{lineno}: unknown config key {key!r}")
            values[key] = value
    return values


def _coerce(key: str, value: str):
    if value.lower() in ("none", "null"):
        return None
    if value.lower() in ("true", "false"):
        return value.lower() == "true"
    for cast in (int, float):
        try:
            return cast(value)
        except ValueError:
            continue
    return value


def build_config(args) -> tuple[ExperimentConfig, dict]:
    file_values = parse_config_file(args.config) if args.config else {}
    gen_values = {}
    config = ExperimentConfig()
    for key, raw in file_values.items():
        value = _coerce(key, raw)
        if key in GEN_KEYS:
            gen_values[key] = value
        else:
            config = replace(config, **{key: value})
    overrides = {
        name: getattr(args, name)
        for name in ExperimentConfig.field_names()
        if getattr(args, name, None) is not None
    }
    if args.seed is not None:
        overrides["seed"] = args.seed
    if overrides:
        config = replace(config, **overrides)
    config.validate()
    return config, gen_values


def load_dataset(root) -> LabeledDataset:
    """Dataset tree: <root>/<category>/*.pcd plus optional manifest.json
    carrying a context map."""
    if not os.path.isdir(root):
        raise CliError(f"dataset directory {root!r} does not exist")
    views = {}
    for entry in sorted(os.listdir(root)):
        cat_dir = os.path.join(root, entry)
        if not os.path.isdir(cat_dir):
            continue
        files = sorted(f for f in os.listdir(cat_dir) if f.endswith(".pcd"))
        if files:
            views[entry] = [load_pcd(os.path.join(cat_dir, f)) for f in files]
    if not views:
        raise CliError(f"no categories with .pcd views under {root!r}")
    contexts = None
    manifest_path = os.path.join(root, "manifest.json")
    if os.path.exists(manifest_path):
        with open(manifest_path, "r", encoding="ascii") as fh:
            manifest = json.load(fh)
        contexts = manifest.get("contexts")
    return LabeledDataset(views=views, contexts=contexts)


def _write_json(payload: dict, path=None) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2)
    if path is None:
        print(text)
    else:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text + "\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_gen(args) -> int:
    config, gen_values = build_config(args)
    out_dir = args.out_dir or "dataset"
    n_categories = int(gen_values.get("categories", 5))
    views = int(gen_values.get("views", 40))
    points = int(gen_values.get("points", 350))
    noise = float(gen_values.get("noise_sigma", 0.002))
    categories = [
        CategorySpec(c.name, c.kind, c.dimensions, points=points, noise_sigma=noise)
        for c in DEFAULT_CATEGORIES[:n_categories]
    ]
    contexts = None
    if args.context_split or gen_values.get("context_split"):
        rng = np.random.default_rng(config.seed)
        names = [c.name for c in categories]
        half = rng.permutation(len(names))
        contexts = {
            names[i]: ("A" if rank < (len(names) + 1) // 2 else "B")
            for rank, i in enumerate(half)
        }
    generate_dataset(categories, views, seed=config.seed, root=out_dir, contexts=contexts)
    print(f"wrote {n_categories} categories x {views} views to {out_dir}")
    return 0


def cmd_describe(args) -> int:
    config, _ = build_config(args)
    cloud = load_pcd(args.input)
    if len(cloud) == 0:
        raise CliError(f"{args.input}: no valid points")
    kind = args.type or config.representation
    if kind == "good":
        payload = compute_good(cloud, n=config.good_bins).to_json_dict()
    elif kind == "spinset":
        fs = compute_feature_set(
            cloud,
            voxel=config.voxel,
            image_width=config.image_width,
            support_length=config.support_length,
            support_angle=config.support_angle,
        )
        payload = {
            "type": "spinset",
            "params": {
                "voxel": config.voxel,
                "image_width": config.image_width,
                "support_length": config.support_length,
                "support_angle": config.support_angle,
            },
            "values": fs.as_matrix().tolist(),
        }
    elif kind == "bow":
        if not args.dictionary:
            raise CliError(
                "bow descriptors need --dictionary <words.json or dataset dir>"
            )
        if os.path.isdir(args.dictionary):
            pool_dataset = load_dataset(args.dictionary)
            clouds = [c for views in pool_dataset.views.values() for c in views]
            dictionary = build_dictionary_from_clouds(clouds, config)
        else:
            with open(args.dictionary, "r", encoding="ascii") as fh:
                dictionary = Dictionary.from_json_dict(json.load(fh))
        fs = compute_feature_set(
            cloud,
            voxel=config.voxel,
            image_width=config.image_width,
            support_length=config.support_length,
            support_angle=config.support_angle,
        )
        from .representations import bow_encode

        counts = bow_encode(fs, dictionary).counts
        payload = {
            "type": "bow",
            "params": {"dictionary_size": dictionary.size},
            "values": counts.tolist(),
        }
    else:
        raise CliError(f"describe does not support representation {kind!r}")
    _write_json(payload)
    return 0


def cmd_cv(args) -> int:
    config, _ = build_config(args)
    dataset = load_dataset(args.dataset)
    cm = kfold(
        dataset,
        k=config.folds,
        pipeline=make_cv_pipeline(config),
        seed=config.seed,
        jobs=args.jobs or 1,
    )
    result = metrics(cm)
    out_dir = args.out_dir or "."
    os.makedirs(out_dir, exist_ok=True)
    cm.to_csv(os.path.join(out_dir, "confusion.csv"))
    _write_json(result, os.path.join(out_dir, "metrics.json"))
    _write_json(result)
    return 0


def cmd_protocol(args) -> int:
    config, _ = build_config(args)
    dataset = load_dataset(args.dataset)
    all_clouds = [cloud for views in dataset.views.values() for cloud in views]
    # one cache, so the dictionary pool and the learner share each view's
    # spin images
    features = _FeatureCache(config)
    dictionary = None
    if config.representation in ("bow", "lda", "local_lda"):
        dictionary = build_dictionary_from_clouds(all_clouds, config, features)
    learner = build_learner(config, dictionary, features)
    if args.context_change:
        if dataset.contexts is None:
            raise CliError("dataset has no context map; regenerate with --context-split")
        rho = args.rho if args.rho is not None else pick_rho(
            args.alc if args.alc is not None else len(dataset.views), config.seed
        )
        log, summary = run_context_protocol(
            dataset,
            learner,
            rho=rho,
            tau=config.tau,
            window_mult=config.window_mult,
            breakpoint_limit=config.breakpoint_limit,
            views_per_teach=config.views_per_teach,
            seed=config.seed,
        )
    else:
        log, summary = run_protocol(
            dataset,
            learner,
            tau=config.tau,
            window_mult=config.window_mult,
            breakpoint_limit=config.breakpoint_limit,
            views_per_teach=config.views_per_teach,
            seed=config.seed,
        )
    out_dir = args.out_dir or "."
    os.makedirs(out_dir, exist_ok=True)
    log.write_jsonl(os.path.join(out_dir, "protocol_log.jsonl"))
    _write_json(summary.to_json_dict(), os.path.join(out_dir, "summary.json"))
    write_summary_csv([summary], os.path.join(out_dir, "summary.csv"))
    _write_json(summary.to_json_dict())
    return 0


def cmd_nbv(args) -> int:
    config, _ = build_config(args)
    world = load_pcd(args.world)
    poses = load_poses(args.poses)
    if not poses:
        raise CliError("pose list is empty")
    current = poses[args.current] if args.current is not None else poses[0]
    ranked = []
    candidates = []
    for i, pose in enumerate(poses):
        view = render_virtual(world, pose, resolution=config.nbv_resolution)
        # cluster the rendered view; no table assumption so renders from
        # any direction stay usable
        clusters = euclidean_cluster(view, link_dist=0.03, min_pts=5) if len(view) else []
        if clusters:
            scene = SegmentedScene(clusters=tuple(clusters), total_area=len(view))
            entropy = viewpoint_entropy(scene)
        else:
            entropy = 0.0
        weighted = weighted_entropy(entropy, pose, current, config.sigma_nbv)
        candidates.append((pose, weighted))
        ranked.append(
            {
                "index": i,
                "translation": pose.translation.tolist(),
                "entropy": entropy,
                "weighted_entropy": weighted,
            }
        )
    total = sum(r["weighted_entropy"] for r in ranked)
    for r in ranked:
        r["probability"] = r["weighted_entropy"] / total if total > 0 else 0.0
    ranked.sort(key=lambda r: -r["weighted_entropy"])
    selected = None
    if total > 0:
        pose = select_next_view(candidates, seed=config.seed)
        selected = next(
            i for i, p in enumerate(poses) if p is pose
        )
    payload = {"ranked": ranked, "selected_index": selected}
    out_dir = args.out_dir
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        _write_json(payload, os.path.join(out_dir, "nbv.json"))
    _write_json(payload)
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _add_common(parser):
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument("--seed", type=int, help="master random seed")
    parser.add_argument("--out-dir", help="directory for output files")
    for name in ExperimentConfig.field_names():
        if name == "seed":
            continue
        flag = "--" + name.replace("_", "-")
        parser.add_argument(flag, dest=name, help=argparse.SUPPRESS)


def _postprocess(args):
    # typed coercion of the hidden per-field overrides
    for name in ExperimentConfig.field_names():
        raw = getattr(args, name, None)
        if raw is None or not isinstance(raw, str):
            continue
        setattr(args, name, _coerce(name, raw))
    return args


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="openobj",
        description="Open-ended 3D object category learning experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a synthetic labeled dataset")
    p_gen.add_argument("--context-split", action="store_true",
                       help="assign categories to contexts A/B in the manifest")
    _add_common(p_gen)

    p_desc = sub.add_parser("describe", help="print a descriptor for one view")
    p_desc.add_argument("input", help="input .pcd file")
    p_desc.add_argument("--type", choices=("good", "spinset", "bow"))
    p_desc.add_argument("--dictionary", help="visual-word dictionary JSON (bow)")
    _add_common(p_desc)

    p_cv = sub.add_parser("cv", help="k-fold cross-validation on a dataset tree")
    p_cv.add_argument("dataset", help="dataset root directory")
    p_cv.add_argument("--jobs", type=int, help="parallel workers for CV folds")
    _add_common(p_cv)

    p_proto = sub.add_parser("protocol", help="simulated-teacher experiment")
    p_proto.add_argument("dataset", help="dataset root directory")
    p_proto.add_argument("--context-change", action="store_true")
    p_proto.add_argument("--rho", type=int, help="context transition point")
    p_proto.add_argument("--alc", type=float,
                         help="average learned categories for sampling rho")
    _add_common(p_proto)

    p_nbv = sub.add_parser("nbv", help="rank candidate camera poses")
    p_nbv.add_argument("world", help="scene .pcd file")
    p_nbv.add_argument("poses", help="candidate poses JSON")
    p_nbv.add_argument("--current", type=int, help="index of the current pose")
    _add_common(p_nbv)

    args = _postprocess(parser.parse_args(argv))
    handlers = {
        "gen": cmd_gen,
        "describe": cmd_describe,
        "cv": cmd_cv,
        "protocol": cmd_protocol,
        "nbv": cmd_nbv,
    }
    try:
        return handlers[args.command](args)
    except (CliError, ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
