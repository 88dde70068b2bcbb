"""Command-line front end: dataset generation, descriptor dumps,
cross-validation, teaching-protocol experiments and next-best-view runs.

Config files are flat ``key = value`` text (# comments allowed); keys must
be experiment-config fields or the generator keys below, and command-line
flags override file values. Every value is parsed by its key's declared
type, and ``none`` clears ``ct``. A bad flag value is a usage error (exit
2); a bad file value is an error naming its key (exit 1). All randomness
flows from --seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from functools import partial

import numpy as np

from .descriptors import compute_feature_set, compute_good
from .errors import OpenobjError
from .evaluation import (
    EvaluationError,
    LabeledDataset,
    kfold,
    metrics,
    pick_rho,
    run_protocol,
    write_summary_csv,
)
from .nbv import load_poses, render_virtual, SegmentedScene, select_next_view, viewpoint_entropy, weighted_entropy
from .pipelines import (
    ExperimentConfig,
    build_dictionary_from_clouds,
    build_learner_from_pool,
    make_cv_pipeline,
)
from .pointcloud import load_pcd
from .representations import Dictionary, RepresentationError, bow_encode
from .segmentation import euclidean_cluster
from .synthgen import CategorySpec, generate_dataset

DEFAULT_CATEGORIES = (
    CategorySpec("box", "box", (0.12, 0.08, 0.05)),
    CategorySpec("cylinder", "cylinder", (0.035, 0.14)),
    CategorySpec("sphere", "sphere", (0.05,)),
    CategorySpec("cone", "cone", (0.05, 0.13)),
    CategorySpec("plate", "plate", (0.15, 0.1)),
)


class CliError(OpenobjError):
    pass


def _bool(text: str) -> bool:
    if text.lower() not in ("true", "false"):
        raise ValueError(text)
    return text.lower() == "true"


def _float_or_none(text: str) -> float | None:
    return None if text.lower() in ("none", "null") else float(text)


# declared type -> parser of its text form
_PARSERS = {"int": int, "float": float, "str": str, "bool": _bool, "float | None": _float_or_none}

GEN_KEYS = {"categories": "int", "views": "int", "points": "int", "noise_sigma": "float",
            "context_split": "bool"}
# every config key with its declared type (the field annotations of
# ExperimentConfig, which pipelines keeps as strings)
SCHEMA = {**{f.name: f.type for f in fields(ExperimentConfig)}, **GEN_KEYS}


def parse_value(key: str, text: str, error=CliError):
    """A flag or config-file value, parsed by its key's declared type. Flags
    pass argparse.ArgumentTypeError as ``error``, so that a bad flag value
    is a usage error."""
    try:
        return _PARSERS[SCHEMA[key]](text)
    except ValueError:
        raise error(f"{key} must be {SCHEMA[key]}, got {text!r}") from None


def parse_config_file(path) -> dict:
    """Flat key = value lines as raw strings; unknown keys are hard errors."""
    values = {}
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError:
        raise CliError(f"{path}: not an ASCII config file") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in SCHEMA:
            raise CliError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = value.strip()
    return values


def build_config(args) -> tuple[ExperimentConfig, dict]:
    """The validated experiment config and the generator values: config-file
    values, overridden by the flags given on the command line."""
    values = {}
    if args.config:
        for key, text in parse_config_file(args.config).items():
            try:
                values[key] = parse_value(key, text)
            except CliError as exc:
                raise CliError(f"{args.config}: {exc}") from None
    values.update((key, value) for key, value in vars(args).items() if key in SCHEMA)
    gen_values = {key: values.pop(key) for key in GEN_KEYS if key in values}
    return ExperimentConfig(**values).validate(), gen_values


def _read_json(path):
    try:
        with open(path, "r", encoding="ascii") as fh:
            return json.load(fh)
    except ValueError as exc:  # not ASCII, or not JSON
        raise CliError(f"{path}: not a JSON file: {exc}") from None


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
    manifest_path = os.path.join(root, "manifest.json")
    if not os.path.exists(manifest_path):
        return LabeledDataset(views=views)
    manifest = _read_json(manifest_path)
    contexts = manifest.get("contexts") if isinstance(manifest, dict) else None
    if not isinstance(manifest, dict) or not (contexts is None or isinstance(contexts, dict)):
        raise CliError(
            f"{manifest_path}: expected a JSON object whose optional 'contexts' "
            "maps each category to 'A' or 'B'"
        )
    try:
        return LabeledDataset(views=views, contexts=contexts)
    except EvaluationError as exc:
        raise CliError(f"{manifest_path}: {exc}") from None


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
    n_categories = gen_values.get("categories", 5)
    if not 1 <= n_categories <= len(DEFAULT_CATEGORIES):
        raise CliError(f"categories must lie in [1, {len(DEFAULT_CATEGORIES)}]")
    views = gen_values.get("views", 40)
    points = gen_values.get("points", 350)
    noise = gen_values.get("noise_sigma", 0.002)
    categories = [
        CategorySpec(c.name, c.kind, c.dimensions, points=points, noise_sigma=noise)
        for c in DEFAULT_CATEGORIES[:n_categories]
    ]
    contexts = None
    if gen_values.get("context_split"):
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
        _write_json(compute_good(cloud, n=config.good_bins).to_json_dict())
        return 0
    if kind not in ("spinset", "bow"):
        raise CliError(f"describe does not support representation {kind!r}")
    dictionary = _load_dictionary(args.dictionary, config) if kind == "bow" else None
    params = config.spin_image_args()
    matrix = compute_feature_set(cloud, **params).as_matrix()
    if kind == "spinset":
        payload = {"type": "spinset", "params": params, "values": matrix.tolist()}
    else:
        payload = {
            "type": "bow",
            "params": {"dictionary_size": dictionary.size},
            "values": bow_encode(matrix, dictionary).tolist(),
        }
    _write_json(payload)
    return 0


def _load_dictionary(path, config: ExperimentConfig) -> Dictionary:
    """Visual words from a words JSON file, or built from a dataset tree."""
    if not path:
        raise CliError("bow descriptors need --dictionary <words.json or dataset dir>")
    if os.path.isdir(path):
        views = load_dataset(path).views.values()
        return build_dictionary_from_clouds([c for clouds in views for c in clouds], config)
    try:
        return Dictionary.from_json_dict(_read_json(path))
    except RepresentationError as exc:
        raise CliError(f"{path}: {exc}") from None


def cmd_cv(args) -> int:
    config, _ = build_config(args)
    if config.ct is not None:
        raise CliError("cv does not take ct: UNKNOWN is not a dataset category")
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
    rho = None
    if args.context_change:
        if dataset.contexts is None:
            raise CliError("dataset has no context map; regenerate with --context-split")
        alc = args.alc if args.alc is not None else len(dataset.views)
        rho = args.rho if args.rho is not None else pick_rho(alc, config.seed)
    clouds = [cloud for views in dataset.views.values() for cloud in views]
    log, summary = run_protocol(
        dataset,
        build_learner_from_pool(config, clouds),
        tau=config.tau,
        window_mult=config.window_mult,
        breakpoint_limit=config.breakpoint_limit,
        views_per_teach=config.views_per_teach,
        seed=config.seed,
        rho=rho,
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
    index = args.current if args.current is not None else 0
    if not 0 <= index < len(poses):
        raise CliError(f"--current {index} is not one of the {len(poses)} poses")
    current = poses[index]
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

def _add_common(parser, handler):
    parser.set_defaults(handler=handler)
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument("--out-dir", help="directory for output files")
    # one hidden override per config field; unset flags stay out of the
    # namespace, so only given ones override the config file
    for name in (f.name for f in fields(ExperimentConfig)):
        parser.add_argument(
            "--" + name.replace("_", "-"), dest=name,
            type=partial(parse_value, name, error=argparse.ArgumentTypeError),
            default=argparse.SUPPRESS,
            help="master random seed" if name == "seed" else argparse.SUPPRESS,
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="openobj",
        description="Open-ended 3D object category learning experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a synthetic labeled dataset")
    p_gen.add_argument("--context-split", action="store_true", default=argparse.SUPPRESS,
                       help="assign categories to contexts A/B in the manifest")
    _add_common(p_gen, cmd_gen)

    p_desc = sub.add_parser("describe", help="print a descriptor for one view")
    p_desc.add_argument("input", help="input .pcd file")
    p_desc.add_argument("--type", choices=("good", "spinset", "bow"))
    p_desc.add_argument("--dictionary", help="visual-word dictionary JSON (bow)")
    _add_common(p_desc, cmd_describe)

    p_cv = sub.add_parser("cv", help="k-fold cross-validation on a dataset tree")
    p_cv.add_argument("dataset", help="dataset root directory")
    p_cv.add_argument("--jobs", type=int, help="parallel workers for CV folds")
    _add_common(p_cv, cmd_cv)

    p_proto = sub.add_parser("protocol", help="simulated-teacher experiment")
    p_proto.add_argument("dataset", help="dataset root directory")
    p_proto.add_argument("--context-change", action="store_true")
    p_proto.add_argument("--rho", type=int, help="context transition point")
    p_proto.add_argument("--alc", type=float,
                         help="average learned categories for sampling rho")
    _add_common(p_proto, cmd_protocol)

    p_nbv = sub.add_parser("nbv", help="rank candidate camera poses")
    p_nbv.add_argument("world", help="scene .pcd file")
    p_nbv.add_argument("poses", help="candidate poses JSON")
    p_nbv.add_argument("--current", type=int, help="index of the current pose")
    _add_common(p_nbv, cmd_nbv)

    args = parser.parse_args(argv)
    if args.command == "protocol" and not args.context_change:
        for flag in ("rho", "alc"):
            if getattr(args, flag) is not None:
                p_proto.error(f"--{flag} needs --context-change")
    try:
        return args.handler(args)
    except (OpenobjError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
