"""Command-line interface: file contracts, determinism and exit codes."""

import csv
import hashlib
import json

import numpy as np
import pytest

from openobj import cli
from openobj.cli import main, parse_config_file, CliError
from openobj.errors import OpenobjError
from openobj.evaluation import ConfusionMatrix
from openobj.pointcloud import save_pcd
from openobj.synthgen import ShapeSpec, generate_scene, generate_view


def run_cli(*argv):
    return main(list(argv))


def tree_bytes(root):
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class TestConfigFile:
    def test_parse_and_override(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("good_bins = 5\nrepresentation = good\n# comment\n")
        values = parse_config_file(cfg)
        assert values == {"good_bins": "5", "representation": "good"}

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("goood_bins = 5\n")
        with pytest.raises(CliError, match="unknown config key"):
            parse_config_file(cfg)


class TestTypedValues:
    """Flags and config-file values are parsed by the declared type of
    their config field."""

    def record_config(self, monkeypatch):
        seen = []

        def fake_cv(args):
            seen.append(cli.build_config(args)[0])
            return 0

        monkeypatch.setattr(cli, "cmd_cv", fake_cv)
        return seen

    def test_ct_none_flag_clears_file_value(self, tmp_path, monkeypatch):
        cfg = tmp_path / "ct.cfg"
        cfg.write_text("ct = 0.5\nsupport_angle = 90\n")
        seen = self.record_config(monkeypatch)
        assert run_cli("cv", "data", "--config", str(cfg)) == 0
        assert run_cli("cv", "data", "--config", str(cfg), "--ct", "none",
                       "--support-angle", "45") == 0
        assert [(c.ct, c.support_angle) for c in seen] == [(0.5, 90.0), (None, 45.0)]
        assert type(seen[0].support_angle) is float

    @pytest.mark.parametrize("flag,value", [
        ("--good-bins", "2.5"), ("--folds", "3.0"), ("--voxel", "none"), ("--seed", "x"),
    ])
    def test_bad_flag_value_is_usage_error(self, flag, value, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("cv", "data", flag, value)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert flag in err and "Traceback" not in err

    @pytest.mark.parametrize("line,key", [
        ("voxel = none", "voxel"), ("folds = 3.0", "folds"), ("context_split = maybe", "context_split"),
    ])
    def test_bad_file_value_names_key(self, tmp_path, capsys, line, key):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        assert run_cli("cv", "data", "--config", str(cfg)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err and "Traceback" not in err

    @pytest.mark.parametrize("argv,name", [
        (("gen", "--seed", "-1"), "seed"),
        (("cv", "data", "--seed", "-1"), "seed"),
        (("protocol", "data", "--seed", "-1"), "seed"),
        (("protocol", "data", "--representation", "bow", "--max-dictionary-pool", "-1"),
         "max_dictionary_pool"),
        (("protocol", "data", "--max-dictionary-pool", "0"), "max_dictionary_pool"),
        (("nbv", "world.pcd", "poses.json", "--nbv-resolution", "0"), "nbv_resolution"),
    ], ids=lambda v: " ".join(v) if isinstance(v, tuple) else v)
    def test_negative_seed_or_bound_exits_one(self, tmp_path, capsys, argv, name):
        assert run_cli(*argv, "--out-dir", str(tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{name} must be at least" in err
        assert "Traceback" not in err and not (tmp_path / "out").exists()

    def test_context_split_from_file(self, tmp_path):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("categories = 2\nviews = 2\npoints = 60\ncontext_split = true\n")
        assert run_cli("gen", "--out-dir", str(tmp_path / "ds"), "--config", str(cfg)) == 0
        manifest = json.loads((tmp_path / "ds" / "manifest.json").read_text())
        assert set(manifest["contexts"].values()) == {"A", "B"}


class TestMalformedInput:
    """Bad input files end in ``error: ...`` and exit 1, never a traceback."""

    ROTATION = [1.0, 0, 0, 0, 1.0, 0, 0, 0, 1.0]

    @pytest.fixture
    def view(self, tmp_path):
        path = tmp_path / "view.pcd"
        save_pcd(path, generate_view(ShapeSpec("box", (0.1, 0.07, 0.05), points=120, seed=3)))
        return path

    @pytest.mark.parametrize("name,content", [
        ("poses.json", json.dumps([{"translation": [0, 0, 1]}])),
        ("poses.json", json.dumps([{"rotation": ROTATION, "translation": [0, 1]}])),
        ("poses.json", "not json"),
        ("poses.json", json.dumps([{"rotation": ROTATION, "translation": [10**400, 0, 0]}])),
        ("poses.json", json.dumps([{"rotation": [float("nan")] * 9, "translation": [0, 0, 1]}])),
        ("words.json", "{words"),
        ("words.json", json.dumps({"words": [[1.0, 2.0], [3.0]]})),
        ("words.json", json.dumps({"words": [[10**400, 2.0], [3.0, 4.0]]})),
        ("view.pcd", b"FIELDS x y z\nPOINTS 1\nDATA ascii\n\xff\xfe 1 2\n"),
    ], ids=["poses-no-rotation", "poses-2-translation", "poses-not-json", "poses-huge-int",
            "poses-nan-rotation", "words-not-json", "words-ragged", "words-huge-int", "pcd-not-ascii"])
    def test_exits_one_with_error(self, tmp_path, capsys, view, name, content):
        path = tmp_path / ("bad_" + name)
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content)
        if name == "poses.json":
            argv = ("nbv", str(view), str(path))
        elif name == "words.json":
            argv = ("describe", str(view), "--type", "bow", "--dictionary", str(path))
        else:
            argv = ("describe", str(path), "--type", "good")
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(path) in err

    @pytest.mark.parametrize("flag", ["--support-length", "--voxel", "--support-angle"])
    def test_nan_spin_image_parameter_exits_one(self, capsys, view, flag):
        assert run_cli("describe", str(view), "--type", "spinset", flag, "nan") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and flag[2:].replace("-", "_") in err

    @pytest.mark.parametrize("manifest", [
        [{"contexts": {"box": "A"}}],
        {"contexts": 5},
        {"contexts": {"box": {}}},
        {"contexts": {"sphere": "A"}},
    ], ids=["list", "contexts-not-object", "context-not-a-or-b", "context-not-a-category"])
    def test_bad_manifest_exits_one(self, tmp_path, capsys, view, manifest):
        root = tmp_path / "data"
        (root / "box").mkdir(parents=True)
        (root / "box" / "view.pcd").write_bytes(view.read_bytes())
        path = root / "manifest.json"
        path.write_text(json.dumps(manifest))
        assert run_cli("protocol", str(root), "--out-dir", str(tmp_path / "out")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(path) in err

    def test_programming_errors_keep_their_traceback(self, monkeypatch):
        def broken(args):
            raise ValueError("a bug, not bad input")

        monkeypatch.setattr(cli, "cmd_cv", broken)
        with pytest.raises(ValueError, match="a bug"):
            run_cli("cv", "data")

    def test_every_module_error_is_an_openobj_error(self):
        from openobj import (
            descriptors, evaluation, learning, nbv, pipelines, pointcloud,
            representations, segmentation, synthgen,
        )

        errors = [
            CliError, pipelines.ConfigError, descriptors.DescriptorError,
            evaluation.EvaluationError, learning.LearningError, nbv.NbvError,
            pointcloud.PointCloudError, representations.RepresentationError,
            segmentation.SegmentationError, synthgen.SynthgenError,
        ]
        assert all(issubclass(e, OpenobjError) for e in errors)
        assert issubclass(OpenobjError, ValueError)


class TestGen:
    def test_exit_zero_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "ds"
        assert run_cli("gen", "--out-dir", str(out), "--seed", "3",
                       "--config", self._gen_cfg(tmp_path)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 3
        assert manifest["views_per_category"] == 4

    def _gen_cfg(self, tmp_path):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("categories = 3\nviews = 4\npoints = 120\nnoise_sigma = 0.001\n")
        return str(cfg)

    def test_rerun_same_seed_identical(self, tmp_path):
        cfg = self._gen_cfg(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli("gen", "--out-dir", str(a), "--seed", "7", "--config", cfg)
        run_cli("gen", "--out-dir", str(b), "--seed", "7", "--config", cfg)
        assert tree_bytes(a) == tree_bytes(b)

    def test_too_many_categories_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("categories = 6\n")
        assert run_cli("gen", "--out-dir", str(tmp_path / "ds"), "--config", str(cfg)) == 1
        assert "categories" in capsys.readouterr().err

    @pytest.mark.parametrize("line", [
        "views = 0", "views = -3", "noise_sigma = -1", "noise_sigma = nan", "noise_sigma = inf",
    ])
    def test_bad_views_or_noise_exits_one(self, tmp_path, capsys, line):
        cfg = tmp_path / "gen.cfg"
        cfg.write_text(f"categories = 2\npoints = 120\n{line}\n")
        out = tmp_path / "ds"
        assert run_cli("gen", "--out-dir", str(out), "--config", str(cfg)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and line.split()[0] in err
        assert not (out / "manifest.json").exists()

    def test_context_split_written(self, tmp_path):
        out = tmp_path / "ds"
        run_cli("gen", "--out-dir", str(out), "--seed", "1",
                "--config", self._gen_cfg(tmp_path), "--context-split")
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["contexts"].values()) == {"A", "B"}


class TestDescribe:
    def test_good_emits_675_values(self, tmp_path, capsys):
        view = generate_view(ShapeSpec("box", (0.12, 0.08, 0.05), points=300, seed=1))
        pcd = tmp_path / "view.pcd"
        save_pcd(pcd, view)
        assert run_cli("describe", str(pcd), "--type", "good") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["type"] == "good"
        assert len(payload["values"]) == 675

    def test_empty_file_nonzero_exit(self, tmp_path, capsys):
        pcd = tmp_path / "empty.pcd"
        pcd.write_text("FIELDS x y z\nPOINTS 0\nDATA ascii\n")
        assert run_cli("describe", str(pcd), "--type", "good") == 1
        assert "error" in capsys.readouterr().err

    def test_output_is_valid_json(self, tmp_path, capsys):
        view = generate_view(ShapeSpec("cylinder", (0.04, 0.12), points=200, seed=2))
        pcd = tmp_path / "view.pcd"
        save_pcd(pcd, view)
        run_cli("describe", str(pcd), "--type", "spinset", "--voxel", "0.02")
        payload = json.loads(capsys.readouterr().out)
        assert payload["type"] == "spinset"
        assert len(payload["values"][0]) == 45

    def test_bow_from_json_dictionary(self, tmp_path, capsys):
        import numpy as np

        from openobj.representations import Dictionary

        view = generate_view(ShapeSpec("box", (0.1, 0.07, 0.05), points=200, seed=3))
        pcd = tmp_path / "view.pcd"
        save_pcd(pcd, view)
        words = np.random.default_rng(0).uniform(0, 3, size=(10, 45))
        dict_path = tmp_path / "words.json"
        dict_path.write_text(json.dumps(Dictionary(words).to_json_dict()))
        code = run_cli("describe", str(pcd), "--type", "bow",
                       "--dictionary", str(dict_path), "--voxel", "0.02")
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["type"] == "bow"
        assert len(payload["values"]) == 10


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("ds")
    cfg = root / "gen.cfg"
    cfg.write_text("categories = 3\nviews = 12\npoints = 150\nnoise_sigma = 0.001\n")
    run_cli("gen", "--out-dir", str(root / "data"), "--seed", "5",
            "--config", str(cfg), "--context-split")
    return root / "data"


class TestCv:
    def test_metrics_consistent_with_csv(self, small_dataset, tmp_path, capsys):
        out = tmp_path / "cv"
        code = run_cli(
            "cv", str(small_dataset), "--out-dir", str(out), "--seed", "2",
            "--representation", "good", "--good-bins", "5", "--folds", "4",
        )
        assert code == 0
        reported = json.loads((out / "metrics.json").read_text())
        with open(out / "confusion.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        cm = ConfusionMatrix(labels=rows[0][1:], counts=[[int(x) for x in r[1:]] for r in rows[1:]])
        from openobj.evaluation import metrics as compute_metrics

        recomputed = compute_metrics(cm)
        assert reported["accuracy"] == pytest.approx(recomputed["accuracy"])

    def test_deterministic_per_seed(self, small_dataset, tmp_path):
        outs = []
        for name in ("x", "y"):
            out = tmp_path / name
            run_cli("cv", str(small_dataset), "--out-dir", str(out), "--seed", "9",
                    "--representation", "good", "--good-bins", "5", "--folds", "4")
            outs.append((out / "metrics.json").read_text())
        assert outs[0] == outs[1]

    def test_jobs_leave_results_unchanged(self, small_dataset, tmp_path):
        outs = []
        for jobs in ("1", "2"):
            out = tmp_path / jobs
            assert run_cli("cv", str(small_dataset), "--out-dir", str(out), "--seed", "9",
                           "--representation", "good", "--good-bins", "5", "--folds", "4",
                           "--jobs", jobs) == 0
            outs.append((out / "confusion.csv").read_text())
        assert outs[0] == outs[1]

    def test_ct_rejected_before_loading(self, small_dataset, tmp_path, capsys):
        # a CV confusion matrix has no UNKNOWN column
        for root in (small_dataset, tmp_path / "missing"):
            assert run_cli("cv", str(root), "--ct", "1e-6", "--folds", "2",
                           "--out-dir", str(tmp_path / "out")) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and "does not take ct" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ("gen",), ("describe", "view.pcd"), ("protocol", "data"), ("nbv", "w.pcd", "p.json"),
    ])
    def test_jobs_refused_outside_cv(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv, "--jobs", "2")
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err


class TestProtocol:
    def test_summary_fields(self, small_dataset, tmp_path):
        out = tmp_path / "proto"
        code = run_cli(
            "protocol", str(small_dataset), "--out-dir", str(out), "--seed", "4",
            "--representation", "good", "--good-bins", "5",
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert 0.0 <= summary["GCA"] <= 1.0
        assert summary["NLC"] >= 1
        log_lines = (out / "protocol_log.jsonl").read_text().splitlines()
        assert all(json.loads(line) for line in log_lines)

    def test_replayed_log_matches_summary(self, small_dataset, tmp_path):
        out = tmp_path / "proto2"
        run_cli("protocol", str(small_dataset), "--out-dir", str(out), "--seed", "6",
                "--representation", "good", "--good-bins", "5")
        summary = json.loads((out / "summary.json").read_text())
        events = [json.loads(l) for l in (out / "protocol_log.jsonl").read_text().splitlines()]
        asks = [e for e in events if e["action"] == "ask"]
        assert summary["QCI"] == len(asks)
        gca = sum(e["correct"] for e in asks) / len(asks)
        assert summary["GCA"] == pytest.approx(gca)

    def test_context_change_run(self, small_dataset, tmp_path):
        out = tmp_path / "ctx"
        code = run_cli(
            "protocol", str(small_dataset), "--context-change", "--rho", "1",
            "--out-dir", str(out), "--seed", "8",
            "--representation", "good", "--good-bins", "5",
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert "ALC1" in summary and "ALC2" in summary

    @pytest.mark.parametrize("flag,value", [("--rho", "1"), ("--alc", "2.5")])
    def test_context_flags_need_context_change(self, small_dataset, tmp_path, capsys,
                                               flag, value):
        with pytest.raises(SystemExit) as exc:
            run_cli("protocol", str(small_dataset), flag, value, "--out-dir", str(tmp_path))
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert flag in err and "--context-change" in err
        assert not (tmp_path / "summary.json").exists()

    @pytest.mark.parametrize("alc", ["nan", "inf"])
    def test_non_finite_alc_exits_one(self, small_dataset, tmp_path, capsys, alc):
        assert run_cli("protocol", str(small_dataset), "--context-change", "--alc", alc,
                       "--out-dir", str(tmp_path)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "ALC must be finite" in err
        assert not (tmp_path / "summary.json").exists()

    def test_each_view_described_once(self, small_dataset, tmp_path, monkeypatch):
        # The dictionary pool and the learner share one feature cache, so a
        # bow/bayes run computes each view's spin images exactly once.
        from openobj import pipelines

        calls = []
        original = pipelines.compute_feature_set

        def counted(cloud, *args, **kwargs):
            calls.append(cloud)
            return original(cloud, *args, **kwargs)

        monkeypatch.setattr(pipelines, "compute_feature_set", counted)
        out = tmp_path / "bow"
        assert run_cli(
            "protocol", str(small_dataset), "--out-dir", str(out), "--seed", "3",
            "--representation", "bow", "--learner", "bayes", "--voxel", "0.02",
            "--dictionary-size", "20",
        ) == 0
        views = sum(1 for _ in small_dataset.rglob("*.pcd"))
        assert len(calls) == len({id(c) for c in calls}) == views
        # the same log as with one cache for the dictionary and another for
        # the learner
        log = (out / "protocol_log.jsonl").read_bytes()
        assert hashlib.sha256(log).hexdigest() == (
            "f20de6467b0ad614885f261caadc464c728117eb08d9e166b8cc0e7d70ffa87b"
        )


class TestNbv:
    def make_world(self, tmp_path):
        objects = [
            ShapeSpec("box", (0.1, 0.08, 0.1), points=300, translation=(0.2, 0.1, 0.06), seed=1),
            ShapeSpec("sphere", (0.05,), points=300, translation=(-0.2, -0.1, 0.06), seed=2),
        ]
        scene, _ = generate_scene(objects, seed=3)
        path = tmp_path / "world.pcd"
        save_pcd(path, scene)
        return path

    def poses_file(self, tmp_path, n):
        down = np.array([[1.0, 0, 0], [0, -1.0, 0], [0, 0, -1.0]])
        payload = [
            {"rotation": down.ravel().tolist(), "translation": [0.3 * i, 0.0, 2.5]}
            for i in range(n)
        ]
        path = tmp_path / "poses.json"
        path.write_text(json.dumps(payload))
        return path

    def test_single_pose_ranked_first(self, tmp_path, capsys):
        world = self.make_world(tmp_path)
        poses = self.poses_file(tmp_path, 1)
        assert run_cli("nbv", str(world), str(poses)) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["selected_index"] == 0
        assert payload["ranked"][0]["index"] == 0

    def test_probabilities_sum_to_one(self, tmp_path, capsys):
        world = self.make_world(tmp_path)
        poses = self.poses_file(tmp_path, 4)
        run_cli("nbv", str(world), str(poses))
        payload = json.loads(capsys.readouterr().out)
        total = sum(r["probability"] for r in payload["ranked"])
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_current_out_of_range(self, tmp_path, capsys):
        world = self.make_world(tmp_path)
        poses = self.poses_file(tmp_path, 2)
        assert run_cli("nbv", str(world), str(poses), "--current", "2") == 1
        assert capsys.readouterr().err.startswith("error: --current 2")

    def test_seed_determinism(self, tmp_path, capsys):
        world = self.make_world(tmp_path)
        poses = self.poses_file(tmp_path, 4)
        run_cli("nbv", str(world), str(poses), "--seed", "11")
        first = capsys.readouterr().out
        run_cli("nbv", str(world), str(poses), "--seed", "11")
        second = capsys.readouterr().out
        assert first == second
