"""Metrics, cross-validation and the simulated-teacher protocols."""

import numpy as np
import pytest

from openobj.evaluation import (
    ConfusionMatrix,
    EvaluationError,
    LabeledDataset,
    kfold,
    metrics,
    pick_rho,
    replay_accuracies,
    run_protocol,
)


class PerfectLearner:
    """Answers with the view's embedded true label."""

    def __init__(self):
        self.taught = []

    def teach(self, category, view):
        self.taught.append((category, view))

    def classify(self, view):
        return view["label"]


class AlwaysWrongLearner:
    def __init__(self):
        self.taught = []

    def teach(self, category, view):
        self.taught.append((category, view))

    def classify(self, view):
        return "__nope__"


class NearestLearner:
    """1-NN over stored vectors; views are (vector, label) dicts."""

    def __init__(self):
        self.instances = []

    def teach(self, category, view):
        self.instances.append((category, np.asarray(view["x"])))

    def classify(self, view):
        x = np.asarray(view["x"])
        best = min(self.instances, key=lambda item: np.linalg.norm(item[1] - x))
        return best[0]


def labeled_views(categories, views_per_cat):
    return LabeledDataset(
        views={
            cat: [{"label": cat, "id": i} for i in range(views_per_cat)]
            for cat in categories
        }
    )


class TestMetrics:
    def test_perfect_diagonal(self):
        cm = ConfusionMatrix(labels=("a", "b"), counts=np.diag([5, 7]))
        result = metrics(cm)
        for key in ("accuracy", "precision_micro", "precision_macro", "recall_micro", "recall_macro"):
            assert result[key] == pytest.approx(1.0)

    def test_hand_computed_2x2(self):
        cm = ConfusionMatrix(labels=("a", "b"), counts=np.array([[5, 1], [2, 4]]))
        result = metrics(cm)
        assert result["accuracy"] == pytest.approx(0.75, abs=1e-12)
        assert result["precision_macro"] == pytest.approx((5 / 7 + 4 / 5) / 2, abs=1e-12)
        assert result["recall_macro"] == pytest.approx((5 / 6 + 4 / 6) / 2, abs=1e-12)
        assert result["precision_micro"] == pytest.approx(0.75, abs=1e-12)
        assert result["recall_micro"] == pytest.approx(0.75, abs=1e-12)

    def test_micro_equals_accuracy_single_label(self):
        rng = np.random.default_rng(0)
        counts = rng.integers(0, 20, size=(4, 4))
        cm = ConfusionMatrix(labels=tuple("abcd"), counts=counts)
        result = metrics(cm)
        assert result["precision_micro"] == pytest.approx(result["accuracy"], abs=1e-12)
        assert result["recall_micro"] == pytest.approx(result["accuracy"], abs=1e-12)

    def test_undefined_macro_flagged(self):
        # nothing ever predicted as 'b'
        cm = ConfusionMatrix(labels=("a", "b"), counts=np.array([[3, 0], [2, 0]]))
        result = metrics(cm)
        assert result["macro_undefined_classes"] is True
        assert result["precision_macro"] == pytest.approx((3 / 5 + 0) / 2)

    def test_empty_matrix_rejected(self):
        cm = ConfusionMatrix(labels=("a",), counts=np.zeros((1, 1), dtype=int))
        with pytest.raises(EvaluationError):
            metrics(cm)

    def test_csv_round_trip(self, tmp_path):
        cm = ConfusionMatrix(labels=("a", "b"), counts=np.array([[5, 1], [2, 4]]))
        path = tmp_path / "cm.csv"
        cm.to_csv(path)
        assert path.read_bytes() == b"true\\predicted,a,b\r\na,5,1\r\nb,2,4\r\n"


class TestKfold:
    def dataset(self, rng, cats=3, views=12):
        views_map = {}
        for c in range(cats):
            center = np.zeros(4)
            center[c % 4] = 3.0
            views_map[f"cat{c}"] = [
                {"x": center + rng.normal(scale=0.3, size=4), "label": f"cat{c}"}
                for _ in range(views)
            ]
        return LabeledDataset(views=views_map)

    @staticmethod
    def nn_pipeline(train, test_views):
        stored = [(lab, np.asarray(v["x"])) for lab, v in train]
        out = []
        for view in test_views:
            x = np.asarray(view["x"])
            out.append(min(stored, key=lambda item: np.linalg.norm(item[1] - x))[0])
        return out

    def test_leave_one_out_matches_oracle(self):
        rng = np.random.default_rng(1)
        data = self.dataset(rng, cats=2, views=6)
        cm = kfold(data, k=12, pipeline=self.nn_pipeline, seed=3)
        assert cm.total == 12
        # exhaustive leave-one-out oracle
        items = [(lab, v) for lab, views in data.views.items() for v in views]
        correct = 0
        for i, (lab, view) in enumerate(items):
            train = [items[j] for j in range(len(items)) if j != i]
            correct += self.nn_pipeline(train, [view])[0] == lab
        assert int(np.trace(cm.counts)) == correct

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(2)
        data = self.dataset(rng)
        a = kfold(data, k=4, pipeline=self.nn_pipeline, seed=5)
        b = kfold(data, k=4, pipeline=self.nn_pipeline, seed=5)
        np.testing.assert_array_equal(a.counts, b.counts)

    def test_jobs_do_not_change_result(self):
        rng = np.random.default_rng(3)
        data = self.dataset(rng)
        a = kfold(data, k=4, pipeline=self.nn_pipeline, seed=6, jobs=1)
        b = kfold(data, k=4, pipeline=self.nn_pipeline, seed=6, jobs=4)
        np.testing.assert_array_equal(a.counts, b.counts)

    def test_every_view_tested_once(self):
        rng = np.random.default_rng(4)
        data = self.dataset(rng, cats=3, views=10)
        cm = kfold(data, k=5, pipeline=self.nn_pipeline, seed=7)
        assert cm.total == 30

    def test_prediction_outside_the_categories_rejected(self):
        rng = np.random.default_rng(6)

        def unknown_pipeline(train, test_views):
            return ["UNKNOWN"] * len(test_views)

        with pytest.raises(EvaluationError, match="'UNKNOWN' is not a dataset category"):
            kfold(self.dataset(rng), k=2, pipeline=unknown_pipeline)

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_wrong_prediction_count_rejected(self, extra):
        rng = np.random.default_rng(7)

        def miscounting_pipeline(train, test_views):
            labels = self.nn_pipeline(train, test_views)
            return labels[:-1] if extra < 0 else labels + labels[:1]

        with pytest.raises(EvaluationError, match=r"fold 0: .* labels for 12 views"):
            kfold(self.dataset(rng), k=3, pipeline=miscounting_pipeline)

    def test_k_below_two_rejected(self):
        rng = np.random.default_rng(5)
        with pytest.raises(EvaluationError):
            kfold(self.dataset(rng), k=1, pipeline=self.nn_pipeline)


class TestProtocol:
    def test_perfect_learner_lack_of_data(self):
        data = labeled_views(["a", "b", "c", "d", "e"], 10)
        log, summary = run_protocol(data, PerfectLearner(), seed=1)
        assert summary.termination == "lack_of_data"
        assert summary.nlc == 5
        assert summary.gca == 1.0

    def test_always_wrong_breakpoint(self):
        data = labeled_views(["a", "b"], 60)
        log, summary = run_protocol(data, AlwaysWrongLearner(), seed=2)
        assert summary.termination == "breakpoint"
        assert summary.qci == 100
        assert summary.gca == 0.0

    def test_corrections_follow_wrong_answers(self):
        data = labeled_views(["a", "b"], 60)
        log, _ = run_protocol(data, AlwaysWrongLearner(), seed=3)
        asks = [e for e in log.events if e.action == "ask"]
        corrections = [e for e in log.events if e.action == "correct"]
        assert len(corrections) == len(asks)
        for ask, corr in zip(asks, corrections):
            assert (ask.iteration, ask.category, ask.view_id) == (
                corr.iteration,
                corr.category,
                corr.view_id,
            )

    def test_replay_reproduces_sliding_accuracy(self):
        data = labeled_views(["a", "b", "c"], 30)

        class Flaky:
            def __init__(self):
                self.count = 0

            def teach(self, category, view):
                pass

            def classify(self, view):
                self.count += 1
                return view["label"] if self.count % 3 else "__wrong__"

        log, _ = run_protocol(data, Flaky(), seed=4)
        logged = [e.accuracy for e in log.events if e.action == "ask"]
        assert replay_accuracies(log) == logged

    def test_ask_never_precedes_introduction(self):
        data = labeled_views(["a", "b", "c", "d"], 12)
        log, _ = run_protocol(data, PerfectLearner(), seed=5)
        introduced = set()
        for event in log.events:
            if event.action == "teach":
                introduced.add(event.category)
            elif event.action == "ask":
                assert event.category in introduced

    def test_views_consumed_at_most_once(self):
        data = labeled_views(["a", "b", "c"], 20)
        log, _ = run_protocol(data, AlwaysWrongLearner(), seed=6)
        seen = set()
        for event in log.events:
            if event.action in ("teach", "ask"):
                key = (event.category, event.view_id)
                if event.action == "ask":
                    assert key not in seen
                seen.add(key)

    def test_deterministic_per_seed(self):
        data = labeled_views(["a", "b", "c", "d"], 15)
        log1, s1 = run_protocol(data, PerfectLearner(), seed=7)
        log2, s2 = run_protocol(data, PerfectLearner(), seed=7)
        assert [e.to_json_dict() for e in log1.events] == [
            e.to_json_dict() for e in log2.events
        ]
        assert s1.to_json_dict() == s2.to_json_dict()

    def test_gca_matches_log(self):
        data = labeled_views(["a", "b", "c"], 25)

        class Flaky:
            def __init__(self):
                self.count = 0

            def teach(self, category, view):
                pass

            def classify(self, view):
                self.count += 1
                return view["label"] if self.count % 4 else "__wrong__"

        log, summary = run_protocol(data, Flaky(), seed=8)
        asks = [e for e in log.events if e.action == "ask"]
        assert summary.gca == pytest.approx(sum(e.correct for e in asks) / len(asks))
        assert summary.qci == len(asks)

    def test_aic_matches_learner_store(self):
        data = labeled_views(["a", "b", "c"], 20)
        learner = PerfectLearner()
        log, summary = run_protocol(data, learner, seed=9)
        assert summary.aic == pytest.approx(len(learner.taught) / summary.nlc)


class TestContextProtocol:
    def context_dataset(self, per_context=4, views=20):
        views_map = {}
        contexts = {}
        for i in range(per_context):
            for ctx in ("A", "B"):
                name = f"{ctx.lower()}{i}"
                views_map[name] = [{"label": name, "id": j} for j in range(views)]
                contexts[name] = ctx
        return LabeledDataset(views=views_map, contexts=contexts)

    def test_context_split_counts(self):
        data = self.context_dataset()
        log, summary = run_protocol(data, PerfectLearner(), rho=3, seed=1)
        # switch happens when introduced count exceeds rho: A supplies rho + 1
        assert summary.alc1 == 4
        assert summary.alc2 == 4
        assert summary.termination == "lack_of_data"
        assert summary.adaptability is None

    def test_asks_respect_context(self):
        data = self.context_dataset()
        log, _ = run_protocol(data, PerfectLearner(), rho=2, seed=2)
        switch_iteration = None
        introduced_b = [it for it, cat in log.introductions if data.contexts[cat] == "B"]
        if introduced_b:
            switch_iteration = min(introduced_b)
        for event in log.events:
            if event.action == "ask" and switch_iteration is not None:
                ctx = data.contexts[event.category]
                if event.iteration <= switch_iteration:
                    assert ctx == "A"
                else:
                    assert ctx == "B"

    def test_adaptability_on_breakpoint(self):
        # perfect in context A, always wrong in B: hits the breakpoint in B
        # (the first B category absorbs 3 teach views plus 100 asks)
        data = self.context_dataset(per_context=4, views=120)

        class ContextBlind:
            def teach(self, category, view):
                pass

            def classify(self, view):
                return view["label"] if view["label"].startswith("a") else "__wrong__"

        log, summary = run_protocol(data, ContextBlind(), rho=3, seed=3)
        assert summary.termination == "breakpoint"
        assert summary.alc1 == 4
        assert summary.adaptability == pytest.approx(summary.alc2 / summary.alc1)

    def test_rho_exhausts_context_a(self):
        data = self.context_dataset(per_context=3, views=20)
        log, summary = run_protocol(data, PerfectLearner(), rho=3, seed=4)
        # rho >= |A| means A runs dry during introductions
        assert summary.termination == "lack_of_data"
        assert summary.alc1 == 3


    def test_rho_checks(self):
        data = self.context_dataset(per_context=2, views=10)
        with pytest.raises(EvaluationError, match="rho must be at least 1"):
            run_protocol(data, PerfectLearner(), rho=0)
        no_map = LabeledDataset(views=data.views)
        with pytest.raises(EvaluationError, match="needs a context map"):
            run_protocol(no_map, PerfectLearner(), rho=1)
        only_a = LabeledDataset(views=data.views, contexts=dict.fromkeys(data.views, "A"))
        with pytest.raises(EvaluationError, match="both contexts"):
            run_protocol(only_a, PerfectLearner(), rho=1)

    def test_without_rho_contexts_are_ignored(self):
        data = self.context_dataset(per_context=2, views=10)
        plain = LabeledDataset(views=data.views)
        got = run_protocol(data, PerfectLearner(), seed=5)
        want = run_protocol(plain, PerfectLearner(), seed=5)
        assert [e.to_json_dict() for e in got[0].events] == [
            e.to_json_dict() for e in want[0].events
        ]
        assert got[1].to_json_dict() == want[1].to_json_dict()
        assert got[1].alc1 is None


class TestPickRho:
    def test_interval_20(self):
        values = {pick_rho(20, seed=s) for s in range(200)}
        assert values == set(range(13, 18))

    def test_interval_40(self):
        values = {pick_rho(40, seed=s) for s in range(300)}
        assert min(values) >= 26 and max(values) <= 34

    def test_empirical_uniformity(self):
        rng = np.random.default_rng(11)
        draws = [pick_rho(20, seed=int(rng.integers(0, 2**31))) for _ in range(10000)]
        freqs = np.bincount(draws, minlength=18)[13:18] / 10000
        np.testing.assert_allclose(freqs, 0.2, atol=0.03)

    @pytest.mark.parametrize("alc", [float("nan"), float("inf"), float("-inf"), 1e300])
    def test_non_finite_alc_rejected(self, alc):
        with pytest.raises(EvaluationError, match="finite"):
            pick_rho(alc, seed=0)

    def test_empty_interval_rejected(self):
        # 0.65 * 2 = 1.3 -> ceil 2; 0.85 * 2 = 1.7 -> floor 1: empty
        with pytest.raises(EvaluationError):
            pick_rho(2, seed=0)
