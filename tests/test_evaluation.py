"""Metrics, cross-validation and the simulated-teacher protocols."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


class TestLabeledDataset:
    @pytest.mark.parametrize("views, contexts, message", [
        ([1, 2], None, "views must map each category"),
        ({}, None, "views must map each category"),
        ({"a": 5}, None, "category 'a' needs a non-empty list of views"),
        ({"a": "xyz"}, None, "category 'a' needs a non-empty list of views"),
        ({"a": []}, None, "category 'a' needs a non-empty list of views"),
        ({1: [0, 1]}, None, "category labels must be strings, got 1"),
        ({"a": [0]}, ["a"], "contexts must map each category"),
        ({"a": [0], "b": [1]}, {"a": "A"}, "context map must cover exactly the categories"),
        ({"a": [0], "b": [1]}, {"a": "A", "b": "C"}, "contexts must be 'A' or 'B'"),
    ])
    def test_refused_when_built(self, views, contexts, message):
        with pytest.raises(EvaluationError, match=message):
            LabeledDataset(views=views, contexts=contexts)

    def test_lists_and_tuples_of_views_accepted(self):
        data = LabeledDataset(views={"a": (0, 1), "b": [2]}, contexts={"a": "A", "b": "B"})
        assert data.categories == ["a", "b"]


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

    @pytest.mark.parametrize("jobs", [2, 0])
    def test_jobs_other_than_one_rejected(self, jobs):
        data = self.dataset(np.random.default_rng(3))
        kfold(data, k=4, pipeline=self.nn_pipeline, seed=6, jobs=1)
        with pytest.raises(EvaluationError, match="jobs must be 1"):
            kfold(data, k=4, pipeline=self.nn_pipeline, seed=6, jobs=jobs)

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

    @settings(max_examples=150, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 30), min_size=1, max_size=5),
        k=st.integers(2, 12),
        seed=st.integers(0, 2**16),
    )
    def test_folds_partition_the_views(self, sizes, k, seed):
        data = LabeledDataset(
            views={f"c{i}": [(f"c{i}", j) for j in range(size)] for i, size in enumerate(sizes)}
        )
        everything = {view for views in data.views.values() for view in views}
        tested = []

        def recording_pipeline(train, test_views):
            train_views = [view for _, view in train]
            assert all(label == view[0] for label, view in train)
            assert len(set(train_views)) == len(train_views)
            assert set(train_views).isdisjoint(test_views)
            assert set(train_views) | set(test_views) == everything
            tested.append(list(test_views))
            return [view[0] for view in test_views]

        cm = kfold(data, k=k, pipeline=recording_pipeline, seed=seed)
        assert len(tested) == k
        assert sorted(view for fold in tested for view in fold) == sorted(everything)
        np.testing.assert_array_equal(cm.counts, np.diag(sizes))
        for label in data.categories:
            per_fold = [sum(view[0] == label for view in fold) for fold in tested]
            assert max(per_fold) - min(per_fold) <= 1

    def test_k_below_two_rejected(self):
        rng = np.random.default_rng(5)
        with pytest.raises(EvaluationError):
            kfold(self.dataset(rng), k=1, pipeline=self.nn_pipeline)

    @pytest.mark.parametrize("seed", [-1, 1.5, "0", None, True])
    def test_bad_seed_refused(self, seed):
        with pytest.raises(EvaluationError, match="seed must be an integer of at least 0"):
            kfold(self.dataset(np.random.default_rng(5)), k=2, pipeline=self.nn_pipeline,
                  seed=seed)


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

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_short_category_is_never_taught(self, seed):
        # b holds fewer than views_per_teach views: it is never introduced,
        # so nothing of it is taught and AIC counts a's views only
        data = LabeledDataset(views={
            "a": [{"label": "a", "id": i} for i in range(6)],
            "b": [{"label": "b", "id": i} for i in range(2)],
        })
        learner = PerfectLearner()
        log, summary = run_protocol(data, learner, views_per_teach=3, seed=seed)
        assert [category for category, _ in learner.taught] == ["a"] * 3
        assert all(e.category == "a" for e in log.events)
        assert log.introductions == [(0, "a")]
        assert (summary.nlc, summary.aic, summary.qci) == (1, 3.0, 0)
        assert summary.termination == "lack_of_data"

    def test_short_first_category_ends_a_context_run_at_once(self):
        data = LabeledDataset(views={"a": [{"label": "a", "id": 0}],
                                     "b": [{"label": "b", "id": 0}]},
                              contexts={"a": "A", "b": "B"})
        learner = PerfectLearner()
        log, summary = run_protocol(data, learner, rho=1)
        assert (learner.taught, log.events) == ([], [])
        assert (summary.nlc, summary.aic, summary.alc1, summary.alc2) == (0, 0.0, 0, 0)

    @pytest.mark.parametrize("tau", ["0.5", None, True, float("nan"), 0.0, 1.0])
    def test_bad_tau_refused(self, tau):
        learner = PerfectLearner()
        with pytest.raises(EvaluationError, match="tau must be a number in"):
            run_protocol(labeled_views(["a", "b"], 5), learner, tau=tau)
        assert learner.taught == []

    @pytest.mark.parametrize("seed", [-1, 1.5, "0", None, True])
    def test_bad_seed_refused(self, seed):
        learner = PerfectLearner()
        with pytest.raises(EvaluationError, match="seed must be an integer of at least 0"):
            run_protocol(labeled_views(["a", "b"], 5), learner, seed=seed)
        assert learner.taught == []

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
        for rho in (0, 1.5):
            with pytest.raises(EvaluationError, match="rho must be an integer of at least 1"):
                run_protocol(data, PerfectLearner(), rho=rho)
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


class ScriptedLearner:
    """Answers right or wrong by a fixed script, cycled over its asks, and
    records every call."""

    def __init__(self, script):
        self.script = script
        self.calls = []
        self.asked = 0

    def teach(self, category, view):
        self.calls.append(("teach", category, view["id"]))

    def classify(self, view):
        right = self.script[self.asked % len(self.script)]
        self.asked += 1
        self.calls.append(("ask", view["label"], view["id"]))
        return view["label"] if right else "__wrong__"


@st.composite
def teacher_runs(draw):
    """A dataset whose categories may hold fewer than views_per_teach views,
    a learner script and the protocol's arguments, with or without rho."""
    labels = [f"c{i}" for i in range(draw(st.integers(1, 5)))]
    sizes = draw(st.lists(st.integers(1, 20), min_size=len(labels), max_size=len(labels)))
    views = {c: [{"label": c, "id": j} for j in range(size)] for c, size in zip(labels, sizes)}
    contexts = rho = None
    if len(labels) >= 2 and draw(st.booleans()):
        rest = draw(st.lists(st.sampled_from("AB"), min_size=len(labels) - 2,
                             max_size=len(labels) - 2))
        contexts = dict(zip(labels, ["A", "B", *rest]))
        rho = draw(st.integers(1, len(labels)))
    kwargs = {
        # fractions that a window accuracy can equal test the strict rule
        "tau": draw(st.floats(0.05, 0.95) | st.sampled_from([1 / 3, 0.5, 2 / 3, 0.75])),
        "window_mult": draw(st.integers(1, 4)),
        "breakpoint_limit": draw(st.integers(1, 15)),
        "views_per_teach": draw(st.integers(1, 4)),
        "seed": draw(st.integers(0, 2**16)),
        "rho": rho,
    }
    script = draw(st.lists(st.booleans(), min_size=1, max_size=12))
    learner = ScriptedLearner(script)
    log, summary = run_protocol(LabeledDataset(views, contexts), learner, **kwargs)
    return views, contexts, kwargs, learner, log, summary


def introduction_segments(log):
    """The asks after each introduction, up to the next one."""
    segments, seen = [], set()
    for event in log.events:
        if event.action == "teach" and event.category not in seen:
            seen.add(event.category)
            segments.append([])
        elif event.action == "ask":
            segments[-1].append(event)
    return segments


def crosses(segment, n, tau):
    """Whether the segment's last ask cleared the introduction rule."""
    return len(segment) >= n and segment[-1].accuracy > tau


TEACHER = settings(max_examples=200, deadline=None)


class TestTeacherProperties:
    """The simulated teacher's rules, on scripted learners and datasets
    where some categories hold fewer than views_per_teach views."""

    @TEACHER
    @given(teacher_runs())
    def test_replay_equals_logged_accuracies(self, run):
        _, _, kwargs, _, log, _ = run
        assert replay_accuracies(log, kwargs["window_mult"]) == [e.accuracy for e in log.asks()]

    @TEACHER
    @given(teacher_runs())
    def test_each_view_used_once(self, run):
        _, _, _, learner, log, _ = run
        used = [(e.category, e.view_id) for e in log.events if e.action != "correct"]
        assert len(used) == len(set(used))
        # a correction re-teaches the view of the wrong ask just before it
        for before, event in zip([None, *log.events], log.events):
            if event.action == "correct":
                assert before.action == "ask" and not before.correct
                assert (before.iteration, before.category, before.view_id) == (
                    event.iteration, event.category, event.view_id)
        wrong = sum(not e.correct for e in log.asks())
        assert wrong == sum(e.action == "correct" for e in log.events)
        kinds = {"teach": "teach", "correct": "teach", "ask": "ask"}
        assert learner.calls == [(kinds[e.action], e.category, e.view_id) for e in log.events]

    @TEACHER
    @given(teacher_runs())
    def test_asks_follow_an_introduction_in_the_current_context(self, run):
        _, contexts, kwargs, _, log, _ = run
        introduced = []
        for event in log.events:
            if event.action == "teach" and event.category not in introduced:
                introduced.append(event.category)
            elif event.action == "ask":
                assert event.category in introduced
                if contexts is not None:
                    assert contexts[event.category] == contexts[introduced[-1]]
        if contexts is not None:
            rho = kwargs["rho"]
            assert [contexts[c] for c in introduced] == [
                "B" if i > rho else "A" for i in range(len(introduced))]

    @TEACHER
    @given(teacher_runs())
    def test_introduced_exactly_when_window_accuracy_clears_tau(self, run):
        _, _, kwargs, _, log, _ = run
        tau = kwargs["tau"]
        segments = introduction_segments(log)
        if segments:
            assert segments[0] == []  # the first two categories enter before any ask
        for n, segment in enumerate(segments, start=1):
            for k, ask in enumerate(segment, start=1):
                assert ask.known == n
                if k < len(segment):
                    assert not crosses(segment[:k], n, tau)
            if 1 < n < len(segments):
                assert crosses(segment, n, tau)
        if segments and crosses(segments[-1], len(segments), tau):
            assert log.termination == "lack_of_data"

    @TEACHER
    @given(teacher_runs())
    def test_run_ends_at_breakpoint_or_when_data_runs_out(self, run):
        views, contexts, kwargs, _, log, _ = run
        limit = kwargs["breakpoint_limit"]
        segments = introduction_segments(log)
        assert all(len(segment) <= limit for segment in segments)
        n = len(segments)
        stalled = n >= 2 and len(segments[-1]) == limit and not crosses(
            segments[-1], n, kwargs["tau"])
        assert (log.termination == "breakpoint") == stalled
        if log.termination == "breakpoint":
            return
        introduced = [c for _, c in log.introductions]
        if n < 2 or crosses(segments[-1], n, kwargs["tau"]):
            # no category of the next context is left with views_per_teach views
            rho = kwargs["rho"]
            context = "B" if rho is not None and n > rho else "A"
            waiting = [c for c in views if c not in introduced
                       and (contexts is None or contexts[c] == context)]
            assert not waiting or any(len(views[c]) < kwargs["views_per_teach"] for c in waiting)
        else:
            # the next category in the ask cycle had no view left
            context = contexts[introduced[-1]] if contexts is not None else None
            cycle = [c for c in introduced if contexts is None or contexts[c] == context]
            due = cycle[len(segments[-1]) % len(cycle)]
            used = [e for e in log.events if e.category == due and e.action != "correct"]
            assert len(used) == len(views[due])

    @TEACHER
    @given(teacher_runs())
    def test_summary_recomputed_from_the_events(self, run):
        _, contexts, kwargs, _, log, summary = run
        asks = [e for e in log.events if e.action == "ask"]
        introduced = list(dict.fromkeys(e.category for e in log.events if e.action == "teach"))
        stored = sum(e.action != "ask" for e in log.events)
        want = {
            "QCI": len(asks),
            "NLC": len(introduced),
            "AIC": stored / len(introduced) if introduced else 0.0,
            "GCA": sum(e.correct for e in asks) / len(asks) if asks else 0.0,
            "APA": float(np.mean([e.accuracy for e in asks])) if asks else 0.0,
            "termination": log.termination,
        }
        if kwargs["rho"] is not None:
            alc1 = sum(contexts[c] == "A" for c in introduced)
            alc2 = len(introduced) - alc1
            adaptable = log.termination == "breakpoint" and alc1 > 0
            want.update({"ALC1": alc1, "ALC2": alc2,
                         "adaptability": alc2 / alc1 if adaptable else None})
        assert summary.to_json_dict() == want
        first_teach = {}
        for e in log.events:
            if e.action == "teach":
                first_teach.setdefault(e.category, e.iteration)
        assert log.introductions == [(first_teach[c], c) for c in introduced]

    @TEACHER
    @given(teacher_runs())
    def test_every_taught_category_is_introduced(self, run):
        _, _, kwargs, learner, log, summary = run
        per_teach = kwargs["views_per_teach"]
        introduced = [c for _, c in log.introductions]
        for known, category in enumerate(introduced, start=1):
            teaches = [e for e in log.events if e.action == "teach" and e.category == category]
            assert [e.view_id for e in teaches] == list(range(per_teach))
            assert all(e.known == known for e in teaches)
        stored = [category for action, category, _ in learner.calls if action == "teach"]
        assert set(stored) == set(introduced)
        assert summary.nlc == len(introduced)
        assert summary.aic == (len(stored) / summary.nlc if summary.nlc else 0.0)


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
