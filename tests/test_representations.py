"""Dictionary building, BoW encoding and the incremental topic models."""

import json
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from openobj import representations
from openobj.pipelines import collect_feature_pool
from openobj.representations import (
    Dictionary,
    RepresentationError,
    TopicHistogram,
    TopicModel,
    bow_encode,
    build_dictionary,
    lda_infer,
    lda_update,
    phi,
)


def blob_pool(rng, centers, per_blob=50, scale=0.05):
    parts = [rng.normal(scale=scale, size=(per_blob, len(centers[0]))) + c for c in centers]
    return np.vstack(parts)


class TestBuildDictionary:
    def test_exact_pool_recovered(self):
        rng = np.random.default_rng(0)
        pool = rng.uniform(0, 1, size=(4, 6))
        d = build_dictionary(pool, v=4, seed=1)
        got = sorted(map(tuple, d.words))
        want = sorted(map(tuple, pool))
        np.testing.assert_allclose(got, want)

    def test_two_blobs(self):
        rng = np.random.default_rng(1)
        pool = blob_pool(rng, [np.zeros(2), np.array([3.0, 3.0])])
        d = build_dictionary(pool, v=2, seed=0)
        centers = sorted(map(tuple, d.words))
        np.testing.assert_allclose(centers[0], [0, 0], atol=0.1)
        np.testing.assert_allclose(centers[1], [3, 3], atol=0.1)

    def test_objective_non_increasing(self):
        rng = np.random.default_rng(2)
        pool = rng.uniform(0, 1, size=(200, 5))

        def objective(centers):
            d = np.linalg.norm(pool[:, None] - centers[None], axis=2)
            return (d.min(axis=1) ** 2).sum()

        # run Lloyd manually mirroring the implementation and track the objective
        from openobj.representations import _assign, _kmeans_pp_init

        centers = _kmeans_pp_init(pool, 8, np.random.default_rng(3), None)
        prev = objective(centers)
        assignment = _assign(pool, centers)
        for _ in range(10):
            for j in range(8):
                members = pool[assignment == j]
                if len(members):
                    centers[j] = members.mean(axis=0)
            val = objective(centers)
            assert val <= prev + 1e-9
            prev = val
            assignment = _assign(pool, centers)

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(4)
        pool = rng.uniform(0, 1, size=(100, 4))
        a = build_dictionary(pool, v=7, seed=9)
        b = build_dictionary(pool, v=7, seed=9)
        np.testing.assert_array_equal(a.words, b.words)

    def test_pool_too_small(self):
        with pytest.raises(RepresentationError):
            build_dictionary(np.zeros((3, 2)), v=5)

    def test_pool_permutation_stable_for_separated_blobs(self):
        # well-separated clusters: permuting the pool may relabel centroids
        # but not change their multiset
        rng = np.random.default_rng(6)
        pool = blob_pool(rng, [np.zeros(3), np.full(3, 5.0), np.full(3, -5.0)], scale=0.02)
        base = build_dictionary(pool, v=3, seed=2)
        perm = rng.permutation(len(pool))
        shuffled = build_dictionary(pool[perm], v=3, seed=2)
        got = sorted(map(tuple, np.round(shuffled.words, 6)))
        want = sorted(map(tuple, np.round(base.words, 6)))
        assert got == want


class TestDictionaryInput:
    @pytest.mark.parametrize("v", [0, 1, 2.5, "3", None])
    def test_size_must_be_an_integer_of_at_least_two(self, v):
        with pytest.raises(RepresentationError, match="dictionary size"):
            build_dictionary(np.zeros((10, 3)), v=v)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_pool_must_be_finite(self, bad):
        pool = np.random.default_rng(0).uniform(size=(20, 3))
        pool[7, 1] = bad
        with pytest.raises(RepresentationError, match="finite"):
            build_dictionary(pool, v=3)

    def test_pool_needs_a_column(self):
        with pytest.raises(RepresentationError, match="at least one column"):
            build_dictionary(np.zeros((10, 0)), v=3)

    def test_ragged_pool_rejected(self):
        with pytest.raises(RepresentationError, match="2D array of numbers"):
            build_dictionary([[1.0, 2.0], [3.0]], v=2)

    @pytest.mark.parametrize("matrices", [[], [np.zeros((4, 3)), np.zeros((4, 5))]],
                             ids=["empty", "unequal-widths"])
    def test_collect_feature_pool_rejects(self, matrices):
        with pytest.raises(RepresentationError, match="feature matrices"):
            collect_feature_pool(matrices, cap=100, seed=0)

    @pytest.mark.parametrize("cap", [0, 2.5, "3", None])
    def test_collect_feature_pool_cap_must_be_a_count(self, cap):
        with pytest.raises(RepresentationError, match="cap must be an integer of at least 1"):
            collect_feature_pool([np.zeros((5, 2))], cap=cap, seed=0)

    def test_collect_feature_pool_draws_rows_of_the_stack(self):
        # past the cap the pool is the stack's rows at the drawn indices, in
        # the order drawn, with the stack's dtype
        rng = np.random.default_rng(17)
        matrices = [rng.normal(size=(int(k), 3)) for k in rng.integers(0, 9, size=40)]
        matrices[3] = rng.integers(0, 5, size=(6, 3))
        stack = np.vstack(matrices)
        for cap in (1, 50, len(stack) - 1, len(stack), len(stack) + 5):
            pool = collect_feature_pool(matrices, cap=cap, seed=8)
            want = stack
            if cap < len(stack):
                want = stack[np.random.default_rng(8).choice(len(stack), size=cap, replace=False)]
            assert pool.dtype == want.dtype
            assert_same_bits(pool, want)

    def test_numpy_integer_size_accepted(self):
        pool = np.random.default_rng(1).uniform(size=(30, 2))
        assert build_dictionary(pool, v=np.int64(4)).size == 4


def reference_dictionary(pool, v, seed):
    """build_dictionary as one boolean scan per center in every Lloyd step,
    with k-means++ seeding and distances built from fresh temporaries."""
    pool = np.asarray(pool, dtype=np.float64)
    rng = np.random.default_rng(seed)
    centers = np.empty((v, pool.shape[1]))
    centers[0] = pool[rng.integers(len(pool))]
    dist_sq = np.sum((pool - centers[0]) ** 2, axis=1)
    for i in range(1, v):
        total = dist_sq.sum()
        if total <= 0:
            centers[i] = pool[rng.integers(len(pool))]
            continue
        centers[i] = pool[rng.choice(len(pool), p=dist_sq / total)]
        dist_sq = np.minimum(dist_sq, np.sum((pool - centers[i]) ** 2, axis=1))

    def assign(centers):
        d = (
            np.sum(pool**2, axis=1)[:, None]
            - 2 * pool @ centers.T
            + np.sum(centers**2, axis=1)[None, :]
        )
        return np.argmin(d, axis=1)

    assignment = assign(centers)
    for _ in range(representations._MAX_LLOYD_ITERS):
        for j in range(v):
            members = pool[assignment == j]
            if len(members):
                centers[j] = members.mean(axis=0)
            else:
                far = np.argmax(np.sum((pool - centers[assignment]) ** 2, axis=1))
                centers[j] = pool[far]
        new_assignment = assign(centers)
        if np.array_equal(new_assignment, assignment):
            break
        assignment = new_assignment
    return centers


def assert_same_bits(got, want):
    """Equal values and equal sign bits, so -0.0 and +0.0 differ."""
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


@st.composite
def kmeans_pools(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 300))
    d = draw(st.integers(1, 12))
    if draw(st.booleans()):
        pool = rng.integers(0, draw(st.integers(1, 30)), size=(n, d)).astype(np.float64)
    else:
        pool = rng.normal(size=(n, d)) * draw(st.floats(1e-3, 1e3)) + draw(st.floats(-50, 50))
    copies = draw(st.integers(0, n - 1))  # rows overwritten by copies of other rows
    pool[rng.integers(0, n, size=copies)] = pool[rng.integers(0, n, size=copies)]
    if draw(st.booleans()):
        pool[rng.random(pool.shape) < 0.2] = -0.0
    return pool, draw(st.integers(2, n))


@st.composite
def tied_integer_pools(draw):
    """Integer pools of a few distinct rows, each repeated, so exact ties
    come at every step. Entries are small, or one row's squared norm lies
    just below, at or just above 2**24; the pool is screened in float32
    below 2**24 only."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(1, 200))
    distinct = rng.integers(-6, 7, size=(draw(st.integers(2, 12)), d)).astype(np.float64)
    edge = draw(st.sampled_from(["small", "below", "at", "above"]))
    # the other entries add at most 199 * 36 < 2**24 - 4095**2 to the norm
    if edge == "below":
        distinct[0, 0] = 4095.0
    elif edge != "small":
        distinct[0, 0] = 4096.0
        distinct[0, 1:] = 0.0
        if edge == "above":
            distinct[0, min(1, d - 1)] += 1.0  # 4096**2 + 1, or 4097**2 when d = 1
    rows = rng.integers(0, len(distinct), size=draw(st.integers(20, 150)))
    rows[0] = 0
    pool = distinct[rows]
    if draw(st.booleans()):
        pool[pool == 0] = -0.0
    return pool, draw(st.integers(2, 14)), edge in ("small", "below")


class TestLloydKernel:
    """build_dictionary's one-product Lloyd step against the per-center
    loop, bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(kmeans_pools(), st.integers(0, 2**32 - 1))
    def test_matches_per_center_reference(self, run, seed):
        pool, v = run
        screened = mock.Mock(wraps=representations._screened_assign)
        for s in (seed, seed + 1):
            with mock.patch.object(representations, "_screened_assign", screened):
                words = build_dictionary(pool, v, s).words
            assert_same_bits(words, reference_dictionary(pool, v, s))
        # the drawn integer pools are exact in float32; a float pool never is
        assert screened.called == np.array_equal(pool, np.trunc(pool))

    @settings(max_examples=60, deadline=None)
    @given(tied_integer_pools(), st.integers(0, 2**32 - 1))
    def test_float32_screen_matches_reference(self, run, seed):
        pool, v, screens = run
        screened = mock.Mock(wraps=representations._screened_assign)
        with mock.patch.object(representations, "_screened_assign", screened):
            words = build_dictionary(pool, v, seed).words
        assert screened.called == screens
        assert_same_bits(words, reference_dictionary(pool, v, seed))

    @pytest.mark.parametrize("column, words, full_steps", [
        # integer words tie the row 6 between 2 and 10 (step 1), then 5
        # between 2 and 8 (step 3): exact float64 scores settle both
        ([8, 10, 0, 6, 0, 3, 2, 5], [2, 8], 0),
        # step 2 ties the row 7 between the means 5.5 and 8.5: the full
        # float64 step settles it
        ([9, 5, 4, 8, 7, 6], [5.5, 8.5], 1),
    ], ids=["integer-words", "mean-words"])
    def test_tie_goes_to_the_lower_word(self, column, words, full_steps):
        pool = np.repeat(np.array(column, dtype=np.float64)[:, None], 2, axis=1)
        full = mock.Mock(wraps=representations._assign)
        with mock.patch.object(representations, "_assign", full):
            got = build_dictionary(pool, 2, 0).words
        assert full.call_count == full_steps
        # the tied row joined word 0; word 1 would have moved both words
        assert got.tolist() == [[w, w] for w in words]
        assert_same_bits(got, reference_dictionary(pool, 2, 0))

    def test_empty_cluster_mid_run_takes_the_loop(self):
        # found by search: Lloyd step 2 of 5 leaves a cluster empty
        pool = np.random.default_rng(14831).uniform(0, 1, size=(30, 2))
        calls = []
        loop = representations._update_each_center

        def spy(pool, assignment, centers):
            calls.append(np.bincount(assignment, minlength=len(centers)).min() == 0)
            loop(pool, assignment, centers)

        steps = mock.Mock(wraps=representations._assign)
        with mock.patch.object(representations, "_update_each_center", spy), \
                mock.patch.object(representations, "_assign", steps):
            words = build_dictionary(pool, v=6, seed=0).words
        assert calls == [True]
        assert steps.call_count - 1 > len(calls)  # the other steps took the product
        assert_same_bits(words, reference_dictionary(pool, 6, 0))

    def test_screen_leaves_near_ties_to_float64(self):
        # each of the first 40 rows is nearly as far from two words: the gap,
        # 4e-5 to 1.3e-4, lies below one float32 u R^2 (about 1.5e-3) and far
        # above the float64 margin (below 2e-9), so float64 alone orders them
        rng = np.random.default_rng(21)
        pool = rng.integers(0, 20, size=(400, 45)).astype(np.float64)
        offsets = rng.normal(scale=0.3, size=(40, 45))
        stretch = 1 + rng.choice([-1e-5, 1e-5], size=(40, 1))
        centers = np.vstack([pool[:40] + offsets, pool[:40] - offsets * stretch])
        norms = np.sum(pool**2, axis=1)
        screen = np.ascontiguousarray(pool.T, np.float32), norms.astype(np.float32), np.sqrt(norms)
        want = representations._assign(pool, centers)
        with mock.patch.object(representations, "_assign") as full:
            got = representations._screened_assign(pool, centers, screen)
        assert not full.called
        assert np.array_equal(got, want)

    def test_one_column_pool(self):
        # numpy sums a lone contiguous column pairwise, past 8 members
        pool = np.random.default_rng(15).normal(scale=3.7, size=(200, 1))
        for seed in range(3):
            assert_same_bits(build_dictionary(pool, 4, seed).words,
                             reference_dictionary(pool, 4, seed))

    def test_negative_zero_column(self):
        # both sums start from +0.0, so a column of -0.0 averages to +0.0
        pool = np.random.default_rng(16).normal(size=(120, 3))
        pool[:, 1] = -0.0
        words = build_dictionary(pool, 5, 0).words
        assert not np.signbit(words[:, 1]).any()
        assert_same_bits(words, reference_dictionary(pool, 5, 0))

    def test_desk_sized_integer_pool(self):
        # spin-image-like counts: Poisson draws around 120 random profiles
        rng = np.random.default_rng(90)
        profiles = rng.gamma(0.5, 4.0, size=(120, 45))
        pool = rng.poisson(profiles[rng.integers(0, 120, size=8000)]).astype(np.float64)
        full = mock.Mock(wraps=representations._assign)
        screened = mock.Mock(wraps=representations._screened_assign)
        with mock.patch.object(representations, "_assign", full), \
                mock.patch.object(representations, "_screened_assign", screened):
            words = build_dictionary(pool, 90, 0).words
        # the screen runs, and at most 2 steps need the full float64 step
        assert screened.call_count > 2 >= full.call_count
        assert_same_bits(words, reference_dictionary(pool, 90, 0))


class TestBowEncode:
    DICT = Dictionary(words=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))

    def test_all_one_word(self):
        feats = np.tile([0.02, 0.96], (7, 1))
        h = bow_encode(feats, self.DICT)
        assert h.tolist() == [0, 0, 7]
        assert h.dtype == np.int64

    def test_tie_goes_to_lowest_index(self):
        h = bow_encode(np.array([[0.5, 0.0]]), self.DICT)  # between words 0 and 1
        assert h.tolist() == [1, 0, 0]

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(5)
        feats = rng.uniform(-1, 2, size=(60, 2))
        h = bow_encode(feats, self.DICT)
        expected = np.zeros(3, dtype=int)
        for f in feats:
            dists = [np.linalg.norm(f - w) for w in self.DICT.words]
            expected[int(np.argmin(dists))] += 1
        np.testing.assert_array_equal(h, expected)

    def test_dimension_mismatch(self):
        with pytest.raises(RepresentationError):
            bow_encode(np.zeros((2, 5)), self.DICT)

    @pytest.mark.parametrize("features", [
        [[1.0, 2.0], [3.0]], [[np.nan, 0.0]], [[np.inf, 0.0]], [0.0, 1.0], np.zeros((0, 2)),
    ], ids=["ragged", "nan", "inf", "1-D", "empty"])
    def test_malformed_features_rejected(self, features):
        with pytest.raises(RepresentationError, match="non-empty finite 2D feature matrix"):
            bow_encode(features, self.DICT)

    def test_one_buffer_distances_match_three_temporaries(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            d = int(rng.integers(1, 50))
            pool = rng.uniform(0, rng.uniform(0.1, 100), size=(int(rng.integers(1, 300)), d))
            centers = pool[rng.integers(0, len(pool), int(rng.integers(1, 40)))]
            centers = centers + rng.normal(scale=0.1, size=centers.shape)
            want = (
                np.sum(pool**2, axis=1)[:, None]
                - 2 * pool @ centers.T
                + np.sum(centers**2, axis=1)[None, :]
            )
            assert np.array_equal(representations._sq_distances(pool, centers), want)


class TestLdaUpdate:
    def test_single_topic_forced(self):
        model = TopicModel(k=1, v=4, rng_seed=0)
        lda_update(model, [0, 1, 2, 2, 3])
        assert model.n_k[0] == 5
        model.check_consistent()

    def test_empty_doc_no_change(self):
        model = TopicModel(k=3, v=4, rng_seed=0)
        before_wk = model.n_wk.copy()
        lda_update(model, [])
        np.testing.assert_array_equal(model.n_wk, before_wk)

    def test_count_consistency_after_updates(self):
        rng = np.random.default_rng(6)
        model = TopicModel(k=4, v=10, rng_seed=1)
        for _ in range(10):
            doc = rng.integers(0, 10, size=rng.integers(1, 30))
            lda_update(model, doc)
            model.check_consistent()
            assert np.all(model.n_wk >= 0)

    def test_disjoint_words_separate(self):
        # sparse document prior, else a one-word document is a neutral
        # Polya urn and its topic split converges to a uniform random limit
        hits = 0
        for seed in range(10):
            model = TopicModel(k=2, v=2, alpha=0.1, rng_seed=seed)
            lda_update(model, [0] * 60, iters=200)
            lda_update(model, [1] * 60, iters=200)
            p = phi(model)
            # each topic's mass should concentrate (> 80 %) on one word
            if np.all(p.max(axis=0) > 0.8):
                hits += 1
        assert hits >= 9

    @pytest.mark.parametrize("doc", [[0, 3], [-1]])
    def test_out_of_range_word(self, doc):
        model = TopicModel(k=2, v=3, rng_seed=0)
        before = model.to_json_dict()
        with pytest.raises(RepresentationError, match="^word index out of vocabulary range$"):
            lda_update(model, doc)
        assert model.to_json_dict() == before

    def test_models_of_disjoint_vocabularies_separate(self):
        # two models, each taught one word range: a held-out document is
        # closer (chi-squared on theta) to its own model's documents than
        # to the other model's
        from openobj.learning import chi2

        models = {scope: TopicModel(k=4, v=6, scope=scope, rng_seed=seed)
                  for scope, seed in (("a", 1), ("b", 2))}
        rng = np.random.default_rng(9)
        for _ in range(5):
            lda_update(models["a"], rng.integers(0, 3, size=20))
            lda_update(models["b"], rng.integers(3, 6, size=20))
        test_a = rng.integers(0, 3, size=20)
        ref_a = lda_infer(models["a"], test_a).theta
        proto_a = lda_infer(models["a"], rng.integers(0, 3, size=20)).theta
        cross_a = lda_infer(models["b"], test_a).theta
        proto_b = lda_infer(models["b"], rng.integers(3, 6, size=20)).theta
        assert chi2(ref_a, proto_a) < chi2(cross_a, proto_b)


class TestLdaInfer:
    def test_single_topic_theta(self):
        model = TopicModel(k=1, v=4, rng_seed=0)
        hist = lda_infer(model, [0, 1, 2])
        np.testing.assert_allclose(hist.theta, [1.0])

    def test_empty_doc_uniform(self):
        model = TopicModel(k=5, v=4, rng_seed=0)
        hist = lda_infer(model, [])
        np.testing.assert_allclose(hist.theta, np.full(5, 0.2))

    def test_theta_normalized(self):
        rng = np.random.default_rng(7)
        model = TopicModel(k=6, v=12, rng_seed=2)
        for _ in range(5):
            lda_update(model, rng.integers(0, 12, size=20))
        for _ in range(5):
            hist = lda_infer(model, rng.integers(0, 12, size=15))
            assert abs(hist.theta.sum() - 1.0) < 1e-9
            assert np.all(hist.theta > 0)

    def test_model_not_mutated(self):
        rng = np.random.default_rng(8)
        model = TopicModel(k=4, v=8, rng_seed=3)
        lda_update(model, rng.integers(0, 8, size=25))
        wk = model.n_wk.copy()
        nk = model.n_k.copy()
        updates = model.n_updates
        lda_infer(model, rng.integers(0, 8, size=12))
        np.testing.assert_array_equal(model.n_wk, wk)
        np.testing.assert_array_equal(model.n_k, nk)
        assert model.n_updates == updates

    def test_read_only_counters(self):
        # infer only reads the counters, so a frozen model's need no copy
        model = TopicModel(k=3, v=5, rng_seed=4)
        lda_update(model, [0, 1, 1, 4])
        want = lda_infer(model, [1, 4, 4], 3)
        model.n_wk.flags.writeable = False
        model.n_k.flags.writeable = False
        got = lda_infer(model, [1, 4, 4], 3)
        assert np.array_equal(got.counts, want.counts)
        assert np.array_equal(got.theta, want.theta)


class TestSimultaneousSweeps:
    """lda_infer's sampler on a planted model and at the edge of its draw."""

    @staticmethod
    def planted(k, seed):
        # topic j owns words 4j..4j+3, each counted 500 times under it alone
        v = 4 * k
        n_wk = np.zeros((v, k), dtype=np.int64)
        n_wk[np.arange(v), np.arange(v) // 4] = 500
        return TopicModel(k=k, v=v, rng_seed=seed, n_wk=n_wk, n_k=n_wk.sum(axis=0))

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("iters", [1, 5])
    def test_planted_topics_recovered(self, seed, iters):
        k = 6
        model = self.planted(k, seed)
        before = model.n_wk.tobytes(), model.n_k.tobytes(), model.n_updates
        rng = np.random.default_rng(seed)
        for j in range(k):
            doc = rng.integers(4 * j, 4 * j + 4, size=40)
            counts = lda_infer(model, doc, iters).counts
            assert counts.sum() == len(doc)
            assert counts[j] >= 0.9 * len(doc)
        assert (model.n_wk.tobytes(), model.n_k.tobytes(), model.n_updates) == before

    def test_same_seed_and_updates_same_answer(self):
        rng = np.random.default_rng(11)
        doc = rng.integers(0, 12, size=60)
        answers = []
        for n_updates in (3, 3, 4):
            model = TopicModel(k=5, v=12, rng_seed=7, n_updates=n_updates,
                               n_wk=np.full((12, 5), 2), n_k=np.full(5, 24))
            hist = lda_infer(model, doc, 4)
            answers.append((hist.counts.tobytes(), hist.theta.tobytes()))
        assert answers[0] == answers[1]
        assert answers[0] != answers[2]  # the stream follows n_updates

    def test_draw_at_the_total_picks_the_last_topic(self):
        # u * total equal to the total counts only the first K - 1 cumulative
        # weights, so it lands on topic K - 1, not past it
        class Ones:
            def integers(self, low, high, size):
                return np.zeros(size, dtype=np.int64)

            def random(self, shape):
                return np.ones(shape)

        model = TopicModel(k=4, v=3, rng_seed=0)
        counts = representations._simultaneous_sweeps(model, np.array([0, 1, 2, 2]), 2, Ones())
        assert counts.tolist() == [0, 0, 0, 4]


class TestDocumentChecks:
    """A document is a flat sequence of integer word indices in [0, V)."""

    @pytest.mark.parametrize("doc", [
        [1.7, 2.2], [True, False], ["a"], [float("nan")], [float("inf")], [1e30], [2**70],
        [[0, 1]], [[0], [1, 2]], np.array([2**64 - 1], dtype=np.uint64),
    ], ids=repr)
    @pytest.mark.parametrize("fold", ["update", "infer"])
    def test_non_integer_words_refused(self, doc, fold):
        model = TopicModel(k=2, v=4, rng_seed=0)
        lda_update(model, [0, 1, 3])
        before = model.to_json_dict()
        with pytest.raises(RepresentationError):
            (lda_update if fold == "update" else lda_infer)(model, doc)
        assert model.to_json_dict() == before

    @pytest.mark.parametrize("doc", [
        np.array([4, 0, 2], dtype=np.int32), np.array([4, 0, 2], dtype=np.uint8),
        [4.0, 0.0, 2.0], np.array([4.0, 0.0, 2.0]),
    ], ids=repr)
    def test_integer_words_accepted(self, doc):
        # an integral float is the integer it holds
        runs = []
        for words in (doc, [4, 0, 2]):
            model = TopicModel(k=3, v=5, rng_seed=2)
            lda_update(model, words, 2)
            runs.append((model.to_json_dict(), lda_infer(model, words, 2).counts.tolist()))
        assert runs[0] == runs[1]

    def test_empty_document(self):
        # draws nothing and changes no counter, but counts as an update; its
        # theta is 1/K exactly, where alpha / (K alpha) reads 0.33333333333333337
        model = TopicModel(k=3, v=5, alpha=0.3, rng_seed=2)
        lda_update(model, [1, 2])
        before = model.to_json_dict()
        lda_update(model, [])
        assert model.to_json_dict() == dict(before, n_updates=2)
        hist = lda_infer(model, [])
        assert hist.theta.tolist() == [1 / 3] * 3
        assert hist.counts.tolist() == [0, 0, 0] and hist.counts.dtype == np.int64


class TestTopicHistogramChecks:
    @pytest.mark.parametrize("theta,counts", [
        ([float("nan")], [0]),
        ([0.5, 0.5], [-3, 1.7]),
        ([0.5, 0.5], [-3, 1]),
        ([0.5, 0.5], [1.0, 2.0]),
        ([0.5, 0.5], [1, 2, 3]),
        ([0.5, 0.5], None),
        ([[0.5, 0.5]], [[1, 2]]),
        ([[0.5], [0.5]], [1, 2]),
        ([0.5, 0.6], [1, 2]),
        ([1.5, -0.5], [1, 2]),
        ([], []),
        (["a"], [1]),
    ])
    def test_bad_histogram_refused(self, theta, counts):
        with pytest.raises(RepresentationError):
            TopicHistogram(theta, counts)

    def test_histogram_stores_float64_and_int64(self):
        hist = TopicHistogram([0.25, 0.75], np.array([1, 3], dtype=np.uint8))
        assert hist.theta.dtype == np.float64 and hist.counts.dtype == np.int64
        assert hist.counts.tolist() == [1, 3]


class TestPhi:
    def test_fresh_model_uniform(self):
        model = TopicModel(k=3, v=5, rng_seed=0)
        np.testing.assert_allclose(phi(model), np.full((5, 3), 0.2))

    def test_hand_arithmetic(self):
        model = TopicModel(k=2, v=2, beta=0.1, rng_seed=0)
        model.n_wk[0, 1] = 1
        model.n_k[1] = 1
        p = phi(model)
        assert p[0, 1] == pytest.approx(1.1 / 1.2)

    def test_columns_sum_to_one(self):
        rng = np.random.default_rng(10)
        model = TopicModel(k=5, v=9, rng_seed=4)
        for _ in range(6):
            lda_update(model, rng.integers(0, 9, size=18))
        np.testing.assert_allclose(phi(model).sum(axis=0), 1.0, atol=1e-9)


class TestSerialization:
    def test_round_trip(self):
        rng = np.random.default_rng(11)
        models = {scope: TopicModel(k=3, v=5, scope=scope, rng_seed=seed)
                  for scope, seed in (("mug", 4), ("bowl", 5))}
        lda_update(models["mug"], rng.integers(0, 5, size=12))
        lda_update(models["bowl"], rng.integers(0, 5, size=9))
        text = json.dumps({c: m.to_json_dict() for c, m in models.items()}, sort_keys=True)
        back = {c: TopicModel.from_json_dict(d) for c, d in json.loads(text).items()}
        assert set(back) == set(models)
        for name in models:
            np.testing.assert_array_equal(back[name].n_wk, models[name].n_wk)
            assert back[name].scope == name
            assert back[name].rng_seed == models[name].rng_seed
            assert back[name].n_updates == models[name].n_updates

    def test_round_trip_after_updates_is_bit_identical(self):
        rng = np.random.default_rng(15)
        model = TopicModel(k=4, v=6, alpha=0.3, beta=0.07, scope="mug", rng_seed=9)
        for _ in range(3):
            lda_update(model, rng.integers(0, 6, size=10), iters=3)
        back = TopicModel.from_json_dict(json.loads(json.dumps(model.to_json_dict())))
        for f in fields(TopicModel):
            got, want = getattr(back, f.name), getattr(model, f.name)
            assert type(got) is type(want)
            assert np.array_equal(got, want) if isinstance(want, np.ndarray) else got == want
        doc = rng.integers(0, 6, size=8)
        assert np.array_equal(lda_infer(back, doc, 3).counts, lda_infer(model, doc, 3).counts)
        lda_update(model, doc, iters=3)
        lda_update(back, doc, iters=3)
        assert back.to_json_dict() == model.to_json_dict()

    def test_dictionary_json_takes_only_words(self):
        data = Dictionary(np.eye(3)).to_json_dict()
        assert np.array_equal(Dictionary.from_json_dict(data).words, np.eye(3))
        for bad in ({}, dict(data, size=3), [data["words"]]):
            with pytest.raises(RepresentationError, match="needs exactly the keys"):
                Dictionary.from_json_dict(bad)
        with pytest.raises(RepresentationError, match="finite 2D array"):
            Dictionary.from_json_dict({"words": [[1.0, 2.0], [3.0]]})


class TestTopicModelChecks:
    """A topic model refuses a bad field or counter when built."""

    @pytest.mark.parametrize("name,value", [
        ("alpha", float("nan")), ("beta", float("inf")), ("k", 2.5), ("v", 0),
        ("rng_seed", -1), ("n_updates", -1), ("n_updates", True),
    ])
    def test_bad_field_rejected(self, name, value):
        with pytest.raises(RepresentationError, match=f"^{name} must"):
            TopicModel(**{"k": 3, "v": 4, name: value})

    @pytest.mark.parametrize("name,value", [
        ("n_wk", [[1]]),
        ("n_k", [1, 2]),
        ("n_k", [5, 0, 0]),
        ("n_wk", [[0.0] * 3] * 4),
        ("n_wk", [[-1, 0, 0], [1, 0, 0], [0, 0, 0], [0, 0, 0]]),
        ("n_wk", [[0, 0], [0, 0, 0]]),
    ])
    def test_bad_counters_rejected(self, name, value):
        data = dict(TopicModel(k=3, v=4).to_json_dict(), **{name: value})
        with pytest.raises(RepresentationError, match=f"^{name} must"):
            TopicModel.from_json_dict(data)

    def test_json_keys_must_match_the_fields(self):
        data = TopicModel(k=3, v=4).to_json_dict()
        TopicModel.from_json_dict(data)
        for bad in ({k: v for k, v in data.items() if k != "n_wk"}, dict(data, extra=1), [1]):
            with pytest.raises(RepresentationError, match="needs exactly the keys"):
                TopicModel.from_json_dict(bad)


def reference_fold_in(model, doc, iters, rng):
    """Per-token numpy formulation of _fold_in: the initial topics added to
    copies of the model's counters, then one rng.random() per token, cumsum
    and searchsorted over the K weights."""
    n_wk, n_k = model.n_wk.copy(), model.n_k.copy()
    z = rng.integers(0, model.k, size=len(doc))
    m_k = np.bincount(z, minlength=model.k)
    np.add.at(n_wk, (doc, z), 1)
    n_k += m_k
    vbeta = model.v * model.beta
    for _ in range(iters):
        for i, w in enumerate(doc):
            k_old = z[i]
            n_wk[w, k_old] -= 1
            n_k[k_old] -= 1
            m_k[k_old] -= 1
            weights = (m_k + model.alpha) * (n_wk[w] + model.beta) / (n_k + vbeta)
            cumulative = np.cumsum(weights)
            k_new = int(np.searchsorted(cumulative, rng.random() * cumulative[-1], side="right"))
            z[i] = k_new
            n_wk[w, k_new] += 1
            n_k[k_new] += 1
            m_k[k_new] += 1
    return {w: n_wk[w].tolist() for w in set(doc.tolist())}, n_k.tolist()


def reference_simultaneous_sweeps(model, doc, iters, rng):
    """Per-token numpy formulation of _simultaneous_sweeps: every token of a
    sweep reads the previous sweep's assignment, minus its own topic, then
    takes one rng.random(), cumsum and searchsorted(side="right") over the
    first K - 1 cumulative weights."""
    topics = np.arange(model.k)
    vbeta = model.v * model.beta
    z = rng.integers(0, model.k, size=len(doc))
    for _ in range(iters):
        m_k = np.bincount(z, minlength=model.k)
        new = z.copy()
        for i, w in enumerate(doc):
            own_wk = np.bincount(z[doc == w], minlength=model.k)
            mine = topics == z[i]
            weights = ((m_k - mine + model.alpha) * (model.n_wk[w] + own_wk - mine + model.beta)
                       / (model.n_k + m_k - mine + vbeta))
            cumulative = np.cumsum(weights)
            new[i] = np.searchsorted(cumulative[:-1], rng.random() * cumulative[-1], side="right")
        z = new
    return np.bincount(z, minlength=model.k)


@st.composite
def gibbs_runs(draw):
    k = draw(st.integers(1, 12))
    v = draw(st.integers(1, 20))
    alpha = draw(st.floats(0.01, 5.0))
    beta = draw(st.floats(0.01, 2.0))
    seed = draw(st.integers(0, 2**32 - 1))
    ops = draw(st.lists(
        st.tuples(
            st.sampled_from(["update", "infer"]),
            st.lists(st.integers(0, v - 1), max_size=30),
            st.integers(1, 5),
        ),
        min_size=1, max_size=6,
    ))
    return TopicModel(k=k, v=v, alpha=alpha, beta=beta, rng_seed=seed), ops


def assert_same_model(a, b):
    assert np.array_equal(a.n_wk, b.n_wk)
    assert np.array_equal(a.n_k, b.n_k)
    assert a.n_updates == b.n_updates


class TestGibbsKernelStream:
    @settings(max_examples=60, deadline=None)
    @given(gibbs_runs())
    def test_matches_per_token_reference(self, run):
        model, ops = run
        ref = TopicModel.from_json_dict(model.to_json_dict())
        for kind, doc, iters in ops:
            if kind == "update":
                lda_update(model, doc, iters)
                with mock.patch.object(representations, "_fold_in", reference_fold_in):
                    lda_update(ref, doc, iters)
            else:
                before = TopicModel.from_json_dict(model.to_json_dict())
                got = lda_infer(model, doc, iters)
                with mock.patch.object(representations, "_simultaneous_sweeps",
                                       reference_simultaneous_sweeps):
                    want = lda_infer(ref, doc, iters)
                assert np.array_equal(got.counts, want.counts)
                assert np.array_equal(got.theta, want.theta)
                assert_same_model(model, before)
            assert_same_model(model, ref)
