"""Distance functions, instance-based learning and the naive-Bayes learner."""

import itertools
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from openobj import learning
from openobj.learning import (
    UNKNOWN,
    BayesMemory,
    InstanceCategory,
    LearningError,
    bayes_classify,
    bayes_teach,
    chi2,
    classify_instances,
    icd,
    log_posterior,
    lowest_score,
    nocd_approach1,
    nocd_approach2,
    ocd_mean,
    ocd_min,
    set_distance,
)


def feats(*rows):
    return np.asarray(rows, dtype=float)


class TestSetDistance:
    def test_subset_gives_zero(self):
        u = feats([1, 2], [3, 4])
        v = feats([3, 4], [1, 2], [9, 9])
        assert set_distance(u, v) == 0.0

    def test_hand_case(self):
        u = feats([0, 0])
        v = feats([3, 4], [6, 8])
        assert set_distance(u, v) == pytest.approx(5.0)

    def test_asymmetric(self):
        u = feats([0, 0])
        v = feats([0, 0], [10, 0])
        assert set_distance(u, v) == 0.0
        assert set_distance(v, u) == pytest.approx(5.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            u = rng.uniform(0, 1, size=(rng.integers(1, 20), 4))
            v = rng.uniform(0, 1, size=(rng.integers(1, 20), 4))
            oracle = np.mean(
                [min(np.linalg.norm(a - b) for b in v) for a in u]
            )
            assert set_distance(u, v) == pytest.approx(oracle, abs=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(LearningError):
            set_distance(np.empty((0, 3)), feats([1, 2, 3]))

    def test_unequal_widths_rejected(self):
        with pytest.raises(LearningError, match="unequal width 4 and 5"):
            set_distance(np.ones((3, 4)), np.ones((2, 5)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", [0, 1])
    def test_non_finite_rejected(self, bad, side):
        pair = [np.ones((3, 4)), np.ones((2, 4))]
        pair[side][1, 2] = bad
        with pytest.raises(LearningError, match="finite"):
            set_distance(*pair)


def cdist_distance(u, v) -> float:
    """set_distance as cdist computes it: the reference for the product path."""
    return float(cdist(np.atleast_2d(u), np.atleast_2d(v)).min(axis=1).mean())


# The largest entry whose square, plus a 4-wide row of entries up to 3 in
# magnitude, stays below the 2**51 squared-norm bound.
_BIG = math.isqrt(2**51 - 1 - 4 * 9)


@st.composite
def integer_sets(draw, width):
    """A random integer feature set of the given width, entries in [-3, 3],
    where some rows carry one entry of magnitude up to _BIG."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = rng.integers(-3, 4, size=(draw(st.integers(1, 12)), width)).astype(np.float64)
    for row in range(len(m)):
        if draw(st.booleans()):
            m[row, draw(st.integers(0, width - 1))] = draw(
                st.sampled_from([-1, 1])) * draw(st.integers(2**20, _BIG))
    return m


class TestExactPath:
    """The matrix-product path of set_distance is cdist's value bit for bit,
    and only runs where the exactness rule holds."""

    @settings(max_examples=200, deadline=None)
    @given(integer_sets(4), integer_sets(4))
    def test_integer_sets_match_cdist_bit_for_bit(self, u, v):
        with mock.patch.object(learning, "_set_distances", wraps=learning._set_distances) as spy:
            got = set_distance(u, v)
        assert spy.call_count == 1
        assert got == cdist_distance(u, v)

    def test_opposite_rows_at_the_bound(self):
        # |a - b|^2 = 4 _BIG^2 is the largest squared distance the rule allows
        u = feats([_BIG, 0, 0, 0], [0, -_BIG, 3, 3])
        v = feats([-_BIG, 0, 0, 0], [0, _BIG, -3, -3])
        assert 4 * _BIG**2 < 2**53
        assert set_distance(u, v) == cdist_distance(u, v)
        assert set_distance(v, u) == cdist_distance(v, u)

    @pytest.mark.parametrize("row", [
        [2**25, 2**25],  # squared norm exactly 2**51
        [2**26, 0],  # above it
        [0.5, 1.0],  # not an integer
    ], ids=["at-bound", "above-bound", "non-integer"])
    @pytest.mark.parametrize("side", [0, 1])
    def test_fallback_to_cdist(self, row, side):
        pair = [feats([1, 2], [3, 4]), feats([0, 1], [2, 2], [5, 5])]
        pair[side] = np.vstack([pair[side], row])
        with mock.patch.object(learning, "_set_distances", wraps=learning._set_distances) as spy:
            got = set_distance(*pair)
        assert spy.call_count == 0
        assert got == cdist_distance(*pair)

    def test_just_below_the_bound_takes_the_product(self):
        u = feats([_BIG, 3, 3, 3])
        assert np.einsum("ij,ij->i", u, u)[0] < 2**51
        with mock.patch.object(learning, "_set_distances", wraps=learning._set_distances) as spy:
            assert set_distance(u, feats([1, 1, 1, 1])) == cdist_distance(u, feats([1, 1, 1, 1]))
        assert spy.call_count == 1


def spin_like(rng, rows=None, width=6):
    """A random count matrix, like a view's spin images."""
    rows = rows or int(rng.integers(1, 9))
    return rng.poisson(2.0, size=(rows, width)).astype(np.float64)


def categories_three_ways(rng, n=5):
    """The same instances in a category built by add, one built by direct
    appends to ``instances``, and one loaded back through JSON."""
    instances = [spin_like(rng) for _ in range(n)]
    added, appended = InstanceCategory("x"), InstanceCategory("x")
    for inst in instances:
        added.add(inst)
        appended.instances.append(inst)
    loaded = InstanceCategory.from_json_dict(json.loads(json.dumps(added.to_json_dict())))
    return instances, {"add": added, "append": appended, "json": loaded}


def icd_oracle(instances) -> float:
    """Mean cdist set distance over ordered pairs, summed in (i, j) order."""
    n = len(instances)
    total = 0.0
    for i in range(n):
        for j in range(n):
            if i != j:
                total += cdist_distance(instances[i], instances[j])
    return total / (n * (n - 1))


class TestStackedOcd:
    @pytest.mark.parametrize("how", ["add", "append", "json"])
    @pytest.mark.parametrize("seed", range(5))
    def test_equals_the_per_instance_loop(self, how, seed):
        rng = np.random.default_rng(seed)
        instances, cats = categories_three_ways(rng)
        cat = cats[how]
        for rows in (1, 7, 9, 150, 300):  # numpy sums 8 or more values pairwise
            target = spin_like(rng, rows=rows)
            each = [cdist_distance(target, inst) for inst in instances]
            with mock.patch.object(learning, "set_distance") as per_instance:
                assert ocd_min(target, cat) == min(each)
                assert ocd_mean(target, cat) == float(np.mean(each))
            per_instance.assert_not_called()

    def test_stack_follows_direct_edits(self):
        rng = np.random.default_rng(7)
        _, cats = categories_three_ways(rng, n=3)
        cat = cats["add"]
        target = spin_like(rng)
        ocd_min(target, cat)  # builds the stack
        cat.instances.append(spin_like(rng))
        cat.instances[0] = spin_like(rng)
        each = [cdist_distance(target, inst) for inst in cat.instances]
        assert ocd_mean(target, cat) == float(np.mean(each))
        del cat.instances[1]
        each = [cdist_distance(target, inst) for inst in cat.instances]
        assert ocd_min(target, cat) == min(each)
        assert ocd_mean(target, cat) == float(np.mean(each))

    @pytest.mark.parametrize("odd", ["non-integer instance", "non-integer target"])
    def test_inexact_input_scores_instance_by_instance(self, odd):
        rng = np.random.default_rng(8)
        instances, cats = categories_three_ways(rng, n=3)
        target = spin_like(rng)
        if odd == "non-integer target":
            target = target + 0.25
        else:
            cats["add"].instances[1] = instances[1] = instances[1] + 0.5
        each = [cdist_distance(target, inst) for inst in instances]
        with mock.patch.object(learning, "set_distance", wraps=learning.set_distance) as spy:
            assert ocd_min(target, cats["add"]) == min(each)
        assert spy.call_count == 3

    def test_unequal_widths_score_instance_by_instance(self):
        rng = np.random.default_rng(9)
        cat = InstanceCategory("x", [spin_like(rng), spin_like(rng, width=7)])
        with pytest.raises(LearningError, match="unequal width"):
            ocd_min(spin_like(rng), cat)

    def test_unequal_widths_rejected_by_the_stack(self):
        # the stack refuses the category before any pair is scored
        rng = np.random.default_rng(9)
        cat = InstanceCategory("x", [spin_like(rng), spin_like(rng, width=7)])
        with mock.patch.object(learning, "set_distance") as per_instance:
            with pytest.raises(LearningError, match=r"instances of unequal width \[.*, 7\]"):
                ocd_mean(spin_like(rng), cat)
        per_instance.assert_not_called()

    def test_empty_category_rejected(self):
        with pytest.raises(LearningError, match="no instances"):
            ocd_mean(spin_like(np.random.default_rng(0)), InstanceCategory("x"))


class TestIncrementalIcd:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 7), st.booleans())
    def test_equals_brute_force_after_every_add(self, seed, n, integer):
        rng = np.random.default_rng(seed)
        cat = InstanceCategory("x")
        for k in range(1, n + 1):
            inst = spin_like(rng) if integer else rng.uniform(0, 3, size=(3, 6))
            with mock.patch.object(learning, "set_distance", wraps=learning.set_distance) as spy:
                cat.add(inst)
            assert spy.call_count == 2 * (k - 1)
            if k >= 2:
                assert cat.icd == icd_oracle(cat.instances)

    def test_follows_direct_edits(self):
        rng = np.random.default_rng(3)
        cat = InstanceCategory("x")
        for _ in range(4):
            cat.add(spin_like(rng))
        cat.instances[2] = spin_like(rng)
        assert icd(cat) == icd_oracle(cat.instances)
        cat.instances.append(spin_like(rng))
        assert icd(cat) == icd_oracle(cat.instances)
        cat.instances = cat.instances[1:]
        assert icd(cat) == icd_oracle(cat.instances)

    @pytest.mark.parametrize("seed", range(3))
    def test_half_json_rest_equals_teaching_all(self, seed):
        rng = np.random.default_rng(seed)
        views = [spin_like(rng, rows=int(rng.integers(1, 30)), width=45) for _ in range(8)]
        whole = InstanceCategory("x")
        for view in views:
            whole.add(view)
        half = InstanceCategory("x")
        for view in views[:4]:
            half.add(view)
        resumed = InstanceCategory.from_json_dict(json.loads(json.dumps(half.to_json_dict())))
        for view in views[4:]:
            resumed.add(view)
        assert resumed.icd == whole.icd
        assert resumed.icd_provisional == whole.icd_provisional


class TestIcd:
    def test_identical_instances(self):
        cat = InstanceCategory("x", [feats([1, 1]), feats([1, 1])])
        assert icd(cat) == 0.0

    def test_two_instance_formula(self):
        a = feats([0, 0], [1, 0])
        b = feats([4, 0])
        cat = InstanceCategory("x", [a, b])
        d1 = set_distance(a, b)
        d2 = set_distance(b, a)
        assert icd(cat) == pytest.approx((d1 + d2) / 2)

    def test_matches_all_pairs_oracle(self):
        rng = np.random.default_rng(1)
        instances = [rng.uniform(0, 1, size=(rng.integers(2, 6), 3)) for _ in range(4)]
        cat = InstanceCategory("x", instances)
        total = 0.0
        for i, j in itertools.permutations(range(4), 2):
            total += set_distance(instances[i], instances[j])
        assert icd(cat) == pytest.approx(total / 12, abs=1e-9)

    def test_single_instance_rejected(self):
        with pytest.raises(LearningError):
            icd(InstanceCategory("x", [feats([1, 2])]))

    def test_add_maintains_icd(self):
        cat = InstanceCategory("x")
        cat.add(feats([0, 0]))
        assert cat.icd is None
        cat.add(feats([1, 0]))
        assert cat.icd == pytest.approx(1.0)
        assert cat.icd_provisional
        cat.add(feats([2, 0]))
        assert not cat.icd_provisional


class TestNocd:
    def category(self):
        cat = InstanceCategory("x")
        for inst in (feats([0, 0]), feats([2, 0]), feats([0, 2])):
            cat.add(inst)
        return cat

    def test_stored_instance_zero(self):
        cat = self.category()
        assert nocd_approach1(feats([0, 0]), cat) == 0.0

    def test_ocd_equal_icd_gives_one(self):
        cat = self.category()
        t = feats([cat.icd, 0])  # distance to (0,0) equals ICD... only if nearest
        # construct directly: pick target whose min distance equals icd
        target = feats([2 + cat.icd, 0])
        assert nocd_approach1(target, cat) == pytest.approx(1.0)

    def test_approach2_cancellation(self):
        cat = self.category()
        icd_bar = cat.icd  # same as the category's own spread
        target = feats([1, 1])
        expected = 2 * ocd_mean(target, cat) / (cat.icd + icd_bar)
        assert nocd_approach2(target, cat, icd_bar) == pytest.approx(expected)
        assert nocd_approach2(target, cat, icd_bar) == pytest.approx(
            ocd_mean(target, cat) / cat.icd
        )

    def test_target_equal_to_every_instance(self):
        cat = InstanceCategory("x")
        for _ in range(3):
            cat.add(feats([1, 1]))
        # degenerate: all identical, icd = 0; approach II survives via icd_bar
        assert ocd_mean(feats([1, 1]), cat) == 0.0
        assert nocd_approach2(feats([1, 1]), cat, icd_bar=0.5) == 0.0
        with pytest.raises(LearningError, match="degenerate"):
            nocd_approach1(feats([1, 1]), cat)

    def test_random_composition_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            cat = InstanceCategory("x")
            for _ in range(3):
                cat.add(rng.uniform(0, 1, size=(rng.integers(2, 5), 3)))
            target = rng.uniform(0, 1, size=(4, 3))
            d_min = min(set_distance(target, inst) for inst in cat.instances)
            d_avg = np.mean([set_distance(target, inst) for inst in cat.instances])
            assert nocd_approach1(target, cat) == pytest.approx(d_min / cat.icd, abs=1e-9)
            assert nocd_approach2(target, cat, 0.7) == pytest.approx(
                2 * d_avg / (cat.icd + 0.7), abs=1e-9
            )

    def test_scale_invariance_of_argmin(self):
        rng = np.random.default_rng(3)
        cats = []
        for label in "abc":
            cat = InstanceCategory(label)
            for _ in range(3):
                cat.add(rng.uniform(0, 1, size=(3, 2)))
            cats.append(cat)
        target = rng.uniform(0, 1, size=(3, 2))
        base = classify_instances(target, cats, mode="A1")
        scaled_cats = []
        for cat in cats:
            sc = InstanceCategory(cat.label)
            for inst in cat.instances:
                sc.add(inst * 7.0)
            scaled_cats.append(sc)
        scaled = classify_instances(target * 7.0, scaled_cats, mode="A1")
        assert base.label == scaled.label


class TestClassifyInstances:
    def fixed_memory(self):
        a = InstanceCategory("a", [np.array([0.0, 0.0]), np.array([0.1, 0.0])])
        b = InstanceCategory("b", [np.array([1.0, 1.0])])
        return [a, b]

    def test_single_category_wins(self):
        mem = [InstanceCategory("only", [np.array([5.0, 5.0])])]
        pred = classify_instances(np.array([0.0, 0.0]), mem, mode="nn_fixed")
        assert pred.label == "only"

    def test_stored_instance_score_zero(self):
        pred = classify_instances(np.array([1.0, 1.0]), self.fixed_memory(), mode="nn_fixed")
        assert pred.label == "b"
        assert pred.score == 0.0

    def test_matches_exhaustive_scoring(self):
        rng = np.random.default_rng(4)
        mem = []
        for label in "abc":
            cat = InstanceCategory(label, [rng.uniform(0, 1, size=4) for _ in range(5)])
            mem.append(cat)
        for _ in range(20):
            t = rng.uniform(0, 1, size=4)
            pred = classify_instances(t, mem, mode="nn_fixed", metric="L2")
            oracle = {
                c.label: min(np.linalg.norm(t - inst) for inst in c.instances) for c in mem
            }
            assert pred.label == min(oracle, key=oracle.get)
            assert pred.score == pytest.approx(min(oracle.values()))

    def test_unknown_threshold(self):
        pred = classify_instances(
            np.array([10.0, 10.0]), self.fixed_memory(), mode="nn_fixed", ct=1.0
        )
        assert pred.label == UNKNOWN

    def test_chi2_metric_path(self):
        a = InstanceCategory("a", [np.array([0.9, 0.1])])
        b = InstanceCategory("b", [np.array([0.1, 0.9])])
        pred = classify_instances(np.array([0.8, 0.2]), [a, b], mode="nn_fixed", metric="chi2")
        assert pred.label == "a"

    def test_1nn_training_instance_identity(self):
        rng = np.random.default_rng(5)
        mem = []
        for label in "abcd":
            mem.append(InstanceCategory(label, [rng.uniform(0, 1, size=6) for _ in range(4)]))
        for cat in mem:
            for inst in cat.instances:
                pred = classify_instances(inst, mem, mode="nn_fixed")
                assert pred.label == cat.label
                assert pred.score == 0.0


def classify_sets_oracle(target, memory, mode, ct=None):
    """The Learner's spin-set rule as it stood before classify_instances
    took it over: A1/A2 over the categories whose ICD is set and positive,
    else the nearest instance over every category that has one."""
    ready = [c for c in memory if c.icd is not None and c.icd > 0]
    scores = {}
    if not ready:
        for c in memory:
            if c.instances:
                scores[c.label] = min(set_distance(target, inst) for inst in c.instances)
    elif mode == "A1":
        for c in ready:
            scores[c.label] = min(set_distance(target, inst) for inst in c.instances) / c.icd
    else:
        icd_bar = float(np.mean([c.icd for c in ready]))
        for c in ready:
            ocd = float(np.mean([set_distance(target, inst) for inst in c.instances]))
            scores[c.label] = 2.0 * ocd / (c.icd + icd_bar)
    if not scores:
        return None
    best = min(scores, key=scores.get)
    label = UNKNOWN if ct is not None and scores[best] > ct else best
    return label, scores[best], scores


@st.composite
def set_memories(draw):
    """Categories of random integer feature sets whose ICD is None, 0 or
    positive, independent of the instances; a category with no ICD may
    hold no instance."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    memory = []
    for i in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["none", "zero", "positive"]))
        n = draw(st.integers(0 if kind == "none" else 1, 3))
        instances = [rng.integers(0, 4, size=(rng.integers(1, 4), 3)).astype(float)
                     for _ in range(n)]
        value = {"none": None, "zero": 0.0, "positive": draw(st.floats(0.1, 5.0))}[kind]
        memory.append(InstanceCategory(f"c{i}", instances, icd=value))
    target = rng.integers(0, 4, size=(rng.integers(1, 4), 3)).astype(float)
    return target, memory


class TestSpinSetRule:
    @settings(max_examples=150, deadline=None)
    @given(set_memories(), st.sampled_from(["A1", "A2"]),
           st.one_of(st.none(), st.floats(0.0, 3.0)))
    def test_matches_the_learner_rule(self, case, mode, ct):
        target, memory = case
        expected = classify_sets_oracle(target, memory, mode, ct)
        if expected is None:
            with pytest.raises(LearningError, match="no categories"):
                classify_instances(target, memory, mode=mode, ct=ct)
            return
        pred = classify_instances(target, memory, mode=mode, ct=ct)
        assert (pred.label, pred.score, pred.scores) == expected

    def test_a1_skips_a_category_without_icd(self):
        ready = InstanceCategory("ready")
        for inst in (feats([0, 0]), feats([2, 0])):
            ready.add(inst)
        fresh = InstanceCategory("fresh", [feats([5, 5])])
        pred = classify_instances(feats([5, 5]), [fresh, ready], mode="A1")
        assert pred.label == "ready" and list(pred.scores) == ["ready"]

    def test_a2_skips_a_category_with_zero_icd(self):
        ready = InstanceCategory("ready")
        for inst in (feats([0, 0]), feats([2, 0])):
            ready.add(inst)
        flat = InstanceCategory("flat")
        for _ in range(2):
            flat.add(feats([5, 5]))
        assert flat.icd == 0.0
        pred = classify_instances(feats([5, 5]), [flat, ready], mode="A2")
        assert list(pred.scores) == ["ready"]
        assert pred.score == pytest.approx(2 * ocd_mean(feats([5, 5]), ready) / (2 * ready.icd))

    @pytest.mark.parametrize("mode", ["A1", "A2"])
    def test_no_ready_category_falls_back_to_ocd_min(self, mode):
        a = InstanceCategory("a", [feats([0, 0]), feats([4, 0])])
        b = InstanceCategory("b", [feats([1, 1])])
        pred = classify_instances(feats([3, 0]), [a, b], mode=mode)
        assert pred.scores == {"a": 1.0, "b": pytest.approx(np.sqrt(5))}
        assert pred.label == "a"


class TestLowestScore:
    @pytest.mark.parametrize("mode", ["A1", "A2", "nn_fixed"])
    def test_empty_memory_raises(self, mode):
        with pytest.raises(LearningError, match="no categories in memory"):
            lowest_score({})
        with pytest.raises(LearningError, match="no categories in memory"):
            classify_instances(np.zeros(2), [], mode=mode)

    def test_ties_go_to_the_earliest_category(self):
        assert lowest_score({"b": 1.0, "a": 1.0, "c": 2.0}).label == "b"

    def test_unknown_only_above_ct(self):
        scores = {"a": 0.5, "b": 0.7}
        assert lowest_score(scores, ct=0.5).label == "a"
        pred = lowest_score(scores, ct=0.4)
        assert pred.label == UNKNOWN
        assert pred.score == 0.5 and pred.scores is scores


class TestDivergences:
    def test_chi2_basics(self):
        assert chi2([0.3, 0.7], [0.3, 0.7]) == 0.0
        assert chi2([1, 0], [0, 1]) == pytest.approx(1.0)

    def test_chi2_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            p = rng.dirichlet(np.ones(6))
            q = rng.dirichlet(np.ones(6))
            oracle = 0.5 * sum(
                (a - b) ** 2 / (a + b) for a, b in zip(p, q) if a + b > 0
            )
            assert chi2(p, q) == pytest.approx(oracle, abs=1e-12)


class TestBayes:
    def test_classify_scores_are_log_posteriors(self):
        mem = BayesMemory()
        bayes_teach(mem, "a", np.array([3, 1, 0]))
        bayes_teach(mem, "b", np.array([0, 1, 3]))
        bayes_teach(mem, "b", np.array([1, 1, 1]))
        y = np.array([1, 2, 0])
        pred = bayes_classify(mem, y)
        assert pred.scores == {lab: log_posterior(mem, lab, y) for lab in ("a", "b")}
        assert pred.scores["a"] == pytest.approx(
            np.log(1 / 3) + y @ np.log(np.array([4, 2, 1]) / 7)
        )

    def test_ties_go_to_the_earliest_taught(self):
        mem = BayesMemory()
        bayes_teach(mem, "b", np.array([1, 1]))
        bayes_teach(mem, "a", np.array([1, 1]))
        assert bayes_classify(mem, np.array([2, 2])).label == "b"

    def test_empty_memory_raises(self):
        with pytest.raises(LearningError, match="no categories in memory"):
            bayes_classify(BayesMemory(), np.array([1, 2]))

    def test_first_teach(self):
        mem = BayesMemory()
        bayes_teach(mem, "mug", np.array([2, 0, 1]))
        assert mem.prior("mug") == 1.0
        np.testing.assert_allclose(
            mem.categories["mug"].conditionals(), [3 / 6, 1 / 6, 2 / 6]
        )

    def test_two_categories_equal_priors(self):
        mem = BayesMemory()
        bayes_teach(mem, "a", np.array([1, 0]))
        bayes_teach(mem, "b", np.array([0, 1]))
        assert mem.prior("a") == 0.5
        assert mem.prior("b") == 0.5

    def test_order_invariance(self):
        rng = np.random.default_rng(9)
        events = [("a", rng.integers(0, 5, size=4)) for _ in range(3)]
        events += [("b", rng.integers(0, 5, size=4)) for _ in range(3)]
        reference = None
        for perm in itertools.permutations(range(6)):
            mem = BayesMemory()
            for idx in perm:
                bayes_teach(mem, events[idx][0], events[idx][1])
            state = {
                lab: (c.n_k, tuple(c.accumulators.tolist()))
                for lab, c in sorted(mem.categories.items())
            }
            if reference is None:
                reference = state
            else:
                assert state == reference

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_any_teaching_order_gives_the_same_memory(self, data):
        d = data.draw(st.integers(1, 6))
        labels = [f"c{i}" for i in range(data.draw(st.integers(1, 5)))]
        hist = st.lists(st.integers(0, 20), min_size=d, max_size=d).map(np.array)
        # every category is taught at least once
        events = [(lab, data.draw(hist)) for lab in labels]
        events += data.draw(st.lists(st.tuples(st.sampled_from(labels), hist), max_size=12))
        order = data.draw(st.permutations(range(len(events))))
        one, other = BayesMemory(), BayesMemory()
        for label, x in events:
            bayes_teach(one, label, x)
        for i in order:
            bayes_teach(other, *events[i])

        assert one.total == other.total
        assert one.categories.keys() == other.categories.keys()
        for label, cat in one.categories.items():
            assert cat.n_k == other.categories[label].n_k
            assert np.array_equal(cat.accumulators, other.categories[label].accumulators)
        for y in data.draw(st.lists(hist, min_size=1, max_size=4)):
            a, b = bayes_classify(one, y), bayes_classify(other, y)
            assert a.scores == b.scores
            # exact ties go to the earliest taught label, which is the
            # only thing the order may change
            best = [lab for lab, s in a.scores.items() if s == a.score]
            assert a.label in best and b.label in best
            if len(best) == 1:
                assert a.label == b.label

    def test_classification_dominance(self):
        mem = BayesMemory()
        bayes_teach(mem, "a", np.array([10, 0]))
        bayes_teach(mem, "b", np.array([0, 10]))
        assert bayes_classify(mem, np.array([10, 0])).label == "a"
        assert bayes_classify(mem, np.array([0, 10])).label == "b"

    def test_scores_match_hand_computation(self):
        mem = BayesMemory()
        bayes_teach(mem, "a", np.array([3, 1]))
        bayes_teach(mem, "b", np.array([1, 3]))
        bayes_teach(mem, "c", np.array([2, 2]))
        y = np.array([4, 2])
        pred = bayes_classify(mem, y)
        for label in "abc":
            acc = mem.categories[label].accumulators
            cond = (acc + 1) / (acc + 1).sum()
            expected = np.log(1 / 3) + y @ np.log(cond)
            assert pred.scores[label] == pytest.approx(expected, abs=1e-9)

    def test_priors_sum_to_one(self):
        rng = np.random.default_rng(10)
        mem = BayesMemory()
        for i in range(20):
            bayes_teach(mem, f"cat{i % 4}", rng.integers(0, 6, size=5))
        assert sum(mem.prior(lab) for lab in mem.categories) == pytest.approx(1.0)
        for cat in mem.categories.values():
            assert cat.conditionals().sum() == pytest.approx(1.0, abs=1e-12)

    def test_argmax_shift_invariance(self):
        mem = BayesMemory()
        bayes_teach(mem, "a", np.array([5, 1, 0]))
        bayes_teach(mem, "b", np.array([0, 1, 5]))
        pred = bayes_classify(mem, np.array([3, 1, 1]))
        shifted = {k: v + 123.45 for k, v in pred.scores.items()}
        assert max(shifted, key=shifted.get) == pred.label

    def test_serialization_round_trip(self):
        mem = BayesMemory()
        bayes_teach(mem, "a", np.array([1, 2]))
        bayes_teach(mem, "b", np.array([2, 1]))
        back = BayesMemory.from_json_dict(mem.to_json_dict())
        assert back.total == mem.total
        pred_a = bayes_classify(back, np.array([1, 2]))
        assert pred_a.label == "a"


@st.composite
def fixed_memories(draw):
    """Two to four taught categories of non-negative integer vectors of one
    width, a query of that width and a per-category query for each label."""
    d = draw(st.integers(1, 5))
    vec = st.lists(st.integers(0, 20), min_size=d, max_size=d).map(np.array)
    labels = [f"c{i}" for i in range(draw(st.integers(2, 4)))]
    taught = {lab: draw(st.lists(vec, min_size=1, max_size=3)) for lab in labels}
    return taught, draw(vec), {lab: draw(vec) for lab in labels}


def instance_memory(taught):
    return [InstanceCategory(lab, [x.astype(np.float64) for x in xs]) for lab, xs in taught.items()]


def bayes_memory(taught):
    mem = BayesMemory()
    for lab, xs in taught.items():
        for x in xs:
            bayes_teach(mem, lab, x)
    return mem


class TestPerCategoryQueries:
    """Both scorers take a mapping from each taught label to the query as
    that category represents it (local LDA's per-category topic space)."""

    SCORERS = {
        "L2": lambda taught, y: classify_instances(y, instance_memory(taught), metric="L2"),
        "chi2": lambda taught, y: classify_instances(y, instance_memory(taught), metric="chi2"),
        "bayes": lambda taught, y: bayes_classify(bayes_memory(taught), y),
    }

    @settings(max_examples=100, deadline=None)
    @given(fixed_memories(), st.sampled_from(sorted(SCORERS)))
    def test_one_query_under_every_label_is_the_plain_call(self, case, scorer):
        taught, y, _ = case
        score = self.SCORERS[scorer]
        plain = score(taught, y)
        mapped = score(taught, {lab: y.copy() for lab in reversed(list(taught))})
        assert mapped.label == plain.label
        assert mapped.score == plain.score and mapped.scores == plain.scores
        assert list(mapped.scores) == list(plain.scores)

    @settings(max_examples=60, deadline=None)
    @given(fixed_memories(), st.sampled_from(["L2", "chi2"]))
    def test_each_instance_category_scores_its_own_view(self, case, metric):
        taught, _, views = case
        memory = instance_memory(taught)
        pred = classify_instances(views, memory, metric=metric)
        for cat in memory:
            alone = classify_instances(views[cat.label], [cat], metric=metric)
            assert pred.scores[cat.label] == alone.score
        assert pred.label == min(pred.scores, key=pred.scores.get)

    @settings(max_examples=60, deadline=None)
    @given(fixed_memories())
    def test_each_bayes_category_scores_its_own_view(self, case):
        taught, _, views = case
        memory = bayes_memory(taught)
        pred = bayes_classify(memory, views)
        for label in taught:
            assert pred.scores[label] == bayes_classify(memory, views[label]).scores[label]
            assert pred.scores[label] == log_posterior(memory, label, views[label])
        assert pred.label == max(pred.scores, key=pred.scores.get)

    @staticmethod
    def spin_memory(rng):
        memory = [InstanceCategory(lab) for lab in "abc"]
        for cat in memory:
            for _ in range(3):
                cat.add(spin_like(rng))
        return memory

    def test_spin_set_modes_take_a_mapping(self):
        rng = np.random.default_rng(12)
        memory = self.spin_memory(rng)
        target = spin_like(rng, rows=7)
        for mode in ("A1", "A2"):
            plain = classify_instances(target, memory, mode=mode)
            mapped = classify_instances({c.label: target for c in memory}, memory, mode=mode)
            assert mapped.scores == plain.scores and mapped.label == plain.label

    def test_a_missing_label_raises(self):
        taught = {"a": [np.array([1, 2])], "b": [np.array([2, 1])]}
        for score in self.SCORERS.values():
            with pytest.raises(LearningError, match="no view for category 'b'"):
                score(taught, {"a": np.array([1, 1])})
        memory = self.spin_memory(np.random.default_rng(13))
        with pytest.raises(LearningError, match="no view for category"):
            classify_instances({}, memory, mode="A2")

    def test_a_mapping_entry_is_checked_when_read(self):
        taught = {"a": [np.array([1, 2])], "b": [np.array([2, 1])]}
        bad = {"a": np.array([1, 1]), "b": np.array([[1, 1]])}
        with pytest.raises(LearningError, match="fixed-size vector"):
            self.SCORERS["L2"](taught, bad)
        with pytest.raises(LearningError, match="non-negative vector"):
            self.SCORERS["bayes"](taught, {"a": np.array([1, 1]), "b": np.array([-1, 1])})


class TestInstanceSerialization:
    def test_fixed_vectors_round_trip(self):
        cat = InstanceCategory("x")
        cat.add(np.array([0.0, 1.0]))
        cat.add(np.array([1.0, 0.0]))
        back = InstanceCategory.from_json_dict(cat.to_json_dict())
        assert back.label == "x"
        assert back.icd == pytest.approx(cat.icd)
        np.testing.assert_allclose(back.instances[0], [0, 1])

    def test_feature_sets_round_trip(self):
        cat = InstanceCategory("x")
        cat.add(feats([0, 0], [1, 0]))
        cat.add(feats([2, 2]))
        back = InstanceCategory.from_json_dict(cat.to_json_dict())
        assert icd(back) == pytest.approx(cat.icd)

    def test_spin_image_sets_round_trip_through_json(self):
        import json

        from openobj.descriptors import compute_feature_set
        from openobj.synthgen import ShapeSpec, generate_view

        cat = InstanceCategory("box")
        for seed in (1, 2, 3):
            view = generate_view(ShapeSpec("box", (0.12, 0.08, 0.05), points=150, seed=seed))
            cat.add(compute_feature_set(view, voxel=0.025, support_length=0.05).as_matrix())
        back = InstanceCategory.from_json_dict(json.loads(json.dumps(cat.to_json_dict())))
        assert back.icd == cat.icd
        assert icd(back) == cat.icd
        for stored, original in zip(back.instances, cat.instances):
            assert np.array_equal(stored, original)
