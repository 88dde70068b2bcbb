"""Distance functions, instance-based learning and the naive-Bayes learner."""

import itertools
import json
import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from openobj import learning
from openobj.learning import (
    UNKNOWN,
    BayesCategory,
    BayesMemory,
    InstanceCategory,
    InstanceMemory,
    LearningError,
    bayes_classify,
    bayes_teach,
    chi2,
    classify_instances,
    icd,
    instance_teach,
    log_posterior,
    lowest_score,
    ocd_mean,
    ocd_min,
    set_distance,
)


def feats(*rows):
    return np.asarray(rows, dtype=float)


def memory_of(categories):
    """The instance memory that holds these categories, in order."""
    return InstanceMemory({cat.label: cat for cat in categories})


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
    and only runs where the exactness rule holds: the kernel calls cdist
    everywhere else."""

    @settings(max_examples=200, deadline=None)
    @given(integer_sets(4), integer_sets(4))
    def test_integer_sets_match_cdist_bit_for_bit(self, u, v):
        with mock.patch.object(learning, "cdist", wraps=cdist) as spy:
            got = set_distance(u, v)
        assert spy.call_count == 0
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
        with mock.patch.object(learning, "cdist", wraps=cdist) as spy:
            got = set_distance(*pair)
        assert spy.call_count == 1
        assert got == cdist_distance(*pair)

    def test_just_below_the_bound_takes_the_product(self):
        u = feats([_BIG, 3, 3, 3])
        assert np.einsum("ij,ij->i", u, u)[0] < 2**51
        with mock.patch.object(learning, "cdist", wraps=cdist) as spy:
            assert set_distance(u, feats([1, 1, 1, 1])) == cdist_distance(u, feats([1, 1, 1, 1]))
        assert spy.call_count == 0


def spin_like(rng, rows=None, width=6):
    """A random count matrix, like a view's spin images."""
    rows = rows or int(rng.integers(1, 9))
    return rng.poisson(2.0, size=(rows, width)).astype(np.float64)


def categories_three_ways(instances):
    """The same instances in a category built by add, one built from the
    list and one loaded back through JSON."""
    added = InstanceCategory("x")
    for inst in instances:
        added.add(inst)
    loaded = InstanceCategory.from_json_dict(json.loads(json.dumps(added.to_json_dict())))
    return {"add": added, "build": InstanceCategory("x", instances), "json": loaded}


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
    @pytest.mark.parametrize("how", ["add", "build", "json"])
    @pytest.mark.parametrize("seed", range(5))
    def test_equals_the_per_instance_loop(self, how, seed):
        rng = np.random.default_rng(seed)
        instances = [spin_like(rng) for _ in range(5)]
        cat = categories_three_ways(instances)[how]
        for rows in (1, 7, 9, 150, 300):  # numpy sums 8 or more values pairwise
            target = spin_like(rng, rows=rows)
            each = [cdist_distance(target, inst) for inst in instances]
            with mock.patch.object(learning, "set_distance") as per_instance:
                assert ocd_min(target, cat) == min(each)
                assert ocd_mean(target, cat) == float(np.mean(each))
            per_instance.assert_not_called()

    @pytest.mark.parametrize("odd", ["non-integer instance", "non-integer target"])
    def test_inexact_input_takes_one_cdist(self, odd):
        rng = np.random.default_rng(8)
        instances = [spin_like(rng) for _ in range(3)]
        target = spin_like(rng)
        if odd == "non-integer target":
            target = target + 0.25
        else:
            instances[1] = instances[1] + 0.5
        each = [cdist_distance(target, inst) for inst in instances]
        for cat in categories_three_ways(instances).values():
            with (mock.patch.object(learning, "set_distance") as per_instance,
                  mock.patch.object(learning, "cdist", wraps=cdist) as spy):
                assert ocd_min(target, cat) == min(each)
                assert ocd_mean(target, cat) == float(np.mean(each))
            per_instance.assert_not_called()
            assert spy.call_count == 2  # one per OCD, over the whole matrix

    @pytest.mark.parametrize("how", ["add", "build", "json"])
    @pytest.mark.parametrize("shift", [0.0, 0.5], ids=["integer", "non-integer"])
    def test_a_query_of_another_width_is_refused(self, how, shift):
        rng = np.random.default_rng(10)
        cat = categories_three_ways([spin_like(rng) + shift for _ in range(3)])[how]
        for ocd in (ocd_min, ocd_mean):
            with pytest.raises(LearningError, match="unequal width 7 and 6"):
                ocd(spin_like(rng, width=7), cat)

    def test_unequal_widths_refused_when_built(self):
        rng = np.random.default_rng(9)
        with pytest.raises(LearningError, match="width 7 does not match the category"):
            InstanceCategory("x", [spin_like(rng), spin_like(rng, width=7)])

    def test_unequal_widths_refused_when_loaded(self):
        rng = np.random.default_rng(9)
        saved = {"label": "x", "instances": [spin_like(rng, width=7).tolist(), [1.0] * 6]}
        with pytest.raises(LearningError, match="width 6 does not match the category"):
            InstanceCategory.from_json_dict(saved)

    def test_empty_category_rejected(self):
        with pytest.raises(LearningError, match="no instances"):
            ocd_mean(spin_like(np.random.default_rng(0)), InstanceCategory("x"))

    def test_direct_edits_are_refused(self):
        rng = np.random.default_rng(7)
        cat = InstanceCategory("x")
        for _ in range(3):
            cat.add(spin_like(rng))
        with pytest.raises(ValueError, match="read-only"):
            cat.instances[0][0, 0] = 5.0
        with pytest.raises(ValueError):
            cat.instances[1].flags.writeable = True
        with pytest.raises(AttributeError):
            cat.instances.append(spin_like(rng))
        assert len(cat.instances) == 3


class TestIncrementalIcd:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.lists(st.booleans(), min_size=2, max_size=8),
           st.booleans())
    def test_a_read_computes_only_the_new_pairs(self, seed, reads, integer):
        # reads[k]: whether the ICD is read after the (k + 1)-th add
        rng = np.random.default_rng(seed)
        cat = InstanceCategory("x")
        last = 0  # instances at the last read
        for n, read in enumerate(reads, start=1):
            inst = spin_like(rng) if integer else rng.uniform(0, 3, size=(3, 6))
            with mock.patch.object(learning, "set_distance", wraps=learning.set_distance) as spy:
                cat.add(inst)
                if read and n >= 2:
                    assert icd(cat) == icd_oracle(cat.instances)
            assert spy.call_count == (n * (n - 1) - last * (last - 1) if read and n >= 2 else 0)
            if read and n >= 2:
                last = n
        with mock.patch.object(learning, "set_distance", wraps=learning.set_distance) as spy:
            assert icd(cat) == icd(cat) == icd_oracle(cat.instances)
        n = len(reads)
        assert spy.call_count == n * (n - 1) - last * (last - 1)
        assert cat._pairs.shape == (n, n) and cat._pairs.dtype == np.float64

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
        assert icd(resumed) == icd(whole)


# A random instance of each kind; shape (width,) or (rows, width).
INSTANCE_KINDS = {
    "uint8": lambda rng, shape: rng.integers(0, 256, shape).astype(np.uint8),
    "uint16": lambda rng, shape: rng.integers(0, 2**16, shape).astype(np.uint16),
    "whole float64": lambda rng, shape: rng.integers(-9, 10, shape).astype(np.float64),
    "float64": lambda rng, shape: rng.normal(0.0, 3.0, shape),
}


class TestOneMatrix:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(sorted(INSTANCE_KINDS)), st.integers(0, 4)),
                    min_size=1, max_size=6),
           st.integers(1, 5), st.integers(0, 2**32 - 1))
    @example([("uint8", 2), ("uint16", 0), ("uint8", 3)], 4, 0)
    def test_one_copy_same_bits(self, adds, width, seed):
        # each add is (kind, rows), and 0 rows means a 1-D vector
        rng = np.random.default_rng(seed)
        given = [INSTANCE_KINDS[kind](rng, (rows, width) if rows else (width,))
                 for kind, rows in adds]
        cat = InstanceCategory("x")
        for x in given:
            cat.add(x)
        assert sum(v.nbytes for v in cat.instances) == cat._matrix.nbytes
        for view, x in zip(cat.instances, given, strict=True):
            assert view.shape == x.shape and np.array_equal(view, x)
            assert np.shares_memory(view, cat._matrix)
        assert cat._matrix.dtype == np.result_type(*map(stored_dtype, given))
        if len(given) >= 2:
            assert icd(cat) == icd_oracle(given)
        rows = int(rng.integers(1, 12))
        for target in (rng.integers(0, 300, (rows, width)).astype(np.float64),
                       rng.normal(0.0, 3.0, (rows, width))):
            each = [cdist_distance(target, x) for x in given]
            assert ocd_min(target, cat) == min(each)
            assert ocd_mean(target, cat) == float(np.mean(each))
        saved = json.loads(json.dumps(cat.to_json_dict()))
        back = InstanceCategory.from_json_dict(saved)
        # a loaded category is the taught one: same dtypes, bytes, JSON and ICD
        assert [v.dtype for v in back.instances] == [v.dtype for v in cat.instances]
        assert back._matrix.nbytes == cat._matrix.nbytes
        assert json.loads(json.dumps(back.to_json_dict())) == saved
        if len(given) >= 2:
            assert icd(back) == icd(cat)


def stored_dtype(x):
    """The dtype one instance is stored in: the smallest unsigned type for
    non-negative integers, float64 for any other."""
    if np.array_equal(x, np.trunc(x)) and x.min() >= 0:
        return np.min_scalar_type(int(x.max()))
    return np.dtype(np.float64)


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

    def test_icd_follows_each_add(self):
        cat = InstanceCategory("x")
        cat.add(feats([0, 0]))
        with pytest.raises(LearningError, match="at least 2 instances"):
            icd(cat)
        cat.add(feats([1, 0]))
        assert icd(cat) == 1.0
        cat.add(feats([2, 0]))
        assert icd(cat) == pytest.approx(4 / 3)

    def test_a_built_category_has_its_icd(self):
        assert icd(InstanceCategory("x", [feats([0, 0]), feats([3, 4])])) == 5.0


class TestNocd:
    """The A1 and A2 scores of classify_instances, the normalized
    object-category distances."""

    def category(self):
        cat = InstanceCategory("x")
        for inst in (feats([0, 0]), feats([2, 0]), feats([0, 2])):
            cat.add(inst)
        return cat

    def test_stored_instance_zero(self):
        cat = self.category()
        assert classify_instances(feats([0, 0]), memory_of([cat]), mode="A1").scores == {"x": 0.0}

    def test_ocd_equal_icd_gives_one(self):
        cat = self.category()
        # a target whose nearest-instance distance equals the ICD
        target = feats([2 + icd(cat), 0])
        scores = classify_instances(target, memory_of([cat]), mode="A1").scores
        assert scores["x"] == pytest.approx(1.0)

    def test_approach2_cancellation(self):
        cat = self.category()
        target = feats([1, 1])
        # one category: ICD-bar is its own ICD
        scores = classify_instances(target, memory_of([cat]), mode="A2").scores
        assert scores["x"] == 2 * ocd_mean(target, cat) / (icd(cat) + icd(cat))
        assert scores["x"] == pytest.approx(ocd_mean(target, cat) / icd(cat))

    def test_target_equal_to_every_instance(self):
        flat = InstanceCategory("flat")
        for _ in range(3):
            flat.add(feats([1, 1]))
        # degenerate: all identical, icd = 0, so the category is not scored
        assert ocd_mean(feats([1, 1]), flat) == 0.0
        for mode in ("A1", "A2"):
            pred = classify_instances(feats([1, 1]), memory_of([flat, self.category()]), mode=mode)
            assert list(pred.scores) == ["x"]

    def test_random_composition_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            cats = []
            for label in "xy":
                cat = InstanceCategory(label)
                for _ in range(3):
                    cat.add(rng.uniform(0, 1, size=(rng.integers(2, 5), 3)))
                cats.append(cat)
            target = rng.uniform(0, 1, size=(4, 3))
            icd_bar = (icd(cats[0]) + icd(cats[1])) / 2
            a1 = classify_instances(target, memory_of(cats), mode="A1").scores
            a2 = classify_instances(target, memory_of(cats), mode="A2").scores
            for cat in cats:
                d_min = min(set_distance(target, inst) for inst in cat.instances)
                d_avg = np.mean([set_distance(target, inst) for inst in cat.instances])
                assert a1[cat.label] == pytest.approx(d_min / icd(cat), abs=1e-9)
                assert a2[cat.label] == pytest.approx(2 * d_avg / (icd(cat) + icd_bar), abs=1e-9)

    @pytest.mark.parametrize("mode", ["A1", "A2"])
    def test_one_icd_read_per_category_per_query(self, mode):
        rng = np.random.default_rng(4)

        def spread(n):
            return [rng.uniform(0, 1, size=(3, 3)) for _ in range(n)]

        memory = memory_of([
            InstanceCategory("one", spread(1)), InstanceCategory("empty"),
            InstanceCategory("flat", [feats([1, 1, 1])] * 2),
            InstanceCategory("two", spread(2)), InstanceCategory("four", spread(4)),
        ])
        with mock.patch.object(learning, "icd", wraps=learning.icd) as spy:
            pred = classify_instances(rng.uniform(0, 1, size=(2, 3)), memory, mode=mode)
        assert [c.args[0].label for c in spy.call_args_list] == ["flat", "two", "four"]
        assert list(pred.scores) == ["two", "four"]

    def test_scale_invariance_of_argmin(self):
        rng = np.random.default_rng(3)
        cats = []
        for label in "abc":
            cat = InstanceCategory(label)
            for _ in range(3):
                cat.add(rng.uniform(0, 1, size=(3, 2)))
            cats.append(cat)
        target = rng.uniform(0, 1, size=(3, 2))
        base = classify_instances(target, memory_of(cats), mode="A1")
        scaled_cats = []
        for cat in cats:
            sc = InstanceCategory(cat.label)
            for inst in cat.instances:
                sc.add(inst * 7.0)
            scaled_cats.append(sc)
        scaled = classify_instances(target * 7.0, memory_of(scaled_cats), mode="A1")
        assert base.label == scaled.label


class TestClassifyInstances:
    def fixed_memory(self):
        a = InstanceCategory("a", [np.array([0.0, 0.0]), np.array([0.1, 0.0])])
        b = InstanceCategory("b", [np.array([1.0, 1.0])])
        return [a, b]

    def test_single_category_wins(self):
        mem = [InstanceCategory("only", [np.array([5.0, 5.0])])]
        pred = classify_instances(np.array([0.0, 0.0]), memory_of(mem), mode="nn_fixed")
        assert pred.label == "only"

    def test_stored_instance_score_zero(self):
        pred = classify_instances(np.array([1.0, 1.0]), memory_of(self.fixed_memory()),
                                  mode="nn_fixed")
        assert pred.label == "b"
        assert pred.score == 0.0

    @pytest.mark.parametrize("query", [[np.nan, 1.0], [np.inf, 1.0], ["a", "b"]])
    def test_non_finite_fixed_query_rejected(self, query):
        with pytest.raises(LearningError, match="finite fixed-size vector"):
            classify_instances(query, memory_of(self.fixed_memory()), mode="nn_fixed")

    def test_matches_exhaustive_scoring(self):
        rng = np.random.default_rng(4)
        mem = []
        for label in "abc":
            cat = InstanceCategory(label, [rng.uniform(0, 1, size=4) for _ in range(5)])
            mem.append(cat)
        for _ in range(20):
            t = rng.uniform(0, 1, size=4)
            pred = classify_instances(t, memory_of(mem), mode="nn_fixed", metric="L2")
            oracle = {
                c.label: min(np.linalg.norm(t - inst) for inst in c.instances) for c in mem
            }
            assert pred.label == min(oracle, key=oracle.get)
            assert pred.score == pytest.approx(min(oracle.values()))

    def test_unknown_threshold(self):
        pred = classify_instances(
            np.array([10.0, 10.0]), memory_of(self.fixed_memory()), mode="nn_fixed", ct=1.0
        )
        assert pred.label == UNKNOWN

    def test_chi2_metric_path(self):
        a = InstanceCategory("a", [np.array([0.9, 0.1])])
        b = InstanceCategory("b", [np.array([0.1, 0.9])])
        pred = classify_instances(np.array([0.8, 0.2]), memory_of([a, b]), mode="nn_fixed",
                                  metric="chi2")
        assert pred.label == "a"

    def test_1nn_training_instance_identity(self):
        rng = np.random.default_rng(5)
        mem = []
        for label in "abcd":
            mem.append(InstanceCategory(label, [rng.uniform(0, 1, size=6) for _ in range(4)]))
        for cat in mem:
            for inst in cat.instances:
                pred = classify_instances(inst, memory_of(mem), mode="nn_fixed")
                assert pred.label == cat.label
                assert pred.score == 0.0


    def test_instances_of_unequal_length_rejected(self):
        with pytest.raises(LearningError, match="width 3 does not match the category"):
            InstanceCategory("a", [np.zeros(2), np.ones(3)])

    def test_a_feature_set_instance_rejected(self):
        mem = memory_of([InstanceCategory("a", [np.arange(6.0).reshape(2, 3)])])
        with pytest.raises(LearningError, match="one fixed-size vector per instance"):
            classify_instances(np.arange(3.0), mem, mode="nn_fixed")

    def test_views_share_the_category_matrix(self):
        for cat in self.fixed_memory():
            assert all(np.shares_memory(inst, cat._matrix) for inst in cat.instances)
            assert sum(inst.nbytes for inst in cat.instances) == cat._matrix.nbytes
            classify_instances(np.array([0.0, 0.0]), memory_of([cat]), mode="nn_fixed")
            assert all(np.shares_memory(inst, cat._matrix) for inst in cat.instances)

    def test_empty_query_rejected(self):
        with pytest.raises(LearningError, match="must not be empty"):
            classify_instances(np.zeros(0), memory_of(self.fixed_memory()), mode="nn_fixed")

    def test_unknown_metric_rejected(self):
        with pytest.raises(LearningError, match="unknown nn_fixed metric 'cosine'"):
            classify_instances(np.zeros(2), memory_of(self.fixed_memory()), metric="cosine")


def classify_sets_oracle(target, memory, mode, ct=None):
    """The spin-set rule, written out: A1/A2 over the categories of two or
    more instances whose ICD (icd_oracle) is positive, else the nearest
    instance over every category that has one."""
    spreads = {c.label: icd_oracle(c.instances) for c in memory if len(c.instances) >= 2}
    ready = [c for c in memory if spreads.get(c.label, 0.0) > 0]
    scores = {}
    if not ready:
        for c in memory:
            if c.instances:
                scores[c.label] = min(set_distance(target, inst) for inst in c.instances)
    elif mode == "A1":
        for c in ready:
            scores[c.label] = (min(set_distance(target, inst) for inst in c.instances)
                               / spreads[c.label])
    else:
        icd_bar = float(np.mean([spreads[c.label] for c in ready]))
        for c in ready:
            ocd = float(np.mean([set_distance(target, inst) for inst in c.instances]))
            scores[c.label] = 2.0 * ocd / (spreads[c.label] + icd_bar)
    if not scores:
        return None
    best = min(scores, key=scores.get)
    label = UNKNOWN if ct is not None and scores[best] > ct else best
    return label, scores[best], scores


@st.composite
def set_memories(draw):
    """Categories of random integer feature sets with no ICD (fewer than two
    instances, maybe none), a zero ICD (copies of one set) or one that is
    most likely positive."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    memory = []
    for i in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["none", "zero", "positive"]))
        n = draw(st.integers(0, 1) if kind == "none" else st.integers(2, 3))
        instances = [rng.integers(0, 4, size=(rng.integers(1, 4), 3)).astype(float)
                     for _ in range(n)]
        if kind == "zero":
            instances = [instances[0]] * n
        memory.append(InstanceCategory(f"c{i}", instances))
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
                classify_instances(target, memory_of(memory), mode=mode, ct=ct)
            return
        pred = classify_instances(target, memory_of(memory), mode=mode, ct=ct)
        assert (pred.label, pred.score, pred.scores) == expected

    def test_a1_skips_a_category_without_icd(self):
        ready = InstanceCategory("ready")
        for inst in (feats([0, 0]), feats([2, 0])):
            ready.add(inst)
        fresh = InstanceCategory("fresh", [feats([5, 5])])
        pred = classify_instances(feats([5, 5]), memory_of([fresh, ready]), mode="A1")
        assert pred.label == "ready" and list(pred.scores) == ["ready"]

    def test_a2_skips_a_category_with_zero_icd(self):
        ready = InstanceCategory("ready")
        for inst in (feats([0, 0]), feats([2, 0])):
            ready.add(inst)
        flat = InstanceCategory("flat")
        for _ in range(2):
            flat.add(feats([5, 5]))
        assert icd(flat) == 0.0
        pred = classify_instances(feats([5, 5]), memory_of([flat, ready]), mode="A2")
        assert list(pred.scores) == ["ready"]
        assert pred.score == pytest.approx(2 * ocd_mean(feats([5, 5]), ready) / (2 * icd(ready)))

    @pytest.mark.parametrize("mode", ["A1", "A2"])
    def test_no_ready_category_falls_back_to_ocd_min(self, mode):
        a = InstanceCategory("a", [feats([4, 0]), feats([4, 0])])  # ICD 0
        b = InstanceCategory("b", [feats([1, 1])])
        pred = classify_instances(feats([3, 0]), memory_of([a, b]), mode=mode)
        assert pred.scores == {"a": 1.0, "b": pytest.approx(np.sqrt(5))}
        assert pred.label == "a"


class TestLowestScore:
    @pytest.mark.parametrize("mode", ["A1", "A2", "nn_fixed"])
    def test_empty_memory_raises(self, mode):
        with pytest.raises(LearningError, match="no categories in memory"):
            lowest_score({})
        with pytest.raises(LearningError, match="no categories in memory"):
            classify_instances(np.zeros(2), memory_of([]), mode=mode)

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

    @pytest.mark.parametrize("dtype", [np.int64, np.float64])
    def test_json_round_trip_is_bit_identical(self, dtype):
        rng = np.random.default_rng(12)
        mem = BayesMemory()
        for i in range(12):
            x = rng.integers(0, 9, size=5).astype(dtype)
            bayes_teach(mem, f"c{i % 3}", x / 7 if dtype is np.float64 else x)
        back = BayesMemory.from_json_dict(json.loads(json.dumps(mem.to_json_dict())))
        assert list(back.categories) == list(mem.categories)
        for label, cat in mem.categories.items():
            loaded = back.categories[label]
            assert loaded.n_k == cat.n_k
            assert loaded.accumulators.dtype == cat.accumulators.dtype
            assert np.array_equal(loaded.accumulators, cat.accumulators)
        y = rng.integers(0, 9, size=5)
        assert bayes_classify(back, y).scores == bayes_classify(mem, y).scores
        bayes_teach(mem, "c0", y)
        bayes_teach(back, "c0", y)
        assert back.to_json_dict() == mem.to_json_dict()

    def test_total_is_the_sum_of_the_counts(self):
        mem = BayesMemory()
        assert mem.total == 0
        for label in "abab":
            bayes_teach(mem, label, np.array([1, 2]))
        assert mem.total == 4 == sum(c.n_k for c in mem.categories.values())
        assert "total" not in mem.to_json_dict()

    def test_new_category_must_match_the_memory_width(self):
        mem = BayesMemory()
        bayes_teach(mem, "a", np.array([1, 2]))
        with pytest.raises(LearningError, match="does not match the memory"):
            bayes_teach(mem, "b", np.array([1, 2, 3]))
        assert list(mem.categories) == ["a"] and mem.total == 1

    @pytest.mark.parametrize("n_k,accumulators,message", [
        (0, [1, 2], "^n_k must be at least 1"),
        (2.5, [1, 2], "^n_k must be an integer"),
        (True, [1, 2], "^n_k must be an integer"),
        (1, [-1, 2], "^accumulators must be"),
        (1, [np.nan, 2], "^accumulators must be"),
        (1, [[1, 2]], "^accumulators must be"),
        (1, ["a", "b"], "^accumulators must be"),
        (1, [[1, 2], [3]], "^accumulators must be"),
        (1, [10**400], "^accumulators must be"),
    ])
    def test_category_checks_itself(self, n_k, accumulators, message):
        with pytest.raises(LearningError, match=message):
            BayesCategory(n_k=n_k, accumulators=accumulators)

    @pytest.mark.parametrize("categories,message", [
        ([], "^categories must map"),
        ({"a": {"n_k": 1}}, "BayesCategory JSON needs exactly the keys"),
        ({"a": {"n_k": 1, "accumulators": [1, 2]}, "b": {"n_k": 1, "accumulators": [1]}},
         "^categories must have accumulators of one width"),
    ])
    def test_memory_checks_itself(self, categories, message):
        with pytest.raises(LearningError, match=message):
            BayesMemory(categories)


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


class TestLabelRule:
    """Both memories take a category label only as a string, by one rule."""

    @pytest.mark.parametrize("label", [5, None, ("mug",), b"mug"], ids=repr)
    @pytest.mark.parametrize("memory,teach", [(InstanceMemory, instance_teach),
                                              (BayesMemory, bayes_teach)])
    def test_teach_refuses_a_label_that_is_not_a_string(self, memory, teach, label):
        mem = memory()
        teach(mem, "mug", np.array([1, 2]))
        before = mem.to_json_dict()
        with pytest.raises(LearningError,
                           match=f"^label must be a string, got {re.escape(repr(label))}$"):
            teach(mem, label, np.array([1, 2]))
        assert mem.to_json_dict() == before

    @pytest.mark.parametrize("memory,category", [
        (InstanceMemory, InstanceCategory("mug", [np.ones(2)])),
        (BayesMemory, BayesCategory(n_k=1, accumulators=np.ones(2))),
    ])
    def test_memory_refuses_a_label_that_is_not_a_string(self, memory, category):
        with pytest.raises(LearningError, match="^label must be a string, got 5$"):
            memory({5: category})


class TestPerCategoryQueries:
    """Both scorers take a mapping from each taught label to the query as
    that category represents it (local LDA's per-category topic space)."""

    SCORERS = {
        "L2": lambda taught, y: classify_instances(
            y, memory_of(instance_memory(taught)), metric="L2"),
        "chi2": lambda taught, y: classify_instances(
            y, memory_of(instance_memory(taught)), metric="chi2"),
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
        pred = classify_instances(views, memory_of(memory), metric=metric)
        for cat in memory:
            alone = classify_instances(views[cat.label], memory_of([cat]), metric=metric)
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
            plain = classify_instances(target, memory_of(memory), mode=mode)
            mapped = classify_instances({c.label: target for c in memory}, memory_of(memory),
                                        mode=mode)
            assert mapped.scores == plain.scores and mapped.label == plain.label

    def test_a_missing_label_raises(self):
        taught = {"a": [np.array([1, 2])], "b": [np.array([2, 1])]}
        for score in self.SCORERS.values():
            with pytest.raises(LearningError, match="no view for category 'b'"):
                score(taught, {"a": np.array([1, 1])})
        memory = self.spin_memory(np.random.default_rng(13))
        with pytest.raises(LearningError, match="no view for category"):
            classify_instances({}, memory_of(memory), mode="A2")

    def test_a_mapping_entry_is_checked_when_read(self):
        taught = {"a": [np.array([1, 2])], "b": [np.array([2, 1])]}
        bad = {"a": np.array([1, 1]), "b": np.array([[1, 1]])}
        with pytest.raises(LearningError, match="fixed-size vector"):
            self.SCORERS["L2"](taught, bad)
        with pytest.raises(LearningError, match="non-negative vector"):
            self.SCORERS["bayes"](taught, {"a": np.array([1, 1]), "b": np.array([-1, 1])})


class TestInstanceSerialization:
    @pytest.mark.parametrize("kind", ["spin-like sets", "fixed vectors"])
    def test_json_round_trip_is_bit_identical(self, kind):
        rng = np.random.default_rng(13)
        cat = InstanceCategory("x")
        for _ in range(4):
            cat.add(spin_like(rng) if kind == "spin-like sets" else rng.normal(size=6) / 3)
        back = InstanceCategory.from_json_dict(json.loads(json.dumps(cat.to_json_dict())))
        assert back.label == cat.label and icd(back) == icd(cat)
        for stored, original in zip(back.instances, cat.instances, strict=True):
            assert stored.dtype == original.dtype and np.array_equal(stored, original)
        extra = spin_like(rng) if kind == "spin-like sets" else rng.normal(size=6)
        cat.add(extra)
        back.add(extra)
        assert back.to_json_dict() == cat.to_json_dict()

    @pytest.mark.parametrize("changes,message", [
        ({"instances": [[np.nan, 1.0]]}, "finite 1-D or 2-D"),
        ({"instances": [[[[1.0]]]]}, "finite 1-D or 2-D"),
        ({"instances": [1.0]}, "finite 1-D or 2-D"),
        ({"instances": [["a", "b"]]}, "finite 1-D or 2-D"),
        ({"instances": [[[1.0, 2.0], [3.0]]]}, "finite 1-D or 2-D"),
        ({"instances": "abc"}, "^instances must be a list"),
        ({"label": 3}, "^label must be a string"),
    ])
    def test_category_checks_itself(self, changes, message):
        fields = {"label": "x", "instances": [[1.0, 2.0]]}
        InstanceCategory(**fields)
        with pytest.raises(LearningError, match=message):
            InstanceCategory(**{**fields, **changes})
        with pytest.raises(LearningError, match=message):
            InstanceCategory.from_json_dict({**fields, **changes})

    def test_instances_follow_one_dtype_rule(self):
        # non-negative integers in the smallest unsigned type, given in any
        # dtype; the matrix promotes when a wider or a float64 one arrives
        cat = InstanceCategory("x", [[1.0, 2.0], np.array([[3, 4]], dtype=np.int64)])
        assert [inst.dtype for inst in cat.instances] == [np.uint8, np.uint8]
        cat.add(np.array([300, 0], dtype=np.float32))
        assert cat._matrix.dtype == np.uint16
        for odd in ([0.5, 1.0], [-1, 2]):
            mixed = InstanceCategory("x", [[1, 2], odd])
            assert [inst.dtype for inst in mixed.instances] == [np.float64, np.float64]
            assert InstanceCategory("x", [odd])._matrix.dtype == np.float64
        with pytest.raises(LearningError, match="needs exactly the keys"):
            InstanceCategory.from_json_dict({})

    def test_a_saved_icd_is_refused(self):
        saved = {"label": "x", "instances": [[1, 2], [3, 4]], "icd": 2.0, "icd_provisional": False}
        with pytest.raises(LearningError, match=r"needs exactly the keys \['instances', 'label'\]"):
            InstanceCategory.from_json_dict(saved)

    def test_fixed_vectors_round_trip(self):
        cat = InstanceCategory("x")
        cat.add(np.array([0.0, 1.0]))
        cat.add(np.array([1.0, 0.0]))
        back = InstanceCategory.from_json_dict(cat.to_json_dict())
        assert back.label == "x"
        assert icd(back) == pytest.approx(icd(cat))
        np.testing.assert_allclose(back.instances[0], [0, 1])

    def test_feature_sets_round_trip(self):
        cat = InstanceCategory("x")
        cat.add(feats([0, 0], [1, 0]))
        cat.add(feats([2, 2]))
        back = InstanceCategory.from_json_dict(cat.to_json_dict())
        assert icd(back) == pytest.approx(icd(cat))

    def test_spin_image_sets_round_trip_through_json(self):
        import json

        from openobj.descriptors import compute_feature_set
        from openobj.synthgen import ShapeSpec, generate_view

        cat = InstanceCategory("box")
        for seed in (1, 2, 3):
            view = generate_view(ShapeSpec("box", (0.12, 0.08, 0.05), points=150, seed=seed))
            cat.add(compute_feature_set(view, voxel=0.025, support_length=0.05).as_matrix())
        back = InstanceCategory.from_json_dict(json.loads(json.dumps(cat.to_json_dict())))
        assert icd(back) == icd(cat)
        for stored, original in zip(back.instances, cat.instances):
            assert stored.dtype == original.dtype == np.uint8
            assert np.array_equal(stored, original)


class TestInstanceMemory:
    @staticmethod
    def two_instances():
        cat = InstanceCategory("x")
        for inst in (feats([0, 0]), feats([2, 0])):
            cat.add(inst)
        return cat

    @pytest.mark.parametrize("bad", [
        feats([np.nan, 1.0]), [[1.0, 2.0], [3.0]], feats([1.0, 2.0, 3.0]), np.zeros(3),
    ], ids=["nan", "ragged", "wrong-width set", "wrong-width vector"])
    def test_a_refused_instance_changes_nothing(self, bad):
        cat = self.two_instances()
        before = list(cat.instances)
        assert icd(cat) == 2.0
        with pytest.raises(LearningError, match="finite 1-D or 2-D|width"):
            cat.add(bad)
        assert len(cat.instances) == 2
        assert all(a is b for a, b in zip(cat.instances, before))
        assert icd(cat) == 2.0
        assert ocd_min(feats([1, 0]), cat) == 1.0

    def test_a_refused_first_instance_starts_no_category(self):
        memory = InstanceMemory()
        with pytest.raises(LearningError, match="finite 1-D or 2-D"):
            instance_teach(memory, "x", [np.nan, 1.0])
        with pytest.raises(LearningError, match="label must be a string"):
            instance_teach(memory, 3, [0.0, 1.0])
        assert memory.categories == {}

    def test_teach_stores_the_given_array(self):
        memory = InstanceMemory()
        counts = [np.array([[1, 2], [3, 0]], dtype=np.uint8), np.array([[2, 2]], dtype=np.uint8)]
        for x in counts:
            instance_teach(memory, "x", x)
        (cat,) = memory.categories.values()
        for stored, given in zip(cat.instances, counts, strict=True):
            assert np.array_equal(stored, given) and stored.dtype == np.uint8
            assert stored.shape == given.shape and not stored.flags.writeable
        assert icd(cat) == icd(InstanceCategory("x", counts))

    @pytest.mark.parametrize("empty", [np.zeros((0, 2)), np.zeros(0), np.zeros((2, 0))],
                             ids=["no rows", "empty vector", "no columns"])
    def test_an_empty_instance_is_refused(self, empty):
        memory = InstanceMemory()
        with pytest.raises(LearningError, match="must not be empty"):
            instance_teach(memory, "x", empty)
        assert memory.categories == {}
        instance_teach(memory, "x", feats([0, 0]))
        instance_teach(memory, "x", feats([2, 0]))
        with pytest.raises(LearningError, match="must not be empty"):
            instance_teach(memory, "x", empty)
        (cat,) = memory.categories.values()
        assert len(cat.instances) == 2 and icd(cat) == 2.0
        with pytest.raises(LearningError, match="must not be empty"):
            InstanceCategory("x", [feats([0, 0]), empty])

    def test_one_width_per_memory(self):
        memory = InstanceMemory()
        instance_teach(memory, "a", np.zeros(2))
        with pytest.raises(LearningError, match="width 3 does not match the memory"):
            instance_teach(memory, "b", np.ones(3))
        assert list(memory.categories) == ["a"]
        instance_teach(memory, "b", np.ones(2))
        assert classify_instances(np.ones(2), memory).label == "b"
        with pytest.raises(LearningError, match="instances of one width"):
            InstanceMemory({"a": InstanceCategory("a", [np.zeros(2)]),
                            "b": InstanceCategory("b", [np.ones(3)])})
        InstanceMemory({"a": InstanceCategory("a", [np.zeros(2)]), "b": InstanceCategory("b")})

    def test_each_instance_is_checked_once(self):
        memory = InstanceMemory({"empty": InstanceCategory("empty")})
        teach = [("a", [0.0, 1.0]), ("a", [[1.0, 0.0], [3.0, 3.0]]), ("b", [2.0, 2.0]),
                 ("empty", [4.0, 4.0])]
        with mock.patch.object(learning, "_instance", wraps=learning._instance) as spy:
            for n, (label, x) in enumerate(teach, start=1):
                instance_teach(memory, label, np.array(x))
                assert spy.call_count == n
        assert {label: len(cat.instances) for label, cat in memory.categories.items()} == {
            "empty": 1, "a": 2, "b": 1}

    @pytest.mark.parametrize("label", ["a", "new", "empty"])
    def test_a_refused_teach_changes_nothing(self, label):
        memory = InstanceMemory({"empty": InstanceCategory("empty")})
        instance_teach(memory, "a", feats([0, 0]))
        before = json.dumps(memory.to_json_dict())
        cats = dict(memory.categories)
        for bad in (np.ones(3), [np.nan, 1.0]):
            with pytest.raises(LearningError, match="width 3 does not match|finite"):
                instance_teach(memory, label, bad)
            assert json.dumps(memory.to_json_dict()) == before
            assert memory.categories == cats  # the same category objects

    def test_teach_computes_no_icd(self):
        memory = InstanceMemory()
        with mock.patch.object(learning, "set_distance") as spy:
            for x in ([0.0, 1.0], [1.0, 0.0], [2.0, 2.0]):
                instance_teach(memory, "x", np.array(x))
        spy.assert_not_called()
        assert len(memory.categories["x"].instances) == 3
        assert memory.categories["x"]._pairs.shape == (0, 0)

    @pytest.mark.parametrize("categories,message", [
        ([1, 2], "categories must map labels"),
        ({"y": InstanceCategory("x")}, "its own label"),
        ({"x": {"label": "x"}}, "needs exactly the keys"),
    ])
    def test_memory_checks_itself(self, categories, message):
        with pytest.raises(LearningError, match=message):
            InstanceMemory(categories)
