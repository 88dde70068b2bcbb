"""Unit tests for the benchmark's own metric arithmetic and tracing."""

import json
from pathlib import Path

import numpy as np
import pytest

from measure import END_TO_END, OpCounter, latency_summary, percentile, tail_level
from tracing import (
    LINKS,
    SPAN_NAMES,
    CoverageError,
    Span,
    Tracer,
    check_coverage,
    layer_metrics,
    metric_units,
    openobj_targets,
    self_times,
)

BENCHMARK = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert tail_level(99) is None
    assert tail_level(100) == 90.0
    assert tail_level(999) == 90.0
    assert tail_level(1000) == 99.0
    assert tail_level(10000) == 99.9


def test_latency_summary_reports_median_tail_and_count():
    samples = [i / 1000.0 for i in range(1, 101)]  # 1 .. 100 ms
    summary = latency_summary(samples)
    assert summary["n"] == 100
    assert summary["p50_ms"] == pytest.approx(50.5)
    assert summary["p90_ms"] == pytest.approx(90.0)
    short = latency_summary(samples[:99])
    assert short["n"] == 99 and "p90_ms" not in short
    assert latency_summary([]) == {"n": 0}


def test_percentile_is_nearest_rank():
    assert percentile([5, 1, 4, 2, 3], 50) == 3
    assert percentile(range(1, 101), 90) == 90
    assert percentile([7], 99.9) == 7


def test_self_time_subtracts_the_union_of_direct_children():
    spans = [
        Span("root", 0.0, 10.0, None),
        Span("a", 1.0, 4.0, 0),
        Span("a.inner", 2.0, 3.0, 1),  # counted against a, not root
        Span("b", 3.5, 6.0, 0),  # overlaps a: covered once
        Span("c", 9.0, 12.0, 0),  # clipped to the parent's end
    ]
    assert self_times(spans) == pytest.approx([10.0 - 5.0 - 1.0, 2.0, 1.0, 2.5, 3.0])


def test_failed_ratio_counts_raised_operations():
    ops = OpCounter()

    def flaky(x):
        if x % 4 == 0:
            raise ValueError(x)
        return x

    for x in range(10):
        try:
            ops.call(flaky, x)
        except ValueError:
            pass
    assert (ops.attempted, ops.failed) == (10, 3)
    assert ops.failed_ratio == pytest.approx(0.3)
    assert OpCounter().failed_ratio == 0.0


def test_tracer_wraps_every_reference_and_restores_the_originals():
    from openobj import learning, pipelines

    original = learning.set_distance
    bayes_teach = pipelines.bayes_teach  # imported by name into pipelines
    tracer = Tracer()
    tracer.install(openobj_targets())
    try:
        assert pipelines.bayes_teach is not bayes_teach
        learning.icd(learning.InstanceCategory("x", [np.zeros((2, 3)), np.ones((3, 3))]))
    finally:
        tracer.uninstall()
    assert learning.set_distance is original and pipelines.bayes_teach is bayes_teach
    values = layer_metrics(tracer)
    assert values["learning.icd.calls"] == 1
    assert values["learning.set_distance.calls"] == 2
    assert values["learning.set_distance.feature_pairs"] == 2 * 3 + 3 * 2
    with pytest.raises(CoverageError, match="learning.bayes_teach"):
        check_coverage(values, "open_ended")


def test_every_layer_is_linked_to_a_workload_metric():
    from workloads import WORKLOADS

    assert set(LINKS) == set(SPAN_NAMES)
    for links in LINKS.values():
        assert links and all(m in END_TO_END and w in WORKLOADS for m, w in links)


def test_benchmark_json_lists_exactly_the_reported_metrics():
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(END_TO_END)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == metric_units()
    from workloads import WORKLOADS

    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
