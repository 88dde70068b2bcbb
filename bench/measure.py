"""Metric arithmetic shared by the benchmark: percentiles with the
ten-samples-beyond rule, failure counting, output digests and peak memory.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import statistics
import time

# End-to-end metrics and their units; every workload reports all of them.
END_TO_END = {"setup_s": "s", "run_s": "s", "accuracy": "ratio", "peak_rss_mb": "MB"}

# A tail percentile is reported only when at least this many samples lie
# beyond it; below that it is one or two unlucky samples, not a tail.
MIN_BEYOND = 10
TAIL_LEVELS = (99.9, 99.0, 90.0)


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least q % of
    the samples at or below it."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("no samples")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_level(n: int) -> float | None:
    """Highest percentile in TAIL_LEVELS with at least MIN_BEYOND of n
    samples beyond it, or None when even the 90th has too few."""
    for q in TAIL_LEVELS:
        if n * (100.0 - q) / 100.0 >= MIN_BEYOND - 1e-9:
            return q
    return None


def latency_summary(samples_s) -> dict:
    """Median and the highest trustworthy tail of a list of durations in
    seconds, reported in ms together with the sample count."""
    n = len(samples_s)
    out = {"n": n}
    if n == 0:
        return out
    out["p50_ms"] = statistics.median(samples_s) * 1000.0
    level = tail_level(n)
    if level is not None:
        out[f"p{level:g}_ms"] = percentile(samples_s, level) * 1000.0
    return out


class OpCounter:
    """Counts the operations a workload asks of the library and the ones
    that raised; failed_ratio = failed / attempted."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def call(self, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            raise

    def timed(self, samples: list, fn, *args, **kwargs):
        """call(), appending the call's duration in seconds to samples."""
        start = time.perf_counter()
        result = self.call(fn, *args, **kwargs)
        samples.append(time.perf_counter() - start)
        return result

    @property
    def failed_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def digest(outputs) -> str:
    """SHA-256 of the canonical JSON form of a workload's outputs."""
    blob = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("ascii")).hexdigest()


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
