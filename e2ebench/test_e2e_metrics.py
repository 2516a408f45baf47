"""Unit tests for the benchmark's metric code, on synthetic samples.

Run with ``python -m pytest e2ebench -q`` from the repository root.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import e2e_hostspeed  # noqa: E402
import e2e_metrics as m  # noqa: E402
from e2e_metrics import Outcome, SpanRec  # noqa: E402


# ----- percentiles --------------------------------------------------------------------

def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))          # 1..100
    assert m.percentile(samples, 0.5) == 50
    assert m.percentile(samples, 0.95) == 95
    assert m.percentile(samples, 1.0) == 100
    assert m.percentile([7.0], 0.95) == 7.0


def test_p95_needs_ten_samples_beyond():
    assert m.min_samples_for(0.95) == 200
    ok = [float(i) for i in range(200)]
    assert m.checked_percentile(ok, 0.95) == 189.0
    assert m.samples_beyond(ok, 0.95) == 10
    with pytest.raises(ValueError, match="need 10"):
        m.checked_percentile(ok[:199], 0.95)


def test_tail_quantile_keeps_ten_beyond():
    assert m.tail_quantile(400) == 0.95
    assert m.tail_quantile(20) == 0.5
    for n in (11, 20, 37, 150, 200, 1000):
        samples = [float(i) for i in range(n)]
        assert m.samples_beyond(samples, m.tail_quantile(n)) >= 10
    with pytest.raises(ValueError):
        m.tail_quantile(10)


# ----- request outcomes -----------------------------------------------------------

def test_open_loop_latency_counts_from_the_scheduled_send():
    # Due at t=1.0, the generator only got round to it at 1.3, and the
    # answer came at 1.5: the user waited 0.5 s, not 0.2 s.
    late = Outcome(scheduled=1.0, sent=1.3, done=1.5)
    assert late.latency == pytest.approx(0.5)
    assert late.lag == pytest.approx(0.3)


def test_slo_counts_failures_as_misses():
    outcomes = [Outcome(0.0, 0.0, 0.1),               # fast, ok
                Outcome(0.0, 0.0, 0.9),               # too slow
                Outcome(0.0, 0.0, 0.05, ok=False),    # fast but failed
                Outcome(0.0, 0.0, 0.2)]               # ok
    assert m.slo_met_ratio(outcomes, limit_s=0.5) == 0.5
    assert m.error_rate(outcomes) == 0.25


def test_latency_in_reference_seconds():
    # The reference kernel ran twice as slow as its nominal time around
    # this request, so 0.8 wall seconds are 0.4 reference seconds.
    speed = e2e_hostspeed.speed_factor(2 * e2e_hostspeed.REFERENCE_S,
                                       2 * e2e_hostspeed.REFERENCE_S)
    assert speed == pytest.approx(0.5)
    slow = Outcome(scheduled=0.0, sent=0.0, done=0.8, speed=speed)
    assert slow.latency == pytest.approx(0.8)
    assert slow.ref_latency == pytest.approx(0.4)
    # The SLO is judged in reference seconds too.
    assert m.slo_met_ratio([slow], limit_s=0.5) == 1.0
    with pytest.raises(ValueError):
        e2e_hostspeed.speed_factor(0.0, 1.0)


def test_reference_sample_is_a_positive_time():
    assert e2e_hostspeed.reference_s() > 0.0


def test_precision_bits():
    assert m.precision_bits(2.0 ** -17) == pytest.approx(17.0)
    assert m.precision_bits(0.0) == 64.0


# ----- spans ------------------------------------------------------------------------

def span(span_id, t0, t1, layer="x", tid=1, parent=None, name=None):
    return SpanRec(span_id=span_id, name=name or f"s{span_id}", layer=layer,
                   tid=tid, t0=t0, t1=t1, parent=parent)


def test_build_tree_nests_by_containment_on_synchronous_threads():
    spans = [
        span(1, 0.0, 10.0, layer="bench"),
        span(2, 1.0, 9.0, layer="executor", parent=1),
        # the executor's node span and an evaluator call inside it, both
        # explicitly parented to the executor span
        span(3, 2.0, 5.0, layer="executor", parent=2),
        span(4, 2.5, 4.5, layer="evaluator", parent=2),
        # an orphan opened deeper in the same thread
        span(5, 3.0, 4.0, layer="keyswitch"),
    ]
    roots = m.build_tree(spans)
    assert [r.span_id for r in roots] == [1]
    by_id = {s.span_id: s for s in spans}
    assert [c.span_id for c in by_id[2].children] == [3]
    assert [c.span_id for c in by_id[3].children] == [4]
    assert [c.span_id for c in by_id[4].children] == [5]


def test_build_tree_keeps_explicit_parents_on_async_threads():
    # Two concurrent jobs on an event loop interleave: containment would
    # put job B's child under job A.
    spans = [span(1, 0.0, 10.0, tid=9), span(2, 1.0, 12.0, tid=9),
             span(3, 2.0, 3.0, tid=9, parent=2),
             span(4, 2.5, 2.8, tid=5, parent=3)]
    m.build_tree(spans, async_tids={9})
    assert [c.span_id for c in spans[1].children] == [3]
    assert spans[0].children == []
    assert [c.span_id for c in spans[2].children] == [4]


def test_blocking_path_subtracts_children_from_self_time():
    root = span(1, 0.0, 10.0, layer="bench")
    queue = span(2, 0.0, 2.0, layer="scheduler")
    fast = span(3, 2.0, 5.0, layer="executor")     # concurrent, finished
    slow = span(4, 2.0, 9.0, layer="executor")     # blocked the root
    inner = span(5, 3.0, 7.0, layer="keyswitch")
    slow.children = [inner]
    root.children = [queue, fast, slow]
    path = m.blocking_path(root)
    names = [s.span_id for s, _ in path]
    assert 3 not in names
    assert sum(own for _, own in path) == pytest.approx(root.duration)
    rec = m.reconcile([root])
    assert rec.layer_self_s == pytest.approx(
        {"bench": 1.0, "scheduler": 2.0, "executor": 3.0, "keyswitch": 4.0})
    assert rec.residual_s == pytest.approx(1.0)
    assert rec.residual_ratio == pytest.approx(0.1)
    assert rec.negative == []


def test_reconcile_flags_children_outside_their_parent():
    root = span(1, 0.0, 1.0, layer="bench")
    root.children = [span(2, 0.0, 1.0), span(3, 0.5, 1.0)]
    root.children[0].children = [span(4, 0.0, 2.0)]
    assert m.reconcile([root]).negative


# ----- the contract with BENCHMARK.json -------------------------------------------

def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(e["name"], e["unit"]) for e in spec["end_to_end"]] \
        == list(m.END_TO_END)
    assert [(e["name"], e["unit"]) for e in spec["per_layer"]] \
        == list(m.PER_LAYER)
