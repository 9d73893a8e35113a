"""Self-tests for the benchmark's own measurement helpers."""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from common import (Outcome, RequestPlan, Span, StepResult,  # noqa: E402
                    Tracer, attribute, backlog_growing, concurrent_excess,
                    highest_supported, layer_table, max_rate, overdrawn,
                    percentile, poisson_schedule, self_times)


@pytest.mark.parametrize("count, expected", [
    (9, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0),
    (999, 90.0), (1000, 99.0), (10000, 99.9)])
def test_highest_percentile_keeps_ten_samples_beyond(count, expected):
    assert highest_supported(count) == expected


def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile([7.0], 99) == 7.0


def test_open_loop_latency_counts_from_due_time():
    outcome = Outcome(due=1.0, sent=1.25, done=1.30, ok=True)
    assert outcome.latency_ms == pytest.approx(300.0)
    assert outcome.lag_ms == pytest.approx(250.0)


def test_poisson_schedule_offers_exactly_the_rate():
    due = poisson_schedule(20.0, 100, np.random.default_rng(3))
    assert len(due) == 100 and due[0] == 0.0
    assert all(b >= a for a, b in zip(due, due[1:]))
    assert due[-1] < 100 / 20.0
    again = poisson_schedule(20.0, 100, np.random.default_rng(3))
    assert again == due


def test_poisson_schedule_keeps_the_short_gap_share_across_seeds():
    def short_gaps(seed):
        due = poisson_schedule(6.0, 100, np.random.default_rng(seed))
        return sum(b - a < 0.035 for a, b in zip(due, due[1:]))

    counts = {short_gaps(seed) for seed in range(20)}
    assert max(counts) - min(counts) <= 2


def test_backlog_growth_is_detected():
    assert not backlog_growing([2.0, 0.0, 5.0, 1.0] * 25, 100.0)
    assert backlog_growing([float(i) * 2 for i in range(100)], 100.0)


def _step(rate, latency_ms, ok=True, lag_ms=0.0):
    step = StepResult(rate)
    for i in range(100):
        due = i / rate
        step.outcomes.append(Outcome(due, due + lag_ms / 1e3,
                                     due + latency_ms(i) / 1e3, ok))
    return step


def test_ladder_interpolates_between_pass_and_latency_miss():
    steps = [_step(10, lambda i: 50), _step(15, lambda i: 80),
             _step(22, lambda i: 150)]
    assert max_rate(steps, 100.0) == pytest.approx(15 + 20 / 70 * 7)


def test_ladder_stops_at_errors_and_backlog_without_interpolating():
    failed = _step(22, lambda i: 90, ok=False)
    assert max_rate([_step(10, lambda i: 50), failed], 100.0) == 10
    behind = _step(22, lambda i: 3 * i)          # sender falls behind
    behind.outcomes = [Outcome(o.due, o.due + (o.done - o.due) * 0.9,
                               o.done, True) for o in behind.outcomes]
    assert max_rate([_step(10, lambda i: 50), behind], 100.0) == 10


def test_ladder_edges():
    assert max_rate([_step(10, lambda i: 500)], 100.0) == 0.0
    assert max_rate([_step(10, lambda i: 5), _step(20, lambda i: 9)],
                    100.0) == 20


def _tree():
    return [Span(1, "root", None, None, 0.0, 10.0),
            Span(2, "a", 1, 1, 1.0, 4.0),
            Span(3, "leaf", 2, 1, 2.0, 3.0),
            Span(4, "b", 1, 2, 5.0, 9.0)]


def test_self_time_subtracts_children():
    selfs = self_times(_tree())
    assert selfs == pytest.approx({1: 3.0, 2: 2.0, 3: 1.0, 4: 4.0})
    assert sum(selfs.values()) == pytest.approx(10.0)
    assert concurrent_excess(_tree()) == 0.0


def test_overlapping_children_are_counted_once_in_the_parent():
    spans = [Span(1, "root", None, None, 0.0, 10.0),
             Span(2, "req", 1, 1, 1.0, 6.0),
             Span(3, "req", 1, 2, 4.0, 8.0)]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(3.0)
    excess = concurrent_excess(spans)
    assert excess == pytest.approx(2.0)
    assert sum(selfs.values()) - excess == pytest.approx(10.0)
    assert layer_table(spans)["req"] == pytest.approx(
        {"calls": 2, "busy_s": 9.0, "self_s": 9.0})


def test_attribute_closes_the_accounting():
    values, unattributed, concurrent = attribute(
        _tree(), {"a": "layer.a", "leaf": "layer.leaf", "b": "layer.a"},
        {"layer.a": 0.5})
    assert values == pytest.approx({"layer.a": 5.5, "layer.leaf": 1.0})
    assert unattributed == pytest.approx(3.0)
    assert sum(values.values()) + 0.5 + unattributed - concurrent == (
        pytest.approx(10.0))


def test_attribution_that_moves_too_much_is_overdrawn():
    moved = {"layer.leaf": 1.5, "layer.a": 0.5}
    values, _, _ = attribute(
        _tree(), {"a": "layer.a", "leaf": "layer.leaf", "b": "layer.a"},
        moved)
    assert overdrawn(values, moved) == ["layer.leaf"]
    assert overdrawn(values, {"layer.a": 0.5}) == []


def test_request_plan_repeats_a_fixed_share():
    plan = RequestPlan(np.random.default_rng(5), 4, 64).next(400)
    for first in range(4, 400, 4):
        assert sum(repeat for _, repeat in plan[first:first + 4]) == 1
    for index, (item, repeat) in enumerate(plan):
        earlier = [i for i, _ in plan[max(0, index - 64):index]]
        assert (item in earlier) if repeat else (item not in earlier)


def test_tracer_links_parents_and_inherits_groups():
    tracer = Tracer()
    with tracer.span("root") as root:
        with tracer.span("op", group=7) as op:
            with tracer.span("inner") as inner:
                pass
        with tracer.span("sibling", parent=root):
            pass
    assert op.parent == root.id and inner.parent == op.id
    assert inner.group == 7 and root.group is None
    assert all(s.end >= s.start for s in tracer.spans)
    assert len(tracer.spans) == 4


def test_op_counts_follow_conv_shapes():
    pytest.importorskip("repro.nn")
    from opcount import OpCounter
    from repro.nn.layers import Conv2d

    layer = Conv2d(4, 8, kernel=4, stride=2, pad=1)
    counter = OpCounter(layer)
    layer.forward(np.zeros((2, 4, 8, 8), np.float32))
    # M = 8 outputs, K = 4 * 4 * 4, N = 4 * 4 positions, per sample.
    assert counter.flops == 2 * (2 * 8 * 64 * 16)
    assert counter.bytes == 2 * 4 * (64 * 16 + 8 * 64 + 8 * 16)
    counter.detach()
    assert "forward" not in vars(layer)
