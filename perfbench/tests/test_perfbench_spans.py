"""Self-time arithmetic, the span tree and the benchmark's statistics."""

import json
from pathlib import Path

import pytest

import run
import spans


@pytest.mark.parametrize(
    "children, expected",
    [
        ([], 10.0),
        ([(2.0, 4.0), (6.0, 7.0)], 7.0),
        # A grandchild nested inside a child covers nothing new.
        ([(2.0, 6.0), (3.0, 4.0)], 6.0),
        # Overlapping children (two pool workers side by side) count once.
        ([(1.0, 5.0), (3.0, 8.0)], 3.0),
        # A child reaching outside the span is clipped to it.
        ([(-2.0, 1.0), (9.0, 12.0)], 8.0),
        # Touching children leave no gap between them.
        ([(2.0, 4.0), (4.0, 6.0)], 6.0),
        # A child covering the whole span leaves no self time.
        ([(-1.0, 11.0), (2.0, 3.0)], 0.0),
    ],
)
def test_self_time(children, expected):
    assert spans.self_time(0.0, 10.0, children) == pytest.approx(expected)


def test_tracer_self_time_is_total_minus_children():
    tracer = spans.Tracer()
    with tracer.span("outer"):
        for _ in range(3):
            with tracer.span("inner"):
                with tracer.span("leaf"):
                    pass
    outer, inner, leaf = tracer.records
    assert (outer.count, inner.count, leaf.count) == (1, 3, 3)
    assert inner.parent == 0 and leaf.parent == 1
    assert outer.self_s == pytest.approx(outer.total - inner.total)
    assert inner.self_s == pytest.approx(inner.total - leaf.total)
    assert leaf.self_s == leaf.total
    roots = sum(r.total for r in tracer.records if r.parent < 0)
    assert sum(r.self_s for r in tracer.records) == pytest.approx(roots)


def test_tracer_keeps_operations_apart(tmp_path):
    tracer = spans.Tracer()
    for op in range(2):
        tracer.op = op
        with tracer.span("op"):
            pass
    assert [r.op for r in tracer.records] == [0, 1]
    tracer.write(tmp_path / "spans.jsonl")
    lines = (tmp_path / "spans.jsonl").read_text().splitlines()
    assert [json.loads(line)["op"] for line in lines] == [0, 1]


def test_tracer_rejects_out_of_order_exit():
    tracer = spans.Tracer()
    outer = tracer.enter("outer")
    tracer.enter("inner")
    with pytest.raises(RuntimeError):
        tracer.exit(*outer)


def test_schedule_stage_is_split_by_scheduler():
    tracer = spans.Tracer()
    for name in ("pf", "blu"):
        tracer.label = name
        with tracer.span("sim.phase.schedule"):
            pass
    times = spans.self_times(tracer.records)
    assert times["sim.schedule_s.pf"] > 0 and times["sim.schedule_s.blu"] > 0
    assert spans.unattributed(1.0, times) == pytest.approx(1.0 - sum(times.values()))


def test_tail_percentile_leaves_ten_beyond():
    values = list(range(1, 101))
    value, percentile = run.tail_percentile(values)
    assert percentile == 90 and value == 90
    assert sum(v > value for v in values) == 10
    value, percentile = run.tail_percentile(list(range(37)))
    assert sum(v > value for v in range(37)) >= 10
    assert run.tail_percentile([3.0, 1.0, 2.0]) == (3.0, 100)
    assert run.nearest_rank([1.0, 2.0, 3.0, 4.0], 50) == 2.0


def test_compare_items_are_whole_comparisons(tmp_path):
    from workloads import WORKLOADS, Op, PassResult

    # Items are the normalised times, not the raw ones.
    passes = [
        PassResult(9.0, [Op("pf", 9.0, norm_s=0.5), Op("blu", 9.0, norm_s=1.5)], norm_wall_s=2.0),
        PassResult(9.0, [Op("pf", 9.0, norm_s=1.0)], norm_wall_s=3.0),
    ]
    compare = WORKLOADS["compare-siso"](1, "tiny", tmp_path)
    corpus = WORKLOADS["infer-corpus"](1, "tiny", tmp_path)
    assert run.item_groups(compare, passes) == [[2.0, 3.0]]
    assert run.item_groups(corpus, passes) == [[0.5, 1.5], [1.0]]


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _, _ in run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (n, u) for n, u, _ in run.END_TO_END
    ]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    from workloads import WORKLOADS

    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
