"""Every workload at a tiny size: outputs, traced runs and exact counts."""

import pytest

import run
import spans
from workloads import WORKLOADS, Op, PassResult, pool_idle_s, pool_timing


def _options(name):
    return {"n_jobs": 1} if name == "campaign" else {}


def traced_pass(workload):
    tracer, instruments = spans.Tracer(), spans.Instruments()
    patches = spans.install(tracer, instruments)
    try:
        result = workload.run_pass(tracer=tracer, **_options(workload.name))
    finally:
        patches.restore()
    return result, tracer, instruments


def exact_counts(result, tracer, instruments):
    counts = {
        "subframes": result.subframes,
        "cells": spans.call_count(tracer.records, "sim.cell_init"),
        "checkpoint_writes": spans.call_count(
            tracer.records, "resilience.checkpoint_save"
        ),
        "measurement_subframes": spans.measurement_subframes(instruments.controllers),
    }
    joint = spans.joint_counts(instruments.providers)
    counts.update(hits=joint["joint.cache_hits"], misses=joint["joint.cache_misses"])
    counts.update(spans.inference_counts(instruments.inference_results))
    for name in ("resilience.checkpoint_bytes", "obs.telemetry_lines", "deploy.clusters"):
        counts[name] = result.counts.get(name)
    return counts


@pytest.fixture(params=list(WORKLOADS))
def workload(request, tmp_path):
    instance = WORKLOADS[request.param](3, "tiny", tmp_path)
    instance.prepare()
    return instance


def test_tiny_workload_runs_traced_and_untraced(workload):
    plain = workload.run_pass(**_options(workload.name))
    traced, tracer, _ = traced_pass(workload)
    assert plain.ops and all(op.error is None for op in plain.ops)
    assert [op.digest for op in traced.ops] == [op.digest for op in plain.ops]
    assert all(op.digest for op in plain.ops)
    assert workload.shape_failures(plain) == {}
    assert run.check_passes(workload, [plain, traced], default_seed=0) == {}

    layer_self = spans.self_times(tracer.records)
    remainder = spans.unattributed(traced.wall_s, layer_self)
    assert remainder >= 0.0
    assert sum(layer_self.values()) + remainder == pytest.approx(traced.wall_s)
    assert remainder < 0.5 * traced.wall_s


def test_exact_counts_repeat_for_a_seed(workload):
    first = exact_counts(*traced_pass(workload))
    second = exact_counts(*traced_pass(workload))
    assert first == second
    if workload.simulates:
        assert first["subframes"] > 0 and first["cells"] > 0
    if workload.name.startswith("compare"):
        assert first["hits"] > 0 and first["misses"] > 0
    if workload.name == "infer-corpus":
        assert first["blueprint.repair_iterations"] > 0
    if workload.name == "campaign":
        assert first["checkpoint_writes"] == first["deploy.clusters"]
        assert first["resilience.checkpoint_bytes"] > 0
        assert first["obs.telemetry_lines"] > 0


def test_changed_output_fails_the_check(workload):
    first = workload.run_pass(**_options(workload.name))
    second = workload.run_pass(**_options(workload.name))
    second.ops[0].digest = "0" * 16
    failures = run.check_passes(workload, [first, second], default_seed=0)
    assert set(failures) == {(1, second.ops[0].label)}


def test_default_seed_is_checked_against_recorded_digests(tmp_path):
    workload = WORKLOADS["compare-siso"](0, "full", tmp_path)
    result = PassResult(1.0, [Op("pf", 0.1, digest="not-the-recorded-one")])
    failures = run.check_passes(workload, [result], default_seed=0)
    assert failures[(0, "pf")] == "output differs from the recorded digest"


def test_pool_timing_starts_service_at_the_worker():
    events = [
        {"type": "campaign-started", "ts": 100.0},
        {"type": "item-started", "item": "cluster-0", "ts": 100.5},
        {"type": "item-started", "item": "cluster-1", "ts": 101.0},
        {"type": "heartbeat", "item": "cluster-1", "ts": 101.5},
        {"type": "item-done", "item": "cluster-0", "ts": 102.0, "elapsed_s": 2.0},
        # A retried item: service is the last attempt, queue wait the first.
        {"type": "item-started", "item": "cluster-1", "ts": 102.5},
        {"type": "item-done", "item": "cluster-1", "ts": 103.5, "elapsed_s": 3.5},
        {"type": "campaign-done", "ts": 104.0},
    ]
    timing = pool_timing(events)
    assert timing["cluster-0"] == {
        "start": 100.5, "end": 102.0, "service_s": 1.5, "queue_s": 0.5, "pid": None
    }
    assert timing["cluster-1"] == {
        "start": 102.5, "end": 103.5, "service_s": 1.0, "queue_s": 1.0, "pid": None
    }
    # Workers serve [100.5, 102.0] and [102.5, 103.5] of [100, 104].
    assert pool_idle_s(events, timing) == pytest.approx(1.5)
