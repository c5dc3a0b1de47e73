"""The stage-pipeline engine must reproduce its golden outputs exactly.

The golden corpus's ``snapshot/...`` cases (static, churn timeline,
MU-MIMO + HARQ + Markov activity) carry the outputs first recorded from
the monolithic pre-pipeline ``CellSimulation``.  These tests re-run the
scenarios through the staged pipeline — plain, with hooks, with a phase
timer, with an injected extra stage — and compare the full ``to_dict()``
dump, counters and per-UE delivered bits, field for field.  Any drift in
stage order, RNG stream consumption, or accounting shows up here as a
hard failure.
"""

import pytest

from repro.obs import PhaseTimer
from repro.sim.stages import (
    SimHooks,
    SubframePipeline,
    SubframeStage,
    build_subframe_pipeline,
)
from tests.golden.cases import CASES
from tests.golden.test_golden_corpus import load_corpus


def run_case(name, **engine_kwargs):
    return CASES[f"snapshot/{name}"](**engine_kwargs).run()


@pytest.fixture(scope="module")
def snapshots():
    corpus = load_corpus()
    return {
        key.split("/", 1)[1]: value
        for key, value in corpus.items()
        if key.startswith("snapshot/")
    }


class TestPreRefactorSnapshots:
    @pytest.mark.parametrize("case", ["static", "churn", "mumimo-harq"])
    def test_pipeline_reproduces_snapshot(self, snapshots, case):
        assert run_case(case).to_dict() == snapshots[case]


class TestHooksNeutrality:
    def test_hooks_cannot_change_results(self, snapshots):
        calls = {"start": 0, "end": 0, "subframe": 0}

        class Counting(SimHooks):
            def on_stage_start(self, stage, ctx):
                calls["start"] += 1

            def on_stage_end(self, stage, ctx):
                calls["end"] += 1

            def on_subframe_end(self, ctx):
                calls["subframe"] += 1

        result = run_case("static", hooks=Counting())
        assert result.to_dict() == snapshots["static"]
        assert calls["start"] == calls["end"] > 0
        assert calls["subframe"] == 600

    def test_phase_timer_rides_the_hook_seam(self, snapshots):
        timer = PhaseTimer()
        result = run_case("static", phase_timer=timer)
        assert result.to_dict() == snapshots["static"]
        for phase in ("activity", "channels", "schedule", "receive"):
            assert timer.count(phase) > 0

    def test_phase_timer_and_hooks_compose(self, snapshots):
        timer = PhaseTimer()
        seen = []

        class Names(SimHooks):
            def on_stage_end(self, stage, ctx):
                seen.append(stage.name)

        result = run_case("static", hooks=Names(), phase_timer=timer)
        assert result.to_dict() == snapshots["static"]
        assert "interference" in seen and "transmit-decode" in seen
        assert timer.count("channels") > 0


class TestPipelineShape:
    def test_stage_order_is_canonical(self):
        pipeline = build_subframe_pipeline()
        assert pipeline.stage_names() == (
            "timeline",
            "interference",
            "channels",
            "arrivals",
            "schedule",
            "transmit-decode",
            "harq-feedback",
        )

    def test_ul_only_stages_skip_idle_and_dl(self):
        pipeline = build_subframe_pipeline()
        ul_only = {"schedule", "transmit-decode", "harq-feedback"}
        for kind in ("idle", "dl"):
            names = {s.name for s in pipeline._by_kind[kind]}
            assert names.isdisjoint(ul_only)
        assert ul_only <= {s.name for s in pipeline._by_kind["ul"]}

    def test_custom_stage_rides_in_injected_pipeline(self, snapshots):
        # A pass-through observer stage added to the canonical pipeline
        # must not perturb results — the additive-extension contract.
        seen = []

        class Probe(SubframeStage):
            name = "probe"
            phase = "probe"

            def run(self, sim, ctx):
                seen.append((ctx.kind, ctx.subframe))

        base = build_subframe_pipeline()
        pipeline = SubframePipeline(list(base.stages) + [Probe()])
        result = run_case("static", pipeline=pipeline)
        assert result.to_dict() == snapshots["static"]
        assert len(seen) == 600
