"""Seeded regression tests: engine configurations reproduce the golden
corpus, and the parallel runner is bit-exact with serial execution.

The engine tests run the golden corpus's ``engine/...`` cases (SISO,
MU-MIMO, Markov activity, the SIC receiver, a custom silencer, and the
oracle's per-subframe rescheduling) and require the committed outputs
exactly.  The runner tests pin that ``n_jobs > 1`` returns results
identical to serial execution.
"""

import warnings

import numpy as np
import pytest

from repro.core.scheduling.oracle import OracleScheduler
from repro.core.scheduling.pf import ProportionalFairScheduler
from repro.lte.channel import UplinkChannel, UplinkChannelBank
from repro.obs import PhaseTimer, Stopwatch
from repro.sim.config import SimulationConfig
from repro.sim.engine import CellSimulation
from repro.sim.runner import run_comparison, run_replications, run_sweep
from repro.topology.scenarios import uniform_snrs
from repro.topology.scenarios import testbed_topology as make_testbed_topology
from tests.golden.cases import CASES, golden_dump
from tests.golden.test_golden_corpus import load_corpus


@pytest.fixture(scope="module")
def corpus():
    return load_corpus()


def run_golden(corpus, key):
    """Run one corpus case; require its committed output exactly."""
    result = CASES[key]().run()
    assert golden_dump(result) == corpus[key]
    return result


class TestFastPathEquivalence:
    def test_siso_bit_exact(self, corpus):
        result = run_golden(corpus, "engine/siso")
        assert result.grants_issued > 0 and result.grants_blocked > 0

    def test_mumimo_bit_exact(self, corpus):
        result = run_golden(corpus, "engine/mumimo")
        assert result.grants_decoded > 0

    def test_markov_activity_bit_exact(self, corpus):
        run_golden(corpus, "engine/markov")

    def test_sic_receiver_bit_exact(self, corpus):
        run_golden(corpus, "engine/sic")

    def test_silencer_bit_exact(self, corpus):
        run_golden(corpus, "engine/silencer")

    def test_reschedule_every_subframe_bit_exact(self, corpus):
        run_golden(corpus, "engine/oracle-every-subframe")

    def test_channel_bank_matches_scalar_channels(self):
        parent_a = np.random.default_rng(99)
        parent_b = np.random.default_rng(99)
        mean_rx = [-80.0, -72.5, -90.0]
        bank = UplinkChannelBank(mean_rx, num_rbs=6, rng=parent_a)
        channels = [
            UplinkChannel(
                rx, num_rbs=6,
                rng=np.random.default_rng(parent_b.integers(0, 2**63)),
            )
            for rx in mean_rx
        ]
        for _ in range(300):
            matrix = bank.step()
            for ue, channel in enumerate(channels):
                assert np.array_equal(matrix[ue], channel.step())


class TestParallelRunner:
    def setup_method(self):
        self.topology = make_testbed_topology(6, hts_per_ue=2, seed=5)
        self.snrs = uniform_snrs(self.topology.num_ues, seed=7)
        self.config = SimulationConfig(num_subframes=300, num_rbs=8)
        # Classes (not lambdas) so the work items pickle into workers.
        self.factories = {
            "pf": ProportionalFairScheduler,
            "oracle": OracleScheduler,
        }

    def test_comparison_parallel_identical(self):
        serial = run_comparison(
            self.topology, self.snrs, self.factories, self.config, seed=3
        )
        parallel = run_comparison(
            self.topology, self.snrs, self.factories, self.config, seed=3,
            n_jobs=2,
        )
        assert serial == parallel

    def test_replications_parallel_identical(self):
        serial = run_replications(
            self.topology, self.snrs, self.factories, self.config,
            seeds=(0, 1, 2),
        )
        parallel = run_replications(
            self.topology, self.snrs, self.factories, self.config,
            seeds=(0, 1, 2), n_jobs=2,
        )
        assert serial == parallel

    def test_sweep_parallel_identical(self):
        def build_case(value):
            topology = make_testbed_topology(4, hts_per_ue=value, seed=value)
            return topology, uniform_snrs(4, seed=1)

        def factories_for(value, topology):
            return {"pf": ProportionalFairScheduler}

        def config_for(value):
            return self.config

        serial = run_sweep([1, 2], build_case, factories_for, config_for, seed=5)
        parallel = run_sweep(
            [1, 2], build_case, factories_for, config_for, seed=5, n_jobs=2
        )
        assert [p.parameter for p in serial] == [p.parameter for p in parallel]
        assert [p.results for p in serial] == [p.results for p in parallel]

    def test_unpicklable_factories_fall_back_serially(self):
        lambdas = {
            "a": lambda: ProportionalFairScheduler(),
            "b": lambda: ProportionalFairScheduler(),
        }
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            results = run_comparison(
                self.topology, self.snrs, lambdas, self.config, seed=3, n_jobs=2
            )
        assert any("picklable" in str(w.message) for w in caught)
        reference = run_comparison(
            self.topology, self.snrs, lambdas, self.config, seed=3
        )
        assert results == reference


class TestPerfInstrumentation:
    def test_phase_timer_collects_engine_phases(self):
        topology = make_testbed_topology(4, hts_per_ue=1, seed=2)
        snrs = uniform_snrs(topology.num_ues, seed=2)
        config = SimulationConfig(num_subframes=200, num_rbs=6)
        timer = PhaseTimer()
        untimed = CellSimulation(
            topology, snrs, ProportionalFairScheduler(), config, seed=1
        ).run()
        timed = CellSimulation(
            topology, snrs, ProportionalFairScheduler(), config, seed=1,
            phase_timer=timer,
        ).run()
        assert timed == untimed  # instrumentation cannot change results
        for phase in ("activity", "channels", "schedule", "receive"):
            assert timer.count(phase) > 0
            assert timer.total_s(phase) >= 0.0
        assert set(dict(timer.as_dict())) >= {"activity", "channels"}

    def test_stopwatch_laps(self):
        watch = Stopwatch()
        with watch:
            pass
        with watch:
            pass
        assert len(watch.laps) == 2
        assert watch.total_s >= 0.0
        assert watch.last_s == watch.laps[-1]
        with pytest.raises(RuntimeError):
            watch.stop()
