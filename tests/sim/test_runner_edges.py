"""Edge cases of the process-pool job mapper under ``sim.runner``.

The parallel contract: every work item carries its own seed, so worker
count can never change a result; unpicklable items degrade to serial with
a warning instead of crashing mid-pool.
"""

import os
import warnings

import pytest

from repro.core.scheduling.oracle import OracleScheduler
from repro.core.scheduling.pf import ProportionalFairScheduler
from repro.errors import ConfigurationError
from repro.resilience.supervisor import resolve_jobs
from repro.sim.config import SimulationConfig
from repro.sim.runner import (
    map_jobs,
    run_comparison,
    run_replications,
)
from repro.topology.scenarios import (
    testbed_topology as make_testbed_topology,
    uniform_snrs,
)


def _square(x: int) -> int:
    return x * x


class TestResolveNJobs:
    def test_none_means_serial(self):
        assert resolve_jobs(None) == 1

    def test_minus_one_means_all_cores(self):
        assert resolve_jobs(-1) == (os.cpu_count() or 1)

    def test_explicit_counts_pass_through(self):
        assert resolve_jobs(1) == 1
        assert resolve_jobs(3) == 3

    def test_zero_and_negative_rejected(self):
        for bad in (0, -2):
            with pytest.raises(ConfigurationError, match="n_jobs"):
                resolve_jobs(bad)


class TestMapJobs:
    def test_serial_and_parallel_agree(self):
        items = list(range(8))
        assert map_jobs(_square, items, 1) == map_jobs(_square, items, 4)

    def test_order_preserved(self):
        assert map_jobs(_square, [3, 1, 2], 2) == [9, 1, 4]

    def test_empty_items(self):
        assert map_jobs(_square, [], 4) == []

    def test_unpicklable_items_fall_back_to_serial_with_warning(self):
        items = [lambda: 1, lambda: 2]
        with pytest.warns(RuntimeWarning, match="not picklable"):
            results = map_jobs(lambda f: f(), items, 2)
        assert results == [1, 2]

    def test_picklable_items_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            map_jobs(_square, [1, 2, 3], 2)


class TestRunnerParallelEquivalence:
    def _cell(self):
        topology = make_testbed_topology(4, hts_per_ue=1, activity=0.4, seed=3)
        snrs = uniform_snrs(4, seed=2)
        return topology, snrs

    def test_comparison_parallel_matches_serial(self):
        topology, snrs = self._cell()
        factories = {"pf": ProportionalFairScheduler, "oracle": OracleScheduler}
        config = SimulationConfig(num_subframes=150)
        serial = run_comparison(topology, snrs, factories, config, seed=5, n_jobs=1)
        parallel = run_comparison(topology, snrs, factories, config, seed=5, n_jobs=2)
        for name in factories:
            assert (
                serial[name].delivered_bits_by_ue
                == parallel[name].delivered_bits_by_ue
            )

    def test_lambda_factories_still_parallel_correct_via_fallback(self):
        # Lambda factories cannot cross a process boundary; the run must
        # still complete (serially) with identical results.
        topology, snrs = self._cell()
        factories = {
            "pf": lambda: ProportionalFairScheduler(),
            "oracle": lambda: OracleScheduler(),
        }
        config = SimulationConfig(num_subframes=100)
        serial = run_comparison(topology, snrs, factories, config, seed=5, n_jobs=1)
        with pytest.warns(RuntimeWarning, match="not picklable"):
            fallback = run_comparison(
                topology, snrs, factories, config, seed=5, n_jobs=2
            )
        for name in factories:
            assert (
                serial[name].delivered_bits_by_ue
                == fallback[name].delivered_bits_by_ue
            )

    def test_replications_parallel_matches_serial(self):
        topology, snrs = self._cell()
        kwargs = dict(
            scheduler_factories={"pf": ProportionalFairScheduler},
            config=SimulationConfig(num_subframes=100),
            seeds=(0, 1, 2),
            metrics=("throughput_mbps",),
        )
        serial = run_replications(topology, snrs, n_jobs=1, **kwargs)
        parallel = run_replications(topology, snrs, n_jobs=2, **kwargs)
        assert serial["pf"]["throughput_mbps"].mean == pytest.approx(
            parallel["pf"]["throughput_mbps"].mean
        )
        assert serial["pf"]["throughput_mbps"].std == pytest.approx(
            parallel["pf"]["throughput_mbps"].std
        )
