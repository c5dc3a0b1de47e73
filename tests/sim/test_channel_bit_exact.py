"""A 1-channel ChannelPlan must be invisible to the engine — bit-exactly.

The golden corpus's ``snapshot/...`` outputs were produced by the
channel-free engine.  These tests wrap each snapshot scenario's topology
in a :class:`MultiChannelTopology` over the default single-channel plan,
resolve the trivial all-on-channel-0 assignment through
``effective_topology``, and require the engine to reproduce the committed
results field for field.  Any RNG-stream or edge-ordering drift
introduced by the channel axis shows up here as a hard failure.
"""

import pytest

from repro.core.scheduling.pf import ProportionalFairScheduler
from repro.sim.engine import CellSimulation
from repro.spectrum import ChannelPlan
from repro.topology.multichannel import MultiChannelTopology
from tests.golden.cases import snapshot_scenarios
from tests.golden.test_golden_corpus import load_corpus


@pytest.fixture(scope="module")
def corpus():
    return load_corpus()


def run_channelized(name):
    for case, topology, snrs, config, timeline in snapshot_scenarios():
        if case != name:
            continue
        multi = MultiChannelTopology.from_base(topology, ChannelPlan.default())
        resolved = multi.effective_topology((0,) * topology.num_ues)
        assert resolved == topology
        return CellSimulation(
            topology=resolved,
            mean_snr_db=snrs,
            scheduler=ProportionalFairScheduler(),
            config=config,
            seed=11,
            timeline=timeline,
        ).run()
    raise KeyError(name)


class TestSingleChannelBitExact:
    @pytest.mark.parametrize("case", ["static", "churn", "mumimo-harq"])
    def test_reproduces_snapshot(self, corpus, case):
        result = run_channelized(case)
        assert result.to_dict() == corpus[f"snapshot/{case}"]
