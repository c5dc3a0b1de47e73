"""The channel-duty-drift timeline composes with the channel axis."""

import pytest

from repro.errors import ConfigurationError, SpecError
from repro.experiments import ExperimentSpec, run_experiment
from repro.topology.scenarios import channel_drift_timeline
from tests.golden.cases import channel_drift_spec
from tests.golden.test_golden_corpus import load_corpus


class TestTimelineBuilder:
    def test_targets_only_the_channel_homed_terminals(self):
        timeline = channel_drift_timeline(
            drift_at=100, channel=1, q=0.8, terminal_channels=(0, 1, 1)
        )
        labels = sorted(event.label for event in timeline.events)
        assert labels == ["ht1", "ht2"]

    def test_staircase_needs_q_start(self):
        with pytest.raises(ConfigurationError, match="q_start"):
            channel_drift_timeline(
                drift_at=100,
                channel=0,
                q=0.8,
                terminal_channels=(0,),
                steps=3,
            )

    def test_empty_channel_rejected(self):
        with pytest.raises(ConfigurationError, match="no hidden terminal"):
            channel_drift_timeline(
                drift_at=100, channel=2, q=0.8, terminal_channels=(0, 1)
            )


class TestComposesWithChannels:
    def test_runs_end_to_end_and_paths_agree(self):
        # The experiment runner and the corpus case (a bare engine built
        # from the same spec) must both give the committed output.
        result = run_experiment(channel_drift_spec())["pf"]
        assert result.to_dict() == load_corpus()["drift/channel-duty"]

    def test_round_trips_through_json(self):
        spec = channel_drift_spec()
        assert ExperimentSpec.from_json(spec.to_json()) == spec

    def test_unknown_timeline_param_is_spec_error(self):
        spec = channel_drift_spec()
        payload = spec.to_dict()
        payload["timeline"]["params"]["bogus"] = 1
        with pytest.raises((SpecError, ConfigurationError)):
            run_experiment(ExperimentSpec.from_dict(payload))
