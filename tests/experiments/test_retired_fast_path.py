"""The engine has one substrate, so ``fast_path`` is no longer a spec field.

A spec or checkpoint manifest that still carries the key fails with the
unknown-field :class:`~repro.errors.SpecError`, which names it — a
checkpoint directory written before the field was retired cannot be
resumed.
"""

import json

import pytest

from repro.deploy import DeploymentSpec, PlacementSpec, run_campaign
from repro.deploy.runner import resume_campaign
from repro.errors import SpecError
from repro.experiments import (
    ExperimentSpec,
    ScenarioSpec,
    SchedulerSpec,
    resume_checkpoint,
    run_experiment_grid,
)
from repro.resilience.checkpoint import CheckpointStore
from repro.sim.config import SimulationConfig


def experiment_spec() -> ExperimentSpec:
    return ExperimentSpec(
        name="retired-field",
        scenario=ScenarioSpec(
            kind="testbed",
            params={"num_ues": 3, "hts_per_ue": 1, "activity": 0.4, "seed": 3},
            snr={"kind": "uniform", "seed": 2},
        ),
        sim=SimulationConfig(num_subframes=60),
        schedulers={"pf": SchedulerSpec("pf")},
        seed=5,
    )


def deployment_spec() -> DeploymentSpec:
    return DeploymentSpec(
        name="retired-field",
        placement=PlacementSpec("ppp", {"num_cells": 3, "area_m": 600.0}),
        ues_per_cell=2,
        wifi_per_cell=1,
        sim=SimulationConfig(num_subframes=40),
        seed=3,
    )


def add_fast_path_to_manifest(directory) -> None:
    path = CheckpointStore(directory).manifest_path
    manifest = json.loads(path.read_text())
    manifest["spec"]["fast_path"] = True
    path.write_text(json.dumps(manifest))


class TestSpecs:
    def test_experiment_spec_rejects_fast_path(self):
        data = experiment_spec().to_dict()
        assert "fast_path" not in data
        data["fast_path"] = True
        with pytest.raises(SpecError, match="fast_path"):
            ExperimentSpec.from_dict(data)

    def test_deployment_spec_rejects_fast_path(self):
        data = deployment_spec().to_dict()
        assert "fast_path" not in data
        data["fast_path"] = False
        with pytest.raises(SpecError, match="fast_path"):
            DeploymentSpec.from_dict(data)


class TestCheckpointManifests:
    def test_grid_manifest_with_fast_path_cannot_resume(self, tmp_path):
        directory = tmp_path / "grid"
        run_experiment_grid(experiment_spec(), [0], checkpoint_dir=directory)
        add_fast_path_to_manifest(directory)
        with pytest.raises(SpecError, match="fast_path"):
            resume_checkpoint(directory)

    def test_deploy_manifest_with_fast_path_cannot_resume(self, tmp_path):
        directory = tmp_path / "deploy"
        run_campaign(deployment_spec(), checkpoint_dir=directory)
        add_fast_path_to_manifest(directory)
        with pytest.raises(SpecError, match="fast_path"):
            resume_campaign(directory)
