"""The telemetry stream each checkpointed runner writes, pinned event by event.

Grid, sweep and deploy campaigns all open a checkpoint directory, resume
its finished cells, and narrate the run into ``telemetry.jsonl``.  These
tests pin that narration for a fresh run, a resume after cells were
deleted (a kill), and a resume after one cell was corrupted (which must
quarantine it and say so with a ``degraded`` event).  Wall-clock fields
(``ts``, ``pid``, ``elapsed_s``) and timer-driven ``heartbeat`` events are
stripped; everything else must match exactly.
"""

from pathlib import Path

import pytest

from repro.deploy import DeploymentSpec, PlacementSpec, run_campaign
from repro.experiments import (
    ExperimentSpec,
    ScenarioSpec,
    SchedulerSpec,
    resume_checkpoint,
    run_experiment_grid,
    run_experiment_sweep,
)
from repro.obs.telemetry import read_telemetry
from repro.resilience.checkpoint import CheckpointStore
from repro.sim.config import SimulationConfig

TIMING_FIELDS = ("ts", "pid", "elapsed_s")


def experiment(name: str, num_ues: int = 3) -> ExperimentSpec:
    return ExperimentSpec(
        name=name,
        scenario=ScenarioSpec(
            kind="testbed",
            params={
                "num_ues": num_ues, "hts_per_ue": 1, "activity": 0.4,
                "seed": 1,
            },
            snr={"kind": "uniform", "seed": 2},
        ),
        sim=SimulationConfig(num_subframes=60),
        schedulers={"pf": SchedulerSpec("pf"), "oracle": SchedulerSpec("oracle")},
        seed=0,
    )


def run_fresh(kind: str, checkpoint_dir: Path, telemetry_dir=None) -> None:
    if kind == "grid":
        run_experiment_grid(
            experiment("streams"), seeds=[0, 1],
            checkpoint_dir=checkpoint_dir, telemetry_dir=telemetry_dir,
        )
    elif kind == "sweep":
        run_experiment_sweep(
            [experiment("a"), experiment("b", num_ues=4)], parameters=[3, 4],
            checkpoint_dir=checkpoint_dir, telemetry_dir=telemetry_dir,
        )
    else:
        spec = DeploymentSpec(
            name="streams",
            placement=PlacementSpec("ppp", {"num_cells": 6, "area_m": 700.0}),
            ues_per_cell=2,
            wifi_per_cell=1,
            sim=SimulationConfig(num_subframes=40),
            seed=7,
        )
        run_campaign(
            spec, checkpoint_dir=checkpoint_dir, telemetry_dir=telemetry_dir
        )


#: Per kind: the campaign name, the extra ``campaign-started`` fields, the
#: item labels, and (deploy only) the cell count of each cluster.
RUNS = {
    "grid": ("streams", {}, ["pf@0", "oracle@0", "pf@1", "oracle@1"], None),
    "sweep": ("a", {}, ["3/pf", "3/oracle", "4/pf", "4/oracle"], None),
    "deploy": (
        "streams",
        {"clusters": 5, "cells": 6},
        [f"cluster-{i}" for i in range(5)],
        [1, 2, 1, 1, 1],
    ),
}


def expected_stream(kind, pending, notes=()):
    """The stripped events of one run that computes cells ``pending``;
    ``notes`` are the ``(index, note)`` of cells quarantined on resume."""
    campaign, extra, labels, cluster_cells = RUNS[kind]
    completed = [label for i, label in enumerate(labels) if i not in pending]
    started = {
        "type": "campaign-started", "campaign": campaign, "kind": kind,
        "labels": labels, **extra,
    }
    if completed:
        started["completed"] = completed
    events = [started]
    events += [
        {"type": "degraded", "item": labels[index], "note": note}
        for index, note in notes
    ]
    for index in pending:
        events.append(
            {"type": "item-started", "item": labels[index], "attempt": 0}
        )
        events.append(
            {"type": "item-done", "item": labels[index], "attempts": 1}
        )
        if cluster_cells is not None:
            events.append(
                {
                    "type": "cluster-done", "item": labels[index],
                    "cells": cluster_cells[index],
                }
            )
    events.append({"type": "campaign-done", "campaign": campaign})
    return events


def stripped(telemetry_dir: Path, checkpoint_dir: Path):
    events = []
    for event in read_telemetry(telemetry_dir):
        if event["type"] == "heartbeat":
            continue
        event = {k: v for k, v in event.items() if k not in TIMING_FIELDS}
        if "note" in event:
            event["note"] = event["note"].replace(str(checkpoint_dir), "<dir>")
        events.append(event)
    return events


KINDS = ("grid", "sweep", "deploy")


@pytest.mark.parametrize("kind", KINDS)
def test_fresh_run_stream(kind, tmp_path):
    run_fresh(kind, tmp_path / "ckpt", telemetry_dir=tmp_path / "tel")
    cells = len(RUNS[kind][2])
    assert stripped(tmp_path / "tel", tmp_path / "ckpt") == expected_stream(
        kind, pending=list(range(cells))
    )


@pytest.mark.parametrize("kind", KINDS)
def test_resume_after_kill_stream(kind, tmp_path):
    checkpoint_dir = tmp_path / "ckpt"
    run_fresh(kind, checkpoint_dir)
    store = CheckpointStore(checkpoint_dir)
    for index in (1, 3):
        store.cell_path(index).unlink()
    resume_checkpoint(checkpoint_dir, telemetry_dir=tmp_path / "tel")
    assert stripped(tmp_path / "tel", checkpoint_dir) == expected_stream(
        kind, pending=[1, 3]
    )


@pytest.mark.parametrize("kind", KINDS)
def test_resume_after_corruption_stream(kind, tmp_path):
    checkpoint_dir = tmp_path / "ckpt"
    run_fresh(kind, checkpoint_dir)
    CheckpointStore(checkpoint_dir).cell_path(2).write_text("{")
    resume_checkpoint(checkpoint_dir, telemetry_dir=tmp_path / "tel")
    note = (
        "checkpoint cell 2 quarantined and recomputed: corrupt checkpoint "
        "cell <dir>/cell-00002.json: Expecting property name enclosed in "
        "double quotes: line 1 column 2 (char 1)"
    )
    assert stripped(tmp_path / "tel", checkpoint_dir) == expected_stream(
        kind, pending=[2], notes=[(2, note)]
    )
