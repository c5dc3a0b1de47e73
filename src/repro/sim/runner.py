"""Experiment runner: matched-conditions scheduler comparisons and sweeps.

Fair comparison requires every scheduler to face the *same* interference
realization and the same fading sample paths.  The runner achieves this by
re-seeding the simulation identically for each scheduler (activity, fading
and eNB-CCA randomness all derive from the one seed).

These are thin live-object wrappers (topologies and scheduler factories
instead of a spec) around the batch executor and aggregator the spec
runners in :mod:`repro.experiments.build` use.  Every entry point accepts
``n_jobs``: each (scheduler, seed, sweep-point) run is an independent,
fully seeded work item, so the runner can fan them out over a process
pool without touching the matched-seed contract — a parallel run returns
results identical to ``n_jobs=1``.  Work items that cannot be pickled
(e.g. lambda scheduler factories) make the runner fall back to serial
execution with a warning.
"""

from __future__ import annotations

import pickle
import warnings
from dataclasses import dataclass
from typing import (
    Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple,
)

import numpy as np

from repro.core.scheduling.base import UplinkScheduler
from repro.errors import ConfigurationError
from repro.resilience.supervisor import FailedItem, resolve_jobs, supervised_map
from repro.sim.config import SimulationConfig
from repro.sim.engine import CellSimulation
from repro.sim.results import SimulationResult
from repro.topology.graph import InterferenceTopology

__all__ = [
    "SchedulerFactory",
    "SweepPoint",
    "ReplicatedMetric",
    "map_jobs",
    "replicate_metrics",
    "run_comparison",
    "run_replications",
    "run_sweep",
    "gain_over",
]

#: A factory is called once per run so stateful schedulers start fresh.
SchedulerFactory = Callable[[], UplinkScheduler]

#: One fully self-contained simulation run, picklable when its members are:
#: (topology, mean_snr_db, factory, config, seed, record_series,
#:  activity_model_factory, timeline).
_WorkItem = Tuple[
    InterferenceTopology,
    Mapping[int, float],
    SchedulerFactory,
    SimulationConfig,
    Optional[int],
    bool,
    Optional[Callable[[np.random.Generator], object]],
    Optional[object],
]


def _run_single(work: _WorkItem) -> SimulationResult:
    """Execute one work item; module-level so it pickles into workers."""
    (
        topology,
        mean_snr_db,
        factory,
        config,
        seed,
        record_series,
        activity_model_factory,
        timeline,
    ) = work
    model = (
        activity_model_factory(np.random.default_rng(seed))
        if activity_model_factory is not None
        else None
    )
    simulation = CellSimulation(
        topology=topology,
        mean_snr_db=mean_snr_db,
        scheduler=factory(),
        config=config,
        activity_model=model,
        seed=seed,
        record_series=record_series,
        timeline=timeline,
    )
    return simulation.run()


def map_jobs(fn, items: Sequence, n_jobs: Optional[int]) -> List:
    """Map ``fn`` over independent work items, serially or in a process
    pool, preserving order.

    Each item must be self-contained (carry its own seed), so execution
    order cannot affect any result; parallel output is identical to
    serial.  Items that cannot pickle trigger a serial fallback with a
    ``RuntimeWarning`` (probing the first item only — per-item pickling
    errors in a heterogeneous batch surface through the supervisor as
    that item's failure).  Execution is strict — no retries, no
    timeout, the first failure re-raises
    (:func:`repro.resilience.supervised_map` in fail-fast mode).
    """
    jobs = resolve_jobs(n_jobs)
    if jobs > 1 and len(items) > 1:
        try:
            pickle.dumps(items[0])
        except Exception as error:  # noqa: BLE001 - any pickling failure
            warnings.warn(
                "work items are not picklable (typically lambda scheduler "
                "factories or closures); falling back to serial execution "
                f"(pickle said: {error})",
                RuntimeWarning,
                stacklevel=3,
            )
            jobs = 1
    return supervised_map(fn, items, n_jobs=jobs, fail_fast=True).results


def _run_grid(
    topology, mean_snr_db, scheduler_factories, config, seeds, n_jobs,
    record_series=False, activity_model_factory=None, timeline=None,
) -> List[Tuple[str, Optional[int], SimulationResult]]:
    """Every (scheduler, seed) run as one flat batch, seed-major, as
    ``(name, seed, result)`` triples — the live-object counterpart of
    :func:`~repro.experiments.build.run_experiment_grid`."""
    config = SimulationConfig() if config is None else config
    cells = [(name, seed) for seed in seeds for name in scheduler_factories]
    items: List[_WorkItem] = [
        (topology, mean_snr_db, scheduler_factories[name], config, seed,
         record_series, activity_model_factory, timeline)
        for name, seed in cells
    ]
    results = map_jobs(_run_single, items, n_jobs)
    return [(name, seed, result) for (name, seed), result in zip(cells, results)]


def run_comparison(
    topology: InterferenceTopology,
    mean_snr_db: Mapping[int, float],
    scheduler_factories: Mapping[str, SchedulerFactory],
    config: Optional[SimulationConfig] = None,
    seed: Optional[int] = 0,
    record_series: bool = False,
    activity_model_factory: Optional[Callable[[np.random.Generator], object]] = None,
    n_jobs: Optional[int] = 1,
    timeline: Optional[object] = None,
) -> Dict[str, SimulationResult]:
    """Run every scheduler under identical conditions; return results by name.

    ``activity_model_factory(rng)`` may supply a joint hidden-terminal
    activity model (e.g. contention-coupled); it is rebuilt from the same
    seed for every scheduler so all face one interference law.

    ``timeline`` (an :class:`~repro.dynamics.timeline.EnvironmentTimeline`)
    scripts mid-run environment churn; every scheduler faces the same
    events (each run binds its own fresh timeline runtime).

    ``n_jobs`` fans the schedulers out over worker processes (``-1`` for
    all cores); results are identical to the serial run.
    """
    if not scheduler_factories:
        raise ConfigurationError("no schedulers to compare")
    grid = _run_grid(
        topology, mean_snr_db, scheduler_factories, config, [seed], n_jobs,
        record_series, activity_model_factory, timeline,
    )
    return {name: result for name, _seed, result in grid}


@dataclass
class SweepPoint:
    """One point of a parameter sweep."""

    parameter: object
    results: Dict[str, SimulationResult]


def run_sweep(
    parameter_values: Sequence[object],
    build_case: Callable[[object], tuple],
    scheduler_factories_for: Callable[
        [object, InterferenceTopology], Mapping[str, SchedulerFactory]
    ],
    config_for: Callable[[object], SimulationConfig],
    seed: Optional[int] = 0,
    n_jobs: Optional[int] = 1,
) -> List[SweepPoint]:
    """Sweep a parameter; at each value build (topology, snrs), run all
    schedulers, and collect the results.

    ``build_case(value) -> (topology, mean_snr_db)``.  Cases and factories
    are built in the parent process; with ``n_jobs > 1`` the individual
    (sweep point, scheduler) runs fan out over workers in one flat batch,
    so parallelism helps even when one end of the sweep is much heavier
    than the other.
    """
    labelled: List[Tuple[int, str]] = []
    items: List[_WorkItem] = []
    points: List[SweepPoint] = []
    for index, value in enumerate(parameter_values):
        topology, snrs = build_case(value)
        factories = scheduler_factories_for(value, topology)
        config = config_for(value)
        points.append(SweepPoint(parameter=value, results={}))
        for name, factory in factories.items():
            labelled.append((index, name))
            items.append(
                (topology, snrs, factory, config, seed, False, None, None)
            )
    results = map_jobs(_run_single, items, n_jobs)
    for (index, name), result in zip(labelled, results):
        points[index].results[name] = result
    return points


@dataclass
class ReplicatedMetric:
    """Mean and standard deviation of one metric across seeds."""

    mean: float
    std: float
    samples: int

    def __repr__(self) -> str:  # pragma: no cover - display aid
        return f"{self.mean:.3f} ± {self.std:.3f} (n={self.samples})"


def run_replications(
    topology: InterferenceTopology,
    mean_snr_db: Mapping[int, float],
    scheduler_factories: Mapping[str, SchedulerFactory],
    config: Optional[SimulationConfig] = None,
    seeds: Sequence[int] = (0, 1, 2, 3, 4),
    metrics: Sequence[str] = ("throughput_mbps", "rb_utilization"),
    activity_model_factory: Optional[Callable[[np.random.Generator], object]] = None,
    n_jobs: Optional[int] = 1,
) -> Dict[str, Dict[str, ReplicatedMetric]]:
    """Repeat a comparison over several seeds; return mean ± std per metric.

    Single-seed comparisons are matched (every scheduler faces the same
    interference), but the headline gains still depend on the realization;
    replications quantify that spread for publication-grade claims.

    ``n_jobs`` fans the full (scheduler × seed) grid out over worker
    processes; every run keeps its assigned seed, so the matched-seed
    pairing and the aggregate statistics are identical to ``n_jobs=1``.
    """
    if not seeds:
        raise ConfigurationError("need at least one seed")
    grid = _run_grid(
        topology, mean_snr_db, scheduler_factories, config, seeds, n_jobs,
        activity_model_factory=activity_model_factory,
    )
    return replicate_metrics(grid, scheduler_factories, metrics)


def replicate_metrics(
    grid: Iterable[Tuple[str, object, object]],
    names: Iterable[str],
    metrics: Sequence[str],
) -> Dict[str, Dict[str, ReplicatedMetric]]:
    """Mean ± std of each summary metric per scheduler over a run grid.

    ``grid`` holds ``(scheduler_name, seed, result)`` triples; a
    :class:`~repro.resilience.FailedItem` (a cell the supervisor
    quarantined) contributes no sample, and a metric with no samples
    reports a NaN mean.
    """
    summaries: Dict[str, list] = {name: [] for name in names}
    for name, _seed, result in grid:
        if not isinstance(result, FailedItem):
            summaries[name].append(result.summary())

    def replicated(values) -> ReplicatedMetric:
        array = np.asarray(values, dtype=float)
        return ReplicatedMetric(
            mean=float(array.mean()) if len(array) else float("nan"),
            std=float(array.std(ddof=1)) if len(array) > 1 else 0.0,
            samples=len(array),
        )

    return {
        name: {
            metric: replicated([summary[metric] for summary in rows])
            for metric in metrics
        }
        for name, rows in summaries.items()
    }


def gain_over(
    results: Mapping[str, SimulationResult],
    candidate: str,
    baseline: str,
    metric: str = "throughput_mbps",
) -> float:
    """Ratio of a summary metric between two named results."""
    base = results[baseline].summary()[metric]
    cand = results[candidate].summary()[metric]
    if base == 0.0:
        return float("inf") if cand > 0 else 1.0
    return cand / base
