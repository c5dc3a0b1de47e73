"""In-memory spans recorded around the program's public entry points.

The benchmark measures each layer from outside: :func:`install` wraps the
entry points of ``repro.experiments``, ``repro.sim``, ``repro.core``,
``repro.deploy``, ``repro.resilience`` and ``repro.obs`` for the length of
a traced pass and :meth:`Patches.restore` puts them back.  Nothing under ``src/``
changes.

Spans form a call tree.  Repeated calls under the same parent record with
the same name (the per-subframe engine stages, one ``controller.observe``
per uplink subframe) merge into one record that keeps its call count,
total duration, first start and last end, which keeps a traced pass to a
few thousand records instead of hundreds of thousands.  A record that ran
once is an ordinary span.

Self time is a span's duration minus the part covered by its child spans.
On one thread, sibling spans never overlap, so a record's self time is its
total minus its children's totals.  :func:`self_time` is the general
interval form, which also handles overlapping children (worker items of a
process pool running side by side under the parent's map call).
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

Interval = Tuple[float, float]


def covered(start: float, end: float, intervals: Iterable[Interval]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(a, start), min(b, end)) for a, b in intervals if b > start and a < end
    )
    total = 0.0
    run_start = run_end = None
    for a, b in clipped:
        if run_end is None or a > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = a, b
        else:
            run_end = max(run_end, b)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_time(start: float, end: float, children: Iterable[Interval]) -> float:
    """A span's duration minus the part its children cover.

    Children may nest inside one another or overlap; each instant of the
    span counts once.  Parts of a child outside the span are ignored.
    """
    return (end - start) - covered(start, end, children)


@dataclass
class Record:
    """One call-tree node: every call of ``name`` under one parent record."""

    name: str
    parent: int
    op: int
    start: float
    end: float = 0.0
    count: int = 0
    total: float = 0.0
    child_total: float = 0.0
    label: str = ""

    @property
    def self_s(self) -> float:
        return self.total - self.child_total

    def to_dict(self, index: int) -> Dict[str, object]:
        return {
            "id": index,
            "name": self.name,
            "parent": self.parent,
            "op": self.op,
            "label": self.label,
            "start": self.start,
            "end": self.end,
            "count": self.count,
            "total_s": self.total,
            "self_s": self.self_s,
        }


class Tracer:
    """A stack of open spans on the thread that created the tracer.

    Calls from other threads (the supervisor's heartbeat thread) are not
    recorded: they run beside the traced work, not inside it.
    """

    def __init__(self) -> None:
        self.records: List[Record] = []
        self._index: Dict[Tuple[int, int, str, str], int] = {}
        self._stack: List[int] = []
        self._thread = threading.get_ident()
        self.op = -1
        #: Free-form context for the current operation (the scheduler name
        #: of a comparison run); stamped on every record opened under it.
        self.label = ""

    def on_owner_thread(self) -> bool:
        return threading.get_ident() == self._thread

    def enter(self, name: str) -> Tuple[int, float]:
        parent = self._stack[-1] if self._stack else -1
        key = (self.op, parent, name, self.label)
        index = self._index.get(key)
        start = perf_counter()
        if index is None:
            index = len(self.records)
            self._index[key] = index
            self.records.append(
                Record(name, parent, self.op, start, label=self.label)
            )
        self._stack.append(index)
        return index, start

    def exit(self, index: int, start: float) -> None:
        end = perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span stack out of order: {popped} != {index}")
        record = self.records[index]
        duration = end - start
        record.end = end
        record.count += 1
        record.total += duration
        if record.parent >= 0:
            self.records[record.parent].child_total += duration

    def span(self, name: str) -> "_SpanContext":
        return _SpanContext(self, name)

    def write(self, path: Path) -> None:
        """Write every record as one JSON line (called once, at run end)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for index, record in enumerate(self.records):
                handle.write(json.dumps(record.to_dict(index)) + "\n")


class _SpanContext:
    __slots__ = ("tracer", "name", "index", "start")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_SpanContext":
        self.index, self.start = self.tracer.enter(self.name)
        return self

    def __exit__(self, *exc) -> None:
        self.tracer.exit(self.index, self.start)


# -- wrapping the program's entry points ------------------------------------


class Instruments:
    """What a traced pass collects besides spans: the live objects whose
    counters are read after the pass, and every inference result."""

    def __init__(self) -> None:
        self.providers: List[object] = []
        self.controllers: List[object] = []
        self.inference_results: List[object] = []


def _spanned(tracer: Tracer, name: str, original: Callable) -> Callable:
    def wrapper(*args, **kwargs):
        if not tracer.on_owner_thread():
            return original(*args, **kwargs)
        index, start = tracer.enter(name)
        try:
            return original(*args, **kwargs)
        finally:
            tracer.exit(index, start)

    return wrapper


class Patches:
    """Attribute replacements that :meth:`restore` undoes in reverse."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []

    def set(self, owner: object, attr: str, value: object) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap(self, tracer: Tracer, owner: object, attr: str, name: str) -> None:
        self.set(owner, attr, _spanned(tracer, name, getattr(owner, attr)))

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def install(tracer: Tracer, instruments: Instruments) -> Patches:
    """Wrap the public entry points each layer is measured at."""
    from repro.core.blueprint.inference import BlueprintInference
    from repro.core.controller import BLUController
    from repro.core.joint.provider import TopologyJointProvider
    from repro.core.measurement.estimator import AccessEstimator
    from repro.deploy import runner as deploy_runner
    from repro.experiments.build import ExperimentPlan
    from repro.obs import PhaseTimer
    from repro.obs.telemetry import TelemetryLog
    from repro.resilience.checkpoint import CheckpointStore
    from repro.sim.engine import CellSimulation
    from repro.sim.stages import PhaseTimerHooks

    patches = Patches()

    original_run_one = ExperimentPlan.run_one

    def run_one(plan, name, *args, **kwargs):
        tracer.label = name
        index, start = tracer.enter("experiments.run_one")
        try:
            return original_run_one(plan, name, *args, **kwargs)
        finally:
            tracer.exit(index, start)

    patches.set(ExperimentPlan, "run_one", run_one)

    # The engine's own phase_timer= argument installs PhaseTimerHooks; its
    # stage callbacks open and close one span per engine stage.
    original_init = CellSimulation.__init__

    def cell_init(sim, *args, **kwargs):
        if kwargs.get("phase_timer") is None:
            kwargs["phase_timer"] = PhaseTimer()
        index, start = tracer.enter("sim.cell_init")
        try:
            original_init(sim, *args, **kwargs)
        finally:
            tracer.exit(index, start)

    patches.set(CellSimulation, "__init__", cell_init)
    patches.wrap(tracer, CellSimulation, "run", "sim.run")

    original_stage_start = PhaseTimerHooks.on_stage_start
    original_stage_end = PhaseTimerHooks.on_stage_end
    open_stages: List[Tuple[int, float]] = []

    def on_stage_start(hooks, stage, ctx):
        open_stages.append(tracer.enter("sim.phase." + stage.phase))
        original_stage_start(hooks, stage, ctx)

    def on_stage_end(hooks, stage, ctx):
        original_stage_end(hooks, stage, ctx)
        tracer.exit(*open_stages.pop())

    patches.set(PhaseTimerHooks, "on_stage_start", on_stage_start)
    patches.set(PhaseTimerHooks, "on_stage_end", on_stage_end)

    patches.wrap(tracer, BLUController, "observe", "controller.observe")
    patches.wrap(tracer, AccessEstimator, "record_subframe", "measurement.record")
    patches.wrap(tracer, AccessEstimator, "to_transformed", "measurement.transform")

    original_infer = BlueprintInference.infer

    def infer(inference, *args, **kwargs):
        index, start = tracer.enter("blueprint.infer")
        try:
            result = original_infer(inference, *args, **kwargs)
        finally:
            tracer.exit(index, start)
        instruments.inference_results.append(result)
        return result

    patches.set(BlueprintInference, "infer", infer)

    for cls, store in (
        (TopologyJointProvider, instruments.providers),
        (BLUController, instruments.controllers),
    ):
        patches.set(cls, "__init__", _collecting(cls.__init__, store))

    # The campaign runner imported these by name; wrap them where it looks.
    patches.wrap(tracer, deploy_runner, "build_deployment", "deploy.build")
    patches.wrap(
        tracer, deploy_runner, "verify_partition", "deploy.verify_partition"
    )
    patches.wrap(
        tracer, deploy_runner, "supervised_map", "resilience.supervised_map"
    )
    patches.wrap(
        tracer, CheckpointStore, "save_payload", "resilience.checkpoint_save"
    )
    patches.wrap(tracer, TelemetryLog, "emit", "obs.telemetry_emit")
    return patches


def _collecting(original: Callable, store: List[object]) -> Callable:
    def init(obj, *args, **kwargs):
        original(obj, *args, **kwargs)
        store.append(obj)

    return init


# -- from records to per-layer metrics ----------------------------------------

#: Scheduler names the comparison spec runs; one schedule metric each.
SCHEDULERS = ("pf", "access-aware", "blu", "blu-perfect", "oracle")
STAGES = ("receive", "channels", "activity", "arrivals", "timeline", "feedback")

#: Span name -> per-layer metric holding its self time.
SELF_TIME_METRICS = {
    "experiments.run_one": "experiments.run_self_s",
    "sim.cell_init": "sim.cell_init_s",
    "sim.run": "sim.loop_self_s",
    **{f"sim.phase.{stage}": f"sim.{stage}_s" for stage in STAGES},
    "controller.observe": "controller.observe_self_s",
    "measurement.record": "measurement.record_s",
    "measurement.transform": "measurement.transform_s",
    "blueprint.infer": "blueprint.infer_s",
    "deploy.run_campaign": "deploy.campaign_self_s",
    "deploy.build": "deploy.build_s",
    "deploy.verify_partition": "deploy.verify_partition_s",
    "resilience.supervised_map": "resilience.supervisor_self_s",
    "resilience.checkpoint_save": "resilience.checkpoint_save_s",
    "obs.telemetry_emit": "obs.telemetry_emit_s",
}


def schedule_metric(scheduler: str) -> str:
    return f"sim.schedule_s.{scheduler}"


def self_times(records: Sequence[Record]) -> Dict[str, float]:
    """Per-layer self time summed over every record of each layer.

    The engine's schedule stage is split by the scheduler that ran it.
    Records of spans that belong to no named layer are left out; the
    caller reports them as the unattributed remainder.
    """
    totals: Dict[str, float] = {name: 0.0 for name in SELF_TIME_METRICS.values()}
    for scheduler in SCHEDULERS:
        totals[schedule_metric(scheduler)] = 0.0
    for record in records:
        if record.name == "sim.phase.schedule":
            metric = schedule_metric(record.label)
        else:
            metric = SELF_TIME_METRICS.get(record.name)
        if metric is None:
            continue
        totals[metric] = totals.get(metric, 0.0) + record.self_s
    return totals


def call_count(records: Sequence[Record], name: str) -> int:
    return sum(record.count for record in records if record.name == name)


def joint_counts(providers: Sequence[object]) -> Dict[str, float]:
    hits = sum(provider.cache_hits for provider in providers)
    misses = sum(provider.cache_misses for provider in providers)
    lookups = hits + misses
    return {
        "joint.cache_hits": hits,
        "joint.cache_misses": misses,
        "joint.cache_hit_ratio": hits / lookups if lookups else 0.0,
        "joint.cache_size": sum(provider.cache_size() for provider in providers),
    }


def inference_counts(results: Sequence[object]) -> Dict[str, int]:
    return {
        "blueprint.infer_calls": len(results),
        "blueprint.repair_starts": sum(len(r.outcomes) for r in results),
        "blueprint.repair_iterations": sum(
            outcome.iterations for r in results for outcome in r.outcomes
        ),
    }


def measurement_subframes(controllers: Sequence[object]) -> int:
    return sum(c.measurement_subframes_used for c in controllers)


def unattributed(wall_s: float, layer_self_s: Dict[str, float]) -> float:
    """The part of a traced pass no named layer accounts for."""
    return wall_s - sum(layer_self_s.values())


def kernel_in_use() -> Optional[bool]:
    """Whether the compiled greedy scheduling kernel is loaded; ``None`` if
    the program no longer has that (private) module."""
    import importlib

    try:
        module = importlib.import_module("repro.core.scheduling._kernel")
    except ImportError:
        return None
    probe = getattr(module, "kernel_available", None)
    return bool(probe()) if callable(probe) else None
