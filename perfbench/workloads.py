"""The benchmark's four workloads.

Each workload makes its inputs from a seed before any clock starts, builds
the program once (the part of set-up the benchmark times in a fresh
process, see ``probe_setup.py``), then runs *passes*: one pass executes
every operation of the workload once, back to back, from this process.

* ``compare-siso`` — the committed ``specs/compare_testbed.json`` comparison
  (five schedulers, 8 UEs, SISO), run the way ``repro run-spec`` runs it;
  one operation per scheduler run.
* ``compare-mimo`` — the same five schedulers on a 16-UE, 4-antenna,
  20-RB variant (32 hidden terminals), where MU-MIMO over-scheduling
  moves the cost into the speculative scheduler and its joint tables.
* ``infer-corpus`` — a fig14-style corpus of testbed-style and generated
  topologies of 8 to 32 UEs; one operation feeds one pre-generated
  activity trace to ``AccessEstimator``, calls ``to_transformed`` and then
  ``BlueprintInference.infer``.
* ``campaign`` — a ``repro deploy``-style campaign over a 100-cell,
  1000-UE PPP deployment at ``n_jobs=2`` with obs, streaming, checkpoints
  and telemetry on; one operation per interference cluster, timed from
  the worker's ``item-started`` event to the parent's ``item-done``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import threading
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from spans import self_time

ROOT = Path(__file__).resolve().parent.parent
COMPARE_SPEC = ROOT / "specs" / "compare_testbed.json"

DEFAULT_SEED = 0
SCALES = ("full", "tiny")


# -- outcomes -------------------------------------------------------------------


@dataclass
class Op:
    """One timed operation of a pass."""

    label: str
    seconds: float
    digest: str = ""
    subframes: int = 0
    error: Optional[str] = None
    #: When it started, on ``clock`` (``"mono"``: ``perf_counter()``,
    #: ``"wall"``: ``time.time()``), and the process that ran it (``None``:
    #: the benchmark's own); ``norm_s`` is ``seconds`` at the reference
    #: core's speed (``hostspeed``), filled in after the run.
    start: float = 0.0
    clock: str = "mono"
    pid: Optional[int] = None
    norm_s: float = 0.0


@dataclass
class PassResult:
    """Everything one pass measured and produced."""

    wall_s: float
    ops: List[Op]
    #: Simulated results that repeat exactly for a seed (``blu_gain``,
    #: ``blueprint_accuracy``); the check reads them, the report prints them.
    quality: Dict[str, float] = field(default_factory=dict)
    #: Exact per-pass counts and per-layer figures the pass can see from
    #: outside without tracing (cluster shape, checkpoint and telemetry I/O,
    #: pool timing).
    counts: Dict[str, float] = field(default_factory=dict)
    #: Extra per-output digests that the check compares (campaign cells).
    cell_digests: Dict[str, str] = field(default_factory=dict)
    #: Peak RSS of the pool's worker processes during the pass, in kB.
    children_peak_kb: int = 0
    #: ``perf_counter()`` at the start of the pass, the processes whose
    #: speed stands for the pass's (``None``: the benchmark's own), and
    #: ``wall_s`` at the reference core's speed, filled in after the run.
    start: float = 0.0
    speed_pids: Optional[List[int]] = None
    norm_wall_s: float = 0.0

    @property
    def subframes(self) -> int:
        return sum(op.subframes for op in self.ops)


def digest_of(value: object) -> str:
    """A short stable hash of a JSON-able value (floats at full precision)."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def result_digest(result) -> str:
    """Digest of the fields a ``SimulationResult`` compares on equality;
    the observation payloads (``compare=False``) are left out."""
    return digest_of(
        {
            f.name: getattr(result, f.name)
            for f in dataclasses.fields(result)
            if f.compare
        }
    )


def _timed_op(label: str, run, describe) -> Tuple[Op, object]:
    """Run one operation; an exception fails it instead of the pass."""
    start = perf_counter()
    try:
        output = run()
    except Exception as error:  # noqa: BLE001 - one failed operation
        return Op(label, perf_counter() - start, error=repr(error), start=start), None
    seconds = perf_counter() - start
    return Op(label, seconds, start=start, **describe(output)), output


class Workload:
    """Inputs made from a seed, the program built from them, and passes."""

    name = ""
    #: Whether operations run the engine (and so count simulated subframes).
    simulates = True
    #: Whether ``item_*`` metrics time whole passes rather than operations.
    items_are_passes = False
    #: Passes a run makes even when they overrun ``--seconds``.
    min_passes = 2

    def __init__(self, seed: int, scale: str = "full", workdir: Optional[Path] = None):
        if scale not in SCALES:
            raise ValueError(f"unknown scale {scale!r}")
        self.seed = int(seed)
        self.scale = scale
        self.workdir = Path(workdir) if workdir is not None else None
        self.program = None

    # Set-up: ``setup_input`` is plain JSON written for the set-up probe;
    # ``build`` is the program's own construction, timed in that probe.
    def setup_input(self) -> dict:
        raise NotImplementedError

    @staticmethod
    def build(setup_input: dict):
        raise NotImplementedError

    def prepare(self) -> None:
        self.program = self.build(self.setup_input())

    def run_pass(self, tracer=None, **options) -> PassResult:
        raise NotImplementedError

    def shape_failures(self, result: PassResult) -> Dict[str, str]:
        """Checks that hold on every seed: ``{op label: reason}``."""
        return {}


# -- compare-siso / compare-mimo ----------------------------------------------


class Compare(Workload):
    """A scheduler comparison built from the committed testbed spec.

    Outputs are checked per scheduler run, but what a ``repro run-spec``
    user waits for is the whole comparison, so that is the timed item.
    """

    mimo = False
    items_are_passes = True

    def setup_input(self) -> dict:
        spec = json.loads(COMPARE_SPEC.read_text())
        # At the default seed this is the committed spec unchanged.
        spec["scenario"]["params"]["seed"] = self.seed
        spec["scenario"]["snr"]["seed"] = self.seed + 1
        spec["seed"] = self.seed
        if self.mimo:
            spec["name"] = "compare-testbed-16ues-mimo"
            spec["scenario"]["params"].update(num_ues=16, hts_per_ue=2)
            spec["sim"].update(num_antennas=4, num_rbs=20, num_subframes=1000)
        if self.scale == "tiny":
            spec["scenario"]["params"]["num_ues"] = 8
            spec["sim"]["num_subframes"] = 300 if not self.mimo else 100
        return spec

    @staticmethod
    def build(setup_input: dict):
        from repro.experiments import ExperimentSpec, build_experiment

        return build_experiment(ExperimentSpec.from_dict(setup_input))

    def run_pass(self, tracer=None, **options) -> PassResult:
        plan = self.program
        ops: List[Op] = []
        results = {}
        start = perf_counter()
        for index, name in enumerate(plan.spec.scheduler_names):
            if tracer is not None:
                tracer.op = index
            op, result = _timed_op(
                name, lambda: plan.run_one(name), lambda r: {"subframes": r.num_subframes}
            )
            ops.append(op)
            if result is not None:
                results[name] = result
        wall = perf_counter() - start
        for op in ops:
            if op.label in results:
                op.digest = result_digest(results[op.label])
        throughput = {
            name: result.aggregate_throughput_bps for name, result in results.items()
        }
        quality = {}
        if throughput.get("pf"):
            quality["blu_gain"] = throughput.get("blu", 0.0) / throughput["pf"]
        counts = {f"throughput_bps.{name}": value for name, value in throughput.items()}
        return PassResult(wall, ops, quality=quality, counts=counts, start=start)

    def shape_failures(self, result: PassResult) -> Dict[str, str]:
        throughput = {
            key.split(".", 1)[1]: value
            for key, value in result.counts.items()
            if key.startswith("throughput_bps.")
        }
        failures = {}
        oracle = throughput.get("oracle")
        for name, value in throughput.items():
            if oracle is not None and value > oracle:
                failures["oracle"] = f"oracle throughput below {name}'s"
        # Tiny runs end before BLU leaves its measurement phase.
        if self.scale == "full" and not result.quality.get("blu_gain", 0.0) > 1.0:
            failures["blu"] = f"blu_gain {result.quality.get('blu_gain')} is not > 1"
        return failures


class CompareSiso(Compare):
    name = "compare-siso"


class CompareMimo(Compare):
    name = "compare-mimo"
    mimo = True


# -- infer-corpus ---------------------------------------------------------------

#: (family, UEs) per corpus scenario.  Generated topologies vary most in
#: solver cost from seed to seed, so they stay small; testbed-style ones
#: cover 8 to 32 UEs.  Solver cost varies from seed to seed by a coefficient
#: of variation of about 0.05 at 16 testbed UEs and 0.13-0.28 elsewhere, so
#: fourteen 16-UE cases carry the item metrics: of 25 items, the median is
#: the 13th and the tail (p60, the highest percentile with 10 items beyond
#: it) the 15th, both inside that group.  They also damp the seed's effect
#: on the pass time, which the 24- and 32-UE cases dominate.
CORPUS = (
    tuple(("generated", n) for n in (8, 10, 12))
    + (("testbed", 8), ("testbed", 12))
    + (("testbed", 16),) * 14
    + (("testbed", 20),) * 4
    + (("testbed", 24), ("testbed", 32))
)
TINY_CORPUS = (("testbed", 6), ("generated", 6))
TRACE_SUBFRAMES = {"full": 2000, "tiny": 400}
ACCURACY_FLOOR = 0.75


@dataclass
class Scenario:
    label: str
    num_ues: int
    truth: object
    #: Per-subframe lists of the UEs that found the channel clear.
    trace: List[List[int]]


def _corpus_topology(family: str, num_ues: int, seed: int, index: int):
    from repro import ScenarioConfig, generate_scenario
    from repro.topology.scenarios import testbed_topology

    for attempt in range(100):
        sub_seed = int(np.random.SeedSequence([seed, index, attempt]).generate_state(1)[0])
        if family == "testbed":
            return sub_seed, testbed_topology(
                num_ues=num_ues, hts_per_ue=2, activity=0.3, seed=sub_seed
            )
        topology = generate_scenario(
            ScenarioConfig(num_ues=num_ues, num_wifi=num_ues), seed=sub_seed
        ).topology
        if topology.num_terminals > 0:
            return sub_seed, topology
    raise RuntimeError(f"no generated topology with hidden terminals: {num_ues} UEs")


def activity_trace(topology, subframes: int, seed: int) -> List[List[int]]:
    """Clear-channel UEs per subframe under independent terminal activity."""
    rng = np.random.default_rng(seed)
    edges = np.zeros((topology.num_terminals, topology.num_ues), dtype=np.int32)
    for k, ues in enumerate(topology.edges):
        edges[k, sorted(ues)] = 1
    active = (rng.random((subframes, topology.num_terminals)) < np.asarray(topology.q)).astype(np.int32)
    clear = (active @ edges) == 0
    return [np.flatnonzero(row).tolist() for row in clear]


class InferCorpus(Workload):
    name = "infer-corpus"
    simulates = False
    # One pass is most of a run; its 25 items carry the item metrics.
    min_passes = 1

    def __init__(self, seed: int, scale: str = "full", workdir: Optional[Path] = None):
        super().__init__(seed, scale, workdir)
        corpus = CORPUS if scale == "full" else TINY_CORPUS
        subframes = TRACE_SUBFRAMES[scale]
        self.scenarios: List[Scenario] = []
        for index, (family, num_ues) in enumerate(corpus):
            sub_seed, topology = _corpus_topology(family, num_ues, self.seed, index)
            self.scenarios.append(
                Scenario(
                    f"{index:02d}-{family}-{num_ues}ue",
                    num_ues,
                    topology,
                    activity_trace(topology, subframes, sub_seed),
                )
            )

    def setup_input(self) -> dict:
        return {"num_ues": [scenario.num_ues for scenario in self.scenarios]}

    @staticmethod
    def build(setup_input: dict):
        from repro import BlueprintInference, InferenceConfig
        from repro.core.measurement.estimator import AccessEstimator

        for num_ues in setup_input["num_ues"]:
            AccessEstimator(num_ues)
        return BlueprintInference(InferenceConfig(seed=0))

    def run_pass(self, tracer=None, **options) -> PassResult:
        from repro import edge_set_accuracy
        from repro.core.measurement.estimator import AccessEstimator

        inference = self.program

        def infer(scenario: Scenario):
            estimator = AccessEstimator(scenario.num_ues)
            everyone = tuple(range(scenario.num_ues))
            for accessed in scenario.trace:
                estimator.record_subframe(everyone, accessed)
            return inference.infer(estimator.to_transformed(z=3.0))

        ops: List[Op] = []
        outputs = {}
        start = perf_counter()
        for index, scenario in enumerate(self.scenarios):
            span = nullcontext()
            if tracer is not None:
                tracer.op = index
                span = tracer.span("corpus.scenario")
            with span:
                op, output = _timed_op(
                    scenario.label, lambda: infer(scenario), lambda _: {}
                )
            op.subframes = len(scenario.trace)
            ops.append(op)
            if output is not None:
                outputs[scenario.label] = output.topology
        wall = perf_counter() - start

        accuracy = {}
        for scenario, op in zip(self.scenarios, ops):
            topology = outputs.get(scenario.label)
            if topology is None:
                continue
            op.digest = digest_of(
                [topology.num_ues, sorted(sorted(ues) for ues in topology.edges)]
            )
            accuracy[scenario.label] = edge_set_accuracy(topology, scenario.truth)
        counts = {f"accuracy.{label}": value for label, value in accuracy.items()}
        counts.update(
            {f"num_ues.{label}": outputs[label].num_ues for label in outputs}
        )
        quality = {}
        if accuracy:
            quality["blueprint_accuracy"] = float(np.mean(list(accuracy.values())))
        return PassResult(wall, ops, quality=quality, counts=counts, start=start)

    def shape_failures(self, result: PassResult) -> Dict[str, str]:
        failures = {}
        by_label = {scenario.label: scenario for scenario in self.scenarios}
        for op in result.ops:
            scenario = by_label[op.label]
            accuracy = result.counts.get(f"accuracy.{op.label}")
            if accuracy is None:
                continue
            if result.counts[f"num_ues.{op.label}"] != scenario.num_ues:
                failures[op.label] = "blueprint covers the wrong number of UEs"
            elif not 0.0 <= accuracy <= 1.0:
                failures[op.label] = f"accuracy {accuracy} outside [0, 1]"
        mean = result.quality.get("blueprint_accuracy", 0.0)
        if self.scale == "full" and mean < ACCURACY_FLOOR:
            for op in result.ops:
                if result.counts.get(f"accuracy.{op.label}", 1.0) < ACCURACY_FLOOR:
                    failures.setdefault(
                        op.label, f"corpus mean accuracy {mean:.3f} < {ACCURACY_FLOOR}"
                    )
        return failures


# -- campaign ---------------------------------------------------------------------

CAMPAIGN_JOBS = 2


class ChildPeak:
    """Samples the peak RSS (``VmHWM``) of this process's children.

    ``getrusage(RUSAGE_CHILDREN)`` would also count unrelated children
    such as the compiler the program may start once; sampling the pool's
    workers while they live counts only them.
    """

    def __init__(self, interval_s: float = 0.25) -> None:
        self.interval_s = interval_s
        self.peaks: Dict[int, int] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _children(self) -> List[int]:
        pids: List[int] = []
        for task in Path(f"/proc/{os.getpid()}/task").iterdir():
            try:
                pids.extend(int(p) for p in (task / "children").read_text().split())
            except OSError:
                continue
        return pids

    def _sample(self) -> None:
        for pid in self._children():
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except OSError:
                continue
            for line in status.splitlines():
                if line.startswith("VmHWM:"):
                    kb = int(line.split()[1])
                    self.peaks[pid] = max(self.peaks.get(pid, 0), kb)

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            self._sample()

    def __enter__(self) -> "ChildPeak":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    @property
    def total_kb(self) -> int:
        return sum(self.peaks.values())


def pool_timing(events: Sequence[dict]) -> Dict[str, Dict[str, float]]:
    """Per-item service and queue time from a campaign's telemetry.

    Service runs from the worker's last ``item-started`` event to the
    parent's ``item-done``; queue wait from ``campaign-started`` to the
    first ``item-started``; ``pid`` is the worker's.
    ``item-done.elapsed_s`` is not used: the supervisor starts that clock
    when it submits the item, and it submits every item at once, so it
    includes the queue wait.
    """
    campaign_start = None
    first_start: Dict[str, float] = {}
    last_start: Dict[str, float] = {}
    pids: Dict[str, int] = {}
    timing: Dict[str, Dict[str, float]] = {}
    for event in events:
        kind = event.get("type")
        if kind == "campaign-started" and campaign_start is None:
            campaign_start = event["ts"]
        elif kind == "item-started":
            first_start.setdefault(event["item"], event["ts"])
            last_start[event["item"]] = event["ts"]
            pids[event["item"]] = event.get("pid")
        elif kind == "item-done" and event["item"] in last_start:
            item = event["item"]
            timing[item] = {
                "start": last_start[item],
                "end": event["ts"],
                "service_s": event["ts"] - last_start[item],
                "queue_s": first_start[item] - (campaign_start or first_start[item]),
                "pid": pids[item],
            }
    return timing


def pool_idle_s(events: Sequence[dict], timing: Dict[str, Dict[str, float]]) -> float:
    """Time from ``campaign-started`` to ``campaign-done`` in which no worker
    was serving a cluster: the campaign span's self time, its children
    being the (overlapping) service intervals of the workers."""
    stamps = {e["type"]: e["ts"] for e in events if e.get("type") in ("campaign-started", "campaign-done")}
    return self_time(
        stamps["campaign-started"],
        stamps["campaign-done"],
        [(t["start"], t["end"]) for t in timing.values()],
    )


def _dir_bytes(directory: Path) -> int:
    return sum(path.stat().st_size for path in directory.rglob("*") if path.is_file())


class Campaign(Workload):
    name = "campaign"

    def setup_input(self) -> dict:
        from repro.deploy import DeploymentSpec, PlacementSpec
        from repro.obs.config import ObsConfig
        from repro.sim.config import SimulationConfig

        cells, area, subframes = (100, 2800.0, 400) if self.scale == "full" else (8, 800.0, 60)
        return DeploymentSpec(
            name="perfbench-campaign",
            placement=PlacementSpec("ppp", {"num_cells": cells, "area_m": area}),
            ues_per_cell=10,
            wifi_per_cell=2,
            sim=SimulationConfig(num_subframes=subframes),
            seed=self.seed,
            obs=ObsConfig(enabled=True, stream=True),
        ).to_dict()

    @staticmethod
    def build(setup_input: dict):
        from repro.deploy import DeploymentSpec, build_deployment

        spec = DeploymentSpec.from_dict(setup_input)
        build_deployment(spec)
        return spec

    def run_pass(self, tracer=None, n_jobs: int = CAMPAIGN_JOBS, **options) -> PassResult:
        from repro.deploy import run_campaign
        from repro.obs.telemetry import TELEMETRY_FILENAME, read_telemetry

        spec = self.program
        rundir = self.workdir / "campaign"
        shutil.rmtree(rundir, ignore_errors=True)
        checkpoint_dir = rundir / "checkpoint"
        telemetry_dir = rundir / "telemetry"
        peak = ChildPeak()
        around = peak
        if tracer is not None:
            tracer.op, tracer.label = 0, spec.scheduler.kind
            around = tracer.span("deploy.run_campaign")
        start = perf_counter()
        with around:
            outcome = run_campaign(
                spec,
                n_jobs=n_jobs,
                checkpoint_dir=checkpoint_dir,
                telemetry_dir=telemetry_dir,
            )
        wall = perf_counter() - start

        deployment = outcome.deployment
        events = read_telemetry(telemetry_dir / TELEMETRY_FILENAME)
        timing = pool_timing(events)
        cell_digests = {
            str(cell_id): result_digest(result)
            for cell_id, result in sorted(outcome.cell_results.items())
        }
        ops: List[Op] = []
        for index, cluster in enumerate(deployment.clusters):
            label = f"cluster-{index}"
            item = timing.get(label, {})
            op = Op(
                label,
                item.get("service_s", 0.0),
                start=item.get("start", 0.0),
                clock="wall",
                pid=item.get("pid"),
            )
            if index in outcome.failed_clusters:
                op.error = repr(outcome.failed_clusters[index])
            elif label not in timing:
                op.error = "no item-started/item-done telemetry"
            elif any(cell not in outcome.cell_results for cell in cluster):
                op.error = "missing cell results"
            else:
                op.digest = digest_of([cell_digests[str(cell)] for cell in cluster])
                op.subframes = sum(
                    outcome.cell_results[cell].num_subframes for cell in cluster
                )
            ops.append(op)

        telemetry_path = telemetry_dir / TELEMETRY_FILENAME
        lifecycle = [e for e in events if e.get("type") != "heartbeat"]
        service = sum(t["service_s"] for t in timing.values())
        counts = {
            "deploy.clusters": deployment.num_clusters,
            "deploy.largest_cluster_cells": max(len(c) for c in deployment.clusters),
            "resilience.checkpoint_bytes": _dir_bytes(checkpoint_dir),
            "obs.telemetry_lines": len(lifecycle),
            "obs.telemetry_bytes": telemetry_path.stat().st_size,
            "pool.service_s": service,
            "pool.queue_wait_s": sum(t["queue_s"] for t in timing.values())
            / max(1, len(timing)),
            "pool.busy_share": service / (n_jobs * wall),
            "pool.idle_s": pool_idle_s(events, timing),
            "pool.retries": sum(1 for e in events if e.get("type") == "retry"),
            "quarantined": len(outcome.quarantined_cells),
            "subframes_per_cell": spec.sim.num_subframes,
        }
        shutil.rmtree(rundir, ignore_errors=True)
        return PassResult(
            wall,
            ops,
            counts=counts,
            cell_digests=cell_digests,
            children_peak_kb=peak.total_kb,
            start=start,
            speed_pids=sorted({t["pid"] for t in timing.values() if t["pid"] is not None}),
        )

    def shape_failures(self, result: PassResult) -> Dict[str, str]:
        failures = {}
        expected = result.counts["subframes_per_cell"]
        if result.counts["quarantined"]:
            failures["campaign"] = "checkpoint cells were quarantined"
        for op in result.ops:
            if op.error is None and op.subframes % expected:
                failures[op.label] = "a cell ran the wrong number of subframes"
        return failures


WORKLOADS = {cls.name: cls for cls in (CompareSiso, CompareMimo, InferCorpus, Campaign)}
