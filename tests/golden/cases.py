"""The golden corpus: seeded engine runs whose outputs are committed.

Each case builds one fully configured :class:`CellSimulation`; its
expected :meth:`SimulationResult.to_dict` dump lives in
``engine_golden.json`` next to this module.  The corpus is the engine's
regression reference: a change to stage order, RNG stream consumption,
scheduling arithmetic or accounting shows up as a mismatch in at least
one case.

The families cover the engine's configuration space:

* ``bench/...`` — the three perf-bench cell sizes, static and under a
  hidden-node churn timeline, for every uplink scheduler; plus PF and
  the speculative scheduler over 1-channel, 3-channel and 3-channel
  duty-drift channel plans;
* ``engine/...`` — SISO, MU-MIMO, Markov activity, the SIC receiver, a
  custom silencer, and the oracle's per-subframe rescheduling;
* ``timeline/churn`` — a recorded-series run under churn (its
  utilization series is part of the dump);
* ``drift/channel-duty`` — a per-channel duty-cycle drift on a
  3-channel fig1 spec;
* ``snapshot/...`` — the static, churn and MU-MIMO + HARQ + Markov
  scenarios the stage pipeline is pinned against.

Every builder forwards ``**engine_kwargs`` to the engine, so tests can
attach hooks, timers or an injected pipeline to a corpus case.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, Optional, Tuple

from repro.core.scheduling.oracle import OracleScheduler
from repro.core.scheduling.pf import ProportionalFairScheduler
from repro.dynamics.timeline import (
    DutyCycleDrift,
    EnvironmentTimeline,
    HiddenNodeArrival,
    HiddenNodeDeparture,
)
from repro.experiments import (
    ChannelSpec,
    ExperimentSpec,
    ScenarioSpec,
    SchedulerSpec,
    TimelineSpec,
    build_experiment,
)
from repro.sim.config import SimulationConfig
from repro.sim.engine import CellSimulation
from repro.spectrum import ChannelPlan
from repro.topology.scenarios import (
    hidden_node_churn_timeline,
    skewed_topology,
    testbed_topology,
    uniform_snrs,
)

__all__ = ["CASES", "golden_dump", "snapshot_scenarios"]

CaseBuilder = Callable[..., CellSimulation]

#: The perf bench's master seed.
BENCH_SEED = 2017
BENCH_SUBFRAMES = 400
#: (name, num_ues, num_terminals, num_rbs, num_antennas)
BENCH_SIZES = (
    ("small", 6, 3, 10, 1),
    ("medium", 20, 6, 20, 4),
    ("large", 48, 12, 25, 4),
)
BENCH_SCHEDULERS = ("pf", "speculative", "access-aware", "oracle")


def golden_dump(result) -> dict:
    """What the corpus records of one run: the full ``to_dict()`` dump,
    plus the utilization series when the run recorded one."""
    dump = result.to_dict()
    if result.utilization_series:
        dump["utilization_series"] = list(result.utilization_series)
    return dump


# -- bench/...: the perf-bench cell sizes ------------------------------------


def bench_spec(
    size: Tuple[str, int, int, int, int],
    scheduler: str,
    churn: bool = False,
) -> ExperimentSpec:
    name, num_ues, num_terminals, num_rbs, num_antennas = size
    timeline = None
    if churn:
        timeline = TimelineSpec(
            "hidden-node-churn",
            {
                "arrive_at": BENCH_SUBFRAMES // 4,
                "q": 0.5,
                "ues": [0, 1],
                "depart_at": 3 * BENCH_SUBFRAMES // 4,
                "label": "bench-late",
            },
        )
    return ExperimentSpec(
        name=f"bench-engine-{name}" + ("-churn" if churn else ""),
        scenario=ScenarioSpec(
            kind="skewed",
            params={
                "num_ues": num_ues,
                "num_terminals": num_terminals,
                "seed": 3,
            },
            snr={"kind": "uniform", "seed": 7},
        ),
        sim=SimulationConfig(
            num_subframes=BENCH_SUBFRAMES,
            num_rbs=num_rbs,
            num_antennas=num_antennas,
        ),
        schedulers={scheduler: SchedulerSpec(scheduler)},
        timeline=timeline,
        seed=BENCH_SEED,
    )


def channelize(
    spec: ExperimentSpec, num_channels: int, drift: bool = False
) -> ExperimentSpec:
    """Home the spec's terminals round-robin over a channel plan, with
    blueprint channel assignment (and optionally a per-channel drift)."""
    num_terminals = spec.scenario.params["num_terminals"]
    terminal_channels = tuple(k % num_channels for k in range(num_terminals))
    timeline = spec.timeline
    if drift:
        timeline = TimelineSpec(
            "channel-duty-drift",
            {
                "drift_at": spec.sim.num_subframes // 3,
                "channel": 1,
                "q": 0.85,
                "terminal_channels": list(terminal_channels),
            },
        )
    return spec.replace(
        name=spec.name + f"-{num_channels}ch" + ("-drift" if drift else ""),
        channels=ChannelSpec(
            plan=ChannelPlan.spaced(num_channels),
            terminal_channels=terminal_channels,
            assignment="blueprint",
        ),
        timeline=timeline,
    )


def _spec_case(spec: ExperimentSpec, scheduler: str) -> CaseBuilder:
    def build(**engine_kwargs) -> CellSimulation:
        return build_experiment(spec).simulation(scheduler, **engine_kwargs)

    return build


def _bench_cases() -> Iterator[Tuple[str, CaseBuilder]]:
    for size in BENCH_SIZES:
        for churn in (False, True):
            for scheduler in BENCH_SCHEDULERS:
                key = f"bench/{size[0]}/{'churn' if churn else 'static'}/{scheduler}"
                yield key, _spec_case(bench_spec(size, scheduler, churn), scheduler)
    for scheduler in ("pf", "speculative"):
        spec = bench_spec(BENCH_SIZES[0], scheduler)
        flavours = {
            "1ch": spec.replace(channels=ChannelSpec()),
            "3ch": channelize(spec, 3),
            "3ch-drift": channelize(spec, 3, drift=True),
        }
        for flavour, flavoured in flavours.items():
            yield f"bench/small/{flavour}/{scheduler}", _spec_case(
                flavoured, scheduler
            )


# -- engine/...: engine configurations ---------------------------------------


def _engine_case(
    topology,
    snrs,
    config: SimulationConfig,
    scheduler=ProportionalFairScheduler,
    **case_kwargs,
) -> CaseBuilder:
    def build(**engine_kwargs) -> CellSimulation:
        return CellSimulation(
            topology=topology,
            mean_snr_db=snrs,
            scheduler=scheduler(),
            config=config,
            seed=11,
            **case_kwargs,
            **engine_kwargs,
        )

    return build


def _silencer_case() -> CaseBuilder:
    topology = testbed_topology(6, hts_per_ue=2, seed=6)

    def silencer(active):
        # Any active terminal silences its UE id modulo the cell size.
        return {k % topology.num_ues for k in active}

    return _engine_case(
        topology,
        uniform_snrs(topology.num_ues, seed=6),
        SimulationConfig(num_subframes=500, num_rbs=8),
        silencer=silencer,
    )


def _engine_cases() -> Iterator[Tuple[str, CaseBuilder]]:
    topology = testbed_topology(8, hts_per_ue=3, seed=5)
    yield "engine/siso", _engine_case(
        topology,
        uniform_snrs(topology.num_ues, seed=7),
        SimulationConfig(num_subframes=800, num_rbs=12, num_antennas=1),
    )
    topology = skewed_topology(12, 5, seed=3)
    yield "engine/mumimo", _engine_case(
        topology,
        uniform_snrs(topology.num_ues, seed=9),
        SimulationConfig(num_subframes=800, num_rbs=10, num_antennas=4),
    )
    topology = testbed_topology(6, hts_per_ue=2, seed=1)
    yield "engine/markov", _engine_case(
        topology,
        uniform_snrs(topology.num_ues, seed=2),
        SimulationConfig(
            num_subframes=700, num_rbs=8, num_antennas=2, activity_kind="markov"
        ),
    )
    topology = testbed_topology(6, hts_per_ue=2, seed=4)
    yield "engine/sic", _engine_case(
        topology,
        uniform_snrs(topology.num_ues, seed=4),
        SimulationConfig(
            num_subframes=500, num_rbs=8, num_antennas=2, receiver="sic"
        ),
    )
    yield "engine/silencer", _silencer_case()
    topology = testbed_topology(6, hts_per_ue=2, seed=8)
    yield "engine/oracle-every-subframe", _engine_case(
        topology,
        uniform_snrs(topology.num_ues, seed=8),
        SimulationConfig(num_subframes=500, num_rbs=8, num_antennas=2),
        scheduler=OracleScheduler,
    )


# -- timeline/, drift/: environment churn ------------------------------------


def _timeline_case() -> CaseBuilder:
    def build(**engine_kwargs) -> CellSimulation:
        return CellSimulation(
            testbed_topology(num_ues=4, hts_per_ue=1, activity=0.2, seed=5),
            uniform_snrs(4, seed=6),
            ProportionalFairScheduler(),
            SimulationConfig(num_subframes=1500, num_rbs=6),
            seed=11,
            record_series=True,
            timeline=hidden_node_churn_timeline(
                arrive_at=400, q=0.5, ues=(0, 1), depart_at=1000
            ),
            **engine_kwargs,
        )

    return build


def channel_drift_spec() -> ExperimentSpec:
    """A 3-channel fig1 world whose channel-1 terminals drift to q=0.9."""
    return ExperimentSpec(
        name="fig1-channel-drift",
        scenario=ScenarioSpec(
            kind="fig1",
            params={"activity": 0.3},
            snr={"kind": "uniform", "seed": 3},
        ),
        sim=SimulationConfig(num_subframes=800, num_rbs=8),
        schedulers={"pf": SchedulerSpec("pf")},
        channels=ChannelSpec(
            plan=ChannelPlan.spaced(3),
            terminal_channels=(0, 1, 2),
            assignment="blueprint",
        ),
        timeline=TimelineSpec(
            kind="channel-duty-drift",
            params={
                "drift_at": 200,
                "channel": 1,
                "q": 0.9,
                "terminal_channels": [0, 1, 2],
            },
        ),
        seed=11,
    )


# -- snapshot/...: the stage-pipeline scenarios ------------------------------


def _snapshot_churn() -> EnvironmentTimeline:
    return EnvironmentTimeline(
        [
            HiddenNodeArrival(at=150, q=0.5, ues=(0, 1), label="snap-late"),
            DutyCycleDrift(at=300, label="ht0", q=0.7),
            HiddenNodeDeparture(at=450, label="snap-late"),
        ]
    )


def snapshot_scenarios() -> Iterator[
    Tuple[str, object, Dict[int, float], SimulationConfig, Optional[EnvironmentTimeline]]
]:
    """``(name, topology, snrs, config, timeline)`` per snapshot scenario."""
    static_topology = testbed_topology(6, hts_per_ue=2, seed=5)
    static_snrs = uniform_snrs(6, seed=7)
    static_config = SimulationConfig(num_subframes=600, num_rbs=8, num_antennas=2)
    yield "static", static_topology, static_snrs, static_config, None
    yield "churn", static_topology, static_snrs, static_config, _snapshot_churn()
    yield (
        "mumimo-harq",
        skewed_topology(8, 4, seed=3),
        uniform_snrs(8, seed=9),
        SimulationConfig(
            num_subframes=500,
            num_rbs=10,
            num_antennas=4,
            harq_enabled=True,
            activity_kind="markov",
        ),
        None,
    )


def _snapshot_cases() -> Iterator[Tuple[str, CaseBuilder]]:
    for name, topology, snrs, config, timeline in snapshot_scenarios():
        yield f"snapshot/{name}", _engine_case(
            topology, snrs, config, timeline=timeline
        )


def _all_cases() -> Dict[str, CaseBuilder]:
    cases: Dict[str, CaseBuilder] = {}
    for family in (_bench_cases(), _engine_cases(), _snapshot_cases()):
        cases.update(family)
    cases["timeline/churn"] = _timeline_case()
    cases["drift/channel-duty"] = _spec_case(channel_drift_spec(), "pf")
    return cases


#: Case key -> builder of the case's engine.
CASES: Dict[str, CaseBuilder] = _all_cases()
