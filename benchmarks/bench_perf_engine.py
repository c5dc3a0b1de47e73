"""Engine throughput benchmark: subframes/sec and per-phase wall time.

Unlike the figure-reproduction benchmarks, this one measures the simulator
itself.  Each cell size is described by a declarative
:class:`~repro.experiments.ExperimentSpec`; each seeded scenario runs once
for the headline subframes/sec and three more times under a phase timer
for the per-phase breakdown.  Results land in ``BENCH_engine.json`` at the
repo root.  Seeded outputs are pinned by the golden corpus under
``tests/golden``, not here.

Usage::

    PYTHONPATH=src python benchmarks/bench_perf_engine.py           # full
    PYTHONPATH=src python benchmarks/bench_perf_engine.py --smoke   # CI

``--smoke`` shrinks the subframe counts so CI exercises every code path in
seconds; it fails on errors, never on timing.

``--dynamics`` additionally times every scenario under a scripted
environment timeline (hidden-node arrival, duty-cycle drift, departure)
that mutates the world mid-run.

``--obs-overhead`` guards the observability contract on the medium
scenario: a run with ``ObsConfig(enabled=False)`` must be bit-exact with
a no-obs run and cost the same (min-of-reps ratio < 1.02 outside
``--smoke``), and an enabled run must not change simulation outcomes.

``--deploy`` additionally benchmarks the multi-cell campaign runner on a
100-cell / 1000-UE PPP deployment: serial and sharded wall-clock,
cells/sec, and a hard guard that ``n_jobs=1`` and ``n_jobs=N`` produce
identical per-cell results.  Lands under the ``deployment`` key of the
report.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).parent))

from repro.experiments import (
    ChannelSpec,
    ExperimentSpec,
    ScenarioSpec,
    SchedulerSpec,
    TimelineSpec,
    build_experiment,
)
from repro.obs import PhaseTimer
from repro.sim.config import SimulationConfig
from repro.spectrum import ChannelPlan

from common import MASTER_SEED

#: (name, num_ues, num_terminals, num_rbs, num_antennas, subframes)
SCENARIOS = (
    ("small", 6, 3, 10, 1, 6_000),
    ("medium", 20, 6, 20, 4, 10_000),
    ("large", 48, 12, 25, 4, 4_000),
)

OUTPUT_PATH = Path(__file__).parent.parent / "BENCH_engine.json"


def build_spec(name: str, num_ues: int, num_terminals: int, num_rbs: int,
               num_antennas: int, subframes: int,
               with_timeline: bool = False) -> ExperimentSpec:
    timeline = None
    if with_timeline:
        # Arrival, drift, and departure spread across the run.
        timeline = TimelineSpec(
            "hidden-node-churn",
            {
                "arrive_at": subframes // 4,
                "q": 0.5,
                "ues": [0, 1],
                "depart_at": 3 * subframes // 4,
                "label": "bench-late",
            },
        )
    return ExperimentSpec(
        name=f"bench-engine-{name}" + ("-churn" if with_timeline else ""),
        scenario=ScenarioSpec(
            kind="skewed",
            params={"num_ues": num_ues, "num_terminals": num_terminals,
                    "seed": 3},
            snr={"kind": "uniform", "seed": 7},
        ),
        sim=SimulationConfig(
            num_subframes=subframes,
            num_rbs=num_rbs,
            num_antennas=num_antennas,
        ),
        schedulers={"pf": SchedulerSpec("pf")},
        timeline=timeline,
        seed=MASTER_SEED,
    )


def channelize_spec(
    spec: ExperimentSpec,
    num_channels: int = 3,
    with_drift: bool = False,
) -> ExperimentSpec:
    """Spread the spec's hidden terminals over a channel plan.

    Terminals are homed round-robin across the channels and UEs are
    assigned by the blueprint channel selector.  With ``with_drift`` the
    run additionally replays a per-channel duty-cycle drift timeline (the
    ``repro dynamics`` composition hazard).
    """
    num_terminals = spec.scenario.params["num_terminals"]
    terminal_channels = tuple(
        k % num_channels for k in range(num_terminals)
    )
    timeline = spec.timeline
    if with_drift:
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
        name=spec.name + f"-{num_channels}ch" + ("-drift" if with_drift else ""),
        channels=ChannelSpec(
            plan=ChannelPlan.spaced(num_channels),
            terminal_channels=terminal_channels,
            assignment="blueprint",
        ),
        timeline=timeline,
    )


def timed_run(spec: ExperimentSpec, timer: PhaseTimer | None = None):
    simulation = build_experiment(spec).simulation("pf", phase_timer=timer)
    start = perf_counter()
    result = simulation.run()
    return result, perf_counter() - start


def bench_scenario(spec: ExperimentSpec, subframes: int) -> dict:
    _, elapsed = timed_run(spec)
    # Extra instrumented runs for the per-phase breakdown (the timer costs
    # a couple of perf_counter calls per subframe, so it is kept out of the
    # headline measurement).  Keeping the rep with the smallest
    # schedule-phase total filters the machine-load spikes that would
    # otherwise dominate sub-second phases.
    phases = None
    for _ in range(3):
        rep_timer = PhaseTimer()
        timed_run(spec, timer=rep_timer)
        rep_phases = rep_timer.as_dict()
        if phases is None or (
            rep_phases["schedule"]["total_s"] < phases["schedule"]["total_s"]
        ):
            phases = rep_phases
    return {
        "num_ues": spec.scenario.params["num_ues"],
        "num_terminals": spec.scenario.params["num_terminals"],
        "num_rbs": spec.sim.num_rbs,
        "num_antennas": spec.sim.num_antennas,
        "subframes": subframes,
        "fast_subframes_per_s": subframes / elapsed,
        "phases": phases,
    }


def bench_dynamics_scenario(spec: ExperimentSpec, subframes: int) -> dict:
    _, elapsed = timed_run(spec)
    timeline = build_experiment(spec).timeline
    return {
        "num_ues": spec.scenario.params["num_ues"],
        "num_terminals": spec.scenario.params["num_terminals"],
        "subframes": subframes,
        "timeline_events": timeline.num_events,
        "fast_subframes_per_s": subframes / elapsed,
    }


def bench_deployment(smoke: bool, n_jobs: int) -> dict:
    """Campaign-runner throughput on a 100-cell / 1000-UE deployment.

    The density (100 cells over a 2.8 km square at path-loss exponent 3)
    sits below the percolation threshold, so the coupling graph splits
    into dozens of independent clusters — the regime sharding is for.
    The sharded run must reproduce the serial run bit-exactly; the guard
    fails the benchmark otherwise.
    """
    from repro.deploy import DeploymentSpec, PlacementSpec, run_campaign

    subframes = 60 if smoke else 400
    spec = DeploymentSpec(
        name="bench-deploy",
        placement=PlacementSpec("ppp", {"num_cells": 100, "area_m": 2800.0}),
        ues_per_cell=10,
        wifi_per_cell=2,
        sim=SimulationConfig(num_subframes=subframes),
        seed=3,
    )
    start = perf_counter()
    serial = run_campaign(spec, n_jobs=1)
    serial_s = perf_counter() - start
    start = perf_counter()
    sharded = run_campaign(spec, n_jobs=n_jobs)
    sharded_s = perf_counter() - start
    if sharded.cell_results != serial.cell_results:
        raise AssertionError(
            f"deployment campaign diverged between n_jobs=1 and "
            f"n_jobs={n_jobs}"
        )
    deployment = serial.deployment
    report = serial.report()
    entry = {
        "num_cells": deployment.num_cells,
        "num_ues": deployment.total_ues,
        "num_clusters": deployment.num_clusters,
        "largest_cluster": max(len(c) for c in deployment.clusters),
        "cross_cell_hidden_terminals": deployment.cross_cell_terminal_count(),
        "subframes": subframes,
        "n_jobs": n_jobs,
        "serial_wall_s": serial_s,
        "sharded_wall_s": sharded_s,
        "serial_cells_per_s": deployment.num_cells / serial_s,
        "sharded_cells_per_s": deployment.num_cells / sharded_s,
        "speedup": serial_s / sharded_s,
        "cell_fairness": report["cell_fairness"],
        "ue_fairness": report["ue_fairness"],
    }
    print(
        f" deploy: {deployment.num_cells} cells / {deployment.total_ues} UEs "
        f"in {deployment.num_clusters} clusters | "
        f"serial {entry['serial_cells_per_s']:6.1f} cells/s | "
        f"sharded(n_jobs={n_jobs}) {entry['sharded_cells_per_s']:6.1f} "
        f"cells/s | speedup {entry['speedup']:.2f}x | bit-exact"
    )
    return entry


def obs_overhead(smoke: bool) -> dict:
    """Disabled-mode observability must be free; enabled must be harmless.

    ``ObsConfig(enabled=False)`` keeps ``run_one`` on the exact no-hooks
    path, so its runtime ratio against a spec with no ``obs`` at all is
    asserted < 1.02 (min over interleaved reps; skipped under --smoke,
    where a single tiny rep is all noise).  The streaming recorder only
    samples the registry once per window, so ``stream=True`` is held to
    a 1.02 budget over plain enabled obs (its marginal cost, the
    stream-enabled vs stream-disabled ratio).  Every variant must
    reproduce the no-obs simulation result bit-exactly.
    """
    from repro.obs import ObsConfig

    name, ues, terminals, rbs, antennas, _ = SCENARIOS[1]
    subframes = 300 if smoke else 3_000
    base_spec = build_spec(name, ues, terminals, rbs, antennas, subframes)
    variants = {
        "none": base_spec,
        "disabled": base_spec.replace(obs=ObsConfig(enabled=False)),
        "enabled": base_spec.replace(obs=ObsConfig(enabled=True)),
        "stream": base_spec.replace(
            obs=ObsConfig(enabled=True, stream=True)
        ),
    }

    times = {key: float("inf") for key in variants}
    results = {}
    reps = 1 if smoke else 5
    for _ in range(reps):
        for key, spec in variants.items():
            plan = build_experiment(spec)
            start = perf_counter()
            result = plan.run_one("pf", capture=False)
            times[key] = min(times[key], perf_counter() - start)
            results[key] = result
    if results["disabled"] != results["none"]:
        raise AssertionError(
            "obs-disabled run is not bit-exact with the no-obs run"
        )
    if results["enabled"] != results["none"]:
        raise AssertionError("obs-enabled run changed simulation outcomes")
    if results["stream"] != results["none"]:
        raise AssertionError("streaming recorder changed simulation outcomes")
    if not results["stream"].obs_series or not results["stream"].obs_series.get(
        "rows"
    ):
        raise AssertionError("streaming run produced no time-series rows")

    disabled_ratio = times["disabled"] / times["none"]
    enabled_ratio = times["enabled"] / times["none"]
    stream_ratio = times["stream"] / times["enabled"]
    if not smoke and disabled_ratio > 1.02:
        raise AssertionError(
            f"disabled-mode obs overhead {disabled_ratio:.3f}x exceeds 1.02x"
        )
    if not smoke and stream_ratio > 1.02:
        raise AssertionError(
            f"streaming obs overhead {stream_ratio:.3f}x (vs enabled) "
            "exceeds 1.02x"
        )
    print(
        f"obs overhead ({subframes} subframes, min of {reps}): "
        f"disabled {disabled_ratio:.3f}x | enabled {enabled_ratio:.3f}x | "
        f"stream {stream_ratio:.3f}x (vs enabled)"
    )
    return {
        "subframes": subframes,
        "reps": reps,
        "disabled_ratio": disabled_ratio,
        "enabled_ratio": enabled_ratio,
        "stream_ratio": stream_ratio,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny subframe counts: exercise every path, skip the timings",
    )
    parser.add_argument(
        "--dynamics",
        action="store_true",
        help="also time every scenario under a churn timeline",
    )
    parser.add_argument(
        "--obs-overhead",
        action="store_true",
        help="only check the disabled/enabled observability overhead guard",
    )
    parser.add_argument(
        "--channels",
        action="store_true",
        help="also benchmark the multi-channel (3-channel blueprint "
        "assignment) flavour of every scenario",
    )
    parser.add_argument(
        "--deploy",
        action="store_true",
        help="also benchmark the 100-cell sharded campaign runner "
        "(with an n_jobs=1 vs n_jobs=N equality guard)",
    )
    parser.add_argument(
        "--deploy-jobs",
        type=int,
        default=4,
        help="worker count for the sharded deployment benchmark run",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=OUTPUT_PATH,
        help=f"where to write the JSON report (default: {OUTPUT_PATH})",
    )
    args = parser.parse_args(argv)

    if args.obs_overhead:
        entry = obs_overhead(args.smoke)
        if not args.smoke:
            # Update the committed report in place rather than clobbering
            # the scenario timings a full run wrote.
            existing = (
                json.loads(args.output.read_text())
                if args.output.is_file()
                else {}
            )
            existing["obs_stream"] = entry
            args.output.write_text(json.dumps(existing, indent=2) + "\n")
            print(f"updated {args.output} (obs_stream)")
        return 0

    report = {"smoke": args.smoke, "scenarios": {}}
    for name, ues, terminals, rbs, antennas, subframes in SCENARIOS:
        if args.smoke:
            subframes = 300
        spec = build_spec(name, ues, terminals, rbs, antennas, subframes)
        entry = bench_scenario(spec, subframes)
        report["scenarios"][name] = entry
        print(f"{name:>7s}: {entry['fast_subframes_per_s']:9.1f} sf/s")

    if args.dynamics:
        report["dynamics"] = {}
        for name, ues, terminals, rbs, antennas, subframes in SCENARIOS:
            if args.smoke:
                subframes = 400
            spec = build_spec(
                name, ues, terminals, rbs, antennas, subframes,
                with_timeline=True,
            )
            entry = bench_dynamics_scenario(spec, subframes)
            report["dynamics"][name] = entry
            print(
                f"{name:>7s} (churn): {entry['fast_subframes_per_s']:9.1f} sf/s"
                f" over {entry['timeline_events']} events"
            )

    if args.channels:
        report["channels"] = {}
        for name, ues, terminals, rbs, antennas, subframes in SCENARIOS:
            if args.smoke:
                subframes = 300
            spec = channelize_spec(
                build_spec(name, ues, terminals, rbs, antennas, subframes)
            )
            entry = bench_scenario(spec, subframes)
            entry["num_channels"] = spec.channels.plan.num_channels
            report["channels"][name] = entry
            print(f"{name:>7s} (3ch): {entry['fast_subframes_per_s']:9.1f} sf/s")

    if args.deploy:
        report["deployment"] = bench_deployment(args.smoke, args.deploy_jobs)

    if not args.smoke:
        args.output.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
