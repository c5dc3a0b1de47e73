"""The system benchmark: four workloads, end-to-end and per-layer metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload compare-siso --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --all                  # the four workloads, one table
    python3 perfbench/run.py --record-digests       # re-record output digests

One run makes the workload's inputs from ``--seed``, warms lazy set-up
(the compiled scheduling kernel, first imports), runs passes of the
workload back to back for about ``--seconds`` (at least two, or one on
infer-corpus), checks every operation's output, times set-up in fresh
processes, and prints a table followed by one JSON line::

    {"correct": true, "attempted": 30, "failed": 0, "metrics": {...}}

Every time metric is normalised to a reference core's speed: the host's
cores change speed by up to 40 % within seconds, so the benchmark samples
that speed in every process doing the work and rescales each interval by
it (``hostspeed.py``).  The table also prints the raw wall time and the
mean speed the run saw.

``--trace 0`` reports the end-to-end metrics, measured with tracing off.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced pass with the median wall time, plus
``trace.overhead`` (traced over untraced wall time).  See README.md.

The exit code is 0 when every output check passed, 1 when one failed, and
2 when the program cannot be found or a run cannot start.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
DIGESTS = HERE / "digests.json"

SETUP_PROBES = {0: 7, 1: 3}

#: (name, unit, better) of every end-to-end metric, in report order.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("subframes_per_s", "1/s", "higher"),
    ("item_p50_s", "s", "lower"),
    ("item_tail_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
#: Reported beside the end-to-end metrics where they apply; not gated,
#: because they are 0 by design or undefined on some workloads (README).
QUALITY = (
    ("failed_share", "ratio", "lower"),
    ("blu_gain", "ratio", "higher"),
    ("blueprint_accuracy", "ratio", "higher"),
)


def _per_layer() -> Tuple[Tuple[str, str], ...]:
    stages = ("receive", "channels", "activity", "arrivals", "timeline", "feedback")
    schedulers = ("pf", "access-aware", "blu", "blu-perfect", "oracle")
    return (
        *((f"sim.{stage}_s", "s") for stage in stages),
        ("sim.loop_self_s", "s"),
        *((f"sim.schedule_s.{name}", "s") for name in schedulers),
        ("sim.cell_init_s", "s"),
        ("sim.cells", "count"),
        ("sim.subframes", "count"),
        ("experiments.run_self_s", "s"),
        ("scheduling.kernel_in_use", "bool"),
        ("joint.cache_hits", "count"),
        ("joint.cache_misses", "count"),
        ("joint.cache_hit_ratio", "ratio"),
        ("joint.cache_size", "count"),
        ("blueprint.infer_s", "s"),
        ("blueprint.infer_calls", "count"),
        ("blueprint.repair_starts", "count"),
        ("blueprint.repair_iterations", "count"),
        ("measurement.record_s", "s"),
        ("measurement.transform_s", "s"),
        ("controller.observe_self_s", "s"),
        ("controller.measurement_subframes", "count"),
        ("deploy.campaign_self_s", "s"),
        ("deploy.build_s", "s"),
        ("deploy.verify_partition_s", "s"),
        ("deploy.clusters", "count"),
        ("deploy.largest_cluster_cells", "count"),
        ("resilience.supervisor_self_s", "s"),
        ("resilience.checkpoint_save_s", "s"),
        ("resilience.checkpoint_writes", "count"),
        ("resilience.checkpoint_bytes", "bytes"),
        ("obs.telemetry_emit_s", "s"),
        ("obs.telemetry_lines", "count"),
        ("obs.telemetry_bytes", "bytes"),
        ("pool.service_s", "s"),
        ("pool.queue_wait_s", "s"),
        ("pool.busy_share", "ratio"),
        ("pool.idle_s", "s"),
        ("pool.retries", "count"),
        ("import.repro_s", "s"),
        ("experiments.build_s", "s"),
        ("trace.wall_s", "s"),
        ("trace.unattributed_s", "s"),
        ("trace.overhead", "ratio"),
    )


PER_LAYER = _per_layer()


# -- statistics -----------------------------------------------------------------


def nearest_rank(ordered: Sequence[float], percentile: int) -> float:
    """The ``percentile``-th percentile of sorted values, nearest-rank rule."""
    rank = max(1, -(-percentile * len(ordered) // 100))
    return ordered[rank - 1]


def tail_percentile(values: Sequence[float]) -> Tuple[float, int]:
    """The highest whole percentile with at least 10 values beyond it.

    Returns ``(value, percentile)``.  Below 20 values that percentile would
    sit under the median; the maximum is returned instead, as percentile
    100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return ordered[-1], 100
    percentile = (100 * (n - 10)) // n
    return nearest_rank(ordered, percentile), percentile


# -- one run ---------------------------------------------------------------------


def _use_checkout_environment() -> None:
    """Point this process and the processes it starts at the program in
    ``src/`` and at a temp directory inside the checkout."""
    tmp = STATE / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")


def _setup_probes(workload, count: int, workdir: Path) -> List[dict]:
    """Set-up times of ``count`` fresh processes, normalised by the host's
    speed measured just before each starts and just after it builds."""
    from hostspeed import measure_speed

    path = workdir / "setup-input.json"
    path.write_text(json.dumps(workload.setup_input()))
    probes = []
    for _ in range(count):
        before = measure_speed()
        spawned = time.time()
        completed = subprocess.run(
            [sys.executable, str(HERE / "probe_setup.py"), workload.name, str(path), repr(spawned)],
            capture_output=True,
            text=True,
            timeout=120,
            check=False,
        )
        if completed.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{completed.stderr}")
        probe = json.loads(completed.stdout.strip().splitlines()[-1])
        speed = (before + probe.pop("speed")) / 2
        probes.append({name: value * speed for name, value in probe.items()})
    return probes


def _warm_up(workload_cls, seed: int, workdir: Path) -> Optional[bool]:
    """Finish lazy set-up before any clock starts.

    A tiny comparison runs every scheduler on the engine's fast path, which
    compiles the greedy scheduling kernel if no compiled copy exists; then a
    tiny pass of the workload itself loads what it imports lazily.  Returns
    whether the compiled kernel is in use (``None`` if the program no
    longer has that module).
    """
    from spans import kernel_in_use
    from workloads import CompareSiso

    for cls in {CompareSiso, workload_cls}:
        tiny = cls(seed, "tiny", workdir)
        tiny.prepare()
        tiny.run_pass()
    return kernel_in_use()


def _load_digests() -> dict:
    return json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}


def check_passes(workload, passes: Sequence, default_seed: int) -> Dict[Tuple[int, str], str]:
    """Every failed operation as ``{(pass index, label): reason}``.

    An operation fails when it raised, when its output differs from the
    first pass's (results must repeat exactly), when at the default seed its
    digest differs from the recorded one, or when a shape check fails.
    """
    failures: Dict[Tuple[int, str], str] = {}
    recorded = None
    if workload.seed == default_seed and workload.scale == "full":
        recorded = _load_digests().get(workload.name)
        if recorded is None:
            failures[(0, "digests")] = f"no recorded digests for {workload.name}"
    first = {op.label: op.digest for op in passes[0].ops}
    for index, result in enumerate(passes):
        for op in result.ops:
            key = (index, op.label)
            if op.error is not None:
                failures[key] = op.error
            elif op.digest != first[op.label]:
                failures[key] = "output differs from the first pass"
            elif recorded is not None and recorded["ops"].get(op.label) != op.digest:
                failures[key] = "output differs from the recorded digest"
        if recorded is not None and recorded.get("cells", {}) != (result.cell_digests or {}):
            failures.setdefault((index, "cells"), "cell results differ from the recorded digests")
        for label, reason in workload.shape_failures(result).items():
            failures.setdefault((index, label), reason)
    return failures


def normalise_passes(passes: Sequence, samples: Dict[int, list], main_pid: int) -> None:
    """Fill in each pass's ``norm_wall_s`` and each operation's ``norm_s``
    from the host-speed samples of the processes that ran them."""
    import hostspeed

    for result in passes:
        end = result.start + result.wall_s
        result.norm_wall_s = statistics.fmean(
            hostspeed.normalise(result.wall_s, samples.get(pid, []), result.start, end)
            for pid in result.speed_pids or [main_pid]
        )
        for op in result.ops:
            op.norm_s = hostspeed.normalise(
                op.seconds,
                samples.get(op.pid or main_pid, []),
                op.start,
                op.start + op.seconds,
                op.clock,
            )


def host_speed(samples: Dict[int, list]) -> float:
    """The mean speed, relative to the reference core, over every sample."""
    import hostspeed

    return hostspeed.speed([s for rows in samples.values() for s in rows])


def _pass_budget(seconds: float, walls: List[float], start: float, minimum: int) -> bool:
    """Whether another pass should run: always up to ``minimum``, then
    only while a pass as long as the median so far still fits."""
    if len(walls) < minimum:
        return True
    return perf_counter() - start + statistics.median(walls) <= seconds


def _peak_rss_mb(passes: Sequence) -> float:
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = max((p.children_peak_kb for p in passes), default=0)
    return (self_kb + children_kb) / 1024.0


def item_groups(workload, passes) -> List[List[float]]:
    """Item times, one group per pass; or a single group of pass times
    when the workload's item is the whole pass."""
    if workload.items_are_passes:
        return [[p.norm_wall_s for p in passes]]
    return [[op.norm_s for op in p.ops if op.error is None] for p in passes]


def end_to_end(workload, passes, probes) -> Dict[str, float]:
    wall = statistics.median(p.norm_wall_s for p in passes)
    groups = item_groups(workload, passes)
    return {
        "setup_s": statistics.median(p["setup_s"] for p in probes),
        "wall_s": wall,
        "subframes_per_s": passes[0].subframes / wall,
        "item_p50_s": statistics.median(nearest_rank(sorted(g), 50) for g in groups),
        "item_tail_s": statistics.median(tail_percentile(g)[0] for g in groups),
        "peak_rss_mb": _peak_rss_mb(passes),
    }


def per_layer(workload, traced, untraced_pool, probes, overhead, kernel) -> Dict[str, float]:
    import spans

    result, tracer, instruments = traced
    records = tracer.records
    metrics: Dict[str, float] = {name: 0.0 for name, _ in PER_LAYER}
    layer_self = spans.self_times(records)
    metrics.update(layer_self)
    metrics.update(spans.joint_counts(instruments.providers))
    metrics.update(spans.inference_counts(instruments.inference_results))
    metrics["controller.measurement_subframes"] = spans.measurement_subframes(
        instruments.controllers
    )
    metrics["sim.cells"] = spans.call_count(records, "sim.cell_init")
    metrics["sim.subframes"] = result.subframes if workload.simulates else 0
    metrics["resilience.checkpoint_writes"] = spans.call_count(
        records, "resilience.checkpoint_save"
    )
    for name in (
        "deploy.clusters",
        "deploy.largest_cluster_cells",
        "resilience.checkpoint_bytes",
        "obs.telemetry_lines",
        "obs.telemetry_bytes",
    ):
        metrics[name] = result.counts.get(name, 0)
    if untraced_pool is not None:
        for name in ("pool.service_s", "pool.queue_wait_s", "pool.busy_share", "pool.idle_s", "pool.retries"):
            metrics[name] = untraced_pool.counts[name]
    metrics["import.repro_s"] = statistics.median(p["import_s"] for p in probes)
    metrics["experiments.build_s"] = statistics.median(p["build_s"] for p in probes)
    metrics["scheduling.kernel_in_use"] = 1 if kernel else 0
    metrics["trace.wall_s"] = result.wall_s
    metrics["trace.unattributed_s"] = spans.unattributed(result.wall_s, layer_self)
    metrics["trace.overhead"] = overhead
    # Spans and telemetry time raw seconds; rescale them by their pass's
    # normalisation, so that the layers still add up to trace.wall_s.
    scale = result.norm_wall_s / result.wall_s
    pool_scale = untraced_pool.norm_wall_s / untraced_pool.wall_s if untraced_pool else 1.0
    for name, unit in PER_LAYER:
        if unit == "s" and name not in ("import.repro_s", "experiments.build_s"):
            metrics[name] *= pool_scale if name.startswith("pool.") else scale
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload and return its report (see :func:`main`)."""
    import spans
    from hostspeed import HostSpeed
    from workloads import DEFAULT_SEED, WORKLOADS

    workdir = STATE / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        cls = WORKLOADS[name]
        kernel = _warm_up(cls, seed, workdir)
        workload = cls(seed, "full", workdir)
        workload.prepare()

        untraced, traced, pool_pass = [], [], None
        sampler = HostSpeed(workdir / "speed")
        with sampler:
            start = perf_counter()
            if trace:
                # Campaign passes are traced at n_jobs=1 so every span runs in
                # this process; the pool figures come from an untraced
                # n_jobs=2 pass's telemetry.
                jobs = {"n_jobs": 1} if name == "campaign" else {}
                if name == "campaign":
                    pool_pass = workload.run_pass()
                while not traced or _pass_budget(
                    seconds, [u.wall_s + t[0].wall_s for u, t in zip(untraced, traced)], start, 1
                ):
                    untraced.append(workload.run_pass(**jobs))
                    tracer, instruments = spans.Tracer(), spans.Instruments()
                    patches = spans.install(tracer, instruments)
                    try:
                        result = workload.run_pass(tracer=tracer, **jobs)
                    finally:
                        patches.restore()
                    traced.append((result, tracer, instruments))
                passes = untraced + [t[0] for t in traced] + ([pool_pass] if pool_pass else [])
            else:
                while _pass_budget(
                    seconds, [p.wall_s for p in untraced], start, workload.min_passes
                ):
                    untraced.append(workload.run_pass())
                passes = untraced

        samples = sampler.samples()
        normalise_passes(passes, samples, os.getpid())
        report = {
            "workload": name,
            "seed": seed,
            "passes": len(passes),
            "kernel": kernel,
            "raw_wall_s": statistics.median(p.wall_s for p in untraced),
            "host_speed": host_speed(samples),
        }
        probes = _setup_probes(workload, SETUP_PROBES[trace], workdir)
        failures = check_passes(workload, passes, DEFAULT_SEED)
        attempted = sum(len(p.ops) for p in passes)
        report.update(
            attempted=attempted,
            failed=min(len(failures), attempted),
            failures=failures,
            quality=passes[0].quality,
        )
        if trace:
            ordered = sorted(traced, key=lambda t: t[0].norm_wall_s)
            median_traced = ordered[(len(ordered) - 1) // 2]
            overhead = statistics.median(
                t[0].norm_wall_s for t in traced
            ) / statistics.median(u.norm_wall_s for u in untraced)
            report["metrics"] = per_layer(
                workload, median_traced, pool_pass, probes, overhead, kernel
            )
            median_traced[1].write(STATE / f"spans-{name}-seed{seed}.jsonl")
        else:
            report["metrics"] = end_to_end(workload, passes, probes)
            items = item_groups(workload, passes)[0]
            report["tail"] = (tail_percentile(items)[1], len(items))
        return report
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# -- reporting ---------------------------------------------------------------------


def format_report(report: dict, trace: int) -> str:
    units = dict((n, u) for n, u, _ in END_TO_END + QUALITY) if not trace else dict(PER_LAYER)
    better = {n: b for n, _, b in END_TO_END + QUALITY}
    kernel = {True: "compiled", False: "python fallback", None: "absent"}[report["kernel"]]
    lines = [
        f"{report['workload']}  seed {report['seed']}  passes {report['passes']}  "
        f"scheduling kernel {kernel}  trace {trace}",
        f"  raw wall time {report['raw_wall_s']:.4g} s per pass at "
        f"{report['host_speed']:.3f}x the reference core's speed; "
        "times below are normalised to that core",
    ]
    rows = dict(report["metrics"])
    if not trace:
        attempted, failed = report["attempted"], report["failed"]
        rows["failed_share"] = failed / attempted
        rows.update(report["quality"])
    for name, value in rows.items():
        note = f"  ({better[name]} is better)" if name in better else ""
        if name == "item_tail_s":
            percentile, count = report["tail"]
            note += f"  p{percentile} of {count} items"
        if name == "failed_share":
            note += f"  {report['failed']}/{report['attempted']} operations"
        lines.append(f"  {name:34s} {value:14.6g} {units.get(name, ''):6s}{note}")
    for (index, label), reason in sorted(report["failures"].items()):
        lines.append(f"  FAILED pass {index} {label}: {reason}")
    return "\n".join(lines)


def result_line(report: dict, trace: int) -> str:
    units = dict(PER_LAYER) if trace else {n: u for n, u, _ in END_TO_END}
    return json.dumps(
        {
            "correct": report["failed"] == 0,
            "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": {
                name: {"value": report["metrics"][name], "unit": unit}
                for name, unit in units.items()
            },
        }
    )


def run_all(seed: int, seconds: float) -> int:
    """Run the four workloads, each in its own process, and tabulate."""
    from workloads import WORKLOADS

    status = 0
    summary = []
    for name in WORKLOADS:
        completed = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, check=False,
        )
        sys.stdout.write(completed.stdout)
        sys.stderr.write(completed.stderr)
        status = max(status, completed.returncode)
        lines = completed.stdout.strip().splitlines()
        if lines and lines[-1].startswith("{"):
            summary.append((name, json.loads(lines[-1])))
    print("\nsummary (end-to-end metrics; failed/attempted operations)")
    for name, result in summary:
        cells = "  ".join(
            f"{metric}={entry['value']:.4g} {entry['unit']}"
            for metric, entry in result["metrics"].items()
        )
        print(f"  {name:13s} {result['failed']}/{result['attempted']}  {cells}")
    return status


def record_digests() -> int:
    """Record every workload's outputs at the default seed (one pass)."""
    from workloads import DEFAULT_SEED, WORKLOADS

    digests = {}
    workdir = STATE / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name, cls in WORKLOADS.items():
            workload = cls(DEFAULT_SEED, "full", workdir)
            workload.prepare()
            result = workload.run_pass()
            errors = [op.label for op in result.ops if op.error is not None]
            if errors:
                print(f"{name}: operations failed: {errors}", file=sys.stderr)
                return 1
            digests[name] = {
                "seed": DEFAULT_SEED,
                "ops": {op.label: op.digest for op in result.ops},
            }
            if result.cell_digests:
                digests[name]["cells"] = result.cell_digests
            print(f"{name}: {len(result.ops)} operations recorded")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run the four workloads")
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"cannot find the program: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    _use_checkout_environment()

    if args.record_digests:
        return record_digests()
    if args.all:
        return run_all(args.seed, args.seconds)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)} (or pass --all)")
    report = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(format_report(report, args.trace))
    print(result_line(report, args.trace))
    return 0 if report["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
