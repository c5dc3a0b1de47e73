"""Host-speed normalisation: the arithmetic, and sampling in this process
and in forked children."""

import multiprocessing
import os

import pytest

import hostspeed
from hostspeed import REF_LOOP_S, HostSpeed, Sample


def _sample(mono, loop_s, handler_s=0.0, pid=1):
    return Sample(pid, mono + 1000.0, mono, loop_s, handler_s)


def test_normalise_rescales_by_mean_speed_less_sampler_time():
    # Half the samples at the reference speed, half at half of it.
    samples = [_sample(t / 10, REF_LOOP_S * (1 if t % 2 else 2), 0.01) for t in range(10)]
    # 10 samples inside [0, 1], each spending 0.01 s in the handler.
    assert hostspeed.normalise(2.0, samples, 0.0, 1.0) == pytest.approx((2.0 - 0.1) * 0.75)
    # The same interval on the wall clock.
    assert hostspeed.normalise(2.0, samples, 1000.0, 1001.0, "wall") == pytest.approx(1.9 * 0.75)


def test_short_interval_borrows_the_nearest_samples():
    samples = [_sample(t, REF_LOOP_S) for t in range(5)] + [
        _sample(10 + t, REF_LOOP_S / 2) for t in range(5)
    ]
    nearest = hostspeed.window(samples, 11.5, 11.6)
    assert len(nearest) == hostspeed.MIN_SAMPLES
    assert all(s.mono >= 10 for s in nearest)
    assert hostspeed.speed(nearest) == pytest.approx(2.0)
    assert hostspeed.speed([]) == 1.0


def _busy():
    hostspeed.kernel()
    total = 0
    for i in range(5_000_000):
        total += i
    return os.getpid()


def test_sampler_runs_in_this_process_and_forked_children(tmp_path):
    with HostSpeed(tmp_path) as sampler:
        _busy()
        with multiprocessing.get_context("fork").Pool(1) as pool:
            child = pool.apply(_busy)
    samples = sampler.samples()
    assert len(samples[os.getpid()]) > 0
    assert len(samples[child]) > 0
    for rows in samples.values():
        assert all(s.loop_s > 0 and s.handler_s >= s.loop_s for s in rows)
    assert hostspeed.measure_speed() > 0


def test_passes_use_the_speed_of_the_processes_that_ran_them():
    import run
    from workloads import Op, PassResult

    main, worker_a, worker_b = 1, 2, 3
    samples = {
        main: [_sample(t / 10, REF_LOOP_S / 4, pid=main) for t in range(10)],
        worker_a: [_sample(t / 10, REF_LOOP_S, pid=worker_a) for t in range(10)],
        worker_b: [_sample(t / 10, REF_LOOP_S * 2, pid=worker_b) for t in range(10)],
    }
    own = PassResult(1.0, [Op("a", 0.5, start=0.0)], start=0.0)
    pooled = PassResult(
        1.0,
        [Op("cluster-0", 0.5, start=1000.0, clock="wall", pid=worker_b)],
        start=0.0,
        speed_pids=[worker_a, worker_b],
    )
    run.normalise_passes([own, pooled], samples, main)
    assert own.norm_wall_s == pytest.approx(4.0)
    assert own.ops[0].norm_s == pytest.approx(2.0)
    assert pooled.norm_wall_s == pytest.approx(0.75)
    assert pooled.ops[0].norm_s == pytest.approx(0.25)
