"""Supervised execution: retries, timeouts, quarantine, fail-fast."""

import time

import pytest

from repro.errors import ConfigurationError, ResilienceError, WorkerFailure
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.telemetry import TelemetryLog, read_telemetry
from repro.resilience import FailedItem, SupervisorConfig, supervised_map


def double(x):
    return x * 2


def fail_below(x):
    if x < 0:
        raise ValueError(f"negative: {x}")
    return x


def nap(x):
    time.sleep(0.3)
    return x


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"timeout_s": 0.0},
            {"timeout_s": -1.0},
            {"max_retries": -1},
            {"backoff_base_s": -0.5},
            {"backoff_factor": 0.5},
            {"backoff_jitter": 1.5},
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ResilienceError):
            SupervisorConfig(**kwargs)

    def test_n_jobs_validation(self):
        with pytest.raises(ConfigurationError):
            supervised_map(double, [1], n_jobs=0)


class TestSerial:
    def test_plain_success(self):
        outcome = supervised_map(double, [1, 2, 3])
        assert outcome.results == [2, 4, 6]
        assert outcome.ok and outcome.retries == 0

    def test_empty(self):
        outcome = supervised_map(double, [])
        assert outcome.results == [] and outcome.ok

    def test_retry_until_success(self):
        calls = {"n": 0}

        def flaky(x):
            calls["n"] += 1
            if calls["n"] < 3:
                raise ValueError("transient")
            return x

        outcome = supervised_map(
            flaky, [9], config=SupervisorConfig(max_retries=5)
        )
        assert outcome.results == [9]
        assert outcome.retries == 2 and outcome.ok

    def test_quarantine_after_exhaustion(self):
        outcome = supervised_map(
            fail_below, [1, -1, 3], config=SupervisorConfig(max_retries=2)
        )
        assert outcome.results[0] == 1 and outcome.results[2] == 3
        failed = outcome.results[1]
        assert isinstance(failed, FailedItem)
        assert failed.index == 1
        assert failed.attempts == 3
        assert failed.error_type == "ValueError"
        assert "negative" in failed.message
        assert outcome.failures == [failed]
        assert not outcome.ok

    def test_fail_fast_raises_original(self):
        with pytest.raises(ValueError, match="negative"):
            supervised_map(fail_below, [1, -1], fail_fast=True)

    def test_on_result_fires_per_item(self):
        seen = []
        supervised_map(
            double, [1, 2, 3], on_result=lambda i, r: seen.append((i, r))
        )
        assert sorted(seen) == [(0, 2), (1, 4), (2, 6)]

    def test_counters_emitted_into_registry(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            supervised_map(
                fail_below, [1, -1], config=SupervisorConfig(max_retries=1)
            )
        assert registry.counter("resilience.retries").value == 1
        assert registry.counter("resilience.failures").value == 1
        assert registry.counter("resilience.items_completed").value == 1

    def test_failed_item_to_dict_is_json_ready(self):
        outcome = supervised_map(fail_below, [-5])
        record = outcome.results[0].to_dict()
        assert record["error_type"] == "ValueError"
        assert "exception" not in record


class TestParallel:
    def test_matches_serial(self):
        serial = supervised_map(double, list(range(8)), n_jobs=1)
        parallel = supervised_map(double, list(range(8)), n_jobs=2)
        assert serial.results == parallel.results

    def test_injected_crash_retried(self):
        def crash_once(index, attempt):
            if index == 1 and attempt == 0:
                return ("crash", 0.0)
            return None

        outcome = supervised_map(
            double,
            [1, 2, 3],
            n_jobs=2,
            config=SupervisorConfig(max_retries=1),
            worker_fault=crash_once,
        )
        assert outcome.results == [2, 4, 6]
        assert outcome.retries == 1 and outcome.ok

    def test_injected_permanent_crash_quarantined(self):
        def always_crash(index, attempt):
            return ("crash", 0.0) if index == 0 else None

        outcome = supervised_map(
            double,
            [1, 2],
            n_jobs=2,
            config=SupervisorConfig(max_retries=1),
            worker_fault=always_crash,
        )
        failed = outcome.results[0]
        assert isinstance(failed, FailedItem)
        assert failed.error_type == "WorkerFailure"
        assert outcome.results[1] == 4

    def test_hang_times_out_and_retries(self):
        def hang_once(index, attempt):
            if index == 0 and attempt == 0:
                return ("hang", 10.0)
            return None

        start = time.monotonic()
        outcome = supervised_map(
            double,
            [5, 6],
            n_jobs=2,
            config=SupervisorConfig(timeout_s=0.5, max_retries=1),
            worker_fault=hang_once,
        )
        assert outcome.results == [10, 12]
        assert outcome.timeouts == 1 and outcome.retries == 1
        # Must not have waited for the 10s hang (neither in the loop nor
        # in pool shutdown) — only the 0.5s timeout plus the rerun.
        assert time.monotonic() - start < 8.0

    def test_permanent_timeout_quarantined(self):
        def always_hang(index, attempt):
            return ("hang", 30.0) if index == 0 else None

        outcome = supervised_map(
            double,
            [5, 6],
            n_jobs=2,
            config=SupervisorConfig(timeout_s=0.3),
            worker_fault=always_hang,
        )
        failed = outcome.results[0]
        assert isinstance(failed, FailedItem)
        assert failed.timed_out
        assert failed.error_type == "ResilienceError"
        assert outcome.results[1] == 12

    def test_queued_items_do_not_time_out(self, tmp_path):
        # Six 0.3 s items on two workers take ~0.9 s end to end; each
        # attempt's 0.8 s deadline and its item clock must start when a
        # worker takes it, not when the item is queued.
        log = TelemetryLog.in_dir(tmp_path)
        outcome = supervised_map(
            nap,
            list(range(6)),
            n_jobs=2,
            config=SupervisorConfig(timeout_s=0.8),
            telemetry=log,
        )
        assert outcome.results == list(range(6))
        assert outcome.timeouts == 0 and outcome.ok
        done = [e for e in read_telemetry(log) if e["type"] == "item-done"]
        assert len(done) == 6
        assert all(event["elapsed_s"] < 0.8 for event in done)

    def test_fail_fast_in_pool(self):
        def always_crash(index, attempt):
            return ("crash", 0.0) if index == 0 else None

        with pytest.raises(WorkerFailure):
            supervised_map(
                double, [1, 2], n_jobs=2, worker_fault=always_crash,
                fail_fast=True,
            )


class TestBackoff:
    def test_backoff_is_deterministic(self):
        from repro.resilience.supervisor import _backoff_delay

        config = SupervisorConfig(backoff_base_s=0.1, max_retries=3)
        assert _backoff_delay(config, 4, 2) == _backoff_delay(config, 4, 2)
        # Exponential growth: attempt 3 waits more than attempt 1.
        assert _backoff_delay(config, 4, 3) > _backoff_delay(config, 4, 1)

    def test_zero_base_means_no_wait(self):
        from repro.resilience.supervisor import _backoff_delay

        assert _backoff_delay(SupervisorConfig(), 0, 1) == 0.0
