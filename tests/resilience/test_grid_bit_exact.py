"""Supervision and checkpoint/resume must never change results.

Pins the opt-in contract of ``repro.resilience``: a supervised parallel
grid, a checkpointed grid, and a killed-then-resumed grid all reproduce
the plain serial grid bit-exactly.
"""

import pytest

from repro.experiments import resume_checkpoint, run_experiment_grid
from repro.resilience import SupervisorConfig
from tests.golden.cases import BENCH_SIZES, bench_spec

SEEDS = [0, 1]


@pytest.fixture(scope="module")
def spec():
    return bench_spec(BENCH_SIZES[0], "pf")


@pytest.fixture(scope="module")
def plain(spec):
    return run_experiment_grid(spec, SEEDS, n_jobs=1)


def test_supervised_parallel_grid_equals_serial(spec, plain):
    supervised = run_experiment_grid(
        spec,
        SEEDS,
        n_jobs=2,
        supervisor=SupervisorConfig(timeout_s=600.0, max_retries=1),
    )
    assert supervised == plain


def test_checkpointed_and_resumed_grids_equal_serial(spec, plain, tmp_path):
    checkpointed = run_experiment_grid(spec, SEEDS, n_jobs=1, checkpoint_dir=tmp_path)
    assert checkpointed == plain
    # Simulate a mid-run kill: drop the last completed cell, then resume.
    (tmp_path / "cell-00001.json").unlink()
    kind, resumed = resume_checkpoint(tmp_path)
    assert kind == "grid"
    assert resumed == plain
