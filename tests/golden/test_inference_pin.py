"""Blueprint inference must reproduce its committed outputs exactly.

Each case feeds a seeded clear-channel trace of a fixed topology through
:class:`AccessEstimator`, builds the estimated target with
``to_transformed`` and runs :meth:`BlueprintInference.infer`.  The pin in
``inference_pin.json`` holds, per case, the winning edge sets, the ``repr``
of the winning and per-start aggregate violations, the winning start and
every start's iteration count — so any change to the solver's arithmetic
or move order shows up here, not only a change of the final blueprint.

To record an intended change, run ``python -m tests.golden.test_inference_pin``
from the repo root (with ``src`` on ``PYTHONPATH``) and review the JSON diff.
"""

import json
from pathlib import Path
from typing import Callable, Dict, List

import numpy as np
import pytest

from repro.core.blueprint.inference import BlueprintInference, InferenceConfig
from repro.core.blueprint.initializers import topology_start
from repro.core.measurement.estimator import AccessEstimator
from repro.topology.graph import InterferenceTopology
from repro.topology.scenarios import testbed_topology as make_testbed_topology

PIN_PATH = Path(__file__).parent / "inference_pin.json"
TRACE_SUBFRAMES = 2000


def clear_trace(topology: InterferenceTopology, subframes: int, seed: int) -> List[List[int]]:
    """Clear-channel UEs per subframe under independent terminal activity."""
    rng = np.random.default_rng(seed)
    edges = np.zeros((topology.num_terminals, topology.num_ues), dtype=np.int32)
    for k, ues in enumerate(topology.edges):
        edges[k, sorted(ues)] = 1
    active = (rng.random((subframes, topology.num_terminals)) < np.asarray(topology.q)).astype(np.int32)
    clear = (active @ edges) == 0
    return [np.flatnonzero(row).tolist() for row in clear]


def estimated_target(topology: InterferenceTopology, seed: int, triplets: bool = False):
    estimator = AccessEstimator(topology.num_ues, track_triplets=triplets)
    everyone = tuple(range(topology.num_ues))
    for accessed in clear_trace(topology, TRACE_SUBFRAMES, seed):
        estimator.record_subframe(everyone, accessed)
    return estimator.to_transformed(z=3.0, include_triplets=triplets)


def _testbed(num_ues: int, seed: int) -> InterferenceTopology:
    return make_testbed_topology(num_ues=num_ues, hts_per_ue=2, activity=0.3, seed=seed)


def _testbed_case(num_ues: int, seed: int) -> Callable[[], dict]:
    def run() -> dict:
        target = estimated_target(_testbed(num_ues, seed), seed)
        return pin_of(BlueprintInference(InferenceConfig(seed=0)).infer(target))

    return run


def _triplet_case() -> dict:
    # A terminal straddling three clients next to pair and private ones:
    # the Section 3.5 shape that triplet constraints disambiguate.
    truth = InterferenceTopology.build(
        6,
        [(0.3, [0, 1, 2]), (0.25, [1, 2]), (0.2, [3, 4]), (0.15, [5]), (0.2, [0])],
    )
    target = estimated_target(truth, seed=11, triplets=True)
    assert target.triplet, "the trace must yield triplet constraints"
    return pin_of(BlueprintInference(InferenceConfig(seed=0)).infer(target))


def _warm_start_case() -> dict:
    # Re-inference after one terminal's airtime changed, warm-started from
    # the blueprint inferred before the change.
    before = _testbed(12, seed=5)
    inference = BlueprintInference(InferenceConfig(seed=0))
    previous = inference.infer(estimated_target(before, seed=5)).topology
    q = list(before.q)
    q[0] = min(q[0] + 0.2, 0.9)
    after = InterferenceTopology.build(before.num_ues, list(zip(q, before.edges)))
    result = inference.infer(
        estimated_target(after, seed=6),
        extra_starts=[("previous", topology_start(previous))],
    )
    return pin_of(result)


CASES: Dict[str, Callable[[], dict]] = {
    "testbed-8ue": _testbed_case(8, seed=1),
    "testbed-16ue": _testbed_case(16, seed=2),
    "testbed-24ue": _testbed_case(24, seed=3),
    "triplets-6ue": _triplet_case,
    "warm-start-12ue": _warm_start_case,
}


def pin_of(result) -> dict:
    return {
        "edges": sorted(sorted(ues) for ues in result.topology.edges),
        "aggregate_violation": repr(result.aggregate_violation),
        "winning_start": result.winning_start,
        "starts": [
            [outcome.label, outcome.iterations, repr(outcome.aggregate_violation)]
            for outcome in result.outcomes
        ],
    }


@pytest.fixture(scope="module")
def pins() -> dict:
    with PIN_PATH.open() as handle:
        return json.load(handle)


@pytest.mark.parametrize("key", sorted(CASES))
def test_inference_reproduces_pin(pins, key):
    assert CASES[key]() == pins[key]


def test_pin_and_case_list_agree(pins):
    assert sorted(pins) == sorted(CASES)


def write_pins() -> None:
    """Re-record every case from the current solver."""
    dumps = {key: run() for key, run in sorted(CASES.items())}
    PIN_PATH.write_text(json.dumps(dumps, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    write_pins()
