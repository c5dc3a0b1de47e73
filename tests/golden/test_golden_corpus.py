"""Every golden case must reproduce its committed output exactly.

``engine_golden.json`` holds one :meth:`SimulationResult.to_dict` dump per
case in :mod:`tests.golden.cases`.  A case passes only on exact equality of
the whole dump — counters, per-UE delivered bits (floats at full
precision) and the derived summary — so any drift in stage order, RNG
stream consumption, scheduling arithmetic or accounting fails here.

To record an intended output change, run ``python -m tests.golden.test_golden_corpus``
from the repo root (with ``src`` on ``PYTHONPATH``) and review the diff of
the JSON file like any other code change.
"""

import json
from pathlib import Path

import pytest

from tests.golden.cases import CASES, golden_dump

CORPUS_PATH = Path(__file__).parent / "engine_golden.json"


def load_corpus() -> dict:
    with CORPUS_PATH.open() as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def corpus():
    return load_corpus()


@pytest.mark.parametrize("key", sorted(CASES))
def test_case_reproduces_golden_output(corpus, key):
    assert golden_dump(CASES[key]().run()) == corpus[key]


def test_corpus_and_case_list_agree(corpus):
    assert sorted(corpus) == sorted(CASES)


@pytest.mark.parametrize("scheduler", ["pf", "speculative"])
def test_single_channel_plan_matches_channel_free_run(corpus, scheduler):
    # A 1-channel plan must be invisible to the engine.
    assert (
        corpus[f"bench/small/1ch/{scheduler}"]
        == corpus[f"bench/small/static/{scheduler}"]
    )


def write_corpus() -> None:
    """Re-record every case from the current engine."""
    dumps = {key: golden_dump(build().run()) for key, build in sorted(CASES.items())}
    CORPUS_PATH.write_text(json.dumps(dumps, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    write_corpus()
