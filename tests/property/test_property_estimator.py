"""The dense-counter estimator agrees bit for bit with the scalar reference.

Random report streams (schedules, accesses, rejected reports and
``reset_ues`` calls) drive :class:`AccessEstimator` and
:class:`ScalarAccessEstimator` side by side, with decays in ``(0, 1]`` and
triplet tracking on or off.  Every estimate, count and transformed target
(tolerances included) must match exactly, as Python floats.
"""

from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.measurement.estimator import AccessEstimator
from repro.errors import MeasurementError
from tests.property.scalar_estimator import ScalarAccessEstimator

MAX_UES = 7


def _same(a, b) -> bool:
    # repr equality is bit equality for floats (it tells -0.0 from 0.0).
    return type(a) is type(b) and repr(a) == repr(b)


def _outcome(call):
    try:
        return call()
    except MeasurementError as error:
        return ("error", str(error))


@st.composite
def operations(draw, num_ues):
    ues = st.integers(min_value=0, max_value=num_ues - 1)
    kind = draw(st.sampled_from(["record"] * 8 + ["reset", "bad"]))
    if kind == "reset":
        return ("reset", draw(st.sets(ues, max_size=2)), None)
    scheduled = draw(st.sets(ues, max_size=num_ues))
    accessed = draw(st.sets(st.sampled_from(sorted(scheduled)))) if scheduled else set()
    if kind == "bad":
        # Either an unknown client or an access by an unscheduled one.
        if draw(st.booleans()):
            scheduled = scheduled | {draw(st.sampled_from([-1, num_ues, num_ues + 3]))}
        else:
            accessed = accessed | {draw(st.sampled_from([num_ues, -2]))}
    return (kind, scheduled, accessed)


@st.composite
def scenarios(draw):
    num_ues = draw(st.integers(min_value=1, max_value=MAX_UES))
    decay = draw(
        st.one_of(
            st.just(1.0),
            st.floats(min_value=0.05, max_value=1.0, exclude_min=True),
        )
    )
    triplets = draw(st.booleans())
    ops = draw(st.lists(operations(num_ues), max_size=40))
    return num_ues, decay, triplets, ops


def _assert_agree(fast: AccessEstimator, ref: ScalarAccessEstimator) -> None:
    n = ref.num_ues
    assert fast.subframes_observed == ref.subframes_observed
    for ue in range(n):
        assert _same(fast.individual_samples(ue), ref.individual_samples(ue))
        assert _outcome(lambda: fast.p_individual(ue)) == _outcome(
            lambda: ref.p_individual(ue)
        )
    for i, j in combinations(range(n), 2):
        assert _same(fast.pair_samples(i, j), ref.pair_samples(i, j))
        assert _same(fast.pair_samples(j, i), ref.pair_samples(j, i))
        p_fast = _outcome(lambda: fast.p_pairwise(j, i))
        p_ref = _outcome(lambda: ref.p_pairwise(j, i))
        assert p_fast == p_ref
        if isinstance(p_ref, float):
            assert _same(p_fast, p_ref)
    for triple in combinations(range(n), 3):
        assert _same(fast.triple_samples(*triple), ref.triple_samples(*triple))
    assert _same(fast.min_pair_samples(), ref.min_pair_samples())
    for samples in (0, 1, 2, 5):
        assert fast.complete(samples) == ref.complete(samples)

    include = ref.track_triplets
    expected = _outcome(
        lambda: ref.to_transformed(z=2.5, include_triplets=include, min_triple_samples=1)
    )
    got = _outcome(
        lambda: fast.to_transformed(z=2.5, include_triplets=include, min_triple_samples=1)
    )
    if isinstance(expected, tuple):
        assert got == expected
        return
    for name in (
        "individual",
        "pairwise",
        "individual_tolerance",
        "pairwise_tolerance",
        "triplet",
        "triplet_tolerance",
    ):
        mine, theirs = getattr(got, name), getattr(expected, name)
        assert list(mine) == list(theirs), name
        assert all(_same(mine[key], theirs[key]) for key in theirs), name


@given(scenarios())
@settings(max_examples=150, deadline=None)
def test_dense_estimator_matches_scalar_reference(scenario):
    num_ues, decay, triplets, ops = scenario
    fast = AccessEstimator(num_ues, track_triplets=triplets, decay=decay)
    ref = ScalarAccessEstimator(num_ues, track_triplets=triplets, decay=decay)
    for kind, first, second in ops:
        if kind == "reset":
            fast.reset_ues(first)
            ref.reset_ues(first)
        else:
            outcomes = []
            for estimator in (fast, ref):
                try:
                    estimator.record_subframe(first, second)
                    outcomes.append("ok")
                except MeasurementError:
                    outcomes.append("rejected")
            assert outcomes[0] == outcomes[1]
            assert (outcomes[0] == "rejected") == (kind == "bad")
    _assert_agree(fast, ref)
