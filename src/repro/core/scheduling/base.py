"""Scheduler base class and the shared greedy per-RB group builder.

All four schedulers (PF, access-aware, speculative, oracle) share the same
skeleton: walk the RBs of the subframe, greedily grow the client group on
each RB by the scheduler-specific expected-utility function, and respect the
control-channel budget of ``K`` distinct clients per subframe.  They differ
only in how a candidate group is valued and how large it may grow.

Two builders implement the skeleton:

* :func:`build_schedule_fast` — the uplink builder: utilities come from
  per-burst weight columns (plain sums for PF-family schedulers, dot
  products of cached service-probability vectors and weight columns for
  the speculative one, via a :class:`StepScorer`), and grant rates from
  per-burst rate columns;
* :func:`build_schedule` — the generic builder over a per-candidate
  utility callable, used by the downlink scheduler.

Both run the same greedy scan (ascending id order, strict ``1e-15``
improvement over the running best) as a sequential Python loop, which is
what makes near-tie behaviour reproducible.
"""

from __future__ import annotations

import abc
from typing import Callable, Dict, List, Optional, Sequence, Set

from repro.core.scheduling.types import (
    BurstTable,
    CompactColumns,
    SchedulingContext,
)
from repro.errors import SchedulingError
from repro.lte.pilots import MAX_ORTHOGONAL_PILOTS
from repro.lte.resources import SubframeSchedule, UplinkGrant

__all__ = [
    "UplinkScheduler",
    "StepScorer",
    "greedy_group",
    "build_schedule",
    "build_schedule_fast",
]

GroupUtility = Callable[[Sequence[int]], float]


class UplinkScheduler(abc.ABC):
    """Interface: one uplink subframe in, one schedule out."""

    #: Human-readable identifier used in results and reports.
    name: str = "scheduler"

    @abc.abstractmethod
    def schedule(self, context: SchedulingContext) -> SubframeSchedule:
        """Produce the grants for one uplink subframe."""


class StepScorer(abc.ABC):
    """Values every candidate extension of the current group in one call.

    The contract behind :func:`build_schedule_fast`'s non-linear
    utilities: the greedy loop owns selection (the ``1e-15`` chain scan),
    the scorer owns valuation.  A scorer is stateful along one RB's
    greedy path — ``start_rb`` resets it, ``step_values`` prices
    ``group + [c]`` for every remaining candidate ``c`` (reusing whatever
    incremental state the committed group has built), and ``commit``
    extends that state when the loop accepts a candidate.  Every returned
    value must be bit-identical to the scheduler's scalar group-utility
    for the same candidate group.
    """

    @abc.abstractmethod
    def start_rb(self, rb: int) -> None:
        """Reset per-RB state; the group is empty again."""

    @abc.abstractmethod
    def step_values(
        self, rb: int, group: Sequence[int], candidates: Sequence[int]
    ) -> Sequence[float]:
        """Utility of ``group + [c]`` for each candidate, in order."""

    @abc.abstractmethod
    def commit(self, ue: int) -> None:
        """The greedy loop accepted ``ue``; extend incremental state."""

    @abc.abstractmethod
    def value(self, rb: int, group: Sequence[int]) -> float:
        """Utility of an arbitrary group (used when the K-budget trims)."""


def greedy_group(
    candidates: Sequence[int],
    utility: GroupUtility,
    max_size: int,
) -> List[int]:
    """Grow a client group by always adding the best marginal client.

    Mirrors Eqn. 3: starting empty, repeatedly add the client with the
    largest strictly positive incremental utility; stop when none improves
    or the size cap is reached.  Deterministic: ties break toward the
    lowest client id.
    """
    if max_size < 1:
        raise SchedulingError(f"max_size must be positive: {max_size}")
    group: List[int] = []
    current = 0.0
    remaining = sorted(set(candidates))
    while remaining and len(group) < max_size:
        best_ue: Optional[int] = None
        best_value = current
        for ue in remaining:
            value = utility(group + [ue])
            if value > best_value + 1e-15:
                best_ue = ue
                best_value = value
        if best_ue is None:
            break
        group.append(best_ue)
        remaining.remove(best_ue)
        current = best_value
    return group


def build_schedule(
    context: SchedulingContext,
    rb_utility: Callable[[int, Sequence[int]], float],
    max_group_size: int,
    grant_streams: Callable[[int], int],
) -> SubframeSchedule:
    """Shared RB-walking skeleton over a per-candidate utility callable.

    Args:
        context: the subframe's scheduling context.
        rb_utility: ``(rb, group) -> expected utility`` for a candidate
            group on that RB.
        max_group_size: cap on clients per RB (``M`` for conventional
            schedulers, ``~2M`` for the speculative one).
        grant_streams: group size -> stream count the grant's MCS assumes
            (``min(size, M)``: the largest decodable concurrency).
    """
    size_cap = min(max_group_size, MAX_ORTHOGONAL_PILOTS)
    schedule = SubframeSchedule(num_rbs=context.num_rbs)
    distinct: Set[int] = set()
    for rb in range(context.num_rbs):
        if len(distinct) >= context.max_distinct_ues:
            candidates: Sequence[int] = sorted(distinct)
        else:
            candidates = context.ue_ids
        group = greedy_group(
            candidates, lambda g, rb=rb: rb_utility(rb, g), size_cap
        )
        # The K-budget must hold for the union across RBs: admit the greedy
        # order's prefix of newcomers that still fits the budget.
        allowed_new = context.max_distinct_ues - len(distinct)
        admitted: List[int] = []
        new_count = 0
        for ue in group:
            if ue in distinct:
                admitted.append(ue)
            elif new_count < allowed_new:
                admitted.append(ue)
                new_count += 1
        streams = grant_streams(len(admitted))
        for pilot_index, ue in enumerate(admitted):
            schedule.add_grant(
                UplinkGrant(
                    ue_id=ue,
                    rb=rb,
                    rate_bps=context.rate_bps(ue, rb, streams),
                    pilot_index=pilot_index,
                )
            )
            distinct.add(ue)
    return schedule


def build_schedule_fast(
    context: SchedulingContext,
    max_group_size: int,
    table: Optional[BurstTable] = None,
    scorer: Optional[StepScorer] = None,
    rb_utilities: Optional[Dict[int, float]] = None,
) -> SubframeSchedule:
    """The uplink RB walk: :func:`build_schedule`'s walk, batched valuation.

    Candidate valuation reads a per-burst :class:`BurstTable` instead of
    calling per-candidate utility closures:

    * ``table.weight_row(streams, rb)`` — per-client PF weights for linear
      utilities (PF, access-aware, oracle); the greedy step for a group of
      size ``k`` reads the single row at ``streams = min(k + 1, M)``;
    * ``scorer`` — a :class:`StepScorer` for non-linear utilities (the
      speculative scheduler's Eqn. 4 dot products); the table then only
      supplies grant rates;
    * ``table.rate_row(streams, rb)`` — grant rates, replacing the
      per-grant ``context.rate_bps`` calls.

    Once the ``K`` distinct-client budget saturates, the linear path
    switches to :class:`~repro.core.scheduling.types.CompactColumns` from
    ``table.compact``: the candidate set is frozen (only already-admitted
    clients may be granted, admission can never trim), so the remaining
    RBs scan ``K``-wide compact rows instead of dense UE-id rows.

    All schedulers share the stream-count rule ``min(size, M)`` (floor 1),
    so it is inlined rather than passed in.  Selections and grants equal
    :func:`build_schedule`'s with the equivalent per-candidate utility:
    the table holds the same IEEE floats ``SchedulingContext.pf_weight``
    computes, and the greedy scan is the same sequential recurrence — the
    acceptance threshold ``best_value + 1e-15`` is hoisted and refreshed
    only when ``best_value`` changes, which is exactly when
    :func:`build_schedule`'s recomputed bound changes.
    """
    if table is None:
        raise SchedulingError("build_schedule_fast needs a BurstTable")
    size_cap = min(max_group_size, MAX_ORTHOGONAL_PILOTS)
    if size_cap < 1:
        raise SchedulingError(f"max_size must be positive: {size_cap}")
    antennas = context.num_antennas
    max_distinct = context.max_distinct_ues
    schedule = SubframeSchedule.empty(context.num_rbs)
    rb_schedules = schedule.rb_schedules
    distinct: Set[int] = set()
    all_candidates = sorted(set(context.ue_ids))
    weight_row = table.weight_row
    compact: Optional[CompactColumns] = None
    saturated_candidates: Optional[List[int]] = None
    for rb in range(context.num_rbs):
        saturated = len(distinct) >= max_distinct
        if saturated and scorer is None:
            # Post-saturation: the candidate set is frozen to the K
            # admitted clients, so admission is the identity and the scan
            # runs over K-wide compact rows (compact index == position in
            # the ascending id list, so scan order and tie-breaks match
            # the full-width walk exactly).
            if compact is None:
                compact = table.compact(sorted(distinct), start=rb)
            ids = compact.ids
            compact_rows = compact.weight_rows
            remaining = list(range(len(ids)))
            group: List[int] = []
            current = 0.0
            while remaining and len(group) < size_cap:
                size = len(group) + 1
                weights = compact_rows[
                    size if size < antennas else antennas
                ][rb]
                base = 0.0
                for member in group:
                    base += weights[member]
                best_index = -1
                best_value = current
                threshold = current + 1e-15
                for index, candidate in enumerate(remaining):
                    value = base + weights[candidate]
                    if value > threshold:
                        best_index = index
                        best_value = value
                        threshold = value + 1e-15
                if best_index < 0:
                    break
                group.append(remaining.pop(best_index))
                current = best_value
            if not group:
                continue
            if rb_utilities is not None:
                rb_utilities[rb] = current
            size = len(group)
            streams = size if size < antennas else antennas
            rates = compact.rate_row(streams, rb)
            rb_schedules[rb].grant_group(
                [ids[candidate] for candidate in group],
                [rates[candidate] for candidate in group],
            )
            continue
        if saturated:
            if saturated_candidates is None:
                saturated_candidates = sorted(distinct)
            remaining = list(saturated_candidates)
        else:
            remaining = list(all_candidates)
        group = []
        current = 0.0
        if scorer is None:
            # Linear utilities: value = (sum of member weights) + w[c].
            while remaining and len(group) < size_cap:
                size = len(group) + 1
                weights = weight_row(
                    size if size < antennas else antennas, rb
                )
                base = 0.0
                for member in group:
                    base += weights[member]
                best_index = -1
                best_value = current
                threshold = current + 1e-15
                for index, ue in enumerate(remaining):
                    value = base + weights[ue]
                    if value > threshold:
                        best_index = index
                        best_value = value
                        threshold = value + 1e-15
                if best_index < 0:
                    break
                group.append(remaining.pop(best_index))
                current = best_value
        else:
            scorer.start_rb(rb)
            while remaining and len(group) < size_cap:
                values = scorer.step_values(rb, group, remaining)
                best_index = -1
                best_value = current
                threshold = current + 1e-15
                for index, value in enumerate(values):
                    if value > threshold:
                        best_index = index
                        best_value = value
                        threshold = value + 1e-15
                if best_index < 0:
                    break
                ue = remaining.pop(best_index)
                group.append(ue)
                scorer.commit(ue)
                current = best_value
        allowed_new = max_distinct - len(distinct)
        admitted: List[int] = []
        new_count = 0
        for ue in group:
            if ue in distinct:
                admitted.append(ue)
            elif new_count < allowed_new:
                admitted.append(ue)
                new_count += 1
        if not admitted:
            continue
        size = len(admitted)
        if rb_utilities is not None:
            if size == len(group):
                rb_utilities[rb] = current
            elif scorer is not None:
                rb_utilities[rb] = scorer.value(rb, admitted)
            else:
                weights = weight_row(
                    size if size < antennas else antennas, rb
                )
                trimmed = 0.0
                for ue in admitted:
                    trimmed += weights[ue]
                rb_utilities[rb] = trimmed
        streams = size if size < antennas else antennas
        rates = table.rate_row(streams, rb)
        rb_schedules[rb].grant_group(
            admitted, [rates[ue] for ue in admitted]
        )
        if new_count:
            distinct.update(admitted)
            saturated_candidates = None
    return schedule
