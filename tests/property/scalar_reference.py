"""Scalar reference flavours of the uplink schedulers, for tests.

Each reference is a per-candidate utility closure over the generic
:func:`~repro.core.scheduling.base.build_schedule` walk, computing every
rate with the scalar CQI model (:func:`repro.lte.mcs.rb_rate_bps`) rather
than the schedulers' batched weight tables.  The production schedulers
must emit identical :class:`SubframeSchedule` objects — grant for grant,
rate bits included.
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence

from repro.core.joint.provider import JointAccessProvider
from repro.core.scheduling.base import build_schedule
from repro.core.scheduling.types import SchedulingContext
from repro.lte import mcs
from repro.lte.phy import mumimo_sinr_penalty_db
from repro.lte.resources import SubframeSchedule

__all__ = ["scalar_rate_bps", "reference_schedulers"]

ReferenceScheduler = Callable[[SchedulingContext], SubframeSchedule]


def scalar_rate_bps(context: SchedulingContext, ue: int, rb: int, streams: int) -> float:
    """``r_{i,b}`` at ``streams`` concurrent streams, one scalar CQI lookup."""
    penalty = mumimo_sinr_penalty_db(streams, context.num_antennas)
    sinr = float(context.sinr_db[ue][rb]) + penalty - context.link_margin_db
    return context.rate_scale * mcs.rb_rate_bps(sinr)


def _pf_weight(context: SchedulingContext, ue: int, rb: int, streams: int) -> float:
    average = max(context.avg_throughput_bps[ue], 1.0)
    return scalar_rate_bps(context, ue, rb, streams) / average


def _walk(context: SchedulingContext, utility, max_group_size: int) -> SubframeSchedule:
    return build_schedule(
        context,
        rb_utility=utility,
        max_group_size=max_group_size,
        grant_streams=lambda size: max(min(size, context.num_antennas), 1),
    )


def pf(context: SchedulingContext) -> SubframeSchedule:
    def utility(rb: int, group: Sequence[int]) -> float:
        streams = min(len(group), context.num_antennas)
        if streams == 0:
            return 0.0
        return sum(_pf_weight(context, ue, rb, streams) for ue in group)

    return _walk(context, utility, context.num_antennas)


def oracle(context: SchedulingContext) -> SubframeSchedule:
    clear = context.clear_ues

    def utility(rb: int, group: Sequence[int]) -> float:
        if any(ue not in clear for ue in group):
            return float("-inf")
        streams = min(len(group), context.num_antennas)
        if streams == 0:
            return 0.0
        return sum(_pf_weight(context, ue, rb, streams) for ue in group)

    return _walk(context, utility, context.num_antennas)


def access_aware(provider: JointAccessProvider) -> ReferenceScheduler:
    def schedule(context: SchedulingContext) -> SubframeSchedule:
        def utility(rb: int, group: Sequence[int]) -> float:
            streams = min(len(group), context.num_antennas)
            if streams == 0:
                return 0.0
            return sum(
                provider.access_probability(ue) * _pf_weight(context, ue, rb, streams)
                for ue in group
            )

        return _walk(context, utility, context.num_antennas)

    return schedule


def speculative(
    provider: JointAccessProvider, max_group_size: int
) -> ReferenceScheduler:
    """Eqn. 4, re-filtering the full pattern table per member."""

    def schedule(context: SchedulingContext) -> SubframeSchedule:
        m = context.num_antennas

        def utility(rb: int, group: Sequence[int]) -> float:
            if not group:
                return 0.0
            s_cap = min(len(group), m)
            table = provider.pattern_table(frozenset(group))
            total = 0.0
            for ue in group:
                service = sum(
                    probability
                    for (member, streams), probability in table.items()
                    if member == ue and streams <= m
                )
                if service > 0.0:
                    total += service * _pf_weight(context, ue, rb, s_cap)
            return total

        return _walk(context, utility, max_group_size)

    return schedule


def reference_schedulers(
    provider: JointAccessProvider, speculative_group_size: int
) -> Dict[str, ReferenceScheduler]:
    """Scheduler name -> scalar reference, keyed like the production set."""
    return {
        "pf": pf,
        "oracle": oracle,
        "access-aware": access_aware(provider),
        "speculative": speculative(provider, speculative_group_size),
    }
