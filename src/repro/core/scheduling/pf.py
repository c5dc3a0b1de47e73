"""The native proportional-fair scheduler (Eqn. 1) — the paper's baseline.

Per RB, pick the group of at most ``M`` clients maximizing
``sum_i r_{i,b,g} / R_i``; with ``M = 1`` this is classic single-stream PF,
with ``M > 1`` it is greedy MU-MIMO user grouping.  No access probabilities
enter: in licensed spectrum this scheduler is efficient, in unlicensed
spectrum its grants silently die on blocked clients.
"""

from __future__ import annotations

from repro.core.scheduling.base import UplinkScheduler, build_schedule_fast
from repro.core.scheduling.types import BurstTable, SchedulingContext
from repro.lte.pilots import MAX_ORTHOGONAL_PILOTS
from repro.lte.resources import SubframeSchedule

__all__ = ["ProportionalFairScheduler"]


class ProportionalFairScheduler(UplinkScheduler):
    """Native PF scheduling, SISO and MU-MIMO."""

    name = "pf"

    def schedule(self, context: SchedulingContext) -> SubframeSchedule:
        # PF's group utility is a plain sum of per-client weights whose
        # value depends only on the group size (via the stream-count SINR
        # penalty), so the linear builder applies directly over the
        # burst's lazily windowed weight table.
        table = BurstTable(
            context, min(context.num_antennas, MAX_ORTHOGONAL_PILOTS)
        )
        return build_schedule_fast(
            context, max_group_size=context.num_antennas, table=table
        )
