"""Joint-access providers: the probability oracle behind the schedulers.

A provider answers, for any small client group ``G``:

* ``access_probability(i)`` — the marginal ``p(i)``;
* ``pattern_distribution(G)`` — the full joint pmf over which subset of
  ``G`` clears CCA in a subframe;
* ``pattern_table(G)`` — the derived table ``π[(i, s)] = P(i clear and
  exactly s members of G clear)`` that the speculative scheduler's expected
  utility (Eqn. 4) consumes directly;
* ``joint_probability(U, V)`` — ``P(U clear, V blocked)``.

Two implementations:

* :class:`TopologyJointProvider` — exact, from an (inferred or ground-truth)
  :class:`~repro.topology.graph.InterferenceTopology`.  The pmf over clear
  patterns is built by convolving the independent hidden terminals, grouped
  by their footprint inside ``G``; cost is linear in the number of attached
  terminals and in the number of *realizable* patterns, so group sizes up to
  ``2M`` are cheap.  Results are memoized: the scheduler re-queries the same
  groups every TxOP while only rates change.
* :class:`EmpiricalJointProvider` — counts patterns in a recorded clear/
  blocked matrix, the "directly from the traces" mode of Fig. 15.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import TopologyError
from repro.topology.graph import InterferenceTopology

__all__ = [
    "JointAccessProvider",
    "TopologyJointProvider",
    "EmpiricalJointProvider",
]

PatternDistribution = Dict[FrozenSet[int], float]
PatternTable = Dict[Tuple[int, int], float]


class JointAccessProvider:
    """Interface shared by topology-driven and trace-driven providers."""

    def access_probability(self, ue: int) -> float:
        raise NotImplementedError

    def pattern_distribution(self, group: FrozenSet[int]) -> PatternDistribution:
        """Joint pmf: clear-subset of ``group`` -> probability."""
        raise NotImplementedError

    def pattern_table(self, group: FrozenSet[int]) -> PatternTable:
        """``π[(i, s)]``: probability that ``i`` clears and exactly ``s``
        members of ``group`` (including ``i``) clear."""
        distribution = self.pattern_distribution(group)
        table: PatternTable = {}
        for clear_set, prob in distribution.items():
            size = len(clear_set)
            for ue in clear_set:
                key = (ue, size)
                table[key] = table.get(key, 0.0) + prob
        return table

    def decodable_service(
        self, group: FrozenSet[int], max_streams: int
    ) -> Dict[int, float]:
        """Per-UE decodable-service probability ``Σ_{s≤M} π[(i, s)]``.

        One pass over the pattern table derives the per-group sums every
        member's Eqn. 4 term needs — replacing the O(|table|·|G|) scan of
        re-filtering the full table per UE.  Accumulation per UE follows
        the table's insertion order (each UE's entries are summed in the
        same sequence the per-UE filter would visit them), so the values
        are bit-identical to the scalar scan.
        """
        service = {ue: 0.0 for ue in group}
        for (member, streams), probability in self.pattern_table(
            group
        ).items():
            if streams <= max_streams:
                service[member] += probability
        return service

    def service_vector(
        self, group: Sequence[int], max_streams: int
    ) -> np.ndarray:
        """:meth:`decodable_service` as a dense vector over ``group``.

        The joint-access tensor view: entry ``j`` is the decodable-service
        probability of ``group[j]``.  The greedy hot path consumes the
        dict form (its Python accumulation order is part of the
        bit-exactness contract); the vector form serves analysis and
        array consumers.
        """
        service = self.decodable_service(frozenset(group), max_streams)
        return np.array([service[ue] for ue in group], dtype=float)

    def joint_probability(
        self, clear_ues: Sequence[int], blocked_ues: Sequence[int] = ()
    ) -> float:
        clear = frozenset(clear_ues)
        blocked = frozenset(blocked_ues)
        if clear & blocked:
            raise TopologyError(
                f"UEs cannot be both clear and blocked: {sorted(clear & blocked)}"
            )
        group = clear | blocked
        distribution = self.pattern_distribution(group)
        # The pmf is keyed by clear pattern, so the answer is one lookup —
        # no need to scan the (possibly 2^|G|-sized) distribution.
        return distribution.get(clear, 0.0)


class _FastJointTables:
    """Int-bitmask mirror of one topology's pattern machinery.

    The speculative scheduler queries service probabilities per
    candidate group at every greedy step; this class answers those queries
    with integer bitmask keys (cheap hashing, cheap set algebra) and
    *incremental* group state: extending group ``G`` to ``G ∪ {c}`` merges
    ``G``'s ordered attached-terminal list with ``c``'s precomputed
    terminal list instead of re-scanning every terminal of the topology.

    Bit-exactness: the reference implementation's floats depend on dict
    insertion orders (footprints first seen in terminal order; blocked
    sets convolved in that order; per-UE sums accumulated in pattern
    order).  The bitmask keys are a bijection of the frozenset keys, and
    every loop here visits keys in the same order the reference does, so
    every product and sum is the identical IEEE operation sequence.  That
    is also why the blocked-set convolution is *not* resumed from the
    parent's pmf: folding ``c``'s factors after ``G``'s would change the
    multiplication association wherever ``c``'s terminals interleave, so
    the incremental reuse is at the attachment/footprint level while each
    distinct group's convolution runs once and is memoized forever.
    """

    def __init__(self, topology: InterferenceTopology) -> None:
        self.idle = tuple(1.0 - q for q in topology.q)
        term_masks = []
        ue_terminals: Dict[int, list] = {}
        for index, edge_set in enumerate(topology.edges):
            mask = 0
            for ue in edge_set:
                mask |= 1 << ue
                ue_terminals.setdefault(ue, []).append(index)
            term_masks.append(mask)
        self.term_masks = tuple(term_masks)
        #: Per-UE terminal indices, ascending — the increment merged in
        #: when a greedy step attaches that UE to the group.
        self.ue_terminals = {
            ue: tuple(indices) for ue, indices in ue_terminals.items()
        }
        #: group mask -> ordered attached-terminal tuple (ascending index,
        #: i.e. exactly the subsequence a full terminal scan would visit).
        self._attached: Dict[int, Tuple[int, ...]] = {}
        #: (group mask, max streams) -> {ue: decodable-service probability}
        self._service: Dict[Tuple[int, int], Dict[int, float]] = {}
        #: Service-cache traffic, rolled into the owning provider's
        #: ``cache_hits``/``cache_misses`` (the greedy fast path queries
        #: these tables directly, so counting here is what keeps the obs
        #: counters honest about the hot path).
        self.hits = 0
        self.misses = 0

    def cache_size(self) -> int:
        return len(self._service)

    def extend_attached(
        self, attached: Tuple[int, ...], ue: int
    ) -> Tuple[int, ...]:
        """Merge ``ue``'s terminals into an ordered attached list."""
        extra = self.ue_terminals.get(ue, ())
        if not extra:
            return attached
        if not attached:
            return extra
        merged: list = []
        i = j = 0
        len_a, len_e = len(attached), len(extra)
        while i < len_a and j < len_e:
            a, e = attached[i], extra[j]
            if a < e:
                merged.append(a)
                i += 1
            elif e < a:
                merged.append(e)
                j += 1
            else:
                merged.append(a)
                i += 1
                j += 1
        merged.extend(attached[i:])
        merged.extend(extra[j:])
        return tuple(merged)

    def attached_for(self, mask: int) -> Tuple[int, ...]:
        """Ordered attached-terminal list for an arbitrary group mask."""
        cached = self._attached.get(mask)
        if cached is None:
            indices: set = set()
            bits = mask
            while bits:
                bit = bits & -bits
                bits ^= bit
                indices.update(self.ue_terminals.get(bit.bit_length() - 1, ()))
            cached = tuple(sorted(indices))
            self._attached[mask] = cached
        return cached

    def service(
        self,
        mask: int,
        max_streams: int,
        parent_attached: Optional[Tuple[int, ...]] = None,
        added: Optional[int] = None,
    ) -> Dict[int, float]:
        """Decodable-service probabilities for the group ``mask``.

        ``parent_attached``/``added`` let the greedy path extend the
        committed group's attachment state instead of re-deriving it; on a
        cache hit neither is touched.  Returns ``{ue: Σ_{s≤M} π[(ue, s)]}``
        with floats bit-identical to the frozenset-keyed reference.
        """
        key = (mask, max_streams)
        cached = self._service.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        if added is not None and parent_attached is not None:
            attached = self._attached.get(mask)
            if attached is None:
                attached = self.extend_attached(parent_attached, added)
                self._attached[mask] = attached
        else:
            attached = self.attached_for(mask)

        # Footprint products in first-seen terminal order (the reference
        # scans all terminals ascending; ``attached`` is that scan's
        # non-empty subsequence).
        footprint_idle: Dict[int, float] = {}
        term_masks = self.term_masks
        idle_by_terminal = self.idle
        for index in attached:
            footprint = term_masks[index] & mask
            footprint_idle[footprint] = footprint_idle.get(
                footprint, 1.0
            ) * idle_by_terminal[index]

        blocked_dist: Dict[int, float] = {0: 1.0}
        for footprint, idle in footprint_idle.items():
            busy = 1.0 - idle
            updated: Dict[int, float] = {}
            for blocked, prob in blocked_dist.items():
                updated[blocked] = updated.get(blocked, 0.0) + prob * idle
                grown = blocked | footprint
                updated[grown] = updated.get(grown, 0.0) + prob * busy
            blocked_dist = updated

        distribution: Dict[int, float] = {}
        for blocked, prob in blocked_dist.items():
            clear = mask & ~blocked
            distribution[clear] = distribution.get(clear, 0.0) + prob

        # Fold to per-UE (streams -> probability) tables, preserving the
        # reference's per-UE accumulation and key-insertion orders (both
        # follow the pattern-distribution order for each fixed UE).
        per_ue: Dict[int, Dict[int, float]] = {}
        for clear, prob in distribution.items():
            size = clear.bit_count()
            bits = clear
            while bits:
                bit = bits & -bits
                bits ^= bit
                ue = bit.bit_length() - 1
                by_streams = per_ue.get(ue)
                if by_streams is None:
                    per_ue[ue] = {size: prob}
                else:
                    by_streams[size] = by_streams.get(size, 0.0) + prob

        service: Dict[int, float] = {}
        bits = mask
        while bits:
            bit = bits & -bits
            bits ^= bit
            ue = bit.bit_length() - 1
            total = 0.0
            by_streams = per_ue.get(ue)
            if by_streams is not None:
                for streams, prob in by_streams.items():
                    if streams <= max_streams:
                        total += prob
            service[ue] = total
        self._service[key] = service
        return service


class TopologyJointProvider(JointAccessProvider):
    """Exact joint access pmfs from an interference topology.

    All query results are memoized; the caches are keyed to the *identity*
    of ``self.topology``, so swapping in a mutated topology (``dynamics``
    churn via ``with_terminal``/``without_terminal``) invalidates every
    cached pmf, table and service tensor on the next query.  The plain-int
    ``cache_hits``/``cache_misses`` counters cover all three cache layers
    and feed the ``scheduler.pattern_cache_*`` obs metrics.
    """

    def __init__(self, topology: InterferenceTopology) -> None:
        self.topology = topology
        self._pattern_cache: Dict[FrozenSet[int], PatternDistribution] = {}
        self._table_cache: Dict[FrozenSet[int], PatternTable] = {}
        self._fast: Optional[_FastJointTables] = None
        self._built_for = topology
        self._hits = 0
        self._misses = 0

    @property
    def cache_hits(self) -> int:
        """Cache hits across every layer, including the fast tables the
        greedy hot path queries directly."""
        fast = self._fast
        return self._hits + (fast.hits if fast is not None else 0)

    @property
    def cache_misses(self) -> int:
        """Cache misses across every layer (see :attr:`cache_hits`)."""
        fast = self._fast
        return self._misses + (fast.misses if fast is not None else 0)

    def _check_current(self) -> None:
        """Drop every cache when the topology instance was swapped."""
        if self.topology is not self._built_for:
            if self._fast is not None:
                # Keep the traffic counters monotonic across the swap —
                # obs publishing records deltas and must never see the
                # totals move backwards.
                self._hits += self._fast.hits
                self._misses += self._fast.misses
            self._pattern_cache = {}
            self._table_cache = {}
            self._fast = None
            self._built_for = self.topology

    def fast_tables(self) -> _FastJointTables:
        """The bitmask-keyed service machinery for the current topology."""
        self._check_current()
        if self._fast is None:
            self._fast = _FastJointTables(self.topology)
        return self._fast

    def cache_size(self) -> int:
        """Total memoized entries across all cache layers."""
        size = len(self._pattern_cache) + len(self._table_cache)
        if self._fast is not None:
            size += self._fast.cache_size()
        return size

    def access_probability(self, ue: int) -> float:
        return self.topology.access_probability(ue)

    def decodable_service(
        self, group: FrozenSet[int], max_streams: int
    ) -> Dict[int, float]:
        tables = self.fast_tables()
        mask = 0
        for ue in group:
            mask |= 1 << ue
        return tables.service(mask, max_streams)

    def pattern_distribution(self, group: FrozenSet[int]) -> PatternDistribution:
        self._check_current()
        group = frozenset(group)
        cached = self._pattern_cache.get(group)
        if cached is not None:
            self._hits += 1
            return cached
        self._misses += 1

        # Merge hidden terminals by their footprint inside the group; a set
        # of independent terminals with the same footprint acts as one with
        # busy probability 1 - prod(1 - q_k).
        footprint_idle: Dict[FrozenSet[int], float] = {}
        for q, edge_set in zip(self.topology.q, self.topology.edges):
            footprint = frozenset(edge_set & group)
            if not footprint:
                continue
            footprint_idle[footprint] = footprint_idle.get(footprint, 1.0) * (1.0 - q)

        # Convolve footprints in blocked-set space.
        blocked_dist: Dict[FrozenSet[int], float] = {frozenset(): 1.0}
        for footprint, idle in footprint_idle.items():
            busy = 1.0 - idle
            updated: Dict[FrozenSet[int], float] = {}
            for blocked, prob in blocked_dist.items():
                updated[blocked] = updated.get(blocked, 0.0) + prob * idle
                grown = blocked | footprint
                updated[grown] = updated.get(grown, 0.0) + prob * busy
            blocked_dist = updated

        distribution: PatternDistribution = {}
        for blocked, prob in blocked_dist.items():
            clear = group - blocked
            distribution[clear] = distribution.get(clear, 0.0) + prob
        self._pattern_cache[group] = distribution
        return distribution

    def pattern_table(self, group: FrozenSet[int]) -> PatternTable:
        self._check_current()
        group = frozenset(group)
        cached = self._table_cache.get(group)
        if cached is None:
            self._misses += 1
            cached = super().pattern_table(group)
            self._table_cache[group] = cached
        else:
            self._hits += 1
        return cached


class EmpiricalJointProvider(JointAccessProvider):
    """Joint access pmfs counted from a recorded clear/blocked matrix.

    ``clear_matrix[t, i]`` is True when UE ``i`` would have passed CCA in
    subframe ``t``.  This reproduces the paper's "joint access distribution
    computed directly from the traces" baseline and is also what a cell
    could do with exhaustive measurements (at exponential cost).
    """

    def __init__(self, clear_matrix: np.ndarray) -> None:
        matrix = np.asarray(clear_matrix, dtype=bool)
        if matrix.ndim != 2 or matrix.shape[0] == 0:
            raise TopologyError(
                f"clear matrix must be non-empty 2-D, got shape {matrix.shape}"
            )
        self._matrix = matrix
        # Per-UE clear fractions, computed once: column means of a boolean
        # matrix are exact (integer counts), so this matches the per-query
        # column mean bit for bit.
        self._marginals = matrix.mean(axis=0)
        self._pattern_cache: Dict[FrozenSet[int], PatternDistribution] = {}

    @property
    def num_subframes(self) -> int:
        return self._matrix.shape[0]

    @property
    def num_ues(self) -> int:
        return self._matrix.shape[1]

    def access_probability(self, ue: int) -> float:
        if not 0 <= ue < self.num_ues:
            raise TopologyError(f"unknown UE id {ue}")
        return float(self._marginals[ue])

    def pattern_distribution(self, group: FrozenSet[int]) -> PatternDistribution:
        group = frozenset(group)
        cached = self._pattern_cache.get(group)
        if cached is not None:
            return cached
        members = sorted(group)
        for ue in members:
            if not 0 <= ue < self.num_ues:
                raise TopologyError(f"unknown UE id {ue}")
        if not members:
            return {frozenset(): 1.0}
        columns = self._matrix[:, members].astype(np.int64)
        weights = 1 << np.arange(len(members), dtype=np.int64)
        codes = columns @ weights
        counts = np.bincount(codes, minlength=1 << len(members))
        total = float(self.num_subframes)
        distribution: PatternDistribution = {}
        for code, count in enumerate(counts):
            if count == 0:
                continue
            clear = frozenset(
                members[bit] for bit in range(len(members)) if code >> bit & 1
            )
            distribution[clear] = count / total
        self._pattern_cache[group] = distribution
        return distribution
