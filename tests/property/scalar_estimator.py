"""Scalar reference access estimator, for tests.

:class:`ScalarAccessEstimator` keeps every count in a dict keyed by client,
pair or triple and updates them one key at a time — the estimator's
original form.  :class:`~repro.core.measurement.estimator.AccessEstimator`
keeps dense counters instead and must agree with it bit for bit: the same
``p(i)``, ``p(i, j)``, sample counts and transformed targets, tolerances
included, after any sequence of reports, decays and resets.  Like the
production estimator, it validates a report completely before counting it.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Dict, Iterable, Tuple

from repro.core.blueprint.transform import (
    TransformedMeasurements,
    transform_individual,
    transform_pairwise,
    transform_triplet,
)
from repro.errors import MeasurementError

__all__ = ["ScalarAccessEstimator"]


class ScalarAccessEstimator:
    """Dict-of-counters access estimator: one Python float per client, pair
    and triple, updated key by key."""

    def __init__(
        self,
        num_ues: int,
        track_triplets: bool = False,
        decay: float = 1.0,
    ) -> None:
        if num_ues < 1:
            raise MeasurementError(f"need at least one UE: {num_ues}")
        if not 0.0 < decay <= 1.0:
            raise MeasurementError(f"decay must be in (0, 1]: {decay}")
        self.num_ues = num_ues
        self.decay = float(decay)
        self.track_triplets = bool(track_triplets)
        self._n: Dict[int, float] = {i: 0.0 for i in range(num_ues)}
        self._clear: Dict[int, float] = {i: 0.0 for i in range(num_ues)}
        self._n_pair: Dict[Tuple[int, int], float] = {
            pair: 0.0 for pair in combinations(range(num_ues), 2)
        }
        self._clear_pair: Dict[Tuple[int, int], float] = {
            pair: 0.0 for pair in combinations(range(num_ues), 2)
        }
        self._n_triple: Dict[Tuple[int, int, int], float] = {}
        self._clear_triple: Dict[Tuple[int, int, int], float] = {}
        self.subframes_observed = 0

    # -- recording -------------------------------------------------------

    def record_subframe(self, scheduled: Iterable[int], accessed: Iterable[int]) -> None:
        """Record one subframe: who was scheduled, who used the grant."""
        scheduled_set = set(scheduled)
        accessed_set = set(accessed)
        if not accessed_set <= scheduled_set:
            raise MeasurementError(
                f"accessed UEs {sorted(accessed_set - scheduled_set)} "
                "were never scheduled"
            )
        for ue in scheduled_set:
            if not 0 <= ue < self.num_ues:
                raise MeasurementError(f"unknown UE id {ue}")
        if self.decay < 1.0:
            self._apply_decay()
        for ue in scheduled_set:
            self._n[ue] += 1
            if ue in accessed_set:
                self._clear[ue] += 1
        for pair in combinations(sorted(scheduled_set), 2):
            self._n_pair[pair] += 1
            if pair[0] in accessed_set and pair[1] in accessed_set:
                self._clear_pair[pair] += 1
        if self.track_triplets:
            for triple in combinations(sorted(scheduled_set), 3):
                self._n_triple[triple] = self._n_triple.get(triple, 0) + 1
                if all(u in accessed_set for u in triple):
                    self._clear_triple[triple] = (
                        self._clear_triple.get(triple, 0) + 1
                    )
        self.subframes_observed += 1

    def _apply_decay(self) -> None:
        for store in (self._n, self._clear, self._n_pair, self._clear_pair,
                      self._n_triple, self._clear_triple):
            for key in store:
                store[key] *= self.decay

    def reset_ues(self, ues: Iterable[int]) -> None:
        """Discard all statistics involving the given clients.

        Used by online adaptation when drift is detected: the flagged
        clients' pre-change samples describe a world that no longer exists,
        so their individual counts and every pair/triple touching them are
        zeroed — statistics among unaffected clients are kept, which is
        what makes targeted re-measurement sufficient.
        """
        affected = set(int(u) for u in ues)
        bad = [u for u in affected if not 0 <= u < self.num_ues]
        if bad:
            raise MeasurementError(f"unknown UE ids {sorted(bad)}")
        for ue in affected:
            self._n[ue] = 0.0
            self._clear[ue] = 0.0
        for pair in self._n_pair:
            if affected & set(pair):
                self._n_pair[pair] = 0.0
                self._clear_pair[pair] = 0.0
        for triple in list(self._n_triple):
            if affected & set(triple):
                self._n_triple[triple] = 0.0
                self._clear_triple[triple] = 0.0

    # -- point estimates ----------------------------------------------------

    def _floor(self, count: float) -> float:
        # Half a count: keeps estimates off exact 0/1 where logs blow up.
        return 0.5 / max(count, 1)

    def individual_samples(self, ue: int) -> float:
        """Effective sample count (decayed weight) for one client."""
        return self._n[ue]

    def pair_samples(self, ue_a: int, ue_b: int) -> float:
        """Effective joint sample count for one pair."""
        return self._n_pair[tuple(sorted((ue_a, ue_b)))]

    def p_individual(self, ue: int) -> float:
        n = self._n[ue]
        if n == 0:
            raise MeasurementError(f"no samples for UE {ue}")
        floor = self._floor(n)
        return min(max(self._clear[ue] / n, floor), 1.0)

    def p_pairwise(self, ue_a: int, ue_b: int) -> float:
        pair = tuple(sorted((ue_a, ue_b)))
        n = self._n_pair[pair]
        if n == 0:
            raise MeasurementError(f"no joint samples for pair {pair}")
        floor = self._floor(n)
        return min(max(self._clear_pair[pair] / n, floor), 1.0)

    def triple_samples(self, i: int, j: int, k: int) -> float:
        return self._n_triple.get(tuple(sorted((i, j, k))), 0.0)

    def p_triplet(self, i: int, j: int, k: int) -> float:
        triple = tuple(sorted((i, j, k)))
        n = self._n_triple.get(triple, 0)
        if n == 0:
            raise MeasurementError(f"no joint samples for triple {triple}")
        floor = self._floor(n)
        return min(max(self._clear_triple.get(triple, 0) / n, floor), 1.0)

    def complete(self, samples: int) -> bool:
        """True when every pair has at least ``samples`` joint observations."""
        return all(count >= samples for count in self._n_pair.values())

    def min_pair_samples(self) -> float:
        return min(self._n_pair.values()) if self._n_pair else 0.0

    # -- transformed output ----------------------------------------------------

    def _log_se(self, p: float, n: float) -> float:
        """Delta-method standard error of ``log p_hat``."""
        return math.sqrt((1.0 - p) / (p * max(n, 1)))

    def to_transformed(
        self,
        z: float = 3.0,
        include_triplets: bool = False,
        min_triple_samples: int = 50,
    ) -> TransformedMeasurements:
        """Build the inference target with ``z``-sigma tolerances.

        The tolerance of each transformed constraint is ``z`` times the
        delta-method standard error of its estimate; terminals whose effect
        is below the noise floor are (correctly) not inferable.

        With ``include_triplets`` (and ``track_triplets`` at construction),
        every observed triple with at least ``min_triple_samples`` joint
        samples contributes a Section 3.5 constraint.
        """
        individual: Dict[int, float] = {}
        pairwise: Dict[Tuple[int, int], float] = {}
        tol_individual: Dict[int, float] = {}
        tol_pairwise: Dict[Tuple[int, int], float] = {}
        for ue in range(self.num_ues):
            p = self.p_individual(ue)
            individual[ue] = transform_individual(p)
            tol_individual[ue] = z * self._log_se(p, self._n[ue])
        for pair in combinations(range(self.num_ues), 2):
            i, j = pair
            p_i = self.p_individual(i)
            p_j = self.p_individual(j)
            p_ij = self.p_pairwise(i, j)
            pairwise[pair] = transform_pairwise(p_i, p_j, p_ij)
            variance = (
                self._log_se(p_ij, self._n_pair[pair]) ** 2
                + self._log_se(p_i, self._n[i]) ** 2
                + self._log_se(p_j, self._n[j]) ** 2
            )
            tol_pairwise[pair] = z * math.sqrt(variance)
        triplet: Dict[Tuple[int, int, int], float] = {}
        tol_triplet: Dict[Tuple[int, int, int], float] = {}
        if include_triplets:
            if not self.track_triplets:
                raise MeasurementError(
                    "estimator was built without track_triplets=True"
                )
            for triple, n in self._n_triple.items():
                if n < min_triple_samples:
                    continue
                i, j, k = triple
                p_ijk = self.p_triplet(i, j, k)
                triplet[triple] = transform_triplet(
                    self.p_individual(i),
                    self.p_individual(j),
                    self.p_individual(k),
                    self.p_pairwise(i, j),
                    self.p_pairwise(i, k),
                    self.p_pairwise(j, k),
                    p_ijk,
                )
                # Dominant noise source: the triple count itself, plus the
                # six lower-order estimates it is combined with.
                variance = self._log_se(p_ijk, n) ** 2
                for a, b in ((i, j), (i, k), (j, k)):
                    variance += (
                        self._log_se(
                            self.p_pairwise(a, b),
                            self._n_pair[tuple(sorted((a, b)))],
                        )
                        ** 2
                    )
                for u in triple:
                    variance += (
                        self._log_se(self.p_individual(u), self._n[u]) ** 2
                    )
                tol_triplet[triple] = z * math.sqrt(variance)
        return TransformedMeasurements(
            num_ues=self.num_ues,
            individual=individual,
            pairwise=pairwise,
            individual_tolerance=tol_individual,
            pairwise_tolerance=tol_pairwise,
            triplet=triplet,
            triplet_tolerance=tol_triplet,
        )
