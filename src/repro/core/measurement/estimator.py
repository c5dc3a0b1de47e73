"""Access-distribution estimation from observed uplink subframes.

Every uplink subframe in which a set of clients was scheduled is one joint
sample: each scheduled client either used its grant (CCA clear) or did not.
The estimator accumulates

* per client: schedule count ``n_i`` and clear count;
* per pair scheduled together: joint count ``n_ij`` and both-clear count;

and exposes the estimated ``p(i)``, ``p(i, j)`` together with noise-aware
tolerances for the inference solver (delta-method standard errors on the
log-transformed constraints).

Both measurement-phase subframes and regular speculative-phase subframes
feed the same estimator — the paper notes the operational phase implicitly
keeps measuring.
"""

from __future__ import annotations

import math
from itertools import combinations
from numbers import Integral
from typing import Dict, Iterable, Optional, Set, Tuple

import numpy as np

from repro.core.blueprint.transform import (
    TransformedMeasurements,
    transform_individual,
    transform_pairwise,
    transform_triplet,
)
from repro.errors import MeasurementError

__all__ = ["AccessEstimator"]


class AccessEstimator:
    """Online estimator of individual and pair-wise access distributions."""

    def __init__(
        self,
        num_ues: int,
        track_triplets: bool = False,
        decay: float = 1.0,
    ) -> None:
        """Args:
            num_ues: clients in the cell.
            track_triplets: also accumulate 3-client joint counts —
                Section 3.5's extra constraints for skewed topologies
                (costs ``C(K,3)`` counter updates per subframe).
            decay: exponential forgetting factor applied to all counts each
                observed subframe.  ``1.0`` (default) accumulates forever —
                the paper's cumulative model.  Values just below 1 give an
                effective window of ``1/(1-decay)`` subframes so that
                re-inference tracks topology dynamics (Section 3.5's
                stationarity regime) instead of averaging across regimes.
        """
        if num_ues < 1:
            raise MeasurementError(f"need at least one UE: {num_ues}")
        if not 0.0 < decay <= 1.0:
            raise MeasurementError(f"decay must be in (0, 1]: {decay}")
        self.num_ues = num_ues
        self.decay = float(decay)
        self.track_triplets = bool(track_triplets)
        # Dense (decayed) counters: ``_count[i, i]`` is client i's schedule
        # count and ``_count[i, j]`` the pair's joint count; ``_clear`` holds
        # the matching all-clear counts.  Both are updated symmetrically;
        # only the diagonal and the upper triangle are read.
        self._count = np.zeros((num_ues, num_ues))
        self._clear = np.zeros((num_ues, num_ues))
        self._upper = np.triu_indices(num_ues, k=1)
        self._n_triple: Dict[Tuple[int, int, int], float] = {}
        self._clear_triple: Dict[Tuple[int, int, int], float] = {}
        self.subframes_observed = 0

    # -- recording -------------------------------------------------------

    def record_subframe(self, scheduled: Iterable[int], accessed: Iterable[int]) -> None:
        """Record one subframe: who was scheduled, who used the grant.

        A malformed report raises :class:`MeasurementError` before any
        counter changes.
        """
        scheduled_set = set(scheduled)
        accessed_set = set(accessed)
        if not accessed_set <= scheduled_set:
            raise MeasurementError(
                f"accessed UEs {sorted(accessed_set - scheduled_set)} "
                "were never scheduled"
            )
        unknown = [ue for ue in scheduled_set if not 0 <= ue < self.num_ues]
        if unknown:
            raise MeasurementError(f"unknown UE ids {sorted(unknown)}")
        on = np.zeros(self.num_ues, dtype=bool)
        try:
            on[list(scheduled_set)] = True
        except IndexError:
            raise MeasurementError(
                f"UE ids must be integers: {sorted(scheduled_set)}"
            ) from None
        clear = np.zeros(self.num_ues, dtype=bool)
        clear[list(accessed_set)] = True
        if self.decay < 1.0:
            self._apply_decay()
        self._count += on[:, None] & on
        self._clear += clear[:, None] & clear
        if self.track_triplets:
            for triple in combinations(sorted(scheduled_set), 3):
                self._n_triple[triple] = self._n_triple.get(triple, 0) + 1
                if all(u in accessed_set for u in triple):
                    self._clear_triple[triple] = (
                        self._clear_triple.get(triple, 0) + 1
                    )
        self.subframes_observed += 1

    def _apply_decay(self) -> None:
        self._count *= self.decay
        self._clear *= self.decay
        for store in (self._n_triple, self._clear_triple):
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
        rows = sorted(affected)
        for counts in (self._count, self._clear):
            counts[rows, :] = 0.0
            counts[:, rows] = 0.0
        for triple in list(self._n_triple):
            if affected & set(triple):
                self._n_triple[triple] = 0.0
                self._clear_triple[triple] = 0.0

    # -- point estimates ----------------------------------------------------

    def _floor(self, count: float) -> float:
        # Half a count: keeps estimates off exact 0/1 where logs blow up.
        return 0.5 / max(count, 1)

    def _estimate(self, clear: float, count: float) -> float:
        return min(max(clear / count, self._floor(count)), 1.0)

    def _ue(self, ue: int) -> int:
        if not (isinstance(ue, Integral) and 0 <= ue < self.num_ues):
            raise MeasurementError(f"unknown UE id {ue}")
        return ue

    def _pair(self, ue_a: int, ue_b: int) -> Tuple[int, int]:
        i, j = sorted((self._ue(ue_a), self._ue(ue_b)))
        if i == j:
            raise MeasurementError(f"a pair needs two distinct UEs: {ue_a}, {ue_b}")
        return i, j

    def individual_samples(self, ue: int) -> float:
        """Effective sample count (decayed weight) for one client."""
        ue = self._ue(ue)
        return float(self._count[ue, ue])

    def pair_samples(self, ue_a: int, ue_b: int) -> float:
        """Effective joint sample count for one pair."""
        return float(self._count[self._pair(ue_a, ue_b)])

    def p_individual(self, ue: int) -> float:
        n = self.individual_samples(ue)
        if n == 0:
            raise MeasurementError(f"no samples for UE {ue}")
        return self._estimate(float(self._clear[ue, ue]), n)

    def p_pairwise(self, ue_a: int, ue_b: int) -> float:
        pair = self._pair(ue_a, ue_b)
        n = float(self._count[pair])
        if n == 0:
            raise MeasurementError(f"no joint samples for pair {pair}")
        return self._estimate(float(self._clear[pair]), n)

    def triple_samples(self, i: int, j: int, k: int) -> float:
        return self._n_triple.get(tuple(sorted((i, j, k))), 0.0)

    def p_triplet(self, i: int, j: int, k: int) -> float:
        triple = tuple(sorted((i, j, k)))
        n = self._n_triple.get(triple, 0)
        if n == 0:
            raise MeasurementError(f"no joint samples for triple {triple}")
        return self._estimate(self._clear_triple.get(triple, 0), n)

    def complete(self, samples: int) -> bool:
        """True when every pair has at least ``samples`` joint observations."""
        return bool((self._count[self._upper] >= samples).all())

    def min_pair_samples(self) -> float:
        pairs = self._count[self._upper]
        return float(pairs.min()) if pairs.size else 0.0

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
        p = [self.p_individual(ue) for ue in range(self.num_ues)]
        se = [
            self._log_se(p[ue], self.individual_samples(ue))
            for ue in range(self.num_ues)
        ]
        for ue in range(self.num_ues):
            individual[ue] = transform_individual(p[ue])
            tol_individual[ue] = z * se[ue]
        for pair in combinations(range(self.num_ues), 2):
            i, j = pair
            p_ij = self.p_pairwise(i, j)
            pairwise[pair] = transform_pairwise(p[i], p[j], p_ij)
            variance = (
                self._log_se(p_ij, self.pair_samples(i, j)) ** 2
                + se[i] ** 2
                + se[j] ** 2
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
                            self.p_pairwise(a, b), self.pair_samples(a, b)
                        )
                        ** 2
                    )
                for u in triple:
                    variance += (
                        self._log_se(
                            self.p_individual(u), self.individual_samples(u)
                        )
                        ** 2
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
