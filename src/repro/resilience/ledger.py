"""The checkpoint-and-telemetry ledger of one resumable batch run.

The experiment grid and sweep (:mod:`repro.experiments.build`) and the
deployment campaign (:mod:`repro.deploy.runner`) keep the same books
around their :func:`~repro.resilience.supervisor.supervised_map` call,
and :class:`RunLedger` is those books.  Opening it writes (or validates)
the checkpoint manifest, loads every finished cell — quarantining corrupt
ones so they are recomputed — and emits ``campaign-started`` plus one
``degraded`` event per quarantined cell.  :meth:`RunLedger.on_result`
saves each cell as the supervisor completes it, so a kill mid-batch
loses no finished work, and :meth:`RunLedger.finish` merges the batch
outcome and emits ``campaign-done``.  The runner keeps the rest: what a
cell is, how it is computed, and the ``supervised_map`` call itself.
"""

from __future__ import annotations

from typing import Any, Callable, List, Mapping, Optional, Sequence

from repro.obs.telemetry import TelemetryLog
from repro.resilience.checkpoint import CheckpointStore, QuarantinedCell
from repro.resilience.supervisor import FailedItem, SupervisedOutcome

__all__ = ["RunLedger"]


class RunLedger:
    """Open (or resume) one checkpointed, narrated batch of cells.

    ``manifest`` is what the checkpoint directory records about the run
    (its ``kind`` also names the run in telemetry); ``checkpoint_labels``
    and ``labels`` name each cell in its checkpoint file and in
    telemetry.  ``load``/``save`` are the matching pair of
    :class:`CheckpointStore` methods for the cell format
    (``load_cell_or_quarantine``/``save_cell`` or
    ``load_payload_or_quarantine``/``save_payload``), and ``started``
    adds runner-specific fields to ``campaign-started``.  Without a
    ``checkpoint_dir`` nothing is saved or resumed; without a
    ``telemetry_dir`` nothing is narrated.
    """

    def __init__(
        self,
        manifest: Mapping[str, Any],
        checkpoint_labels: Sequence[Any],
        labels: Sequence[str],
        load: Callable[[CheckpointStore, int], Any],
        save: Callable[[CheckpointStore, int, Sequence[Any], Any], None],
        *,
        checkpoint_dir=None,
        telemetry_dir=None,
        campaign: str,
        started: Optional[Mapping[str, Any]] = None,
    ) -> None:
        self.checkpoint_labels = checkpoint_labels
        self.labels = list(labels)
        self.campaign = campaign
        self._save = save
        self.results: List[Any] = [None] * len(self.labels)
        self.store: Optional[CheckpointStore] = None
        if checkpoint_dir is not None:
            self.store = CheckpointStore(checkpoint_dir)
            self.store.initialize(manifest)
            for index in sorted(self.store.completed()):
                if index < len(self.results):
                    # Corrupt cells quarantine to None and stay pending.
                    self.results[index] = load(self.store, index)
        #: Cells this run computes, in cell order: position ``pos`` of the
        #: supervised batch is cell ``pending[pos]``.
        self.pending = [
            index for index, result in enumerate(self.results) if result is None
        ]
        self.telemetry: Optional[TelemetryLog] = None
        if telemetry_dir is not None:
            self.telemetry = TelemetryLog.in_dir(telemetry_dir)
            self.telemetry.emit(
                "campaign-started",
                campaign=campaign,
                kind=manifest["kind"],
                **dict(started or {}),
                labels=self.labels,
                completed=[
                    label
                    for label, result in zip(self.labels, self.results)
                    if result is not None
                ] or None,
            )
            for cell in self.quarantined:
                self.telemetry.emit(
                    "degraded", item=self.labels[cell.index], note=cell.note()
                )

    @property
    def pending_labels(self) -> List[str]:
        """Telemetry labels of the pending cells, aligned with ``pending``."""
        return [self.labels[index] for index in self.pending]

    @property
    def quarantined(self) -> List[QuarantinedCell]:
        """Corrupt cells this run moved aside and recomputes."""
        return list(self.store.quarantined) if self.store is not None else []

    def on_result(self, pos: int, result: Any) -> None:
        """``supervised_map`` callback: durably save one finished cell."""
        if self.store is not None:
            index = self.pending[pos]
            label = list(self.checkpoint_labels[index])
            self._save(self.store, index, label, result)

    def finish(self, outcome: SupervisedOutcome) -> List[Any]:
        """Merge the batch outcome and emit ``campaign-done``.

        Returns one entry per cell, in cell order: the loaded or computed
        result, or the :class:`FailedItem` of a quarantined work item.
        """
        for pos, result in enumerate(outcome.results):
            self.results[self.pending[pos]] = result
        if self.telemetry is not None:
            failed = [
                index
                for index, result in enumerate(self.results)
                if isinstance(result, FailedItem)
            ]
            self.telemetry.emit(
                "campaign-done", campaign=self.campaign, failed=failed or None
            )
        return self.results
