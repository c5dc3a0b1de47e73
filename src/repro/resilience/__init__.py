"""repro.resilience — operating through adversity, systematically.

Four pillars (see ``docs/RESILIENCE.md``):

* **Fault injection** — :class:`FaultPlan` declares typed, seeded faults
  (report loss/corruption, estimator bias, solver divergence, CCA
  stuck-busy, worker crash/hang) on an experiment spec;
  :class:`FaultInjector` applies them deterministically per
  ``(seed, fault id)``, so faulted runs stay bit-reproducible.
* **Supervised execution** — :func:`supervised_map` gives every work
  item a timeout and bounded retries with backoff, quarantining
  permanent failures into :class:`FailedItem` records instead of
  aborting the grid.
* **Checkpoint/resume** — :class:`CheckpointStore` persists one atomic,
  sha256-digested result file per completed grid cell plus a versioned
  manifest; interrupted runs resume from exactly the missing cells
  (``repro resume``), and corrupt/torn cells are quarantined and
  recomputed instead of crashing the resume.  :class:`RunLedger` keeps
  those books (and the run's telemetry narration) for every runner.
* **Storage chaos** — :func:`run_chaos` adversarially exercises the
  checkpoint guarantees: seeded rounds of kill points × storage faults
  (torn writes, bit flips, fsync loss, ``ENOSPC``/``EIO``) injected at
  the :mod:`~repro.resilience.storage` seam, each round recovered and
  audited by :func:`audit_campaign` (``repro chaos``).
* **Graceful degradation** — lives in
  :class:`~repro.core.controller.BLUController`: inference health gating
  with a ``DEGRADED`` fallback-to-PF phase (knobs on ``BLUConfig``).
"""

from repro.resilience.audit import AuditReport, audit_campaign
from repro.resilience.chaos import (
    STORAGE_FAULT_KINDS,
    ChaosRound,
    ChaosSchedule,
    ChaosVerdict,
    SimulatedKill,
    StorageChaos,
    derive_schedule,
    run_chaos,
)
from repro.resilience.checkpoint import CheckpointStore, QuarantinedCell
from repro.resilience.faults import (
    CcaStuckBusyFault,
    EstimatorBiasFault,
    FaultPlan,
    ReportCorruptFault,
    ReportLossFault,
    SolverDivergenceFault,
    WorkerCrashFault,
    WorkerHangFault,
)
from repro.resilience.inject import FaultHooks, FaultInjector
from repro.resilience.ledger import RunLedger
from repro.resilience.storage import (
    StorageInterceptor,
    atomic_write_json,
    atomic_write_text,
    set_storage_interceptor,
    storage_interceptor,
    use_storage_interceptor,
)
from repro.resilience.supervisor import (
    FailedItem,
    SupervisedOutcome,
    SupervisorConfig,
    supervised_map,
)

__all__ = [
    "STORAGE_FAULT_KINDS",
    "AuditReport",
    "CcaStuckBusyFault",
    "ChaosRound",
    "ChaosSchedule",
    "ChaosVerdict",
    "CheckpointStore",
    "EstimatorBiasFault",
    "FailedItem",
    "FaultHooks",
    "FaultInjector",
    "FaultPlan",
    "QuarantinedCell",
    "ReportCorruptFault",
    "ReportLossFault",
    "RunLedger",
    "SimulatedKill",
    "SolverDivergenceFault",
    "StorageChaos",
    "StorageInterceptor",
    "SupervisedOutcome",
    "SupervisorConfig",
    "WorkerCrashFault",
    "WorkerHangFault",
    "atomic_write_json",
    "atomic_write_text",
    "audit_campaign",
    "derive_schedule",
    "run_chaos",
    "set_storage_interceptor",
    "storage_interceptor",
    "supervised_map",
    "use_storage_interceptor",
]
