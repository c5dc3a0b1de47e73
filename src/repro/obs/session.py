"""One run's observability context: registry + tracer + hooks, bundled.

:class:`ObsSession` is what the experiment layer instantiates per
simulation run when an :class:`~repro.obs.config.ObsConfig` is enabled.
It owns a *fresh* :class:`~repro.obs.metrics.MetricsRegistry` (so
replicated runs never share counters and snapshots merge exactly the same
whether runs were serial or parallel), the optional
:class:`~repro.obs.trace.EventTracer`, the optional streaming
:class:`~repro.obs.stream.TimeSeriesRecorder`, and the
:class:`~repro.sim.stages.SimHooks` stack the engine should attach.

Usage::

    session = ObsSession(obs_config)
    sim = plan.simulation(name, hooks=session.hooks, ...)
    result = session.run(sim)     # snapshot + trace + series ride on the result

When the config enables streaming, the recorder joins the hooks stack
*after* the metrics hooks (so the registry is current at every subframe
end) and its frame is attached as ``result.obs_series``.  If a
:func:`~repro.obs.telemetry.active_telemetry` log is scoped — the
supervisor's worker wrapper does this for campaign items — the session
emits a ``run-started`` event and the recorder streams per-window and
phase-transition progress into it.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence

from repro.obs.config import ObsConfig
from repro.obs.hooks import MetricsHooks, TracingHooks
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.stream import TimeSeriesRecorder
from repro.obs.telemetry import active_telemetry
from repro.obs.trace import EventTracer
from repro.sim.stages import CompositeHooks, SimHooks

__all__ = ["ObsSession"]


class ObsSession:
    """Builds and carries the per-run observability plumbing."""

    def __init__(
        self,
        config: Optional[ObsConfig] = None,
        ue_channels: Optional[Sequence[int]] = None,
        phase_probe: Optional[Callable[[], Any]] = None,
        run_label: Optional[str] = None,
    ) -> None:
        self.config = ObsConfig() if config is None else config
        self.registry = MetricsRegistry()
        self.tracer: Optional[EventTracer] = None
        self.recorder: Optional[TimeSeriesRecorder] = None
        self.run_label = run_label
        # ``ue_channels`` (multi-channel specs) switches on the channel-
        # labelled metric families alongside the headline counters.
        children: list[SimHooks] = [
            MetricsHooks(self.registry, ue_channels=ue_channels)
        ]
        log = active_telemetry()
        if self.config.stream:
            self.recorder = TimeSeriesRecorder(
                self.registry,
                window=self.config.stream_window,
                families=self.config.stream_families,
                phase_probe=phase_probe,
                log=log,
                run_label=run_label,
            )
            children.append(self.recorder)
        self._tracing_hooks: Optional[TracingHooks] = None
        if self.config.tracing:
            self.tracer = EventTracer(capacity=self.config.trace_capacity)
            self._tracing_hooks = TracingHooks(
                self.tracer, stage_events=self.config.stage_events
            )
            children.append(self._tracing_hooks)
        self.hooks: SimHooks = (
            children[0] if len(children) == 1 else CompositeHooks(children)
        )
        if log is not None:
            log.emit(
                "run-started",
                run=run_label,
                stream_window=(
                    self.config.stream_window if self.config.stream else None
                ),
            )

    def run(self, simulation):
        """Run ``simulation`` (built with :attr:`hooks`) under this session.

        The session's registry is the process-local active one for the
        run, so instrumented library code sees it.  Afterwards trace spans
        close, the recorder flushes its final window, and the result is
        stamped with the run's snapshot (trace, series).  All three fields
        are ``compare=False`` on :class:`~repro.sim.results.SimulationResult`,
        so telemetry never perturbs bit-exactness comparisons — and all
        are plain data, so results pickle back from pool workers.
        """
        with use_registry(self.registry):
            result = simulation.run()
        if self._tracing_hooks is not None:
            self._tracing_hooks.finish()
        if self.recorder is not None:
            self.recorder.finish()
        result.obs_snapshot = self.registry.snapshot().to_dict()
        if self.tracer is not None:
            result.obs_trace = self.tracer.events()
        if self.recorder is not None:
            result.obs_series = self.recorder.frame.to_dict()
        return result
