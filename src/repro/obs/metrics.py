"""Process-local metrics: counters, gauges, histograms, labeled families.

The registry is deliberately *not* a global singleton with locked state —
each simulation run owns a fresh :class:`MetricsRegistry`, and instrumented
library code reaches it through :func:`active_registry`, which returns
``None`` when observability is off.  That gives the two properties the
engine's bit-exactness contract demands:

* **near-zero overhead when disabled** — every instrumentation site is one
  function call plus an ``is None`` check, and the engine-facing metrics
  live behind the :class:`~repro.sim.stages.SimHooks` seam, which costs
  nothing at all when no hooks are attached;
* **deterministic values** — metrics record counts and simulated
  quantities only, never wall-clock time (timing belongs to
  :mod:`repro.obs.timing` and the event tracer), so a seeded run produces
  the identical :class:`MetricsSnapshot` serially, in a worker process, or
  on a re-run.

Snapshots are plain-data (JSON-ready, picklable) so pool workers can ship
them back to the parent; :func:`merge_snapshots` combines them
(counters and histograms sum, gauges take the last write).
"""

from __future__ import annotations

from bisect import bisect_left
from contextlib import contextmanager
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import ObsError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "MetricsSnapshot",
    "active_registry",
    "histogram_quantile",
    "merge_snapshots",
    "set_active_registry",
    "use_registry",
]

#: Quantiles included in every histogram snapshot (p50/p95/p99).
SUMMARY_QUANTILES = (0.5, 0.95, 0.99)


def histogram_quantile(
    bounds: Sequence[float], buckets: Sequence[int], q: float
) -> float:
    """Estimate the ``q``-quantile of a fixed-bucket histogram.

    Linear interpolation within the bucket holding the target rank — the
    standard Prometheus ``histogram_quantile`` estimate.  The first
    bucket's lower edge is taken as ``min(0, bounds[0])``; observations in
    the overflow bucket clamp to the last bound (the estimate cannot
    exceed what the buckets resolve).  Returns 0.0 for an empty histogram.
    """
    if not 0.0 <= q <= 1.0:
        raise ObsError(f"quantile must be in [0, 1]: {q}")
    total = sum(buckets)
    if total == 0:
        return 0.0
    rank = q * total
    cumulative = 0.0
    for index, count in enumerate(buckets):
        if count == 0:
            continue
        if cumulative + count >= rank:
            if index >= len(bounds):
                return float(bounds[-1])
            upper = float(bounds[index])
            lower = (
                float(bounds[index - 1]) if index else min(0.0, upper)
            )
            fraction = (rank - cumulative) / count
            return lower + (upper - lower) * fraction
        cumulative += count
    return float(bounds[-1])


def _bucket_quantiles(
    bounds: Optional[Sequence[float]], buckets: Sequence[int]
) -> Dict[str, float]:
    """The snapshot's ``quantiles`` payload (p50/p95/p99 estimates)."""
    if not bounds:
        return {}
    return {
        f"p{int(q * 100)}": histogram_quantile(bounds, buckets, q)
        for q in SUMMARY_QUANTILES
    }


class Counter:
    """A monotonically increasing count (grants issued, drift detections)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ObsError(f"counter increment must be >= 0: {amount}")
        self.value += amount


class Gauge:
    """A point-in-time value; each :meth:`set` overwrites the last."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0.0

    def set(self, value: float) -> None:
        """Record the current value of the tracked quantity."""
        self.value = float(value)


class Histogram:
    """A fixed-bucket distribution (repair iterations, RB utilization).

    ``bounds`` are upper bucket edges; an observation lands in the first
    bucket whose bound is >= the value, with one implicit overflow bucket,
    so ``len(bucket_counts) == len(bounds) + 1``.  Count and sum ride
    along for mean computation.
    """

    __slots__ = ("bounds", "bucket_counts", "count", "sum")

    def __init__(self, bounds: Sequence[float]) -> None:
        ordered = tuple(float(bound) for bound in bounds)
        if not ordered:
            raise ObsError("histogram needs at least one bucket bound")
        if any(b >= c for b, c in zip(ordered, ordered[1:])):
            raise ObsError(f"histogram bounds must strictly increase: {ordered}")
        self.bounds = ordered
        self.bucket_counts: List[int] = [0] * (len(ordered) + 1)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        """Record one observation into its bucket."""
        value = float(value)
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value

    @property
    def mean(self) -> float:
        """Mean of all observations (0.0 when empty)."""
        return self.sum / self.count if self.count else 0.0


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricFamily:
    """One registered metric name: its kind, label names, and series.

    An unlabeled metric is a family with a single ``()`` series, accessed
    directly through the convenience handle the registry returns; labeled
    metrics expose per-label-value children via :meth:`labels`.
    """

    __slots__ = ("name", "kind", "help", "label_names", "buckets", "series")

    def __init__(
        self,
        name: str,
        kind: str,
        help: str = "",
        label_names: Sequence[str] = (),
        buckets: Optional[Sequence[float]] = None,
    ) -> None:
        if kind not in _KINDS:
            raise ObsError(f"unknown metric kind {kind!r}")
        if kind == "histogram" and buckets is None:
            raise ObsError(f"histogram {name!r} needs bucket bounds")
        self.name = name
        self.kind = kind
        self.help = help
        self.label_names = tuple(label_names)
        self.buckets = tuple(float(b) for b in buckets) if buckets else None
        #: label-value tuple -> Counter | Gauge | Histogram, insertion-ordered.
        self.series: Dict[Tuple[str, ...], Any] = {}

    def _child(self, key: Tuple[str, ...]) -> Any:
        child = self.series.get(key)
        if child is None:
            if self.kind == "histogram":
                child = Histogram(self.buckets)
            else:
                child = _KINDS[self.kind]()
            self.series[key] = child
        return child

    def labels(self, **label_values: str) -> Any:
        """The child metric for one label-value combination."""
        if tuple(label_values) != self.label_names:
            raise ObsError(
                f"metric {self.name!r} takes labels {self.label_names}, "
                f"got {tuple(label_values)}"
            )
        return self._child(tuple(str(v) for v in label_values.values()))

    def unlabeled(self) -> Any:
        """The single series of a label-less family."""
        if self.label_names:
            raise ObsError(
                f"metric {self.name!r} is labeled by {self.label_names}; "
                "use .labels(...)"
            )
        return self._child(())


class MetricsRegistry:
    """Get-or-create store of metric families, keyed by name.

    ``counter``/``gauge``/``histogram`` return the unlabeled child directly
    (the common hot-path case) or the family when ``labels`` are declared.
    Re-registration with the same shape returns the existing metric;
    mismatched kind/labels/buckets raise :class:`~repro.errors.ObsError`.
    """

    def __init__(self) -> None:
        self._families: Dict[str, MetricFamily] = {}

    def _register(
        self,
        name: str,
        kind: str,
        help: str,
        labels: Sequence[str],
        buckets: Optional[Sequence[float]] = None,
    ) -> MetricFamily:
        family = self._families.get(name)
        if family is None:
            family = MetricFamily(
                name, kind, help=help, label_names=labels, buckets=buckets
            )
            self._families[name] = family
            return family
        wanted = tuple(float(b) for b in buckets) if buckets else None
        if (
            family.kind != kind
            or family.label_names != tuple(labels)
            or (kind == "histogram" and family.buckets != wanted)
        ):
            raise ObsError(
                f"metric {name!r} already registered as {family.kind} "
                f"with labels {family.label_names}"
            )
        return family

    def counter(self, name: str, help: str = "", labels: Sequence[str] = ()) -> Any:
        """A :class:`Counter` (or its family, when ``labels`` are given)."""
        family = self._register(name, "counter", help, labels)
        return family if labels else family.unlabeled()

    def gauge(self, name: str, help: str = "", labels: Sequence[str] = ()) -> Any:
        """A :class:`Gauge` (or its family, when ``labels`` are given)."""
        family = self._register(name, "gauge", help, labels)
        return family if labels else family.unlabeled()

    def histogram(
        self,
        name: str,
        buckets: Sequence[float],
        help: str = "",
        labels: Sequence[str] = (),
    ) -> Any:
        """A :class:`Histogram` (or its family) with the given bounds."""
        family = self._register(name, "histogram", help, labels, buckets=buckets)
        return family if labels else family.unlabeled()

    def families(self) -> Iterator[MetricFamily]:
        """All registered families, in registration order."""
        return iter(self._families.values())

    def snapshot(self) -> "MetricsSnapshot":
        """An immutable plain-data copy of every metric's current state."""
        return MetricsSnapshot.from_registry(self)


def _series_data(kind: str, metric: Any) -> Dict[str, Any]:
    if kind == "histogram":
        return {
            "count": metric.count,
            "sum": metric.sum,
            "buckets": list(metric.bucket_counts),
            "quantiles": _bucket_quantiles(metric.bounds, metric.bucket_counts),
        }
    return {"value": metric.value}


class MetricsSnapshot:
    """Frozen plain-data view of a registry, mergeable across processes.

    Internally ``{name: {"kind", "help", "labels", "bounds"?, "series":
    {label_values_tuple: data_dict}}}``; :meth:`to_dict` flattens the
    series map into a JSON-safe list.  Equality compares the full payload,
    which is what the parallel-merge regression test leans on.
    """

    def __init__(self, metrics: Dict[str, Dict[str, Any]]) -> None:
        self._metrics = metrics

    @classmethod
    def from_registry(cls, registry: MetricsRegistry) -> "MetricsSnapshot":
        """Capture the current state of every family in ``registry``."""
        metrics: Dict[str, Dict[str, Any]] = {}
        for family in registry.families():
            entry: Dict[str, Any] = {
                "kind": family.kind,
                "help": family.help,
                "labels": family.label_names,
                "series": {
                    key: _series_data(family.kind, metric)
                    for key, metric in family.series.items()
                },
            }
            if family.kind == "histogram":
                entry["bounds"] = list(family.buckets)
            metrics[family.name] = entry
        return cls(metrics)

    def metric_names(self) -> List[str]:
        """Registered metric names, in registration order."""
        return list(self._metrics)

    def get(self, name: str) -> Optional[Dict[str, Any]]:
        """One metric's entry (kind, labels, series), or ``None``."""
        return self._metrics.get(name)

    def value(self, name: str, *label_values: str) -> Any:
        """Counter/gauge value or histogram data for one series."""
        entry = self._metrics[name]
        data = entry["series"][tuple(label_values)]
        if entry["kind"] == "histogram":
            return dict(data)
        return data["value"]

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dump; label tuples become per-series lists."""
        out: Dict[str, Any] = {}
        for name, entry in self._metrics.items():
            dumped: Dict[str, Any] = {
                "kind": entry["kind"],
                "help": entry["help"],
                "labels": list(entry["labels"]),
                "series": [
                    {"labels": list(key), **data}
                    for key, data in entry["series"].items()
                ],
            }
            if "bounds" in entry:
                dumped["bounds"] = list(entry["bounds"])
            out[name] = dumped
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "MetricsSnapshot":
        """Rebuild a snapshot from a :meth:`to_dict` payload."""
        metrics: Dict[str, Dict[str, Any]] = {}
        for name, dumped in data.items():
            if not isinstance(dumped, Mapping) or "kind" not in dumped:
                raise ObsError(f"malformed snapshot entry for {name!r}")
            entry: Dict[str, Any] = {
                "kind": dumped["kind"],
                "help": dumped.get("help", ""),
                "labels": tuple(dumped.get("labels", ())),
                "series": {
                    tuple(item["labels"]): {
                        k: v for k, v in item.items() if k != "labels"
                    }
                    for item in dumped.get("series", ())
                },
            }
            if "bounds" in dumped:
                entry["bounds"] = list(dumped["bounds"])
            metrics[name] = entry
        return cls(metrics)

    def merge(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        """Combine two snapshots: sum counters/histograms, last-write gauges."""
        merged = {
            name: {
                **entry,
                "series": {k: dict(v) for k, v in entry["series"].items()},
            }
            for name, entry in self._metrics.items()
        }
        for name, entry in other._metrics.items():
            mine = merged.get(name)
            if mine is None:
                merged[name] = {
                    **entry,
                    "series": {k: dict(v) for k, v in entry["series"].items()},
                }
                continue
            if (
                mine["kind"] != entry["kind"]
                or mine["labels"] != entry["labels"]
                or mine.get("bounds") != entry.get("bounds")
            ):
                raise ObsError(
                    f"cannot merge metric {name!r}: incompatible shapes"
                )
            for key, data in entry["series"].items():
                target = mine["series"].get(key)
                if target is None:
                    mine["series"][key] = dict(data)
                elif mine["kind"] == "counter":
                    target["value"] += data["value"]
                elif mine["kind"] == "gauge":
                    target["value"] = data["value"]
                else:
                    target["count"] += data["count"]
                    target["sum"] += data["sum"]
                    target["buckets"] = [
                        a + b for a, b in zip(target["buckets"], data["buckets"])
                    ]
                    # Quantiles don't sum — re-estimate from the merged
                    # buckets so the merged snapshot stays self-consistent.
                    target["quantiles"] = _bucket_quantiles(
                        mine.get("bounds"), target["buckets"]
                    )
        return MetricsSnapshot(merged)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MetricsSnapshot):
            return NotImplemented
        return self._metrics == other._metrics

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MetricsSnapshot({len(self._metrics)} metrics)"


def merge_snapshots(snapshots: Iterable[MetricsSnapshot]) -> MetricsSnapshot:
    """Fold many per-run snapshots into one (order matters only for gauges)."""
    merged: Optional[MetricsSnapshot] = None
    for snapshot in snapshots:
        merged = snapshot if merged is None else merged.merge(snapshot)
    return merged if merged is not None else MetricsSnapshot({})


#: The registry instrumented library code reports into; ``None`` = obs off.
_ACTIVE: Optional[MetricsRegistry] = None


def active_registry() -> Optional[MetricsRegistry]:
    """The registry for the current run, or ``None`` when obs is off.

    Instrumentation sites call this once per event and skip all work on
    ``None`` — the whole cost of disabled observability outside the hooks
    seam.
    """
    return _ACTIVE


def set_active_registry(registry: Optional[MetricsRegistry]) -> None:
    """Install (or clear, with ``None``) the process-local active registry."""
    global _ACTIVE
    _ACTIVE = registry


@contextmanager
def use_registry(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Scope ``registry`` as the active one; restores the previous on exit."""
    previous = _ACTIVE
    set_active_registry(registry)
    try:
        yield registry
    finally:
        set_active_registry(previous)
