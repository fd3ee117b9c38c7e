"""Metrics registry: named counters, gauges and histograms with labels.

The registry *wraps* the numbers the repo already measures — it does not
replace them.  :class:`~repro.gpu.profiler.KernelCounters` stays the
kernel-model's source of truth, the session keeps its memo counters, the
UM manager its residency bookkeeping, the bench runner its
``error_taxonomy`` — :func:`unified_snapshot` lifts all of them into one
labelled namespace behind a single :meth:`MetricsRegistry.snapshot`.

Series identity is ``name{label=value,...}`` with labels sorted by key.
Label cardinality is bounded per metric (:attr:`MetricsRegistry.
max_series`): once a metric has that many distinct label sets, further
new label sets are folded into an ``overflow="true"`` series and counted
in ``dropped_series`` — a registry can never be grown without bound by
unbounded label values (vertex ids, file paths, ...).

Metric name conventions (see ``docs/observability.md`` for the full
table): dot-separated namespaces, ``*_ms`` for simulated milliseconds,
``*_bytes`` for bytes; counters are monotonic sums, gauges are
last-write-wins levels, histograms carry ``count/sum/min/max`` plus
decade buckets.
"""

from __future__ import annotations

import math


def series_key(name: str, labels: dict) -> str:
    """Canonical series identity: ``name`` or ``name{k=v,...}``."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class MetricsRegistry:
    """Counters / gauges / histograms behind one ``snapshot()``."""

    def __init__(self, max_series: int = 64):
        self.max_series = max_series
        #: Metric name -> kind ("counter" | "gauge" | "histogram").
        self._kinds: dict[str, str] = {}
        #: Metric name -> {series_key: value-or-summary}.
        self._series: dict[str, dict[str, object]] = {}
        #: New label sets refused by the cardinality bound.
        self.dropped_series = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def _slot(self, name: str, kind: str, labels: dict) -> str:
        seen = self._kinds.get(name)
        if seen is None:
            self._kinds[name] = kind
            self._series[name] = {}
        elif seen != kind:
            raise ValueError(
                f"metric {name!r} is a {seen}, not a {kind}"
            )
        key = series_key(name, labels)
        series = self._series[name]
        if key not in series and len(series) >= self.max_series:
            self.dropped_series += 1
            key = series_key(name, {"overflow": "true"})
        return key

    def inc(self, name: str, value: float = 1.0, **labels) -> None:
        """Add to a monotonic counter series."""
        key = self._slot(name, "counter", labels)
        series = self._series[name]
        series[key] = series.get(key, 0.0) + value

    def set_gauge(self, name: str, value: float, **labels) -> None:
        """Set a level (last write wins)."""
        key = self._slot(name, "gauge", labels)
        self._series[name][key] = float(value)

    def observe(self, name: str, value: float, **labels) -> None:
        """Record one sample into a histogram series."""
        key = self._slot(name, "histogram", labels)
        series = self._series[name]
        summary = series.get(key)
        if summary is None:
            summary = {"count": 0, "sum": 0.0,
                       "min": float("inf"), "max": float("-inf"),
                       "buckets": {}}
            series[key] = summary
        value = float(value)
        summary["count"] += 1
        summary["sum"] += value
        summary["min"] = min(summary["min"], value)
        summary["max"] = max(summary["max"], value)
        bucket = _decade_bucket(value)
        summary["buckets"][bucket] = summary["buckets"].get(bucket, 0) + 1

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """Deterministic nested view of everything recorded.

        ``{"counters": {...}, "gauges": {...}, "histograms": {...},
        "dropped_series": n}`` with every mapping sorted by key.
        """
        out: dict = {"counters": {}, "gauges": {}, "histograms": {}}
        for name in sorted(self._kinds):
            kind = self._kinds[name]
            series = self._series[name]
            bucket = out[kind + "s"]
            for key in sorted(series):
                value = series[key]
                if kind == "histogram":
                    value = dict(value)
                    value["buckets"] = {
                        k: value["buckets"][k]
                        for k in sorted(value["buckets"])
                    }
                bucket[key] = value
        out["dropped_series"] = self.dropped_series
        return out

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry's counters/gauges/histograms into this
        one (counter values add, gauges take the other's level,
        histogram summaries combine)."""
        for name, kind in other._kinds.items():
            seen = self._kinds.get(name)
            if seen is None:
                self._kinds[name] = kind
                self._series[name] = {}
            elif seen != kind:
                raise ValueError(f"metric {name!r} is a {seen}, not a {kind}")
            series = self._series[name]
            for key, value in other._series[name].items():
                if key not in series and len(series) >= self.max_series:
                    self.dropped_series += 1
                    key = series_key(name, {"overflow": "true"})
                if kind == "counter":
                    series[key] = series.get(key, 0.0) + value
                elif kind == "gauge":
                    series[key] = value
                else:
                    mine = series.get(key)
                    if mine is None:
                        series[key] = {
                            **value, "buckets": dict(value["buckets"]),
                        }
                    else:
                        mine["count"] += value["count"]
                        mine["sum"] += value["sum"]
                        mine["min"] = min(mine["min"], value["min"])
                        mine["max"] = max(mine["max"], value["max"])
                        for b, n in value["buckets"].items():
                            mine["buckets"][b] = mine["buckets"].get(b, 0) + n


def _decade_bucket(value: float) -> str:
    """Power-of-ten bucket label: ``"<=1e+03"`` holds (1e2, 1e3]."""
    if value <= 0 or not math.isfinite(value):
        return "<=0"
    return f"<=1e{math.ceil(math.log10(value)):+03d}"


# ----------------------------------------------------------------------
# Wrappers over the existing measurement layers
# ----------------------------------------------------------------------

def add_kernel_counters(reg: MetricsRegistry, counters, **labels) -> None:
    """Lift a :class:`~repro.gpu.profiler.KernelCounters` accumulation
    into ``kernel.*`` counters plus derived-ratio gauges."""
    for field_name, value in counters.as_dict().items():
        reg.inc(f"kernel.{field_name}", float(value), **labels)
    for ratio_name, value in counters.derived_dict().items():
        reg.set_gauge(f"kernel.{ratio_name}", value, **labels)


def add_profiler(reg: MetricsRegistry, profiler, **labels) -> None:
    """Lift a :class:`~repro.gpu.profiler.Profiler` (kernel counters,
    PCIe copies, UM migrations) into the registry."""
    add_kernel_counters(reg, profiler.kernels, **labels)
    reg.inc("transfer.h2d_bytes", profiler.h2d_bytes, **labels)
    reg.inc("transfer.h2d_ms", profiler.h2d_time_ms, **labels)
    reg.inc("transfer.d2h_bytes", profiler.d2h_bytes, **labels)
    reg.inc("transfer.d2h_ms", profiler.d2h_time_ms, **labels)
    reg.inc("um.migration_ms", profiler.migration_time_ms, **labels)
    reg.inc("um.migrations", len(profiler.migration_sizes), **labels)
    for size in profiler.migration_sizes:
        reg.observe("um.migration_bytes", size, **labels)


def add_session(reg: MetricsRegistry, session) -> None:
    """Lift an :class:`~repro.core.session.EngineSession`'s own live
    counters (memo, setup, device/UM residency) into the registry."""
    reg.set_gauge("session.queries_served", session.queries_served)
    reg.set_gauge("session.setup_ms", session.setup_ms)
    reg.set_gauge("session.setup_transfer_bytes", session.setup_transfer_bytes)
    reg.set_gauge("memo.hits", session.memo_hits)
    reg.set_gauge("memo.misses", session.memo_misses)
    reg.set_gauge("memo.collisions", getattr(session, "memo_collisions", 0))
    reg.set_gauge("memo.rejections", session.memo_rejections)
    reg.set_gauge("memo.entries", session.memo_entries)
    reg.set_gauge("memo.bytes", session.memo_bytes)
    reg.set_gauge("memory.device_bytes_in_use", session.memory.device_bytes_in_use)
    reg.set_gauge("memory.um_bytes_allocated", session.memory.um_bytes_allocated)
    if session.um is not None:
        reg.set_gauge("um.resident_bytes", session.um.resident_bytes())


def add_error_taxonomy(reg: MetricsRegistry, taxonomy: dict) -> None:
    """Lift a :func:`repro.bench.runner.error_taxonomy` dict into
    ``bench.cells`` counters labelled by outcome."""
    reg.inc("bench.cells", taxonomy.get("ok", 0), outcome="ok")
    reg.inc("bench.cells", taxonomy.get("oom", 0), outcome="oom")
    for error_type, n in sorted(taxonomy.get("errors", {}).items()):
        reg.inc("bench.cells", n, outcome="error", type=error_type)


def add_service(reg: MetricsRegistry, service) -> None:
    """Lift a :class:`~repro.serving.TraversalService`'s own registry
    (per-tenant request/latency/shed series) plus its live gauges."""
    reg.merge(service.metrics)
    reg.set_gauge("service.pool_size", service.pool.size)
    reg.set_gauge("service.pending", len(service.queue))
    reg.set_gauge("service.clock_ms", service.clock_ms)
    reg.set_gauge("service.requests_served", service.requests_served)
    reg.set_gauge("service.requests_shed", service.requests_shed)
    plane = getattr(service, "health", None)
    if plane is not None:
        # Self-healing plane (repro.serving.health): live lane scores,
        # breaker/hedge activity and the brownout level — the whole
        # plane, so one snapshot() captures the PR 9 state too.
        from repro.serving.health import BREAKER_STATES

        reg.set_gauge("service.health_aggregate", plane.aggregate)
        reg.set_gauge("service.brownout_level", float(plane.level))
        # Distinct names from the per-tenant ``service.hedges`` /
        # ``service.hedge_wins`` *counters* the service itself keeps —
        # a series can't be both a counter and a gauge.
        reg.set_gauge("service.health_hedges", plane.hedges)
        reg.set_gauge("service.health_hedge_wins", plane.hedge_wins)
        reg.set_gauge("service.health_events", len(plane.events))
        for lane in plane.lanes:
            reg.set_gauge("service.lane_health", lane.score,
                          lane=str(lane.index))
            reg.set_gauge("service.lane_state",
                          float(BREAKER_STATES.index(lane.state)),
                          lane=str(lane.index))
            reg.set_gauge("service.lane_opens", lane.opens,
                          lane=str(lane.index))
            reg.set_gauge("service.lane_closes", lane.closes,
                          lane=str(lane.index))
            reg.set_gauge("service.lane_observations", lane.observations,
                          lane=str(lane.index))
    monitor = getattr(service, "slo", None)
    if monitor is not None:
        # SLO burn-rate monitors: per-tenant objectives, hit rates,
        # fast/slow burn and the alert ladder.
        monitor.export(reg, now_ms=service.clock_ms)
    recorder = getattr(service, "recorder", None)
    if recorder is not None:
        reg.set_gauge("service.postmortems", len(recorder.dumps))
        reg.set_gauge("service.postmortems_suppressed",
                      recorder.suppressed)
        reg.set_gauge("service.recorder_entries", len(recorder.ring))


def unified_snapshot(
    *,
    session=None,
    profiler=None,
    taxonomy: dict | None = None,
    registry: MetricsRegistry | None = None,
    service=None,
) -> dict:
    """One ``snapshot()`` over any combination of the repo's existing
    measurement layers (plus an already-populated registry to merge)."""
    reg = MetricsRegistry()
    if registry is not None:
        reg.merge(registry)
    if session is not None:
        add_session(reg, session)
    if profiler is not None:
        add_profiler(reg, profiler)
    if taxonomy is not None:
        add_error_taxonomy(reg, taxonomy)
    if service is not None:
        add_service(reg, service)
    return reg.snapshot()
