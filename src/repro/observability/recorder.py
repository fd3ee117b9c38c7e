"""Incident flight recorder for the serving plane.

A :class:`FlightRecorder` rides along with a
:class:`~repro.serving.service.TraversalService`, keeping a *bounded*
ring buffer of recent activity — terminal responses (with the metric
deltas they caused), breaker/health events, lane tags — and dumps a
deterministic **postmortem bundle** the moment something goes wrong:

* a typed :class:`~repro.errors.ReproError` surfaces (an error response,
  or an exception escaping ``serve`` entirely),
* a circuit breaker opens, or
* the brownout ladder escalates.

One bundle is four artifacts sharing a stem under ``out_dir``:

* ``<stem>.events.jsonl`` — the ring's entries, one JSON object per
  line, oldest first;
* ``<stem>.trace.json`` — a Chrome-trace slice of the service tracer's
  recent spans (loadable in Perfetto, clean under
  :func:`~repro.observability.export.validate_chrome_trace`);
* ``<stem>.metrics.json`` — the full
  :func:`~repro.observability.metrics.unified_snapshot` at dump time;
* ``<stem>.manifest.json`` — the trigger (error type, breaker lane, or
  brownout rung), the simulated timestamp, and the file list.

Everything in the bundle is a function of the simulated schedule, so a
reproduced run reproduces its postmortems byte-for-byte.  The recorder
is observational — it never touches the schedule — and with no
``out_dir`` it still keeps the in-memory ``dumps`` manifests, so tests
can assert on triggers without any filesystem traffic.
"""

from __future__ import annotations

from collections import deque

from repro.errors import ConfigError

#: Ring-entry kinds, for consumers of the events JSONL.
ENTRY_KINDS = ("serve", "health")

#: Health-event kinds that trigger a postmortem dump.
_TRIGGER_EVENTS = frozenset({"open"})


class FlightRecorder:
    """Bounded ring of recent serving activity + postmortem dumper."""

    def __init__(
        self,
        capacity: int = 256,
        *,
        out_dir=None,
        max_dumps: int = 16,
        slice_ms: float = 250.0,
    ):
        if capacity < 1:
            raise ConfigError(f"capacity must be >= 1, got {capacity}")
        if max_dumps < 1:
            raise ConfigError(f"max_dumps must be >= 1, got {max_dumps}")
        if slice_ms <= 0:
            raise ConfigError(f"slice_ms must be > 0, got {slice_ms}")
        self.capacity = capacity
        self.out_dir = out_dir
        self.max_dumps = max_dumps
        #: Width of the Chrome-trace slice taken back from the trigger.
        self.slice_ms = slice_ms
        self.ring: deque = deque(maxlen=capacity)
        #: Manifest of every dump taken (kept even without ``out_dir``).
        self.dumps: list[dict] = []
        #: Dumps suppressed by the ``max_dumps`` cap.
        self.suppressed = 0
        self._service = None

    def __repr__(self) -> str:
        return (
            f"FlightRecorder({len(self.ring)}/{self.capacity} entries, "
            f"{len(self.dumps)} dumps)"
        )

    def attach(self, service) -> None:
        """Bind to a service.  With telemetry off, a tracer is attached
        so postmortems still carry a span slice — spans are
        observational, so this cannot perturb the schedule (the
        identity gate runs with the recorder on)."""
        self._service = service
        if service.tracer is None:
            from repro.observability.spans import Tracer

            service.tracer = Tracer()

    # ------------------------------------------------------------------
    # Observation feed (called by the service)
    # ------------------------------------------------------------------

    def observe_response(self, response) -> None:
        """Record one terminal response; a typed-error response (not a
        shed — sheds are SLO outcomes, not incidents) triggers a dump.

        The entry's ``delta_served`` / ``delta_shed`` are the counter
        steps the response causes: an admitted request (``seq >= 0``)
        moves exactly one of them, an admission refusal neither."""
        admitted = response.seq >= 0
        error_type = None
        if response.error is not None:
            error_type = response.error.split(":", 1)[0]
        self.ring.append({
            "kind": "serve",
            "t_ms": response.finish_ms,
            "request_id": response.request_id,
            "seq": response.seq,
            "tenant": response.tenant,
            "endpoint": response.endpoint,
            "ok": response.ok,
            "shed": response.shed,
            "error": error_type,
            "worker": response.worker,
            "placement": response.placement,
            "attempts": response.attempts,
            "hedged": response.hedged,
            "latency_ms": response.latency_ms,
            "delta_served": int(admitted and not response.shed),
            "delta_shed": int(admitted and response.shed),
        })
        # Admission refusals (seq -1) are backpressure, not incidents —
        # they stay in the ring but don't trigger (a brownout-driven
        # refusal storm is caught by the brownout trigger itself).
        if not response.ok and not response.shed and response.seq >= 0:
            self.dump(
                trigger=f"error:{error_type}",
                t_ms=response.finish_ms,
                request_id=response.request_id,
            )

    def observe_events(self, events, lane: int) -> None:
        """Record health-plane transitions; breaker opens and brownout
        escalations trigger dumps."""
        for event in events:
            self.ring.append({
                "kind": "health",
                "t_ms": event.t_ms,
                "event": event.kind,
                "lane": -1 if event.lane is None else event.lane,
                "observed_lane": lane,
                "detail": event.detail,
            })
            if event.kind in _TRIGGER_EVENTS:
                self.dump(
                    trigger=f"breaker:lane{event.lane}",
                    t_ms=event.t_ms,
                )
            elif event.kind == "brownout" and _escalated(event.detail):
                self.dump(
                    trigger=f"brownout:{event.detail.replace(' ', '')}",
                    t_ms=event.t_ms,
                )

    def record_escape(self, exc, t_ms: float) -> None:
        """A typed error escaped ``serve`` entirely — the hardest
        failure shape (e.g. hedge legs disagreeing on labels)."""
        self.ring.append({
            "kind": "serve",
            "t_ms": t_ms,
            "request_id": "",
            "seq": -1,
            "ok": False,
            "shed": False,
            "error": type(exc).__name__,
            "escaped": True,
            "detail": str(exc),
        })
        self.dump(trigger=f"escape:{type(exc).__name__}", t_ms=t_ms)

    # ------------------------------------------------------------------
    # Dumping
    # ------------------------------------------------------------------

    def dump(self, trigger: str, t_ms: float, **extra) -> dict | None:
        """Take a postmortem now.  Returns the manifest, or ``None``
        when the ``max_dumps`` cap suppressed it."""
        if len(self.dumps) >= self.max_dumps:
            self.suppressed += 1
            return None
        stem = f"postmortem-{len(self.dumps):03d}-{_slug(trigger)}"
        manifest = {
            "stem": stem,
            "trigger": trigger,
            "t_ms": t_ms,
            "entries": len(self.ring),
            "files": [],
            **extra,
        }
        if self.out_dir is not None:
            manifest["files"] = self._write_bundle(stem, manifest, t_ms)
        self.dumps.append(manifest)
        return manifest

    def _write_bundle(self, stem: str, manifest: dict, t_ms: float) -> list:
        import json
        from pathlib import Path

        from repro.observability.export import dumps_stable

        out = Path(self.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        files = []

        events_path = out / f"{stem}.events.jsonl"
        lines = [dumps_stable(entry) for entry in self.ring]
        events_path.write_text(
            "\n".join(lines) + ("\n" if lines else ""), encoding="utf-8",
        )
        files.append(events_path.name)

        service = self._service
        if service is not None and service.tracer is not None:
            from repro.observability.export import to_chrome_trace
            from repro.observability.spans import Trace

            lo = t_ms - self.slice_ms
            records = [
                r for r in service.tracer.records if r.end_ms >= lo
            ]
            trace = Trace(records=records, meta={
                "postmortem": stem, "trigger": manifest["trigger"],
                "slice_lo_ms": lo, "slice_hi_ms": t_ms,
            })
            trace_path = out / f"{stem}.trace.json"
            trace_path.write_text(
                dumps_stable(to_chrome_trace(trace)) + "\n",
                encoding="utf-8",
            )
            files.append(trace_path.name)

        if service is not None:
            from repro.observability.metrics import unified_snapshot

            metrics_path = out / f"{stem}.metrics.json"
            metrics_path.write_text(
                dumps_stable(unified_snapshot(service=service)) + "\n",
                encoding="utf-8",
            )
            files.append(metrics_path.name)

        manifest_path = out / f"{stem}.manifest.json"
        files.append(manifest_path.name)
        manifest = dict(manifest)
        manifest["files"] = files
        manifest_path.write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        return files


def _escalated(detail: str) -> bool:
    """Whether a ``"level X -> Y"`` brownout detail moved up-ladder."""
    try:
        before, after = detail.removeprefix("level ").split(" -> ")
        return int(after) > int(before)
    except (ValueError, AttributeError):
        return True


def _slug(text: str) -> str:
    return "".join(
        ch if ch.isalnum() or ch in "-_" else "-" for ch in text
    )
