"""Span tracing over the simulated clock.

A :class:`Tracer` records nested, attributed spans whose timestamps are
readings of the repo's *simulated* clocks (milliseconds since the start
of the traced query, plus :attr:`Tracer.base_ms` when an outer layer —
the resilience ladder — stitches several attempts onto one timeline).

Two invariants make the tracer safe to wire through the hot path:

* **Zero cost when disabled.**  Every instrumentation site is guarded by
  ``if tracer is not None``; the engine only creates a tracer when
  ``EtaGraphConfig(telemetry=True)`` is set or an external tracer is
  attached to the session.  With telemetry off, not a single extra
  object is allocated and results are bit-identical to an untraced run.
* **Observation, never perturbation.**  Spans *read* the simulated
  clock; they never advance it.  Telemetry-on runs therefore report the
  same labels and the same simulated timings as telemetry-off runs —
  the gate ``python -m repro.observability identity`` asserts this.

Span categories map to Perfetto tracks in the Chrome-trace exporter
(:mod:`repro.observability.export`): ``engine`` and ``resilience`` hold
the structural spans (query, iteration, attempt), while ``compute``,
``transfer`` and ``migration`` carry the activity intervals that
reproduce Fig. 4 as an interactive timeline.  ``service`` is the
serving frontend's track (:mod:`repro.serving`): one ``request`` span
per dispatched request — tenant, endpoint and worker lane in the attrs
— plus ``shed`` instants for load-shed requests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Well-known span categories, in their exporter track order.  The
#: serving plane owns the last three: ``service`` carries request /
#: queue / dispatch / wave spans, ``alerts`` carries first-class
#: breaker, brownout and SLO-burn transitions, and ``hedge`` is the
#: spare-replica track — hedge-leg spans land there so they can never
#: overlap the primary lane's rows in Perfetto.
CATEGORIES = (
    "engine", "compute", "transfer", "migration", "resilience", "service",
    "alerts", "hedge",
)


@dataclass
class SpanRecord:
    """One finished span (or instant/complete event)."""

    sid: int
    parent: int | None
    name: str
    category: str
    start_ms: float
    end_ms: float
    attrs: dict = field(default_factory=dict)

    @property
    def duration_ms(self) -> float:
        return self.end_ms - self.start_ms

    def __repr__(self) -> str:
        return (
            f"SpanRecord({self.name!r}, {self.category}, "
            f"{self.start_ms:.3f}..{self.end_ms:.3f} ms)"
        )


class _OpenSpan:
    """A started-but-unfinished span on the tracer stack."""

    __slots__ = ("sid", "parent", "name", "category", "start_ms", "attrs")

    def __init__(self, sid, parent, name, category, start_ms, attrs):
        self.sid = sid
        self.parent = parent
        self.name = name
        self.category = category
        self.start_ms = start_ms
        self.attrs = attrs


class Tracer:
    """Collects spans; one per traced query (or per stitched serve).

    Times passed to :meth:`start` / :meth:`end` / :meth:`emit` are
    *local* simulated milliseconds; :attr:`base_ms` (set by an outer
    stitching layer) is added on record.
    """

    __slots__ = ("records", "base_ms", "max_end_ms", "_stack", "_next_sid")

    def __init__(self):
        self.records: list[SpanRecord] = []
        #: Offset (ms) added to every recorded timestamp.
        self.base_ms = 0.0
        #: Largest absolute end time recorded so far.
        self.max_end_ms = 0.0
        self._stack: list[_OpenSpan] = []
        self._next_sid = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    @property
    def depth(self) -> int:
        """Number of currently open spans."""
        return len(self._stack)

    def start(self, name: str, category: str = "engine",
              t_ms: float = 0.0, **attrs) -> _OpenSpan:
        """Open a nested span at local time ``t_ms``; returns a token
        for :meth:`end`."""
        parent = self._stack[-1].sid if self._stack else None
        span = _OpenSpan(
            self._next_sid, parent, name, category,
            self.base_ms + t_ms, attrs,
        )
        self._next_sid += 1
        self._stack.append(span)
        return span

    def end(self, span: _OpenSpan, t_ms: float, **attrs) -> SpanRecord:
        """Close ``span`` at local time ``t_ms``.

        Any spans opened after it and still unfinished (an exception
        unwound through them) are closed at the same instant with an
        ``aborted`` marker, so the trace stays well-formed.
        """
        end_abs = self.base_ms + t_ms
        record = None
        while self._stack:
            top = self._stack.pop()
            extra = attrs if top is span else {"aborted": True}
            rec = self._record(top, end_abs, extra)
            if top is span:
                record = rec
                break
        if record is None:
            raise ValueError(f"span {span.name!r} is not open")
        return record

    def emit(self, name: str, category: str, dur_ms: float, t_ms: float,
             **attrs) -> SpanRecord:
        """Record a complete event of ``dur_ms`` at local time ``t_ms``
        in one call."""
        parent = self._stack[-1].sid if self._stack else None
        span = _OpenSpan(
            self._next_sid, parent, name, category,
            self.base_ms + t_ms, attrs,
        )
        self._next_sid += 1
        return self._record(span, span.start_ms + dur_ms, {})

    def _record(self, span: _OpenSpan, end_abs: float, extra: dict) -> SpanRecord:
        if end_abs < span.start_ms:
            end_abs = span.start_ms
        attrs = dict(span.attrs)
        attrs.update(extra)
        rec = SpanRecord(
            sid=span.sid, parent=span.parent, name=span.name,
            category=span.category, start_ms=span.start_ms,
            end_ms=end_abs, attrs=attrs,
        )
        self.records.append(rec)
        if end_abs > self.max_end_ms:
            self.max_end_ms = end_abs
        return rec

    def graft(
        self,
        records: "list[SpanRecord]",
        *,
        base_ms: float = 0.0,
        parent: int | None = None,
        category: str | None = None,
        **extra_attrs,
    ) -> list[SpanRecord]:
        """Splice another tracer's finished records onto this timeline.

        This is how the serving frontend stitches a request-local trace
        (engine kernels, resilience attempts, a hedge leg) under its own
        ``request`` span: the sub-trace runs on a fresh tracer whose
        clock starts at zero, and grafting re-bases every timestamp by
        ``base_ms`` (the dispatch instant on the service clock),
        re-numbers span ids into this tracer's space, and re-parents the
        sub-trace's roots onto ``parent``.  ``category`` forces every
        grafted span onto one track (the hedge leg uses ``"hedge"`` so
        spare-replica spans can never overlap the primary's rows);
        ``extra_attrs`` are merged into every grafted span (lane tags).
        Purely additive: nothing else on this tracer moves.
        """
        id_map = {rec.sid: self._next_sid + i
                  for i, rec in enumerate(records)}
        self._next_sid += len(records)
        out = []
        for rec in records:
            attrs = dict(rec.attrs)
            attrs.update(extra_attrs)
            new = SpanRecord(
                sid=id_map[rec.sid],
                parent=(parent if rec.parent is None
                        else id_map.get(rec.parent, parent)),
                name=rec.name,
                category=category if category is not None else rec.category,
                start_ms=base_ms + rec.start_ms,
                end_ms=base_ms + rec.end_ms,
                attrs=attrs,
            )
            self.records.append(new)
            if new.end_ms > self.max_end_ms:
                self.max_end_ms = new.end_ms
            out.append(new)
        return out

    def unwind(self, t_ms: float, **attrs) -> None:
        """Close every still-open span at local time ``t_ms`` (error
        paths where the owner of the outermost span has lost track)."""
        end_abs = self.base_ms + t_ms
        while self._stack:
            self._record(self._stack.pop(), end_abs, dict(attrs))

    # ------------------------------------------------------------------
    # Snapshot
    # ------------------------------------------------------------------

    def trace(self, **meta) -> "Trace":
        """A :class:`Trace` view over everything recorded so far."""
        return Trace(records=list(self.records), meta=dict(meta))


@dataclass
class Trace:
    """A finished (or in-flight) recording: spans plus run metadata.

    This is the handle hung on :attr:`TraversalResult.trace
    <repro.core.engine.TraversalResult>`; exporters and the summarize
    CLI all consume it.
    """

    records: list[SpanRecord] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.records)

    def spans(self, category: str | None = None,
              name: str | None = None) -> list[SpanRecord]:
        """Records sorted by (start time, creation order), optionally
        filtered by category and/or name."""
        out = [
            r for r in self.records
            if (category is None or r.category == category)
            and (name is None or r.name == name)
        ]
        out.sort(key=lambda r: (r.start_ms, r.sid))
        return out

    def categories(self) -> list[str]:
        """Distinct categories: well-known ones first (track order),
        then any others alphabetically."""
        present = {r.category for r in self.records}
        known = [c for c in CATEGORIES if c in present]
        return known + sorted(present - set(CATEGORIES))

    def children_of(self, sid: int | None) -> list[SpanRecord]:
        return sorted(
            (r for r in self.records if r.parent == sid),
            key=lambda r: (r.start_ms, r.sid),
        )

    def roots(self) -> list[SpanRecord]:
        return self.children_of(None)

    def busy_ms(self, category: str) -> float:
        """Union-covered time of one category's records (same interval
        arithmetic as :class:`repro.gpu.timeline.Timeline`)."""
        from repro.utils.intervals import union_length

        return union_length(
            [(r.start_ms, r.end_ms) for r in self.records
             if r.category == category]
        )

    @property
    def span_ms(self) -> float:
        if not self.records:
            return 0.0
        return (max(r.end_ms for r in self.records)
                - min(r.start_ms for r in self.records))

    # Exporters / rendering (lazy imports keep this module dependency-free).

    def to_chrome_trace(self) -> dict:
        from repro.observability.export import to_chrome_trace

        return to_chrome_trace(self)

    def to_jsonl(self) -> str:
        from repro.observability.export import to_jsonl

        return to_jsonl(self)

    def save_chrome(self, path) -> None:
        from repro.observability.export import write_chrome_trace

        write_chrome_trace(self, path)

    def save_jsonl(self, path) -> None:
        from repro.observability.export import write_jsonl

        write_jsonl(self, path)

    def summary(self, top: int = 10) -> str:
        from repro.observability.summarize import render_summary

        return render_summary(self, top=top)
