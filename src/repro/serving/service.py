"""The multi-tenant traversal service.

:class:`TraversalService` is the request/response frontend over one
resident graph: typed requests (:mod:`repro.serving.requests`) go
through per-tenant admission (:mod:`repro.serving.admission`), wait in
an EDF queue, and are dispatched onto the least-busy lane of a resident
session pool (:mod:`repro.serving.pool`).  The whole schedule runs on
the *simulated* clock — arrivals, queueing, deadlines, lane busy times
and service times are all simulated milliseconds, so a served workload
is a deterministic, replayable function of the submitted requests.

SLO semantics:

* **Admission** rejects over-quota tenants and already-expired
  deadlines with typed errors before any work starts.
* **Shedding**: when a request's earliest possible start (its lane's
  free time) is at or past its absolute deadline, it is shed — a
  terminal :class:`~repro.serving.requests.TraversalResponse` with
  ``shed=True`` and a recorded
  :class:`~repro.errors.DeadlineExceededError`, zero worker time spent.
* **Degradation**: with resilient workers (a fault plan or retry
  policy), every request rides the device → UM → zero-copy → CPU
  ladder; the response records the final placement and whether it was
  degraded.

Bit-identity contract: with bare workers and no deadlines, the engine
results a service returns are bit-identical (labels *and* simulated
clocks) to the same query stream on bare ``EngineSession`` objects —
per lane, in dispatch order.  :mod:`repro.serving.identity` gates this.

Telemetry: ``telemetry=True`` gives the service a
:class:`~repro.observability.Tracer` recording one *request-scoped span
tree* per admitted request, keyed by the ``request_id`` assigned at
admission: a ``request`` span (arrival → terminal answer) containing a
``queue`` interval (EDF wait), a ``dispatch`` span (lane occupancy)
with the engine/resilience sub-trace grafted underneath at the dispatch
instant, and — when the self-healing plane hedged — a ``hedge`` span on
the dedicated hedge track carrying the spare replica's sub-trace.
Waves record one shared ``wave`` span; member ``request`` spans point
at it via a ``wave_sid`` attr.  Breaker and brownout transitions land
as first-class events on the ``alerts`` track.  ``summarize --request
<id>`` renders the tree.  Per-tenant counters and latency histograms
land in :attr:`TraversalService.metrics`, with cardinality bounded by
the registry's ``max_series``.
"""

from __future__ import annotations

from dataclasses import asdict, replace

import numpy as np

from repro.core import msbfs
from repro.core.config import EtaGraphConfig
from repro.core.pagerank import pagerank
from repro.core.session import EngineSession
from repro.errors import ConfigError, ConvergenceError, \
    DataCorruptionError, DeadlineExceededError, QuotaExceededError, \
    ReproError, SessionClosedError
from repro.gpu.device import DeviceSpec, GTX_1080TI
from repro.graph.csr import CSRGraph
from repro.observability.metrics import MetricsRegistry, unified_snapshot
from repro.observability.recorder import FlightRecorder
from repro.observability.slo import SLOMonitor, SLOPolicy
from repro.observability.spans import Tracer
from repro.resilience.faults import FaultPlan
from repro.resilience.session import _MODE_RUNGS, RetryPolicy
from repro.serving.admission import AdmissionQueue, AdmittedRequest, \
    TenantQuota
from repro.serving.health import HealthPlane, HealthPolicy
from repro.serving.pool import PoolWorker, SessionPool
from repro.serving.requests import (
    NeighborhoodRequest,
    PageRankRequest,
    ShortestPathRequest,
    StatsRequest,
    TraversalRequest,
    TraversalResponse,
    VisitRequest,
)


class TraversalService:
    """Request/response graph traversal over a resident session pool.

    One-shot use::

        service = TraversalService(graph, pool_size=2)
        resp = service.call(VisitRequest(problem="bfs", source=0))
        resp.labels          # bit-exact BFS levels
        resp.latency_ms      # simulated queue + service time

    Batch use: :meth:`serve` admits a request batch (converting typed
    admission failures into shed/error responses) and drains the queue
    in EDF order; responses come back in the batch's submission order.
    """

    def __init__(
        self,
        csr: CSRGraph,
        config: EtaGraphConfig | None = None,
        device: DeviceSpec = GTX_1080TI,
        *,
        pool_size: int = 2,
        quotas: dict[str, TenantQuota] | None = None,
        default_quota: TenantQuota | None = None,
        fault_plan: FaultPlan | None = None,
        fault_plans: dict[int, FaultPlan] | None = None,
        policy: RetryPolicy | None = None,
        resilient: bool | None = None,
        telemetry: bool = False,
        max_series: int = 64,
        wave_width: int = 0,
        health: HealthPolicy | bool | None = None,
        slo=None,
        recorder=None,
    ):
        self.csr = csr
        self.config = config or EtaGraphConfig()
        self.device = device
        self.pool = SessionPool(
            csr, self.config, device, size=pool_size,
            fault_plan=fault_plan, fault_plans=fault_plans,
            policy=policy, resilient=resilient,
        )
        self.queue = AdmissionQueue(
            quotas=quotas,
            default_quota=default_quota or TenantQuota(),
        )
        #: The service's simulated clock: the latest instant it has
        #: observed (arrival or completion).  Never moves backwards.
        self.clock_ms = 0.0
        #: Per-tenant counters/histograms (bounded cardinality).
        self.metrics = MetricsRegistry(max_series=max_series)
        self.requests_served = 0
        self.requests_shed = 0
        self.tracer = None
        if telemetry:
            self.tracer = Tracer()
        if wave_width != 0 and not 2 <= wave_width <= msbfs.WAVE_LANES:
            raise ConfigError(
                f"wave_width must be 0 (off) or in [2, {msbfs.WAVE_LANES}], "
                f"got {wave_width}"
            )
        #: MSBFS coalescing width: when >= 2, :meth:`drain` merges runs
        #: of consecutive EDF-order plain BFS ``VisitRequest``s (no
        #: early-exit target, no iteration budget) into one wave
        #: traversal of up to this many lanes.  0 (the default) serves
        #: every request as its own traversal — the bit-identity gate's
        #: configuration.
        self.wave_width = wave_width
        #: The self-healing plane (:mod:`repro.serving.health`): lane
        #: EWMA health scores, per-lane circuit breakers with warm
        #: standby replacement, hedged requests and the brownout ladder.
        #: Off by default — healthy runs are bit-identical either way
        #: (``check_health_identity`` gates it), but off keeps the
        #: no-overhead fast path and the historical default behavior.
        self.health: HealthPlane | None = None
        if health:
            health_policy = (
                health if isinstance(health, HealthPolicy)
                else HealthPolicy()
            )
            self.health = HealthPlane(health_policy, self.pool)
        #: Per-tenant SLO burn-rate monitor
        #: (:mod:`repro.observability.slo`) — purely observational, fed
        #: one sample per terminal response; ``None`` = off.  Accepts an
        #: :class:`~repro.observability.slo.SLOMonitor` (carrying
        #: declared per-tenant objectives), an
        #: :class:`~repro.observability.slo.SLOPolicy`, or ``True`` for
        #: the default policy.
        self.slo = None
        if slo:
            if isinstance(slo, SLOMonitor):
                self.slo = slo
            elif isinstance(slo, SLOPolicy):
                self.slo = SLOMonitor(slo)
            else:
                self.slo = SLOMonitor()
        #: Incident flight recorder
        #: (:mod:`repro.observability.recorder`) — a bounded ring of
        #: recent serve outcomes and health events that dumps a
        #: postmortem bundle on typed failures, breaker opens and
        #: brownout escalations; ``None`` = off.
        self.recorder = None
        if recorder:
            self.recorder = (
                recorder if isinstance(recorder, FlightRecorder)
                else FlightRecorder()
            )
            self.recorder.attach(self)
        #: Lazy dedicated hedge standby (see :meth:`_hedge_standby`) —
        #: never one of the pool's primary lanes.
        self._hedge_worker: PoolWorker | None = None
        self._stats_cache: dict | None = None
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Shut the service down: close every worker session.  Requests
        submitted afterwards raise
        :class:`~repro.errors.SessionClosedError`; pending admitted
        requests are discarded."""
        if self._closed:
            return
        self.pool.close()
        if self._hedge_worker is not None:
            self._hedge_worker.session.close()
        self._closed = True

    def __enter__(self) -> "TraversalService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def closed(self) -> bool:
        return self._closed

    def __repr__(self) -> str:
        state = "closed" if self._closed else (
            f"{self.requests_served} served, {self.requests_shed} shed, "
            f"{len(self.queue)} pending"
        )
        return f"TraversalService({self.csr!r}, {self.pool.size} lanes, {state})"

    def trace(self):
        """The service-track :class:`~repro.observability.Trace` so far
        (``None`` without ``telemetry=True``)."""
        if self.tracer is None:
            return None
        return self.tracer.trace(service="etagraph", lanes=self.pool.size)

    def metrics_snapshot(self) -> dict:
        """Everything the service measures, as one
        :meth:`~repro.observability.MetricsRegistry.snapshot` dict."""
        return unified_snapshot(service=self)

    @property
    def lane_health(self) -> dict[int, float] | None:
        """Lane index -> EWMA health score (``None`` with the
        self-healing plane off)."""
        return self.health.lane_health if self.health is not None else None

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    def submit(self, request: TraversalRequest) -> AdmittedRequest:
        """Validate and admit one request (no work yet); raises typed
        errors on malformed requests, exhausted quotas and spent
        deadlines."""
        if self._closed:
            raise SessionClosedError("traversal service is closed")
        if not isinstance(request, TraversalRequest):
            raise ConfigError(
                f"expected a TraversalRequest, got {type(request).__name__}"
            )
        request.validate(self.csr)
        if request.arrival_ms is not None:
            self.clock_ms = max(self.clock_ms, request.arrival_ms)
        if self.health is not None and self.health.refuse_admissions:
            # Brownout level 4: the pool is too sick to promise anything,
            # so refuse at the door (the batch path turns this into a
            # terminal error response, same as any admission refusal).
            raise QuotaExceededError(
                f"service brownout level {self.health.level}: "
                "refusing new admissions until lane health recovers"
            )
        return self.queue.submit(request, self.clock_ms)

    def serve(
        self, requests: list[TraversalRequest] | tuple[TraversalRequest, ...],
    ) -> list[TraversalResponse]:
        """Admit a batch, drain the queue, and return one terminal
        response per batch request, in submission order.

        Typed admission failures become responses (``shed=True`` for
        spent deadlines, ``ok=False`` otherwise) instead of raising, so
        a batch always gets a full set of outcomes.  Requests already
        pending from earlier :meth:`submit` calls are dispatched too
        (the queue drains fully); their responses are appended after
        the batch's.
        """
        if self._closed:
            raise SessionClosedError("traversal service is closed")
        # One slot per batch request: its admission seq, or the terminal
        # response of its refusal.
        slots: list[int | TraversalResponse] = []
        for request in requests:
            try:
                slots.append(self.submit(request).seq)
            except SessionClosedError:
                raise
            except ReproError as exc:
                slots.append(self._refused(request, exc))
        try:
            drained = {r.seq: r for r in self.drain()}
        except ReproError as exc:
            # A typed error escaping the dispatch loop is the hardest
            # incident shape (e.g. hedge legs disagreeing on labels):
            # leave a postmortem before re-raising.
            if self.recorder is not None:
                self.recorder.record_escape(exc, self.clock_ms)
            raise
        out = [
            drained.pop(slot) if isinstance(slot, int) else slot
            for slot in slots
        ]
        out.extend(drained[seq] for seq in sorted(drained))
        return out

    def call(self, request: TraversalRequest) -> TraversalResponse:
        """Submit one request and serve it to completion."""
        return self.serve([request])[0]

    def drain(self) -> list[TraversalResponse]:
        """Dispatch every pending admitted request in EDF order; returns
        their terminal responses (dispatch order).

        With :attr:`wave_width` >= 2, maximal runs of consecutive
        wave-eligible requests at the head of the EDF order are served
        as one MSBFS wave (:func:`repro.core.msbfs.run_wave`) on a
        single lane — one traversal for the whole run, per-request
        labels bit-identical to individual dispatch.
        """
        if self._closed:
            raise SessionClosedError("traversal service is closed")
        responses = []
        while len(self.queue):
            # Brownout level 2 halves the wave width, re-read every
            # iteration: health observations mid-drain move the ladder.
            width = self.wave_width
            if self.health is not None:
                width = self.health.effective_wave_width(width)
            group = [self.queue.pop()]
            if width >= 2 and self._joins_wave(group[0]):
                while len(group) < width:
                    head = self.queue.peek()
                    if head is None or not self._joins_wave(head):
                        break
                    group.append(self.queue.pop())
            responses.extend(self._dispatch(group))
        return responses

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def _joins_wave(self, adm: AdmittedRequest) -> bool:
        """Whether a request can join an MSBFS wave: a plain BFS visit —
        no early-exit target (lanes cannot stop the shared traversal
        individually) and no iteration budget (the wave runs to the
        deepest lane's convergence) — that brownout is not about to
        shed."""
        request = adm.request
        return (
            type(request) is VisitRequest
            and request.problem == "bfs"
            and request.target is None
            and adm.iteration_budget is None
            and not self._brownout_shed(adm)
        )

    def _brownout_shed(self, adm: AdmittedRequest) -> bool:
        """Brownout level 3: best-effort work is shed at dispatch so the
        remaining healthy capacity serves deadlined requests."""
        return (
            self.health is not None
            and self.health.shed_best_effort
            and adm.best_effort
        )

    def _dispatch(
        self, group: list[AdmittedRequest],
    ) -> list[TraversalResponse]:
        """Serve an EDF group on one lane: a single request is a group
        of one, two or more ride one MSBFS wave.

        The group starts when the lane is free *and* every member has
        arrived; members whose deadline can't survive that start, or
        that brownout drops, are shed individually (at their own
        earliest-start instant) and the group re-plans around them.
        Survivors finish together.
        """
        worker = self.pool.checkout()
        responses: list[TraversalResponse] = []
        try:
            while True:
                start = max(
                    [worker.busy_until_ms] + [a.arrival_ms for a in group]
                )
                late = [
                    a for a in group
                    if self._brownout_shed(a) or start >= a.deadline_abs
                ]
                if not late:
                    break
                for adm in late:
                    responses.append(self._shed(
                        adm, worker,
                        max(worker.busy_until_ms, adm.arrival_ms),
                    ))
                group = [a for a in group if a not in late]
                if not group:
                    return responses
            if self.health is not None:
                self.health.on_dispatch(worker, start)
            if len(group) == 1:
                responses.append(self._run(group[0], worker, start))
            else:
                responses.extend(self._run_wave(group, worker, start))
            return responses
        finally:
            self.pool.checkin(worker)

    def _run_wave(
        self, group: list[AdmittedRequest], worker: PoolWorker,
        start: float,
    ) -> list[TraversalResponse]:
        sources = [a.request.source for a in group]
        session = worker.session
        wtr = Tracer() if self.tracer is not None else None
        error = None
        service_ms = 0.0
        try:
            wave, outcome = self._on_lane(
                worker, wtr,
                resilient=lambda: session.run_wave(sources),
                bare=lambda: msbfs.run_wave(session, sources),
            )
            service_ms = _service_ms(wave, outcome)
            lane_results = wave.to_results()
        except ReproError as exc:
            # One traversal, one fate: a typed failure fails every lane
            # (same lane-release rule as _run — failed work spends no
            # simulated time later requests would queue behind).
            error = f"{type(exc).__name__}: {exc}"
        finish = start + service_ms
        # One shared wave span carries the traversal's sub-trace; each
        # member request span points at it through its ``wave_sid``
        # attr, so the per-request tree can pull in the shared work.
        tr = self.tracer
        wave_sid = None
        if tr is not None:
            w_span = tr.start(
                "wave", "service", start, worker=worker.index,
                width=len(group),
            )
            if wtr.records:
                tr.graft(wtr.records, base_ms=start, parent=w_span.sid,
                         lane=worker.index)
            wave_sid = tr.end(w_span, finish, ok=error is None).sid
        worker.busy_until_ms = max(worker.busy_until_ms, finish)
        worker.served += len(group)
        responses = []
        for lane, adm in enumerate(group):
            span = self._open_request(
                adm, start, wave=len(group), wave_lane=lane,
                wave_sid=wave_sid,
            )
            response = self._lane_response(adm, worker, start)
            response.finish_ms = finish
            if error is None:
                _record(response, lane_results[lane], outcome)
            else:
                _fail(response, error)
            responses.append(self._finish(response, adm, span))
        if self.health is not None:
            # One traversal, one observation: a wave is a single serve
            # on its lane, however many requests rode it.
            self._health_observe(worker, responses[-1], finish)
        return responses

    def _shed(
        self, adm: AdmittedRequest, worker: PoolWorker, at_ms: float,
    ) -> TraversalResponse:
        """Load shedding: the deadline expired while queued (or brownout
        dropped best-effort work) — record a typed refusal without
        spending any worker time."""
        brownout = self._brownout_shed(adm)
        if brownout:
            error = DeadlineExceededError(
                f"request {adm.request.describe()} shed: service "
                f"brownout level {self.health.level} is dropping "
                f"best-effort work"
            )
            self.metrics.inc("service.brownout_sheds", tenant=adm.tenant)
        else:
            error = DeadlineExceededError(
                f"request {adm.request.describe()} shed: deadline "
                f"{adm.deadline_abs:.3f} ms passed before dispatch "
                f"(earliest start {at_ms:.3f} ms)"
            )
        # Even a shed request gets its request-scoped tree: the queue
        # wait plus the shed instant that ended it.
        span = self._open_request(adm, at_ms, shed=True)
        if span is not None:
            self.tracer.emit(
                "shed", "service", 0.0, t_ms=at_ms,
                tenant=adm.tenant, endpoint=adm.request.endpoint,
                seq=adm.seq, worker=worker.index,
                request_id=adm.request_id, brownout=brownout,
            )
        return self._finish(TraversalResponse(
            request=adm.request, seq=adm.seq, ok=False,
            request_id=adm.request_id,
            error=f"{type(error).__name__}: {error}", shed=True,
            arrival_ms=adm.arrival_ms, start_ms=at_ms, finish_ms=at_ms,
            worker=worker.index,
        ), adm, span)

    def _refused(
        self, request: TraversalRequest, exc: ReproError,
    ) -> TraversalResponse:
        """An admission-time refusal as a terminal response (batch path):
        never admitted, so it has no span and moves neither the served
        nor the shed counter."""
        now = self.clock_ms
        return self._finish(TraversalResponse(
            request=request, seq=-1, ok=False,
            error=f"{type(exc).__name__}: {exc}",
            shed=isinstance(exc, DeadlineExceededError),
            arrival_ms=now, start_ms=now, finish_ms=now,
        ))

    def _run(
        self, adm: AdmittedRequest, worker: PoolWorker, start: float,
    ) -> TraversalResponse:
        request = adm.request
        response = self._lane_response(adm, worker, start)
        # The request-scoped tree: request (arrival -> terminal answer)
        # > queue wait + dispatch (lane occupancy).  Span ids are taken
        # at start(), so the request span opens first.  The engine runs
        # on a fresh per-request tracer whose clock starts at the
        # dispatch instant's zero; its records are grafted under the
        # dispatch span afterwards.
        span = self._open_request(adm, start)
        tr = self.tracer
        rtr = d_span = None
        if span is not None:
            d_span = tr.start("dispatch", "service", start,
                              request_id=adm.request_id,
                              worker=worker.index)
            rtr = Tracer()
        service_ms = 0.0
        try:
            service_ms = self._execute(adm, worker, response, tracer=rtr)
        except ReproError as exc:
            # A typed failure is a terminal answer: the lane is released
            # at its dispatch position (failed work spends no simulated
            # device time that a later request would queue behind).
            _fail(response, f"{type(exc).__name__}: {exc}")
        finish = start + service_ms
        response.finish_ms = finish
        # The health plane only attributes outcomes that actually ran on
        # this lane's session (pagerank and stats run elsewhere).
        # Hedging moves only the response's finish, so the primary leg's
        # facts stay on the response.
        observed = self.health is not None and isinstance(
            request, (VisitRequest, NeighborhoodRequest, ShortestPathRequest)
        )
        hedge_trace = None
        if observed and response.ok:
            hedge_trace = self._maybe_hedge(
                adm, worker, response, start, service_ms,
            )
            if not (response.degraded or response.attempts > 1
                    or response.faults_seen):
                self.health.record_latency(request.endpoint, service_ms)
        worker.busy_until_ms = max(worker.busy_until_ms, finish)
        worker.served += 1
        self.clock_ms = max(self.clock_ms, finish)
        if span is not None:
            if rtr.records:
                tr.graft(rtr.records, base_ms=start, parent=d_span.sid,
                         lane=worker.index, request_id=adm.request_id)
            tr.end(d_span, finish, ok=response.ok,
                   placement=response.placement,
                   attempts=response.attempts)
            if hedge_trace is not None:
                # The spare replica's leg lands on the dedicated hedge
                # track (it ran on another lane concurrently with the
                # primary — it must never share the primary's rows).
                h_rec = tr.emit(
                    "hedge", "hedge", hedge_trace["dur_ms"],
                    t_ms=hedge_trace["start_ms"],
                    request_id=adm.request_id, lane=hedge_trace["lane"],
                    threshold_ms=hedge_trace["threshold_ms"],
                    won=response.hedge_won,
                )
                tr.graft(
                    hedge_trace["records"],
                    base_ms=hedge_trace["start_ms"], parent=h_rec.sid,
                    category="hedge", lane=hedge_trace["lane"],
                    request_id=adm.request_id,
                )
        self._finish(response, adm, span)
        if observed:
            self._health_observe(worker, response, finish)
        return response

    # ------------------------------------------------------------------
    # Terminal accounting
    # ------------------------------------------------------------------

    def _lane_response(
        self, adm: AdmittedRequest, worker: PoolWorker, start: float,
    ) -> TraversalResponse:
        """A fresh response for ``adm`` served on ``worker`` from
        ``start``: ok, on the configured rung, until its lane run (or
        failure) says otherwise."""
        return TraversalResponse(
            request=adm.request, seq=adm.seq, ok=True,
            request_id=adm.request_id, arrival_ms=adm.arrival_ms,
            start_ms=start, worker=worker.index,
            placement=_MODE_RUNGS[self.config.memory_mode], attempts=1,
        )

    def _open_request(self, adm: AdmittedRequest, start: float, **attrs):
        """Open ``adm``'s ``request`` span (arrival -> terminal answer)
        and emit its EDF ``queue`` wait up to ``start``; ``None`` with
        telemetry off.  :meth:`_finish` ends the span."""
        tr = self.tracer
        if tr is None:
            return None
        span = tr.start(
            "request", "service", adm.arrival_ms,
            request_id=adm.request_id, tenant=adm.tenant,
            endpoint=adm.request.endpoint, seq=adm.seq, **attrs,
        )
        tr.emit("queue", "service", start - adm.arrival_ms,
                t_ms=adm.arrival_ms, request_id=adm.request_id)
        return span

    def _finish(
        self, response: TraversalResponse,
        adm: AdmittedRequest | None = None, span=None,
    ) -> TraversalResponse:
        """The one terminal sink.  Every response — served, failed, shed
        or refused at admission — is counted here, then ends its request
        span, feeds the SLO monitor and lands in the flight recorder, in
        that order.

        ``adm`` is given for admitted requests only: they move exactly
        one of ``requests_served`` / ``requests_shed``, and the served
        ones feed ``service.requests`` and the latency histograms.
        ``service.sheds`` and ``service.errors`` count every terminal
        response, admission refusals included.
        """
        request = response.request
        tenant, endpoint = request.tenant, request.endpoint
        metrics = self.metrics
        if response.shed:
            metrics.inc("service.sheds", tenant=tenant, endpoint=endpoint)
        elif response.error is not None:
            metrics.inc("service.errors", tenant=tenant,
                        type=response.error.split(":", 1)[0])
        if response.degraded:
            metrics.inc("service.degraded", tenant=tenant)
        if adm is not None:
            if response.shed:
                self.requests_shed += 1
            else:
                self.requests_served += 1
                metrics.inc("service.requests", tenant=tenant,
                            endpoint=endpoint)
                metrics.observe("service.latency_ms", response.latency_ms,
                                tenant=tenant, endpoint=endpoint)
                metrics.observe("service.queue_ms", response.queue_ms,
                                tenant=tenant)
        self.clock_ms = max(self.clock_ms, response.finish_ms)
        if span is not None:
            attrs = {"worker": response.worker, "ok": response.ok}
            if not response.shed:
                attrs.update(placement=response.placement,
                             queue_ms=response.queue_ms)
            if response.hedged:
                attrs.update(hedged=True, hedge_won=response.hedge_won)
            self.tracer.end(span, response.finish_ms, **attrs)
        self._slo_record(
            tenant, response.finish_ms,
            response.ok and response.finish_ms <= adm.deadline_abs,
        )
        if self.recorder is not None:
            self.recorder.observe_response(response)
        return response

    # ------------------------------------------------------------------
    # Self-healing plane hooks
    # ------------------------------------------------------------------

    def _slo_record(self, tenant: str, t_ms: float, hit: bool) -> None:
        """Feed one terminal outcome to the SLO monitor; any alert
        transition becomes an ``alerts``-track event and a counter."""
        if self.slo is None:
            return
        for alert in self.slo.record(tenant, t_ms, hit):
            self.metrics.inc("slo.alerts", tenant=tenant, state=alert.state)
            if self.tracer is not None:
                self.tracer.emit(
                    "slo_alert", "alerts", 0.0, t_ms=alert.t_ms,
                    tenant=tenant, state=alert.state,
                    previous=alert.previous,
                    fast_burn=alert.fast_burn, slow_burn=alert.slow_burn,
                )

    def _health_observe(
        self, worker: PoolWorker, response: TraversalResponse, t_ms: float,
    ) -> list:
        """Feed one lane serve, as its response records it, to the health
        plane; mirror the resulting score/level into metrics and any
        breaker transitions into the metrics registry and the service
        trace."""
        plane = self.health
        events = plane.observe(
            worker, ok=response.ok,
            error_type=(
                response.error.split(":", 1)[0]
                if response.error is not None else None
            ),
            faults=len(response.faults_seen), attempts=response.attempts,
            degraded=response.degraded, t_ms=t_ms,
        )
        self.metrics.set_gauge(
            "service.lane_health", plane.lanes[worker.index].score,
            lane=str(worker.index),
        )
        self.metrics.set_gauge("service.brownout_level", float(plane.level))
        for event in events:
            self.metrics.inc("service.breaker_transitions", kind=event.kind)
            if self.tracer is not None:
                # Breaker and brownout transitions are first-class
                # alerts, on their own track — they annotate the whole
                # service, not any one request's tree.
                self.tracer.emit(
                    event.kind, "alerts", 0.0, t_ms=event.t_ms,
                    lane=-1 if event.lane is None else event.lane,
                    detail=event.detail,
                )
        if self.recorder is not None and events:
            self.recorder.observe_events(events, worker.index)
        return events

    def _hedge_standby(self) -> PoolWorker:
        """The dedicated warm hedge lane (built on first use; its first
        leg pays the one-time topology setup and then stays warm)."""
        if self._hedge_worker is None:
            self._hedge_worker = self.pool.build_spare()
        return self._hedge_worker

    def _maybe_hedge(
        self, adm: AdmittedRequest, worker: PoolWorker,
        response: TraversalResponse, start: float, service_ms: float,
    ) -> dict | None:
        """Hedge a suspect straggler: when a serve from a non-pristine
        lane overshoots the endpoint's clean-latency p95, run the same
        query on the warm hedge standby and keep the earlier finish.

        Both legs must agree bit-for-bit on labels — hedging trades
        simulated latency, never answers.  The primary lane stays
        charged for its full service time either way (its work really
        happened), and a won hedge only moves the *response*'s finish to
        the standby leg's earlier one: the payload, ``result`` (and so
        ``result_digest``), lane and placement stay the primary's, which
        is what keeps the hedged run digest-identical to the unhedged
        one.

        Returns the hedge leg's trace material (records on the leg's
        own tracer, plus its window on the service clock) for the
        caller to graft onto the ``hedge`` track, or ``None`` when no
        hedge ran.
        """
        plane = self.health
        request = adm.request
        if not plane.hedging_active:
            return None
        if not plane.suspect(worker, response):
            return None
        threshold = plane.hedge_threshold(request.endpoint)
        if threshold is None or service_ms <= threshold:
            return None
        standby = self._hedge_standby()
        plane.hedges += 1
        self.metrics.inc("service.hedges", tenant=request.tenant,
                         endpoint=request.endpoint)
        # The hedge launches once the primary has overshot the
        # threshold — not at dispatch (that would double every suspect
        # serve's work) — and no earlier than the standby is free (a
        # backed-up standby simply loses the race).
        hedge_start = max(standby.busy_until_ms, start + threshold)
        hedge = self._lane_response(adm, standby, hedge_start)
        htr = Tracer() if self.tracer is not None else None
        try:
            hedge_ms = self._execute(adm, standby, hedge, tracer=htr)
        except ReproError:
            # A failed hedge leg never touches the request: the primary
            # already answered.  The standby is clean by construction
            # (no injector), so a failure here is request-shaped, not a
            # lane-health signal.
            return None
        hedge_finish = hedge_start + hedge_ms
        standby.busy_until_ms = max(standby.busy_until_ms, hedge_finish)
        standby.served += 1
        self.clock_ms = max(self.clock_ms, hedge_finish)
        if not np.array_equal(
            np.asarray(response.result.labels),
            np.asarray(hedge.result.labels),
        ):
            raise DataCorruptionError(
                f"hedge legs disagree on seq {adm.seq}: lane "
                f"{worker.index} and the hedge standby returned "
                f"different labels for {request.describe()}"
            )
        hedge_clean = not (
            hedge.degraded or hedge.attempts > 1 or hedge.faults_seen
        )
        if hedge_clean:
            plane.record_latency(request.endpoint, hedge_ms)
        response.hedged = True
        if hedge_finish < response.finish_ms:
            plane.hedge_wins += 1
            response.hedge_won = True
            self.metrics.inc("service.hedge_wins", tenant=request.tenant,
                             endpoint=request.endpoint)
            # Only the finish moves: the tenant got its (identical)
            # answer at the standby leg's earlier completion, but the
            # payload and result stay the primary's so the response is
            # digest-identical to a hedge-off run.
            response.finish_ms = hedge_finish
        if htr is None:
            return None
        return {
            "records": htr.records,
            "start_ms": hedge_start,
            "dur_ms": hedge_ms,
            "lane": standby.index,
            "threshold_ms": threshold,
        }

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------

    def _execute(
        self, adm: AdmittedRequest, worker: PoolWorker,
        response: TraversalResponse, tracer=None,
    ) -> float:
        """Run one endpoint on ``worker``; fills the response payload and
        returns the simulated service time (ms).  ``tracer`` is the
        request-local :class:`~repro.observability.Tracer` the engine
        records into (``None`` with telemetry off)."""
        request = adm.request
        if isinstance(request, VisitRequest):
            return self._run_visit(
                worker, response, request.problem, request.source,
                target=request.target, iteration_budget=adm.iteration_budget,
                tracer=tracer,
            )
        if isinstance(request, NeighborhoodRequest):
            return self._run_neighborhood(
                worker, response, request, adm, tracer=tracer,
            )
        if isinstance(request, ShortestPathRequest):
            return self._run_shortest_path(
                worker, response, request, adm, tracer=tracer,
            )
        if isinstance(request, PageRankRequest):
            return self._run_pagerank(response, request, adm, tracer=tracer)
        if isinstance(request, StatsRequest):
            return self._run_stats(response)
        raise ConfigError(
            f"no endpoint for request type {type(request).__name__}"
        )

    @staticmethod
    def _on_lane(worker: PoolWorker, tracer, resilient, bare):
        """One traversal on ``worker``'s resident session:
        ``resilient()`` (returning a ``RunOutcome``) on a resilient lane,
        ``bare()`` otherwise.  Returns ``(result, outcome | None)``.

        ``tracer`` (when given) is attached to the session for the
        duration of the call, so the engine's spans land on the
        request-local timeline; a typed failure closes whatever spans
        the engine left open on it."""
        session = worker.session
        prev_tracer = session.tracer
        if tracer is not None:
            session.tracer = tracer
        try:
            if worker.resilient:
                outcome = resilient()
                return outcome.result, outcome
            return bare(), None
        except ReproError:
            if tracer is not None:
                tracer.unwind(tracer.max_end_ms, error=True)
            raise
        finally:
            if tracer is not None:
                session.tracer = prev_tracer

    def _run_visit(
        self, worker: PoolWorker, response: TraversalResponse,
        problem: str, source: int, *, target: int | None,
        iteration_budget: int | None, tracer=None, parents: bool = False,
    ) -> float:
        """The traversal core shared by visit, neighborhood, shortest
        path and the hedge leg: one engine query on the worker's
        resident session, bit-identical to the same query on a bare
        session."""
        session = worker.session

        def resilient():
            policy = session.policy
            if iteration_budget is not None:
                policy = replace(policy, max_iterations=iteration_budget)
            return session.run(problem, source, target=target,
                               policy=policy, parents=parents)

        def bare():
            try:
                return session.query(
                    problem, source, target=target,
                    max_iterations=iteration_budget, parents=parents,
                )
            except ConvergenceError as exc:
                if iteration_budget is not None:
                    # Budget exhaustion is an SLO outcome, not an engine
                    # defect — same mapping the resilient path applies.
                    raise DeadlineExceededError(
                        f"query exceeded its iteration budget of "
                        f"{iteration_budget}"
                    ) from exc
                raise

        result, outcome = self._on_lane(worker, tracer, resilient, bare)
        _record(response, result, outcome)
        return _service_ms(result, outcome)

    def _run_neighborhood(
        self, worker: PoolWorker, response: TraversalResponse,
        request: NeighborhoodRequest, adm: AdmittedRequest, tracer=None,
    ) -> float:
        service_ms = self._run_visit(
            worker, response, "bfs", request.source,
            target=None, iteration_budget=adm.iteration_budget,
            tracer=tracer,
        )
        levels = response.result.labels
        within = np.flatnonzero(
            np.isfinite(levels) & (levels <= request.hops)
        )
        response.value = {
            "vertices": within,
            "levels": levels[within].astype(np.int64),
        }
        return service_ms

    def _run_shortest_path(
        self, worker: PoolWorker, response: TraversalResponse,
        request: ShortestPathRequest, adm: AdmittedRequest, tracer=None,
    ) -> float:
        from repro.algorithms.paths import reconstruct_path

        service_ms = self._run_visit(
            worker, response, "bfs", request.source,
            target=request.target, iteration_budget=adm.iteration_budget,
            tracer=tracer, parents=True,
        )
        response.value = reconstruct_path(
            response.result.extras["parents"], request.source,
            request.target,
        )
        return service_ms

    def _run_pagerank(
        self, response: TraversalResponse, request: PageRankRequest,
        adm: AdmittedRequest, tracer=None,
    ) -> float:
        # A session of one: the request's spans land on ``tracer``, as a
        # lane query's do.
        with EngineSession(self.csr, self.config, self.device) as session:
            session.tracer = tracer
            try:
                pr = pagerank(
                    session,
                    damping=request.damping,
                    tolerance=request.tolerance,
                    max_iterations=(
                        adm.iteration_budget
                        if adm.iteration_budget is not None
                        else self.config.max_iterations
                    ),
                )
            except ReproError:
                if tracer is not None:
                    tracer.unwind(tracer.max_end_ms, error=True)
                raise
        response.result = pr
        response.value = pr.ranks
        return _service_ms(pr, None)

    def _run_stats(self, response: TraversalResponse) -> float:
        if self._stats_cache is None:
            from repro.graph.properties import GraphSummary

            self._stats_cache = asdict(GraphSummary.of(self.csr))
        value = dict(self._stats_cache)
        if self.health is not None:
            # The stats endpoint doubles as the health surface: lane
            # scores, breaker states, generations and the brownout level
            # ride along when the self-healing plane is on.
            value["health"] = self.health.snapshot()
        response.value = value
        # Served from precomputed metadata: no simulated device time.
        return 0.0


def _record(response: TraversalResponse, result, outcome) -> None:
    """Put a lane run's result on ``response``, plus — from a resilient
    lane — its ladder outcome (final placement, degradation, attempts,
    faults)."""
    response.result = result
    response.value = result.labels
    if outcome is not None:
        response.placement = outcome.final_placement
        response.degraded = outcome.degraded
        response.attempts = outcome.num_attempts
        response.faults_seen = list(outcome.faults_seen)


def _fail(response: TraversalResponse, error: str) -> None:
    """Mark ``response`` as a typed failure that no ladder rung served."""
    response.ok = False
    response.error = error
    response.placement = ""


def _service_ms(result, outcome) -> float:
    """A lane run's simulated lane time.  Retry backoff is real lane
    time: the requests queued behind a flaky serve wait through its
    backoffs too."""
    backoff_ms = outcome.backoff_ms if outcome is not None else 0.0
    return result.total_ms + result.d2h_ms + backoff_ms
