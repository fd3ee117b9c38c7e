"""Hardened serving wrapper: retry, budgets and graceful degradation.

:class:`ResilientSession` wraps :class:`~repro.core.session.EngineSession`
with the failure semantics a serving deployment needs (the ROADMAP's
north star), built on the paper's own observation that memory placement
is a *ladder*, not a binary: Table III's baselines die with ``O.O.M``
where EtaGraph's UM oversubscription survives, and EMOGI pushes the same
idea one rung further (sector-granular direct access, then zero-copy,
when even UM thrashes).  The ladder here:

    device-resident -> UM prefetch -> UM oversubscribed (on-demand)
        -> direct access -> zero-copy -> modelled multicore CPU

A query enters at the rung matching its configured
:class:`~repro.core.config.MemoryMode` and only ever moves *down*:

* **transient faults** (:class:`~repro.errors.TransferError`,
  :class:`~repro.errors.MigrationStallError`) and detected corruption
  (:class:`~repro.errors.DataCorruptionError`) are retried on the same
  rung with exponential backoff, then demote when retries are exhausted;
* **out-of-memory** (:class:`~repro.errors.DeviceOutOfMemoryError`)
  demotes immediately — and a *genuine* capacity OOM (requested bytes
  really exceed free capacity) marks the rung dead for the session, so
  later queries skip straight past it;
* the **CPU floor** (rung ``cpu_oracle``) cannot fault: it runs
  :class:`~repro.baselines.cpu_ligra.LigraLikeCPU`, the modelled
  multicore engine of the paper's host, so a degraded-but-correct
  answer is always available (its labels are bit-identical to the GPU
  result by the differential subsystem's guarantee) and is charged on
  the simulated clock like every other rung.

Every query returns a :class:`RunOutcome` recording each attempt, every
injected fault observed, the final placement and whether the answer was
served degraded.  With no fault plan installed the wrapper adds nothing:
results (labels *and* simulated timings) are bit-identical to the same
queries on a bare ``EngineSession``.

All backoff and floor time is *simulated* (recorded, never slept),
consistent with the rest of the repo's clock; only
:attr:`RetryPolicy.deadline_ms` reads the host wall clock, because it
bounds real serving latency.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from repro.algorithms.base import TraversalProblem, get_problem
from repro.core.config import EtaGraphConfig, MemoryMode
from repro.core.engine import TraversalResult
from repro.core.session import EngineSession, fill_result
from repro.core.stats import TraversalStats
from repro.errors import (
    ConfigError,
    ConvergenceError,
    DataCorruptionError,
    DeadlineExceededError,
    DeviceOutOfMemoryError,
    SessionClosedError,
    TransientDeviceError,
)
from repro.gpu.device import DeviceSpec, GTX_1080TI
from repro.gpu.profiler import Profiler
from repro.gpu.timeline import Timeline
from repro.graph.compressed import CompressedCSRGraph
from repro.graph.csr import CSRGraph
from repro.resilience.faults import FaultInjector, FaultPlan

#: The degradation ladder, best placement first.  ``um_oversubscribed``
#: is UM with on-demand migration — the mode whose paging survives
#: working sets beyond device capacity (the paper's uk-2006 case).
LADDER: tuple[str, ...] = (
    "device", "um_prefetch", "um_oversubscribed", "direct_access",
    "zero_copy", "cpu_oracle",
)

_RUNG_MODES: dict[str, MemoryMode] = {
    "device": MemoryMode.DEVICE,
    "um_prefetch": MemoryMode.UM_PREFETCH,
    "um_oversubscribed": MemoryMode.UM_ON_DEMAND,
    "direct_access": MemoryMode.DIRECT_ACCESS,
    "zero_copy": MemoryMode.ZERO_COPY,
}

_MODE_RUNGS: dict[MemoryMode, str] = {
    MemoryMode.DEVICE: "device",
    MemoryMode.UM_PREFETCH: "um_prefetch",
    MemoryMode.UM_ON_DEMAND: "um_oversubscribed",
    MemoryMode.DIRECT_ACCESS: "direct_access",
    MemoryMode.ZERO_COPY: "zero_copy",
}


@dataclass(frozen=True)
class RetryPolicy:
    """Per-query failure-handling budget of a :class:`ResilientSession`."""

    #: Retries per rung for transient faults / detected corruption (the
    #: first try is not a retry: a rung gets ``1 + max_retries`` tries).
    max_retries: int = 2
    #: Simulated backoff before retry r: ``backoff_base_ms * 2**(r-1)``.
    backoff_base_ms: float = 1.0
    #: Seeded-deterministic backoff jitter: each retry's backoff is
    #: stretched by a factor drawn uniformly from ``[1, 1 + jitter]``
    #: out of the session's own seeded stream (``jitter_seed``), so
    #: lanes sharing a fault plan stop retrying in lockstep (the classic
    #: synchronized retry storm).  0.0 (the default) draws nothing and
    #: keeps the exact pre-jitter schedule — the resilience identity
    #: gate runs against this configuration.
    jitter: float = 0.0
    #: Host wall-clock budget per query (None = unbounded).  Checked
    #: between attempts; tripping it raises ``DeadlineExceededError``.
    deadline_ms: float | None = None
    #: Per-query iteration budget (None = the config's own
    #: ``max_iterations``).  Exhausting it raises
    #: ``DeadlineExceededError`` instead of ``ConvergenceError``.
    max_iterations: int | None = None
    #: Whether the ladder's last rung (the modelled CPU floor) is allowed.
    allow_cpu_fallback: bool = True

    def __post_init__(self):
        if self.max_retries < 0:
            raise ConfigError("max_retries must be >= 0")
        if self.backoff_base_ms < 0:
            raise ConfigError("backoff_base_ms must be >= 0")
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigError("jitter must be in [0, 1]")
        if self.deadline_ms is not None and self.deadline_ms < 0:
            raise ConfigError("deadline_ms must be >= 0")
        if self.max_iterations is not None and self.max_iterations < 1:
            raise ConfigError("max_iterations must be >= 1")


@dataclass(frozen=True)
class Attempt:
    """One try of one query on one rung."""

    rung: str
    #: 1-based try number within the rung.
    try_number: int
    #: ``None`` on success, else ``"ErrorType: message"``.
    error: str | None
    #: Simulated backoff charged before the *next* try on this rung.
    backoff_ms: float = 0.0


@dataclass
class RunOutcome:
    """Everything that happened while serving one query."""

    result: TraversalResult
    attempts: list[Attempt] = field(default_factory=list)
    #: Injector faults observed during this query, in firing order.
    faults_seen: list[str] = field(default_factory=list)
    #: Ladder rung that produced the result.
    final_placement: str = ""
    #: Rung the session's configuration asked for.
    requested_placement: str = ""
    #: True when the answer came from a lower rung than configured.
    degraded: bool = False
    #: Total simulated backoff charged across retries (ms).
    backoff_ms: float = 0.0

    @property
    def num_attempts(self) -> int:
        return len(self.attempts)

    @property
    def retried(self) -> bool:
        return len(self.attempts) > 1

    @property
    def trace(self):
        """The stitched :class:`repro.observability.Trace` of this serve
        (``None`` unless the session ran with telemetry)."""
        return self.result.trace if self.result is not None else None

    @property
    def labels(self) -> np.ndarray:
        return self.result.labels

    def __repr__(self) -> str:
        return (
            f"RunOutcome({self.final_placement}, "
            f"{self.num_attempts} attempts, "
            f"{len(self.faults_seen)} faults, "
            f"{'degraded' if self.degraded else 'nominal'})"
        )


class ResilientSession:
    """An :class:`~repro.core.session.EngineSession` that degrades
    instead of dying.

    Use exactly like an engine session — plus every query also reports
    *how* it was served::

        with ResilientSession(graph) as rs:
            outcome = rs.run("bfs", 0)
            outcome.labels            # bit-exact labels
            outcome.final_placement   # e.g. "um_prefetch"
            outcome.degraded          # False on the happy path

    ``fault_plan`` installs a deterministic
    :class:`~repro.resilience.faults.FaultPlan` (chaos testing); without
    one, results are bit-identical to a bare ``EngineSession``.
    """

    def __init__(
        self,
        csr: "CSRGraph | CompressedCSRGraph",
        config: EtaGraphConfig | None = None,
        device: DeviceSpec = GTX_1080TI,
        *,
        fault_plan: FaultPlan | None = None,
        policy: RetryPolicy | None = None,
        jitter_seed: int = 0,
    ):
        #: The topology as handed in — possibly a
        #: :class:`~repro.graph.compressed.CompressedCSRGraph`; every rung
        #: session places *this*, so degradation never silently swaps the
        #: encoding out from under the caller.
        self.topology = csr
        #: Dense view for the CPU floor (and host-side checks).
        self.csr = (
            csr.decode() if isinstance(csr, CompressedCSRGraph) else csr
        )
        self.config = config or EtaGraphConfig()
        self.device = device
        self.policy = policy or RetryPolicy()
        self.injector = (
            FaultInjector(fault_plan) if fault_plan is not None else None
        )
        #: Seed of this session's backoff-jitter stream (pool lanes pass
        #: their lane index, desynchronizing shared fault plans).  The
        #: stream is only ever drawn from when ``policy.jitter > 0``, so
        #: jitter-off schedules are byte-identical to pre-jitter ones.
        self.jitter_seed = jitter_seed
        self._jitter_rng = np.random.default_rng((0x6A11E6, jitter_seed))
        #: Optional externally-owned :class:`repro.observability.Tracer`.
        #: When set (or when ``config.telemetry`` is true), every
        #: :meth:`run` records ``serve``/``attempt``/``backoff`` spans
        #: and stitches each attempt's engine trace onto one timeline;
        #: the full trace hangs off ``outcome.result.trace``.  Purely
        #: observational: results and simulated timings are unchanged.
        self.tracer = None
        #: Rungs proven to genuinely exceed device capacity this session;
        #: later queries skip them instead of re-failing the allocation.
        self.dead_rungs: set[str] = set()
        #: Completed queries (same meaning as ``EngineSession.queries_served``).
        self.queries_served = 0
        self._sessions: dict[str, EngineSession] = {}
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        for session in self._sessions.values():
            session.close()
        self._sessions.clear()
        self._closed = True

    def __enter__(self) -> "ResilientSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def closed(self) -> bool:
        return self._closed

    def __repr__(self) -> str:
        state = "closed" if self._closed else (
            f"{self.queries_served} queries, "
            f"rungs={sorted(self._sessions)}"
        )
        return f"ResilientSession({self.csr!r}, {state})"

    # ------------------------------------------------------------------
    # Ladder bookkeeping
    # ------------------------------------------------------------------

    @property
    def entry_rung(self) -> str:
        return _MODE_RUNGS[self.config.memory_mode]

    def _rung_config(self, rung: str) -> EtaGraphConfig:
        # Iteration budgets are applied per query (session.query's
        # max_iterations override), not baked into the rung config, so
        # one resident session can serve requests with different budgets.
        if rung == self.entry_rung:
            # The entry rung runs the caller's configuration untouched —
            # this is what makes the no-fault path bit-identical.
            return self.config
        return replace(self.config, memory_mode=_RUNG_MODES[rung])

    def _session_for(self, rung: str) -> EngineSession:
        session = self._sessions.get(rung)
        if session is None:
            session = EngineSession(
                self.topology, self._rung_config(rung), self.device,
                injector=self.injector,
            )
            self._sessions[rung] = session
        return session

    def _discard(self, rung: str) -> None:
        """Close and drop a rung's session (its placement state may be
        partial after an aborted allocation)."""
        session = self._sessions.pop(rung, None)
        if session is not None:
            session.close()

    def _ladder_from(self, start: str, policy: RetryPolicy) -> list[str]:
        rungs = list(LADDER[LADDER.index(start):])
        if not policy.allow_cpu_fallback:
            rungs.remove("cpu_oracle")
        return [r for r in rungs if r not in self.dead_rungs]

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------

    def run(
        self,
        problem: TraversalProblem | str,
        source: int,
        *,
        target: int | None = None,
        policy: RetryPolicy | None = None,
        parents: bool = False,
    ) -> RunOutcome:
        """Serve one query through the retry/degradation machinery.

        Returns a :class:`RunOutcome`; raises only typed
        :class:`~repro.errors.ReproError` subclasses — a deadline or an
        unservable ladder surfaces as an error, never as a wrong answer.

        ``policy`` overrides the session's :class:`RetryPolicy` for this
        call only (the serving layer's per-request deadline/iteration
        budgets); resident rung sessions are reused either way.
        ``parents=True`` asks every rung, the CPU floor included, for
        BFS parent pointers in ``extras["parents"]``.
        """
        if self._closed:
            raise SessionClosedError("resilient session is closed")
        if isinstance(problem, str):
            problem = get_problem(problem)
        policy = policy or self.policy
        return self._serve(
            lambda session: session.query(
                problem, source, target=target,
                max_iterations=policy.max_iterations, parents=parents,
            ),
            # The floor is the always-available answer: a per-request
            # iteration cap does not apply to it.
            lambda tracer: self._cpu_floor(
                problem, (source,), tracer, parents=parents,
            ),
            policy, noun="query", lanes=1,
            span_attrs={"problem": problem.name, "source": source},
            trace_meta={"problem": problem.name, "source": source},
        )

    def run_wave(self, sources, *, policy: RetryPolicy | None = None):
        """Serve one MSBFS wave (:func:`repro.core.msbfs.run_wave`)
        through the same retry/degradation ladder as :meth:`run`.

        The whole wave moves down the ladder together: a fault on one
        rung re-runs *all* lanes on the next try/rung (lanes share one
        traversal, so there is no per-lane partial result to salvage).
        Returns a :class:`RunOutcome` whose ``result`` is a
        :class:`~repro.core.msbfs.WaveResult`; per-source levels are
        bit-identical whichever rung served them (the cpu_oracle floor
        included, whose ``total_ms`` sums its lanes' modelled CPU
        costs).
        """
        from repro.core import msbfs

        if self._closed:
            raise SessionClosedError("resilient session is closed")
        policy = policy or self.policy
        sources = np.asarray(sources, dtype=np.int64).ravel()
        width = len(sources)
        return self._serve(
            lambda session: msbfs.run_wave(
                session, sources, max_iterations=policy.max_iterations,
            ),
            lambda tracer: self._cpu_floor(
                get_problem("bfs"), sources, tracer, wave=True,
            ),
            policy, noun="wave", lanes=width,
            span_attrs={"problem": "msbfs", "sources": width},
            trace_meta={"problem": "msbfs", "sources": str(width)},
        )

    def _serve(
        self,
        run_on,
        floor,
        policy: RetryPolicy,
        *,
        noun: str,
        lanes: int,
        span_attrs: dict,
        trace_meta: dict,
    ) -> RunOutcome:
        """The retry/degradation ladder: try each rung in turn — via
        ``run_on(session)`` on a GPU rung, ``floor(tracer)`` on the CPU
        floor — until one returns a result.  ``lanes`` is how many
        queries a success serves; ``noun`` names the work in the
        iteration-budget error."""
        started = time.monotonic()
        outcome = RunOutcome(
            result=None,  # type: ignore[arg-type] — set before returning
            requested_placement=self.entry_rung,
        )
        fired_before = len(self.injector.fired) if self.injector else 0
        last_error: Exception | None = None

        # Telemetry: an attached tracer wins; else config.telemetry makes
        # one per serve.  Attempts are stitched onto one timeline — each
        # attempt's engine spans record at ``base_ms = cur``, and ``cur``
        # advances past whatever the attempt (plus simulated backoff)
        # consumed.  Resilience spans live at base 0, absolute time.
        tr = self.tracer
        if tr is None and self.config.telemetry:
            from repro.observability.spans import Tracer

            tr = Tracer()
        serve_span = None
        cur = 0.0
        if tr is not None:
            tr.base_ms = 0.0
            cur = tr.max_end_ms
            serve_span = tr.start(
                "serve", "resilience", cur, **span_attrs,
                entry_rung=self.entry_rung,
            )

        rungs = self._ladder_from(self.entry_rung, policy)
        if not rungs:
            raise DeviceOutOfMemoryError(0, 0, self.device.memory_capacity)
        try:
            for rung in rungs:
                tries = 1 + policy.max_retries
                for try_number in range(1, tries + 1):
                    self._check_deadline(started, policy)
                    a_span = None
                    if tr is not None:
                        tr.base_ms = cur
                        a_span = tr.start(
                            "attempt", "resilience", 0.0,
                            rung=rung, try_number=try_number,
                        )
                    try:
                        result = self._attempt(rung, tr, run_on, floor)
                    except DeviceOutOfMemoryError as exc:
                        # OOM is not retryable at this placement: demote.
                        # A genuine capacity failure also retires the
                        # rung for the whole session.
                        if tr is not None:
                            cur = self._close_attempt(tr, a_span, exc)
                        outcome.attempts.append(Attempt(
                            rung=rung, try_number=try_number,
                            error=f"{type(exc).__name__}: {exc}",
                        ))
                        last_error = exc
                        self._discard(rung)
                        if exc.requested + exc.in_use > exc.capacity:
                            self.dead_rungs.add(rung)
                        break
                    except (TransientDeviceError, DataCorruptionError) as exc:
                        if tr is not None:
                            cur = self._close_attempt(tr, a_span, exc)
                        backoff = 0.0
                        if try_number <= policy.max_retries:
                            backoff = self._backoff_ms(policy, try_number)
                            outcome.backoff_ms += backoff
                            if tr is not None and backoff > 0:
                                tr.emit("backoff", "resilience", backoff,
                                        t_ms=cur, rung=rung,
                                        try_number=try_number)
                                cur += backoff
                        outcome.attempts.append(Attempt(
                            rung=rung, try_number=try_number,
                            error=f"{type(exc).__name__}: {exc}",
                            backoff_ms=backoff,
                        ))
                        last_error = exc
                        continue  # retry this rung (or fall off to demote)
                    except ConvergenceError as exc:
                        if tr is not None:
                            self._close_attempt(tr, a_span, exc)
                        if policy.max_iterations is not None:
                            raise DeadlineExceededError(
                                f"{noun} exceeded its iteration budget of "
                                f"{policy.max_iterations}"
                            ) from exc
                        raise
                    if tr is not None:
                        cur = self._close_attempt(tr, a_span, None)
                    outcome.attempts.append(Attempt(
                        rung=rung, try_number=try_number, error=None,
                    ))
                    outcome.result = result
                    outcome.final_placement = rung
                    outcome.degraded = rung != outcome.requested_placement
                    if self.injector is not None:
                        outcome.faults_seen = list(
                            self.injector.fired[fired_before:]
                        )
                    self.queries_served += lanes
                    if tr is not None:
                        tr.end(serve_span, cur, placement=rung,
                               attempts=outcome.num_attempts,
                               degraded=outcome.degraded)
                        outcome.result.trace = tr.trace(
                            **trace_meta, resilient="true", placement=rung,
                        )
                    return outcome

            # Every allowed rung failed; surface the last typed error.
            assert last_error is not None
            raise last_error
        except Exception:
            # Keep the trace well-formed for post-mortem export: close
            # whatever the raise left open (the serve span, at least).
            if tr is not None:
                tr.base_ms = 0.0
                tr.unwind(tr.max_end_ms, error=True)
            raise

    #: Drop-in :class:`~repro.core.session.EngineSession` compatibility:
    #: same signature, returns the bare :class:`TraversalResult`.
    def query(
        self,
        problem: TraversalProblem | str,
        source: int,
        *,
        target: int | None = None,
        parents: bool = False,
    ) -> TraversalResult:
        return self.run(problem, source, target=target,
                        parents=parents).result

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _backoff_ms(self, policy: RetryPolicy, try_number: int) -> float:
        """Simulated backoff before retry ``try_number``: exponential in
        the try number, stretched by this session's seeded jitter draw
        when ``policy.jitter > 0``.  The jitter stream is untouched at
        ``jitter == 0`` so jitter-off schedules replay byte-identically."""
        backoff = policy.backoff_base_ms * 2.0 ** (try_number - 1)
        if policy.jitter > 0.0 and backoff > 0.0:
            backoff *= 1.0 + policy.jitter * float(self._jitter_rng.random())
        return backoff

    def _check_deadline(self, started: float, policy: RetryPolicy) -> None:
        deadline = policy.deadline_ms
        if deadline is None:
            return
        elapsed_ms = (time.monotonic() - started) * 1e3
        if elapsed_ms >= deadline:
            raise DeadlineExceededError(
                f"query exceeded its {deadline:g} ms wall deadline "
                f"({elapsed_ms:.1f} ms elapsed)"
            )

    @staticmethod
    def _close_attempt(tr, span, exc: Exception | None) -> float:
        """Close one attempt's span (plus anything an exception left open
        beneath it) and return the stitched timeline's new position."""
        end_local = max(tr.max_end_ms - tr.base_ms, 0.0)
        if exc is None:
            tr.end(span, end_local)
        else:
            tr.end(span, end_local, error=type(exc).__name__)
        end_abs = tr.base_ms + end_local
        tr.base_ms = 0.0
        return end_abs

    def _attempt(self, rung: str, tracer, run_on, floor):
        """One try on ``rung``: ``floor(tracer)`` on the CPU floor, else
        ``run_on(session)`` on the rung's session with ``tracer``
        attached for the call."""
        if rung == "cpu_oracle":
            return floor(tracer)
        session = self._session_for(rung)
        if tracer is None:
            return run_on(session)
        prev = session.tracer
        session.tracer = tracer
        try:
            return run_on(session)
        finally:
            session.tracer = prev

    def _cpu_floor(
        self, problem: TraversalProblem, sources, tracer=None, *,
        wave: bool = False, parents: bool = False,
    ):
        """The ladder's floor: one modelled
        :class:`~repro.baselines.cpu_ligra.LigraLikeCPU` run per lane,
        charged the model's cost (summed over a wave's lanes).  No GPU
        kernel or copy runs, so no injected fault can reach it."""
        from repro.baselines.cpu_ligra import LigraLikeCPU
        from repro.core.msbfs import WaveResult

        runs = [LigraLikeCPU().run(self.csr, problem, int(s)) for s in sources]
        total_ms = sum(r.total_ms for r in runs)
        if tracer is not None:
            tracer.emit("cpu_oracle", "resilience", total_ms, t_ms=0.0,
                        lanes=len(runs))
        n = self.csr.num_vertices
        measured = dict(
            total_ms=total_ms, kernel_ms=0.0, transfer_ms=0.0, d2h_ms=0.0,
            setup_ms=0.0, timeline=Timeline(), profiler=Profiler(),
            config=self.config,
        )
        if wave:
            return fill_result(
                WaveResult, measured,
                sources=sources, levels=np.stack([r.labels for r in runs]),
                extras={"cpu_oracle": True},
                stats=TraversalStats(num_vertices=n, seed_count=len(runs)),
            )
        (run,) = runs
        extras = {"cpu_oracle": True, "early_exit": False}
        if parents and problem.name == "bfs":
            extras["parents"] = _bfs_parents(self.csr, run.labels)
        seeds = problem.initial_frontier(n, run.source)
        return fill_result(
            TraversalResult, measured,
            labels=run.labels, source=run.source, problem_name=problem.name,
            stats=TraversalStats(num_vertices=n, seed_count=len(seeds)),
            extras=extras,
        )


def _bfs_parents(csr: CSRGraph, levels: np.ndarray) -> np.ndarray:
    """Shortest-path witnesses from BFS levels: ``parents[v] = u`` for an
    edge ``u -> v`` between reached vertices with ``levels[v] ==
    levels[u] + 1`` (the last such edge wins); the source and unreached
    vertices keep ``NO_PARENT``."""
    from repro.algorithms.paths import NO_PARENT

    src = csr.edge_sources()
    dst = csr.column_indices
    tree = np.isfinite(levels[src]) & (levels[dst] == levels[src] + 1)
    parents = np.full(csr.num_vertices, NO_PARENT, dtype=np.int32)
    parents[dst[tree]] = src[tree]
    return parents
