"""Worker pool: resident engine sessions as schedulable lanes.

A :class:`SessionPool` owns ``size`` resident sessions over one graph —
bare :class:`~repro.core.session.EngineSession` workers by default, or
:class:`~repro.resilience.session.ResilientSession` workers when the
service runs with a fault plan or retry policy (the degradation ladder
then rides under every request).  Each worker is a *lane* on the
service's simulated clock: :attr:`PoolWorker.busy_until_ms` is when its
current work finishes, and the dispatcher always picks the lane that
frees first — the multi-queue analogue of the engine's own single
simulated timeline.

Checkout/checkin is explicit so the pool is also usable without the
service: :meth:`checkout` hands out the least-busy idle worker and
raises :class:`~repro.errors.QuotaExceededError` when every lane is
already out; :meth:`checkin` returns one.  After :meth:`close`, any
checkout raises :class:`~repro.errors.SessionClosedError`.

Sessions are *stateful* in simulated time — warm caches and frontier
memos mean a query's timing depends on the whole history its worker has
served.  The pool therefore never rebuilds or shuffles workers on its
own: lane ``i`` keeps its session for the pool's lifetime, which is
what makes a served stream replayable (see
:mod:`repro.serving.identity`).  The one sanctioned exception is
:meth:`SessionPool.replace_session` — the self-healing plane's warm
standby swap (:mod:`repro.serving.health`): a fresh session is built
*first*, takes over the same lane slot (bumping
:attr:`PoolWorker.generation`), and only then is the sick session
closed, so pool capacity never dips below ``size``.  Resilient standbys
inherit the retired session's injector: fault-event counters keep
advancing across the swap, which is what lets a finite sustained fault
window drain and the lane's half-open probes succeed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import EtaGraphConfig
from repro.core.session import EngineSession
from repro.errors import QuotaExceededError, SessionClosedError
from repro.gpu.device import DeviceSpec, GTX_1080TI
from repro.graph.csr import CSRGraph
from repro.resilience.faults import FaultPlan
from repro.resilience.session import ResilientSession, RetryPolicy


@dataclass
class PoolWorker:
    """One lane: a resident session plus its simulated-clock position."""

    index: int
    session: EngineSession | ResilientSession
    #: Simulated time at which this lane's current work completes.
    busy_until_ms: float = 0.0
    #: Requests this lane has served (successfully or not).
    served: int = 0
    #: Whether :attr:`session` is a :class:`ResilientSession`.
    resilient: bool = False
    #: Whether the lane is currently checked out.
    checked_out: bool = field(default=False, repr=False)
    #: Warm-standby swaps this lane has been through (0 = the original
    #: session built at pool construction).
    generation: int = 0

    def __repr__(self) -> str:
        return (
            f"PoolWorker({self.index}, busy_until {self.busy_until_ms:.3f} "
            f"ms, {self.served} served)"
        )


class SessionPool:
    """``size`` resident sessions over one graph, dispatched least-busy
    first."""

    def __init__(
        self,
        csr: CSRGraph,
        config: EtaGraphConfig | None = None,
        device: DeviceSpec = GTX_1080TI,
        *,
        size: int = 2,
        fault_plan: FaultPlan | None = None,
        fault_plans: dict[int, FaultPlan] | None = None,
        policy: RetryPolicy | None = None,
        resilient: bool | None = None,
    ):
        if size < 1:
            raise QuotaExceededError(f"pool size must be >= 1, got {size}")
        self.csr = csr
        self.config = config or EtaGraphConfig()
        self.device = device
        self.policy = policy or RetryPolicy()
        #: Per-lane fault plans (``fault_plans[i]`` overrides the shared
        #: ``fault_plan`` for lane ``i``) — the chaos battery's way of
        #: making one lane sick while its neighbours stay clean.
        self.fault_plans = dict(fault_plans or {})
        # A fault plan or explicit policy needs the resilient wrapper;
        # otherwise bare sessions keep the no-overhead fast path.
        if resilient is None:
            resilient = (fault_plan is not None or bool(self.fault_plans)
                         or policy is not None)
        if (fault_plan is not None or self.fault_plans) and not resilient:
            raise QuotaExceededError(
                "a fault plan requires resilient workers"
            )
        self.resilient = resilient
        self._fault_plan = fault_plan
        self.workers: list[PoolWorker] = []
        for index in range(size):
            if resilient:
                session = ResilientSession(
                    csr, self.config, device,
                    # Each lane gets its own injector state: the plan's
                    # schedule replays identically per worker.
                    fault_plan=self.fault_plans.get(index, fault_plan),
                    policy=self.policy,
                    # Desynchronize retry storms: each lane draws its
                    # backoff jitter from its own seeded stream.
                    jitter_seed=index,
                )
            else:
                session = EngineSession(csr, self.config, device)
            self.workers.append(
                PoolWorker(index=index, session=session, resilient=resilient)
            )
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.workers)

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Close every worker session; the pool is dead afterwards."""
        if self._closed:
            return
        for worker in self.workers:
            worker.session.close()
        self._closed = True

    def __enter__(self) -> "SessionPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else (
            f"{sum(w.served for w in self.workers)} served"
        )
        kind = "resilient" if self.resilient else "bare"
        return f"SessionPool({self.size} {kind} workers, {state})"

    # ------------------------------------------------------------------
    # Checkout / checkin
    # ------------------------------------------------------------------

    def checkout(self) -> PoolWorker:
        """The idle lane that frees first (ties break on lane index).

        Raises :class:`SessionClosedError` after :meth:`close` and
        :class:`QuotaExceededError` when every lane is checked out.
        """
        if self._closed:
            raise SessionClosedError("session pool is closed")
        idle = [w for w in self.workers if not w.checked_out]
        if not idle:
            raise QuotaExceededError(
                f"all {self.size} pool workers are checked out"
            )
        worker = min(idle, key=lambda w: (w.busy_until_ms, w.index))
        worker.checked_out = True
        return worker

    def checkout_lane(self, index: int) -> PoolWorker:
        """Check out one *specific* idle lane (targeted probes and
        tests want a particular lane, not the least-busy one)."""
        if self._closed:
            raise SessionClosedError("session pool is closed")
        if not 0 <= index < self.size:
            raise QuotaExceededError(
                f"lane {index} out of range [0, {self.size})"
            )
        worker = self.workers[index]
        if worker.checked_out:
            raise QuotaExceededError(
                f"worker {index} is already checked out"
            )
        worker.checked_out = True
        return worker

    def checkin(self, worker: PoolWorker) -> None:
        """Return a checked-out lane to the pool."""
        if worker not in self.workers:
            raise QuotaExceededError(
                f"worker {worker.index} does not belong to this pool"
            )
        if not worker.checked_out:
            raise QuotaExceededError(
                f"worker {worker.index} is not checked out"
            )
        worker.checked_out = False

    # ------------------------------------------------------------------
    # Warm standby
    # ------------------------------------------------------------------

    def replace_session(self, worker: PoolWorker) -> int:
        """Swap a fresh session into ``worker``'s slot (the self-healing
        plane's warm standby).

        Ordering is the capacity guarantee: the replacement is fully
        constructed *before* the old session is closed, so at no instant
        does the pool hold fewer than ``size`` live sessions.  Resilient
        standbys take over the retired session's injector — its
        per-kind event counters and fired log — so a sustained fault
        plan keeps draining across the swap instead of restarting.
        Returns the lane's new generation number.
        """
        if self._closed:
            raise SessionClosedError("session pool is closed")
        if worker not in self.workers:
            raise QuotaExceededError(
                f"worker {worker.index} does not belong to this pool"
            )
        old = worker.session
        if worker.resilient:
            standby = ResilientSession(
                self.csr, self.config, self.device,
                policy=self.policy, jitter_seed=worker.index,
            )
            standby.injector = old.injector
        else:
            standby = EngineSession(self.csr, self.config, self.device)
        worker.session = standby
        worker.generation += 1
        old.close()
        return worker.generation

    def build_spare(self) -> PoolWorker:
        """A warm-standby lane *outside* the pool (index ``size``): the
        hedging plane's dedicated replica.

        Never registered in :attr:`workers` and never dispatched a
        primary request.  That isolation is load-bearing: the simulated
        device allocator bumps addresses monotonically and the frontier
        memo keys on them, so even one extra query on an active lane
        would shift that lane's warm state and break the healthy-path
        bit-identity contract.  Built clean — no injector, no fault
        plan — so the hedge leg is the known-good replica of the served
        query.
        """
        if self._closed:
            raise SessionClosedError("session pool is closed")
        if self.resilient:
            session = ResilientSession(
                self.csr, self.config, self.device,
                policy=self.policy, jitter_seed=self.size,
            )
        else:
            session = EngineSession(self.csr, self.config, self.device)
        return PoolWorker(
            index=self.size, session=session, resilient=self.resilient,
        )
