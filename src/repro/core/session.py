"""Topology-resident engine sessions: place once, query many times.

A :class:`EngineSession` is the prepared form of the EtaGraph engine: one
topology placement (device copy, UM registration, or zero-copy pinning —
plus the ``cudaMemPrefetchAsync`` pass in the default mode) serves any
number of ``(problem, source)`` queries.  :class:`~repro.gpu.memory.
DeviceMemory`, :class:`~repro.gpu.um.UnifiedMemoryManager` and
:class:`~repro.gpu.cache.CacheHierarchy` state stay alive across queries,
so repeated traversals run against warm UM residency and warm caches —
the batch/serving regime the paper's related work (Congra, iBFS) studies
and the EMOGI-style warm-state effect the ROADMAP's serving goal needs.

Accounting is *measured*, not reconstructed:

* Every cost paid to move or register topology is accumulated into the
  session's :attr:`EngineSession.setup_ms` (and the bytes into
  :attr:`EngineSession.setup_transfer_bytes`) at the moment it happens.
* Each query's :class:`~repro.core.engine.TraversalResult` carries
  ``setup_ms`` — the slice of *this call's* ``total_ms`` that was
  topology setup (non-zero only for the query that triggered placement)
  — and ``query_ms = total_ms - setup_ms``.  A warm query's transfer
  time therefore reflects only pages actually migrated for that query
  (labels initialization, faults under oversubscription), nothing else.

Every engine entry point runs on this class: :class:`~repro.core.api.
EtaGraph`'s one-shot methods open a session of one, so the one-shot path
and the first query of a fresh session are the same code — bit-identical
labels and identical clock arithmetic.  Query, MSBFS wave
(:mod:`repro.core.msbfs`) and delta PageRank (:mod:`repro.core.pagerank`)
each supply only their step and their result type: :meth:`EngineSession.
_open` validates and places, :meth:`EngineSession._buffer` holds the
working arrays, :meth:`EngineSession._traverse` runs Procedure 1's loop,
and :meth:`_TraversalRun.measured` hands the measurement record to
:func:`fill_result`.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from repro.algorithms.base import TraversalProblem, get_problem
from repro.core.config import EtaGraphConfig, MemoryMode
from repro.core.engine import TraversalResult
from repro.core.frontier import FrontierBuffers
from repro.core.memo import FrontierMemo, _FrontierExpansion
from repro.core.smp import plan_prefetch
from repro.core.stats import IterationStats, TraversalStats
from repro.core.udc import degree_cut
from repro.errors import (
    ConfigError,
    ConvergenceError,
    InvalidLaunchError,
    SessionClosedError,
)
from repro.gpu.cache import CacheHierarchy
from repro.gpu.device import DeviceSpec, GTX_1080TI
from repro.gpu import kernel as gpukernel
from repro.gpu.kernel import simulate_streaming_kernel, simulate_vertex_kernel
from repro.gpu.memory import DeviceArray, DeviceMemory
from repro.gpu.profiler import Profiler
from repro.gpu.timeline import Timeline
from repro.gpu.transfer import (
    DIRECT_ACCESS_SECTOR_BYTES, d2h_copy, direct_access_read, h2d_copy,
)
from repro.gpu.um import MigrationBatch, UnifiedMemoryManager
from repro.graph.compressed import CompressedCSRGraph
from repro.graph.csr import CSRGraph
from repro.utils.ragged import ragged_gather_indices


def fill_result(cls, measured: dict, /, **own):
    """``cls(**own)``, completed with every ``measured`` field that
    ``cls`` declares and ``own`` does not set.  The result types share
    their measurement fields' names, so each takes what it reports."""
    names = _field_names(cls)
    return cls(**own, **{k: v for k, v in measured.items()
                         if k in names and k not in own})


@functools.cache
def _field_names(cls) -> frozenset[str]:
    return frozenset(f.name for f in dataclasses.fields(cls))


class _TraversalRun:
    """Measurement state of one query, wave or PageRank: opened by
    :meth:`EngineSession._open`, advanced and filled in by
    :meth:`EngineSession._traverse`, handed over by :meth:`measured`.

    The run owns the simulated clock: the ``gpu`` cost models only
    return durations, and :meth:`record` places each activity on the
    span trace and, for Fig. 4's transfers, on the :class:`Timeline`.
    """

    __slots__ = (
        "prof", "timeline", "tr", "span", "clock", "setup_before", "limit",
        "oversubscribed", "total_ms", "d2h_ms", "stats", "setup_ms", "trace",
    )

    def __init__(self, setup_before: float, limit: int = 0):
        self.prof = Profiler()
        self.timeline = Timeline()
        self.tr = None
        self.span = None
        self.clock = 0.0
        self.setup_before = setup_before
        #: The traversal's iteration budget.
        self.limit = limit
        self.oversubscribed = False
        self.total_ms = 0.0
        self.d2h_ms = 0.0
        self.stats: TraversalStats | None = None
        self.setup_ms = 0.0
        self.trace = None

    def measured(self, session: "EngineSession") -> dict:
        """The finished run's measurement record, by result field name."""
        prof = self.prof
        return {
            "total_ms": self.total_ms,
            "kernel_ms": prof.kernels.elapsed_ms,
            "transfer_ms": prof.h2d_time_ms + prof.migration_time_ms,
            "d2h_ms": self.d2h_ms,
            "setup_ms": self.setup_ms,
            "stats": self.stats,
            "timeline": self.timeline,
            "profiler": prof,
            "config": session.config,
            "device_bytes": session.memory.device_bytes_in_use,
            "um_bytes": session.memory.um_bytes_allocated,
            "oversubscribed": self.oversubscribed,
            "trace": self.trace,
        }

    def record(self, name: str, category: str, start_ms: float,
               dur_ms: float, *, nbytes: int | None = None,
               fig4: str | None = None, **attrs) -> None:
        """Record one activity over ``[start_ms, start_ms + dur_ms)``: a
        ``name`` span on ``category`` when traced and, when ``fig4``
        labels it a Fig. 4 transfer, the timeline interval with the same
        bounds and ``nbytes``."""
        if fig4 is not None:
            self.timeline.add("transfer", start_ms, start_ms + dur_ms,
                              nbytes=nbytes, label=fig4)
        if self.tr is not None:
            if nbytes is not None:
                attrs["nbytes"] = float(nbytes)
            self.tr.emit(name, category, dur_ms, start_ms, **attrs)

    def record_migration(self, name: str, start_ms: float,
                         array: DeviceArray, batch: MigrationBatch,
                         fig4: str | None = None) -> float:
        """Record UM migration ``batch`` on ``array`` at ``start_ms`` when
        it moved pages; returns its end (``start_ms`` when it did not)."""
        if not batch.migrations:
            return start_ms
        self.record(name, "migration", start_ms, batch.time_ms,
                    nbytes=batch.bytes_moved, fig4=fig4, array=array.name,
                    migrations=len(batch.migrations),
                    evicted_pages=batch.evicted_pages)
        return start_ms + batch.time_ms


class EngineSession:
    """A prepared (graph, config, device) binding serving many queries.

    Construction is cheap: topology is placed lazily by the first query
    (or eagerly via :meth:`prepare`).  Use as a context manager or call
    :meth:`close` to release the simulated device memory::

        with EngineSession(graph) as session:
            hot = session.query("bfs", 0)      # pays topology placement
            warm = session.query("bfs", 42)    # topology already resident
            assert warm.setup_ms == 0.0
    """

    def __init__(
        self,
        csr: CSRGraph | CompressedCSRGraph,
        config: EtaGraphConfig | None = None,
        device: DeviceSpec = GTX_1080TI,
        *,
        injector=None,
    ):
        #: What the caller asked to serve: dense CSR or the compressed
        #: topology.  Placement moves (and space-accounts) *this*.
        self.topology = csr
        #: Whether the resident topology is the compressed format (the
        #: payload + row-byte-offset arrays instead of dense words).
        self.compressed = isinstance(csr, CompressedCSRGraph)
        # Traversal itself always runs against the exact dense view —
        # compression changes what moves over the bus, never the labels.
        # ``decode()`` is cached on the compressed graph, so sessions
        # sharing one topology share one decode.
        self.csr = csr.decode() if self.compressed else csr
        self.config = config or EtaGraphConfig()
        self.device = device

        #: Optional :class:`repro.resilience.faults.FaultInjector`.  When
        #: set, it is consulted at every device touchpoint (allocation,
        #: PCIe copy, UM migration, kernel launch, memo lookup) and may
        #: raise typed faults on its schedule.  ``None`` (the default) is
        #: a guaranteed no-op: results and timings are bit-identical to a
        #: session built without the parameter.
        self.injector = injector
        #: Optional externally-owned :class:`repro.observability.Tracer`.
        #: When set, every query records its spans into it (the caller
        #: keeps the tracer across attempts/errors — how the resilience
        #: ladder and the bench runner capture partial traces).  When
        #: ``None`` and ``config.telemetry`` is true, each query creates
        #: its own tracer and hangs the trace off the result.  Spans only
        #: *read* the simulated clock; results are bit-identical either
        #: way.
        self.tracer = None
        self.memory = DeviceMemory(device)
        self.memory.injector = injector
        self.caches = CacheHierarchy(device)
        self.um = (
            UnifiedMemoryManager(device, self.memory)
            if self.config.memory_mode.uses_um else None
        )
        if self.um is not None:
            self.um.injector = injector

        #: Measured topology-placement time (ms) paid so far: UM page
        #: registration, zero-copy pinning, H2D topology copies, prefetch
        #: passes and the out-of-core shadow-table staging.
        self.setup_ms = 0.0
        #: Bytes of topology actually moved over PCIe during setup.
        self.setup_transfer_bytes = 0
        #: Completed queries served by this session.
        self.queries_served = 0
        #: The frontier memo: a hit means an iteration reused a
        #: previously computed degree cut / edge expansion / trace plan.
        self.memo = FrontierMemo(
            placement=(self.config.memory_mode.value, self.compressed),
        )

        # SMP needs K words of shared memory per thread: shrink the block
        # to fit, or fall back to the plain kernel when even one warp's
        # buffers exceed an SM (physically impossible prefetch).  Pure
        # function of (device, config), so resolved once per session.
        from repro.gpu.sharedmem import max_smp_block_threads

        self._smp = self.config.smp
        self._threads_per_block = self.config.threads_per_block
        if self._smp:
            fit = max_smp_block_threads(device, self.config.degree_limit)
            if fit == 0:
                self._smp = False
            else:
                self._threads_per_block = min(self._threads_per_block, fit)

        # Session-resident state, created by the first query that needs it.
        self._offsets_arr: DeviceArray | None = None
        self._cols_arr: DeviceArray | None = None
        self._weights_arr: DeviceArray | None = None
        #: Per-query working buffers by name (:meth:`_buffer`).
        self._buffers: dict[str, DeviceArray] = {}
        self._frontier: FrontierBuffers | None = None
        self._shadow_table = None
        #: The MSBFS wave's in-edge view (``core.msbfs._PullView``),
        #: built by the first wave iteration that pulls.
        self._pull_view = None
        self._prefetched: set[str] = set()
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Release all simulated device allocations; the session is dead."""
        if self._closed:
            return
        self.memory.free_all()
        self._closed = True

    def __enter__(self) -> "EngineSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def warm(self) -> bool:
        """Whether topology is already placed (queries skip setup)."""
        return self._offsets_arr is not None

    def __repr__(self) -> str:
        state = "closed" if self._closed else (
            "warm" if self.warm else "cold"
        )
        return (
            f"EngineSession({self.csr!r}, "
            f"memory={self.config.memory_mode.value}, {state}, "
            f"{self.queries_served} queries, setup {self.setup_ms:.3f} ms)"
        )

    # ------------------------------------------------------------------
    # Topology placement (the once-per-session work)
    # ------------------------------------------------------------------

    def _topo_kind(self) -> str:
        if self.config.memory_mode.uses_um:
            return "um"
        if self.config.memory_mode.host_resident:
            return "zerocopy"
        return "device"

    def _topo_arrays(self) -> list[DeviceArray]:
        return [
            a for a in (self._offsets_arr, self._cols_arr, self._weights_arr)
            if a is not None
        ]

    def _install(self, arrays: list[DeviceArray], run: _TraversalRun) -> None:
        """Register (UM), pin (zero-copy) or copy (device) new topology
        arrays; advances the run's clock and the session setup meter."""
        spec = self.device
        tr = run.tr
        span = None
        if tr is not None:
            span = tr.start("install_topology", "engine", run.clock,
                            kind=self._topo_kind(), arrays=len(arrays))
        if self.um is not None:
            for arr in arrays:
                self.um.register(arr)
                # cudaMallocManaged setup cost (page-table registration).
                dt = spec.um_alloc_overhead_us * 1e-3
                run.record("um.register", "engine", run.clock, dt,
                           array=arr.name)
                run.clock += dt
                self.setup_ms += dt
        elif self.config.memory_mode.host_resident:
            # Pinning + mapping the host buffers (cudaHostAlloc path);
            # zero-copy and direct access both serve reads from here.
            dt = len(arrays) * spec.um_alloc_overhead_us * 1e-3
            run.record("pin_host", "engine", run.clock, dt)
            run.clock += dt
            self.setup_ms += dt
        else:
            # cudaMemcpy of the whole topology before the first kernel.
            for arr in arrays:
                t = h2d_copy(spec, run.prof, arr.nbytes,
                             injector=self.injector)
                run.record(arr.name, "transfer", run.clock, t,
                           nbytes=arr.nbytes, fig4=arr.name)
                run.clock += t
                self.setup_ms += t
                self.setup_transfer_bytes += arr.nbytes
        if span is not None:
            tr.end(span, run.clock)

    def _place_topology(
        self, problem: TraversalProblem, run: _TraversalRun
    ) -> None:
        """Allocate + install topology arrays still missing for ``problem``.

        Compressed sessions place the *compressed* arrays — the varint
        payload rides under the ``column_indices`` name and the row byte
        offsets under ``row_offsets``, so every downstream consumer
        (trace plans, UM residency, transfer accounting) sizes itself
        off the bytes that would actually move on real hardware.
        """
        csr = self.csr
        kind = self._topo_kind()
        new: list[DeviceArray] = []
        if self._offsets_arr is None:
            topo = self.topology.device_arrays()
            self._offsets_arr = self.memory.alloc(
                "row_offsets", topo["row_offsets"], kind=kind
            )
            self._cols_arr = self.memory.alloc(
                "column_indices", topo["column_indices"], kind=kind
            )
            new += [self._offsets_arr, self._cols_arr]
        if problem.needs_weights and self._weights_arr is None:
            # A weighted query joining a session warmed by unweighted ones
            # places the weights then; the cost lands on that query.
            self._weights_arr = self.memory.alloc(
                "edge_weights", csr.edge_weights, kind=kind
            )
            new.append(self._weights_arr)
        if new:
            self._install(new, run)

    def _prefetch_topology(self, run: _TraversalRun) -> None:
        """One ``cudaMemPrefetchAsync`` pass per topology array, once per
        session (warm queries under oversubscription re-fault in the
        traversal loop instead — that movement is theirs, not setup's)."""
        if self.config.memory_mode is not MemoryMode.UM_PREFETCH:
            return
        for arr in self._topo_arrays():
            if arr.name in self._prefetched:
                continue
            self._prefetched.add(arr.name)
            batch = self.um.prefetch(arr, run.prof)
            run.clock = run.record_migration(
                "um.prefetch", run.clock, arr, batch,
                fig4=f"prefetch-{arr.name}",
            )
            self.setup_ms += batch.time_ms
            self.setup_transfer_bytes += batch.bytes_moved

    def _place_shadow_table(self, run: _TraversalRun) -> None:
        """Out-of-core UDC: the precomputed shadow table is derived from
        topology alone, so it is session-resident and staged once."""
        if self.config.udc_mode != "out_of_core" or \
                self._shadow_table is not None:
            return
        from repro.core.udc import ShadowTable

        csr = self.csr
        shadow_table = ShadowTable(csr.row_offsets, self.config.degree_limit)
        # The table is device-resident: 3 words per shadow vertex plus
        # per-vertex ranges — this allocation is the space price of
        # skipping the per-iteration transform (and can OOM).
        self.memory.alloc_empty(
            "shadow_table", 3 * max(len(shadow_table), 1), np.int32
        )
        self.memory.alloc_empty(
            "shadow_ranges", 2 * max(csr.num_vertices, 1), np.int32
        )
        nbytes = (3 * len(shadow_table) + 2 * csr.num_vertices) * 4
        t = h2d_copy(self.device, run.prof, nbytes, injector=self.injector)
        run.record("shadow-table", "transfer", run.clock, t, nbytes=nbytes,
                   fig4="shadow-table")
        run.clock += t
        self.setup_ms += t
        self.setup_transfer_bytes += nbytes
        self._shadow_table = shadow_table

    def prepare(self, problem: TraversalProblem | str = "bfs") -> float:
        """Place (and prefetch) topology now instead of at first query.

        ``problem`` decides whether edge weights are part of the resident
        topology.  Returns the cumulative measured :attr:`setup_ms`.
        Idempotent: repeated calls install only what is still missing.
        """
        self._check_open()
        if isinstance(problem, str):
            problem = get_problem(problem)
        problem.check_graph(self.csr)
        # An untraced throwaway run carries the clock through placement.
        run = _TraversalRun(self.setup_ms)
        self._place_topology(problem, run)
        self._prefetch_topology(run)
        self._place_shadow_table(run)
        return self.setup_ms

    # ------------------------------------------------------------------
    # Per-query working buffers (reused, reset between queries)
    # ------------------------------------------------------------------

    def _buffer(self, name: str, host: np.ndarray) -> DeviceArray:
        """The session-resident working buffer ``name``, holding a copy
        of ``host``: query labels, parents, wave lane masks or the
        PageRank residual.  The allocation is reused while its dtype and
        shape match ``host``, so memo keys and memoized trace plans keep
        their device addresses; otherwise it is freed and reallocated."""
        arr = self._buffers.get(name)
        if arr is not None and arr.data.dtype == host.dtype \
                and arr.data.shape == host.shape:
            arr.data[:] = host
            return arr
        if arr is not None:
            self.memory.free(arr)
        arr = self._buffers[name] = self.memory.alloc(name, host.copy())
        return arr

    def _frontier_buffers(self) -> FrontierBuffers:
        if self._frontier is None:
            self._frontier = FrontierBuffers(
                self.memory, self.csr.num_vertices, self.csr.num_edges,
                self.config.degree_limit,
            )
        return self._frontier

    def _check_open(self) -> None:
        if self._closed:
            raise SessionClosedError("session is closed")

    def _adj_byte_ranges(
        self, starts: np.ndarray, degrees: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Resident-topology byte ranges backing the adjacency slices
        ``[start, start + degree)`` — varint payload bytes for a
        compressed session, ``4 * start / 4 * degree`` dense words
        otherwise.  This is the single point where every out-of-core
        placement (UM faulting, zero-copy, direct access) learns how
        many bytes a frontier expansion actually moves."""
        if self.compressed:
            return self.topology.edge_byte_ranges(starts, degrees)
        return (
            np.asarray(starts, dtype=np.int64) * 4,
            np.asarray(degrees, dtype=np.int64) * 4,
        )

    # ------------------------------------------------------------------
    # Frontier memo
    # ------------------------------------------------------------------

    @property
    def memo_hits(self) -> int:
        return self.memo.hits

    @property
    def memo_misses(self) -> int:
        return self.memo.misses

    @property
    def memo_collisions(self) -> int:
        return self.memo.collisions

    @property
    def memo_rejections(self) -> int:
        return self.memo.rejections

    @property
    def memo_entries(self) -> int:
        return len(self.memo)

    @property
    def memo_bytes(self) -> int:
        """Host memory currently retained by the frontier memo, bounded
        by :data:`repro.core.memo.MAX_BYTES`."""
        return self.memo.bytes

    def invalidate_memo(self) -> None:
        """Drop every frontier-memo entry and ghost: later lookups miss
        and recompute, and first sightings are stored again.  Memoized
        values are label-independent, so results are bit-identical
        before and after.  The memo bounds itself (an unread entry
        expires after one probation window, and the bytes held stay
        within :data:`repro.core.memo.MAX_BYTES`), so this is not how
        host memory is bounded; fault injection uses it to flush the
        memo."""
        self.memo.invalidate()

    def metrics_snapshot(self) -> dict:
        """This session's live counters (memo, setup, residency) as one
        :meth:`repro.observability.MetricsRegistry.snapshot` dict."""
        from repro.observability.metrics import unified_snapshot

        return unified_snapshot(session=self)

    # ------------------------------------------------------------------
    # Query
    # ------------------------------------------------------------------

    def query(
        self,
        problem: TraversalProblem | str,
        source: int,
        *,
        target: int | None = None,
        max_iterations: int | None = None,
        parents: bool = False,
    ):
        """Run one traversal against the session's resident topology.

        Topology setup is paid at most once per session, and the
        returned result's ``setup_ms`` records the slice of it paid
        during *this* call (a session of one pays it all, as
        :class:`~repro.core.api.EtaGraph`'s one-shot methods do).

        ``max_iterations`` tightens (or loosens) the config's iteration
        budget for *this query only* — the per-request budget hook the
        resilience and serving layers use without rebuilding the
        session's resident state.  ``None`` keeps the config's budget.
        """
        if isinstance(problem, str):
            problem = get_problem(problem)
        problem.check_graph(self.csr)
        if target is not None:
            if problem.name != "bfs":
                raise ConfigError(
                    "early-exit target is only sound for BFS "
                    f"(got {problem.name})"
                )
            if not 0 <= target < self.csr.num_vertices:
                raise InvalidLaunchError(f"target {target} out of range")
        n = self.csr.num_vertices
        if not 0 <= source < n:
            raise InvalidLaunchError(
                f"source {source} out of range [0, {n})"
            )

        run = self._open(problem, "query", max_iterations,
                         problem=problem.name, source=source)
        index = self.queries_served
        # Allocation order fixes device addresses (and so the cache
        # model's input): labels, frontier buffers, then parents.
        labels_arr = self._buffer("labels", problem.initial_labels(n, source))
        labels = labels_arr.data
        self._frontier_buffers()
        if parents:
            from repro.algorithms.paths import NO_PARENT

            parents = self._buffer("parents", np.full(
                max(n, 1), NO_PARENT, dtype=np.int32)).data
        else:
            parents = None
        seeds = problem.initial_frontier(n, source)
        visited = np.zeros(n, dtype=bool)
        visited[seeds] = True

        def relax(active, entry, iteration):
            dests = entry.destinations(n)
            src_labels = labels.take(entry.ids64)
            before = labels.take(dests)
            uniform = entry.w_per_edge is None and \
                bool((src_labels == src_labels[0]).all())
            if uniform:
                # Every frontier edge carries the same candidate (every
                # BFS level): the reduction is one per destination.  The
                # destinations are unique, so the scatter-reduce is a
                # gather-combine-store: exactly the improved ones take
                # the candidate.
                cand = problem.candidates(src_labels[:1], None)
                changed_sel = problem.improves(cand, before)
                dest_edges = entry.destination_edges(n)
                if dest_edges is not None:
                    attempted = int(dest_edges[changed_sel].sum())
                else:
                    attempted = int(np.count_nonzero(problem.improves(
                        cand, labels.take(entry.wide_nbr()))))
                changed = dests[changed_sel]
                labels[changed] = cand
            else:
                # Exact label propagation: scatter-reduce the candidate
                # of every frontier edge.
                nbr = entry.wide_nbr()
                cand = problem.candidates(
                    np.repeat(src_labels, entry.shadows.degrees),
                    entry.w_per_edge,
                )
                attempted = int(np.count_nonzero(
                    problem.improves(cand, labels.take(nbr))))
                problem.scatter_reduce(labels, nbr, cand)
                changed_sel = labels.take(dests) != before
                changed = dests[changed_sel]
            newly = changed[~visited[changed]]
            visited[changed] = True

            if parents is not None and len(changed):
                # The winning atomic's thread records its own id: any
                # edge whose candidate equals the final label witnesses
                # the update, and the last witnessing edge wins.
                if uniform:
                    # Every edge into a changed destination witnesses.
                    parents[changed] = entry.last_sources(
                        n, parents.dtype)[changed_sel]
                else:
                    changed_mask = np.zeros(n, dtype=bool)
                    changed_mask[changed] = True
                    witness = (cand == labels.take(nbr)) & changed_mask[nbr]
                    if entry.src_ids is None:
                        entry.src_ids = entry.edge_sources()
                    parents[nbr[witness]] = entry.src_ids[witness]
            stop = target is not None and bool(visited[target])
            return attempted, changed, len(newly), stop

        self._traverse(
            run, problem, labels_arr, seeds, relax,
            name=problem.name, label="labels",
            trace_meta={"problem": problem.name, "source": source},
        )

        result = fill_result(
            TraversalResult, run.measured(self),
            labels=labels.copy(),
            source=source,
            problem_name=problem.name,
            extras={
                "smp_effective": self._smp,
                "threads_per_block": self._threads_per_block,
                "parents": parents.copy() if parents is not None else None,
                "early_exit": target is not None,
                "session_query_index": index,
                "warm_start": index > 0 and run.setup_ms == 0.0,
            },
        )
        if self.config.check_invariants:
            # Imported lazily: repro.testing imports this module.
            from repro.testing.invariants import check_traversal_result

            # Early-exit runs legitimately leave labels beyond the target
            # unsettled, so the label/stats cross-check only applies to
            # full traversals.
            check_traversal_result(
                result, problem=problem if target is None else None
            )
        return result

    # ------------------------------------------------------------------
    # The iteration pipeline every driver (query, MSBFS wave, PageRank)
    # runs
    # ------------------------------------------------------------------

    def _open(self, problem: TraversalProblem, span_name: str,
              max_iterations: int | None, /, **attrs) -> _TraversalRun:
        """Start one traversal: the preamble every driver shares (the
        session is open; ``max_iterations``, which overrides the
        config's budget when given, is at least 1), then a fresh
        profiler and timeline, the tracer and its outer span, and
        topology placement (first call only).  A driver checks its own
        arguments before calling this, so a rejected call places
        nothing.

        Telemetry: an attached tracer wins; else ``config.telemetry``
        creates one per traversal.  Every span is recorded behind a
        ``tr is not None`` guard (:meth:`_TraversalRun.record` holds
        one) — with telemetry off no span is built, and with it on the
        spans only *read* the simulated clock.
        """
        self._check_open()
        if max_iterations is not None and max_iterations < 1:
            raise ConfigError(
                f"max_iterations must be >= 1, got {max_iterations}"
            )
        cfg = self.config
        run = _TraversalRun(
            self.setup_ms,
            cfg.max_iterations if max_iterations is None else max_iterations,
        )
        tr = self.tracer
        if tr is None and cfg.telemetry:
            from repro.observability.spans import Tracer

            tr = Tracer()
        run.tr = tr
        if tr is not None:
            run.span = tr.start(
                span_name, "engine", 0.0, **attrs,
                memory_mode=cfg.memory_mode.value,
                vertices=self.csr.num_vertices, edges=self.csr.num_edges,
                warm=self.warm,
            )
        self._place_topology(problem, run)
        return run

    def _traverse(
        self,
        run: _TraversalRun,
        problem: TraversalProblem,
        work_arr: DeviceArray,
        seeds: np.ndarray,
        step,
        *,
        name: str,
        label: str,
        trace_meta: dict,
        wave_lanes: int = 0,
    ) -> None:
        """Run the traversal loop over the per-vertex working array
        ``work_arr`` (float labels, MSBFS uint64 lane masks or the
        PageRank residual), within ``run``'s iteration budget.

        Every iteration is the paper's pipeline: frontier-memo lookup and
        expansion, the ``actSet2virtActSet`` transform kernel, topology
        access under the session's placement, the functional ``step``,
        the SMP vertex kernel and the transfer/compute overlap rule.
        ``step(active, entry, iteration)`` is the only driver-specific
        part: it updates the working state from the expansion ``entry``
        and returns ``(attempted, changed, newly_visited, stop)``.

        The working array's H2D initialization and D2H readback bracket
        the loop as ``{label}-init`` / ``{label}-d2h``.  Results land on
        ``run``; ``name`` heads the non-convergence message.  A finished
        traversal counts as one served query, or ``wave_lanes``.
        """
        cfg = self.config
        csr = self.csr
        spec = self.device
        caches = self.caches
        prof, timeline, tr = run.prof, run.timeline, run.tr
        check_udc_partition = check_memo = None
        if cfg.check_invariants:
            from repro.testing.invariants import (
                check_memo, check_udc_partition,
            )
        offsets_arr = self._offsets_arr
        cols_arr = self._cols_arr
        weights_arr = self._weights_arr if problem.needs_weights else None
        frontier = self._frontier_buffers()

        t = h2d_copy(spec, prof, work_arr.nbytes, injector=self.injector)
        run.record(f"{label}-init", "transfer", run.clock, t,
                   nbytes=work_arr.nbytes, fig4=f"{label}-init")
        run.clock += t

        if self.um is not None:
            um_bytes = sum(a.nbytes for a in self._topo_arrays())
            run.oversubscribed = \
                um_bytes > self.um.resident_budget_pages * spec.page_bytes
        self._prefetch_topology(run)
        # Optional out-of-core UDC table.
        self._place_shadow_table(run)
        shadow_table = self._shadow_table
        clock = run.clock

        stats = TraversalStats(
            num_vertices=csr.num_vertices, seed_count=len(seeds)
        )
        frontier.seed_many(seeds)
        offsets = csr.row_offsets
        cols = csr.column_indices
        weights = csr.edge_weights if problem.needs_weights else None

        iteration = 0
        while not frontier.is_empty:
            if iteration >= run.limit:
                raise ConvergenceError(
                    f"{name} did not converge within "
                    f"{run.limit} iterations"
                )
            active = frontier.active
            frontier.reset()  # the paper's per-iteration reset-and-reuse

            it_span = None
            if tr is not None:
                it_span = tr.start("iteration", "engine", clock,
                                   index=iteration, active=len(active))

            # Frontier memo: an already-seen active set reuses its whole
            # label-independent expansion (degree cut, gather stream, edge
            # gather, trace plan).  Both kernels still run — their cache
            # traffic and cost are paid every iteration either way.
            entry = key = None
            active_bytes = b""
            if cfg.frontier_memo:
                if self.injector is not None:
                    self.injector.on_memo_lookup(self)
                active_bytes = np.ascontiguousarray(active).tobytes()
                key = self.memo.key(
                    active_bytes, len(active), work_arr, weights_arr,
                    wave_lanes,
                )
                entry = self.memo.get(key, active_bytes)
            memo_hit = entry is not None

            # actSet2virtActSet kernel: gather offsets, emit 3-tuples —
            # or, out-of-core, a plain range gather from the shadow table.
            transform_stream = None
            if shadow_table is not None:
                shadows = entry.shadows if entry is not None \
                    else shadow_table.select(active)
                transform = simulate_streaming_kernel(
                    spec, caches,
                    read_bytes=2 * len(active) * 4,
                    write_bytes=len(shadows) * 4,
                    n_threads=len(active),
                    instr_per_thread=8.0,
                )
            else:
                shadows = entry.shadows if entry is not None \
                    else degree_cut(active, offsets, cfg.degree_limit)
                transform_stream = (
                    entry.transform_stream if entry is not None
                    else gpukernel.gather_stream(
                        spec, offsets_arr.base_address, active
                    )
                )
                transform = simulate_streaming_kernel(
                    spec, caches,
                    read_bytes=len(active) * 4,
                    write_bytes=3 * len(shadows) * 4,
                    n_threads=len(active),
                    instr_per_thread=14.0,
                    scatter_base_address=offsets_arr.base_address,
                    scatter_indices=active,
                    scatter_stream=transform_stream,
                )
            prof.record_kernel(transform.counters)
            transform_ms = transform.time_ms
            run.record("transform", "compute", clock, transform_ms,
                       threads=len(active))
            if check_udc_partition is not None:
                check_udc_partition(shadows, active, offsets, cfg.degree_limit)

            migration_ms, migration_bytes, pcie_ms = self._topology_access(
                run, clock, iteration, active, shadows, weights_arr
            )

            if len(shadows) == 0:
                clock += transform_ms
                stats.record(IterationStats(
                    index=iteration, active_vertices=len(active),
                    shadow_vertices=0, edges_scanned=0, updates=0,
                    newly_visited=0, kernel_ms=0.0, transform_ms=transform_ms,
                    transfer_ms=migration_ms, elapsed_end_ms=clock,
                ))
                if it_span is not None:
                    tr.end(it_span, clock, shadows=0, edges=0, updates=0)
                iteration += 1
                continue

            # --- functional step ------------------------------------------
            if entry is None:
                edge_idx = ragged_gather_indices(
                    shadows.starts, shadows.degrees
                )
                entry = _FrontierExpansion(
                    shadows=shadows,
                    ids64=shadows.ids.astype(np.int64),
                    nbr=cols[edge_idx],
                    w_per_edge=(
                        weights[edge_idx] if weights is not None else None
                    ),
                    transform_stream=transform_stream,
                    active_bytes=active_bytes,
                )
                if key is not None:
                    self.memo.put(key, entry)
            attempted, changed, newly_visited, stop = \
                step(active, entry, iteration)

            # --- kernel cost ----------------------------------------------
            if entry.trace_plan is None:
                smp_plan = (
                    plan_prefetch(shadows, offsets, cfg.degree_limit)
                    if self._smp else None
                )
                entry.trace_plan = gpukernel.build_vertex_trace(
                    spec,
                    starts=shadows.starts,
                    degrees=shadows.degrees,
                    adj_array=cols_arr,
                    neighbor_ids=entry.hand_over_wide_nbr(),
                    label_array=work_arr,
                    weight_array=weights_arr,
                    meta_array=frontier.virt_act_set,
                    meta_words_per_thread=3,
                    smp=self._smp,
                    smp_planned_words=(
                        smp_plan.planned_words if smp_plan else None
                    ),
                    trace_cap=gpukernel.TRACE_CAP,
                )
            else:
                # No later part of the iteration reads the widened ids:
                # drop them before the cache walk's allocations.
                entry.nbr_intp = None
            if self.injector is not None:
                # The ECC check point: an injected bit flip lands in the
                # device working array and aborts the launch with a typed
                # DataCorruptionError before results can be consumed.
                self.injector.on_kernel_launch(work_arr.data)
            timing = simulate_vertex_kernel(
                spec, caches,
                starts=shadows.starts,
                degrees=shadows.degrees,
                adj_array=cols_arr,
                neighbor_ids=entry.nbr,
                label_array=work_arr,
                weight_array=weights_arr,
                meta_array=frontier.virt_act_set,
                meta_words_per_thread=3,
                smp=self._smp,
                degree_limit=cfg.degree_limit,
                updates=attempted,
                instr_per_edge=problem.instr_per_edge,
                threads_per_block=self._threads_per_block,
                plan=entry.trace_plan,
            )
            prof.record_kernel(timing.counters)
            edges = entry.trace_plan.total_edges
            if key is not None:
                # The step and both kernels may have filled the entry's
                # lazy parts (destinations, trace plan, run summaries).
                self.memo.settle()
            kernel_ms = timing.time_ms
            # The vertex kernel issues after the transform kernel.
            run.record("vertex_kernel", "compute", clock + transform_ms,
                       kernel_ms, threads=int(timing.counters.threads),
                       edges=edges, smp=self._smp)
            compute_ms = transform_ms + kernel_ms

            # --- iteration advance: fine-grained overlap -----------------
            # On-demand faults mostly *stall* the kernel (the SM idles on
            # the faulting warps), so migration time is largely serial;
            # ``overlap_efficiency`` is the hidden fraction.  The kernel
            # interval spans the whole iteration — it is resident (and
            # partially stalled) while the DMA proceeds, which is what
            # Fig. 4's concurrent activity bands show.
            if migration_ms > 0:
                hidden = cfg.overlap_efficiency * min(compute_ms, migration_ms)
                iter_ms = compute_ms + migration_ms - hidden
                timeline.add("compute", clock, clock + iter_ms)
                timeline.add("transfer", clock, clock + migration_ms,
                             nbytes=migration_bytes, label=f"iter-{iteration}")
            elif pcie_ms > 0:
                # Zero-copy and direct-access reads are the kernel's own
                # loads: fully pipelined, so the slower of the two
                # pipelines governs.
                iter_ms = max(compute_ms, pcie_ms)
                timeline.add("compute", clock, clock + iter_ms)
            else:
                iter_ms = compute_ms
                timeline.add("compute", clock, clock + compute_ms)
            clock += iter_ms

            stats.record(IterationStats(
                index=iteration,
                active_vertices=len(active),
                shadow_vertices=len(shadows),
                edges_scanned=edges,
                updates=attempted,
                newly_visited=newly_visited,
                kernel_ms=kernel_ms,
                transform_ms=transform_ms,
                transfer_ms=migration_ms,
                elapsed_end_ms=clock,
            ))
            if it_span is not None:
                tr.end(
                    it_span, clock,
                    shadows=len(shadows), edges=edges,
                    updates=attempted, newly_visited=newly_visited,
                    memo="hit" if memo_hit else "miss",
                )

            frontier.publish(changed)
            iteration += 1
            if stop:
                break

        if check_memo is not None:
            check_memo(self.memo)
        d2h_ms = d2h_copy(spec, prof, work_arr.nbytes, injector=self.injector)
        run.record(f"{label}-d2h", "transfer", clock, d2h_ms,
                   nbytes=work_arr.nbytes)
        run.total_ms = clock
        run.d2h_ms = d2h_ms
        run.stats = stats
        run.setup_ms = self.setup_ms - run.setup_before
        if tr is not None:
            tr.end(run.span, clock + d2h_ms,
                   iterations=iteration, total_ms=clock, d2h_ms=d2h_ms)
            run.trace = tr.trace(
                **trace_meta,
                graph=f"{csr.num_vertices}v-{csr.num_edges}e",
                memory_mode=cfg.memory_mode.value,
            )
        self.queries_served += max(wave_lanes, 1)

    def _topology_access(
        self,
        run: _TraversalRun,
        clock: float,
        iteration: int,
        active: np.ndarray,
        shadows,
        weights_arr: DeviceArray | None,
    ) -> tuple[float, int, float]:
        """Charge one iteration's topology reads under the placement.

        Returns ``(migration_ms, migration_bytes, pcie_ms)``: UM page
        faults (which stall the kernel) and zero-copy / direct-access
        PCIe reads (which pipeline with it).  Byte ranges come from
        :meth:`_adj_byte_ranges`, so compressed topology is charged its
        payload bytes; weights stay dense float32 whatever the encoding.
        """
        spec = self.device
        prof, um = run.prof, self.um
        mode = self.config.memory_mode
        offsets_arr = self._offsets_arr
        cols_arr = self._cols_arr
        off_item = offsets_arr.itemsize

        def weight_ranges():
            return (shadows.starts.astype(np.int64) * 4,
                    shadows.degrees.astype(np.int64) * 4)

        if mode is MemoryMode.ZERO_COPY and len(shadows):
            # Every topology read crosses PCIe, every iteration, at
            # the poor efficiency of fine-grained bus reads.  This is
            # what makes UM strictly better for read-only topology
            # (Section IV-B).
            _, zc_lens = self._adj_byte_ranges(
                shadows.starts, shadows.degrees
            )
            zc_bytes = len(active) * 2 * off_item + int(zc_lens.sum())
            if weights_arr is not None:
                zc_bytes += shadows.total_edges * 4
            zero_copy_ms = spec.bytes_time_ms(
                zc_bytes, spec.pcie_bandwidth_gbps * 0.35
            )
            run.record("zerocopy", "transfer", clock, zero_copy_ms,
                       nbytes=zc_bytes, fig4=f"zerocopy-{iteration}")
            return 0.0, 0, zero_copy_ms
        if mode is MemoryMode.DIRECT_ACCESS and len(shadows):
            # EMOGI-style direct access: the kernel's topology loads
            # cross PCIe as deduplicated 128-byte sector reads
            # covering exactly the offsets entries and adjacency
            # bytes this frontier expands — never a whole 4 KiB UM
            # page.  Base addresses keep the three arrays' sectors
            # distinct.
            ids64 = np.asarray(active, dtype=np.int64)
            range_starts = [offsets_arr.base_address + ids64 * off_item]
            range_lens = [np.full(len(ids64), 2 * off_item, dtype=np.int64)]
            adj_starts, adj_lens = self._adj_byte_ranges(
                shadows.starts, shadows.degrees
            )
            range_starts.append(cols_arr.base_address + adj_starts)
            range_lens.append(adj_lens)
            if weights_arr is not None:
                w_starts, w_lens = weight_ranges()
                range_starts.append(weights_arr.base_address + w_starts)
                range_lens.append(w_lens)
            direct_ms, direct_bytes = direct_access_read(
                spec, prof,
                np.concatenate(range_starts),
                np.concatenate(range_lens),
                injector=self.injector,
            )
            if direct_ms:
                run.record(
                    f"direct-access-{iteration}", "transfer", clock,
                    direct_ms, nbytes=direct_bytes,
                    fig4=f"direct-{iteration}",
                    sectors=float(direct_bytes // DIRECT_ACCESS_SECTOR_BYTES),
                )
            return 0.0, 0, direct_ms

        refault = mode is MemoryMode.UM_PREFETCH and run.oversubscribed \
            and len(shadows)
        if um is None or not (mode is MemoryMode.UM_ON_DEMAND or refault):
            return 0.0, 0, 0.0
        # On-demand UM faults in the pages this iteration reads; a
        # prefetched but oversubscribed topology re-faults its evicted
        # adjacency pages.  Migration overlaps the kernel, so its spans
        # tile from the iteration start.
        batches = []
        t = clock

        def fault(array, starts, lens):
            nonlocal t
            batch = um.touch_byte_ranges(array, starts, lens, prof)
            t = run.record_migration("um.touch", t, array, batch)
            batches.append(batch)

        if mode is MemoryMode.UM_ON_DEMAND:
            fault(offsets_arr, np.asarray(active, dtype=np.int64) * off_item,
                  np.full(len(active), 2 * off_item, dtype=np.int64))
        if len(shadows):
            fault(cols_arr, *self._adj_byte_ranges(
                shadows.starts, shadows.degrees))
            if weights_arr is not None:
                fault(weights_arr, *weight_ranges())
        return (sum(b.time_ms for b in batches),
                sum(b.bytes_moved for b in batches), 0.0)
