"""The benchmark's four workloads.

Each workload builds its graph in-process from the registered surrogate
(``datasets.get_spec(name).build()``; the on-disk dataset cache is never
touched), draws its queries from the run's seed, and checks every op's
answer against the CPU reference in :mod:`reference`.  The interface the
runner drives:

* ``setup()``: the timed set-up (graph build, ``compress`` where used,
  session or service construction, warm-up ops that pay placement);
* ``reference_setup()``: untimed preparation of the reference;
* ``prepare(i)``: untimed, returns op ``i``'s input;
* ``op(inp)``: the timed call;
* ``counts(out)``: the op's simulated counts, for the trace identity
  check and the per-layer count metrics (the runner adds the memo
  counters);
* ``verify(i, inp, out, counts)``: untimed; records the outcome and
  returns the op's class label (checks may be deferred to
  ``finish()``).

Why these four, and what each one exercises or bypasses, is in
``README.md`` beside this file.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Imported here so that no lazy import inside the program lands in the
# first timed set-up.
import repro.algorithms.paths  # noqa: F401
import repro.graph.properties  # noqa: F401
import repro.observability.recorder  # noqa: F401
import repro.observability.slo  # noqa: F401
from repro import EngineSession, EtaGraphConfig, GTX_1080TI, MemoryMode
from repro.core import msbfs
from repro.graph import compressed, datasets
from repro.serving import (
    NeighborhoodRequest,
    ShortestPathRequest,
    StatsRequest,
    TenantQuota,
    TraversalService,
    VisitRequest,
)

from reference import LANES, InEdges, bfs_levels

#: The paper's device at the surrogates' 1/256 scale.
DEVICE = GTX_1080TI.with_capacity(datasets.scaled_device_capacity())

#: Keys of :meth:`Workload.counts`, in a fixed order.
COUNT_KEYS = (
    "edges", "iterations", "launches", "l1_accesses", "l1_hits",
    "l2_accesses", "l2_hits", "h2d_bytes", "migrated_bytes",
    "memo_hits", "memo_misses",
)

# Span names (``layer/function``) the exercised/bypassed self-check uses.
CACHE = "gpu.cache/CacheHierarchy.access"
TRACEPLAN = "gpu.traceplan/build_vertex_trace"
WAVE = "core.msbfs/run_wave"
QUERY = "core.session/EngineSession.query"
VERTEX_KERNEL = "gpu.kernel/simulate_vertex_kernel"
STREAM_KERNEL = "gpu.kernel/simulate_streaming_kernel"
DEGREE_CUT = "core.udc/degree_cut"
PLAN_PREFETCH = "core.smp/plan_prefetch"
SORTED_UNIQUE = "utils.sorting/sorted_unique"
RAGGED = "utils.ragged/ragged_gather_indices"
DIRECT = "gpu.transfer/direct_access_read"
H2D = "gpu.transfer/h2d_copy"
D2H = "gpu.transfer/d2h_copy"
UM_TOUCH = "gpu.um/UnifiedMemoryManager.touch_byte_ranges"
BYTE_RANGES = "graph.compressed/CompressedCSRGraph.edge_byte_ranges"
SERVICE_PLANE = (
    "serving.service/TraversalService.call",
    "serving.admission/AdmissionQueue.submit",
    "serving.admission/AdmissionQueue.pop",
    "serving.pool/SessionPool.checkout",
    "serving.pool/SessionPool.checkin",
    "serving.health/HealthPlane.on_dispatch",
    "serving.health/HealthPlane.observe",
    "observability.slo/SLOMonitor.record",
    "observability.recorder/FlightRecorder.observe_response",
)
ENGINE = (CACHE, VERTEX_KERNEL, STREAM_KERNEL, H2D, D2H)
COLD_PIPELINE = (TRACEPLAN, DEGREE_CUT, PLAN_PREFETCH, SORTED_UNIQUE, RAGGED)


def engine_counts(result) -> dict:
    """Simulated counts of one engine result (a query or a wave)."""
    kernels = result.profiler.kernels
    return {
        "edges": result.stats.total_edges_scanned,
        "iterations": result.stats.num_iterations,
        "launches": kernels.launches,
        "l1_accesses": kernels.unified_cache_accesses,
        "l1_hits": kernels.unified_cache_hits,
        "l2_accesses": kernels.l2_accesses,
        "l2_hits": kernels.l2_hits,
        "h2d_bytes": result.profiler.h2d_bytes,
        "migrated_bytes": sum(result.profiler.migration_sizes),
    }


def _deepest(levels: np.ndarray) -> int:
    return int(levels[np.isfinite(levels)].max())


class Workload:
    """Shared bookkeeping: outcome counters and session memo counters."""

    name = ""
    #: Span names that must record calls inside timed ops.
    EXERCISED: tuple[str, ...] = ()
    #: Span names that must record no call inside timed ops.
    BYPASSED: tuple[str, ...] = ()
    #: Op classes the p50 and p90 ranks must fall on (``None``: any).
    CENTRAL_CLASSES: frozenset[str] | None = None
    #: Set-ups timed per untraced run; ``setup_s`` is their median.
    SETUP_REPS = 3

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.verified = 0
        #: Ops that did not deliver an answer: sheds, refusals, typed
        #: errors.
        self.failed = 0
        #: Ops that delivered a wrong answer, with a description each.
        self.wrong: list[str] = []
        #: Self-check violations that are not about one op's answer.
        self.problems: list[str] = []
        self.sheds = 0

    def sessions(self) -> list:
        return []

    def memo_counts(self) -> tuple[int, int]:
        sessions = self.sessions()
        return (sum(s.memo_hits for s in sessions),
                sum(s.memo_misses for s in sessions))

    def memo_bytes(self) -> int:
        return sum(s.memo_bytes for s in self.sessions())

    def exhausted(self, i: int) -> bool:
        return False

    def finish(self) -> None:
        pass

    def close(self) -> None:
        for session in self.sessions():
            session.close()

    def _judge(self, i: int, good: bool, what: str) -> None:
        self.verified += 1
        if not good:
            self.wrong.append(f"op {i}: {what}")


class BfsHot(Workload):
    """Warm session, 8 sources replayed round-robin: the frontier memo
    answers nearly every expansion."""

    name = "bfs-hot"
    GRAPH = "com-orkut"
    SOURCES = 8
    EXERCISED = ENGINE + (QUERY,)
    # sorted_unique still runs here: the kernel model's coalescer calls
    # it on every launch, memo hit or not.
    BYPASSED = (TRACEPLAN, PLAN_PREFETCH, RAGGED, WAVE, DIRECT, UM_TOUCH,
                BYTE_RANGES) + SERVICE_PLANE

    def setup(self) -> None:
        self.graph = datasets.get_spec(self.GRAPH).build()
        self.sources = self.rng.choice(
            np.flatnonzero(self.graph.out_degrees() > 0), self.SOURCES,
            replace=False,
        )
        self.session = EngineSession(self.graph, device=DEVICE)
        for source in self.sources:
            self.session.query("bfs", int(source))

    def sessions(self) -> list:
        return [self.session]

    def reference_setup(self) -> None:
        edges = InEdges(self.graph.row_offsets, self.graph.column_indices)
        self.expected = bfs_levels(edges, self.sources)
        #: Per source: (memo hits, memo misses, iterations) of its first
        #: timed replay; every later replay must repeat them exactly.
        self.warm_state: dict[int, tuple] = {}

    def prepare(self, i: int) -> int:
        return i % self.SOURCES

    def op(self, lane: int):
        return self.session.query("bfs", int(self.sources[lane]))

    def verify(self, i: int, lane: int, result, counts: dict) -> str:
        expected = self.expected[lane]
        state = (counts["memo_hits"], counts["memo_misses"],
                 counts["iterations"])
        first = self.warm_state.setdefault(lane, state)
        good = np.array_equal(result.labels, expected)
        depth = _deepest(expected)
        self._judge(i, good and state[2] == depth + 1,
                    "BFS levels differ from the reference" if not good
                    else f"{state[2]} iterations, reference depth {depth}")
        if state != first:
            self.problems.append(
                f"op {i}: warm state (memo hits, misses, iterations) "
                f"{state} differs from the first replay's {first}"
            )
        return "bfs"

    def counts(self, result) -> dict:
        return engine_counts(result)


class MsbfsCold(Workload):
    """64-lane waves whose sources are never repeated."""

    name = "msbfs-cold"
    GRAPH = "com-orkut"
    EXERCISED = ENGINE + COLD_PIPELINE + (WAVE,)
    BYPASSED = (QUERY, DIRECT, UM_TOUCH, BYTE_RANGES) + SERVICE_PLANE

    def setup(self) -> None:
        self.graph = datasets.get_spec(self.GRAPH).build()
        self.order = self.rng.permutation(
            np.flatnonzero(self.graph.out_degrees() > 0)
        )
        self.session = EngineSession(self.graph, device=DEVICE)
        # The warm-up wave takes the permutation's last lanes, which no
        # timed wave uses.
        msbfs.run_wave(self.session, self.order[-LANES:])

    def sessions(self) -> list:
        return [self.session]

    def exhausted(self, i: int) -> bool:
        return (i + 2) * LANES > len(self.order)

    def reference_setup(self) -> None:
        self.edges = InEdges(self.graph.row_offsets,
                             self.graph.column_indices)

    def prepare(self, i: int):
        sources = self.order[i * LANES:(i + 1) * LANES]
        return sources, bfs_levels(self.edges, sources)

    def op(self, inp):
        return msbfs.run_wave(self.session, inp[0])

    def verify(self, i: int, inp, wave, counts: dict) -> str:
        expected = inp[1]
        good = np.array_equal(wave.levels, expected)
        depth = _deepest(expected)
        self._judge(i, good and wave.iterations == depth + 1,
                    "wave levels differ from the reference" if not good
                    else f"{wave.iterations} iterations, deepest lane "
                    f"{depth}")
        return "wave"

    def counts(self, wave) -> dict:
        return engine_counts(wave)


@dataclass(frozen=True)
class Tenant:
    """One tenant's share of the serve-mix traffic."""

    name: str
    #: ``(endpoint, weight)`` pairs requests are drawn from.
    endpoints: tuple[tuple[str, float], ...]
    #: Simulated deadline (ms) from arrival; ``None`` is best-effort.
    deadline_ms: float | None
    #: Simulated think time between a reply and the next request.
    think_ms: float
    quota: TenantQuota


#: The program's three-tenant shape, with the analytics tenant's
#: PageRank weight (0.3) moved to visit and stats: one PageRank request
#: costs seconds of host time, which no short run can average.
TENANTS = (
    Tenant("interactive",
           (("visit", 0.5), ("neighborhood", 0.3), ("shortest_path", 0.2)),
           1.5, 0.2, TenantQuota(max_pending=16, deadline_ms=1.5)),
    Tenant("batch", (("visit", 0.8), ("stats", 0.2)),
           None, 0.1, TenantQuota(max_pending=32)),
    Tenant("analytics", (("visit", 0.55), ("stats", 0.45)),
           6.0, 0.5, TenantQuota(max_pending=16, deadline_ms=6.0)),
)


class ServeMix(Workload):
    """Six closed-loop clients of three tenants against one service."""

    name = "serve-mix"
    GRAPH = "livejournal"
    CLIENTS = 6
    EXERCISED = ENGINE + SERVICE_PLANE + (
        QUERY, TRACEPLAN, "serving.health/HealthPlane.record_latency",
    )
    BYPASSED = (WAVE, DIRECT, UM_TOUCH, BYTE_RANGES)
    CENTRAL_CLASSES = frozenset({"visit", "neighborhood"})

    def setup(self) -> None:
        self.graph = datasets.get_spec(self.GRAPH).build()
        self.service = TraversalService(
            self.graph, device=DEVICE, pool_size=2,
            quotas={t.name: t.quota for t in TENANTS},
            health=True, slo=True, recorder=True,
        )
        # Warm-up: place topology on both lanes and the path lane, and
        # fill the stats cache.
        for request in (VisitRequest(source=0), VisitRequest(source=1),
                        ShortestPathRequest(source=0, target=1),
                        StatsRequest()):
            response = self.service.call(request)
            if not response.ok:
                raise RuntimeError(f"warm-up failed: {response.error}")

    def sessions(self) -> list:
        return [worker.session for worker in self.service.pool.workers]

    def close(self) -> None:
        self.service.close()

    def reference_setup(self) -> None:
        self.edges = InEdges(self.graph.row_offsets,
                             self.graph.column_indices)
        start = self.service.clock_ms
        self.clients = [
            {"tenant": TENANTS[i % len(TENANTS)], "next_ms": start + 0.05 * i}
            for i in range(self.CLIENTS)
        ]
        self.pending: list = []

    def prepare(self, i: int):
        client = min(self.clients, key=lambda c: c["next_ms"])
        tenant = client["tenant"]
        names = [name for name, _ in tenant.endpoints]
        weights = np.array([w for _, w in tenant.endpoints])
        endpoint = str(self.rng.choice(names, p=weights / weights.sum()))
        n = self.graph.num_vertices
        common = dict(tenant=tenant.name, deadline_ms=tenant.deadline_ms,
                      arrival_ms=client["next_ms"])
        source = int(self.rng.integers(0, n))
        if endpoint == "visit":
            request = VisitRequest(problem="bfs", source=source, **common)
        elif endpoint == "neighborhood":
            request = NeighborhoodRequest(
                source=source, hops=int(self.rng.integers(1, 4)), **common)
        elif endpoint == "shortest_path":
            request = ShortestPathRequest(
                source=source, target=int(self.rng.integers(0, n)), **common)
        else:
            request = StatsRequest(**common)
        return client, request

    def op(self, inp):
        return self.service.call(inp[1])

    def verify(self, i: int, inp, response, counts: dict) -> str:
        client, request = inp
        # Closed loop: the client's next request follows this reply by
        # its think time on the simulated clock.
        client["next_ms"] = max(response.finish_ms, client["next_ms"]) \
            + client["tenant"].think_ms
        endpoint = request.endpoint
        if response.shed:
            self.sheds += 1
        unreachable = (endpoint == "shortest_path" and not response.ok
                       and not response.shed
                       and response.error.startswith("PathError")
                       and "was not reached" in response.error)
        if not response.ok and not unreachable:
            self.failed += 1
            self.verified += 1
        elif endpoint == "stats":
            value = response.value
            self._judge(i, value["num_vertices"] == self.graph.num_vertices
                        and value["num_edges"] == self.graph.num_edges,
                        "stats disagree with the graph")
        else:
            self.pending.append((i, request, response, unreachable))
            if len({r.source for _, r, _, _ in self.pending}) >= LANES:
                self.finish()
        return endpoint

    def finish(self) -> None:
        if not self.pending:
            return
        sources = sorted({r.source for _, r, _, _ in self.pending})
        levels = dict(zip(sources, bfs_levels(self.edges, sources)))
        for i, request, response, unreachable in self.pending:
            self._check(i, request, response, unreachable,
                        levels[request.source])
        self.pending = []

    def _check(self, i, request, response, unreachable, expected) -> None:
        if isinstance(request, VisitRequest):
            self._judge(i, np.array_equal(response.labels, expected),
                        "visit levels differ from the reference")
        elif isinstance(request, NeighborhoodRequest):
            within = np.flatnonzero(expected <= request.hops)
            value = response.value
            self._judge(
                i, np.array_equal(value["vertices"], within)
                and np.array_equal(value["levels"],
                                   expected[within].astype(np.int64)),
                "neighborhood differs from the reference",
            )
        elif unreachable:
            self._judge(i, not np.isfinite(expected[request.target]),
                        "path reported unreachable, but the reference "
                        "reaches the target")
        else:
            self._judge(i, self._valid_path(response.value, request,
                                            expected),
                        "path is not a minimum-hop path")

    def _valid_path(self, path, request, expected) -> bool:
        hops = expected[request.target]
        if not path or path[0] != request.source \
                or path[-1] != request.target or len(path) - 1 != hops:
            return False
        offsets, cols = self.graph.row_offsets, self.graph.column_indices
        return all(v in cols[offsets[u]:offsets[u + 1]]
                   for u, v in zip(path, path[1:]))

    def counts(self, response) -> dict:
        result = response.result
        if result is None:
            return dict.fromkeys(COUNT_KEYS[:-2], 0)
        return engine_counts(result)


class CrawlDirect(Workload):
    """Point-to-point BFS on the deep crawl, compressed topology read
    from host memory by direct access."""

    name = "crawl-direct"
    GRAPH = "uk-2005"
    #: Hops between each op's source and target: every op runs exactly
    #: this many iterations.
    HOPS = 40
    # One set-up takes about 3 s, long enough to time once.
    SETUP_REPS = 1
    EXERCISED = ENGINE + COLD_PIPELINE + (QUERY, DIRECT, BYTE_RANGES)
    BYPASSED = (WAVE, UM_TOUCH) + SERVICE_PLANE

    def setup(self) -> None:
        self.graph = datasets.get_spec(self.GRAPH).build()
        topology = compressed.compress(self.graph)
        self.session = EngineSession(
            topology, EtaGraphConfig(memory_mode=MemoryMode.DIRECT_ACCESS),
            device=DEVICE,
        )
        self.session.prepare("bfs")

    def sessions(self) -> list:
        return [self.session]

    def reference_setup(self) -> None:
        self.edges = InEdges(self.graph.row_offsets,
                             self.graph.column_indices)
        self.candidates = np.flatnonzero(self.graph.out_degrees() > 0)
        self.pairs: list = []

    def _draw_pairs(self) -> None:
        """Draw 64 sources; keep each one that has vertices exactly
        ``HOPS`` away, with one of them as its target."""
        sources = self.rng.choice(self.candidates, LANES, replace=False)
        for source, levels in zip(
                sources, bfs_levels(self.edges, sources, self.HOPS)):
            at_hops = np.flatnonzero(levels == self.HOPS)
            if len(at_hops):
                self.pairs.append(
                    (int(source), int(self.rng.choice(at_hops)), levels))
        self.pairs.reverse()

    def prepare(self, i: int):
        while not self.pairs:
            self._draw_pairs()
        return self.pairs.pop()

    def op(self, inp):
        source, target, _ = inp
        return self.session.query("bfs", source, target=target)

    def verify(self, i: int, inp, result, counts: dict) -> str:
        good = np.array_equal(result.labels, inp[2])
        self._judge(i, good and result.stats.num_iterations == self.HOPS,
                    "levels differ from the reference" if not good
                    else f"{result.stats.num_iterations} iterations, "
                    f"expected {self.HOPS}")
        return "bfs"

    def counts(self, result) -> dict:
        return engine_counts(result)


WORKLOADS = {w.name: w for w in (BfsHot, MsbfsCold, ServeMix, CrawlDirect)}
