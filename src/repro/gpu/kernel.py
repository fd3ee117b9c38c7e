"""Kernel cost model: traversal kernels on the simulated GPU.

:func:`simulate_vertex_kernel` models one launch of a vertex-centric
traversal kernel (one thread per work item, each scanning <= its item's
degree of adjacency).  It is parametrized enough to express every engine
in this repo:

* EtaGraph's shadow-vertex kernel (``smp`` on/off, bounded degrees),
* Tigr's virtual-node kernel (``idle_threads`` for inactive flag checks),
* Gunrock's advance (``balanced_issue`` for merge-based load balancing),
* the naive vertex-centric baseline (unbounded degrees, lockstep max).

:func:`simulate_streaming_kernel` models CuSha-style edge-centric passes
whose reads are coalesced sequential streams.

Cost model (DESIGN.md section 5): per-warp issue cycles follow SIMT
lockstep (max over lanes); memory transactions come from the coalescing
model and are filtered through the cache hierarchy; stall cycles are
transactions x miss latency, divided by memory-level parallelism and
latency-hiding warps; kernel time is a roofline over compute, L2 and DRAM
bandwidth plus a fixed launch overhead.

Large launches are *warp-sampled*: whole warps are traced exactly and the
resulting counts rescaled, preserving intra-warp coalescing statistics at
bounded simulation cost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import InvalidLaunchError
from repro.gpu import coalescing, sharedmem, warp as warpmod
from repro.gpu.cache import CacheHierarchy, SortedStream, sort_stream
from repro.gpu.device import DeviceSpec
from repro.gpu.memory import DeviceArray
from repro.gpu.profiler import KernelCounters
from repro.gpu.traceplan import (
    TRACE_CAP,
    TracePlan,
    build_vertex_trace,
    plan_fingerprint,
)


@dataclass(frozen=True)
class KernelTiming:
    """Timing breakdown of one simulated kernel launch."""

    time_ms: float
    compute_ms: float
    dram_ms: float
    l2_ms: float
    launch_ms: float
    counters: KernelCounters

    @property
    def bound_by(self) -> str:
        best = max(
            ("compute", self.compute_ms),
            ("dram", self.dram_ms),
            ("l2", self.l2_ms),
            key=lambda kv: kv[1],
        )
        return best[0]


def _finalize(
    spec: DeviceSpec,
    *,
    threads: int,
    warps: int,
    instructions: float,
    sm_cycles_max: float,
    accesses: float,
    unified_hits: float,
    l2_accesses: float,
    l2_hits: float,
    dram_transactions: float,
    extra_dram_write_bytes: float,
    load_transactions: float,
    store_transactions: float,
    shared_load_bytes: float = 0.0,
) -> KernelTiming:
    """Roofline combination + counter assembly shared by all kernels.

    The memory counts are the launch's (rescaled) cache-hierarchy
    outcome; DRAM reads are its 32-byte DRAM transactions.
    """
    dram_read_bytes = dram_transactions * 32
    compute_ms = spec.cycles_to_ms(sm_cycles_max)
    dram_ms = spec.dram_time_ms(dram_read_bytes + extra_dram_write_bytes)
    l2_ms = spec.l2_time_ms(l2_accesses * spec.sector_bytes)
    launch_ms = spec.kernel_launch_us * 1e-3
    time_ms = launch_ms + max(compute_ms, dram_ms, l2_ms)

    counters = KernelCounters(
        launches=1,
        threads=int(threads),
        warps=int(warps),
        instructions=float(instructions),
        cycles=spec.ms_to_cycles(time_ms),
        elapsed_ms=time_ms,
        global_load_transactions=int(load_transactions),
        global_store_transactions=int(store_transactions),
        unified_cache_accesses=int(accesses),
        unified_cache_hits=int(unified_hits),
        l2_accesses=int(l2_accesses),
        l2_hits=int(l2_hits),
        dram_read_bytes=float(dram_read_bytes),
        dram_write_bytes=float(extra_dram_write_bytes),
        shared_load_bytes=float(shared_load_bytes),
    )
    return KernelTiming(
        time_ms=time_ms,
        compute_ms=compute_ms,
        dram_ms=dram_ms,
        l2_ms=l2_ms,
        launch_ms=launch_ms,
        counters=counters,
    )


def _issue_model(plan: TracePlan, smp: bool, instr_base: float,
                 instr_per_edge: float, balanced_issue: bool,
                 warp_size: int) -> tuple[float, np.ndarray, np.ndarray]:
    """The launch-independent part of the instruction model over the
    plan's traced threads: the total lane instructions, each warp's
    issue cycles and each warp's edge count.

    They depend only on the plan's degrees and the arguments, so they
    are kept on the plan (:attr:`TracePlan.issue`), keyed by the
    arguments: a memoized plan replays without recomputing them.
    """
    key = (smp, instr_base, instr_per_edge, balanced_issue, warp_size)
    model = plan.issue.get(key)
    if model is not None:
        return model
    degrees = plan.degrees
    if smp:
        # Unrolling removes per-iteration loop overhead; prefetch adds a
        # shared-memory store per edge.
        eff_instr_per_edge = max(2.0, instr_per_edge - 3.0) + 1.0
    else:
        eff_instr_per_edge = instr_per_edge
    lane_instr = instr_base + degrees.astype(np.float64) * eff_instr_per_edge
    if plan.n_threads:
        if balanced_issue:
            warp_issue = warpmod.per_warp_sum(lane_instr, warp_size) / warp_size \
                + instr_base
        else:
            warp_issue = warpmod.per_warp_max(lane_instr, warp_size)
        warp_edges = warpmod.per_warp_sum(degrees.astype(np.float64), warp_size)
    else:
        warp_issue = np.zeros(0)
        warp_edges = np.zeros(0)
    # Every later launch over the plan shares them.
    warp_issue.flags.writeable = warp_edges.flags.writeable = False
    model = plan.issue[key] = (float(lane_instr.sum()), warp_issue, warp_edges)
    return model


def simulate_vertex_kernel(
    spec: DeviceSpec,
    caches: CacheHierarchy,
    *,
    starts: np.ndarray,
    degrees: np.ndarray,
    adj_array: DeviceArray,
    neighbor_ids: np.ndarray,
    label_array: DeviceArray,
    weight_array: DeviceArray | None = None,
    meta_array: DeviceArray | None = None,
    meta_words_per_thread: int = 0,
    smp: bool = False,
    smp_planned_words: np.ndarray | None = None,
    degree_limit: int | None = None,
    updates: int = 0,
    balanced_issue: bool = False,
    instr_base: float = 24.0,
    instr_per_edge: float = 8.0,
    idle_threads: int = 0,
    idle_instr: float = 6.0,
    threads_per_block: int = 256,
    plan: TracePlan | None = None,
) -> KernelTiming:
    """Simulate one vertex-centric traversal kernel launch.

    Parameters
    ----------
    starts, degrees:
        Per-thread first edge index into ``adj_array`` and edge count.
    neighbor_ids:
        Destination vertex ids of all scanned edges, concatenated in
        thread order (``len == degrees.sum()``); their label-array
        addresses form the scattered access stream.
    smp:
        Shared Memory Prefetch: adjacency (and weight) reads become
        per-lane contiguous unrolled bursts; processing reads then hit
        shared memory.  Requires ``degree_limit``.
    smp_planned_words:
        Per-thread burst length in words when it exceeds the actual
        degree (the K / K-1 bin over-fetch of Section V-B).  Defaults to
        the actual degrees.
    idle_threads:
        Additional launched threads that only perform an activity check
        and exit (Tigr's inactive virtual nodes).
    updates:
        Number of label updates performed (scattered stores + atomic
        frontier appends).
    plan:
        A :class:`TracePlan` previously built for *this exact launch*
        (same arrays, same shapes) by :func:`build_vertex_trace` —
        typically from the engine session's frontier memo.  When given,
        the whole trace pipeline (sampling, coalescing, the cache-order
        sort) is skipped, and so is the part of the instruction model
        the plan already keeps (:func:`_issue_model`): only the
        stateful cache walk and what depends on it run.  The plan's
        fingerprint is checked.
    """
    starts = np.asarray(starts, dtype=np.int64)
    degrees = np.asarray(degrees, dtype=np.int64)
    if len(starts) != len(degrees):
        raise InvalidLaunchError("starts/degrees length mismatch")
    if smp and degree_limit is None:
        raise InvalidLaunchError("SMP requires a degree_limit")
    n_threads = len(starts)
    if n_threads == 0 and idle_threads == 0:
        raise InvalidLaunchError("empty kernel launch")
    total_edges = int(degrees.sum())
    if len(neighbor_ids) != total_edges:
        raise InvalidLaunchError(
            f"neighbor_ids has {len(neighbor_ids)} entries, expected {total_edges}"
        )
    warp_size = spec.warp_size

    # ------------------------------------------------------------------
    # Memory trace: warp sampling, coalescing and the cache-order sort
    # all happen inside the plan (built once here, or reused from a memo).
    # ------------------------------------------------------------------
    if plan is None:
        plan = build_vertex_trace(
            spec,
            starts=starts,
            degrees=degrees,
            adj_array=adj_array,
            neighbor_ids=neighbor_ids,
            label_array=label_array,
            weight_array=weight_array,
            meta_array=meta_array,
            meta_words_per_thread=meta_words_per_thread,
            smp=smp,
            smp_planned_words=smp_planned_words,
            idle_threads=idle_threads,
            trace_cap=TRACE_CAP,
        )
    else:
        plan.check_compatible(plan_fingerprint(
            spec,
            n_threads=n_threads,
            total_edges=total_edges,
            adj_array=adj_array,
            label_array=label_array,
            weight_array=weight_array,
            meta_array=meta_array,
            meta_words_per_thread=meta_words_per_thread,
            smp=smp,
            idle_threads=idle_threads,
        ))

    scale = plan.scale
    sampled_edges = plan.sampled_edges

    # The cache hierarchy is stateful across launches, so the stream is
    # replayed through it even when the plan itself was memoized.
    hier = caches.access(plan.sorted_stream)
    load_transactions = plan.sorted_stream.length * scale
    accesses = hier.accesses * scale
    unified_hits = hier.unified_hits * scale
    l2_hits = hier.l2_hits * scale
    dram_transactions = hier.dram_transactions * scale

    # ------------------------------------------------------------------
    # Instruction / cycle model
    # ------------------------------------------------------------------
    lane_instr_sum, warp_issue, warp_edges = _issue_model(
        plan, smp, instr_base, instr_per_edge, balanced_issue, warp_size
    )

    # Occupancy / latency hiding.
    shared_per_block = (
        sharedmem.smp_shared_bytes_per_block(threads_per_block, degree_limit)
        if smp
        else 0
    )
    occ = sharedmem.occupancy(spec, threads_per_block, shared_per_block)
    hiding = min(occ.warps_per_sm, spec.latency_hiding_warps)
    mlp = spec.smp_mlp if smp else spec.base_mlp

    if accesses > 0:
        avg_latency = (
            unified_hits * spec.unified_cache_latency_cycles
            + l2_hits * spec.l2_latency_cycles
            + dram_transactions * spec.dram_latency_cycles
        ) / accesses
    else:
        avg_latency = 0.0
    total_stall = (accesses / scale) * avg_latency / (mlp * hiding)
    if sampled_edges > 0:
        warp_stall = total_stall * warp_edges / sampled_edges
    else:
        warp_stall = np.full_like(warp_issue, total_stall / max(len(warp_issue), 1))

    warp_cycles = warp_issue + warp_stall
    sm_cycles = warpmod.assign_warps_to_sms(warp_cycles, spec.num_sms) * scale
    sm_cycles_max = float(sm_cycles.max()) if len(sm_cycles) else 0.0

    # Idle-thread analytic contribution, spread evenly over SMs.
    idle_cycles = 0.0
    if idle_threads:
        idle_warps = -(-idle_threads // warp_size)
        idle_cycles = idle_warps * idle_instr / spec.num_sms
        sm_cycles_max += idle_cycles

    instructions = (
        lane_instr_sum * scale + idle_threads * idle_instr
        + updates * 6.0  # atomicMin + frontier append
    )
    shared_load_bytes = float(sampled_edges) * scale * 4.0 if smp else 0.0

    # Launched thread/warp counts are exact — warp sampling bounds the
    # *trace*, not the launch, so rescaling sampled counts by the
    # edge-based ``scale`` would misreport them whenever kept warps have
    # skewed degrees.  The plan keeps the pre-sampling counts.
    return _finalize(
        spec,
        threads=plan.threads_full + idle_threads,
        warps=plan.warps_full + (-(-idle_threads // warp_size)),
        instructions=instructions,
        sm_cycles_max=sm_cycles_max,
        accesses=accesses,
        unified_hits=unified_hits,
        l2_accesses=hier.l2_accesses * scale,
        l2_hits=l2_hits,
        dram_transactions=dram_transactions,
        extra_dram_write_bytes=updates * spec.sector_bytes,
        load_transactions=load_transactions,
        store_transactions=updates,
        shared_load_bytes=shared_load_bytes,
    )


def _gather_stride(n: int) -> int:
    """Sampling stride of a streaming kernel's ``n`` scattered gathers."""
    return int(np.ceil(n / TRACE_CAP)) if n > TRACE_CAP else 1


def gather_stream(
    spec: DeviceSpec, base_address: int, indices: np.ndarray
) -> SortedStream:
    """The coalesced, stable-sorted stream of a streaming kernel's
    scattered 4-byte gathers at ``base_address + 4 * indices``.

    Gathers past ``TRACE_CAP`` are sampled at a fixed stride; each warp
    of consecutive gathers coalesces.  The stream depends only on its
    inputs, so a caller may build it once and pass it to every
    :func:`simulate_streaming_kernel` over the same gathers.
    """
    idx = np.asarray(indices, dtype=np.int64)[::_gather_stride(len(indices))]
    keys = np.arange(len(idx), dtype=np.int64) // spec.warp_size
    return sort_stream(coalescing.coalesce(
        base_address + idx * 4, keys, spec.sector_bytes
    ))


def simulate_streaming_kernel(
    spec: DeviceSpec,
    caches: CacheHierarchy,
    *,
    read_bytes: float,
    write_bytes: float,
    n_threads: int,
    instr_per_thread: float = 12.0,
    scattered_read_words: int = 0,
    scatter_base_address: int = 0,
    scatter_indices: np.ndarray | None = None,
    scatter_stream: SortedStream | None = None,
    threads_per_block: int = 256,
) -> KernelTiming:
    """Simulate an edge-centric streaming pass (CuSha shards, compaction).

    Sequential streams are perfectly coalesced: ``read_bytes / 32``
    transactions with no reuse (they are modelled as cold DRAM reads —
    streaming data is evicted long before any revisit).  An optional
    scattered-gather component (``scatter_indices`` into a value array)
    goes through the cache hierarchy like any other random stream.
    ``scatter_stream``, when given, is that component's
    :func:`gather_stream`, built earlier for the same gathers (the
    engine session keeps it in its frontier memo).
    """
    if n_threads < 1:
        raise InvalidLaunchError("empty kernel launch")
    stream_transactions = int(np.ceil(read_bytes / spec.sector_bytes))

    scatter_trans = 0
    accesses = l2_accesses = dram_transactions = stream_transactions
    unified_hits = l2_hits = 0
    if scatter_indices is not None and len(scatter_indices):
        if scatter_stream is None:
            scatter_stream = gather_stream(
                spec, scatter_base_address, scatter_indices
            )
        n = len(scatter_indices)
        s_scale = float(n) / len(range(0, n, _gather_stride(n)))
        raw = caches.access(scatter_stream)
        scatter_trans = scatter_stream.length * s_scale
        accesses = raw.accesses * s_scale + stream_transactions
        unified_hits = raw.unified_hits * s_scale
        l2_accesses = raw.l2_accesses * s_scale + stream_transactions
        l2_hits = raw.l2_hits * s_scale
        dram_transactions = raw.dram_transactions * s_scale \
            + stream_transactions

    warp_size = spec.warp_size
    n_warps = -(-n_threads // warp_size)
    occ = sharedmem.occupancy(spec, threads_per_block, 0)
    hiding = min(occ.warps_per_sm, spec.latency_hiding_warps)
    # Streaming reads prefetch well: high effective MLP.
    total_stall = (
        (stream_transactions + scatter_trans)
        * spec.dram_latency_cycles
        / (spec.smp_mlp * hiding)
    )
    issue_cycles = n_warps * instr_per_thread
    sm_cycles_max = (issue_cycles + total_stall) / spec.num_sms

    return _finalize(
        spec,
        threads=n_threads,
        warps=n_warps,
        instructions=n_threads * instr_per_thread,
        sm_cycles_max=sm_cycles_max,
        accesses=accesses,
        unified_hits=unified_hits,
        l2_accesses=l2_accesses,
        l2_hits=l2_hits,
        dram_transactions=dram_transactions,
        extra_dram_write_bytes=write_bytes,
        load_transactions=stream_transactions + scatter_trans,
        store_transactions=int(np.ceil(write_bytes / spec.sector_bytes)),
    )
