"""Fused per-launch trace pipeline for the vertex kernel.

Before this module, :func:`repro.gpu.kernel.simulate_vertex_kernel`
built its memory-access streams piecemeal: the ragged edge expansion
(``ragged_arange`` + ``np.repeat`` + strided group keys) was computed
once for the adjacency stream and *again* for the label stream, and
every stream ran its own sorted dedup inside
:func:`repro.gpu.coalescing.coalesce` — three to four sorts per launch.

:class:`TracePlan` computes each ingredient exactly once:

* one edge expansion (loop steps, per-edge thread ids, strided group
  keys, flat CSR edge indices) shared by the adjacency, weight and
  label streams;
* one packed ``(group, sector)`` key array per stream, produced by the
  packing stage of the coalescing model;
* **at most one sort** over the concatenation of all packed keys.  Each
  stream's group keys are lifted by a per-stream offset one past the
  previous stream's maximum, so a single ascending sort + dedup of the
  combined array reproduces, segment by segment, exactly the
  concatenation of the per-stream ``coalesce`` results.  If the lifted
  group keys would overflow the packed 64-bit layout the plan falls
  back to per-stream dedup — bit-identical either way.

The plan keeps the stream already stable-sorted for the reuse-window
caches (:class:`repro.gpu.cache.SortedStream`), so its one argsort runs
when the plan is built, not on every replay.

Warp sampling (the ``TRACE_CAP`` bound) happens inside the plan, so a
plan fully describes the traced launch.  Plans are immutable and safe
to reuse: :class:`repro.core.session.EngineSession` memoizes them per
frontier so repeated queries skip the whole pipeline (the cache models
still *consume* the stream every launch — they are stateful).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import InvalidLaunchError
from repro.gpu import coalescing
from repro.gpu.cache import SortedStream, sort_stream
from repro.gpu.coalescing import (
    _SECTOR_BITS,
    max_group_key,
    packed_to_sectors,
    run_packed_keys,
    scatter_packed_keys,
)
from repro.utils.ragged import ragged_arange
from repro.utils.sorting import sorted_unique

#: Maximum traced edge accesses per launch before warp sampling kicks in.
TRACE_CAP = 400_000

#: Group keys must stay below this after per-stream lifting, or the
#: packed (group, sector) key no longer fits in a non-negative int64.
_MAX_GROUP = 1 << (63 - _SECTOR_BITS)


def fuse_packed_streams(segments: list[np.ndarray]) -> np.ndarray:
    """Dedup + order every stream's packed keys with one sort.

    Equivalent to ``concatenate([packed_to_sectors(sorted_unique(s))
    for s in segments])``: stream ``i``'s group keys are lifted by one
    past stream ``i-1``'s maximum, making the combined keys
    segment-major, so one ascending sort + run-length dedup yields each
    segment's sorted unique transactions in segment order.
    """
    segments = [s for s in segments if len(s)]
    if not segments:
        return np.empty(0, dtype=np.int64)
    if len(segments) == 1:
        return packed_to_sectors(sorted_unique(segments[0]))

    offset = 0
    lifted = []
    for seg in segments:
        lifted.append(seg + (offset << _SECTOR_BITS) if offset else seg)
        offset += max_group_key(seg) + 1
    if offset >= _MAX_GROUP:
        # Lifting would overflow the packed layout: dedup per stream.
        return np.concatenate(
            [packed_to_sectors(sorted_unique(s)) for s in segments]
        )
    fused = np.concatenate(lifted)
    fused.sort()
    keep = np.empty(len(fused), dtype=bool)
    keep[0] = True
    np.not_equal(fused[1:], fused[:-1], out=keep[1:])
    return packed_to_sectors(fused[keep])


@dataclass(frozen=True)
class TracePlan:
    """The precomputed memory trace of one vertex-kernel launch.

    ``sorted_stream`` is the coalesced sector stream fed to the cache
    hierarchy, stored stable-sorted (``stream`` rebuilds issue order);
    ``degrees``/``n_threads``/``sampled_edges`` describe the
    (possibly warp-sampled) traced subset the instruction model runs
    over; ``scale`` rescales traced counts back to the full launch;
    ``threads_full``/``warps_full`` are the *exact* launched thread and
    warp counts (sampling never distorts them).
    """

    sorted_stream: SortedStream
    scale: float
    degrees: np.ndarray
    n_threads: int
    sampled_edges: int
    total_edges: int
    threads_full: int
    warps_full: int
    fingerprint: tuple

    def check_compatible(self, fingerprint: tuple) -> None:
        """Reject reuse against a launch the plan was not built for."""
        if fingerprint != self.fingerprint:
            raise InvalidLaunchError(
                "TracePlan does not match this launch: "
                f"plan {self.fingerprint} vs launch {fingerprint}"
            )

    @property
    def stream(self) -> np.ndarray:
        """The coalesced sector stream in issue order."""
        stream = np.empty(len(self.sorted_stream), dtype=np.int64)
        stream[self.sorted_stream.order] = self.sorted_stream.sectors
        return stream

    @property
    def nbytes(self) -> int:
        """Retained memory (for memo budgeting)."""
        return (self.sorted_stream.order.nbytes
                + self.sorted_stream.sectors.nbytes + self.degrees.nbytes)


def plan_fingerprint(
    spec,
    *,
    n_threads: int,
    total_edges: int,
    adj_array,
    label_array,
    weight_array=None,
    meta_array=None,
    meta_words_per_thread: int = 0,
    smp: bool = False,
    idle_threads: int = 0,
) -> tuple:
    """Cheap launch identity: shapes and array placements, not contents.

    Two launches with equal fingerprints *and* equal input arrays
    produce identical plans; callers passing a cached plan are
    responsible for content equality (the session keys its memo by a
    content hash of the active set, which determines every array here).
    """
    return (
        n_threads,
        total_edges,
        adj_array.base_address,
        adj_array.itemsize,
        label_array.base_address,
        label_array.itemsize,
        weight_array.base_address if weight_array is not None else -1,
        meta_array.base_address if meta_array is not None else -1,
        meta_words_per_thread,
        bool(smp),
        idle_threads,
        spec.warp_size,
        spec.sector_bytes,
    )


def build_vertex_trace(
    spec,
    *,
    starts: np.ndarray,
    degrees: np.ndarray,
    adj_array,
    neighbor_ids: np.ndarray,
    label_array,
    weight_array=None,
    meta_array=None,
    meta_words_per_thread: int = 0,
    smp: bool = False,
    smp_planned_words: np.ndarray | None = None,
    idle_threads: int = 0,
    trace_cap: int | None = None,
) -> TracePlan:
    """Build the fused trace of one vertex-kernel launch.

    Inputs mirror :func:`repro.gpu.kernel.simulate_vertex_kernel`
    (which calls this when no plan is supplied); ``trace_cap`` bounds
    the traced edge count before warp sampling engages.
    """
    starts = np.asarray(starts, dtype=np.int64)
    degrees = np.asarray(degrees, dtype=np.int64)
    if trace_cap is None:
        trace_cap = TRACE_CAP
    warp_size = spec.warp_size
    n_threads_full = len(starts)
    total_edges = int(degrees.sum())
    fingerprint = plan_fingerprint(
        spec,
        n_threads=n_threads_full,
        total_edges=total_edges,
        adj_array=adj_array,
        label_array=label_array,
        weight_array=weight_array,
        meta_array=meta_array,
        meta_words_per_thread=meta_words_per_thread,
        smp=smp,
        idle_threads=idle_threads,
    )
    n_threads = n_threads_full
    warps_full = -(-max(n_threads_full, 1) // warp_size)

    # ------------------------------------------------------------------
    # Warp sampling for very large launches: whole warps are kept at a
    # fixed stride and the traced counts rescaled.
    # ------------------------------------------------------------------
    scale = 1.0
    if total_edges > trace_cap and n_threads > warp_size:
        stride = max(1, int(np.ceil(total_edges / trace_cap)))
        thread_ids = np.arange(n_threads)
        keep = (thread_ids // warp_size) % stride == 0
        kept_edges = int(degrees[keep].sum())
        if kept_edges > 0:
            edge_keep = np.repeat(keep, degrees)
            starts, degrees = starts[keep], degrees[keep]
            neighbor_ids = np.asarray(neighbor_ids)[edge_keep]
            if smp_planned_words is not None:
                smp_planned_words = np.asarray(smp_planned_words)[keep]
            scale = total_edges / kept_edges
            n_threads = len(starts)

    sampled_edges = int(degrees.sum())
    thread_ids = np.arange(n_threads, dtype=np.int64)

    # ------------------------------------------------------------------
    # Packed (group, sector) keys, one segment per access stream, in
    # the kernel's issue order: metadata, adjacency (+weights), labels,
    # idle-thread flag checks.
    # ------------------------------------------------------------------
    segments: list[np.ndarray] = []
    sector_bytes = spec.sector_bytes

    if meta_array is not None and meta_words_per_thread > 0 and n_threads:
        meta_item = meta_words_per_thread * meta_array.itemsize
        segments.append(run_packed_keys(
            meta_array.base_address + thread_ids * meta_item,
            np.full(n_threads, meta_item, dtype=np.int64),
            coalescing.burst_group_keys(thread_ids),
            sector_bytes,
        ))

    strided_keys = None
    if sampled_edges:
        # The single edge expansion every scattered stream shares.
        steps = ragged_arange(degrees)
        edge_thread = np.repeat(thread_ids, degrees)
        strided_keys = coalescing.strided_group_keys(
            edge_thread, steps, warp_size
        )

        itemsize = adj_array.itemsize
        if smp:
            # Unrolled burst: the whole warp's prefetch loads coalesce.
            # The burst length is the *planned* K / K-1 bin size, which
            # may over-fetch beyond the actual slice (Section V-B).
            burst_words = (
                np.asarray(smp_planned_words, dtype=np.int64)
                if smp_planned_words is not None
                else degrees
            )
            burst_keys = coalescing.burst_group_keys(thread_ids)
            adj_addresses = adj_array.addresses_of(starts)
            segments.append(run_packed_keys(
                adj_addresses, burst_words * itemsize, burst_keys,
                sector_bytes,
            ))
            if weight_array is not None:
                segments.append(run_packed_keys(
                    weight_array.addresses_of(starts),
                    burst_words * weight_array.itemsize,
                    burst_keys,
                    sector_bytes,
                ))
        else:
            # One scattered warp access per loop step.
            edge_idx = np.repeat(starts, degrees) + steps
            segments.append(scatter_packed_keys(
                adj_array.addresses_of(edge_idx), strided_keys, sector_bytes
            ))
            if weight_array is not None:
                segments.append(scatter_packed_keys(
                    weight_array.addresses_of(edge_idx), strided_keys,
                    sector_bytes,
                ))

        # Label gathers: scattered by destination id; one per step in
        # both modes (SMP prefetches topology, not labels).
        segments.append(scatter_packed_keys(
            label_array.addresses_of(np.asarray(neighbor_ids, dtype=np.int64)),
            strided_keys,
            sector_bytes,
        ))

    if idle_threads:
        idle_ids = np.arange(idle_threads, dtype=np.int64)
        segments.append(run_packed_keys(
            label_array.base_address + idle_ids * 4,
            np.full(idle_threads, 4, dtype=np.int64),
            coalescing.burst_group_keys(idle_ids) + (1 << 20),
            sector_bytes,
        ))

    return TracePlan(
        sorted_stream=sort_stream(fuse_packed_streams(segments)),
        scale=scale,
        degrees=degrees,
        n_threads=n_threads,
        sampled_edges=sampled_edges,
        total_edges=total_edges,
        threads_full=n_threads_full,
        warps_full=warps_full,
        fingerprint=fingerprint,
    )
