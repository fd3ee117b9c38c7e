"""Per-launch trace pipeline for the vertex kernel.

:func:`build_vertex_trace` turns one vertex-kernel launch into the
coalesced sector stream the cache hierarchy walks, one accessed array
at a time, in the kernel's issue order: metadata, adjacency (+weights),
labels, idle-thread flag checks.

* **Scattered streams** (the label gathers, and the adjacency and weight
  reads without SMP) coalesce per warp step: the lanes of one warp at
  one loop step.  Each stream's sectors are written into a dense
  ``(step, warp, lane)`` buffer, one ``warp_size``-wide row per warp
  step, and :func:`repro.gpu.coalescing.coalesce_rows` dedups the rows
  after a row sort.  No per-edge expansion or packed key is built.
* **Burst streams** (metadata, SMP adjacency and weights, idle flags)
  coalesce per warp: lane ``t``'s run of sectors fills row ``t`` of a
  ``(lanes, width)`` buffer, so each warp's runs form one row.
* **The dense-buffer bound.**  A buffer with more than
  :data:`DENSE_SLOTS_PER_ACCESS` slots per access it holds (a
  degree-uncapped hub among short rows, or one long burst among short
  ones) is not built: that stream keeps the packed ``(group, sector)``
  sort of :func:`~repro.gpu.coalescing.coalesce` or
  :func:`~repro.gpu.coalescing.contiguous_run_sectors`.
* **The cache order** comes from :func:`repro.gpu.cache.sort_segments`:
  one sort per set of streams whose sector ranges overlap, never one
  over the whole trace.  Allocations are 256 B aligned, so distinct
  arrays never share a sector.

The result equals, bit for bit, the per-stream ``coalesce`` results
concatenated and stable-sorted (:class:`repro.gpu.cache.SortedStream`).
The plan keeps it sorted, so the sort runs when the plan is built, not
on every replay.

Warp sampling (the ``TRACE_CAP`` bound) happens inside the plan, so a
plan fully describes the traced launch.  Plans are safe to reuse:
:class:`repro.core.session.EngineSession` memoizes them per frontier
so repeated queries skip the whole pipeline (the cache models still
*consume* the stream every launch — they are stateful).  A plan
changes only by gaining what is derived from it alone: its stream's
run summary and the kernel model's per-warp instruction models.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import InvalidLaunchError
from repro.gpu import coalescing
from repro.gpu.cache import SortedStream, sort_segments
from repro.utils.ragged import ragged_arange

#: Maximum traced edge accesses per launch before warp sampling kicks in.
TRACE_CAP = 400_000

#: A stream is coalesced in a dense buffer while the buffer has at most
#: this many slots per access it holds.
DENSE_SLOTS_PER_ACCESS = 8


@dataclass(frozen=True)
class TracePlan:
    """The precomputed memory trace of one vertex-kernel launch.

    ``sorted_stream`` is the coalesced sector stream fed to the cache
    hierarchy, stored stable-sorted (``stream`` rebuilds issue order
    until the hierarchy's second walk summarizes and releases it);
    ``degrees``/``n_threads``/``sampled_edges`` describe the
    (possibly warp-sampled) traced subset the instruction model runs
    over; ``scale`` rescales traced counts back to the full launch;
    ``threads_full``/``warps_full`` are the *exact* launched thread and
    warp counts (sampling never distorts them).

    ``issue`` keeps the kernel model's per-warp instruction model of
    the traced threads, keyed by the instruction parameters it was
    built for (:func:`repro.gpu.kernel._issue_model`); it only grows.
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
    issue: dict = field(default_factory=dict, compare=False, repr=False)

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
        total = self.sorted_stream.nbytes + self.degrees.nbytes
        for _, warp_issue, warp_edges in self.issue.values():
            total += warp_issue.nbytes + warp_edges.nbytes
        return total


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


def _padded(shape, top: int) -> tuple[np.ndarray, int]:
    """A buffer for sectors up to ``top``, filled with a sentinel above
    them: int32 where the sectors fit, int64 otherwise."""
    coalescing.check_address_space(top)
    dtype = np.int32 if top < np.iinfo(np.int32).max else np.int64
    sentinel = int(np.iinfo(dtype).max)
    return np.full(shape, sentinel, dtype=dtype), sentinel


class _WarpSteps:
    """The ``(step, warp, lane)`` layout of a launch's scattered streams.

    Lane ``t`` reads at steps ``0 .. degrees[t] - 1``; its step-``s``
    access coalesces with those of the other lanes of its warp at step
    ``s``.  Row ``s * warps + w`` of the dense buffer holds that warp
    step, so the rows come out in the issue order of the strided group
    keys (:func:`repro.gpu.coalescing.strided_group_keys`).
    """

    def __init__(self, starts, degrees, edges, warp_size, sector_bytes):
        self.starts, self.degrees = starts, degrees
        self.sector_bytes = sector_bytes
        self.depth = int(degrees.max())
        self.shape = (self.depth, -(-len(degrees) // warp_size), warp_size)
        self.dense = (self.depth * self.shape[1] * warp_size
                      <= DENSE_SLOTS_PER_ACCESS * edges)
        if self.dense:
            self.mask = np.arange(self.depth) < degrees[:, None]
        else:
            self.steps = ragged_arange(degrees)
            self.keys = coalescing.strided_group_keys(
                np.repeat(np.arange(len(degrees)), degrees), self.steps,
                warp_size,
            )

    def sectors(self, array, index=None) -> np.ndarray:
        """Coalesced sectors of one scattered stream over ``array``.

        Each access reads element ``index[e]`` (per edge, in CSR order)
        or, when ``index`` is ``None``, element ``starts[t] + s`` of
        lane ``t`` at step ``s`` (the adjacency walk).
        """
        if not self.dense:
            if index is None:
                index = np.repeat(self.starts, self.degrees) + self.steps
            return coalescing.coalesce(
                array.addresses_of(index), self.keys, self.sector_bytes
            )
        if index is None:
            index = self.starts[:, None] + np.arange(self.depth)
            ends = self.starts + self.degrees
            last = int(ends[self.degrees > 0].max()) - 1
        else:
            last = int(index.max())
        buffer, sentinel = _padded(self.shape, int(coalescing.sector_of(
            array.addresses_of(last), self.sector_bytes)))
        # Lane-major view: row t is lane t's steps, the order of the
        # per-edge index.
        lanes = buffer.transpose(1, 2, 0).reshape(-1, self.depth)
        lanes = lanes[:len(self.degrees)]
        sectors = coalescing.sector_of(
            array.addresses_of(index), self.sector_bytes)
        if sectors.ndim == 2:
            np.copyto(lanes, sectors, where=self.mask, casting="unsafe")
        else:
            lanes[self.mask] = sectors
        return coalescing.coalesce_rows(
            buffer.reshape(-1, self.shape[2]), sentinel
        )


def _burst_sectors(starts, lengths, warp_size, sector_bytes) -> np.ndarray:
    """Coalesced sectors of per-lane contiguous runs of ``lengths``
    bytes from ``starts``, one group per warp: exactly
    :func:`repro.gpu.coalescing.contiguous_run_sectors` with burst group
    keys.

    Lane ``t``'s sectors fill row ``t`` of a ``(lanes, width)`` buffer,
    so each warp's runs form one row of ``warp_size * width`` sectors.
    """
    n = len(starts)
    first = coalescing.sector_of(starts, sector_bytes)
    last = coalescing.sector_of(starts + lengths - 1, sector_bytes)
    counts = np.where(lengths > 0, last - first + 1, 0)
    width = int(counts.max()) if n else 0
    if width == 0:
        return np.empty(0, dtype=np.int64)
    lanes = -(-n // warp_size) * warp_size
    if lanes * width > DENSE_SLOTS_PER_ACCESS * int(counts.sum()):
        return coalescing.contiguous_run_sectors(
            starts, lengths,
            coalescing.burst_group_keys(np.arange(n), warp_size),
            sector_bytes,
        )
    buffer, sentinel = _padded((lanes, width), int(last[lengths > 0].max()))
    steps = np.arange(width)
    np.copyto(buffer[:n], first[:, None] + steps,
              where=steps < counts[:, None], casting="unsafe")
    return coalescing.coalesce_rows(
        buffer.reshape(-1, warp_size * width), sentinel
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
    """Build the trace of one vertex-kernel launch.

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
    # Coalesced sectors, one segment per access stream, in the kernel's
    # issue order: metadata, adjacency (+weights), labels, idle-thread
    # flag checks.
    # ------------------------------------------------------------------
    segments: list[np.ndarray] = []
    sector_bytes = spec.sector_bytes

    if meta_array is not None and meta_words_per_thread > 0 and n_threads:
        meta_item = meta_words_per_thread * meta_array.itemsize
        segments.append(_burst_sectors(
            meta_array.base_address + thread_ids * meta_item,
            np.full(n_threads, meta_item, dtype=np.int64),
            warp_size, sector_bytes,
        ))

    if sampled_edges:
        steps = _WarpSteps(starts, degrees, sampled_edges, warp_size,
                           sector_bytes)
        # Label gathers: scattered by destination id; one per step in
        # both modes (SMP prefetches topology, not labels).  Built first
        # so the ids are released before the topology streams: a caller
        # that handed over its only reference (the session's widened
        # ids) frees them here.
        label_sectors = steps.sectors(
            label_array, np.asarray(neighbor_ids, dtype=np.int64))
        del neighbor_ids
        if smp:
            # Unrolled burst: the whole warp's prefetch loads coalesce.
            # The burst length is the *planned* K / K-1 bin size, which
            # may over-fetch beyond the actual slice (Section V-B).
            burst_words = (
                np.asarray(smp_planned_words, dtype=np.int64)
                if smp_planned_words is not None
                else degrees
            )
            for array in (adj_array, weight_array):
                if array is not None:
                    segments.append(_burst_sectors(
                        array.addresses_of(starts),
                        burst_words * array.itemsize, warp_size,
                        sector_bytes,
                    ))
        else:
            # One scattered warp access per loop step.
            for array in (adj_array, weight_array):
                if array is not None:
                    segments.append(steps.sectors(array))

        segments.append(label_sectors)

    if idle_threads:
        idle_ids = np.arange(idle_threads, dtype=np.int64)
        segments.append(_burst_sectors(
            label_array.base_address + idle_ids * 4,
            np.full(idle_threads, 4, dtype=np.int64),
            warp_size, sector_bytes,
        ))

    return TracePlan(
        sorted_stream=sort_segments(segments),
        scale=scale,
        degrees=degrees,
        n_threads=n_threads,
        sampled_edges=sampled_edges,
        total_edges=total_edges,
        threads_full=n_threads_full,
        warps_full=warps_full,
        fingerprint=fingerprint,
    )
