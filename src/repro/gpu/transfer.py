"""Explicit host<->device copy model (``cudaMemcpy`` analogue).

Used by the non-UM frameworks (CuSha, Gunrock, Tigr, and EtaGraph's
"w/o UM" ablation): the whole graph is staged over PCIe before the first
kernel, which is exactly the ``t_total - t_kernel`` gap Table III shows
for the baselines.

Both copy directions accept an optional
:class:`repro.resilience.faults.FaultInjector`; an injected
``transfer_fault`` raises :class:`~repro.errors.TransferError` *before*
any time or bytes are recorded, modelling a copy that failed in flight
and can be retried wholesale.
"""

from __future__ import annotations

import numpy as np

from repro.gpu.device import DeviceSpec
from repro.gpu.profiler import Profiler

#: PCIe read granularity of EMOGI-style direct access: the GPU issues
#: cacheline-sized (128 B) bus reads against pinned host memory, so a
#: sparse traversal pays for exactly the sectors its frontier touches —
#: not the 4 KiB pages UM would migrate.
DIRECT_ACCESS_SECTOR_BYTES = 128

#: Bus efficiency of coalesced sector reads.  EMOGI's measured point is
#: that aligned, merged cacheline reads sustain near-peak PCIe
#: throughput — far above the fine-grained-read derate zero-copy pays
#: for streaming whole adjacency lists uncoalesced.
DIRECT_ACCESS_EFFICIENCY = 0.85


def h2d_copy(
    spec: DeviceSpec,
    profiler: Profiler,
    nbytes: float,
    *,
    pinned: bool = False,
    injector=None,
) -> float:
    """Host-to-device copy; returns elapsed ms and records it.

    Pageable host memory (the default) pays an extra staging pass through
    a pinned bounce buffer, modelled as a 50% bandwidth derate — typical
    for pageable vs pinned PCIe 3.0 throughput (~6 vs ~12 GB/s).
    """
    if injector is not None:
        injector.on_transfer("h2d", nbytes)
    bandwidth = spec.pcie_bandwidth_gbps * (1.0 if pinned else 0.5)
    time_ms = spec.pcie_latency_us * 1e-3 + spec.bytes_time_ms(nbytes, bandwidth)
    profiler.record_h2d(nbytes, time_ms)
    return time_ms


def d2h_copy(
    spec: DeviceSpec,
    profiler: Profiler,
    nbytes: float,
    *,
    pinned: bool = False,
    injector=None,
) -> float:
    """Device-to-host copy; returns elapsed ms and records it."""
    if injector is not None:
        injector.on_transfer("d2h", nbytes)
    bandwidth = spec.pcie_bandwidth_gbps * (1.0 if pinned else 0.5)
    time_ms = spec.pcie_latency_us * 1e-3 + spec.bytes_time_ms(nbytes, bandwidth)
    profiler.record_d2h(nbytes, time_ms)
    return time_ms


def direct_access_sectors(
    start_bytes: np.ndarray, length_bytes: np.ndarray
) -> int:
    """Distinct 128-byte sectors covered by the given byte ranges.

    ``start_bytes`` should already include each array's base address so
    ranges on different arrays never alias in sector space.  Empty
    ranges cover no sectors.
    """
    start_bytes = np.asarray(start_bytes, dtype=np.int64)
    length_bytes = np.asarray(length_bytes, dtype=np.int64)
    live = length_bytes > 0
    if not live.any():
        return 0
    lo = start_bytes[live] // DIRECT_ACCESS_SECTOR_BYTES
    hi = (start_bytes[live] + length_bytes[live] - 1) \
        // DIRECT_ACCESS_SECTOR_BYTES
    # Union of the [lo, hi] sector intervals without materializing the
    # individual sector ids: sort by lo, then count each interval's
    # contribution past the running right edge.
    order = np.argsort(lo, kind="stable")
    lo, hi = lo[order], hi[order]
    reach = np.maximum.accumulate(hi)
    prev_reach = np.empty_like(reach)
    prev_reach[0] = lo[0] - 1
    prev_reach[1:] = reach[:-1]
    fresh = np.minimum(hi - lo + 1, hi - prev_reach)
    return int(np.clip(fresh, 0, None).sum())


def direct_access_read(
    spec: DeviceSpec,
    profiler: Profiler,
    start_bytes: np.ndarray,
    length_bytes: np.ndarray,
    *,
    injector=None,
) -> tuple[float, int]:
    """One iteration's EMOGI-style direct host reads over PCIe.

    Deduplicates the requested byte ranges to
    :data:`DIRECT_ACCESS_SECTOR_BYTES` sectors (the kernel's coalescer
    merges threads' reads into cacheline bus transactions; a sector read
    twice in one iteration is served once) and charges the sector bytes
    at near-peak pinned bandwidth.  Returns ``(time_ms, bytes_read)``.

    An injected ``direct_access_fault`` raises
    :class:`~repro.errors.TransferError` *before* any time or bytes are
    recorded — a failed bus read aborts the launch and is retryable
    wholesale, like an explicit copy.
    """
    n_sectors = direct_access_sectors(start_bytes, length_bytes)
    nbytes = n_sectors * DIRECT_ACCESS_SECTOR_BYTES
    if injector is not None:
        injector.on_direct_access(nbytes)
    if n_sectors == 0:
        return 0.0, 0
    bandwidth = spec.pcie_bandwidth_gbps * DIRECT_ACCESS_EFFICIENCY
    time_ms = spec.pcie_latency_us * 1e-3 + spec.bytes_time_ms(
        nbytes, bandwidth
    )
    profiler.record_h2d(nbytes, time_ms)
    return time_ms, nbytes
