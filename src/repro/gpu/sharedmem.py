"""Shared-memory occupancy model.

SMP reserves ``K`` words of shared memory per thread (Section V-B: every
thread prefetches its shadow vertex's <= K neighbor ids).  Shared memory
per SM is finite, so large K reduces how many thread blocks — and hence
latency-hiding warps — an SM can keep resident.  This is the mechanism
that makes the degree limit K a real tuning knob rather than a free
parameter (the ``degree_cut_tuning`` example sweeps it).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.errors import InvalidLaunchError
from repro.gpu.device import DeviceSpec


@dataclass(frozen=True)
class OccupancyResult:
    """Residency achievable for one kernel configuration on one SM."""

    blocks_per_sm: int
    warps_per_sm: int
    shared_bytes_per_block: int


def smp_shared_bytes_per_block(
    threads_per_block: int, degree_limit: int, word_bytes: int = 4
) -> int:
    """Shared memory an SMP kernel block reserves: K words per thread."""
    if threads_per_block < 1:
        raise InvalidLaunchError(f"threads_per_block={threads_per_block}")
    if degree_limit < 1:
        raise InvalidLaunchError(f"degree_limit={degree_limit}")
    return threads_per_block * degree_limit * word_bytes


def max_smp_block_threads(
    spec: DeviceSpec, degree_limit: int, word_bytes: int = 4
) -> int:
    """Largest whole-warp block size whose SMP buffers fit one SM.

    Returns 0 when even a single warp's K-word buffers exceed shared
    memory — the engine then falls back to the non-SMP kernel (very large
    K makes prefetch physically impossible, which is itself a finding the
    degree-cut tuning example demonstrates).
    """
    if degree_limit < 1:
        raise InvalidLaunchError(f"degree_limit={degree_limit}")
    max_threads = spec.shared_mem_bytes_per_sm // (degree_limit * word_bytes)
    max_threads = min(max_threads, spec.max_threads_per_block)
    return (max_threads // 32) * 32


@lru_cache(maxsize=256)
def occupancy(
    spec: DeviceSpec,
    threads_per_block: int,
    shared_bytes_per_block: int = 0,
) -> OccupancyResult:
    """Resident blocks/warps per SM under warp and shared-memory limits.

    A pure function of its arguments (the spec is frozen), so it is
    memoized: every kernel launch asks, with a handful of distinct
    configurations per session.
    """
    if threads_per_block < 1 or threads_per_block > spec.max_threads_per_block:
        raise InvalidLaunchError(
            f"threads_per_block must be in [1, {spec.max_threads_per_block}], "
            f"got {threads_per_block}"
        )
    if shared_bytes_per_block > spec.shared_mem_bytes_per_sm:
        raise InvalidLaunchError(
            f"block needs {shared_bytes_per_block} B shared memory, SM has "
            f"{spec.shared_mem_bytes_per_sm} B"
        )
    warps_per_block = -(-threads_per_block // spec.warp_size)
    by_warps = spec.max_warps_per_sm // warps_per_block
    if shared_bytes_per_block > 0:
        by_shared = spec.shared_mem_bytes_per_sm // shared_bytes_per_block
    else:
        by_shared = by_warps
    blocks = max(1, min(by_warps, by_shared))
    return OccupancyResult(
        blocks_per_sm=blocks,
        warps_per_sm=blocks * warps_per_block,
        shared_bytes_per_block=shared_bytes_per_block,
    )
