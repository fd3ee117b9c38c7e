"""Memory-coalescing model: warp accesses -> 32-byte sector transactions.

Section V-A of the paper: "memory requests from a warp are transformed
into cache line requests with a size of 32B".  A warp instruction that
reads 32 scattered 4-byte values therefore costs up to 32 transactions,
while a contiguous 128-byte read costs 4.

The central primitive here is :func:`coalesce`: given per-access byte
addresses and an integer *group key* identifying which accesses are issued
simultaneously (same warp, same step — or same warp for an unrolled SMP
burst), it returns one representative sector per transaction.  It is one
sorted dedup over a packed 64-bit ``(group, sector)`` key.

:class:`repro.gpu.traceplan.TracePlan` builds a launch's trace one
accessed array at a time and skips the packed keys: each coalescing
group (a warp step of a scattered stream, or a warp of a burst) is one
row of a dense buffer, and :func:`coalesce_rows` dedups the rows after
a row sort.  :func:`coalesce` and :func:`contiguous_run_sectors` give
the same transactions from per-access or per-run inputs.
"""

from __future__ import annotations

import numpy as np

from repro.utils.ragged import ragged_arange
from repro.utils.sorting import sorted_unique

#: Bits reserved for the sector id inside the packed (group, sector) key.
#: 2**38 sectors * 32 B = 8 TiB of address space — far beyond any
#: simulated allocation.
_SECTOR_BITS = 38
_SECTOR_MASK = (1 << _SECTOR_BITS) - 1


def sector_of(addresses: np.ndarray, sector_bytes: int = 32) -> np.ndarray:
    """Sector id for each byte address."""
    addresses = np.asarray(addresses, dtype=np.int64)
    if sector_bytes & (sector_bytes - 1) == 0:
        return addresses >> (sector_bytes.bit_length() - 1)
    return addresses // sector_bytes


def coalesce(
    addresses: np.ndarray,
    group_keys: np.ndarray,
    sector_bytes: int = 32,
) -> np.ndarray:
    """Coalesce simultaneous accesses into unique sector transactions.

    Parameters
    ----------
    addresses:
        Byte address of every individual access.
    group_keys:
        Same-length int array; accesses sharing a key are issued by the
        same warp in the same cycle and may be merged by the coalescer.

    Returns
    -------
    The sector ids of the resulting transactions, ordered by
    ``(group, sector)`` — i.e. roughly in issue order.  ``len(result)`` is
    the transaction count; the array doubles as the access stream fed to
    the cache model.
    """
    addresses = np.asarray(addresses, dtype=np.int64)
    group_keys = np.asarray(group_keys, dtype=np.int64)
    if addresses.shape != group_keys.shape:
        raise ValueError(
            f"addresses/group_keys shape mismatch: "
            f"{addresses.shape} vs {group_keys.shape}"
        )
    if len(addresses) == 0:
        return np.empty(0, dtype=np.int64)
    return _dedup_packed(group_keys, sector_of(addresses, sector_bytes))


def _dedup_packed(groups: np.ndarray, sectors: np.ndarray) -> np.ndarray:
    """Unique ``(group, sector)`` pairs, ordered by group then sector, as
    sectors: one sorted dedup over packed ``(group << 38) | sector``
    keys."""
    check_address_space(int(sectors.max()))
    packed = sorted_unique((groups << _SECTOR_BITS) | sectors)
    return packed & _SECTOR_MASK


def check_address_space(max_sector: int) -> None:
    """Reject a stream whose sectors do not fit the packed key layout."""
    if max_sector > _SECTOR_MASK:
        raise ValueError("address exceeds simulated address space")


def coalesce_rows(rows: np.ndarray, sentinel: int) -> np.ndarray:
    """Coalesce a dense buffer with one coalescing group per row.

    ``rows`` is 2-D and C-contiguous: row ``r`` holds the sectors one
    group reads (a warp's lanes at one loop step, or a warp's bursts),
    and ``sentinel`` (larger than any sector) fills the slots with no
    access.  The rows are sorted in place.  Returns the unique sectors
    of every row, rows in order: exactly :func:`coalesce` over the same
    accesses with one group key per row, ascending in row order.
    """
    rows.sort(axis=1)
    flat = rows.reshape(-1)
    keep = np.empty(len(flat), dtype=bool)
    if len(flat):
        np.not_equal(flat[1:], flat[:-1], out=keep[1:])
        keep[::rows.shape[1]] = True
        keep &= flat != sentinel
    return flat[keep]


def warp_ids(n_threads: int, warp_size: int = 32) -> np.ndarray:
    """Warp index of each thread in a flat 1-thread-per-item launch."""
    return np.arange(n_threads, dtype=np.int64) // warp_size


def strided_group_keys(
    thread_ids: np.ndarray, steps: np.ndarray, warp_size: int = 32
) -> np.ndarray:
    """Group key for "lane ``t`` issues its ``step``-th access": accesses
    of the same warp at the same loop step coalesce together.

    This is the access pattern of a *non*-SMP vertex-centric kernel: at
    loop step ``s`` every lane reads its own adjacency slot ``s`` —
    simultaneous but scattered.

    Keys are **step-major**: all warps' step-``s`` accesses precede any
    warp's step ``s+1``.  Since :func:`coalesce` orders the resulting
    transaction stream by key, this models warp interleaving on the SMs —
    a warp's consecutive loop iterations are separated by every other
    resident warp's accesses, which is precisely the cache-thrash
    mechanism of Section V-A (lines evicted before step-to-step reuse).
    """
    thread_ids = np.asarray(thread_ids, dtype=np.int64)
    steps = np.asarray(steps, dtype=np.int64)
    if len(thread_ids) == 0:
        return np.empty(0, dtype=np.int64)
    num_warps = int(thread_ids.max()) // warp_size + 1
    return steps * num_warps + (thread_ids // warp_size)


def burst_group_keys(
    thread_ids: np.ndarray, warp_size: int = 32
) -> np.ndarray:
    """Group key for an unrolled SMP burst: *all* of a warp's prefetch
    loads are in flight together, so the coalescer may merge across both
    lanes and steps (Section V-B)."""
    return np.asarray(thread_ids, dtype=np.int64) // warp_size


def contiguous_run_sectors(
    start_addresses: np.ndarray,
    lengths_bytes: np.ndarray,
    group_keys: np.ndarray,
    sector_bytes: int = 32,
) -> np.ndarray:
    """Transactions for per-lane *contiguous* reads of given byte lengths.

    Equivalent to expanding every byte range into word accesses and
    calling :func:`coalesce`, but computed per run: a contiguous run of
    ``L`` bytes starting at ``a`` touches sectors ``a//32 .. (a+L-1)//32``.
    Used for SMP adjacency bursts, where each lane reads its whole CSR
    slice front-to-back.
    """
    start = np.asarray(start_addresses, dtype=np.int64)
    length = np.asarray(lengths_bytes, dtype=np.int64)
    group = np.asarray(group_keys, dtype=np.int64)
    if not (len(start) == len(length) == len(group)):
        raise ValueError("start/length/group length mismatch")
    nonzero = length > 0
    start, length, group = start[nonzero], length[nonzero], group[nonzero]
    if len(start) == 0:
        return np.empty(0, dtype=np.int64)
    first = sector_of(start, sector_bytes)
    counts = sector_of(start + length - 1, sector_bytes) - first + 1
    return _dedup_packed(
        np.repeat(group, counts),
        np.repeat(first, counts) + ragged_arange(counts),
    )
