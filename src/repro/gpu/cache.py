"""Cache models: a vectorized reuse-window LRU approximation (the
simulator's hot path) and an exact set-associative LRU (its validation
oracle on small traces).

Section V-A of the paper explains why graph traversal sees poor cache
behaviour on GPUs: per-warp cache shares are a few hundred bytes, so lines
are evicted before reuse (they measure ~19% L2 read hit rate for Tigr).
The reuse-window model captures exactly that mechanism: an access hits iff
the same sector was touched within the last ``window`` accesses, where the
window is the cache's sector capacity shrunk by a contention factor
standing in for the thousands of concurrently resident warps.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.gpu.device import DeviceSpec
from repro.utils.sorting import stable_argsort

_NEVER = -(1 << 62)

#: Sorted sector ids below this are stored as int32.
_INT32_LIMIT = 1 << 31


@dataclass(frozen=True)
class SortedStream:
    """A sector stream in stable sorted order.

    ``order`` is the stable argsort of the raw stream and ``sectors`` the
    raw stream gathered by it, so equal sectors form runs whose
    positions (``order``) ascend.  Both are int32 where the values fit;
    ``sectors`` falls back to int64 for ids ``>= 2**31``.
    """

    order: np.ndarray
    sectors: np.ndarray

    def __len__(self) -> int:
        return len(self.order)

    @property
    def nbytes(self) -> int:
        return self.order.nbytes + self.sectors.nbytes


def sort_stream(sectors: np.ndarray) -> SortedStream:
    """Stable-sort a raw sector stream into the form the caches walk."""
    sectors = np.asarray(sectors, dtype=np.int64)
    order = stable_argsort(sectors)
    ordered = sectors.take(order)
    if len(ordered) == 0 or (ordered[0] >= 0 and ordered[-1] < _INT32_LIMIT):
        ordered = ordered.astype(np.int32)
    if len(order) < _INT32_LIMIT:
        order = order.astype(np.int32)
    return SortedStream(order, ordered)


def sort_segments(segments: list[np.ndarray]) -> SortedStream:
    """Exactly ``sort_stream(np.concatenate(segments))``, sorted one
    *sort unit* at a time instead of as one stream.

    A sort unit is a set of segments whose sector ranges overlap,
    transitively.  Units cover disjoint sector ranges, so the sorted
    stream is the units' sorted streams in address order.  Each unit
    sorts one key per access, ``(sector - unit min, stream position)``:
    uint32 when it fits in 32 bits, uint64 otherwise.
    """
    sizes = [len(s) for s in segments]
    n = sum(sizes)
    spans = []
    offset = 0
    for seg, size in zip(segments, sizes):
        if size:
            spans.append((int(seg.min()), int(seg.max()), offset, seg))
        offset += size
    units: list[list] = []
    for span in sorted(spans, key=lambda s: s[0]):
        if units and span[0] <= units[-1][1]:
            units[-1][1] = max(units[-1][1], span[1])
            units[-1][2].append(span)
        else:
            units.append([span[0], span[1], [span]])
    pos_bits = (n - 1).bit_length() or 1
    if not units or units[0][0] < 0 or any(
            (hi - lo).bit_length() + pos_bits > 64 for lo, hi, _ in units):
        return sort_stream(np.concatenate(segments) if n else [])
    top = units[-1][1]

    order = np.empty(n, dtype=np.int32 if n < _INT32_LIMIT else np.int64)
    sectors = np.empty(n, dtype=np.int32 if top < _INT32_LIMIT else np.int64)
    pos_mask = (1 << pos_bits) - 1
    done = 0
    for lo, hi, members in units:
        key_type = (np.uint32 if (hi - lo).bit_length() + pos_bits <= 32
                    else np.uint64)
        size = sum(len(m[3]) for m in members)
        keys = np.empty(size, dtype=key_type)
        at = 0
        for _, _, start, seg in members:
            part = keys[at:at + len(seg)]
            np.subtract(seg, lo, out=part, casting="unsafe")
            part <<= pos_bits
            part |= np.arange(start, start + len(seg), dtype=key_type)
            at += len(seg)
        keys.sort()
        np.bitwise_and(keys, pos_mask, out=order[done:done + size],
                       casting="unsafe")
        out = sectors[done:done + size]
        np.right_shift(keys, pos_bits, out=out, casting="unsafe")
        out += lo
        done += size
    return SortedStream(order, sectors)


class ReuseWindowCache:
    """Approximate LRU: hit iff the sector recurs within ``window`` accesses.

    The reuse *distance in accesses* is a standard surrogate for the LRU
    stack distance; it is exact when every access touches a distinct line
    and optimistic otherwise, which the contention divisor compensates
    for.

    Fully vectorized over a :class:`SortedStream`.  Within a run of equal
    sectors a non-first access hits iff its position gap to the previous
    one is ``<= window``, which does not depend on the cache's state.
    Only each run's head reads the last-access table and only its tail
    writes it, so a stream sorted once (a memoized trace plan) replays
    without sorting again.
    """

    def __init__(self, window: int):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.window = int(window)
        # Last access position of sector ``_base + i`` is ``_last[i]``.
        self._last = np.empty(0, dtype=np.int64)
        self._base = 0
        self._clock = 0
        self.accesses = 0
        self.hits = 0

    def _ensure_capacity(self, lo: int, hi: int) -> None:
        """Grow the last-access table to cover sectors ``lo..hi``.

        The new table spans the sectors touched so far plus ``lo..hi``,
        with a quarter of that span as slack on either side.
        """
        base, size = self._base, len(self._last)
        if size and base <= lo and hi < base + size:
            return
        touched = np.flatnonzero(self._last != _NEVER)
        if len(touched):
            first, last = base + int(touched[0]), base + int(touched[-1])
            lo, hi = min(lo, first), max(hi, last)
        slack = (hi - lo) // 4 + 512
        new_base = max(0, lo - slack)
        grown = np.full(hi + slack + 1 - new_base, _NEVER, dtype=np.int64)
        if len(touched):
            grown[first - new_base: last + 1 - new_base] = \
                self._last[first - base: last + 1 - base]
        self._last = grown
        self._base = new_base

    def walk(self, stream: SortedStream) -> np.ndarray:
        """Process a sorted stream; returns its hit mask in sorted order."""
        order, sectors = stream.order, stream.sectors
        n = len(order)
        if n == 0:
            return np.zeros(0, dtype=bool)
        if sectors[0] < 0:
            raise ValueError("negative sector id")
        self._ensure_capacity(int(sectors[0]), int(sectors[-1]))

        window = self.window
        hits = np.empty(n, dtype=bool)
        np.less_equal(np.diff(order), window, out=hits[1:])
        run_start = np.empty(n, dtype=bool)
        run_start[0] = True
        np.not_equal(sectors[1:], sectors[:-1], out=run_start[1:])
        heads = np.flatnonzero(run_start)
        tails = np.empty_like(heads)
        tails[:-1] = heads[1:] - 1
        tails[-1] = n - 1
        slots = sectors.take(heads).astype(np.intp)
        slots -= self._base
        # A run's head continues from the previous batches; its tail is
        # the sector's latest position, which the table keeps.
        head_pos = order.take(heads).astype(np.int64)
        head_pos += self._clock
        hits[heads] = head_pos - self._last.take(slots) <= window
        tail_pos = order.take(tails).astype(np.int64)
        tail_pos += self._clock
        self._last[slots] = tail_pos
        self._clock += n
        self.accesses += n
        self.hits += int(np.count_nonzero(hits))
        return hits

    def access(self, sectors: np.ndarray) -> np.ndarray:
        """Process a raw access stream; returns its hit mask in stream order."""
        stream = sort_stream(sectors)
        hits = np.empty(len(stream), dtype=bool)
        hits[stream.order] = self.walk(stream)
        return hits

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def reset(self) -> None:
        self._last.fill(_NEVER)
        self._clock = 0
        self.accesses = 0
        self.hits = 0


class ExactLRUCache:
    """Reference set-associative LRU cache (slow, for tests).

    Models ``capacity_bytes`` of ``line_bytes`` lines with ``ways``-way
    associativity and true per-set LRU replacement.
    """

    def __init__(self, capacity_bytes: int, line_bytes: int = 32, ways: int = 8):
        n_lines = capacity_bytes // line_bytes
        if n_lines < ways:
            raise ValueError("cache smaller than one set")
        self.num_sets = n_lines // ways
        self.ways = ways
        self.line_bytes = line_bytes
        self._sets: list[OrderedDict] = [OrderedDict() for _ in range(self.num_sets)]
        self.accesses = 0
        self.hits = 0

    def access(self, sectors: np.ndarray) -> np.ndarray:
        sectors = np.asarray(sectors, dtype=np.int64)
        hits = np.zeros(len(sectors), dtype=bool)
        for i, sector in enumerate(sectors):
            s = self._sets[int(sector) % self.num_sets]
            if sector in s:
                s.move_to_end(sector)
                hits[i] = True
            else:
                if len(s) >= self.ways:
                    s.popitem(last=False)
                s[int(sector)] = True
        self.accesses += len(sectors)
        self.hits += int(hits.sum())
        return hits

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


@dataclass
class HierarchyResult:
    """Outcome of routing one access stream through L1 -> L2 -> DRAM."""

    accesses: int
    unified_hits: int
    l2_accesses: int
    l2_hits: int
    dram_transactions: int

    @property
    def dram_bytes(self) -> int:
        return self.dram_transactions * 32


class CacheHierarchy:
    """Unified cache (L1+texture) in front of the device-wide L2.

    Transactions that miss the unified cache are forwarded to L2;
    L2 misses become DRAM sector reads.  Window sizes derive from the
    device spec's cache capacities shrunk by the contention divisor.
    """

    def __init__(self, spec: DeviceSpec):
        self.spec = spec
        sector = spec.sector_bytes
        l1_window = max(64, int(spec.total_unified_cache_bytes / sector
                                / spec.cache_contention))
        l2_window = max(128, int(spec.l2_cache_bytes / sector
                                 / spec.cache_contention))
        self.unified = ReuseWindowCache(l1_window)
        self.l2 = ReuseWindowCache(l2_window)

    def access(self, stream: np.ndarray | SortedStream) -> HierarchyResult:
        """Route a raw sector array or a :class:`SortedStream` through
        L1 and L2.

        L2 sees the L1 misses in stream order.  Filtering the sorted
        L1 stream by its miss mask keeps equal sectors in stream order,
        and a miss's L2 position is its rank among the misses, so L2's
        stream arrives sorted: L2 never sorts.
        """
        if not isinstance(stream, SortedStream):
            stream = sort_stream(stream)
        n = len(stream)
        l1_miss = ~self.unified.walk(stream)
        missed = stream.order.compress(l1_miss).astype(np.intp)
        miss_in_stream = np.zeros(n, dtype=bool)
        miss_in_stream[missed] = True
        rank = np.cumsum(miss_in_stream, dtype=stream.order.dtype)
        l2_order = rank.take(missed)
        l2_order -= 1
        to_l2 = SortedStream(l2_order, stream.sectors.compress(l1_miss))
        l2_accesses = len(to_l2)
        l2_hits = int(np.count_nonzero(self.l2.walk(to_l2)))
        return HierarchyResult(
            accesses=n,
            unified_hits=n - l2_accesses,
            l2_accesses=l2_accesses,
            l2_hits=l2_hits,
            dram_transactions=l2_accesses - l2_hits,
        )

    def reset(self) -> None:
        self.unified.reset()
        self.l2.reset()
