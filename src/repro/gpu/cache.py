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
from dataclasses import dataclass, field

import numpy as np

from repro.gpu.device import DeviceSpec
from repro.utils.sorting import stable_argsort

_NEVER = -(1 << 62)

#: Sorted sector ids below this are stored as int32.
_INT32_LIMIT = 1 << 31


@dataclass(eq=False)
class SortedStream:
    """A sector stream in stable sorted order.

    ``order`` is the stable argsort of the raw stream and ``sectors`` the
    raw stream gathered by it, so equal sectors form runs whose
    positions (``order``) ascend.  Both are int32 where the values fit;
    ``sectors`` falls back to int64 for ids ``>= 2**31``.

    A stream walked through a :class:`CacheHierarchy` a second time
    keeps its :class:`RunSummary` for the hierarchy's windows in
    ``summary``; ``nbytes`` counts it.
    """

    order: np.ndarray
    sectors: np.ndarray
    walked: bool = field(default=False, init=False, repr=False)
    summary: RunSummary | None = field(default=None, init=False, repr=False)

    def __len__(self) -> int:
        return len(self.order)

    @property
    def nbytes(self) -> int:
        total = self.order.nbytes + self.sectors.nbytes
        if self.summary is not None:
            total += self.summary.nbytes
        return total


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


@dataclass(frozen=True, eq=False)
class _Runs:
    """One cache level's view of a sorted stream: each run's sector and
    the positions of its head and tail, the stream's length, and its
    static hits (non-head accesses within the window of the run's
    previous access, which no cache state can change)."""

    sectors: np.ndarray
    heads: np.ndarray
    tails: np.ndarray
    length: int
    static_hits: int


def _runs(stream: SortedStream, window: int):
    """Split a non-empty sorted stream into runs for ``window``.

    Returns the static hit mask in sorted order (heads read ``False``),
    the heads' indices into the sorted stream, and the :class:`_Runs`.
    """
    order, sectors = stream.order, stream.sectors
    n = len(order)
    if sectors[0] < 0:
        raise ValueError("negative sector id")
    hits = np.empty(n, dtype=bool)
    np.less_equal(np.diff(order), window, out=hits[1:])
    run_start = np.empty(n, dtype=bool)
    run_start[0] = True
    np.not_equal(sectors[1:], sectors[:-1], out=run_start[1:])
    heads = np.flatnonzero(run_start)
    hits[heads] = False
    tails = np.empty_like(heads)
    tails[:-1] = heads[1:] - 1
    tails[-1] = n - 1
    runs = _Runs(sectors.take(heads), order.take(heads), order.take(tails),
                 n, int(np.count_nonzero(hits)))
    return hits, heads, runs


def _miss_stream(stream: SortedStream, miss: np.ndarray) -> SortedStream:
    """The sorted stream of ``stream``'s accesses under ``miss`` (a mask
    in sorted order), as the next level sees them.

    Filtering keeps equal sectors in stream order, and a miss's
    position is its rank among the misses, so the result is sorted.
    """
    missed = stream.order.compress(miss).astype(np.intp)
    miss_in_stream = np.zeros(len(stream), dtype=bool)
    miss_in_stream[missed] = True
    rank = np.cumsum(miss_in_stream, dtype=stream.order.dtype)
    order = rank.take(missed)
    order -= 1
    return SortedStream(order, stream.sectors.compress(miss))


@dataclass(frozen=True, eq=False)
class RunSummary:
    """What a sorted stream does to an L1/L2 pair of reuse-window caches
    with windows ``windows``, apart from its run heads' lookups.

    ``l1`` holds the stream's runs.  ``l2`` holds the runs of the
    *canonical* L2 stream, the L1 misses when every L1 run head misses:
    every L1 run is then also an L2 run, so ``l2`` shares ``l1``'s
    sectors and holds each run's L2 head and tail ranks.  A replay in
    which no L1 head hits is exactly this canonical case and costs
    O(runs); any other replay takes the full walk.
    """

    windows: tuple[int, int]
    l1: _Runs
    l2: _Runs

    @property
    def nbytes(self) -> int:
        return (self.l1.sectors.nbytes + self.l1.heads.nbytes
                + self.l1.tails.nbytes + self.l2.heads.nbytes
                + self.l2.tails.nbytes)


def summarize(stream: SortedStream, l1_window: int,
              l2_window: int) -> RunSummary:
    """The :class:`RunSummary` of a non-empty sorted stream."""
    hits, _, l1 = _runs(stream, l1_window)
    _, _, l2 = _runs(_miss_stream(stream, ~hits), l2_window)
    l2 = _Runs(l1.sectors, l2.heads, l2.tails, l2.length, l2.static_hits)
    return RunSummary((l1_window, l2_window), l1, l2)


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

    def _lookup(self, runs: _Runs):
        """The head-hit mask of ``runs`` and their table slots.

        A run's head continues from the previous batches.  Only grows
        the table; changes no cache state.
        """
        self._ensure_capacity(int(runs.sectors[0]), int(runs.sectors[-1]))
        slots = np.subtract(runs.sectors, self._base, dtype=np.intp)
        gap = np.add(runs.heads, self._clock, dtype=np.int64)
        gap -= self._last.take(slots)
        return gap <= self.window, slots

    def _apply(self, runs: _Runs, head_hits: np.ndarray,
               slots: np.ndarray) -> int:
        """Advance the cache over ``runs``; returns their hit count.

        A run's tail is its sector's latest position, which the table
        keeps.
        """
        self._last[slots] = np.add(runs.tails, self._clock, dtype=np.int64)
        self._clock += runs.length
        hits = runs.static_hits + int(np.count_nonzero(head_hits))
        self.accesses += runs.length
        self.hits += hits
        return hits

    def walk(self, stream: SortedStream) -> np.ndarray:
        """Process a sorted stream; returns its hit mask in sorted order."""
        if len(stream) == 0:
            return np.zeros(0, dtype=bool)
        hits, heads, runs = _runs(stream, self.window)
        head_hits, slots = self._lookup(runs)
        hits[heads] = head_hits
        self._apply(runs, head_hits, slots)
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

        L2 sees the L1 misses in stream order, which
        :func:`_miss_stream` gives already sorted: L2 never sorts.  A
        stream walked before replays from its :class:`RunSummary`
        (built on its second walk) when no L1 run head hits.
        """
        if not isinstance(stream, SortedStream):
            stream = sort_stream(stream)
        n = len(stream)
        if n == 0:
            return HierarchyResult(0, 0, 0, 0, 0)
        summary = self._summary(stream)
        if summary is not None:
            l1_heads = self.unified._lookup(summary.l1)
            if not l1_heads[0].any():
                self.unified._apply(summary.l1, *l1_heads)
                l2_hits = self.l2._apply(summary.l2,
                                         *self.l2._lookup(summary.l2))
                return self._result(n, summary.l2.length, l2_hits)
        to_l2 = _miss_stream(stream, ~self.unified.walk(stream))
        return self._result(n, len(to_l2),
                            int(np.count_nonzero(self.l2.walk(to_l2))))

    def _summary(self, stream: SortedStream) -> RunSummary | None:
        """``stream``'s summary for the current windows; ``None`` on its
        first walk, so a stream walked once never pays for one."""
        windows = (self.unified.window, self.l2.window)
        if stream.summary is not None and stream.summary.windows == windows:
            return stream.summary
        if not stream.walked:
            stream.walked = True
            return None
        stream.summary = summarize(stream, *windows)
        return stream.summary

    @staticmethod
    def _result(accesses: int, l2_accesses: int,
                l2_hits: int) -> HierarchyResult:
        return HierarchyResult(
            accesses=accesses,
            unified_hits=accesses - l2_accesses,
            l2_accesses=l2_accesses,
            l2_hits=l2_hits,
            dram_transactions=l2_accesses - l2_hits,
        )

    def reset(self) -> None:
        self.unified.reset()
        self.l2.reset()
