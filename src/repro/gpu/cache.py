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

#: The head hit mask of a walk that reads no head (never written to).
_NO_HEADS = np.zeros(0, dtype=bool)
_NO_HEADS.flags.writeable = False

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
    gets its :class:`RunSummary` for the hierarchy's windows in
    ``summary`` and *releases* ``order`` and ``sectors`` (both become
    ``None``): every later walk replays from the summary, so the stream
    keeps only its length.  ``nbytes`` counts what it holds.
    """

    order: np.ndarray | None
    sectors: np.ndarray | None
    walked: bool = field(default=False, init=False, repr=False)
    summary: RunSummary | None = field(default=None, init=False, repr=False)
    length: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.length = len(self.order)

    def __len__(self) -> int:
        return self.length

    @property
    def nbytes(self) -> int:
        total = 0
        if self.order is not None:
            total += self.order.nbytes + self.sectors.nbytes
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
    """What one cache level's walk of a sorted stream reads from and
    writes to its last-access table.

    ``head_sectors``/``heads`` are the sector and stream position of
    every run head at position ``< window``: a later head has gap
    ``>= position + 1 > window`` whatever the table holds, so it misses
    unread.  ``tail_sectors``/``tails`` are those of every run tail at
    position ``>= length - window``: an earlier tail is more than a
    window old at every later access, and so is whatever older value
    its slot keeps, so it is not written.  Both are in sector order.
    ``static_hits`` counts the non-head accesses within the window of
    their run's previous access, which no cache state can change.
    ``lo``/``hi`` bound every sector the walk reads or writes (``hi <
    lo`` when it touches none), so a replay checks the table's extent
    once.
    """

    head_sectors: np.ndarray
    heads: np.ndarray
    tail_sectors: np.ndarray
    tails: np.ndarray
    length: int
    static_hits: int
    lo: int = field(init=False)
    hi: int = field(init=False)

    def __post_init__(self) -> None:
        heads, tails = self.head_sectors, self.tail_sectors
        lo, hi = 0, -1
        if len(heads):
            lo, hi = int(heads[0]), int(heads[-1])
        if len(tails):
            first, last = int(tails[0]), int(tails[-1])
            lo, hi = (first, last) if hi < lo else \
                (min(lo, first), max(hi, last))
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def nbytes(self) -> int:
        return (self.head_sectors.nbytes + self.heads.nbytes
                + self.tail_sectors.nbytes + self.tails.nbytes)


def _runs(stream: SortedStream, window: int):
    """Split a non-empty sorted stream into runs for ``window``.

    Returns the static hit mask in sorted order (heads read ``False``),
    the indices into the sorted stream of the heads :class:`_Runs`
    keeps, and the :class:`_Runs`.
    """
    order, sectors = stream.order, stream.sectors
    if order is None:
        raise ValueError("stream was released by its run summary")
    n = len(order)
    if sectors[0] < 0:
        raise ValueError("negative sector id")
    hits = np.empty(n, dtype=bool)
    hits[0] = False
    np.less_equal(np.diff(order), window, out=hits[1:])
    run_start = np.empty(n, dtype=bool)
    run_start[0] = True
    np.not_equal(sectors[1:], sectors[:-1], out=run_start[1:])
    np.greater(hits, run_start, out=hits)
    # A head opens a run; a tail is followed by a head or ends the
    # stream.
    early = np.less(order, window)
    early &= run_start
    early_heads = np.flatnonzero(early)
    late = np.greater_equal(order, n - window)
    late[:-1] &= run_start[1:]
    late_tails = np.flatnonzero(late)
    runs = _Runs(sectors.take(early_heads), order.take(early_heads),
                 sectors.take(late_tails), order.take(late_tails),
                 n, int(np.count_nonzero(hits)))
    return hits, early_heads, runs


def _miss_stream(stream: SortedStream,
                 miss: np.ndarray) -> tuple[SortedStream, np.ndarray]:
    """The sorted stream of ``stream``'s accesses under ``miss`` (a mask
    in sorted order), as the next level sees them, and each stream
    position's count of misses up to and including it.

    Filtering keeps equal sectors in stream order, and a miss's
    position is its rank among the misses, so the result is sorted.
    """
    missed = stream.order.compress(miss).astype(np.intp)
    miss_in_stream = np.zeros(len(stream), dtype=bool)
    miss_in_stream[missed] = True
    rank = np.cumsum(miss_in_stream, dtype=stream.order.dtype)
    order = rank.take(missed)
    order -= 1
    return SortedStream(order, stream.sectors.compress(miss)), rank


@dataclass(frozen=True, eq=False)
class RunSummary:
    """What a sorted stream does to an L1/L2 pair of reuse-window caches
    with windows ``windows``, in O(W1 + W2) arrays.

    ``l1`` holds the stream's L1 early heads, late tails and static hits
    (:class:`_Runs`).  The *canonical* L2 stream is the L1 misses when
    every L1 early head misses; ``l2`` holds its early heads, late tails
    and static hits.  A replay in which no L1 early head hits is exactly
    the canonical case.

    A replay in which ``d`` early heads hit sends the canonical L2
    stream minus those ``d`` accesses.  ``l1_ranks`` holds each L1 early
    head's position in the canonical L2 stream, all below ``k``, the
    number of canonical L2 accesses from L1 positions ``< W1``.
    ``prefix`` holds the first ``M = min(n2, k + W2)`` canonical L2
    sectors in issue order: the replay deletes the hitting heads from it
    and walks it exactly.  Every later access keeps its canonical
    outcome, so ``rest`` holds only the static hits and the late tails
    after ``M`` (positions relative to ``M``); see docs/performance.md
    for the proof.
    """

    windows: tuple[int, int]
    l1: _Runs
    l1_ranks: np.ndarray
    l2: _Runs
    prefix: np.ndarray
    rest: _Runs

    @property
    def nbytes(self) -> int:
        return (self.l1.nbytes + self.l1_ranks.nbytes + self.l2.nbytes
                + self.prefix.nbytes + self.rest.nbytes)


def summarize(stream: SortedStream, l1_window: int,
              l2_window: int) -> RunSummary:
    """The :class:`RunSummary` of a non-empty sorted stream."""
    hits, _, l1 = _runs(stream, l1_window)
    canonical, rank = _miss_stream(stream, ~hits)
    l1_ranks = rank.take(l1.heads)
    l1_ranks -= 1
    k = int(rank[min(len(stream), l1_window) - 1])
    hits2, _, l2 = _runs(canonical, l2_window)
    n2 = len(canonical)
    m = min(n2, k + l2_window)
    in_prefix = canonical.order < m
    prefix = np.empty(m, dtype=canonical.sectors.dtype)
    prefix[canonical.order.compress(in_prefix)] = \
        canonical.sectors.compress(in_prefix)
    # After the prefix every head is a late head, which misses unread;
    # the static hits there are ``hits2`` outside the prefix.
    after = l2.tails >= m
    rest_tails = l2.tails.compress(after)
    rest_tails -= m
    rest = _Runs(l2.head_sectors[:0].copy(), l2.heads[:0].copy(),
                 l2.tail_sectors.compress(after), rest_tails, n2 - m,
                 int(np.count_nonzero(hits2 > in_prefix)))
    return RunSummary((l1_window, l2_window), l1, l1_ranks, l2, prefix,
                      rest)


class ReuseWindowCache:
    """Approximate LRU: hit iff the sector recurs within ``window`` accesses.

    The reuse *distance in accesses* is a standard surrogate for the LRU
    stack distance; it is exact when every access touches a distinct line
    and optimistic otherwise, which the contention divisor compensates
    for.

    Fully vectorized over a :class:`SortedStream`.  Within a run of equal
    sectors a non-first access hits iff its position gap to the previous
    one is ``<= window``, which does not depend on the cache's state.
    Only run heads within a window of the stream's start read the
    last-access table, and only run tails within a window of its end
    write it (:class:`_Runs`), so each walk touches O(window) table
    slots.  The table therefore holds exact values only for sectors
    touched within the last ``window`` accesses; any other slot is more
    than a window old, which is all a later lookup needs.  That is why
    ``window`` is fixed at construction: a window that grew could reach
    a slot that was not written.
    """

    def __init__(self, window: int):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self._window = int(window)
        # Last access position of sector ``_base + i`` is ``_last[i]``;
        # the table covers sectors ``_base .. _end - 1``.
        self._last = np.empty(0, dtype=np.int64)
        self._base = 0
        self._end = 0
        self._clock = 0
        self.accesses = 0
        self.hits = 0

    @property
    def window(self) -> int:
        return self._window

    def _grow(self, lo: int, hi: int) -> None:
        """Grow the last-access table, which does not cover all of
        sectors ``lo..hi``, to cover them.

        The new table spans the sectors touched so far plus ``lo..hi``,
        with a quarter of that span as slack on either side.
        """
        base = self._base
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
        self._end = new_base + len(grown)

    def replay(self, runs: _Runs) -> tuple[np.ndarray, int]:
        """Advance the cache over ``runs``, which continue from the
        previous batches; returns the hit mask of their heads and their
        hit count.

        The heads are looked up before the tails are written: a run's
        tail is its sector's latest position, which the table keeps.
        One extent check covers both.
        """
        lo, hi = runs.lo, runs.hi
        if lo <= hi and not (self._base <= lo and hi < self._end):
            self._grow(lo, hi)
        last, base, clock = self._last, self._base, self._clock
        head_hits = _NO_HEADS
        hits = runs.static_hits
        if len(runs.heads):
            gap = np.add(runs.heads, clock, dtype=np.int64)
            gap -= last.take(np.subtract(runs.head_sectors, base,
                                         dtype=np.intp))
            head_hits = gap <= self._window
            hits += int(np.count_nonzero(head_hits))
        if len(runs.tails):
            last[np.subtract(runs.tail_sectors, base, dtype=np.intp)] = \
                np.add(runs.tails, clock, dtype=np.int64)
        self._clock = clock + runs.length
        self.accesses += runs.length
        self.hits += hits
        return head_hits, hits

    def walk(self, stream: SortedStream) -> np.ndarray:
        """Process a sorted stream; returns its hit mask in sorted order."""
        if len(stream) == 0:
            return np.zeros(0, dtype=bool)
        hits, heads, runs = _runs(stream, self._window)
        hits[heads] = self.replay(runs)[0]
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
        (built on its second walk) in O(W1 + W2): the L1 early heads
        are looked up, and if none hits, the canonical L2 heads and
        tails apply; otherwise the L2 prefix, less the hitting heads,
        is walked exactly and the rest of the L2 stream applies.
        """
        if not isinstance(stream, SortedStream):
            stream = sort_stream(stream)
        n = stream.length
        if n == 0:
            return HierarchyResult(0, 0, 0, 0, 0)
        unified, l2 = self.unified, self.l2
        summary = stream.summary
        if summary is None or summary.windows != (unified._window,
                                                  l2._window):
            summary = self._summary(stream)
        if summary is None:
            to_l2, _ = _miss_stream(stream, ~unified.walk(stream))
            return self._result(n, len(to_l2),
                                int(np.count_nonzero(l2.walk(to_l2))))
        l1_hits, l1_hit_count = unified.replay(summary.l1)
        if l1_hit_count == summary.l1.static_hits:
            # No L1 early head hit: the canonical L2 stream.
            return self._result(n, summary.l2.length,
                                l2.replay(summary.l2)[1])
        hit_ranks = summary.l1_ranks.compress(l1_hits)
        prefix = sort_stream(np.delete(summary.prefix, hit_ranks))
        l2_hits = int(np.count_nonzero(l2.walk(prefix)))
        l2_hits += l2.replay(summary.rest)[1]
        return self._result(n, summary.l2.length - len(hit_ranks), l2_hits)

    def _summary(self, stream: SortedStream) -> RunSummary | None:
        """``stream``'s summary; ``None`` on its first walk, so a stream
        walked once never pays for one.  Building it releases the
        stream's arrays, so a summary for other windows cannot be built
        again: walking it through such a hierarchy raises."""
        windows = (self.unified.window, self.l2.window)
        summary = stream.summary
        if summary is not None:
            if summary.windows != windows:
                raise ValueError(
                    f"stream was summarized for windows {summary.windows} "
                    f"and released; this hierarchy has {windows}")
            return summary
        if not stream.walked:
            stream.walked = True
            return None
        stream.summary = summarize(stream, *windows)
        stream.order = stream.sectors = None
        return stream.summary

    @staticmethod
    def _result(accesses: int, l2_accesses: int,
                l2_hits: int) -> HierarchyResult:
        return HierarchyResult(accesses, accesses - l2_accesses,
                               l2_accesses, l2_hits, l2_accesses - l2_hits)

    def reset(self) -> None:
        self.unified.reset()
        self.l2.reset()
