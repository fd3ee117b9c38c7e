"""Tests for the cache models, including cross-validation of the
reuse-window approximation against the exact LRU oracle."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.gpu.cache import (
    CacheHierarchy,
    ExactLRUCache,
    ReuseWindowCache,
    SortedStream,
    sort_stream,
)
from repro.gpu import cache as cache_module
from repro.gpu.device import GTX_1080TI


class TestReuseWindow:
    def test_first_access_misses(self):
        c = ReuseWindowCache(window=10)
        assert not c.access(np.array([5]))[0]

    def test_immediate_reuse_hits(self):
        c = ReuseWindowCache(window=10)
        hits = c.access(np.array([5, 5]))
        assert list(hits) == [False, True]

    def test_reuse_beyond_window_misses(self):
        c = ReuseWindowCache(window=3)
        stream = np.array([1, 2, 3, 4, 1])  # distance 4 > window 3
        hits = c.access(stream)
        assert not hits[-1]

    def test_reuse_within_window_hits(self):
        c = ReuseWindowCache(window=4)
        hits = c.access(np.array([1, 2, 3, 4, 1]))
        assert hits[-1]

    def test_state_persists_across_batches(self):
        c = ReuseWindowCache(window=10)
        c.access(np.array([7]))
        assert c.access(np.array([7]))[0]

    def test_duplicates_within_batch(self):
        c = ReuseWindowCache(window=2)
        hits = c.access(np.array([9, 0, 9, 0, 9]))
        assert list(hits) == [False, False, True, True, True]

    def test_hit_rate_counter(self):
        c = ReuseWindowCache(window=10)
        c.access(np.array([1, 1, 1, 1]))
        assert c.hit_rate == 0.75

    def test_reset(self):
        c = ReuseWindowCache(window=10)
        c.access(np.array([3]))
        c.reset()
        assert not c.access(np.array([3]))[0]
        assert c.accesses == 1

    def test_negative_sector_rejected(self):
        c = ReuseWindowCache(window=4)
        with pytest.raises(ValueError):
            c.access(np.array([-1]))

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            ReuseWindowCache(window=0)

    def test_empty_batch(self):
        c = ReuseWindowCache(window=4)
        assert len(c.access(np.empty(0, dtype=np.int64))) == 0

    @given(st.lists(st.integers(0, 30), min_size=1, max_size=300),
           st.integers(1, 50))
    @settings(max_examples=50, deadline=None)
    def test_matches_sequential_reference(self, stream, window):
        """The vectorized batch result must equal element-at-a-time
        processing (the definition of the model)."""
        batch = ReuseWindowCache(window)
        got = batch.access(np.array(stream))
        seq = ReuseWindowCache(window)
        expected = [bool(seq.access(np.array([s]))[0]) for s in stream]
        assert list(got) == expected

    def test_fully_associative_equivalence(self):
        """With distinct-sector streams, reuse distance == stack distance,
        so the window model matches a fully-associative LRU of the same
        line count."""
        rng = np.random.default_rng(0)
        stream = rng.integers(0, 64, size=2000)
        window = 32
        approx = ReuseWindowCache(window)
        # Fully associative LRU: one set, `window` ways.
        exact = ExactLRUCache(window * 32, line_bytes=32, ways=window)
        a = approx.access(stream)
        e = exact.access(stream)
        # Not identical (duplicates shrink true stack distance), but the
        # approximation must track closely on uniform traffic.
        assert abs(a.mean() - e.mean()) < 0.1


class TestExactLRU:
    def test_basic_hit(self):
        c = ExactLRUCache(1024, ways=4)
        c.access(np.array([1]))
        assert c.access(np.array([1]))[0]

    def test_eviction_order(self):
        # One set of 2 ways: fill with stride num_sets to land in set 0.
        c = ExactLRUCache(2 * 32, ways=2)
        assert c.num_sets == 1
        c.access(np.array([0, 1]))
        c.access(np.array([2]))  # evicts 0
        assert not c.access(np.array([0]))[0]
        assert c.access(np.array([2]))[0]

    def test_lru_refresh_on_hit(self):
        c = ExactLRUCache(2 * 32, ways=2)
        c.access(np.array([0, 1, 0]))  # 0 refreshed -> 1 is LRU
        c.access(np.array([2]))  # evicts 1
        assert c.access(np.array([0]))[0]
        assert not c.access(np.array([1]))[0]

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            ExactLRUCache(32, ways=8)


class TestHierarchy:
    def test_l1_hit_does_not_reach_l2(self):
        h = CacheHierarchy(GTX_1080TI)
        h.access(np.array([1]))
        r = h.access(np.array([1]))
        assert r.unified_hits == 1
        assert r.l2_accesses == 0
        assert r.dram_transactions == 0

    def test_cold_miss_goes_to_dram(self):
        h = CacheHierarchy(GTX_1080TI)
        r = h.access(np.arange(100) * 10_000)
        assert r.unified_hits == 0
        assert r.l2_accesses == 100
        assert r.dram_transactions == 100
        assert r.dram_bytes == 3200

    def test_l2_larger_than_l1(self):
        h = CacheHierarchy(GTX_1080TI)
        assert h.l2.window > h.unified.window

    def test_reset(self):
        h = CacheHierarchy(GTX_1080TI)
        h.access(np.array([1, 1]))
        h.reset()
        r = h.access(np.array([1]))
        assert r.unified_hits == 0


# ----------------------------------------------------------------------
# Adversarial streams: batch-split invariance and agreement with the
# exact LRU oracle (PR 3's fast stable-order path must not change either)
# ----------------------------------------------------------------------

def _duplicate_heavy_stream(rng, n, n_sectors):
    """A stream dominated by repeats: a few hot sectors plus noise."""
    hot = rng.integers(0, max(n_sectors // 16, 1), size=n)
    cold = rng.integers(0, n_sectors, size=n)
    take_hot = rng.random(n) < 0.7
    return np.where(take_hot, hot, cold).astype(np.int64)


class TestBatchSplitInvariance:
    """One access() call vs the same stream cut into arbitrary batches:
    the persistent last-access table must hand reuse across the cut."""

    @pytest.mark.parametrize("seed", range(5))
    def test_split_anywhere_same_hits(self, seed):
        rng = np.random.default_rng(seed)
        stream = _duplicate_heavy_stream(rng, 600, 300)
        whole = ReuseWindowCache(window=64)
        hits_whole = whole.access(stream)
        cuts = sorted(rng.integers(1, len(stream), size=3))
        split = ReuseWindowCache(window=64)
        parts = np.split(stream, cuts)
        hits_split = np.concatenate([split.access(p) for p in parts])
        assert np.array_equal(hits_whole, hits_split)
        assert whole.hits == split.hits

    def test_cross_batch_reuse_straddles_calls(self):
        c = ReuseWindowCache(window=8)
        assert list(c.access(np.array([7, 7, 3]))) == [False, True, False]
        # 3 was last touched one access ago, 7 two accesses ago: both
        # within the window even though the batch boundary intervened.
        assert list(c.access(np.array([3, 7]))) == [True, True]

    @given(st.lists(st.integers(0, 40), min_size=1, max_size=120),
           st.integers(1, 119))
    @settings(max_examples=50, deadline=None)
    def test_property_split_invariance(self, values, cut):
        stream = np.array(values, dtype=np.int64)
        cut = min(cut, len(stream))
        a, b = ReuseWindowCache(16), ReuseWindowCache(16)
        whole = a.access(stream)
        split = np.concatenate([b.access(stream[:cut]),
                                b.access(stream[cut:])])
        assert np.array_equal(whole, split)


class TestReuseWindowVsExactLRU:
    """Reuse distance *in accesses* upper-bounds LRU stack distance, so
    with window == line count every reuse-window hit must also hit in a
    fully-associative exact LRU of the same capacity — including across
    access() boundaries and under heavy duplication."""

    def _agree(self, stream, lines, batches=1):
        rw = ReuseWindowCache(window=lines)
        lru = ExactLRUCache(
            capacity_bytes=lines * 32, line_bytes=32, ways=lines
        )
        rw_hits = []
        lru_hits = []
        for part in np.array_split(stream, batches):
            if len(part) == 0:
                continue
            rw_hits.append(rw.access(part))
            lru_hits.append(lru.access(part))
        rw_hits = np.concatenate(rw_hits)
        lru_hits = np.concatenate(lru_hits)
        # Containment: reuse-window is a conservative LRU.
        assert not np.any(rw_hits & ~lru_hits)
        return rw_hits, lru_hits

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("batches", [1, 7])
    def test_hits_contained_in_exact_lru(self, seed, batches):
        rng = np.random.default_rng(seed)
        stream = _duplicate_heavy_stream(rng, 800, 500)
        self._agree(stream, lines=64, batches=batches)

    def test_exact_agreement_on_distinct_line_streams(self):
        # When every access in the window touches a distinct line the
        # reuse distance equals the stack distance: the models coincide.
        stream = np.concatenate([np.arange(32), np.arange(32)])
        rw_hits, lru_hits = self._agree(stream, lines=64)
        assert np.array_equal(rw_hits, lru_hits)
        assert list(rw_hits[:32]) == [False] * 32
        assert list(rw_hits[32:]) == [True] * 32

    def test_duplicate_heavy_single_sector(self):
        stream = np.zeros(100, dtype=np.int64)
        rw_hits, lru_hits = self._agree(stream, lines=8, batches=5)
        assert np.array_equal(rw_hits, lru_hits)
        assert rw_hits.sum() == 99


# ----------------------------------------------------------------------
# The sorted-domain walk against a per-access Python loop
# ----------------------------------------------------------------------

class _NaiveLevel:
    """One reuse-window level, one access at a time (the model's
    definition)."""

    def __init__(self, window):
        self.window = window
        self.last = {}
        self.clock = 0

    def access(self, sector):
        prev = self.last.get(sector)
        hit = prev is not None and self.clock - prev <= self.window
        self.last[sector] = self.clock
        self.clock += 1
        return hit


class _NaiveHierarchy:
    def __init__(self, hier):
        self.l1 = _NaiveLevel(hier.unified.window)
        self.l2 = _NaiveLevel(hier.l2.window)

    def access(self, batch):
        """The five counts of :class:`HierarchyResult`, in field order."""
        l1_hits = l2_accesses = l2_hits = 0
        for sector in batch:
            if self.l1.access(int(sector)):
                l1_hits += 1
            else:
                l2_accesses += 1
                l2_hits += self.l2.access(int(sector))
        return (len(batch), l1_hits, l2_accesses, l2_hits,
                l2_accesses - l2_hits)


def _table(cache, naive):
    """A reuse-window cache's *live* last-access entries, those at most a
    window old, as {sector: position}; they must equal the per-access
    loop's.  Every other entry must be more than a window old, and no
    entry may be newer than the sector's true last access."""
    touched = np.flatnonzero(cache._last != cache_module._NEVER)
    table = {cache._base + int(i): int(cache._last[i]) for i in touched}
    live = {s: t for s, t in table.items()
            if cache._clock - t <= cache.window}
    for sector, t in table.items():
        assert t <= naive.last[sector]
    want = {s: t for s, t in naive.last.items()
            if naive.clock - t <= naive.window}
    assert live == want
    return live


def _counts(result):
    return (result.accesses, result.unified_hits, result.l2_accesses,
            result.l2_hits, result.dram_transactions)


def _hierarchy(l1_window, l2_window):
    """A hierarchy whose levels have the given windows."""
    hier = CacheHierarchy(GTX_1080TI)
    hier.unified = ReuseWindowCache(l1_window)
    hier.l2 = ReuseWindowCache(l2_window)
    return hier


def _batches(rng, low):
    """Consecutive batches over sectors ``low..low+9000``: random reuse,
    an empty batch, a batch that hits L1 on every access (L2 sees an
    empty stream), a replay of the first batch, and batches reaching
    below and above everything seen so far (the table grows both
    ways)."""
    def draw(n, offset=4000, span=600):
        return low + offset + _duplicate_heavy_stream(rng, n, span)

    first = draw(int(rng.integers(200, 800)))
    hot = first[-1]
    return [
        first,
        draw(int(rng.integers(1, 400))),
        np.empty(0, dtype=np.int64),
        np.full(int(rng.integers(2, 50)), hot, dtype=np.int64),
        np.full(int(rng.integers(2, 50)), hot, dtype=np.int64),
        draw(int(rng.integers(500, 1500))),
        draw(int(rng.integers(100, 400)), offset=0, span=4600),
        first,
        draw(int(rng.integers(100, 400)), offset=0, span=9000),
        draw(int(rng.integers(1, 40))),
    ]


class _PathSpy:
    """Counts the replays of :meth:`CacheHierarchy.access` (walks of a
    stream that holds a summary) by whether an L1 early head hit:
    ``clean`` applied the canonical L2 sets, ``hit`` walked the L2
    prefix.  ``most_heads_hit`` is the largest number of L1 early heads
    that hit in one replay."""

    def __init__(self, hier):
        self.hier = hier
        self.clean = self.hit = self.most_heads_hit = 0
        self._last_l1 = None
        replay = hier.unified.replay

        def recording_replay(runs):
            result = replay(runs)
            self._last_l1 = result[0]
            return result

        hier.unified.replay = recording_replay

    def access(self, stream):
        result = self.hier.access(stream)
        if stream.summary is not None:
            heads_hit = int(np.count_nonzero(self._last_l1))
            self.most_heads_hit = max(self.most_heads_hit, heads_hit)
            if heads_hit:
                self.hit += 1
            else:
                self.clean += 1
        return result


def _replay_against_naive(hier, batches, rounds):
    """Walk each batch's one sorted stream ``rounds`` times, interleaved,
    checking the counts, both levels' live tables and both clocks
    against the per-access loop after every walk."""
    naive = _NaiveHierarchy(hier)
    spy = _PathSpy(hier)
    streams = [sort_stream(b) for b in batches]
    for _ in range(rounds):
        for batch, stream in zip(batches, streams):
            assert _counts(spy.access(stream)) == naive.access(batch)
            _table(hier.unified, naive.l1)
            _table(hier.l2, naive.l2)
            assert hier.unified._clock == naive.l1.clock
            assert hier.l2._clock == naive.l2.clock
    return spy, streams


class TestSortedWalkExactness:
    """Raw arrays, sorted streams (what a trace plan holds) and sorted
    streams replayed round after round (so they walk from their run
    summaries) must give the per-access loop's counts and leave its
    live last-access entries and clocks, batch after batch."""

    @pytest.mark.parametrize("path", ["raw", "sorted", "replayed"])
    @pytest.mark.parametrize("low", [0, 1 << 20, (1 << 31) - 4300],
                             ids=["small", "mid", "straddles-2**31"])
    @pytest.mark.parametrize("seed", range(4))
    def test_batches_match_naive_loop(self, path, low, seed):
        rng = np.random.default_rng(seed)
        # Small windows so both hits and misses occur at both levels.
        hier = _hierarchy(int(rng.integers(8, 64)),
                          int(rng.integers(64, 256)))
        batches = _batches(rng, low)
        if path == "replayed":
            spy, _ = _replay_against_naive(hier, batches, rounds=3)
            # Every non-empty stream walked from its summary from the
            # second round on, and both branches ran.
            assert spy.clean + spy.hit == \
                2 * sum(1 for b in batches if len(b))
            assert spy.clean and spy.hit
            return
        naive = _NaiveHierarchy(hier)
        saw_l1_only = False
        for batch in batches:
            if path == "raw":
                got = _counts(hier.access(batch))
            else:
                got = _counts(hier.access(sort_stream(batch)))
            assert got == naive.access(batch)
            saw_l1_only |= bool(len(batch)) and got[2] == 0
            _table(hier.unified, naive.l1)
            _table(hier.l2, naive.l2)
            assert hier.unified._clock == naive.l1.clock
            assert hier.l2._clock == naive.l2.clock
        assert saw_l1_only

    def test_replay_summary_is_built_on_the_second_walk(self):
        rng = np.random.default_rng(3)
        stream = sort_stream(_duplicate_heavy_stream(rng, 2000, 600))
        hier = CacheHierarchy(GTX_1080TI)
        hier.access(stream)
        assert stream.summary is None
        assert stream.nbytes == stream.order.nbytes + stream.sectors.nbytes
        hier.access(stream)
        summary = stream.summary
        assert summary is not None
        assert summary.windows == (hier.unified.window, hier.l2.window)
        # The summary replaces the stream's arrays.
        assert stream.order is None and stream.sectors is None
        assert len(stream) == 2000
        assert stream.nbytes == summary.nbytes
        hier.access(stream)
        assert stream.summary is summary

    @pytest.mark.parametrize("low", [0, 1 << 40])
    def test_replay_summary_is_o_window_whatever_the_stream_length(self, low):
        """A summarized stream holds no per-access arrays: every summary
        array is bounded by the windows, and the stream's length only
        shows in ``len``."""
        w1, w2 = 16, 48
        rng = np.random.default_rng(4)
        sizes = []
        for n in (500, 5_000, 50_000):
            raw = low + _duplicate_heavy_stream(rng, n, n // 2)
            stream = sort_stream(raw)
            dtype = stream.sectors.dtype
            hier = _hierarchy(w1, w2)
            hier.access(stream)
            hier.access(stream)
            summary = stream.summary
            assert stream.order is None and stream.sectors is None
            assert len(stream) == n
            for level, window in ((summary.l1, w1), (summary.l2, w2),
                                  (summary.rest, w2)):
                for array in (level.head_sectors, level.heads,
                              level.tail_sectors, level.tails):
                    assert len(array) <= window
                assert level.head_sectors.dtype == dtype
                assert level.tail_sectors.dtype == dtype
            assert len(summary.l1_ranks) <= w1
            assert len(summary.prefix) <= 2 * w1 + w2 + 1
            assert summary.prefix.dtype == dtype
            sizes.append(stream.nbytes)
        # Sectors of at most 8 bytes and int32 positions: L1 heads and
        # tails, their L2 ranks, L2 heads and tails, the rest's tails
        # and the prefix.
        bound = ((2 * w1 + 3 * w2) * (8 + 4) + 4 * w1
                 + 8 * (2 * w1 + w2 + 1))
        assert max(sizes) <= bound

    @pytest.mark.parametrize("level", ["unified", "l2"])
    def test_window_change_rebuilds_the_replay_summary(self, level):
        """Windows are fixed per level, so a window change is a new
        level.  Each hierarchy is exact on its own copies of the
        streams, whose summaries are built for its windows; a stream
        summarized and released by the old windows cannot be walked by
        the new ones."""
        rng = np.random.default_rng(5)
        batches = [_duplicate_heavy_stream(rng, 1500, 5000)
                   for _ in range(3)]
        old_windows = (24, 160)
        new_windows = (48, 160) if level == "unified" else (24, 320)
        _, old = _replay_against_naive(_hierarchy(*old_windows), batches, 3)
        assert all(s.summary.windows == old_windows for s in old)
        spy, new = _replay_against_naive(_hierarchy(*new_windows),
                                         batches, 3)
        assert all(s.summary.windows == new_windows for s in new)
        assert spy.clean + spy.hit == 6
        with pytest.raises(ValueError, match="released"):
            spy.hier.access(old[0])

    def test_replayed_stream_matches_raw_path(self):
        rng = np.random.default_rng(7)
        batches = [_duplicate_heavy_stream(rng, 3000, 900) for _ in range(3)]
        plans = [sort_stream(b) for b in batches]
        raw, planned = CacheHierarchy(GTX_1080TI), CacheHierarchy(GTX_1080TI)
        naive = _NaiveHierarchy(raw)
        for _ in range(3):
            for batch, plan in zip(batches, plans):
                want = naive.access(batch)
                assert _counts(raw.access(batch)) == want
                assert _counts(planned.access(plan)) == want
        for hier in (raw, planned):
            _table(hier.unified, naive.l1)
            _table(hier.l2, naive.l2)


class TestReplayFromSummary:
    """Streams replayed from their run summaries against the per-access
    loop, on the cases the summary's proofs separate."""

    @given(st.lists(st.lists(st.integers(0, 60), max_size=120),
                    min_size=1, max_size=6),
           st.integers(1, 24), st.integers(1, 48), st.integers(2, 4))
    @settings(max_examples=150, deadline=None)
    def test_random_replays_match_naive_loop(self, batches, w1, w2, rounds):
        batches = [np.array(b, dtype=np.int64) for b in batches]
        _replay_against_naive(_hierarchy(w1, w2), batches, rounds)

    def test_prefix_covers_the_whole_l2_stream(self):
        """A short stream with an early head hit: ``M`` is the whole
        canonical L2 stream, so nothing follows the prefix."""
        batches = [np.arange(20), np.array([3, 40, 41, 3, 42, 43, 44])]
        spy, streams = _replay_against_naive(_hierarchy(8, 16), batches, 3)
        summary = streams[1].summary
        assert len(summary.prefix) == summary.l2.length
        assert summary.rest.length == 0
        assert spy.hit

    def test_prefix_shorter_than_the_l2_stream(self):
        """A long stream with an early head hit: the accesses after the
        prefix keep their canonical outcomes."""
        rng = np.random.default_rng(11)
        tail = _duplicate_heavy_stream(rng, 3000, 2000) + 100
        batches = [np.arange(6), np.concatenate([[2, 5], tail])]
        spy, streams = _replay_against_naive(_hierarchy(8, 32), batches, 3)
        summary = streams[1].summary
        assert len(summary.prefix) < summary.l2.length
        assert summary.rest.static_hits and len(summary.rest.tails)
        assert spy.hit

    def test_prefix_bound_is_tight(self):
        """``M = k + W2`` is the shortest exact prefix.  Three early
        heads (``k = 4``) hit L1 on the replay, so sector 200's second
        access at canonical L2 position ``k + W2 - 1 = 11`` has a
        canonical gap of 11, a miss, but an actual gap of 8, a hit."""
        warm = np.array([101, 102, 103])
        fillers = np.arange(300, 307)
        stream = np.concatenate([[200], warm, fillers, [200], fillers + 10])
        spy, streams = _replay_against_naive(_hierarchy(4, 8),
                                             [warm, stream], 3)
        summary = streams[1].summary
        assert len(summary.prefix) == 4 + 8 < summary.l2.length
        assert spy.hit and spy.most_heads_hit == 3

    def test_replay_hitting_l1_on_every_access(self):
        """Every access of the replayed stream hits L1, so the L2 stream
        after deleting the hitting head is empty."""
        batches = [np.array([9]), np.array([9, 9, 9])]
        spy, _ = _replay_against_naive(_hierarchy(8, 16), batches, 3)
        assert spy.hit
        hier = _hierarchy(8, 16)
        stream = sort_stream(np.array([9, 9, 9]))
        for _ in range(2):
            hier.access(stream)
        hier.access(np.array([9]))
        result = hier.access(stream)
        assert _counts(result) == (3, 3, 0, 0, 0)

    def test_stream_shorter_than_either_window(self):
        rng = np.random.default_rng(12)
        batches = [_duplicate_heavy_stream(rng, 30, 40) for _ in range(4)]
        spy, _ = _replay_against_naive(_hierarchy(64, 128), batches, 4)
        assert spy.clean + spy.hit == 12
        assert spy.hit

    def test_several_early_heads_hit_at_once(self):
        rng = np.random.default_rng(13)
        warm = np.arange(1000, 1012)
        batches = [warm, rng.permutation(warm),
                   np.concatenate([warm[::3], _duplicate_heavy_stream(
                       rng, 400, 300)])]
        spy, _ = _replay_against_naive(_hierarchy(16, 48), batches, 3)
        assert spy.most_heads_hit >= 4

    def test_ids_straddling_2_pow_31(self):
        rng = np.random.default_rng(14)
        low = (1 << 31) - 150
        batches = [low + _duplicate_heavy_stream(rng, 300, 300)
                   for _ in range(3)]
        batches += [batches[0][:40], low + 400 + np.arange(30)]
        spy, streams = _replay_against_naive(_hierarchy(16, 48), batches, 3)
        assert streams[0].summary.prefix.dtype == np.int64
        assert spy.clean and spy.hit

    def test_window_is_fixed_at_construction(self):
        cache = ReuseWindowCache(16)
        with pytest.raises(AttributeError):
            cache.window = 32

    def test_released_stream_cannot_be_walked_by_one_level(self):
        hier = _hierarchy(8, 16)
        stream = sort_stream(np.array([1, 2, 1]))
        hier.access(stream)
        hier.access(stream)
        with pytest.raises(ValueError, match="released"):
            ReuseWindowCache(8).walk(stream)


class TestLastAccessTable:
    def test_spans_only_the_sectors_seen(self):
        c = ReuseWindowCache(window=4)
        c.access(np.array([(1 << 40) + 7, (1 << 40) + 3000]))
        assert len(c._last) < 10_000
        assert c.access(np.array([(1 << 40) + 7]))[0]

    def test_bounded_under_drifting_streams(self):
        """A frontier drifting down (or up) the address space must grow
        the table in proportion to the sectors seen, not compound its
        slack."""
        for step in (-64, 64):
            c = ReuseWindowCache(window=16)
            for i in range(300):
                low = 100_000 + step * i
                c.access(np.arange(low, low + 12_000, 7))
            extent = 12_000 + 64 * 299
            assert len(c._last) <= 1.5 * extent + 1024


class TestSortStream:
    def test_is_the_stable_argsort(self):
        rng = np.random.default_rng(3)
        raw = _duplicate_heavy_stream(rng, 5000, 700)
        stream = sort_stream(raw)
        order = np.argsort(raw, kind="stable")
        assert np.array_equal(stream.order, order)
        assert np.array_equal(stream.sectors, raw[order])
        assert len(stream) == len(raw)

    def test_int32_layout(self):
        stream = sort_stream(np.array([5, (1 << 31) - 1, 5]))
        assert stream.order.dtype == np.int32
        assert stream.sectors.dtype == np.int32
        assert list(stream.sectors) == [5, 5, (1 << 31) - 1]

    def test_int64_fallback_at_2_pow_31(self):
        stream = sort_stream(np.array([1 << 31, 3, 1 << 40]))
        assert stream.order.dtype == np.int32
        assert stream.sectors.dtype == np.int64
        assert list(stream.sectors) == [3, 1 << 31, 1 << 40]

    def test_empty(self):
        stream = sort_stream(np.empty(0, dtype=np.int64))
        assert len(stream) == 0
        assert stream.order.dtype == np.int32

    def test_walk_rejects_negative_sorted_stream(self):
        c = ReuseWindowCache(window=4)
        with pytest.raises(ValueError):
            c.walk(SortedStream(np.array([0], dtype=np.int32),
                                np.array([-2], dtype=np.int64)))
