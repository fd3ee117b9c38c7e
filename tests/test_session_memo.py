"""Tests for the session-level frontier memo: bit-identity with the memo
on or off, hit/miss accounting, boundedness, and entry reuse."""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from repro import EngineSession, EtaGraph, EtaGraphConfig
from repro.core.memo import (
    SMALL_ENTRY_BYTES, FrontierMemo, _FrontierExpansion,
)
from repro.errors import InvariantViolation
from repro.graph import generators
from repro.graph.weights import attach_weights


@pytest.fixture(scope="module")
def social():
    return attach_weights(generators.rmat(9, 6000, seed=41), seed=42)


def _result_signature(r):
    return (
        r.labels.tobytes(),
        r.total_ms.hex(),
        r.kernel_ms.hex(),
        r.profiler.kernels.unified_cache_hits,
        r.profiler.kernels.l2_hits,
        r.profiler.kernels.threads,
        r.iterations,
    )


class TestMemoBitIdentity:
    @pytest.mark.parametrize("problem", ["bfs", "sssp"])
    def test_memo_on_equals_memo_off(self, social, problem):
        """The memo caches only label-independent values, so every
        query's labels, simulated timings and counters must be
        bit-identical with memoization disabled."""
        sources = [0, 5, 0, 5, 9, 0]
        with EngineSession(social, EtaGraphConfig()) as on, \
                EngineSession(
                    social, EtaGraphConfig(frontier_memo=False)
                ) as off:
            for s in sources:
                r_on = on.query(problem, s)
                r_off = off.query(problem, s)
                assert _result_signature(r_on) == _result_signature(r_off)
            assert on.memo_hits > 0
            assert off.memo_hits == 0 and off.memo_misses == 0

    def test_track_parents_with_memo(self, social):
        with EngineSession(social) as on, \
                EngineSession(
                    social, EtaGraphConfig(frontier_memo=False),
                ) as off:
            for s in (3, 3, 3):
                p_on = on.query("bfs", s, parents=True).extras["parents"]
                p_off = off.query("bfs", s, parents=True).extras["parents"]
                assert np.array_equal(p_on, p_off)
            assert on.memo_hits > 0

    def test_out_of_core_udc_with_memo(self, social):
        cfg = EtaGraphConfig(udc_mode="out_of_core")
        with EngineSession(social, cfg) as on, \
                EngineSession(
                    social,
                    EtaGraphConfig(udc_mode="out_of_core",
                                   frontier_memo=False),
                ) as off:
            for s in (1, 1):
                assert _result_signature(on.query("bfs", s)) == \
                    _result_signature(off.query("bfs", s))
            assert on.memo_hits > 0


class TestMemoCollision:
    def test_digest_collision_is_served_as_miss(self, social, monkeypatch):
        """Two different frontiers forced onto one digest must NOT share
        a memo entry: the entry stores the exact active-set bytes and a
        mismatch demotes the hit to a miss (counted in
        ``memo_collisions``).  Pre-fix, the second query silently reused
        the first query's expansion and produced wrong labels."""
        from repro.core import memo as memo_module

        baseline = {}
        with EngineSession(social) as ses:
            for s in (0, 7):
                baseline[s] = ses.query("bfs", s).labels.copy()

        class _ConstantDigest:
            def __init__(self, *_args, **_kwargs):
                pass

            def digest(self):
                return b"\x00" * 16

        monkeypatch.setattr(
            memo_module.hashlib, "blake2b", _ConstantDigest
        )
        with EngineSession(social) as ses:
            r0 = ses.query("bfs", 0)
            r7 = ses.query("bfs", 7)
            # The seed frontiers {0} and {7} share num_active and the
            # labels buffer, so under a constant digest their keys
            # collide; the exact-bytes check must catch it.
            assert ses.memo_collisions > 0
            assert ses.memo_hits == 0
            assert np.array_equal(r0.labels, baseline[0])
            assert np.array_equal(r7.labels, baseline[7])
            snap = ses.metrics_snapshot()
            assert snap["gauges"]["memo.collisions"] == ses.memo_collisions

    def test_identical_frontiers_still_hit(self, social, monkeypatch):
        """The exact-bytes verification must not break genuine reuse:
        replaying a query under a constant digest still hits."""
        from repro.core import memo as memo_module

        class _ConstantDigest:
            def __init__(self, *_args, **_kwargs):
                pass

            def digest(self):
                return b"\x01" * 16

        monkeypatch.setattr(
            memo_module.hashlib, "blake2b", _ConstantDigest
        )
        with EngineSession(social) as ses:
            first = ses.query("bfs", 4)
            second = ses.query("bfs", 4)
            # Frontiers whose sizes repeat within the query thrash the
            # colliding slot, but every unique-size frontier must still
            # hit on the replay.
            assert ses.memo_hits > 0
            assert np.array_equal(first.labels, second.labels)


class TestMemoAccounting:
    def test_repeated_source_hits(self, social):
        with EngineSession(social) as ses:
            ses.query("bfs", 4)
            misses_first = ses.memo_misses
            assert ses.memo_hits == 0
            r = ses.query("bfs", 4)
            # An identical query replays identical frontiers: every
            # iteration after the repeat hits.
            assert ses.memo_hits == misses_first == r.iterations
            assert ses.memo_misses == misses_first

    def test_memo_bounded(self, social):
        """Bytes are the memo's one bound, and the off switch holds
        nothing."""
        off_cfg = EtaGraphConfig(frontier_memo=False)
        with EngineSession(social) as ses, \
                EngineSession(social, off_cfg) as off:
            ses.memo.max_bytes = 64 * 1024
            for s in range(6):
                ses.query("bfs", s)
                off.query("bfs", s)
            assert 0 < ses.memo_bytes <= 64 * 1024
            assert off.memo_entries == 0 and off.memo_bytes == 0

    def test_memo_bytes_tracks_entries(self, social):
        with EngineSession(social) as ses:
            assert ses.memo_bytes == 0
            ses.query("bfs", 0)
            assert ses.memo_entries > 0
            assert ses.memo_bytes > 0

    def test_mixed_problems_do_not_collide(self, social):
        """BFS (int32 labels, no weights) and SSSP (float labels,
        weights) frontiers may share content; their memo entries must
        stay distinct and the results exact."""
        with EngineSession(social) as ses:
            b1 = ses.query("bfs", 2)
            s1 = ses.query("sssp", 2)
            b2 = ses.query("bfs", 2)
            s2 = ses.query("sssp", 2)
        assert np.array_equal(b1.labels, b2.labels)
        assert np.array_equal(s1.labels, s2.labels)
        eta = EtaGraph(social, EtaGraphConfig())
        assert np.array_equal(eta.bfs(2).labels, b1.labels)
        assert np.array_equal(eta.sssp(2).labels, s1.labels)


def _arrays(value, found):
    """Every distinct array reachable from a memo field, by identity."""
    if isinstance(value, np.ndarray):
        found[id(value)] = value
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            _arrays(getattr(value, f.name), found)
    elif isinstance(value, dict):
        for item in value.values():
            _arrays(item, found)
    elif isinstance(value, tuple):
        for item in value:
            _arrays(item, found)


def _held_bytes(entry) -> int:
    """Bytes of every array and byte string a memo entry holds, found
    from its slots and the dataclasses in them (a shared array once)."""
    total = 0
    found = {}
    for slot in type(entry).__slots__:
        value = getattr(entry, slot)
        if isinstance(value, bytes):
            total += len(value)
        else:
            _arrays(value, found)
    return total + sum(a.nbytes for a in found.values())


def _streams(entry):
    return [s for s in (entry.transform_stream,
                        entry.trace_plan and entry.trace_plan.sorted_stream)
            if s is not None]


class TestWarmReplayAccounting:
    def test_warm_replays_charge_what_entries_hold(self, social,
                                                   monkeypatch):
        """Eight BFS sources replayed twice with invariant checks on, so
        ``check_memo`` runs after every traversal.  After the last
        settle every entry is charged exactly its bytes, and a replayed
        plan's bytes count the instruction models it keeps."""
        from repro.testing import invariants

        checks = []
        check_memo = invariants.check_memo
        monkeypatch.setattr(invariants, "check_memo",
                            lambda memo: checks.append(1) or check_memo(memo))
        sources = np.flatnonzero(social.out_degrees() > 0)[:8]
        with EngineSession(social,
                           EtaGraphConfig(check_invariants=True)) as ses:
            for _ in range(2):
                for source in sources:
                    ses.query("bfs", int(source))
            entries = list(ses.memo.entries.values())
            assert ses.memo_hits
        assert len(checks) == 2 * len(sources)
        for entry in entries:
            assert entry.charged == entry.nbytes
        plans = [e.trace_plan for e in entries if e.trace_plan is not None]
        replayed = [p for p in plans if p.sorted_stream.summary is not None]
        assert replayed
        for plan in plans:
            assert plan.issue
            models = sum(w.nbytes + e.nbytes
                         for _, w, e in plan.issue.values())
            assert plan.nbytes == (plan.sorted_stream.nbytes
                                   + plan.degrees.nbytes + models)


class TestEntryContents:
    def test_destinations_are_sorted_unique_neighbors(self, social):
        with EngineSession(social) as ses:
            ses.query("bfs", 0)
            ses.query("sssp", 3)
            entries = list(ses.memo.entries.values())
        assert entries
        for entry in entries:
            assert entry.dests is not None
            assert entry.dests.dtype == np.int64
            assert np.array_equal(entry.dests, np.unique(entry.nbr))
            assert entry.nbr.dtype == social.column_indices.dtype

    @pytest.mark.parametrize("wave", [False, True])
    def test_iteration_widens_neighbor_ids_once(self, social, monkeypatch,
                                                wave):
        """The step and the trace plan share one intp copy of an
        entry's int32 neighbour ids, dropped when the iteration
        settles; entries keep only the int32 ids."""
        from repro.core import msbfs
        from repro.gpu import kernel

        build = kernel.build_vertex_trace
        seen = []

        def spy(spec, **kw):
            seen.append(kw["neighbor_ids"].dtype)
            return build(spec, **kw)

        monkeypatch.setattr(kernel, "build_vertex_trace", spy)
        with EngineSession(social) as ses:
            if wave:
                msbfs.run_wave(ses, list(range(8)))
            else:
                ses.query("bfs", 0, parents=True)
            entries = list(ses.memo.entries.values())
        assert seen and set(seen) == {np.dtype(np.intp)}
        assert entries
        assert all(e.nbr_intp is None and e.nbr.dtype == np.int32
                   for e in entries)

    def test_nbytes_counts_exactly_what_entries_hold(self, social):
        """Replayed query and wave frontiers walk their streams again,
        so their entries then hold run summaries, which ``nbytes``
        counts; a stream walked once holds none.  A replayed
        parent-tracking BFS also holds its destinations' edge counts
        and last sources.  The memo's running ``memo_bytes`` equals the
        recount after queries, waves and PageRank."""
        from repro.core import msbfs
        from repro.core.pagerank import pagerank

        cfg = EtaGraphConfig(smp=True)
        with EngineSession(social, cfg) as ses:
            for replayed in (False, True):
                ses.query("sssp", 0, parents=True)
                ses.query("bfs", 5, parents=True)
                msbfs.run_wave(ses, [1, 2, 3])
                entries = list(ses.memo.entries.values())
                assert ses.memo_bytes == \
                    sum(_held_bytes(e) for e in entries)
                for entry in entries:
                    assert entry.nbytes == _held_bytes(entry)
                summaries = [s.summary for e in entries for s in _streams(e)]
                both = [e for e in entries if e.dest_edges is not None
                        and e.dest_last_src is not None]
                if replayed:
                    assert any(s is not None for s in summaries)
                    assert both
                else:
                    assert all(s is None for s in summaries)
                    assert not both
            # PageRank revisits frontiers within one run.  The running
            # total, charged on put and after each iteration that filled
            # a lazy part, still matches a recount.
            pagerank(ses, tolerance=1e-3)
            assert ses.memo_bytes == sum(
                _held_bytes(e) for e in ses.memo.entries.values())

    @pytest.mark.parametrize("wave", [False, True])
    def test_transform_stream_equals_a_fresh_build(self, social, wave):
        """Each entry keeps the transform kernel's gather stream, built
        once from the offsets array and the entry's active set."""
        from repro.core import msbfs
        from repro.gpu.kernel import gather_stream

        with EngineSession(social) as ses:
            if wave:
                msbfs.run_wave(ses, list(range(64)))
            else:
                ses.query("bfs", 0)
            base = ses._offsets_arr.base_address
            entries = list(ses.memo.entries.values())
        assert entries
        for entry in entries:
            active = np.frombuffer(entry.active_bytes, dtype=np.int64)
            fresh = gather_stream(ses.device, base, active)
            stored = entry.transform_stream
            assert stored.order.dtype == fresh.order.dtype
            assert stored.sectors.dtype == fresh.sectors.dtype
            assert np.array_equal(stored.order, fresh.order)
            assert np.array_equal(stored.sectors, fresh.sectors)

    def test_wave_entries_hold_no_destinations(self, social):
        """The wave finds its changed vertices from its lane masks, so
        its memo entries never build the destination list."""
        from repro.core import msbfs

        with EngineSession(social) as ses:
            msbfs.run_wave(ses, list(range(64)))
            entries = list(ses.memo.entries.values())
        assert entries
        assert all(entry.dests is None for entry in entries)


def _entry(nbytes: int) -> _FrontierExpansion:
    """An expansion whose only held bytes are ``nbytes`` neighbor ids."""
    empty = np.zeros(0, dtype=np.int64)
    return _FrontierExpansion(
        shadows=SimpleNamespace(nbytes=0, degrees=empty), ids64=empty,
        nbr=np.zeros(nbytes, dtype=np.uint8), w_per_edge=None,
    )


#: The size of the smallest entry that can expire unread.
BIG = SMALL_ENTRY_BYTES + 1


def _warm_counts(ses, sources, cycles):
    """Per-query ``(hits, misses)`` deltas, one list per cycle."""
    counts = []
    for _ in range(cycles):
        cycle = []
        for s in sources:
            hits, misses = ses.memo_hits, ses.memo_misses
            ses.query("bfs", s)
            cycle.append((ses.memo_hits - hits, ses.memo_misses - misses))
        counts.append(cycle)
    return counts


class TestMemoPolicy:
    def test_byte_bound_evicts_lru_but_never_the_entry_in_use(self):
        memo = FrontierMemo(max_bytes=1000)
        entries = [_entry(300) for _ in range(3)]
        for i, entry in enumerate(entries):
            memo.put(i, entry)
        assert list(memo.entries) == [0, 1, 2] and memo.bytes == 900
        # Entry 0 is in use and fills a lazy part: its recharge evicts
        # the least recently used others until the total fits.
        assert memo.get(0, b"") is entries[0]
        entries[0].dests = np.zeros(200, dtype=np.uint8)
        memo.settle()
        assert list(memo.entries) == [2, 0] and memo.bytes == 800
        # Alone past the budget, the entry in use stays.
        assert memo.get(0, b"") is entries[0]
        entries[0].dest_edges = np.zeros(600, dtype=np.uint8)
        memo.settle()
        assert list(memo.entries) == [0] and memo.bytes == 1100

    def test_full_memo_admits_on_second_sighting(self):
        memo = FrontierMemo(max_bytes=1000)
        memo.put("a", _entry(600))
        assert list(memo.entries) == ["a"] and memo.rejections == 0
        memo.put("b", _entry(600))
        assert list(memo.entries) == ["a"] and memo.bytes == 600
        assert memo.rejections == 1
        assert memo.get("b", b"") is None
        memo.put("b", _entry(600))
        assert list(memo.entries) == ["b"] and memo.bytes == 600
        assert memo.rejections == 1

    def test_entry_larger_than_the_budget_is_never_stored(self):
        memo = FrontierMemo(max_bytes=1000)
        memo.put("a", _entry(100))
        for _ in range(2):
            memo.put("huge", _entry(1001))
        assert list(memo.entries) == ["a"] and memo.rejections == 2

    def test_unread_entry_expires_after_the_window(self):
        """An entry stored on first sighting can be hit during the next
        ``window`` lookups; unread by then, it is evicted and its key
        becomes a ghost."""
        memo = FrontierMemo()
        window = memo.window
        assert memo.get("a", b"") is None
        memo.put("a", _entry(BIG))
        for k in range(window - 1):
            assert memo.get(k, b"") is None
        assert list(memo.entries) == ["a"] and "a" in memo.probation
        assert memo.get("x", b"") is None
        assert len(memo) == 0 and memo.bytes == 0
        assert not memo.probation and "a" in memo.ghosts
        assert memo.selective

    def test_small_unread_entry_outlives_its_window(self):
        memo = FrontierMemo()
        memo.window = 2
        memo.get("a", b"")
        memo.put("a", _entry(SMALL_ENTRY_BYTES))
        for k in range(3):
            memo.get(k, b"")
        assert list(memo.entries) == ["a"] and not memo.probation
        assert not memo.selective

    def test_after_an_unread_eviction_a_miss_needs_a_second_sighting(self):
        memo = FrontierMemo()
        memo.window = 2
        for key in ("a", "b"):
            assert memo.get(key, b"") is None
            memo.put(key, _entry(BIG))
        assert list(memo.probation) == ["a", "b"]
        assert memo.get("z", b"") is None  # "a" unread for 2 lookups
        assert list(memo.entries) == ["b"] and memo.selective
        # A first sighting is refused, though it fits, and ghosted.
        memo.put("c", _entry(100))
        assert "c" not in memo.entries and memo.rejections == 1
        # Its second sighting, and the expired key's, are stored on
        # probation again; no longer ghosts.  A hit makes them resident.
        for key in ("c", "a"):
            assert memo.get(key, b"") is None
            memo.put(key, _entry(BIG))
        assert list(memo.probation) == ["c", "a"]
        assert not memo.ghosts.keys() & memo.entries.keys()
        assert memo.get("c", b"") is not None and memo.get("a", b"")
        assert set(memo.entries) == {"a", "c"} and not memo.probation
        assert memo.rejections == 1

    def test_cycle_of_one_window_hits_from_its_second_cycle(self):
        """Keys replayed every ``window`` lookups are hit from their
        second cycle on and never refused.  One lookup longer, none is
        ever read within its window: each sighting stores it again, and
        the memo never holds more than one window of entries."""
        def cycles(memo, length, count):
            hits = []
            for _ in range(count):
                hits.append(0)
                for k in range(length):
                    if memo.get(k, b"") is None:
                        memo.put(k, _entry(BIG))
                    else:
                        hits[-1] += 1
            return hits

        memo = FrontierMemo()
        window = memo.window
        assert cycles(memo, window, 4) == [0] + [window] * 3
        assert memo.rejections == 0 and not memo.probation
        memo = FrontierMemo()
        assert cycles(memo, window + 1, 3) == [0, 0, 0]
        assert len(memo) == window

    def test_one_shot_stream_holds_at_most_one_window(self):
        memo = FrontierMemo()
        window = memo.window
        held = []
        for k in range(4 * window):
            assert memo.get(k, b"") is None
            memo.put(k, _entry(BIG))
            held.append(len(memo))
        assert max(held) == window
        assert len(memo) == 0 and memo.bytes == 0
        assert memo.rejections == 3 * window

    def test_invariant_checks_probation_and_ghosts(self):
        from repro.testing.invariants import check_memo

        memo = FrontierMemo(max_bytes=1000)
        memo.window = 2
        memo.get("a", b"")
        memo.put("a", _entry(100))
        check_memo(memo)
        memo.lookups += 2  # waited out its window without expiring
        with pytest.raises(InvariantViolation, match="window"):
            check_memo(memo)
        memo.lookups -= 2
        memo.ghosts["a"] = None
        with pytest.raises(InvariantViolation, match="ghost"):
            check_memo(memo)
        del memo.ghosts["a"]
        memo.probation["gone"] = memo.lookups
        with pytest.raises(InvariantViolation, match="no entry"):
            check_memo(memo)

    def test_settle_recharges_an_entry_that_shrank(self):
        """A replayed stream is summarized and releases its arrays, so
        its entry shrinks; settle charges the smaller size and the
        invariant holds."""
        from repro.gpu.cache import CacheHierarchy, sort_stream
        from repro.gpu.device import GTX_1080TI
        from repro.testing.invariants import check_memo

        rng = np.random.default_rng(0)
        stream = sort_stream(rng.integers(0, 5000, size=20_000))
        entry = _entry(100)
        entry.transform_stream = stream
        memo = FrontierMemo(max_bytes=1 << 20)
        memo.get("a", b"")
        memo.put("a", entry)
        hier = CacheHierarchy(GTX_1080TI)
        hier.access(stream)
        memo.settle()
        charged = memo.bytes
        assert charged == entry.nbytes
        assert memo.get("a", b"") is entry
        hier.access(stream)
        memo.settle()
        assert stream.order is None
        assert memo.bytes == entry.charged == entry.nbytes < charged
        check_memo(memo)

    def test_session_replays_repeat_from_the_second_cycle(self, social):
        """``bfs-hot``'s warm-state property in miniature: with a budget
        that just holds the warm set, every replay of a source repeats
        the memo hits and misses of its first replay, because the
        first sighting of each frontier is kept.  The budget is the
        twin's peak charge: an entry shrinks once its streams are
        summarized, so the warm set ends below it."""
        sources = [0, 3, 5, 9]
        with EngineSession(social) as twin:
            peak = 0
            charge = twin.memo._charge

            def tracking_charge(entry, size):
                nonlocal peak
                charge(entry, size)
                peak = max(peak, twin.memo.bytes)

            twin.memo._charge = tracking_charge
            _warm_counts(twin, sources, 3)
            warm_bytes = twin.memo_bytes
        with EngineSession(social) as ses:
            ses.memo.max_bytes = peak
            first, second, third = _warm_counts(ses, sources, 3)
            assert ses.memo_rejections == 0
            assert ses.memo_bytes == warm_bytes
        assert second == third
        assert all(hits > 0 for hits, _ in second)
        assert [h + m for h, m in first] == [h + m for h, m in second]

    def test_invalidate_clears_entries_ghosts_and_bytes(self, social):
        memo = FrontierMemo(max_bytes=1000)
        memo.put("a", _entry(600))
        memo.put("b", _entry(600))  # refused: its key is now a ghost
        memo.invalidate()
        assert len(memo) == 0 and memo.bytes == 0
        memo.put("a", _entry(600))
        memo.put("b", _entry(600))  # the ghost is gone: refused again
        assert list(memo.entries) == ["a"] and memo.rejections == 2

        with EngineSession(social) as ses:
            ses.query("bfs", 0)
            assert ses.memo_entries > 0 and ses.memo_bytes > 0
            hits = ses.memo_hits
            ses.invalidate_memo()
            assert ses.memo_entries == 0 and ses.memo_bytes == 0
            assert ses.memo_hits == hits

    def test_rejections_gauge(self, social):
        with EngineSession(social) as ses:
            ses.memo.max_bytes = 4096
            for s in range(4):
                ses.query("bfs", s)
            assert ses.memo_rejections > 0
            assert ses.memo_bytes <= 4096
            gauges = ses.metrics_snapshot()["gauges"]
            assert gauges["memo.rejections"] == ses.memo_rejections

    def test_aborted_iteration_is_charged_by_the_next_lookup(self, social):
        """A launch aborted by an injected bit flip leaves its entry with
        lazy parts filled after its charge; the next lookup settles it,
        so the next traversal's invariant check holds."""
        from repro.errors import DataCorruptionError
        from repro.resilience import FaultInjector, FaultPlan, FaultSpec

        injector = FaultInjector(
            FaultPlan(specs=(FaultSpec("bitflip", at=2),), seed=7))
        cfg = EtaGraphConfig(check_invariants=True)
        with EngineSession(social, cfg, injector=injector) as ses:
            with pytest.raises(DataCorruptionError):
                ses.query("bfs", 0)
            ses.query("bfs", 1)
            assert ses.memo_bytes == sum(
                _held_bytes(e) for e in ses.memo.entries.values())

    def test_uncharged_growth_fails_the_invariant_check(self, social,
                                                        monkeypatch):
        """With invariants on, a traversal ends by checking the running
        byte total against a recount: growth the memo never charged
        raises."""
        with EngineSession(social,
                           EtaGraphConfig(check_invariants=True)) as ses:
            ses.query("bfs", 0)
            ses.query("bfs", 0)
            monkeypatch.setattr(_FrontierExpansion, "fills",
                                lambda self: self.charged_fills)
            with pytest.raises(InvariantViolation, match="frontier memo"):
                ses.query("sssp", 0)
