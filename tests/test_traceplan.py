"""Tests for the kernel-trace pipeline: the exact sorting helpers, the
per-array build (warp-step rows and sort units), TracePlan reuse, and the
warp-sampling counter fix."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import EngineSession, EtaGraphConfig
from repro.core import msbfs
from repro.errors import InvalidLaunchError
from repro.gpu import coalescing
from repro.gpu.cache import CacheHierarchy, sort_segments, sort_stream
from repro.gpu.device import GTX_1080TI
from repro.gpu.kernel import TRACE_CAP, simulate_vertex_kernel
from repro.gpu.memory import DeviceArray, DeviceMemory
from repro.graph import compressed, generators
from repro.gpu.traceplan import (
    DENSE_SLOTS_PER_ACCESS,
    build_vertex_trace,
    plan_fingerprint,
)
from repro.utils.sorting import sorted_unique, stable_argsort


def make_launch(n_threads, degree, *, spread=False, weighted=False, seed=0):
    """Synthetic kernel launch over a fake CSR layout (as in
    test_gpu_kernel, plus optional weights)."""
    rng = np.random.default_rng(seed)
    if spread:
        degrees = rng.integers(0, degree * 2 + 1, size=n_threads)
    else:
        degrees = np.full(n_threads, degree, dtype=np.int64)
    starts = np.concatenate([[0], np.cumsum(degrees)[:-1]]).astype(np.int64)
    total = int(degrees.sum())
    neighbors = rng.integers(0, max(n_threads, 1), size=total)
    mem = DeviceMemory(GTX_1080TI)
    adj = mem.alloc("adj", np.zeros(max(total, 1), dtype=np.int32))
    labels = mem.alloc("labels", np.zeros(max(n_threads, 1), dtype=np.float32))
    vas = mem.alloc("vas", np.zeros(3 * max(n_threads, 1), dtype=np.int32))
    kw = dict(
        starts=starts,
        degrees=degrees,
        adj_array=adj,
        neighbor_ids=neighbors,
        label_array=labels,
        meta_array=vas,
        meta_words_per_thread=3,
    )
    if weighted:
        kw["weight_array"] = mem.alloc(
            "weights", np.zeros(max(total, 1), dtype=np.float32)
        )
    return kw


def run(caches=None, **kw):
    caches = caches or CacheHierarchy(GTX_1080TI)
    return simulate_vertex_kernel(GTX_1080TI, caches, **kw)


# ----------------------------------------------------------------------
# Exact sorting helpers
# ----------------------------------------------------------------------

class TestSortedUnique:
    @given(st.lists(st.integers(-2**62, 2**62), max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_matches_np_unique(self, values):
        arr = np.array(values, dtype=np.int64)
        assert np.array_equal(sorted_unique(arr), np.unique(arr))

    def test_empty_preserves_dtype(self):
        out = sorted_unique(np.empty(0, dtype=np.int32))
        assert out.dtype == np.int32 and len(out) == 0

    def test_other_dtypes(self):
        arr = np.array([3, 1, 3, 2], dtype=np.uint16)
        assert np.array_equal(sorted_unique(arr), np.unique(arr))


class TestStableArgsort:
    @given(
        st.lists(st.integers(0, 50), max_size=300),
        st.sampled_from([0, 1 << 40, (1 << 62)]),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_numpy_stable(self, values, offset):
        # Small keys hit the packed fast path; offset 2**62 forces the
        # numpy fallback — both must agree with np.argsort(stable).
        keys = np.array(values, dtype=np.int64) + offset
        assert np.array_equal(
            stable_argsort(keys), np.argsort(keys, kind="stable")
        )

    def test_negative_keys_fall_back(self):
        keys = np.array([3, -1, 3, 0, -1], dtype=np.int64)
        assert np.array_equal(
            stable_argsort(keys), np.argsort(keys, kind="stable")
        )

    def test_empty(self):
        assert len(stable_argsort(np.empty(0, dtype=np.int64))) == 0


# ----------------------------------------------------------------------
# Per-array build helpers: warp-step rows and sort units
# ----------------------------------------------------------------------

def _assert_same_sorted(got, want):
    assert got.order.dtype == want.order.dtype
    assert got.sectors.dtype == want.sectors.dtype
    assert np.array_equal(got.order, want.order)
    assert np.array_equal(got.sectors, want.sectors)


def _random_segments(rng, n_segments, span):
    """Segments at random places in a ``span``-sector window, so some
    sector ranges overlap and some do not."""
    segments = []
    for _ in range(n_segments):
        n = int(rng.integers(0, 400))
        lo = int(rng.integers(0, span))
        width = int(rng.integers(1, span))
        segments.append(rng.integers(lo, lo + width, size=n))
    return segments


class TestSortSegments:
    @pytest.mark.parametrize("seed", range(6))
    def test_equals_one_global_sort(self, seed):
        rng = np.random.default_rng(seed)
        segments = _random_segments(rng, int(rng.integers(1, 6)), 500)
        _assert_same_sorted(sort_segments(segments),
                            sort_stream(np.concatenate(segments)))

    def test_empty_and_single(self):
        _assert_same_sorted(sort_segments([]), sort_stream([]))
        empty = np.empty(0, dtype=np.int64)
        _assert_same_sorted(sort_segments([empty, empty]), sort_stream([]))
        seg = np.array([2, 0, 2, 7], dtype=np.int64)
        _assert_same_sorted(sort_segments([empty, seg, empty]),
                            sort_stream(seg))

    def test_overlapping_units_merge_transitively(self):
        # [5, 9] and [20, 30] are disjoint, but [8, 21] bridges them:
        # all three must sort as one unit, with positions breaking ties
        # across segments.  [40, 41] stays a unit of its own.
        segs = [
            np.array([9, 5, 9, 5], dtype=np.int64),
            np.array([41, 40, 41], dtype=np.int32),
            np.array([30, 20, 30], dtype=np.int64),
            np.array([21, 8, 9, 21], dtype=np.int32),
        ]
        _assert_same_sorted(sort_segments(segs),
                            sort_stream(np.concatenate(segs)))

    @pytest.mark.parametrize("key_bits", [31, 32, 33])
    def test_key_width_boundary(self, key_bits):
        # One unit whose (sector - min, position) key needs exactly
        # ``key_bits`` bits: uint32 up to 32, uint64 beyond.
        rng = np.random.default_rng(key_bits)
        n = 3000
        pos_bits = (n - 1).bit_length()
        top = (1 << (key_bits - pos_bits)) - 1
        seg = rng.integers(0, 50, size=n - 2)
        seg = np.concatenate([[top], seg, [0]]) + (1 << 20)
        parts = [seg[:1000], seg[1000:]]
        _assert_same_sorted(sort_segments(parts), sort_stream(seg))

    def test_sectors_at_or_above_int32(self):
        segs = [np.array([1 << 31, 3, 1 << 31]),
                np.array([(1 << 31) + 5, 1 << 40])]
        got = sort_segments(segs)
        assert got.sectors.dtype == np.int64
        _assert_same_sorted(got, sort_stream(np.concatenate(segs)))


class TestCoalesceRows:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_equals_coalesce_per_row(self, seed, dtype):
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, 40, size=(50, 32)).astype(dtype)
        empty = rng.random(rows.shape) < 0.4
        sentinel = np.iinfo(dtype).max
        rows[empty] = sentinel
        rows[7] = sentinel  # a warp step with no access at all
        valid = rows.ravel() != sentinel
        want = coalescing.coalesce(
            rows.ravel()[valid].astype(np.int64) * 32,
            np.repeat(np.arange(50), 32)[valid],
        )
        got = coalescing.coalesce_rows(rows, sentinel)
        assert got.dtype == dtype
        assert np.array_equal(got, want)


# ----------------------------------------------------------------------
# TracePlan == inline trace, and plan reuse
# ----------------------------------------------------------------------

def _legacy_stream(spec, kw):
    """The pre-fusion trace: per-stream coalesce calls, concatenated —
    the reference simulate_vertex_kernel built before TracePlan."""
    starts = np.asarray(kw["starts"], dtype=np.int64)
    degrees = np.asarray(kw["degrees"], dtype=np.int64)
    n = len(starts)
    thread_ids = np.arange(n, dtype=np.int64)
    streams = []
    meta = kw.get("meta_array")
    mw = kw.get("meta_words_per_thread", 0)
    if meta is not None and mw > 0 and n:
        item = mw * meta.itemsize
        streams.append(coalescing.contiguous_run_sectors(
            meta.base_address + thread_ids * item,
            np.full(n, item, dtype=np.int64),
            coalescing.burst_group_keys(thread_ids),
            spec.sector_bytes,
        ))
    total = int(degrees.sum())
    if total:
        from repro.utils.ragged import ragged_arange

        steps = ragged_arange(degrees)
        edge_thread = np.repeat(thread_ids, degrees)
        keys = coalescing.strided_group_keys(
            edge_thread, steps, spec.warp_size
        )
        if kw.get("smp"):
            planned = kw.get("smp_planned_words")
            burst = (np.asarray(planned, dtype=np.int64)
                     if planned is not None else degrees)
            bkeys = coalescing.burst_group_keys(thread_ids)
            streams.append(coalescing.contiguous_run_sectors(
                kw["adj_array"].addresses_of(starts),
                burst * kw["adj_array"].itemsize, bkeys, spec.sector_bytes,
            ))
            if kw.get("weight_array") is not None:
                streams.append(coalescing.contiguous_run_sectors(
                    kw["weight_array"].addresses_of(starts),
                    burst * kw["weight_array"].itemsize, bkeys,
                    spec.sector_bytes,
                ))
        else:
            edge_idx = np.repeat(starts, degrees) + steps
            streams.append(coalescing.coalesce(
                kw["adj_array"].addresses_of(edge_idx), keys,
                spec.sector_bytes,
            ))
            if kw.get("weight_array") is not None:
                streams.append(coalescing.coalesce(
                    kw["weight_array"].addresses_of(edge_idx), keys,
                    spec.sector_bytes,
                ))
        streams.append(coalescing.coalesce(
            kw["label_array"].addresses_of(
                np.asarray(kw["neighbor_ids"], dtype=np.int64)
            ),
            keys, spec.sector_bytes,
        ))
    idle = kw.get("idle_threads", 0)
    if idle:
        idle_ids = np.arange(idle, dtype=np.int64)
        streams.append(coalescing.contiguous_run_sectors(
            kw["label_array"].base_address + idle_ids * 4,
            np.full(idle, 4, dtype=np.int64),
            coalescing.burst_group_keys(idle_ids) + (1 << 20),
            spec.sector_bytes,
        ))
    return (np.concatenate(streams) if streams
            else np.empty(0, dtype=np.int64))


def _build(kw, **extra):
    plan_kw = {
        k: v for k, v in kw.items()
        if k in (
            "starts", "degrees", "adj_array", "neighbor_ids", "label_array",
            "weight_array", "meta_array", "meta_words_per_thread", "smp",
            "smp_planned_words", "idle_threads",
        )
    }
    plan_kw.update(extra)
    return build_vertex_trace(GTX_1080TI, **plan_kw)


class TestTracePlan:
    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("idle", [0, 70])
    def test_stream_matches_legacy_per_stream_trace(self, weighted, idle):
        kw = make_launch(96, 6, spread=True, weighted=weighted, seed=3)
        kw["idle_threads"] = idle
        plan = _build(kw)
        assert np.array_equal(plan.stream, _legacy_stream(GTX_1080TI, kw))

    def test_smp_stream_matches_legacy(self):
        kw = make_launch(96, 8, weighted=True, seed=4)
        kw["smp"] = True
        kw["smp_planned_words"] = np.full(96, 8, dtype=np.int64)
        plan = _build(kw)
        assert np.array_equal(plan.stream, _legacy_stream(GTX_1080TI, kw))

    def test_kernel_with_plan_is_bit_identical(self):
        kw = make_launch(128, 5, spread=True, seed=9)
        t_inline = run(caches=CacheHierarchy(GTX_1080TI), **kw)
        plan = _build(kw)
        t_planned = run(
            caches=CacheHierarchy(GTX_1080TI), plan=plan, **kw
        )
        assert t_planned.time_ms == t_inline.time_ms
        assert t_planned.counters == t_inline.counters

    def test_plan_reusable_across_launches(self):
        kw = make_launch(128, 5, spread=True, seed=10)
        plan = _build(kw)
        t1 = run(caches=CacheHierarchy(GTX_1080TI), plan=plan, **kw)
        t2 = run(caches=CacheHierarchy(GTX_1080TI), plan=plan, **kw)
        assert t1.time_ms == t2.time_ms
        assert t1.counters == t2.counters

    def test_mismatched_plan_rejected(self):
        kw = make_launch(64, 4, seed=11)
        plan = _build(kw)
        with pytest.raises(InvalidLaunchError):
            run(plan=plan, idle_threads=32, **kw)

    def test_fingerprint_captures_placement(self):
        kw = make_launch(64, 4, seed=12)
        fp = plan_fingerprint(
            GTX_1080TI,
            n_threads=64,
            total_edges=int(np.sum(kw["degrees"])),
            adj_array=kw["adj_array"],
            label_array=kw["label_array"],
            meta_array=kw["meta_array"],
            meta_words_per_thread=3,
        )
        assert _build(kw).fingerprint == fp


# ----------------------------------------------------------------------
# The cache-facing plan: sorted_stream equals one global stable sort
# ----------------------------------------------------------------------

def _sampled(kw, cap):
    """The launch as the plan traces it: whole warps kept at a stride
    once the edges exceed ``cap`` (the reference for sampled plans)."""
    degrees = np.asarray(kw["degrees"], dtype=np.int64)
    total, n = int(degrees.sum()), len(degrees)
    if total <= cap or n <= 32:
        return kw
    stride = int(np.ceil(total / cap))
    keep = (np.arange(n) // 32) % stride == 0
    kw = dict(kw, starts=np.asarray(kw["starts"])[keep],
              degrees=degrees[keep],
              neighbor_ids=np.asarray(kw["neighbor_ids"])[
                  np.repeat(keep, degrees)])
    if kw.get("smp_planned_words") is not None:
        kw["smp_planned_words"] = np.asarray(kw["smp_planned_words"])[keep]
    return kw


def _assert_plan_matches_global_sort(kw, trace_cap=None):
    plan = _build(kw, trace_cap=trace_cap)
    ref = _sampled(kw, trace_cap or TRACE_CAP)
    _assert_same_sorted(plan.sorted_stream,
                        sort_stream(_legacy_stream(GTX_1080TI, ref)))
    return plan


def _with_smp(kw, extra=None):
    degrees = np.asarray(kw["degrees"], dtype=np.int64)
    planned = degrees + degrees % 3 if extra is None else degrees + extra
    return dict(kw, smp=True, smp_planned_words=planned)


def _dense(kw):
    degrees = np.asarray(kw["degrees"])
    slots = int(degrees.max()) * -(-len(degrees) // 32) * 32
    return slots <= DENSE_SLOTS_PER_ACCESS * int(degrees.sum())


def _far_labels(base_sector, n_labels=1):
    """A label array placed at ``base_sector`` (its data need not cover
    the ids a test gathers: only the addresses matter)."""
    return DeviceArray("labels", base_sector * 32,
                       np.zeros(n_labels, dtype=np.float32), "device")


class TestPlanMatchesGlobalSort:
    @pytest.mark.parametrize("smp", [False, True], ids=["scatter", "smp"])
    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("idle", [0, 70])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_streams(self, smp, weighted, idle, seed):
        kw = make_launch(150, 7, spread=True, weighted=weighted, seed=seed)
        kw["idle_threads"] = idle
        if smp:
            kw = _with_smp(kw)
        assert _dense(kw)
        _assert_plan_matches_global_sort(kw)

    @pytest.mark.parametrize("smp", [False, True], ids=["scatter", "smp"])
    def test_warp_sampled(self, smp):
        kw = make_launch(400, 30, spread=True, weighted=True, seed=5)
        if smp:
            kw = _with_smp(kw)
        assert _assert_plan_matches_global_sort(kw, trace_cap=2_000).scale > 1

    @pytest.mark.parametrize("smp", [False, True], ids=["scatter", "smp"])
    def test_uncapped_hub_keeps_packed_keys(self, smp, monkeypatch):
        # A hub far wider than any warp step (and, under SMP, a burst
        # far longer than the others) would leave the dense buffers
        # nearly empty: those streams take the packed-key sort instead.
        kw = make_launch(200, 2, weighted=True, seed=6)
        degrees = kw["degrees"].copy()
        degrees[37] = 3_000
        mem = DeviceMemory(GTX_1080TI)
        total = int(degrees.sum())
        kw.update(
            degrees=degrees,
            starts=np.concatenate([[0], np.cumsum(degrees)[:-1]]),
            neighbor_ids=np.random.default_rng(6).integers(0, 200, total),
            adj_array=mem.alloc("adj", np.zeros(total, dtype=np.int32)),
            weight_array=mem.alloc("w", np.zeros(total, dtype=np.float32)),
            label_array=mem.alloc("labels", np.zeros(200, np.float32)),
        )
        if smp:
            kw = _with_smp(kw)
        assert not _dense(kw)
        _assert_plan_matches_global_sort(kw)
        packed = []
        for name in ("coalesce", "contiguous_run_sectors"):
            real = getattr(coalescing, name)
            monkeypatch.setattr(
                coalescing, name,
                lambda *a, _real=real, _name=name, **k:
                    packed.append(_name) or _real(*a, **k),
            )
        _build(kw)
        assert "coalesce" in packed
        assert ("contiguous_run_sectors" in packed) == smp

    def test_trailing_zero_degree_threads(self):
        kw = make_launch(100, 5, spread=True, seed=7)
        degrees = kw["degrees"].copy()
        cut = int(degrees[:60].sum())
        degrees[60:] = 0
        kw.update(degrees=degrees, neighbor_ids=kw["neighbor_ids"][:cut])
        _assert_plan_matches_global_sort(kw)
        _assert_plan_matches_global_sort(_with_smp(kw))

    def test_idle_only_launch(self):
        kw = make_launch(0, 0, seed=8)
        kw["idle_threads"] = 50
        plan = _assert_plan_matches_global_sort(kw)
        assert len(plan.sorted_stream) > 0

    def test_smp_over_fetch_past_adjacency_end(self):
        # The last lane's planned burst runs past the adjacency array
        # into the next allocation (the labels): the two arrays' sector
        # ranges overlap, so they must sort as one unit.
        kw = make_launch(64, 6, spread=True, seed=9)
        extra = np.zeros(64, dtype=np.int64)
        extra[-1] = 200
        kw = _with_smp(kw, extra)
        adj, labels = kw["adj_array"], kw["label_array"]
        last_word = kw["starts"][-1] + kw["smp_planned_words"][-1] - 1
        assert adj.addresses_of(last_word) >= labels.base_address
        _assert_plan_matches_global_sort(kw)

    @pytest.mark.parametrize("idle", [0, 40])
    def test_label_sectors_at_or_above_int32(self, idle):
        kw = make_launch(96, 6, spread=True, seed=10)
        kw.update(label_array=_far_labels((1 << 31) + 7, 96),
                  idle_threads=idle)
        plan = _assert_plan_matches_global_sort(kw)
        assert plan.sorted_stream.sectors.dtype == np.int64

    @pytest.mark.parametrize("key_bits", [31, 32, 33])
    def test_label_unit_key_width(self, key_bits):
        # The label unit spans exactly as many sectors as make its
        # (sector - min, position) key ``key_bits`` wide.
        kw = make_launch(256, 6, spread=True, seed=11)
        kw["label_array"] = _far_labels(1 << 24)
        nbr = kw["neighbor_ids"].copy()
        nbr[0], nbr[-1] = 0, 1 << 30  # the unit's ends, alone in their rows
        n = len(_build(dict(kw, neighbor_ids=nbr)).sorted_stream)
        nbr[-1] = ((1 << (key_bits - (n - 1).bit_length())) - 1) * 8
        kw["neighbor_ids"] = nbr
        sectors = _assert_plan_matches_global_sort(kw).sorted_stream.sectors
        labels = sectors[sectors >= 1 << 24]
        assert len(sectors) == n
        assert (int(labels[-1] - labels[0]).bit_length()
                + (n - 1).bit_length()) == key_bits


class TestAddressSpaceGuard:
    """A stream past the packed key layout's 2**38 sectors raises the
    same error whichever path builds it."""

    @staticmethod
    def _far_launch(hub=False):
        kw = make_launch(96, 4, seed=12)
        if hub:
            degrees = kw["degrees"].copy()
            degrees[3] = 5_000
            kw.update(degrees=degrees, starts=np.concatenate(
                [[0], np.cumsum(degrees)[:-1]]),
                neighbor_ids=np.zeros(int(degrees.sum()), dtype=np.int64))
        far = 1 << 38
        kw["adj_array"] = DeviceArray(
            "adj", far * 32, np.zeros(1, dtype=np.int32), "device")
        return kw

    @pytest.mark.parametrize("launch", [
        dict(smp=False, hub=False), dict(smp=True, hub=False),
        dict(smp=False, hub=True),
    ], ids=["dense", "burst", "packed"])
    def test_adjacency_beyond_address_space(self, launch):
        kw = self._far_launch(hub=launch["hub"])
        if launch["smp"]:
            kw = _with_smp(kw)
        assert _dense(kw) != launch["hub"]
        with pytest.raises(ValueError, match="simulated address space"):
            _build(kw)

    def test_labels_beyond_address_space(self):
        kw = make_launch(96, 4, seed=13)
        kw["label_array"] = _far_labels(1 << 38)
        with pytest.raises(ValueError, match="simulated address space"):
            _build(kw)
        with pytest.raises(ValueError, match="simulated address space"):
            _build(dict(kw, idle_threads=10, degrees=kw["degrees"] * 0,
                        neighbor_ids=kw["neighbor_ids"][:0]))


# ----------------------------------------------------------------------
# Warp sampling: exact launched counts + sampled-trace fidelity
# ----------------------------------------------------------------------

class TestWarpSamplingCounters:
    def _skewed_launch(self, n_threads, seed=21):
        """Per-warp skew: even warps have degree 40, odd warps degree 2 —
        the case where edge-ratio rescaling misreports thread counts."""
        warp = np.arange(n_threads) // 32
        degrees = np.where(warp % 2 == 0, 40, 2).astype(np.int64)
        rng = np.random.default_rng(seed)
        starts = np.concatenate([[0], np.cumsum(degrees)[:-1]]).astype(
            np.int64
        )
        total = int(degrees.sum())
        neighbors = rng.integers(0, n_threads, size=total)
        mem = DeviceMemory(GTX_1080TI)
        return dict(
            starts=starts,
            degrees=degrees,
            adj_array=mem.alloc("adj", np.zeros(total, dtype=np.int32)),
            neighbor_ids=neighbors,
            label_array=mem.alloc(
                "labels", np.zeros(n_threads, dtype=np.float32)
            ),
        )

    def test_sampled_launch_reports_exact_thread_and_warp_counts(self):
        n = 64 * 1024  # ~1.3M edges with the 40/2 skew: well above cap
        kw = self._skewed_launch(n)
        assert int(np.sum(kw["degrees"])) > TRACE_CAP
        t = run(**kw)
        # Exact, not edge-ratio-rescaled: with skewed kept warps the old
        # scaling reported ~2x the true thread count.
        assert t.counters.threads == n
        assert t.counters.warps == -(-n // 32)

    def test_idle_threads_still_added_exactly(self):
        kw = self._skewed_launch(64 * 1024)
        t = run(idle_threads=100, **kw)
        assert t.counters.threads == 64 * 1024 + 100
        assert t.counters.warps == -(-64 * 1024 // 32) + -(-100 // 32)

    def test_sampled_trace_close_to_full_trace(self, monkeypatch):
        """A launch just above TRACE_CAP, traced sampled, stays within
        tolerance of the same launch traced fully."""
        kw = make_launch(4096, 8, spread=True, seed=22)
        total = int(np.sum(kw["degrees"]))
        cap = int(total * 0.8)  # just above the cap -> stride 2
        t_full = run(caches=CacheHierarchy(GTX_1080TI), **kw)
        monkeypatch.setattr("repro.gpu.kernel.TRACE_CAP", cap)
        t_sampled = run(caches=CacheHierarchy(GTX_1080TI), **kw)
        plan = _build(kw, trace_cap=cap)
        assert plan.scale > 1.0  # sampling actually engaged
        c_f, c_s = t_full.counters, t_sampled.counters
        assert c_s.threads == c_f.threads  # exact by construction now
        assert c_s.warps == c_f.warps
        assert c_s.instructions == pytest.approx(
            c_f.instructions, rel=0.05
        )
        assert c_s.global_load_transactions == pytest.approx(
            c_f.global_load_transactions, rel=0.25
        )
        assert t_sampled.time_ms == pytest.approx(t_full.time_ms, rel=0.35)


# ----------------------------------------------------------------------
# Memory retention: a memoized plan keeps only what nbytes counts
# ----------------------------------------------------------------------

def _held_arrays(obj):
    """Every ndarray a plan holds, through nested dataclass fields and
    the instruction models it keeps."""
    arrays = []
    for field in dataclasses.fields(obj):
        value = getattr(obj, field.name)
        if isinstance(value, np.ndarray):
            arrays.append(value)
        elif dataclasses.is_dataclass(value):
            arrays.extend(_held_arrays(value))
        elif isinstance(value, dict):
            for model in value.values():
                arrays.extend(a for a in model if isinstance(a, np.ndarray))
    return arrays


def _assert_owns_what_it_counts(plan):
    arrays = _held_arrays(plan)
    # The stream's order and sectors, the degrees, and two per-warp
    # arrays per instruction model.
    assert len(arrays) == 3 + 2 * len(plan.issue)
    # A view would keep its whole base buffer alive, uncounted.
    assert all(a.base is None for a in arrays)
    assert plan.nbytes == sum(a.nbytes for a in arrays)
    assert plan.sorted_stream.order.dtype == np.int32
    assert plan.sorted_stream.sectors.dtype == np.int32


class TestPlanRetention:
    @pytest.mark.parametrize("launch", [
        dict(n_threads=96, degree=6, spread=True, weighted=True),
        dict(n_threads=1, degree=0),
        dict(n_threads=400, degree=30, trace_cap=2_000),
    ], ids=["scattered", "no-edges", "warp-sampled"])
    def test_built_plan(self, launch):
        launch = dict(launch)
        cap = launch.pop("trace_cap", None)
        kw = make_launch(**launch)
        plan = _build(kw, trace_cap=cap)
        if cap is not None:
            assert plan.scale > 1.0
        _assert_owns_what_it_counts(plan)

    @pytest.mark.parametrize("encoding", ["dense", "compressed"])
    def test_memoized_plans(self, encoding):
        graph = generators.rmat(9, 6000, seed=41)
        if encoding == "compressed":
            graph = compressed.compress(graph)
        with EngineSession(graph, EtaGraphConfig(smp=True)) as session:
            session.query("bfs", 0)
            msbfs.run_wave(session, [1, 2, 3])
            plans = [e.trace_plan for e in session.memo.entries.values()
                     if e.trace_plan is not None]
            assert plans
            for plan in plans:
                # Every memoized plan was launched: it keeps the model.
                assert plan.issue
                _assert_owns_what_it_counts(plan)
