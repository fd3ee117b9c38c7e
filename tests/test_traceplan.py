"""Tests for the fused kernel-trace pipeline: the exact sorting helpers,
single-sort stream fusion, TracePlan reuse, and the warp-sampling counter
fix."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import EngineSession, EtaGraphConfig
from repro.core import msbfs
from repro.errors import InvalidLaunchError
from repro.gpu import coalescing
from repro.gpu.cache import CacheHierarchy
from repro.gpu.device import GTX_1080TI
from repro.gpu.kernel import TRACE_CAP, simulate_vertex_kernel
from repro.gpu.memory import DeviceMemory
from repro.graph import compressed, generators
from repro.gpu.traceplan import (
    build_vertex_trace,
    fuse_packed_streams,
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
# Single-sort stream fusion
# ----------------------------------------------------------------------

def _naive_concat(segments):
    return np.concatenate(
        [coalescing.packed_to_sectors(sorted_unique(s)) for s in segments]
    ) if segments else np.empty(0, dtype=np.int64)


def _random_segments(rng, n_segments, max_group):
    segments = []
    for _ in range(n_segments):
        n = int(rng.integers(0, 400))
        groups = rng.integers(0, max_group + 1, size=n)
        addresses = rng.integers(0, 1 << 20, size=n)
        segments.append(
            coalescing.scatter_packed_keys(addresses, groups)
        )
    return segments


class TestFusePackedStreams:
    @pytest.mark.parametrize("seed", range(6))
    def test_equals_per_stream_dedup(self, seed):
        rng = np.random.default_rng(seed)
        segments = _random_segments(rng, int(rng.integers(1, 6)), 500)
        expected = _naive_concat([s for s in segments if len(s)])
        assert np.array_equal(fuse_packed_streams(segments), expected)

    def test_empty_and_single(self):
        assert len(fuse_packed_streams([])) == 0
        seg = coalescing.scatter_packed_keys(
            np.array([64, 0, 64]), np.array([1, 0, 1])
        )
        assert np.array_equal(
            fuse_packed_streams([seg]), _naive_concat([seg])
        )

    def test_overflow_falls_back_to_per_stream(self):
        # Two segments whose lifted group keys would exceed the packed
        # layout: max group ~2**24 each, so the cumulative offset crosses
        # 2**25.  The fallback must still match the naive result.
        big = (1 << 24) + 7
        segs = [
            coalescing.scatter_packed_keys(
                np.array([32, 96, 32]), np.array([big, 0, big])
            ),
            coalescing.scatter_packed_keys(
                np.array([128, 128]), np.array([big, big])
            ),
        ]
        assert np.array_equal(fuse_packed_streams(segs), _naive_concat(segs))


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
    """Every ndarray a plan holds, through nested dataclass fields."""
    arrays = []
    for field in dataclasses.fields(obj):
        value = getattr(obj, field.name)
        if isinstance(value, np.ndarray):
            arrays.append(value)
        elif dataclasses.is_dataclass(value):
            arrays.extend(_held_arrays(value))
    return arrays


def _assert_owns_what_it_counts(plan):
    arrays = _held_arrays(plan)
    assert len(arrays) == 3
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
            plans = [e.trace_plan for e in session._frontier_memo.values()
                     if e.trace_plan is not None]
            assert plans
            for plan in plans:
                _assert_owns_what_it_counts(plan)
