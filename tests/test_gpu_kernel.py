"""Tests for the kernel cost model: SIMT lockstep, SMP effects, occupancy,
roofline composition and warp sampling."""

import dataclasses
import itertools

import numpy as np
import pytest

from repro.errors import InvalidLaunchError
from repro.gpu import sharedmem, warp
from repro.gpu.cache import CacheHierarchy
from repro.gpu.device import GTX_1080TI
from repro.gpu.kernel import (
    TRACE_CAP,
    _issue_model,
    build_vertex_trace,
    simulate_streaming_kernel,
    simulate_vertex_kernel,
)
from repro.gpu.memory import DeviceMemory
from repro.gpu.profiler import KernelCounters


def make_launch(n_threads, degree, *, spread=False, seed=0):
    """Build a synthetic kernel launch over a fake CSR layout."""
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
    return dict(
        starts=starts,
        degrees=degrees,
        adj_array=adj,
        neighbor_ids=neighbors,
        label_array=labels,
        meta_array=vas,
        meta_words_per_thread=3,
    )


def run(caches=None, **kw):
    caches = caches or CacheHierarchy(GTX_1080TI)
    return simulate_vertex_kernel(GTX_1080TI, caches, **kw)


class TestWarpHelpers:
    def test_per_warp_max(self):
        values = np.zeros(64)
        values[5] = 10
        values[40] = 3
        out = warp.per_warp_max(values)
        assert list(out) == [10, 3]

    def test_per_warp_sum_with_padding(self):
        out = warp.per_warp_sum(np.ones(40))
        assert list(out) == [32, 8]

    def test_warp_efficiency_balanced(self):
        assert warp.warp_efficiency(np.full(64, 7)) == pytest.approx(1.0)

    def test_warp_efficiency_skewed(self):
        values = np.ones(32)
        values[0] = 100
        eff = warp.warp_efficiency(values)
        assert eff == pytest.approx((100 + 31) / (100 * 32))

    def test_warp_efficiency_empty(self):
        assert warp.warp_efficiency(np.array([])) == 1.0

    def test_assign_warps_round_robin(self):
        out = warp.assign_warps_to_sms(np.ones(10), num_sms=4)
        assert list(out) == [3, 3, 2, 2]


class TestOccupancy:
    def test_unlimited_without_shared(self):
        occ = sharedmem.occupancy(GTX_1080TI, 256)
        assert occ.warps_per_sm == 64

    def test_shared_memory_limits_blocks(self):
        # 256 threads * 32 words * 4 B = 32 KiB/block; 96 KiB SM -> 3 blocks.
        shared = sharedmem.smp_shared_bytes_per_block(256, 32)
        occ = sharedmem.occupancy(GTX_1080TI, 256, shared)
        assert occ.blocks_per_sm == 3
        assert occ.warps_per_sm == 24

    def test_block_too_large_rejected(self):
        with pytest.raises(InvalidLaunchError):
            sharedmem.occupancy(GTX_1080TI, 2048)

    def test_shared_exceeding_sm_rejected(self):
        with pytest.raises(InvalidLaunchError):
            sharedmem.occupancy(GTX_1080TI, 256, 100 * 1024 * 2)

    def test_invalid_smp_params_rejected(self):
        with pytest.raises(InvalidLaunchError):
            sharedmem.smp_shared_bytes_per_block(0, 4)
        with pytest.raises(InvalidLaunchError):
            sharedmem.smp_shared_bytes_per_block(32, 0)


class TestVertexKernel:
    def test_empty_launch_rejected(self):
        kw = make_launch(1, 1)
        kw["starts"] = np.empty(0, dtype=np.int64)
        kw["degrees"] = np.empty(0, dtype=np.int64)
        kw["neighbor_ids"] = np.empty(0, dtype=np.int64)
        with pytest.raises(InvalidLaunchError):
            run(**kw)

    def test_neighbor_count_must_match_degrees(self):
        kw = make_launch(10, 4)
        kw["neighbor_ids"] = kw["neighbor_ids"][:-1]
        with pytest.raises(InvalidLaunchError):
            run(**kw)

    def test_smp_requires_degree_limit(self):
        kw = make_launch(10, 4)
        with pytest.raises(InvalidLaunchError):
            run(smp=True, **kw)

    def test_time_positive_and_includes_launch(self):
        t = run(**make_launch(64, 4))
        assert t.time_ms > GTX_1080TI.kernel_launch_us * 1e-3
        assert t.counters.launches == 1

    def test_skew_slows_lockstep_issue(self):
        """One hub lane should dominate its warp (the UDC motivation)."""
        balanced = make_launch(32, 8, seed=1)
        t_bal = run(**balanced)
        skew = make_launch(32, 8, seed=1)
        degrees = np.full(32, 1, dtype=np.int64)
        degrees[0] = 8 * 32 - 31  # same total edges, all in lane 0
        skew["degrees"] = degrees
        skew["starts"] = np.concatenate([[0], np.cumsum(degrees)[:-1]])
        t_skew = run(**skew)
        assert t_skew.compute_ms > 2 * t_bal.compute_ms

    def test_balanced_issue_ignores_skew(self):
        skew = make_launch(32, 8, seed=1)
        degrees = np.full(32, 1, dtype=np.int64)
        degrees[0] = 8 * 32 - 31
        skew["degrees"] = degrees
        skew["starts"] = np.concatenate([[0], np.cumsum(degrees)[:-1]])
        t_max = run(**skew)
        skew2 = dict(skew)
        t_bal = run(balanced_issue=True, **skew2)
        assert t_bal.compute_ms < t_max.compute_ms

    def test_smp_reduces_transactions(self):
        """Fig. 7: SMP roughly halves global load transactions."""
        kw1 = make_launch(2048, 12, seed=2)
        t_base = run(**kw1)
        kw2 = make_launch(2048, 12, seed=2)
        t_smp = run(smp=True, degree_limit=12, **kw2)
        ratio = (
            t_smp.counters.global_load_transactions
            / t_base.counters.global_load_transactions
        )
        assert 0.3 < ratio < 0.75

    def test_smp_improves_ipc(self):
        kw1 = make_launch(2048, 12, seed=2)
        t_base = run(**kw1)
        kw2 = make_launch(2048, 12, seed=2)
        t_smp = run(smp=True, degree_limit=12, **kw2)
        assert t_smp.counters.ipc > 1.1 * t_base.counters.ipc

    def test_smp_is_faster(self):
        kw1 = make_launch(4096, 12, seed=3)
        t_base = run(**kw1)
        kw2 = make_launch(4096, 12, seed=3)
        t_smp = run(smp=True, degree_limit=12, **kw2)
        assert t_smp.time_ms < t_base.time_ms

    def test_weighted_kernel_reads_more(self):
        kw = make_launch(512, 8, seed=4)
        mem = DeviceMemory(GTX_1080TI)
        weights = mem.alloc(
            "w", np.zeros(int(kw["degrees"].sum()), dtype=np.float32)
        )
        t_unw = run(**make_launch(512, 8, seed=4))
        t_w = run(weight_array=weights, **kw)
        assert (
            t_w.counters.global_load_transactions
            > t_unw.counters.global_load_transactions
        )

    def test_idle_threads_add_cost(self):
        t_active = run(**make_launch(256, 4, seed=5))
        t_idle = run(idle_threads=1_000_000, **make_launch(256, 4, seed=5))
        assert t_idle.time_ms > t_active.time_ms
        assert t_idle.counters.instructions > t_active.counters.instructions

    def test_updates_produce_stores(self):
        t = run(updates=100, **make_launch(64, 4))
        assert t.counters.global_store_transactions == 100
        assert t.counters.dram_write_bytes == 100 * 32

    def test_warp_sampling_preserves_scaled_totals(self):
        """A launch above TRACE_CAP must report totals close to the
        unsampled equivalent (built from identical per-warp structure)."""
        degree = 16
        n_big = (TRACE_CAP // degree) * 2
        big = make_launch(n_big, degree, seed=6)
        t_big = run(**big)
        # Expected edges: every thread has `degree` neighbors.
        assert t_big.counters.threads == pytest.approx(n_big, rel=0.02)
        small = make_launch(n_big // 4, degree, seed=6)
        t_small = run(**small)
        assert t_big.counters.instructions == pytest.approx(
            4 * t_small.counters.instructions, rel=0.05
        )
        assert t_big.counters.global_load_transactions == pytest.approx(
            4 * t_small.counters.global_load_transactions, rel=0.15
        )

    def test_zero_degree_threads_are_cheap(self):
        kw = make_launch(128, 0)
        t = run(**kw)
        assert t.counters.global_load_transactions <= 128 * 3
        assert t.time_ms < 0.1


class TestStreamingKernel:
    def test_streaming_transactions_are_sequential(self):
        caches = CacheHierarchy(GTX_1080TI)
        t = simulate_streaming_kernel(
            GTX_1080TI, caches, read_bytes=3200, write_bytes=0, n_threads=100
        )
        assert t.counters.global_load_transactions == 100

    def test_write_bytes_counted(self):
        caches = CacheHierarchy(GTX_1080TI)
        t = simulate_streaming_kernel(
            GTX_1080TI, caches, read_bytes=0, write_bytes=6400, n_threads=10
        )
        assert t.counters.dram_write_bytes == 6400

    def test_scatter_component_traced(self):
        caches = CacheHierarchy(GTX_1080TI)
        idx = np.arange(1000) * 100  # scattered
        t = simulate_streaming_kernel(
            GTX_1080TI,
            caches,
            read_bytes=0,
            write_bytes=0,
            n_threads=1000,
            scatter_base_address=0,
            scatter_indices=idx,
        )
        assert t.counters.global_load_transactions >= 900

    def test_empty_launch_rejected(self):
        with pytest.raises(InvalidLaunchError):
            simulate_streaming_kernel(
                GTX_1080TI, CacheHierarchy(GTX_1080TI),
                read_bytes=0, write_bytes=0, n_threads=0,
            )

    def test_streaming_faster_than_scattered_per_byte(self):
        """CuSha's entire premise: coalesced streams beat random gathers."""
        caches = CacheHierarchy(GTX_1080TI)
        nbytes = 400_000
        t_stream = simulate_streaming_kernel(
            GTX_1080TI, caches, read_bytes=nbytes, write_bytes=0,
            n_threads=nbytes // 4,
        )
        kw = make_launch(nbytes // 4 // 8, 8, seed=7)
        t_scatter = run(**kw)
        assert t_stream.time_ms < t_scatter.time_ms


class TestPlanKeyedInstructionModel:
    """A memoized plan keeps its per-warp instruction model, keyed by
    the instruction parameters: a replay under any parameters must
    equal a launch that builds everything afresh."""

    DEGREE_LIMIT = 16
    #: (balanced_issue, instr_per_edge, instr_base) of every replay.
    COMBOS = list(itertools.product((False, True), (8.0, 11.0),
                                    (24.0, 30.0)))

    @staticmethod
    def _warmed():
        """A hierarchy after a fixed warm-up that overlaps the launch's
        sectors, so hits occur at both levels."""
        caches = CacheHierarchy(GTX_1080TI)
        rng = np.random.default_rng(5)
        for _ in range(3):
            caches.access(rng.integers(0, 3000, size=2000))
        return caches

    @pytest.mark.parametrize("smp", [False, True])
    def test_replays_equal_fresh_launches(self, smp):
        kw = make_launch(300, 6, spread=True, seed=13)
        launch = dict(kw, smp=smp, degree_limit=self.DEGREE_LIMIT,
                      updates=17)
        plan = build_vertex_trace(GTX_1080TI, **kw, smp=smp)
        for balanced, per_edge, base in self.COMBOS:
            params = dict(balanced_issue=balanced, instr_per_edge=per_edge,
                          instr_base=base)
            replayed = run(caches=self._warmed(), plan=plan, **launch,
                           **params)
            fresh = run(caches=self._warmed(), **launch, **params)
            for f in dataclasses.fields(replayed):
                assert getattr(replayed, f.name) == getattr(fresh, f.name), \
                    (f.name, balanced, per_edge, base)
            assert replayed.counters.as_dict() == fresh.counters.as_dict()
        # One model per parameter set, all kept on the plan.
        assert len(plan.issue) == len(self.COMBOS)
        assert plan.sorted_stream.summary is not None

    def test_every_key_parameter_selects_its_model(self):
        """Querying one plan under every combination of the five key
        parameters returns what a plan without kept models computes."""
        kw = make_launch(200, 5, spread=True, seed=3)
        plan = build_vertex_trace(GTX_1080TI, **kw)
        for key in itertools.product((False, True), (24.0, 30.0),
                                     (8.0, 11.0), (False, True), (32, 16)):
            kept = _issue_model(plan, *key)
            fresh = _issue_model(dataclasses.replace(plan, issue={}), *key)
            assert kept[0] == fresh[0], key
            for a, b in zip(kept[1:], fresh[1:]):
                assert np.array_equal(a, b), key
        assert len(plan.issue) == 32
        models = sum(w.nbytes + e.nbytes for _, w, e in plan.issue.values())
        assert plan.nbytes == (plan.sorted_stream.nbytes
                               + plan.degrees.nbytes + models)


class TestCounterMerge:
    def test_merge_adds_every_field(self):
        """The straight-line merge covers every declared counter."""
        names = list(KernelCounters.__dataclass_fields__)
        a = KernelCounters(**{n: i + 1 for i, n in enumerate(names)})
        b = KernelCounters(**{n: 100 * (i + 1) for i, n in enumerate(names)})
        a.merge(b)
        assert a.as_dict() == {n: 101 * (i + 1) for i, n in enumerate(names)}

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     -float("inf")])
    def test_merge_drops_each_non_finite_field(self, bad):
        """A non-finite contribution to any one field is dropped; the
        other fields of the same launch still accumulate."""
        names = list(KernelCounters.__dataclass_fields__)
        for name in names:
            acc = KernelCounters(launches=1, instructions=2.0)
            acc.merge(KernelCounters(**{n: bad if n == name else 1
                                        for n in names}))
            for n in names:
                want = {"launches": 1, "instructions": 2.0}.get(n, 0)
                assert getattr(acc, n) == want + (n != name), (name, n)
