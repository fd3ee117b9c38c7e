"""Tests for the GTS streaming baseline, batched multi-query runner and
the additional device presets."""

import numpy as np
import pytest

from repro import EtaGraph, EtaGraphConfig, MemoryMode
from repro.algorithms import cpu_reference
from repro.baselines import GTSFramework, get_framework
from repro.core.multi import pick_sources, run_batch
from repro.errors import ConfigError
from repro.gpu.device import GTX_1080TI, TESLA_K40, TESLA_V100
from repro.graph import generators
from repro.graph.weights import attach_weights


@pytest.fixture(scope="module")
def social():
    g = attach_weights(generators.rmat(10, 15000, seed=61), seed=62)
    src = int(np.argmax(g.out_degrees()))
    return g, src


class TestGTS:
    def test_labels_correct(self, social):
        g, src = social
        r = GTSFramework().run(g, "sssp", src)
        assert np.allclose(r.labels, cpu_reference.sssp_distances(g, src))

    def test_registered_in_factory(self):
        assert get_framework("gts").name == "gts"

    def test_streams_whole_chunks(self, social):
        """The Section I critique: bytes streamed >= bytes actually used."""
        g, src = social
        r = GTSFramework().run(g, "bfs", src)
        useful = g.column_indices.nbytes
        assert r.extras["streamed_bytes"] >= useful

    def test_smaller_chunks_waste_less(self):
        """Sparse activity: smaller chunks track the active set tighter."""
        g = generators.web_chain(20_000, 200_000, depth=40, seed=7)
        big = GTSFramework(chunk_bytes=2**21).run(g, "bfs", 0)
        small = GTSFramework(chunk_bytes=2**15).run(g, "bfs", 0)
        assert small.extras["streamed_bytes"] <= big.extras["streamed_bytes"]

    def test_etagraph_on_demand_beats_gts_on_sparse_activity(self):
        """The design argument for fine-grained overlap: when only a
        pocket of the graph activates, page-granular migration moves far
        less than whole chunks."""
        g = generators.web_chain(50_000, 500_000, depth=10, pocket_size=40,
                                 pocket_depth=4, seed=8)
        gts = GTSFramework().run(g, "bfs", 0)
        eta = EtaGraph(
            g, EtaGraphConfig(memory_mode=MemoryMode.UM_ON_DEMAND)
        ).bfs(0)
        moved_eta = sum(eta.profiler.migration_sizes)
        assert moved_eta < gts.extras["streamed_bytes"]
        assert np.array_equal(eta.labels, gts.labels)

    def test_profiler_counts_every_streamed_chunk(self):
        """Iterations touching more than 64 chunks charge 64 copies
        scaled up, but the profiler records every chunk's bytes and
        time."""
        from repro.gpu.profiler import Profiler
        from repro.gpu.transfer import h2d_copy

        g = generators.rmat(12, 200_000, seed=3)
        r = GTSFramework(chunk_bytes=4096).run(g, "bfs", 0)
        upfront = (g.num_vertices + 1) * 4 + g.num_vertices * 4
        assert upfront == 32_772
        assert r.profiler.h2d_bytes == upfront + r.extras["streamed_bytes"]
        assert r.profiler.h2d_bytes == 1_581_060
        chunks = r.extras["streamed_bytes"] // 4096
        spec, prof = GTX_1080TI, Profiler()
        expected_ms = (
            h2d_copy(spec, prof, (g.num_vertices + 1) * 4)
            + h2d_copy(spec, prof, g.num_vertices * 4)
            + chunks * h2d_copy(spec, prof, 4096, pinned=True)
        )
        assert r.profiler.h2d_time_ms == pytest.approx(expected_ms)

    def test_invalid_chunk_rejected(self):
        with pytest.raises(ConfigError):
            GTSFramework(chunk_bytes=100)

    def test_small_device_footprint(self, social):
        """GTS's pitch: only labels + two chunk buffers stay resident."""
        g, src = social
        r = GTSFramework().run(g, "bfs", src)
        assert r.device_bytes < g.nbytes + 2 * 2**21 + 4 * g.num_vertices * 4


class TestMultiQuery:
    def test_batch_labels_match_standalone(self, social):
        g, _ = social
        sources = pick_sources(g, 4, seed=3)
        batch = run_batch(g, sources, "bfs")
        for i, s in enumerate(sources):
            standalone = EtaGraph(g).bfs(int(s)).labels
            assert np.array_equal(batch.labels(i), standalone)

    def test_amortization_speedup(self, social):
        g, _ = social
        sources = pick_sources(g, 6, seed=4)
        batch = run_batch(g, sources, "bfs")
        assert batch.amortization_speedup > 1.0
        assert batch.total_ms < batch.naive_total_ms

    def test_shared_setup_counted_once(self, social):
        g, _ = social
        few = run_batch(g, pick_sources(g, 2, seed=5), "bfs")
        many = run_batch(g, pick_sources(g, 6, seed=5), "bfs")
        assert many.shared_setup_ms == pytest.approx(few.shared_setup_ms,
                                                     rel=0.01)

    def test_empty_batch_rejected(self, social):
        g, _ = social
        with pytest.raises(ConfigError):
            run_batch(g, [], "bfs")

    def test_pick_sources_distinct_and_eligible(self, social):
        g, _ = social
        sources = pick_sources(g, 10, seed=6, min_degree=2)
        assert len(np.unique(sources)) == len(sources)
        assert np.all(g.out_degrees()[sources] >= 2)

    def test_pick_sources_no_eligible(self):
        g = generators.star_graph(3, out=False)
        with pytest.raises(ConfigError):
            pick_sources(g, 2, min_degree=5)

    def test_pick_sources_overask_raises_by_default(self):
        """Asking for more sources than the graph can supply is a
        ConfigError under the strict default — previously it silently
        clamped, so sweeps ran fewer queries than their config claimed."""
        g = generators.star_graph(8, out=False)  # 8 leaves -> hub
        eligible = int(np.count_nonzero(g.out_degrees() >= 1))
        with pytest.raises(ConfigError, match="strict=False"):
            pick_sources(g, eligible + 1)

    def test_pick_sources_clamp_is_recorded(self):
        g = generators.star_graph(8, out=False)
        eligible = int(np.count_nonzero(g.out_degrees() >= 1))
        meta = {}
        sources = pick_sources(g, eligible + 5, strict=False, meta=meta)
        assert len(sources) == eligible
        assert meta == {
            "requested": eligible + 5,
            "delivered": eligible,
            "clamped": True,
        }
        # An in-range request records a no-op clamp.
        meta = {}
        sources = pick_sources(g, 2, strict=False, meta=meta)
        assert len(sources) == 2
        assert meta == {"requested": 2, "delivered": 2, "clamped": False}


class TestDevicePresets:
    def test_v100_capacity_matches_paper_intro(self):
        # "hardly more than 16GB (for even high-end computing cards)".
        assert TESLA_V100.memory_capacity == 16 * 2**30
        assert TESLA_V100.num_sms == 80

    def test_faster_device_runs_faster(self, social):
        g, src = social
        slow = EtaGraph(g, device=TESLA_K40).bfs(src)
        mid = EtaGraph(g, device=GTX_1080TI).bfs(src)
        fast = EtaGraph(g, device=TESLA_V100).bfs(src)
        assert fast.kernel_ms < mid.kernel_ms < slow.kernel_ms
        assert np.array_equal(fast.labels, slow.labels)
