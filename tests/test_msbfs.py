"""Tests for multi-source wave traversal (MSBFS).

The contract under test is the tentpole one: a bit-packed wave of up to
64 BFS sources produces, for every lane, labels **bit-identical** to a
sequential :meth:`EngineSession.query` from that source — across memory
modes, wave widths, ragged final waves, telemetry on/off, the
degradation ladder, and the serving frontend's request coalescer.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import msbfs
from repro.core.config import EtaGraphConfig, MemoryMode
from repro.core.msbfs import WAVE_LANES, WaveResult, run_wave, wave_chunks
from repro.core.multi import run_batch
from repro.core.session import EngineSession
from repro.errors import (
    ConfigError,
    DeadlineExceededError,
    InvalidLaunchError,
)
from repro.gpu.device import GTX_1080TI, KIB
from repro.graph.compressed import compress
from repro.graph.csr import CSRGraph
from repro.resilience import FaultPlan, FaultSpec, ResilientSession
from repro.serving import TenantQuota, TraversalService, VisitRequest
from repro.testing.differential import oracle_labels

ALL_MODES = tuple(MemoryMode)
ENCODINGS = ("dense", "compressed")
#: Every memory mode x topology encoding.  Dense cases keep the bare
#: mode ids they had before the encoding axis existed.
MODE_ENCODING_CASES = [
    pytest.param(mode, encoding, id=(
        mode.value if encoding == "dense" else f"{encoding}-{mode.value}"
    ))
    for encoding in ENCODINGS for mode in ALL_MODES
]


def _encode(graph, encoding):
    return compress(graph) if encoding == "compressed" else graph


def _sequential_labels(graph, sources, config=None):
    with EngineSession(graph, config or EtaGraphConfig()) as session:
        return [session.query("bfs", int(s)).labels.copy() for s in sources]


def _assert_lanes_match(wave: WaveResult, expected: list[np.ndarray]):
    assert wave.width == len(expected)
    for lane, labels in enumerate(expected):
        assert wave.labels_for(lane).tobytes() == labels.tobytes(), \
            f"lane {lane} diverged"


# ----------------------------------------------------------------------
# Bit-identity with the sequential engine
# ----------------------------------------------------------------------


class TestWaveBitIdentity:
    @pytest.mark.parametrize("mode,encoding", MODE_ENCODING_CASES)
    def test_identical_across_memory_modes(self, skewed_graph, mode,
                                           encoding):
        topology = _encode(skewed_graph, encoding)
        config = EtaGraphConfig(memory_mode=mode)
        sources = list(range(0, 64, 2))  # 32 lanes
        expected = _sequential_labels(topology, sources, config)
        with EngineSession(topology, config) as session:
            wave = run_wave(session, np.array(sources))
        _assert_lanes_match(wave, expected)

    @pytest.mark.parametrize("width", [1, 32, 64])
    def test_identical_across_widths(self, skewed_graph, width):
        sources = list(range(width))
        expected = _sequential_labels(skewed_graph, sources)
        with EngineSession(skewed_graph) as session:
            wave = run_wave(session, np.array(sources))
        _assert_lanes_match(wave, expected)
        assert wave.width == width

    def test_duplicate_sources_share_levels(self, skewed_graph):
        sources = [5, 9, 5, 5]
        expected = _sequential_labels(skewed_graph, sources)
        with EngineSession(skewed_graph) as session:
            wave = run_wave(session, np.array(sources))
        _assert_lanes_match(wave, expected)

    def test_matches_cpu_oracle(self, skewed_graph):
        sources = [0, 17, 101, 255]
        with EngineSession(skewed_graph) as session:
            wave = run_wave(session, np.array(sources))
        for lane, s in enumerate(sources):
            assert np.array_equal(
                wave.labels_for(lane),
                oracle_labels(skewed_graph, "bfs", s),
            )

    def test_telemetry_does_not_change_labels_or_clocks(self, skewed_graph):
        """Telemetry must be pure observation: labels AND every
        simulated clock are bit-identical with spans on or off."""
        sources = np.arange(24)
        with EngineSession(
            skewed_graph, EtaGraphConfig(telemetry=False)
        ) as quiet:
            off = run_wave(quiet, sources)
        with EngineSession(
            skewed_graph, EtaGraphConfig(telemetry=True)
        ) as loud:
            on = run_wave(loud, sources)
        assert on.levels.tobytes() == off.levels.tobytes()
        for field in ("total_ms", "kernel_ms", "transfer_ms", "d2h_ms",
                      "setup_ms"):
            assert getattr(on, field).hex() == getattr(off, field).hex(), \
                f"{field} diverged under telemetry"
        assert on.iterations == off.iterations
        assert on.trace is not None and off.trace is None

    def test_wave_memo_reuse_stays_exact(self, skewed_graph):
        """An identical second wave replays identical frontiers: it
        memo-hits heavily, collides never, and stays bit-identical."""
        sources = np.arange(16)
        with EngineSession(skewed_graph) as session:
            first = run_wave(session, sources)
            hits_before = session.memo_hits
            second = run_wave(session, sources)
            assert session.memo_hits > hits_before
            assert session.memo_collisions == 0
        assert first.levels.tobytes() == second.levels.tobytes()

    def test_wave_and_sequential_memo_do_not_mix(self, skewed_graph):
        """Wave memo entries are keyed apart from sequential ones
        (their trace plans gather 8-byte masks): interleaving both on
        one session must stay exact in both directions."""
        with EngineSession(skewed_graph) as session:
            seq_before = session.query("bfs", 0).labels.copy()
            wave = run_wave(session, np.array([0, 1, 2]))
            seq_after = session.query("bfs", 0).labels
            assert np.array_equal(seq_before, seq_after)
        expected = _sequential_labels(skewed_graph, [0, 1, 2])
        _assert_lanes_match(wave, expected)


# ----------------------------------------------------------------------
# Conservation: a width-1 wave pays exactly the query's topology traffic
# ----------------------------------------------------------------------

#: Per-iteration topology transfers: zero-copy reads, direct-access
#: sector reads and UM fault migrations.  The working-array init copies
#: (``labels-init`` vs ``wave-masks-init``) legitimately differ — 4-byte
#: labels against 8-byte lane masks — and are excluded.
_TOPOLOGY_LABELS = ("zerocopy-", "direct-", "iter-")

#: Device capacity below the skewed graph's topology footprint (dense
#: or compressed) but above its working buffers: UM prefetch
#: oversubscribes and re-faults adjacency pages every iteration.  The
#: wave's lane masks take 1 KiB more device memory than the query's
#: labels; at this capacity both leave the same whole-page UM budget.
#: (Where that 1 KiB crosses a page boundary the wave legitimately
#: gets one resident page fewer, and its faults differ.)
OVERSUBSCRIBED_CAPACITY = 8 * KIB


def _topology_traffic(result):
    return [
        (iv.label, iv.nbytes, iv.duration_ms)
        for iv in result.timeline.intervals
        if iv.kind == "transfer" and iv.label.startswith(_TOPOLOGY_LABELS)
    ]


def _assert_conserved(topology, config, source, device=GTX_1080TI):
    with EngineSession(topology, config, device) as session:
        query = session.query("bfs", source)
    with EngineSession(topology, config, device) as session:
        wave = run_wave(session, np.array([source]))
    assert wave.labels_for(0).tobytes() == query.labels.tobytes()
    assert wave.oversubscribed == query.oversubscribed
    wave_traffic = _topology_traffic(wave)
    query_traffic = _topology_traffic(query)
    assert [t[:2] for t in wave_traffic] == [t[:2] for t in query_traffic]
    # Durations are read back from intervals placed at different clock
    # offsets (a wave's kernels gather 8-byte masks), hence approx.
    assert [t[2] for t in wave_traffic] == \
        pytest.approx([t[2] for t in query_traffic], rel=1e-9, abs=1e-12)
    assert wave.profiler.migration_sizes == query.profiler.migration_sizes
    return query


class TestWaveTopologyConservation:
    @pytest.mark.parametrize("mode,encoding", MODE_ENCODING_CASES)
    def test_width_one_wave_moves_query_bytes(self, skewed_graph, mode,
                                             encoding):
        query = _assert_conserved(
            _encode(skewed_graph, encoding),
            EtaGraphConfig(memory_mode=mode), 0,
        )
        if mode in (MemoryMode.ZERO_COPY, MemoryMode.DIRECT_ACCESS,
                    MemoryMode.UM_ON_DEMAND):
            # Non-vacuous: these placements read topology every iteration.
            assert _topology_traffic(query)

    @pytest.mark.parametrize("encoding", ENCODINGS)
    def test_oversubscribed_prefetch_refaults_match(self, skewed_graph,
                                                    encoding):
        """UM prefetch past device capacity re-faults evicted adjacency
        pages every iteration; the wave must re-fault the same pages."""
        query = _assert_conserved(
            _encode(skewed_graph, encoding),
            EtaGraphConfig(memory_mode=MemoryMode.UM_PREFETCH), 0,
            device=GTX_1080TI.with_capacity(OVERSUBSCRIBED_CAPACITY),
        )
        assert query.oversubscribed
        assert _topology_traffic(query)


# ----------------------------------------------------------------------
# WaveResult surface and validation
# ----------------------------------------------------------------------
# Push and pull steps are interchangeable
# ----------------------------------------------------------------------

#: Values of ``msbfs.PULL_EDGE_SHARE`` that force every iteration with
#: edges onto one side of the switch.
DIRECTIONS = {"push": float("inf"), "pull": 0.0}


def _multigraph(seed: int = 7) -> CSRGraph:
    """A random multigraph with everything the pull view must handle:
    zero-in-degree vertices (0-4), an isolated last vertex, self-loops,
    duplicate edges, and one hub whose out-degree exceeds the degree
    cut, so its edges split across several shadows."""
    rng = np.random.default_rng(seed)
    n = 80
    src = rng.integers(0, n - 1, 400)
    dst = rng.integers(5, n - 1, 400)
    hub = np.full(90, 3)
    loops = np.arange(10, 20)
    src = np.concatenate([src, hub, loops, src[:30]])
    dst = np.concatenate([dst, rng.integers(5, n - 1, 90), loops, dst[:30]])
    return CSRGraph.from_edges(src, dst, num_vertices=n, dedup=False)


def _directed_wave(monkeypatch, graph, sources, direction, encoding,
                   config=None):
    monkeypatch.setattr(msbfs, "PULL_EDGE_SHARE", DIRECTIONS[direction])
    with EngineSession(_encode(graph, encoding),
                       config or EtaGraphConfig()) as session:
        return run_wave(session, sources)


class TestPushPullEquivalence:
    @pytest.mark.parametrize("encoding", ENCODINGS)
    @pytest.mark.parametrize("sources", [
        pytest.param([3], id="width1"),
        pytest.param(list(range(64)), id="width64"),
        pytest.param([3] * 40 + list(range(40, 64)), id="repeated-source"),
        pytest.param([79, 0], id="isolated-and-zero-in-degree"),
    ])
    def test_directions_agree(self, monkeypatch, sources, encoding):
        graph = _multigraph()
        push, pull = (
            _directed_wave(monkeypatch, graph, sources, d, encoding)
            for d in DIRECTIONS
        )
        assert push.levels.tobytes() == pull.levels.tobytes()
        for lane, source in enumerate(sources):
            expected = oracle_labels(graph, "bfs", source)
            assert pull.levels[lane].tobytes() == expected.tobytes()
        # Per-iteration updates and newly-visited counts, and every
        # simulated clock and counter, are the same either way.
        assert push.stats.iterations == pull.stats.iterations
        assert push.profiler == pull.profiler
        assert push.total_ms == pull.total_ms

    def test_directions_agree_with_invariant_checks(self, monkeypatch,
                                                    skewed_graph):
        config = EtaGraphConfig(check_invariants=True, degree_limit=4)
        sources = list(range(0, 128, 2))
        push, pull = (
            _directed_wave(monkeypatch, skewed_graph, sources, d, "dense",
                           config)
            for d in DIRECTIONS
        )
        assert push.levels.tobytes() == pull.levels.tobytes()
        assert push.stats.iterations == pull.stats.iterations
        assert push.profiler == pull.profiler

    def test_default_switch_mixes_directions(self, monkeypatch,
                                             skewed_graph):
        """The default share sends wide iterations to pull and narrow
        ones to push within one wave, with the same result."""
        sources = list(range(64))
        with EngineSession(skewed_graph) as session:
            mixed = run_wave(session, sources)
        share = [it.edges_scanned / skewed_graph.num_edges
                 for it in mixed.stats.iterations if it.edges_scanned]
        assert min(share) < msbfs.PULL_EDGE_SHARE <= max(share)
        push = _directed_wave(monkeypatch, skewed_graph, sources, "push",
                              "dense")
        assert mixed.levels.tobytes() == push.levels.tobytes()
        assert mixed.stats.iterations == push.stats.iterations
        assert mixed.profiler == push.profiler

    @pytest.mark.parametrize("direction", DIRECTIONS)
    def test_chain_deeper_than_255_levels(self, monkeypatch, direction):
        n = 300
        chain = CSRGraph.from_edges(np.arange(n - 1), np.arange(1, n),
                                    num_vertices=n)
        wave = _directed_wave(monkeypatch, chain, [0, 10, 0], direction,
                              "dense")
        expected = np.arange(n, dtype=np.float32)
        assert wave.levels[0].tobytes() == expected.tobytes()
        assert wave.levels[2].tobytes() == expected.tobytes()
        lane1 = np.full(n, np.inf, dtype=np.float32)
        lane1[10:] = np.arange(n - 10)
        assert wave.levels[1].tobytes() == lane1.tobytes()
        assert wave.iterations == n

    @pytest.mark.parametrize("sources", [[5], list(range(64))],
                             ids=["width1", "width64"])
    def test_levels_layout(self, skewed_graph, sources):
        with EngineSession(skewed_graph) as session:
            wave = run_wave(session, sources)
        assert wave.levels.dtype == np.float32
        assert wave.levels.shape == (len(sources), skewed_graph.num_vertices)
        assert wave.levels.flags["C_CONTIGUOUS"]


# ----------------------------------------------------------------------


class TestWaveSurface:
    def test_to_results_shares_cost_evenly(self, skewed_graph):
        sources = np.arange(8)
        with EngineSession(skewed_graph) as session:
            wave = run_wave(session, sources)
        results = wave.to_results()
        assert len(results) == 8
        for lane, r in enumerate(results):
            assert r.extras["wave"] is True
            assert r.extras["wave_lane"] == lane
            assert r.extras["wave_width"] == 8
            assert np.array_equal(r.labels, wave.labels_for(lane))
        total_share = sum(r.query_ms for r in results)
        assert total_share == pytest.approx(wave.query_ms)

    def test_queries_served_counts_lanes(self, skewed_graph):
        with EngineSession(skewed_graph) as session:
            run_wave(session, np.arange(5))
            assert session.queries_served == 5

    def test_source_validation(self, skewed_graph):
        with EngineSession(skewed_graph) as session:
            with pytest.raises(ConfigError):
                run_wave(session, np.array([], dtype=np.int64))
            with pytest.raises(ConfigError):
                run_wave(session, np.arange(WAVE_LANES + 1))
            with pytest.raises(InvalidLaunchError):
                run_wave(session, np.array([skewed_graph.num_vertices]))
            with pytest.raises(InvalidLaunchError):
                run_wave(session, np.array([-1]))

    def test_wave_chunks_ragged(self):
        chunks = list(wave_chunks(np.arange(70), 32))
        assert [len(c) for c in chunks] == [32, 32, 6]
        assert np.array_equal(np.concatenate(chunks), np.arange(70))
        with pytest.raises(ConfigError):
            list(wave_chunks(np.arange(4), 0))
        with pytest.raises(ConfigError):
            list(wave_chunks(np.arange(4), WAVE_LANES + 1))


# ----------------------------------------------------------------------
# run_batch(strategy="wave")
# ----------------------------------------------------------------------


class TestWaveBatch:
    def test_wave_batch_matches_sequential_batch(self, skewed_graph):
        sources = list(range(40))
        seq = run_batch(skewed_graph, sources, "bfs")
        wave = run_batch(
            skewed_graph, sources, "bfs", strategy="wave", wave_width=16,
        )
        assert wave.strategy == "wave" and seq.strategy == "sequential"
        assert [len(w.sources) for w in wave.waves] == [16, 16, 8]
        assert len(wave.results) == len(seq.results) == 40
        for a, b in zip(wave.results, seq.results):
            assert a.labels.tobytes() == b.labels.tobytes()

    def test_wave_batch_is_cheaper(self, skewed_graph):
        """The headline: one expansion per iteration for the whole wave
        beats one per source on the simulated clock too."""
        sources = list(range(64))
        seq = run_batch(skewed_graph, sources, "bfs")
        wave = run_batch(skewed_graph, sources, "bfs", strategy="wave")
        assert wave.query_ms < seq.query_ms

    def test_wave_batch_on_warm_session(self, skewed_graph):
        with EngineSession(skewed_graph) as session:
            session.query("bfs", 0)
            batch = run_batch(
                skewed_graph, [1, 2, 3], "bfs",
                session=session, strategy="wave",
            )
            assert batch.shared_setup_ms == 0.0
        expected = _sequential_labels(skewed_graph, [1, 2, 3])
        for r, e in zip(batch.results, expected):
            assert np.array_equal(r.labels, e)

    def test_strategy_validation(self, skewed_graph):
        with pytest.raises(ConfigError):
            run_batch(skewed_graph, [0], "bfs", strategy="nope")
        with pytest.raises(ConfigError):
            run_batch(skewed_graph, [0], "sssp", strategy="wave")
        with pytest.raises(ConfigError):
            run_batch(skewed_graph, [0], "bfs", wave_width=8)


# ----------------------------------------------------------------------
# The degradation ladder under waves
# ----------------------------------------------------------------------


class TestResilientWave:
    def test_no_fault_wave_identity(self, skewed_graph):
        sources = np.arange(12)
        expected = _sequential_labels(skewed_graph, sources)
        with ResilientSession(skewed_graph) as rs:
            outcome = rs.run_wave(sources)
        assert outcome.num_attempts == 1 and not outcome.degraded
        assert outcome.final_placement == "um_prefetch"
        _assert_lanes_match(outcome.result, expected)

    def test_wave_rides_the_ladder_on_oom(self, skewed_graph):
        """Chaos: an injected allocation OOM demotes the whole wave a
        rung; every lane must still match the CPU oracle."""
        sources = [0, 3, 7, 11]
        rs = ResilientSession(
            skewed_graph,
            fault_plan=FaultPlan(
                specs=(FaultSpec("alloc_oom", at=0),), seed=7,
            ),
        )
        with rs:
            outcome = rs.run_wave(np.array(sources))
        assert outcome.degraded
        assert outcome.final_placement != rs.entry_rung
        assert len(outcome.faults_seen) >= 1
        for lane, s in enumerate(sources):
            assert np.array_equal(
                outcome.result.labels_for(lane),
                oracle_labels(skewed_graph, "bfs", s),
            )

    def test_transient_fault_retries_same_rung(self, skewed_graph):
        rs = ResilientSession(
            skewed_graph,
            fault_plan=FaultPlan(
                specs=(FaultSpec("transfer_fault", at=0),), seed=5,
            ),
        )
        with rs:
            outcome = rs.run_wave(np.arange(4))
        assert outcome.retried and not outcome.degraded
        expected = _sequential_labels(skewed_graph, range(4))
        _assert_lanes_match(outcome.result, expected)

    def test_iteration_budget_maps_to_deadline_error(self, skewed_graph):
        from repro.resilience import RetryPolicy

        with ResilientSession(
            skewed_graph, policy=RetryPolicy(max_iterations=1),
        ) as rs:
            with pytest.raises(DeadlineExceededError):
                rs.run_wave(np.arange(4))


# ----------------------------------------------------------------------
# Serving-layer wave coalescing
# ----------------------------------------------------------------------


class TestServingWaves:
    QUOTA = {"t": TenantQuota(max_pending=64)}

    def _requests(self, n, **kwargs):
        return [
            VisitRequest(problem="bfs", source=i, tenant="t", **kwargs)
            for i in range(n)
        ]

    def test_coalesced_equals_plain_service(self, skewed_graph):
        requests = self._requests(10)
        with TraversalService(
            skewed_graph, quotas=self.QUOTA
        ) as plain:
            baseline = plain.serve(requests)
        with TraversalService(
            skewed_graph, quotas=self.QUOTA, wave_width=8,
        ) as waved:
            coalesced = waved.serve(requests)
        assert len(baseline) == len(coalesced) == 10
        for p, c in zip(baseline, coalesced):
            assert p.ok and c.ok
            assert p.value.tobytes() == c.value.tobytes()

    def test_wave_metadata_on_responses(self, skewed_graph):
        with TraversalService(
            skewed_graph, quotas=self.QUOTA, wave_width=4,
        ) as service:
            responses = service.serve(self._requests(4))
        for r in responses:
            assert r.ok
            assert r.result.extras["wave"] is True
            assert r.result.extras["wave_width"] == 4
        # Coalesced lanes finish together on one worker.
        assert len({r.finish_ms for r in responses}) == 1
        assert len({r.worker for r in responses}) == 1

    def test_ineligible_requests_stay_sequential(self, skewed_graph):
        """Targeted visits (early exit) can't share a wave; they must
        still be served, alone, with exact labels."""
        requests = [
            VisitRequest(problem="bfs", source=0, tenant="t", target=5),
            VisitRequest(problem="bfs", source=1, tenant="t"),
            VisitRequest(problem="bfs", source=2, tenant="t"),
        ]
        with TraversalService(
            skewed_graph, quotas=self.QUOTA, wave_width=8,
        ) as service:
            responses = service.serve(requests)
        assert all(r.ok for r in responses)
        assert "wave" not in (responses[0].result.extras or {})

    def test_resilient_pool_waves_stay_exact(self, skewed_graph):
        requests = self._requests(6)
        with TraversalService(
            skewed_graph, quotas=self.QUOTA, wave_width=8,
            resilient=True,
        ) as service:
            responses = service.serve(requests)
        for i, r in enumerate(responses):
            assert r.ok
            assert r.placement != ""
            assert np.array_equal(
                r.value, oracle_labels(skewed_graph, "bfs", i)
            )

    def test_wave_width_validation(self, skewed_graph):
        with pytest.raises(ConfigError):
            TraversalService(skewed_graph, wave_width=1)
        with pytest.raises(ConfigError):
            TraversalService(skewed_graph, wave_width=WAVE_LANES + 1)


# ----------------------------------------------------------------------
# Differential engine
# ----------------------------------------------------------------------


class TestDifferentialEngine:
    def test_msbfs_engine_registered_and_exact(self):
        from repro.graph import generators
        from repro.testing.differential import (
            EXTRA_ENGINE_FACTORIES, run_differential_case,
        )

        assert "etagraph-msbfs" in EXTRA_ENGINE_FACTORIES
        g = generators.rmat(6, 400, seed=5)
        factory = EXTRA_ENGINE_FACTORIES["etagraph-msbfs"]
        report = run_differential_case(
            g, "bfs", 3, baselines=(),
            extra_engines={"etagraph-msbfs": factory()},
        )
        assert report.ok, report.summary()
        assert "etagraph-msbfs" in {e.engine for e in report.engines}
