"""Tests of topology-resident engine sessions.

The contract under test: a warm session query returns labels
*bit-identical* to a standalone ``run()`` under every configuration,
while its cost accounting reflects only the work that query actually
performed — topology placement is paid once per session, measured, and
attributed to the query that triggered it.
"""

import numpy as np
import pytest

from repro import EngineSession, EtaGraph, EtaGraphConfig, MemoryMode
from repro.core.multi import BatchResult, pick_sources, run_batch
from repro.errors import InvalidLaunchError
from repro.graph import generators
from repro.graph.weights import attach_weights
from repro.utils.units import KIB


@pytest.fixture(scope="module")
def social():
    g = attach_weights(generators.rmat(10, 15000, seed=91), seed=92)
    return g


# ----------------------------------------------------------------------
# Functional exactness: warm session == standalone, whole config matrix
# ----------------------------------------------------------------------

class TestBitIdenticalLabels:
    @pytest.mark.parametrize("problem", ["bfs", "sssp", "sswp"])
    def test_matrix_session_matches_standalone(
        self, matrix_configs, differential_graphs, problem
    ):
        """Across the 12-config fixture matrix: the labels of a *warm*
        session query (after an unrelated warm-up query) are bit-identical
        to a fresh standalone run."""
        weighted = problem in ("sssp", "sswp")
        graphs = differential_graphs(weighted)[:2]
        for cfg in matrix_configs:
            for g in graphs:
                source = int(np.argmax(g.out_degrees()))
                warm_src = (source + 1) % g.num_vertices
                standalone = EtaGraph(g, cfg).run(problem, source)
                with EngineSession(g, cfg) as session:
                    session.query(problem, warm_src)
                    warm = session.query(problem, source)
                assert np.array_equal(standalone.labels, warm.labels), (
                    f"labels diverge for {problem} on {g!r} with {cfg}"
                )

    def test_many_queries_stay_exact(self, social):
        cfg = EtaGraphConfig(memory_mode=MemoryMode.UM_ON_DEMAND)
        sources = pick_sources(social, 8, seed=7)
        with EngineSession(social, cfg) as session:
            for s in sources:
                warm = session.query("sssp", int(s))
                standalone = EtaGraph(social, cfg).sssp(int(s))
                assert np.array_equal(warm.labels, standalone.labels)

    def test_mixed_problems_share_one_session(self, social):
        """bfs warms the session, then a weighted query joins: weights
        are placed late, labels still exact."""
        with EngineSession(social) as session:
            bfs_r = session.query("bfs", 0)
            assert bfs_r.setup_ms > 0.0
            sssp_r = session.query("sssp", 0)
            # The late weights placement is charged to the sssp query.
            assert sssp_r.setup_ms > 0.0
            standalone = EtaGraph(social).sssp(0)
            assert np.array_equal(sssp_r.labels, standalone.labels)


# ----------------------------------------------------------------------
# One-shot compatibility
# ----------------------------------------------------------------------

class TestSessionOfOne:
    @pytest.mark.parametrize(
        "mode", [MemoryMode.UM_PREFETCH, MemoryMode.UM_ON_DEMAND,
                 MemoryMode.DEVICE, MemoryMode.ZERO_COPY]
    )
    def test_run_is_a_fresh_session_query(self, social, mode):
        cfg = EtaGraphConfig(memory_mode=mode)
        via_run = EtaGraph(social, cfg).bfs(0)
        with EngineSession(social, cfg) as session:
            via_session = session.query("bfs", 0)
        assert np.array_equal(via_run.labels, via_session.labels)
        assert via_run.total_ms == via_session.total_ms
        assert via_run.setup_ms == via_session.setup_ms
        assert via_run.kernel_ms == via_session.kernel_ms

    def test_one_shot_pays_setup(self, social):
        result = EtaGraph(social).bfs(0)
        assert result.setup_ms > 0.0
        assert result.query_ms == pytest.approx(
            result.total_ms - result.setup_ms
        )


# ----------------------------------------------------------------------
# Warm-state accounting
# ----------------------------------------------------------------------

class TestWarmAccounting:
    def test_setup_paid_once_prefetch_mode(self, social):
        with EngineSession(social) as session:
            first = session.query("bfs", 0)
            assert first.setup_ms == session.setup_ms > 0.0
            warm = [session.query("bfs", s)
                    for s in (1, 2, 3)]
        for r in warm:
            assert r.setup_ms == 0.0
            assert r.extras["warm_start"]
            # Zero topology re-migration while not oversubscribed: the
            # only transfer left is the per-query labels initialization.
            assert r.profiler.migration_time_ms == 0.0
            assert r.profiler.migration_sizes == []
            assert r.profiler.h2d_bytes == social.num_vertices * 4

    def test_warm_on_demand_same_source_migrates_nothing(self, social):
        cfg = EtaGraphConfig(memory_mode=MemoryMode.UM_ON_DEMAND)
        with EngineSession(social, cfg) as session:
            cold = session.query("bfs", 0)
            warm = session.query("bfs", 0)
        assert sum(cold.profiler.migration_sizes) > 0
        assert sum(warm.profiler.migration_sizes) == 0
        assert warm.transfer_ms < cold.transfer_ms

    def test_warm_device_mode_skips_topology_h2d(self, social):
        cfg = EtaGraphConfig(memory_mode=MemoryMode.DEVICE)
        with EngineSession(social, cfg) as session:
            cold = session.query("bfs", 0)
            warm = session.query("bfs", 1)
        topo_bytes = (social.row_offsets.nbytes
                      + social.column_indices.nbytes)
        labels_bytes = social.num_vertices * 4
        assert cold.profiler.h2d_bytes == topo_bytes + labels_bytes
        assert warm.profiler.h2d_bytes == labels_bytes
        assert session.setup_transfer_bytes == topo_bytes

    def test_prepare_moves_setup_out_of_first_query(self, social):
        with EngineSession(social) as session:
            setup = session.prepare("bfs")
            assert setup > 0.0 and session.warm
            first = session.query("bfs", 0)
        assert first.setup_ms == 0.0
        assert first.profiler.migration_sizes == []

    def test_prepare_is_idempotent(self, social):
        with EngineSession(social) as session:
            a = session.prepare("sssp")
            b = session.prepare("sssp")
        assert a == b

    def test_early_exit_target_in_session(self, social):
        with EngineSession(social) as session:
            session.query("bfs", 0)
            full = session.query("bfs", 0)
            reachable = np.flatnonzero(np.isfinite(full.labels))
            target = int(reachable[-1])
            early = session.query("bfs", 0, target=target)
        assert early.labels[target] == full.labels[target]

    def test_closed_session_rejects_queries(self, social):
        session = EngineSession(social)
        session.close()
        with pytest.raises(InvalidLaunchError):
            session.query("bfs", 0)
        session.close()  # idempotent

    @pytest.mark.parametrize("mode", [MemoryMode.DEVICE,
                                      MemoryMode.UM_PREFETCH])
    def test_out_of_core_timeline_carries_every_moved_byte(self, mode):
        """The Fig. 4 transfer intervals of a cold out-of-core query sum
        to the bytes the profiler saw move, shadow-table staging
        included."""
        g = generators.rmat(9, 3000, seed=4)
        cfg = EtaGraphConfig(memory_mode=mode, udc_mode="out_of_core")
        with EngineSession(g, cfg) as session:
            r = session.query("bfs", 0)
        moved = sum(iv.nbytes for iv in r.timeline.intervals
                    if iv.kind == "transfer")
        assert moved == \
            r.profiler.h2d_bytes + sum(r.profiler.migration_sizes)

    def test_oversubscribed_warm_queries_refault(self):
        """Under oversubscription warm queries legitimately keep moving
        pages — the accounting attributes that movement to each query."""
        g = generators.rmat(9, 6000, seed=17)
        device = __import__(
            "repro.gpu.device", fromlist=["GTX_1080TI"]
        ).GTX_1080TI.with_capacity(16 * KIB)
        with EngineSession(g, EtaGraphConfig(), device) as session:
            first = session.query("bfs", 0)
            warm = session.query("bfs", 0)
        assert first.oversubscribed and warm.oversubscribed
        assert sum(warm.profiler.migration_sizes) > 0
        assert warm.setup_ms == 0.0


# ----------------------------------------------------------------------
# Batch accounting on top of sessions
# ----------------------------------------------------------------------

class TestMeasuredBatch:
    @pytest.mark.parametrize(
        "mode", [MemoryMode.UM_PREFETCH, MemoryMode.UM_ON_DEMAND,
                 MemoryMode.DEVICE]
    )
    def test_shared_setup_is_first_query_topology_movement(
        self, social, mode
    ):
        cfg = EtaGraphConfig(memory_mode=mode)
        sources = pick_sources(social, 8, seed=11)
        batch = run_batch(social, sources, "bfs", config=cfg)
        assert len(batch.results) == 8
        assert batch.shared_setup_ms == batch.results[0].setup_ms > 0.0
        for r in batch.results[1:]:
            assert r.setup_ms == 0.0
            if mode.uses_um:
                assert sum(r.profiler.migration_sizes) == 0

    def test_caller_owned_session_extends_warm(self, social):
        with EngineSession(social) as session:
            a = run_batch(social, [0, 1], "bfs", session=session)
            b = run_batch(social, [2, 3], "bfs", session=session)
            assert not session.closed
        assert a.shared_setup_ms > 0.0
        assert b.shared_setup_ms == 0.0  # fully warm second batch

    def test_session_graph_mismatch_rejected(self, social):
        from repro.errors import ConfigError

        other = generators.path_graph(5)
        with EngineSession(other) as session:
            with pytest.raises(ConfigError):
                run_batch(social, [0], "bfs", session=session)

    def test_speedup_guard_on_zero_total(self):
        empty = BatchResult(results=[], shared_setup_ms=0.0, query_ms=0.0)
        assert empty.amortization_speedup == 1.0
        free_setup = BatchResult(
            results=[], shared_setup_ms=0.0, query_ms=0.0
        )
        free_setup.query_ms = 0.0
        assert np.isfinite(free_setup.amortization_speedup)


# ----------------------------------------------------------------------
# API plumbing
# ----------------------------------------------------------------------

class TestApiPlumbing:
    def test_etagraph_session_handle(self, social):
        eta = EtaGraph(social)
        with eta.session() as session:
            r1 = session.query("bfs", 0)
            r2 = session.query("bfs", 1)
        assert r1.setup_ms > 0.0 and r2.setup_ms == 0.0

    def test_shortest_hop_path_reuses_one_session(self, social):
        from repro.algorithms.paths import verify_path

        eta = EtaGraph(social)
        bfs_labels = eta.bfs(0).labels
        reachable = np.flatnonzero(np.isfinite(bfs_labels))
        t1, t2 = int(reachable[-1]), int(reachable[-2])
        p1 = eta.shortest_hop_path(0, t1)
        p2 = eta.shortest_hop_path(0, t2)
        assert eta._path_session.queries_served == 2
        assert eta._path_session.setup_ms > 0.0
        assert verify_path(social, p1, bfs_labels, "bfs")
        assert verify_path(social, p2, bfs_labels, "bfs")

    def test_differential_hook_exercises_sessions(self):
        from repro.testing.differential import run_differential_case

        g = generators.rmat(6, 400, seed=5)
        report = run_differential_case(g, "bfs", 0, baselines=())
        names = {e.engine for e in report.engines}
        assert "etagraph-session" in names
        assert report.ok, report.summary()


# ----------------------------------------------------------------------
# The query step against a naive per-edge push
# ----------------------------------------------------------------------

def _multigraph(weighted: bool):
    """A graph with parallel edges, self-loops, a vertex above the degree
    limit and a sink, so per-destination edge counts differ from one."""
    from repro.graph.builder import build_csr_from_edges
    from repro.graph.weights import uniform_int_weights

    rng = np.random.default_rng(17)
    n = 40
    src = rng.integers(0, n - 1, 160)
    dst = rng.integers(0, n - 1, 160)
    extra = [(0, 1), (0, 1), (0, 1), (1, 1), (2, 2), (2, 3), (2, 3),
             (3, 0), (0, 0)] + [(4, v) for v in range(5, 25)]
    src = np.concatenate([src, [s for s, _ in extra]])
    dst = np.concatenate([dst, [d for _, d in extra]])
    weights = uniform_int_weights(len(src), high=6, seed=3) if weighted \
        else None
    # Vertex n-1 only receives edges: a sink.
    src[:5] = np.arange(5)
    dst[:5] = n - 1
    return build_csr_from_edges(src, dst, num_vertices=n, weights=weights,
                                dedup=False)


def _naive_push(g, problem, source, target=None):
    """Labels, parents and per-iteration (attempted, newly visited) of a
    synchronous push over every frontier edge, one edge at a time, in the
    engine's order (ascending frontier ids, CSR order within each): an
    edge's candidate improving the old label counts as attempted, a
    changed destination's parent is its last edge whose candidate equals
    the final label."""
    from repro.algorithms.paths import NO_PARENT

    n = g.num_vertices
    offsets, cols, weights = g.row_offsets, g.column_indices, g.edge_weights
    labels = problem.initial_labels(n, source)
    parents = np.full(n, NO_PARENT, dtype=np.int64)
    frontier = sorted(int(v) for v in problem.initial_frontier(n, source))
    visited = set(frontier)
    steps = []
    while frontier:
        old = labels.copy()
        edges = []
        for v in frontier:
            for e in range(offsets[v], offsets[v + 1]):
                w = weights[e:e + 1] if problem.needs_weights else None
                edges.append(
                    (v, int(cols[e]), problem.candidates(old[v:v + 1], w)))
        attempted = sum(bool(problem.improves(c, old[d:d + 1])[0])
                        for _, d, c in edges)
        for _, d, c in edges:
            if problem.improves(c, labels[d:d + 1])[0]:
                labels[d] = c[0]
        changed = sorted({d for _, d, _ in edges if labels[d] != old[d]})
        for v, d, c in edges:
            if d in changed and c[0] == labels[d]:
                parents[d] = v
        steps.append((attempted, len(set(changed) - visited)))
        visited.update(changed)
        frontier = changed
        if target is not None and target in visited:
            break
    return labels, parents, steps


class TestPerDestinationStep:
    @pytest.mark.parametrize("problem_name,target", [
        ("bfs", None), ("bfs", "deep"), ("cc", None), ("sssp", None),
        ("sswp", None),
    ])
    def test_matches_a_naive_per_edge_push(self, monkeypatch, problem_name,
                                           target):
        """First use, multiplicity build and replay (three queries on one
        session) and a memo-off session all equal the naive push: labels,
        parents, per-iteration updates and newly visited counts, and the
        early exit at a target."""
        from repro.algorithms.base import get_problem
        from repro.core.session import _FrontierExpansion

        g = _multigraph(weighted=problem_name in ("sssp", "sswp"))
        problem = get_problem(problem_name)
        source = 0
        if target == "deep":
            levels, _, _ = _naive_push(g, problem, source)
            target = int(np.flatnonzero(levels == levels[
                np.isfinite(levels)].max())[0])
            assert levels[target] >= 2
        labels, parents, steps = _naive_push(g, problem, source, target)

        uniform_steps = []
        reductions = []
        counts = _FrontierExpansion.destination_edges
        monkeypatch.setattr(
            _FrontierExpansion, "destination_edges",
            lambda self, n: uniform_steps.append(1) or counts(self, n))
        reduce_ = problem.scatter_reduce
        problem.scatter_reduce = \
            lambda *a: reductions.append(1) or reduce_(*a)

        cfg = EtaGraphConfig(degree_limit=4)
        results = []
        with EngineSession(g, cfg) as session:
            for _ in range(3):
                results.append(session.query(problem, source, target=target,
                                             parents=True))
            replayed = [e for e in session.memo.entries.values()
                        if e.dest_edges is not None]
        with EngineSession(
                g, EtaGraphConfig(degree_limit=4,
                                  frontier_memo=False)) as session:
            results.append(session.query(problem, source, target=target,
                                         parents=True))

        for r in results:
            assert r.labels.tobytes() == labels.tobytes()
            assert np.array_equal(r.extras["parents"], parents)
            assert [(s.updates, s.newly_visited)
                    for s in r.stats.iterations] == steps
        # A uniform step stores per destination; only a per-edge step
        # scatter-reduces.
        per_edge = len(reductions)
        if problem_name == "bfs":
            assert uniform_steps and per_edge == 0 and replayed
        elif problem_name == "cc":
            assert uniform_steps and per_edge
        else:
            assert not uniform_steps and per_edge
