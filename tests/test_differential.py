"""Differential tests: every engine must match the CPU oracle bit-for-bit.

Includes the full configuration matrix — {UDC in-core/out-of-core} x
{SMP on/off} x {UM-prefetch, UM-on-demand, device-copy} — over five
generated graphs per problem, and a meta-test proving the runner catches
an intentionally injected off-by-one.
"""

import numpy as np
import pytest

from repro.algorithms.base import get_problem
from repro.core.session import EngineSession
from repro.testing import (
    ALL_BASELINES,
    cc_reference,
    diff_labels,
    oracle_labels,
    run_differential_case,
)


class TestConfigMatrix:
    """EtaGraph x {UDC placements} x {SMP on/off} x {memory modes}
    produces labels identical to the CPU reference on >= 5 graphs per
    problem."""

    @pytest.mark.parametrize("problem", ["bfs", "cc"])
    def test_unweighted_matrix(self, problem, matrix_configs,
                               differential_graphs):
        graphs = differential_graphs(weighted=False)
        assert len(graphs) >= 5
        for gi, graph in enumerate(graphs):
            expected = oracle_labels(graph, problem, source=0)
            for config in matrix_configs:
                with EngineSession(graph, config) as session:
                    result = session.query(get_problem(problem), 0)
                diff = diff_labels(expected, result.labels, graph)
                assert diff is None, (
                    f"graph {gi}, config {config}: {diff}"
                )

    @pytest.mark.parametrize("problem", ["sssp", "sswp"])
    def test_weighted_matrix(self, problem, matrix_configs,
                             differential_graphs):
        graphs = differential_graphs(weighted=True)
        assert len(graphs) >= 5
        for gi, graph in enumerate(graphs):
            expected = oracle_labels(graph, problem, source=0)
            for config in matrix_configs:
                with EngineSession(graph, config) as session:
                    result = session.query(get_problem(problem), 0)
                diff = diff_labels(expected, result.labels, graph)
                assert diff is None, (
                    f"graph {gi}, config {config}: {diff}"
                )

    def test_matrix_covers_all_axes(self, matrix_configs):
        from repro.core.config import MemoryMode

        assert len(matrix_configs) == 12
        assert {c.udc_mode for c in matrix_configs} == \
            {"in_core", "out_of_core"}
        assert {c.smp for c in matrix_configs} == {True, False}
        assert {c.memory_mode for c in matrix_configs} == {
            MemoryMode.UM_PREFETCH, MemoryMode.UM_ON_DEMAND,
            MemoryMode.DEVICE,
        }


class TestAllEnginesAgree:
    @pytest.mark.parametrize("problem", ["bfs", "sssp", "sswp", "cc"])
    def test_baselines_match_oracle(self, problem, differential_graphs,
                                    differential_runner):
        weighted = problem in ("sssp", "sswp")
        for graph in differential_graphs(weighted=weighted):
            report = differential_runner(graph, problem, source=0)
            assert report.ok, report.summary()
            # etagraph (cold + warm session) + six baselines all reported.
            assert len(report.engines) == 2 + len(ALL_BASELINES)

    def test_isolated_source(self, differential_runner):
        """A source with no out-edges converges immediately everywhere."""
        from repro.graph.builder import build_csr_from_edges

        g = build_csr_from_edges(
            np.array([1, 2]), np.array([2, 3]), num_vertices=5
        )
        report = differential_runner(g, "bfs", source=0)
        assert report.ok, report.summary()

    def test_single_vertex_graph(self, differential_runner):
        from repro.graph.builder import build_csr_from_edges

        g = build_csr_from_edges(
            np.empty(0, np.int64), np.empty(0, np.int64), num_vertices=1
        )
        for problem in ("bfs", "cc"):
            report = differential_runner(g, problem, source=0)
            assert report.ok, report.summary()


class TestInjectedBug:
    """The acceptance criterion: an intentionally injected off-by-one in
    a baseline must be caught by the differential runner."""

    def test_off_by_one_is_caught(self, skewed_graph, differential_runner):
        def broken_engine(csr, problem_name, source):
            labels = oracle_labels(csr, problem_name, source).copy()
            reached = np.isfinite(labels)
            reached[source] = False
            victims = np.flatnonzero(reached)
            labels[victims[0]] += 1.0  # the off-by-one
            return labels

        report = differential_runner(
            skewed_graph, "bfs", source=0,
            baselines=(), extra_engines={"broken": broken_engine},
        )
        assert not report.ok
        [failure] = [e for e in report.engines if not e.ok]
        assert failure.engine == "broken"
        assert failure.diff is not None
        assert failure.diff.num_mismatches == 1
        # First-divergence context names the vertex and both labels.
        text = str(failure.diff)
        v, exp, act = failure.diff.examples[0]
        assert act == exp + 1.0
        assert str(v) in text
        assert "expected" in text
        # ... and the healthy engines still pass in the same report.
        ok = {e.engine for e in report.engines if e.ok}
        assert ok == {"etagraph", "etagraph-session"}

    def test_crashing_engine_is_reported_not_raised(
        self, skewed_graph, differential_runner
    ):
        def crashing_engine(csr, problem_name, source):
            raise RuntimeError("kernel launch failed")

        report = differential_runner(
            skewed_graph, "bfs", source=0,
            baselines=(), extra_engines={"crashy": crashing_engine},
        )
        assert not report.ok
        [failure] = [e for e in report.engines if not e.ok]
        assert failure.error is not None
        assert "kernel launch failed" in failure.error
        assert "crashy" in report.summary()


    def test_session_engine_checks_its_replay(self, skewed_graph,
                                              monkeypatch):
        """The session engine answers its probe twice; a replay whose
        per-iteration counts drift from the first answer raises, even
        with identical labels."""
        from repro.core.session import _FrontierExpansion
        from repro.testing.differential import session_engine

        engine = session_engine()
        labels = engine(skewed_graph, "bfs", 0)
        assert np.array_equal(labels, oracle_labels(skewed_graph, "bfs", 0))

        counts = _FrontierExpansion.destination_edges
        monkeypatch.setattr(
            _FrontierExpansion, "destination_edges",
            lambda self, n: None if (c := counts(self, n)) is None else c + 1)
        with pytest.raises(AssertionError, match="per-iteration counts"):
            engine(skewed_graph, "bfs", 0)


class TestCCOracle:
    def test_cc_reference_matches_scipy(self, skewed_graph):
        """Directed min-flood fixed point agrees with scipy on a
        symmetrized graph (where it equals weakly-connected components)."""
        import scipy.sparse.csgraph as csgraph

        from repro.graph.builder import build_csr_from_edges, symmetrize

        src, dst = symmetrize(
            skewed_graph.edge_sources(), skewed_graph.column_indices
        )
        sym = build_csr_from_edges(
            src, dst, num_vertices=skewed_graph.num_vertices
        )
        ours = cc_reference(sym)
        _, scipy_labels = csgraph.connected_components(
            sym.to_scipy(), directed=False
        )
        # Same partition: our representative is the min member id.
        for comp in np.unique(scipy_labels):
            members = np.flatnonzero(scipy_labels == comp)
            assert np.all(ours[members] == members.min())
