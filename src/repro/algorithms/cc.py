"""Connected Components as min-label propagation.

An extension beyond the paper's three algorithms, but squarely inside its
framework: CC is the canonical *all-active* member of the traversal
family — every vertex starts active carrying its own id, the minimum id
floods each component, and the frontier shrinks as labels settle.  On a
directed graph this computes weakly-connected components when the input
is symmetrized first (see :func:`weakly_connected_components`).
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.base import TraversalProblem
from repro.graph.csr import CSRGraph, WEIGHT_DTYPE


class ConnectedComponents(TraversalProblem):
    """Min-id flooding over the (min, id) propagation."""

    name = "cc"
    needs_weights = False
    instr_per_edge = 7.0

    def initial_labels(self, num_vertices: int, source: int) -> np.ndarray:
        # Every vertex is its own component; `source` is irrelevant.
        return np.arange(num_vertices, dtype=WEIGHT_DTYPE)

    def initial_frontier(self, num_vertices: int, source: int) -> np.ndarray:
        return np.arange(num_vertices, dtype=np.int64)

    def candidates(
        self, src_labels: np.ndarray, edge_weights: np.ndarray | None
    ) -> np.ndarray:
        return src_labels

    def improves(self, candidate: np.ndarray, current: np.ndarray) -> np.ndarray:
        return candidate < current

    def scatter_reduce(
        self, labels: np.ndarray, dst: np.ndarray, candidates: np.ndarray
    ) -> None:
        np.minimum.at(labels, dst, candidates)

    def reached_mask(self, labels: np.ndarray, source: int) -> np.ndarray:
        # Every vertex always carries a valid component label.
        return np.ones(len(labels), dtype=bool)


def weakly_connected_components(csr: CSRGraph) -> np.ndarray:
    """Component id (the minimum member id) of every vertex.

    Symmetrizes the graph, then floods it on a session of one with the
    default EtaGraph configuration.
    """
    from repro.core.session import EngineSession
    from repro.graph.builder import build_csr_from_edges, symmetrize

    src, dst = symmetrize(csr.edge_sources(), csr.column_indices)
    sym = build_csr_from_edges(src, dst, num_vertices=csr.num_vertices)
    with EngineSession(sym) as session:
        result = session.query(ConnectedComponents(), 0)
    return result.labels.astype(np.int64)
