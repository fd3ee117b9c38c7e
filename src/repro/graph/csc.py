"""Compressed Sparse Column representation.

CSC stores in-edges contiguously; pull-style engines (and Gunrock's
direction-optimized advance) consume it.  It is simply the CSR of the
transpose graph with clearer naming.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import CSRGraph, WORD_BYTES


class CSCGraph:
    """Column-compressed view of a directed graph.

    ``col_offsets``/``row_indices`` index the *in*-edges of each vertex:
    vertex ``v``'s predecessors are
    ``row_indices[col_offsets[v]:col_offsets[v + 1]]``.
    """

    def __init__(self, transpose_csr: CSRGraph):
        self._t = transpose_csr

    @classmethod
    def from_csr(cls, csr: CSRGraph) -> "CSCGraph":
        """Build the CSC of ``csr`` (one stable sort by destination)."""
        return cls(csr.reverse())

    @property
    def col_offsets(self) -> np.ndarray:
        return self._t.row_offsets

    @property
    def row_indices(self) -> np.ndarray:
        return self._t.column_indices

    @property
    def edge_weights(self) -> np.ndarray | None:
        return self._t.edge_weights

    @property
    def num_vertices(self) -> int:
        return self._t.num_vertices

    @property
    def num_edges(self) -> int:
        return self._t.num_edges

    def in_degrees(self) -> np.ndarray:
        return self._t.out_degrees()

    def predecessors(self, v: int) -> np.ndarray:
        return self._t.neighbors(v)

    @property
    def nbytes(self) -> int:
        return self._t.nbytes

    def topology_words(self) -> int:
        return self._t.topology_words()

    def device_arrays(self) -> dict[str, np.ndarray]:
        arrays = {
            "col_offsets": self.col_offsets,
            "row_indices": self.row_indices,
        }
        if self.edge_weights is not None:
            arrays["csc_edge_weights"] = self.edge_weights
        return arrays

    def __repr__(self) -> str:
        return f"CSCGraph(|V|={self.num_vertices}, |E|={self.num_edges})"


# Re-export the word size so space-accounting code can import from one place.
__all__ = ["CSCGraph", "WORD_BYTES"]
