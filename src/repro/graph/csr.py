"""Compressed Sparse Row graph representation.

CSR is the paper's primary data structure (Table I: the most space-efficient
of the compared layouts, ``|E| + |V|`` words).  EtaGraph consumes CSR
*directly* — the Unified Degree Cut never rewrites these arrays.

Layout follows the GPU convention used by the paper:

* ``row_offsets`` — ``num_vertices + 1`` int32 values; vertex ``v``'s
  out-edges occupy ``column_indices[row_offsets[v]:row_offsets[v + 1]]``.
* ``column_indices`` — ``num_edges`` int32 destination vertex ids.
* ``edge_weights`` — optional ``num_edges`` float32 values (SSSP/SSWP).

Everything is 4 bytes wide, matching the paper's space accounting; this
caps the library at ``2**31 - 1`` edges, far beyond the scaled surrogates.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.errors import GraphFormatError
from repro.utils.sorting import stable_argsort
from repro.utils.validation import ensure_array

VERTEX_DTYPE = np.int32
OFFSET_DTYPE = np.int32
WEIGHT_DTYPE = np.float32

#: Bytes per topology word (vertex id / offset / weight) — the paper's unit
#: for Table I space accounting.
WORD_BYTES = 4


class CSRGraph:
    """A directed graph in Compressed Sparse Row form.

    Instances are immutable by convention: all arrays are exposed read-only
    so that views handed to the GPU simulator cannot drift from the host
    copy (the paper's EtaGraph likewise never mutates topology data).
    """

    def __init__(
        self,
        row_offsets: np.ndarray,
        column_indices: np.ndarray,
        edge_weights: np.ndarray | None = None,
        *,
        validate: bool = True,
    ):
        self.row_offsets = ensure_array("row_offsets", row_offsets, OFFSET_DTYPE)
        self.column_indices = ensure_array(
            "column_indices", column_indices, VERTEX_DTYPE
        )
        if edge_weights is not None:
            edge_weights = ensure_array("edge_weights", edge_weights, WEIGHT_DTYPE)
        self.edge_weights = edge_weights

        if validate:
            self._validate()

        for arr in (self.row_offsets, self.column_indices, self.edge_weights):
            if arr is not None:
                arr.setflags(write=False)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        src: np.ndarray,
        dst: np.ndarray,
        num_vertices: int | None = None,
        weights: np.ndarray | None = None,
        *,
        dedup: bool = True,
    ) -> "CSRGraph":
        """Build a CSR graph from parallel source/destination arrays.

        Delegates to :func:`repro.graph.builder.build_csr_from_edges`; kept
        here so ``CSRGraph.from_edges`` is the discoverable entry point.
        """
        from repro.graph.builder import build_csr_from_edges

        return build_csr_from_edges(
            src, dst, num_vertices=num_vertices, weights=weights, dedup=dedup
        )

    def with_weights(self, weights: np.ndarray) -> "CSRGraph":
        """Return a graph sharing this topology with ``weights`` attached."""
        return CSRGraph(self.row_offsets, self.column_indices, weights, validate=False)

    def without_weights(self) -> "CSRGraph":
        """Return a graph sharing this topology with no weights (BFS input)."""
        if self.edge_weights is None:
            return self
        return CSRGraph(self.row_offsets, self.column_indices, None, validate=False)

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self.row_offsets) - 1

    @property
    def num_edges(self) -> int:
        return len(self.column_indices)

    @property
    def is_weighted(self) -> bool:
        return self.edge_weights is not None

    @property
    def average_degree(self) -> float:
        if self.num_vertices == 0:
            return 0.0
        return self.num_edges / self.num_vertices

    def out_degrees(self) -> np.ndarray:
        """Out-degree of every vertex as an int32 array (a view-free copy)."""
        return np.diff(self.row_offsets).astype(VERTEX_DTYPE)

    def out_degree(self, v: int) -> int:
        return int(self.row_offsets[v + 1] - self.row_offsets[v])

    def max_out_degree(self) -> int:
        if self.num_vertices == 0:
            return 0
        return int(np.diff(self.row_offsets).max())

    def neighbors(self, v: int) -> np.ndarray:
        """Destination ids of ``v``'s out-edges (read-only view, no copy)."""
        return self.column_indices[self.row_offsets[v] : self.row_offsets[v + 1]]

    def neighbor_weights(self, v: int) -> np.ndarray:
        """Weights of ``v``'s out-edges; requires a weighted graph."""
        if self.edge_weights is None:
            raise GraphFormatError("graph has no edge weights")
        return self.edge_weights[self.row_offsets[v] : self.row_offsets[v + 1]]

    def iter_edges(self) -> Iterator[tuple[int, int]]:
        """Yield ``(src, dst)`` pairs; intended for tests, not hot paths."""
        offsets = self.row_offsets
        cols = self.column_indices
        for v in range(self.num_vertices):
            for e in range(offsets[v], offsets[v + 1]):
                yield v, int(cols[e])

    def edge_sources(self) -> np.ndarray:
        """Source vertex of every edge, aligned with ``column_indices``.

        This is the expansion CSC/edge-list conversions need; computed
        vectorized via ``np.repeat`` on the degree sequence.
        """
        return np.repeat(
            np.arange(self.num_vertices, dtype=VERTEX_DTYPE), self.out_degrees()
        )

    # ------------------------------------------------------------------
    # Space accounting (Table I)
    # ------------------------------------------------------------------

    @property
    def nbytes(self) -> int:
        """Topology bytes: ``(|E| + |V| + 1)`` words, plus weights if present."""
        total = self.row_offsets.nbytes + self.column_indices.nbytes
        if self.edge_weights is not None:
            total += self.edge_weights.nbytes
        return total

    def topology_words(self) -> int:
        """The paper's Table I metric: topology size in 4-byte words.

        Exactly ``|E| + |V|`` — Table I counts one offset word per
        vertex; the storage sentinel (``row_offsets[|V|]``) is an
        implementation detail the paper's accounting excludes.
        """
        return self.num_edges + self.num_vertices

    def device_arrays(self) -> dict[str, np.ndarray]:
        """Arrays a framework must place in device memory to traverse."""
        arrays = {
            "row_offsets": self.row_offsets,
            "column_indices": self.column_indices,
        }
        if self.edge_weights is not None:
            arrays["edge_weights"] = self.edge_weights
        return arrays

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------

    def reverse(self) -> "CSRGraph":
        """The transpose graph (CSC of this graph expressed as CSR).

        One stable sort by destination is the whole transpose: CSR edges
        are already grouped by ascending source, so ties keep source
        order, exactly as a ``(destination, source)`` lexsort would.
        """
        cols = self.column_indices
        order = stable_argsort(cols)
        offsets = np.zeros(self.num_vertices + 1, dtype=np.int64)
        np.cumsum(np.bincount(cols, minlength=self.num_vertices),
                  out=offsets[1:])
        weights = self.edge_weights
        return CSRGraph(
            offsets.astype(OFFSET_DTYPE),
            self.edge_sources()[order],
            weights[order] if weights is not None else None,
            validate=False,
        )

    def to_scipy(self):
        """Export as ``scipy.sparse.csr_matrix`` (weights default to 1)."""
        import scipy.sparse as sp

        data = (
            self.edge_weights
            if self.edge_weights is not None
            else np.ones(self.num_edges, dtype=WEIGHT_DTYPE)
        )
        n = self.num_vertices
        return sp.csr_matrix(
            (data, self.column_indices, self.row_offsets.astype(np.int64)),
            shape=(n, n),
        )

    # ------------------------------------------------------------------
    # Validation & dunder protocol
    # ------------------------------------------------------------------

    def _validate(self) -> None:
        offsets = self.row_offsets
        if len(offsets) < 1:
            raise GraphFormatError("row_offsets must have at least one entry")
        if offsets[0] != 0:
            raise GraphFormatError(f"row_offsets[0] must be 0, got {offsets[0]}")
        if offsets[-1] != len(self.column_indices):
            raise GraphFormatError(
                f"row_offsets[-1] ({offsets[-1]}) != num_edges "
                f"({len(self.column_indices)})"
            )
        if len(offsets) > 1 and np.any(np.diff(offsets) < 0):
            raise GraphFormatError("row_offsets must be non-decreasing")
        n = self.num_vertices
        if self.num_edges:
            cols = self.column_indices
            if cols.min() < 0 or cols.max() >= n:
                raise GraphFormatError(
                    f"column index out of range [0, {n}) "
                    f"(min {cols.min()}, max {cols.max()})"
                )
        if self.edge_weights is not None and len(self.edge_weights) != self.num_edges:
            raise GraphFormatError(
                f"edge_weights has {len(self.edge_weights)} entries, "
                f"expected {self.num_edges}"
            )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSRGraph):
            return NotImplemented
        if not (
            np.array_equal(self.row_offsets, other.row_offsets)
            and np.array_equal(self.column_indices, other.column_indices)
        ):
            return False
        if (self.edge_weights is None) != (other.edge_weights is None):
            return False
        if self.edge_weights is not None:
            return np.array_equal(self.edge_weights, other.edge_weights)
        return True

    def __hash__(self):  # pragma: no cover - explicitness only
        return id(self)

    def __repr__(self) -> str:
        w = ", weighted" if self.is_weighted else ""
        return f"CSRGraph(|V|={self.num_vertices}, |E|={self.num_edges}{w})"
