"""G-Shards: CuSha's coalescing-friendly edge layout.

CuSha (HPDC'14) partitions the vertex id range into *windows* and stores,
for each window, the shard of all edges whose **destination** lies in that
window, sorted by source vertex.  A GPU thread block processes one shard;
because shard entries are contiguous, reads are fully coalesced — at the
price of ``2|E|`` topology words (Table I) plus per-edge value slots that
the CuSha runtime adds (which is why CuSha is the first framework to go
O.O.M in Table III).
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.csr import CSRGraph, VERTEX_DTYPE, WEIGHT_DTYPE, WORD_BYTES
from repro.utils.sorting import stable_argsort


class GShards:
    """Sharded edge layout keyed by destination window.

    Attributes
    ----------
    shard_src, shard_dst:
        Per-edge source/destination ids, grouped by shard then sorted by
        source within each shard (CuSha's layout).
    shard_offsets:
        ``num_shards + 1`` offsets into the edge arrays.
    window_size:
        Number of destination vertices covered by each shard's window.
    """

    def __init__(self, csr: CSRGraph, window_size: int):
        if window_size < 1:
            raise GraphFormatError(f"window_size must be >= 1, got {window_size}")
        self.window_size = int(window_size)
        self.num_vertices = csr.num_vertices
        self.num_shards = -(-max(csr.num_vertices, 1) // self.window_size)

        src = csr.edge_sources()
        dst = csr.column_indices
        shard_of_edge = dst // self.window_size
        # Group by shard, then by source within the shard (CuSha sorts
        # shard entries by source so consecutive threads read consecutive
        # source values).  CSR sources already ascend, so a stable sort
        # by shard alone gives that order.
        order = stable_argsort(shard_of_edge)
        self.shard_src = np.ascontiguousarray(src[order])
        self.shard_dst = np.ascontiguousarray(dst[order])
        self.weights = (
            None
            if csr.edge_weights is None
            else np.ascontiguousarray(csr.edge_weights[order])
        )

        counts = np.bincount(shard_of_edge, minlength=self.num_shards)
        self.shard_offsets = np.zeros(self.num_shards + 1, dtype=np.int64)
        np.cumsum(counts, out=self.shard_offsets[1:])

    @classmethod
    def from_csr(
        cls, csr: CSRGraph, window_size: int | None = None
    ) -> "GShards":
        """Build shards with CuSha's default window sizing.

        CuSha sizes windows so a shard's source-value slice fits in shared
        memory; we default to 4096 destination vertices per window, which
        matches that intent at our scale.
        """
        if window_size is None:
            window_size = 4096
        return cls(csr, window_size)

    @property
    def num_edges(self) -> int:
        return len(self.shard_src)

    def shard_slice(self, i: int) -> slice:
        return slice(int(self.shard_offsets[i]), int(self.shard_offsets[i + 1]))

    def topology_words(self) -> int:
        """Table I metric: ``2|E|`` words (src + dst per edge)."""
        return (self.shard_src.nbytes + self.shard_dst.nbytes) // WORD_BYTES

    @property
    def nbytes(self) -> int:
        total = (
            self.shard_src.nbytes
            + self.shard_dst.nbytes
            + self.shard_offsets.nbytes
        )
        if self.weights is not None:
            total += self.weights.nbytes
        return total

    def device_arrays(self) -> dict[str, np.ndarray]:
        """CuSha's resident structures, *including* per-edge value slots.

        CuSha materialises a source-value and an edge-value slot for every
        shard entry (so a thread block never chases pointers); these double
        the per-edge footprint and drive the early O.O.M behaviour.
        """
        arrays = {
            "shard_src": self.shard_src,
            "shard_dst": self.shard_dst,
            "shard_offsets": self.shard_offsets.astype(np.int32),
            "shard_src_values": np.empty(self.num_edges, dtype=WEIGHT_DTYPE),
            "shard_edge_values": np.empty(self.num_edges, dtype=WEIGHT_DTYPE),
        }
        if self.weights is not None:
            arrays["shard_weights"] = self.weights
        return arrays

    def __repr__(self) -> str:
        return (
            f"GShards(|V|={self.num_vertices}, |E|={self.num_edges}, "
            f"shards={self.num_shards}, window={self.window_size})"
        )


__all__ = ["GShards", "VERTEX_DTYPE", "WORD_BYTES"]
