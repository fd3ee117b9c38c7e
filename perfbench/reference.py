"""CPU reference BFS that every benchmark op is checked against.

A level-synchronous, bit-parallel *pull* BFS over up to 64 sources at
once: each vertex carries a ``uint64`` lane mask, and one level ORs the
masks of all in-neighbours into each vertex, keeping the bits it had not
seen.  It reads only the graph's CSR arrays and shares no code with the
program.  Its formulation (a pull over every edge in destination order)
differs from the program's push over the frontier, so a defect in one is
unlikely to be repeated in the other.
"""

from __future__ import annotations

import numpy as np

#: Sources one call can answer: one bit per source in a uint64 mask.
LANES = 64


class InEdges:
    """A graph's edges grouped by destination, built once per graph."""

    def __init__(self, row_offsets: np.ndarray, column_indices: np.ndarray):
        n = len(row_offsets) - 1
        sources = np.repeat(np.arange(n, dtype=np.int64), np.diff(row_offsets))
        order = np.argsort(column_indices, kind="stable")
        self.num_vertices = n
        self.sources = sources[order]
        # reduceat needs non-empty segments, so only destinations that
        # have in-edges get one.
        self.dests, self.starts = np.unique(
            column_indices[order], return_index=True
        )


def bfs_levels(
    edges: InEdges, sources, max_depth: int | None = None
) -> np.ndarray:
    """BFS levels from each source as a ``(len(sources), n)`` float32
    array: ``inf`` where a vertex is unreached or deeper than
    ``max_depth``."""
    sources = np.asarray(sources, dtype=np.int64)
    if not 1 <= len(sources) <= LANES:
        raise ValueError(f"1 to {LANES} sources per call, got {len(sources)}")
    width = len(sources)
    bits = np.uint64(1) << np.arange(width, dtype=np.uint64)
    frontier = np.zeros(edges.num_vertices, dtype=np.uint64)
    np.bitwise_or.at(frontier, sources, bits)
    visited = frontier.copy()
    levels = np.full((width, edges.num_vertices), np.inf, dtype=np.float32)
    levels[np.arange(width), sources] = 0.0
    depth = 0
    while frontier.any() and (max_depth is None or depth < max_depth):
        depth += 1
        pulled = np.bitwise_or.reduceat(frontier[edges.sources], edges.starts)
        fresh = pulled & ~visited[edges.dests]
        reached = fresh != 0
        dests, fresh = edges.dests[reached], fresh[reached]
        visited[dests] |= fresh
        frontier[:] = 0
        frontier[dests] = fresh
        rows, lanes = np.nonzero((fresh[:, None] & bits) != 0)
        levels[lanes, dests[rows]] = depth
    return levels
