"""Parent pointers and path reconstruction.

Asked per query (``EngineSession.query(..., parents=True)``), the engine
records, for every vertex whose label was updated, one witnessing
predecessor (the real kernel's ``atomicMin`` returns the old value, so
the winning thread knows it won and stores its own id — one extra
scattered word per update).
These helpers turn the parent array into actual paths and verify them.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ReproError
from repro.graph.csr import CSRGraph

#: Parent value for the source and for unreached vertices.
NO_PARENT = -1


class PathError(ReproError):
    """Raised when a path cannot be reconstructed."""


def reconstruct_path(
    parents: np.ndarray, source: int, target: int
) -> list[int]:
    """Vertices on the recorded path ``source -> ... -> target``.

    Raises :class:`PathError` if the target was never reached or the
    parent chain is corrupt (cycle / dangling).
    """
    parents = np.asarray(parents)
    n = len(parents)
    if not 0 <= target < n:
        raise PathError(f"target {target} out of range")
    if target == source:
        return [source]
    if parents[target] == NO_PARENT:
        raise PathError(f"vertex {target} was not reached from {source}")
    path = [int(target)]
    seen = {int(target)}
    v = int(target)
    while v != source:
        v = int(parents[v])
        if v == NO_PARENT or v in seen:
            raise PathError(f"corrupt parent chain at vertex {path[-1]}")
        path.append(v)
        seen.add(v)
    path.reverse()
    return path


def verify_path(
    csr: CSRGraph,
    path: list[int],
    labels: np.ndarray,
    problem_name: str,
    *,
    atol: float = 1e-5,
) -> bool:
    """Check that ``path`` is edge-valid and witnesses ``labels[target]``.

    Edge-valid: consecutive vertices are connected.  Witnessing: the
    path's accumulated cost (hops / weight sum / bottleneck) equals the
    target's label.
    """
    if not path:
        return False
    for u, v in zip(path, path[1:]):
        if v not in csr.neighbors(u):
            return False
    target = path[-1]
    if problem_name == "bfs":
        return abs(labels[target] - (len(path) - 1)) <= atol
    total: float
    if problem_name == "sssp":
        total = 0.0
        for u, v in zip(path, path[1:]):
            nbrs = csr.neighbors(u)
            w = csr.neighbor_weights(u)[np.flatnonzero(nbrs == v)[0]]
            total += float(w)
        return abs(labels[target] - total) <= atol
    if problem_name == "sswp":
        total = np.inf
        for u, v in zip(path, path[1:]):
            nbrs = csr.neighbors(u)
            w = csr.neighbor_weights(u)[np.flatnonzero(nbrs == v)[0]]
            total = min(total, float(w))
        return abs(labels[target] - total) <= atol
    raise PathError(f"unknown problem {problem_name!r}")
