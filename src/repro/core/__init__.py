"""EtaGraph core: the paper's primary contribution.

* :mod:`repro.core.udc` — Unified Degree Cut (Section III)
* :mod:`repro.core.frontier` — active set / virtual active set (Section IV-A)
* :mod:`repro.core.smp` — Shared Memory Prefetch planning (Section V)
* :mod:`repro.core.engine` — :class:`TraversalResult`, one traversal's
  labels and measurement record
* :mod:`repro.core.session` — topology-resident sessions, the one engine
  entry point: Procedure 1's main loop with the fine-grained
  transfer/compute overlap of Section IV-B; place once, query many times
  against warm UM residency and caches
* :mod:`repro.core.api` — the user-facing entry points
"""

from repro.core.config import EtaGraphConfig, MemoryMode
from repro.core.udc import ShadowVertices, degree_cut
from repro.core.engine import TraversalResult
from repro.core.session import EngineSession
from repro.core.api import EtaGraph, bfs, sssp, sswp

__all__ = [
    "EtaGraphConfig",
    "MemoryMode",
    "ShadowVertices",
    "degree_cut",
    "EngineSession",
    "TraversalResult",
    "EtaGraph",
    "bfs",
    "sssp",
    "sswp",
]
