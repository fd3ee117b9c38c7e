"""Workload definitions shared by the experiment modules.

One place decides which datasets each experiment sweeps, which device
capacity is used (the paper's 11 GiB scaled by the dataset scale factor),
and what "quick mode" trims for CI-speed runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.session import EngineSession
from repro.graph import datasets
from repro.gpu.device import DeviceSpec, GTX_1080TI

#: Table III frameworks, in row order.
TABLE3_FRAMEWORKS = ("cusha", "gunrock", "tigr", "etagraph", "etagraph-noump")

#: Table III / IV datasets, in column order (Table II order).
FULL_DATASETS = list(datasets.ALL_DATASETS)

#: Quick-mode subset: the three graphs that fit every framework.
QUICK_DATASETS = ["slashdot", "livejournal", "com-orkut"]

#: Algorithms in Table III row-group order.
ALGORITHMS = ("bfs", "sssp", "sswp")

#: SSWP is only reported for Tigr and EtaGraph in the paper (CuSha and
#: Gunrock don't ship it).
SSWP_FRAMEWORKS = ("tigr", "etagraph", "etagraph-noump")


def bench_device() -> DeviceSpec:
    """The paper's GTX 1080 Ti with capacity scaled to the dataset scale."""
    return GTX_1080TI.with_capacity(datasets.scaled_device_capacity())


def dataset_names(quick: bool) -> list[str]:
    return QUICK_DATASETS if quick else FULL_DATASETS


def frameworks_for(algorithm: str) -> tuple[str, ...]:
    return SSWP_FRAMEWORKS if algorithm == "sswp" else TABLE3_FRAMEWORKS


@dataclass
class TimedQueries:
    """One warm-session query batch timed by :func:`time_queries`."""

    results: list
    #: Host wall seconds of the timed region (floored at 1 ns).
    wall_s: float
    #: Sector accesses the session's cache models made in the timed region.
    cache_accesses: int
    memo_hits: int
    memo_misses: int


def _cache_accesses(session: EngineSession) -> int:
    return session.caches.unified.accesses + session.caches.l2.accesses


def time_queries(
    topology, config, device, sources, *, repeats: int = 1,
    algorithm: str = "bfs",
) -> TimedQueries:
    """The wall-clock harnesses' serving workload: open one session, run
    one untimed warm-up query on ``sources[0]`` (topology placement,
    first-query faults, any one-time host-side decode), then time
    ``repeats`` passes over ``sources``."""
    with EngineSession(topology, config, device) as session:
        session.query(algorithm, int(sources[0]))
        accesses_before = _cache_accesses(session)
        t0 = time.perf_counter()
        results = [
            session.query(algorithm, int(s))
            for _ in range(repeats) for s in sources
        ]
        wall_s = max(time.perf_counter() - t0, 1e-9)
        return TimedQueries(
            results=results,
            wall_s=wall_s,
            cache_accesses=_cache_accesses(session) - accesses_before,
            memo_hits=session.memo_hits,
            memo_misses=session.memo_misses,
        )
