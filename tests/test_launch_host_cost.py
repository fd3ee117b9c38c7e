"""Guard on a warm launch's fixed host cost.

A replayed BFS on a warm session pays per iteration only for what
depends on the iteration: the cache walk, the functional step and the
scalars derived from them.  Everything that depends only on a memoized
trace plan or on the device spec is kept.  This test counts, with
``cProfile``, the calls over warm replays on a fixed small graph that
go into ``repro`` functions or are made by them (to builtins and to
numpy's entry points), so a change that puts per-plan work back on
every launch fails here.  Calls numpy makes inside itself are not
counted, so the count does not move with the numpy version.
"""

import cProfile
import os
import pstats

import numpy as np

import repro
from repro import EngineSession, EtaGraphConfig
from repro.graph import generators

#: Calls into or from ``repro`` functions over the 16 profiled queries
#: (80 iterations), as measured once each launch kept its per-plan work
#: on the plan.  Before that the count was 33,132.
MEASURED_CALLS = 16_714
#: The guard: 20% over the measured count.
CALL_BOUND = MEASURED_CALLS * 6 // 5

SOURCES = 8


def _repro_calls(stats: pstats.Stats) -> int:
    """Calls whose callee or caller is a ``repro`` function."""
    root = os.path.dirname(repro.__file__) + os.sep
    total = 0
    for (filename, _, _), (_, calls, _, _, callers) in stats.stats.items():
        if filename.startswith(root):
            total += calls
        else:
            total += sum(counts[1] for (caller, _, _), counts
                         in callers.items() if caller.startswith(root))
    return total


def test_warm_bfs_replays_stay_within_call_budget():
    graph = generators.rmat(10, 12_000, seed=7)
    sources = np.flatnonzero(graph.out_degrees() > 0)[:SOURCES]
    with EngineSession(graph, EtaGraphConfig()) as session:
        # Two rounds: the memo then holds every frontier, and every
        # stream replays from its run summary.
        for _ in range(2):
            for source in sources:
                session.query("bfs", int(source))
        misses = session.memo_misses
        profile = cProfile.Profile()
        profile.enable()
        for _ in range(2):
            for source in sources:
                session.query("bfs", int(source))
        profile.disable()
        # Every profiled frontier was a memo hit.
        assert session.memo_misses == misses
    calls = _repro_calls(pstats.Stats(profile))
    assert calls <= CALL_BOUND, (
        f"{calls} calls into or from repro over {2 * SOURCES} warm BFS replays; "
        f"the bound is {CALL_BOUND} ({MEASURED_CALLS} measured + 20%)")
