"""Structural invariants of a traversal run.

Every check here states a property that must hold for *any* graph, source
and configuration — the Definition/Theorem layer of the paper turned into
executable assertions:

* UDC (Definition 3): the shadow slices of every cut vertex exactly
  partition its CSR adjacency and never exceed the degree limit K.
* The execution timeline: intervals are well-formed, and within one
  stream ("compute" or "transfer") they are monotone and non-overlapping
  — overlap only ever happens *across* streams, which is precisely what
  Fig. 4 measures.
* The cache hierarchy: hits + misses account for every access at each
  level (an L1 miss is an L2 access; an L2 miss is a DRAM transaction).
* :class:`~repro.core.stats.TraversalStats`: per-iteration records are
  internally consistent and their totals match the label vector.
* The frontier memo: its running byte total equals what its entries
  hold.

All checks raise :class:`repro.errors.InvariantViolation` with a message
naming the first violated property; they return ``None`` on success so
they can run inline on the engine's hot path
(``EtaGraphConfig(check_invariants=True)``).

This module deliberately imports no engine or baseline code so the engine
can import it without a cycle.
"""

from __future__ import annotations

import numpy as np

from repro.errors import InvariantViolation

#: Absolute slack (ms) for floating-point comparisons of simulated times.
TIME_TOL_MS = 1e-6


def _fail(message: str) -> None:
    raise InvariantViolation(message)


# ----------------------------------------------------------------------
# UDC (Definition 3)
# ----------------------------------------------------------------------

def check_udc_partition(
    shadows, active_vertices: np.ndarray, row_offsets: np.ndarray,
    degree_limit: int,
) -> None:
    """Check that ``shadows`` exactly partitions the adjacency of every
    active vertex (Definition 3 of the paper).

    ``active_vertices`` must be duplicate-free (engine active sets are).
    Properties checked:

    1. every slice has length in ``[1, degree_limit]``;
    2. per owner, slices are contiguous and disjoint: each starts where
       the previous one ends;
    3. the first slice starts at ``row_offsets[v]`` and the last ends at
       ``row_offsets[v + 1]`` — full coverage, no escape;
    4. exactly the active vertices with out-degree > 0 own slices, and
       the slice count per owner is ``ceil(degree / K)``.
    """
    active = np.asarray(active_vertices, dtype=np.int64)
    offsets = np.asarray(row_offsets, dtype=np.int64)
    if len(np.unique(active)) != len(active):
        _fail("active set contains duplicate vertices")
    degrees = offsets[active + 1] - offsets[active]
    expected_slices = -(-degrees // degree_limit)  # ceil; 0 for degree 0
    if int(expected_slices.sum()) != len(shadows):
        _fail(
            f"shadow count {len(shadows)} != sum of ceil(degree/K) "
            f"{int(expected_slices.sum())}"
        )
    if len(shadows) == 0:
        return

    sdeg = np.asarray(shadows.degrees, dtype=np.int64)
    if sdeg.min() < 1:
        _fail("empty shadow slice (degree < 1)")
    if sdeg.max() > degree_limit:
        _fail(
            f"shadow slice of degree {int(sdeg.max())} exceeds "
            f"degree limit K={degree_limit}"
        )

    order = np.lexsort((shadows.starts, shadows.ids))
    ids = np.asarray(shadows.ids, dtype=np.int64)[order]
    starts = np.asarray(shadows.starts, dtype=np.int64)[order]
    ends = starts + sdeg[order]

    same_owner = ids[1:] == ids[:-1]
    bad = same_owner & (starts[1:] != ends[:-1])
    if np.any(bad):
        v = int(ids[1:][bad][0])
        _fail(f"slices of vertex {v} leave a gap or overlap")

    first = np.ones(len(ids), dtype=bool)
    first[1:] = ~same_owner
    last = np.ones(len(ids), dtype=bool)
    last[:-1] = ~same_owner
    if np.any(starts[first] != offsets[ids[first]]):
        v = int(ids[first][starts[first] != offsets[ids[first]]][0])
        _fail(f"first slice of vertex {v} does not start at row_offsets[v]")
    if np.any(ends[last] != offsets[ids[last] + 1]):
        v = int(ids[last][ends[last] != offsets[ids[last] + 1]][0])
        _fail(f"last slice of vertex {v} does not end at row_offsets[v + 1]")

    owners = np.unique(ids)
    expected_owners = np.unique(active[degrees > 0])
    if not np.array_equal(owners, expected_owners):
        _fail("shadow owners differ from active vertices with out-degree > 0")


# ----------------------------------------------------------------------
# Timeline (Fig. 4 bookkeeping)
# ----------------------------------------------------------------------

def check_timeline(timeline) -> None:
    """Intervals are well-formed; per stream they are monotone and
    non-overlapping (concurrency exists only *across* streams)."""
    for iv in timeline.intervals:
        if iv.end_ms < iv.start_ms:
            _fail(f"interval {iv.label or iv.kind} ends before it starts")
        if iv.start_ms < -TIME_TOL_MS:
            _fail(f"interval {iv.label or iv.kind} starts before time 0")
        if iv.nbytes < 0:
            _fail(f"interval {iv.label or iv.kind} has negative byte count")
    for kind in ("compute", "transfer"):
        ivs = sorted(
            (iv for iv in timeline.intervals if iv.kind == kind),
            key=lambda iv: (iv.start_ms, iv.end_ms),
        )
        for prev, cur in zip(ivs, ivs[1:]):
            if cur.start_ms < prev.end_ms - TIME_TOL_MS:
                _fail(
                    f"{kind} intervals overlap: "
                    f"[{prev.start_ms:.6f}, {prev.end_ms:.6f}] and "
                    f"[{cur.start_ms:.6f}, {cur.end_ms:.6f}]"
                )


# ----------------------------------------------------------------------
# Cache hierarchy and profiler counters
# ----------------------------------------------------------------------

def check_hierarchy_result(result) -> None:
    """One routed access stream: hits + misses == accesses at each level."""
    if result.unified_hits + result.l2_accesses != result.accesses:
        _fail(
            "unified hits + L2 accesses != total accesses "
            f"({result.unified_hits} + {result.l2_accesses} "
            f"!= {result.accesses})"
        )
    if result.l2_hits + result.dram_transactions != result.l2_accesses:
        _fail(
            "L2 hits + DRAM transactions != L2 accesses "
            f"({result.l2_hits} + {result.dram_transactions} "
            f"!= {result.l2_accesses})"
        )
    for name in ("accesses", "unified_hits", "l2_accesses", "l2_hits",
                 "dram_transactions"):
        if getattr(result, name) < 0:
            _fail(f"negative cache counter {name}")


def check_cache(cache) -> None:
    """A single cache model never reports more hits than accesses."""
    if not 0 <= cache.hits <= cache.accesses:
        _fail(
            f"cache hits {cache.hits} outside [0, accesses={cache.accesses}]"
        )


def check_memo(memo) -> None:
    """A :class:`~repro.core.memo.FrontierMemo`'s running byte total
    equals the sum of its entries' ``nbytes`` (no lazily filled part
    went uncharged), every probation key is a live entry that has not
    yet waited out its probation window, and no ghost key has an
    entry."""
    held = sum(entry.nbytes for entry in memo.entries.values())
    if memo.bytes != held:
        _fail(f"frontier memo charges {memo.bytes} B but its "
              f"{len(memo.entries)} entries hold {held} B")
    for key, stamp in memo.probation.items():
        if key not in memo.entries:
            _fail(f"frontier memo probation key {key!r} has no entry")
        if memo.lookups - stamp >= memo.window:
            _fail(f"frontier memo probation entry {key!r} is "
                  f"{memo.lookups - stamp} lookups old, past its "
                  f"{memo.window}-lookup window")
    if not memo.ghosts.keys().isdisjoint(memo.entries.keys()):
        _fail("frontier memo holds an entry whose key is a ghost")


def check_kernel_counters(counters) -> None:
    """Accumulated nvprof-style counters stay internally consistent."""
    for name in (
        "launches", "threads", "warps", "instructions", "cycles",
        "elapsed_ms", "global_load_transactions", "global_store_transactions",
        "unified_cache_accesses", "unified_cache_hits", "l2_accesses",
        "l2_hits", "dram_read_bytes", "dram_write_bytes", "shared_load_bytes",
    ):
        if getattr(counters, name) < 0:
            _fail(f"negative kernel counter {name}")
    if counters.unified_cache_hits > counters.unified_cache_accesses:
        _fail("unified-cache hits exceed accesses")
    if counters.l2_hits > counters.l2_accesses:
        _fail("L2 hits exceed accesses")


def check_profiler(profiler) -> None:
    """Transfer/migration bookkeeping: sizes positive, times non-negative."""
    check_kernel_counters(profiler.kernels)
    for name in ("h2d_bytes", "d2h_bytes", "h2d_time_ms", "d2h_time_ms",
                 "migration_time_ms"):
        if getattr(profiler, name) < 0:
            _fail(f"negative profiler field {name}")
    for size in profiler.migration_sizes:
        if size <= 0:
            _fail(f"non-positive UM migration size {size}")


# ----------------------------------------------------------------------
# Traversal statistics
# ----------------------------------------------------------------------

def check_stats(stats, *, degree_limit: int | None = None) -> None:
    """Per-iteration records are consistent and their totals add up."""
    prev_end = 0.0
    newly_sum = 0
    for i, s in enumerate(stats.iterations):
        if s.index != i:
            _fail(f"iteration index {s.index} != position {i}")
        for name in ("active_vertices", "shadow_vertices", "edges_scanned",
                     "updates", "newly_visited"):
            if getattr(s, name) < 0:
                _fail(f"negative {name} at iteration {i}")
        for name in ("kernel_ms", "transform_ms", "transfer_ms"):
            if getattr(s, name) < 0:
                _fail(f"negative {name} at iteration {i}")
        if s.active_vertices == 0:
            _fail(f"iteration {i} ran with an empty active set")
        if s.shadow_vertices == 0 and s.edges_scanned:
            _fail(f"iteration {i} scanned edges without shadow vertices")
        if s.updates > s.edges_scanned:
            _fail(
                f"iteration {i} attempted {s.updates} updates over "
                f"{s.edges_scanned} scanned edges"
            )
        if degree_limit is not None and \
                s.edges_scanned > s.shadow_vertices * degree_limit:
            _fail(
                f"iteration {i} scanned {s.edges_scanned} edges from "
                f"{s.shadow_vertices} shadow vertices at K={degree_limit}"
            )
        if s.edges_scanned and s.kernel_ms <= 0:
            _fail(f"iteration {i} scanned edges in zero kernel time")
        if s.transform_ms <= 0:
            _fail(f"iteration {i} has non-positive transform time")
        if s.elapsed_end_ms < prev_end - TIME_TOL_MS:
            _fail(f"elapsed time went backwards at iteration {i}")
        prev_end = s.elapsed_end_ms
        newly_sum += s.newly_visited
    if stats.total_visited != stats.seed_count + newly_sum:
        _fail("total_visited != seed_count + sum(newly_visited)")
    if stats.num_vertices and stats.total_visited > stats.num_vertices:
        _fail(
            f"visited {stats.total_visited} of {stats.num_vertices} vertices"
        )


# ----------------------------------------------------------------------
# Whole-result check (what the engine runs under check_invariants)
# ----------------------------------------------------------------------

def check_traversal_result(result, problem=None) -> None:
    """All invariants of one finished EtaGraph traversal.

    With ``problem`` given, additionally cross-checks the statistics
    against the label vector: the number of vertices the stats claim were
    visited must equal the number of reached labels.
    """
    check_timeline(result.timeline)
    check_stats(result.stats, degree_limit=result.config.degree_limit)
    check_profiler(result.profiler)
    if result.total_ms < 0 or result.kernel_ms < 0 or result.transfer_ms < 0:
        _fail("negative aggregate time")
    if result.d2h_ms <= 0:
        _fail("label read-back took no time")
    if result.timeline.end_ms > result.total_ms + TIME_TOL_MS:
        _fail(
            f"timeline extends past the reported total "
            f"({result.timeline.end_ms:.6f} > {result.total_ms:.6f} ms)"
        )
    if problem is not None:
        reached = int(problem.reached_mask(result.labels, result.source).sum())
        if reached != result.stats.total_visited:
            _fail(
                f"stats report {result.stats.total_visited} visited vertices "
                f"but {reached} labels are reached"
            )
