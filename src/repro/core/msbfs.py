"""Multi-source wave BFS (MSBFS): one traversal pass serves many sources.

Every query in :func:`repro.core.multi.run_batch` and the serving layer
used to be one full traversal — N sources meant N edge expansions, N
``TracePlan`` builds and N cache passes over largely the same topology.
The iBFS line of work and GraphBLAST's linear-algebra framing both make
the same observation: level-synchronous BFS from ``w <= 64`` sources is
*one* traversal over a bit-packed frontier, where each vertex carries a
``uint64`` lane mask (bit ``i`` set = "vertex is in source ``i``'s
current frontier") and an edge propagates its source's whole mask with a
single ``OR`` — the warp-ballot idiom lifted to the frontier itself.

:func:`run_wave` drives a wave through an existing
:class:`~repro.core.session.EngineSession`, reusing its resident
topology, caches, UM state and frontier memo (wave memo entries carry a
``wave_lanes`` key component so they never collide with sequential
entries).  Each wave iteration performs exactly **one** ``actSet2virt``
transform, **one** edge expansion, **one** ``TracePlan`` build (at most
one sort) and **one** cache/coalescing pass — for all lanes at once.
The kernel's gathered operand is the 8-byte lane mask instead of the
4-byte label, and the cost model sees exactly that.  The iteration
pipeline itself — memo, transform, per-placement topology charges,
vertex kernel, overlap — is the session's own, shared with
:meth:`EngineSession.query`; the wave supplies only its lane-mask OR
step, so it pays the same topology traffic a query over the same
frontier pays.

The host computes that step in whichever direction is cheaper, after
Beamer, Asanović and Patterson's direction-optimizing BFS (SC'12).  An
iteration whose frontier edges reach :data:`PULL_EDGE_SHARE` of ``|E|``
*pulls*: every in-edge of the session's CSC view reads its source's
mask, and one segmented OR per destination collects them (GraphBLAST's
masked pull).  Narrower iterations *push* the frontier's edges with a
scatter-OR, so the many narrow levels of a deep wave do not each pay a
full ``|E|`` pass.
Neither direction sorts, and the simulated kernel is the same push over
the frontier's shadows either way.

Exactness contract: the per-source levels a wave produces are
**bit-identical** to running each source through
:meth:`EngineSession.query` sequentially.  BFS levels are small exact
integers in float32, a vertex's level is the first iteration whose
frontier reaches it, and lane propagation is a pure OR-reduce — no lane
can observe another lane's state, so the union schedule changes nothing
per source.  ``tests/test_msbfs.py`` and the ``etagraph-msbfs``
differential engine gate this.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from repro.algorithms.base import get_problem
from repro.core.engine import TraversalResult
from repro.core.session import EngineSession, fill_result
from repro.core.stats import TraversalStats
from repro.errors import ConfigError, InvalidLaunchError
from repro.gpu.profiler import Profiler
from repro.gpu.timeline import Timeline
from repro.graph.csc import CSCGraph

#: Lane capacity of one wave: one bit per source in a uint64 mask.
WAVE_LANES = 64

_ONE = np.uint64(1)

#: A wave iteration pulls over the in-edges once its frontier's edges
#: reach this share of ``|E|``; narrower iterations push.
PULL_EDGE_SHARE = 0.25


class _PullView:
    """A graph's in-edges laid out for the wave's pull step: source of
    every in-edge in destination order, per-vertex in-degrees, and the
    start and vertex of every non-empty in-edge segment (``reduceat``
    misreads empty segments)."""

    __slots__ = ("src", "degrees", "heads", "dests")

    def __init__(self, csc: CSCGraph):
        offsets = csc.col_offsets
        # intp indices: ``take`` gathers faster than through int32.
        self.src = csc.row_indices.astype(np.intp)
        self.degrees = np.diff(offsets)
        self.dests = np.flatnonzero(self.degrees)
        self.heads = offsets[self.dests]


def _pull_view(session: EngineSession) -> _PullView:
    """``session``'s pull view, built from one transpose on first use."""
    if session._pull_view is None:
        session._pull_view = _PullView(CSCGraph.from_csr(session.csr))
    return session._pull_view


def _unslice_levels(planes: list[np.ndarray], width: int) -> np.ndarray:
    """Per-lane BFS levels from bit-sliced ``level + 1`` planes.

    ``planes[b]`` holds bit ``b`` of ``level + 1`` for every (vertex,
    lane); 0 means unreached.  The planes combine vertex-major in the
    narrowest unsigned type that holds every ``level + 1``, and one
    transposing cast yields the ``(width, n)`` float32 levels, ``inf``
    where unreached.  float32 is exact below ``2**24`` levels, the same
    bound the query's float32 labels have.
    """
    n = len(planes[0])
    acc = np.zeros((n, width), dtype=np.min_scalar_type(2 ** len(planes) - 1))
    for b, plane in enumerate(planes):
        # Each mask byte unpacks to its 8 lane flags.
        as_bytes = plane.astype("<u8", copy=False).view(np.uint8)
        flags = np.unpackbits(as_bytes.reshape(n, 8), axis=1,
                              bitorder="little")[:, :width]
        acc |= flags.astype(acc.dtype) << b
    levels = acc.T.astype(np.float32, order="C")
    levels -= 1.0
    levels[levels < 0] = np.inf
    return levels


@dataclass
class WaveResult:
    """Outcome of one MSBFS wave: per-source levels + the shared
    measurement record of the single fused traversal."""

    #: The wave's sources, lane ``i`` = ``sources[i]``.
    sources: np.ndarray
    #: ``(width, num_vertices)`` float32 — row ``i`` is bit-identical to
    #: ``session.query("bfs", sources[i]).labels``.
    levels: np.ndarray
    total_ms: float
    kernel_ms: float
    transfer_ms: float
    d2h_ms: float
    setup_ms: float
    stats: TraversalStats
    timeline: Timeline
    profiler: Profiler
    config: object
    oversubscribed: bool = False
    trace: object | None = None
    extras: dict = field(default_factory=dict)

    @property
    def width(self) -> int:
        return len(self.sources)

    @property
    def iterations(self) -> int:
        return self.stats.num_iterations

    @property
    def query_ms(self) -> float:
        return self.total_ms - self.setup_ms

    def labels_for(self, lane: int) -> np.ndarray:
        """Source ``lane``'s BFS levels (a fresh float32 copy)."""
        return self.levels[lane].copy()

    def to_results(self) -> list:
        """Per-source :class:`~repro.core.engine.TraversalResult` views.

        The wave's cost is *shared*: each synthesized result carries an
        even ``1/width`` slice of the wave's query time (setup rides on
        lane 0, mirroring ``run_batch``'s first-query accounting), and
        all lanes share the wave's stats/timeline/profiler objects.
        Labels are exact per source; timings are an attribution, which
        is what batch amortization accounting needs.
        """
        width = self.width
        measured = {f.name: getattr(self, f.name) for f in fields(self)}
        measured.update(
            kernel_ms=self.kernel_ms / width,
            transfer_ms=self.transfer_ms / width,
            d2h_ms=self.d2h_ms / width,
            device_bytes=self.extras.get("device_bytes", 0),
            um_bytes=self.extras.get("um_bytes", 0),
        )
        share = self.query_ms / width
        out = []
        for lane, source in enumerate(self.sources):
            setup_ms = self.setup_ms if lane == 0 else 0.0
            out.append(fill_result(
                TraversalResult, measured,
                labels=self.labels_for(lane),
                source=int(source),
                problem_name="bfs",
                total_ms=share + setup_ms,
                setup_ms=setup_ms,
                trace=self.trace if lane == 0 else None,
                extras={
                    "wave": True,
                    "wave_width": width,
                    "wave_lane": lane,
                    "wave_iterations": self.iterations,
                },
            ))
        return out

    def __repr__(self) -> str:
        return (
            f"WaveResult({self.width} sources, {self.iterations} iters, "
            f"{self.total_ms:.3f} ms)"
        )


def _validate_sources(session: EngineSession, sources) -> np.ndarray:
    sources = np.asarray(sources, dtype=np.int64).ravel()
    if len(sources) == 0:
        raise ConfigError("empty wave: at least one source required")
    if len(sources) > WAVE_LANES:
        raise ConfigError(
            f"wave width {len(sources)} exceeds the {WAVE_LANES}-lane "
            "mask capacity; chunk sources into waves "
            "(run_batch(strategy='wave') does this)"
        )
    n = session.csr.num_vertices
    bad = sources[(sources < 0) | (sources >= n)]
    if len(bad):
        raise InvalidLaunchError(
            f"wave source {int(bad[0])} out of range [0, {n})"
        )
    return sources


def run_wave(
    session: EngineSession,
    sources,
    *,
    max_iterations: int | None = None,
) -> WaveResult:
    """Run BFS from up to 64 sources as one bit-packed wave traversal.

    The wave rides ``session``'s resident topology and frontier memo.
    Per-source levels are bit-identical to sequential
    :meth:`EngineSession.query` BFS runs; the cost record covers the
    single fused traversal.  ``max_iterations`` bounds the *wave's*
    iteration count (the union frontier converges when the deepest lane
    does), mapping to :class:`~repro.errors.ConvergenceError` exactly
    like a sequential query.
    """
    sources = _validate_sources(session, sources)
    problem = get_problem("bfs")
    width = len(sources)
    n = session.csr.num_vertices

    run = session._open(problem, "wave_query", max_iterations,
                        problem="msbfs", sources=width)
    # Wave state: bit-packed frontier masks, and the lanes' levels
    # bit-sliced: ``planes[b]`` is the lane mask of every vertex whose
    # ``level + 1`` has bit ``b`` set, so recording a level is one OR per
    # set bit, whatever the width.
    masks_host = np.zeros(n, dtype=np.uint64)
    for lane, source in enumerate(sources):
        masks_host[source] |= _ONE << np.uint64(lane)
    planes = [masks_host.copy()]
    mask_arr = session._buffer("wave_masks", masks_host)
    mask = mask_arr.data
    visited_mask = mask.copy()
    num_edges = session.csr.num_edges

    def propagate(active, entry, iteration):
        # One OR-propagation for all lanes: an edge carries its source's
        # whole lane mask, minus the lanes its destination has seen.
        unseen = ~visited_mask
        if entry.shadows.total_edges >= PULL_EDGE_SHARE * num_edges:
            # Pull: every in-edge reads its source's mask.  ``mask`` is
            # zero off the frontier, and the shadows partition each
            # active vertex's edges, so the edges outside the frontier
            # add nothing to the OR or to the count.
            pull = _pull_view(session)
            fresh = mask.take(pull.src)
            fresh &= np.repeat(unseen, pull.degrees)
            new_bits = np.zeros(n, dtype=np.uint64)
            if len(pull.heads):
                new_bits[pull.dests] = np.bitwise_or.reduceat(fresh,
                                                              pull.heads)
        else:
            # Push: scatter the frontier's edges.
            fresh = np.repeat(mask[entry.ids64], entry.shadows.degrees)
            nbr = entry.wide_nbr()
            fresh &= unseen[nbr]
            new_bits = np.zeros(n, dtype=np.uint64)
            np.bitwise_or.at(new_bits, nbr, fresh)
        attempted = int(np.count_nonzero(fresh))
        changed = np.flatnonzero(new_bits)

        if len(changed):
            reached_at = iteration + 2  # level + 1
            while reached_at.bit_length() > len(planes):
                planes.append(np.zeros(n, dtype=np.uint64))
            for b, plane in enumerate(planes):
                if reached_at >> b & 1:
                    np.bitwise_or(plane, new_bits, out=plane)
            np.bitwise_or(visited_mask, new_bits, out=visited_mask)

        # The device mask buffer now holds the *next* frontier's lanes:
        # it was zero off this frontier, so the next one is ``new_bits``.
        mask[:] = new_bits
        return attempted, changed, len(changed), False

    # Wave memo entries carry the lane count, so wave and sequential
    # expansions never mix (their trace plans gather different operand
    # widths).
    session._traverse(
        run, problem, mask_arr, np.flatnonzero(mask), propagate,
        name=f"msbfs wave ({width} sources)", label="wave-masks",
        trace_meta={"problem": "msbfs", "sources": str(width)},
        wave_lanes=width,
    )

    measured = run.measured(session)
    return fill_result(
        WaveResult, measured,
        sources=sources,
        levels=_unslice_levels(planes, width),
        extras={
            "smp_effective": session._smp,
            "threads_per_block": session._threads_per_block,
            "device_bytes": measured["device_bytes"],
            "um_bytes": measured["um_bytes"],
        },
    )


def wave_chunks(sources: np.ndarray, width: int = WAVE_LANES) -> list[np.ndarray]:
    """Split a source batch into consecutive waves of at most ``width``
    lanes (the final wave may be ragged)."""
    if width < 1 or width > WAVE_LANES:
        raise ConfigError(
            f"wave width must be in [1, {WAVE_LANES}], got {width}"
        )
    sources = np.asarray(sources, dtype=np.int64)
    return [sources[i:i + width] for i in range(0, len(sources), width)]
