"""The session's frontier memo: each frontier's label-independent
expansion, kept by active-set content while it shows reuse, under one
byte budget.

A :class:`FrontierMemo` maps a frontier's key (a content digest of the
active set plus the placement facts the values depend on) to its
:class:`_FrontierExpansion`: the UDC degree cut, the
``actSet2virtActSet`` gather stream, the edge expansion and the vertex
kernel's trace plan.

One bound applies: ``max_bytes`` (:data:`MAX_BYTES` per session) caps
the host bytes held, and least recently used entries are evicted to it.
The byte total is a running sum: an entry is charged when it is put,
and charged again by :meth:`FrontierMemo.settle` after an iteration
that filled one of its lazy parts (a run summary replaces its stream's
arrays, so the charge can fall), so a warm hit that filled nothing
pays no recount.

Entries are kept on evidence of reuse, as in the 2Q cache policy:

* **Probation.**  A stored entry is on probation for
  :data:`PROBATION_LOOKUPS` lookups of its memo.  Only a hit in that
  time makes it resident.  Otherwise it expires: it is evicted and its
  key becomes a *ghost*, one of a bounded set of keys (no arrays).  An
  entry of at most :data:`SMALL_ENTRY_BYTES` is kept instead.
* **Second sighting.**  Once the memo has evicted an entry that was
  never read (expired, or pushed out by bytes), a miss is stored only
  if its key is a ghost.  Any other miss is refused and its key joins
  the ghosts.  The same rule applies from the start to a miss that
  would push the memo past ``max_bytes``.

A warm set that recurs within the window, such as a replayed source's
frontiers, is thus kept from its first sighting.  One-shot frontiers of
cold traffic are never held longer than one window, and stop being
stored at all once the first of them expires.  A frontier seen again
is stored again, but kept only if it is read within its window.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict

import numpy as np

#: Host bytes one session's memo may hold.  A warm set of 8 replayed
#: BFS sources on ``com-orkut`` (about 5.5 frontiers each) takes about
#: 62 MiB.
MAX_BYTES = 96 * 2**20

#: Lookups a stored entry may wait for its first hit.  ``bfs-hot`` hits
#: each warm entry first exactly one 8-source cycle after storing it,
#: and that cycle is 42-48 lookups (the sum of ``depth + 1`` over the 8
#: drawn sources, perfbench seeds 1-200), so 64 keeps its warm set with
#: a margin of 16 lookups.
PROBATION_LOOKUPS = 64

#: An unread entry that holds at most this many bytes when its window
#: ends stays, as resident, instead of expiring.  Such an entry costs
#: under 0.07% of the budget.  On the small graphs the golden traces
#: pin, every entry is this small (the largest holds 63,400 bytes), so
#: their memo hits and misses are those of a plain LRU.
SMALL_ENTRY_BYTES = 64 * 2**10

#: Keys of evicted or refused entries remembered for second-sighting
#: admission.
GHOST_KEYS = 4096


class _FrontierExpansion:
    """Memoized label-independent expansion of one frontier.

    Every field is a pure function of (topology, config, active-set
    content, array placement): the shadow slices, neighbor ids, sorted
    unique destinations, per-edge weights, the transform kernel's
    gather stream and the vertex kernel's
    :class:`~repro.gpu.traceplan.TracePlan` — in the spirit of
    :meth:`~repro.core.udc.ShadowTable.select`, but on demand and for
    every per-iteration derivation, not just the degree cut.
    Label-dependent values (candidates, update counts) are never stored,
    so reusing an entry is bit-identical to recomputing it.  ``nbr``
    keeps the topology's column dtype (int32 on every surrogate); an
    iteration that indexes or counts with it widens it once, through
    :meth:`wide_nbr`.

    ``dests``, ``trace_plan``, ``src_ids``, ``dest_edges`` and
    ``dest_last_src`` are filled lazily: the destinations when a step
    first asks for them (the query does, the MSBFS wave never does), the
    plan on the first kernel launch over this frontier, the per-edge
    source ids only if a parent-tracking per-edge step needs them.  The
    query's per-destination step (every frontier edge carrying one
    candidate) reads two per-destination arrays aligned with ``dests``:
    ``dest_edges``, each destination's number of frontier edges, built
    on the entry's second such step (``stepped`` marks the first), so a
    frontier seen once never pays for it; and ``dest_last_src``, the
    source of the last frontier edge into each destination, built when
    a parent-tracking query first needs it.

    ``active_bytes`` holds the exact bytes of the active set the entry
    was built from: a memo hit is only trusted after these bytes match
    the looked-up frontier, so a digest collision degrades to a miss
    instead of silently serving another frontier's expansion.

    ``charged`` is the byte count the memo last charged for the entry,
    and ``charged_fills`` its :meth:`fills` at that moment.
    """

    __slots__ = (
        "shadows", "ids64", "nbr", "dests", "w_per_edge",
        "transform_stream", "trace_plan", "src_ids", "active_bytes",
        "stepped", "dest_edges", "dest_last_src", "charged",
        "charged_fills", "nbr_intp",
    )

    def __init__(self, *, shadows, ids64, nbr, w_per_edge,
                 transform_stream=None, active_bytes=b""):
        self.shadows = shadows
        self.ids64 = ids64
        self.nbr = nbr
        self.dests = None
        self.w_per_edge = w_per_edge
        self.transform_stream = transform_stream
        self.trace_plan = None
        self.src_ids = None
        self.active_bytes = active_bytes
        self.stepped = False
        self.dest_edges = None
        self.dest_last_src = None
        self.charged = 0
        self.charged_fills = 0
        self.nbr_intp = None

    def wide_nbr(self) -> np.ndarray:
        """``nbr`` as intp, widened at most once per iteration.  Every
        index and count over one iteration's neighbour ids shares this
        copy.  The session drops it after its last use, and
        :meth:`FrontierMemo.settle` drops what an aborted iteration
        left, so an entry never keeps (or charges) it."""
        if self.nbr_intp is None:
            self.nbr_intp = self.nbr.astype(np.intp, copy=False)
        return self.nbr_intp

    def hand_over_wide_nbr(self) -> np.ndarray:
        """:meth:`wide_nbr`, no longer held by the entry, for the
        iteration's last user: holding the only reference, it frees the
        copy as soon as it is done with it."""
        wide = self.wide_nbr()
        self.nbr_intp = None
        return wide

    def destinations(self, num_vertices: int) -> np.ndarray:
        """Sorted unique neighbor ids (exactly ``np.unique(nbr)``, as
        int64), found from a bitmap — one scatter and one scan, no
        sort — and kept."""
        if self.dests is None:
            hit = np.zeros(num_vertices, dtype=bool)
            hit[self.wide_nbr()] = True
            self.dests = np.flatnonzero(hit)
        return self.dests

    def edge_sources(self) -> np.ndarray:
        """Source id of every frontier edge, aligned with ``nbr``."""
        if self.src_ids is not None:
            return self.src_ids
        return np.repeat(self.ids64, self.shadows.degrees)

    def destination_edges(self, num_vertices: int) -> np.ndarray | None:
        """Each destination's number of frontier edges (int32, aligned
        with :meth:`destinations`); ``None`` on the entry's first
        per-destination step, so a frontier seen once never counts."""
        if self.dest_edges is None:
            if not self.stepped:
                self.stepped = True
                return None
            counts = np.bincount(self.wide_nbr(), minlength=num_vertices)
            self.dest_edges = counts.take(self.dests).astype(np.int32)
        return self.dest_edges

    def last_sources(self, num_vertices: int, dtype) -> np.ndarray:
        """Source of the last frontier edge into each destination (in
        ``dtype``, aligned with :meth:`destinations`): the witness a
        push records when every edge into a destination witnesses."""
        if self.dest_last_src is None:
            last = np.empty(num_vertices, dtype=dtype)
            # Repeated indices: the last edge's value is the one kept.
            last[self.wide_nbr()] = self.edge_sources()
            self.dest_last_src = last.take(self.dests)
        return self.dest_last_src

    def fills(self) -> int:
        """How many lazily built parts the entry holds, run summaries
        and the plan's instruction models included.  Parts are only ever
        added, so a changed count means the entry's bytes changed: they
        grew, or shrank because a summarized stream released its
        arrays."""
        plan, stream = self.trace_plan, self.transform_stream
        count = ((self.dests is not None) + (self.src_ids is not None)
                 + (self.dest_edges is not None)
                 + (self.dest_last_src is not None)
                 + (stream is not None and stream.summary is not None))
        if plan is not None:
            count += (1 + len(plan.issue)
                      + (plan.sorted_stream.summary is not None))
        return count

    @property
    def nbytes(self) -> int:
        total = (
            self.shadows.nbytes + self.ids64.nbytes + self.nbr.nbytes
            + len(self.active_bytes)
        )
        for lazy in (self.dests, self.w_per_edge, self.transform_stream,
                     self.trace_plan, self.src_ids, self.dest_edges,
                     self.dest_last_src):
            if lazy is not None:
                total += lazy.nbytes
        if (self.trace_plan is not None
                and self.trace_plan.degrees is self.shadows.degrees):
            # An unsampled plan keeps the shadows' degrees themselves.
            total -= self.shadows.degrees.nbytes
        return total


class FrontierMemo:
    """Byte-bounded LRU of frontier expansions, admitted on reuse.

    ``placement`` holds the session-fixed facts that join every key (the
    memory mode and the compression flag).  ``probation`` maps each key
    stored and not yet hit to the lookup count at which it was stored;
    ``ghosts`` holds keys without entries.  ``hits``, ``misses``,
    ``collisions`` and ``rejections`` (misses the admission rule
    refused) only count up; :meth:`invalidate` keeps them.
    """

    def __init__(self, max_bytes: int = MAX_BYTES, *,
                 placement: tuple = ()):
        self.max_bytes = max_bytes
        self.window = PROBATION_LOOKUPS
        self.placement = placement
        self.entries: OrderedDict[tuple, _FrontierExpansion] = OrderedDict()
        #: Running total of the entries' charged bytes.
        self.bytes = 0
        self.hits = 0
        self.misses = 0
        #: Digest collisions caught by the exact active-set byte check:
        #: a colliding hit is demoted to a miss instead of serving
        #: another frontier's expansion.
        self.collisions = 0
        self.rejections = 0
        #: Lookups so far; probation stamps count in them.
        self.lookups = 0
        self.probation: OrderedDict[tuple, int] = OrderedDict()
        self.ghosts: OrderedDict[tuple, None] = OrderedDict()
        #: Whether an entry that was never read has been evicted, so a
        #: first sighting is no longer stored.
        self.selective = False
        #: Key of the entry the current iteration uses, until settled.
        self._in_use: tuple | None = None

    def __len__(self) -> int:
        return len(self.entries)

    def key(
        self,
        active_bytes: bytes,
        num_active: int,
        labels_arr,
        weights_arr,
        wave_lanes: int = 0,
    ) -> tuple:
        # Content hash of the active set plus the placement facts the
        # memoized values depend on: the labels array (reallocated when a
        # query switches label dtype, which would invalidate the trace
        # plan's addresses) and whether weights join the trace.  Topology
        # arrays and config are fixed for the session's lifetime.
        # ``wave_lanes`` separates MSBFS wave entries (whose trace plans
        # gather 8-byte masks instead of 4-byte labels) from sequential
        # ones even if the mask buffer were to land at a recycled
        # address; the expansion itself is mask-content independent, so
        # the lane count — not the mask bits — is the right key.
        # The placement mode and compression flag are part of the key
        # even though they are session-fixed: the bump allocator is
        # deterministic, so two sessions over the same graph hand
        # identical base addresses to differently-placed topologies —
        # any future sharing of memo entries across sessions (a pool, a
        # serialized cache) must never let a dense-device trace plan
        # serve a compressed or direct-access frontier.
        digest = hashlib.blake2b(active_bytes, digest_size=16).digest()
        return (
            digest,
            num_active,
            labels_arr.base_address,
            labels_arr.itemsize,
            weights_arr.base_address if weights_arr is not None else -1,
            wave_lanes,
            *self.placement,
        )

    def get(self, key: tuple,
            active_bytes: bytes) -> _FrontierExpansion | None:
        """The entry for ``key`` (now most recently used, and resident),
        or ``None``.  Probation entries this lookup was the last chance
        for then expire."""
        # An iteration that raised before its settle is settled here.
        self.settle()
        self.lookups += 1
        entry = self.entries.get(key)
        if entry is not None and entry.active_bytes != active_bytes:
            # Digest collision: the stored expansion belongs to a
            # different frontier.  Serve a miss (the caller recomputes
            # and overwrites the slot) instead of wrong reuse.
            self.collisions += 1
            entry = None
        if entry is None:
            self.misses += 1
        else:
            self.entries.move_to_end(key)
            self.probation.pop(key, None)
            self.hits += 1
            self._in_use = key
        # An entry stored at lookup ``s`` may be hit up to lookup
        # ``s + window``; the stamps run in storing order.
        probation = self.probation
        while probation:
            stale, stamp = next(iter(probation.items()))
            if stamp > self.lookups - self.window:
                break
            if self.entries[stale].charged > SMALL_ENTRY_BYTES:
                self._evict(stale, self.entries.pop(stale))
            else:
                del probation[stale]
        return entry

    def put(self, key: tuple, entry: _FrontierExpansion) -> None:
        """Store a missed frontier's ``entry``, on probation, if the
        policy admits it: on any sighting while no unread entry has been
        evicted and it fits under ``max_bytes``, else only on its key's
        second sighting, evicting LRU entries to make room."""
        old = self.entries.pop(key, None)
        if old is not None:
            self.bytes -= old.charged
            self.probation.pop(key, None)
        size = entry.nbytes
        ghost = key in self.ghosts
        if size > self.max_bytes or not ghost and (
                self.selective or self.bytes + size > self.max_bytes):
            self._ghost(key)
            self.rejections += 1
            return
        if ghost:
            del self.ghosts[key]
        self.probation[key] = self.lookups
        self.entries[key] = entry
        self._in_use = key
        self._charge(entry, size)

    def settle(self) -> None:
        """Charge the entry in use again if its lazy parts changed since
        its last charge, then evict to the budget, and drop any widened
        neighbour ids the iteration left.  An entry that filled nothing
        costs one :meth:`~_FrontierExpansion.fills` count."""
        key, self._in_use = self._in_use, None
        entry = self.entries.get(key) if key is not None else None
        if entry is not None:
            entry.nbr_intp = None
            if entry.fills() != entry.charged_fills:
                self.bytes -= entry.charged
                self._charge(entry, entry.nbytes)

    def invalidate(self) -> None:
        """Drop every entry and ghost and admit first sightings again;
        the counters keep counting."""
        self.entries.clear()
        self.probation.clear()
        self.ghosts.clear()
        self.selective = False
        self.bytes = 0
        self._in_use = None

    def _ghost(self, key: tuple) -> None:
        self.ghosts[key] = None
        self.ghosts.move_to_end(key)
        if len(self.ghosts) > GHOST_KEYS:
            self.ghosts.popitem(last=False)

    def _evict(self, key: tuple, entry: _FrontierExpansion) -> None:
        """Account for ``entry``, already removed from ``entries``."""
        self.bytes -= entry.charged
        if self.probation.pop(key, None) is not None:
            self.selective = True
        self._ghost(key)

    def _charge(self, entry: _FrontierExpansion, size: int) -> None:
        entry.charged = size
        entry.charged_fills = entry.fills()
        self.bytes += size
        # The entry in use is the most recently used, and at least one
        # entry stays, so eviction from the LRU end never reaches it.
        entries = self.entries
        while self.bytes > self.max_bytes and len(entries) > 1:
            self._evict(*entries.popitem(last=False))
