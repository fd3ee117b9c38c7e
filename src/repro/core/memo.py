"""The session's frontier memo: each frontier's label-independent
expansion, kept by active-set content and bounded by entries and bytes.

A :class:`FrontierMemo` maps a frontier's key (a content digest of the
active set plus the placement facts the values depend on) to its
:class:`_FrontierExpansion`: the UDC degree cut, the
``actSet2virtActSet`` gather stream, the edge expansion and the vertex
kernel's trace plan.  Entries are evicted least recently used.

Two bounds apply.  ``max_entries`` (``EtaGraphConfig.
frontier_memo_entries``; 0 switches the memo off) caps the count, and
``max_bytes`` (:data:`MAX_BYTES` per session) caps the host bytes held.
The byte total is a running sum: an entry is charged when it is put,
and charged again by :meth:`FrontierMemo.settle` after an iteration
that filled one of its lazy parts, so a warm hit that filled nothing
pays no recount.

Admission is by frequency only once the budget binds.  A miss whose
entry fits under ``max_bytes`` is stored on its first sighting; one that
would push the memo past it is stored only if its key is among the
*ghosts*, a bounded set of keys (no arrays) of misses refused before, as
in the 2Q and TinyLFU cache policies.  Otherwise its key joins the
ghosts.  A warm set that fits, such as a replayed source's frontiers,
is therefore kept from its first sighting, while one-shot frontiers of
cold traffic stop displacing it once the memo is full.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict

import numpy as np

#: Host bytes one session's memo may hold.  A warm set of 8 replayed
#: BFS sources on ``com-orkut`` (about 5.5 frontiers each) takes about
#: 62 MiB.
MAX_BYTES = 96 * 2**20

#: Keys of refused misses remembered for second-sighting admission.
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
    keeps the topology's column dtype (int32 on every surrogate); its
    consumers index with it or cast it themselves.

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
        "charged_fills",
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

    def destinations(self, num_vertices: int) -> np.ndarray:
        """Sorted unique neighbor ids (exactly ``np.unique(nbr)``, as
        int64), found from a bitmap — one scatter and one scan, no
        sort — and kept."""
        if self.dests is None:
            hit = np.zeros(num_vertices, dtype=bool)
            # Scattering through an int32 index costs about 1.7x an
            # intp one; the widened copy is not kept.
            hit[self.nbr.astype(np.intp, copy=False)] = True
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
            counts = np.bincount(self.nbr, minlength=num_vertices)
            self.dest_edges = counts.take(self.dests).astype(np.int32)
        return self.dest_edges

    def last_sources(self, num_vertices: int, dtype) -> np.ndarray:
        """Source of the last frontier edge into each destination (in
        ``dtype``, aligned with :meth:`destinations`): the witness a
        push records when every edge into a destination witnesses."""
        if self.dest_last_src is None:
            last = np.empty(num_vertices, dtype=dtype)
            # Repeated indices: the last edge's value is the one kept.
            last[self.nbr] = self.edge_sources()
            self.dest_last_src = last.take(self.dests)
        return self.dest_last_src

    def fills(self) -> int:
        """How many lazily built parts the entry holds, run summaries
        included.  Parts are only ever added, so a changed count means
        the entry's bytes grew."""
        plan, stream = self.trace_plan, self.transform_stream
        return ((self.dests is not None) + (plan is not None)
                + (self.src_ids is not None) + (self.dest_edges is not None)
                + (self.dest_last_src is not None)
                + (stream is not None and stream.summary is not None)
                + (plan is not None and plan.sorted_stream.summary is not None))

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
    """Bounded LRU of frontier expansions with ghost admission.

    ``placement`` holds the session-fixed facts that join every key (the
    memory mode and the compression flag).  ``hits``, ``misses``,
    ``collisions`` and ``rejections`` (misses refused because the memo
    was full) only count up; :meth:`invalidate` keeps them.
    """

    def __init__(self, max_entries: int, max_bytes: int = MAX_BYTES, *,
                 placement: tuple = ()):
        self.max_entries = max_entries
        self.max_bytes = max_bytes
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
        self._ghosts: OrderedDict[tuple, None] = OrderedDict()
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
        """The entry for ``key`` (now most recently used), or ``None``."""
        # An iteration that raised before its settle is settled here.
        self.settle()
        entry = self.entries.get(key)
        if entry is not None and entry.active_bytes != active_bytes:
            # Digest collision: the stored expansion belongs to a
            # different frontier.  Serve a miss (the caller recomputes
            # and overwrites the slot) instead of wrong reuse.
            self.collisions += 1
            entry = None
        if entry is None:
            self.misses += 1
            return None
        self.entries.move_to_end(key)
        self.hits += 1
        self._in_use = key
        return entry

    def put(self, key: tuple, entry: _FrontierExpansion) -> None:
        """Store a missed frontier's ``entry`` if the policy admits it:
        always while it fits under ``max_bytes``, and past that only on
        its key's second sighting, evicting LRU entries to make room."""
        old = self.entries.pop(key, None)
        if old is not None:
            self.bytes -= old.charged
        size = entry.nbytes
        if self.bytes + size > self.max_bytes:
            if key not in self._ghosts or size > self.max_bytes:
                self._ghosts[key] = None
                if len(self._ghosts) > GHOST_KEYS:
                    self._ghosts.popitem(last=False)
                self.rejections += 1
                return
            del self._ghosts[key]
        self.entries[key] = entry
        self._in_use = key
        self._charge(entry, size)

    def settle(self) -> None:
        """Charge the entry in use again if its lazy parts grew since
        its last charge, then evict to the bounds.  An entry that filled
        nothing costs one :meth:`~_FrontierExpansion.fills` count."""
        key, self._in_use = self._in_use, None
        entry = self.entries.get(key) if key is not None else None
        if entry is not None and entry.fills() != entry.charged_fills:
            self.bytes -= entry.charged
            self._charge(entry, entry.nbytes)

    def invalidate(self) -> None:
        """Drop every entry and ghost; the counters keep counting."""
        self.entries.clear()
        self._ghosts.clear()
        self.bytes = 0
        self._in_use = None

    def _charge(self, entry: _FrontierExpansion, size: int) -> None:
        entry.charged = size
        entry.charged_fills = entry.fills()
        self.bytes += size
        # The entry in use is the most recently used, and at least one
        # entry stays, so eviction from the LRU end never reaches it.
        entries = self.entries
        while len(entries) > self.max_entries or (
                self.bytes > self.max_bytes and len(entries) > 1):
            _, old = entries.popitem(last=False)
            self.bytes -= old.charged
