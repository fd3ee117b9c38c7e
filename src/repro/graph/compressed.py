"""Delta + varint compressed CSR topology.

The paper's Table I treats every topology word as 4 bytes; WebGraph-style
codecs show real web/social adjacency needs far less.  This module is
the repo's compressed topology format — the bandwidth product shrinks
(GraphBLAST's framing), which is exactly what out-of-core placements
(:class:`~repro.core.config.MemoryMode` ``UM_ON_DEMAND`` /
``DIRECT_ACCESS`` / ``ZERO_COPY``) pay for per traversal.

Format (``payload`` + ``row_byte_offsets``, both device-placeable):

* Each vertex ``v``'s neighbor list is encoded in *original order* as a
  sequence of signed deltas: the first relative to ``v`` itself
  (``c_0 - v``), each subsequent relative to its predecessor
  (``c_i - c_{i-1}``).  CSR built by :func:`repro.graph.builder.
  build_csr_from_edges` keeps rows sorted ascending, so subsequent
  deltas are small non-negative gaps; the encoding never *requires*
  sortedness, which is what makes the round trip byte-for-byte exact on
  arbitrary input.
* Deltas are zigzag-mapped to unsigned 32-bit codes
  (``z = (d << 1) ^ (d >> 31)``) and written as little-endian base-128
  varints: 7 payload bits per byte, high bit set on every byte except
  the last.  A delta between two int32 vertex ids lies in
  ``(-2**31, 2**31)``, so every code is below ``2**32`` and takes at
  most 5 bytes.
* ``row_byte_offsets`` (one entry per vertex + 1) replaces
  ``row_offsets``: byte offset of each row's first varint in
  ``payload``.  Varints never span rows, so the payload is
  self-describing given the row offsets — :meth:`decode` reconstructs
  edge boundaries purely from the continuation bits.

``edge_byte_offsets`` (the byte offset of every *edge's* varint) is a
derived host-side index, recomputable from the payload; it is not part
of the stored format and not counted in :attr:`topology_bits`.  The
engine uses it to map a frontier's shadow edge ranges to the exact
payload byte ranges a placement must move (:meth:`edge_byte_ranges`) —
the sector-granular accounting EMOGI-style direct access is built on.

Everything is vectorized; there is no per-edge Python loop anywhere.
Encode and decode handle byte 0 of every varint in one pass, then walk
only the varints still open, so their cost follows the payload's size
rather than five passes over every edge.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.csr import CSRGraph, OFFSET_DTYPE, VERTEX_DTYPE, WORD_BYTES


def _zigzag(deltas: np.ndarray) -> np.ndarray:
    """Signed int32 deltas -> unsigned zigzag codes (uint32).

    ``d << 1`` wraps in int32, but its bit pattern is the code's: every
    delta between two int32 vertex ids lies in ``(-2**31, 2**31)``.
    """
    return ((deltas << 1) ^ (deltas >> 31)).view(np.uint32)


def _unzigzag(codes: np.ndarray) -> np.ndarray:
    """Unsigned zigzag codes (uint32) -> signed int32 deltas."""
    deltas = (codes >> 1).view(np.int32)
    deltas ^= -(codes & 1).view(np.int32)
    return deltas


def _write_varints(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LEB128-encode uint32 ``codes`` back to back.

    Returns the payload (uint8) and the byte offset of every varint
    (``len(codes) + 1`` entries, int64).  Byte 0 of every varint is
    written in one pass; each later pass walks only the varints still
    open, so a code of ``k`` bytes is touched ``k`` times.
    """
    lengths = np.ones(len(codes), dtype=np.uint8)
    for b in range(1, 5):
        lengths += codes >= 1 << 7 * b
    offsets = np.zeros(len(codes) + 1, dtype=np.int64)
    np.cumsum(lengths, dtype=np.int64, out=offsets[1:])
    payload = np.empty(int(offsets[-1]), dtype=np.uint8)
    pos = offsets[:-1]
    rest = codes
    while len(rest):
        more = rest > 0x7F
        # The low byte's bit 7 is clear whenever no byte follows.
        payload[pos] = rest.astype(np.uint8) | (more.view(np.uint8) << 7)
        open_ = np.flatnonzero(more)
        rest = rest[open_] >> 7
        pos = pos[open_] + 1
    return payload, offsets


def _read_varints(payload: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Decode a payload of back-to-back varints.

    Returns the codes (uint32) and one past each varint's last byte
    (int64): a terminator byte has bit 7 clear.
    """
    ends = np.flatnonzero(payload < 0x80) + 1
    pos = np.zeros_like(ends)
    pos[1:] = ends[:-1]
    byte = payload[pos]
    codes = (byte & 0x7F).astype(np.uint32)
    open_ = np.flatnonzero(byte >= 0x80)
    pos = pos[open_]
    shift = 7
    while len(open_):
        pos += 1
        byte = payload[pos]
        codes[open_] |= (byte & 0x7F).astype(np.uint32) << shift
        more = np.flatnonzero(byte >= 0x80)
        open_ = open_[more]
        pos = pos[more]
        shift += 7
    return codes, ends


class CompressedCSRGraph:
    """A directed graph with delta + varint compressed topology.

    Behaves like :class:`~repro.graph.csr.CSRGraph` for every read
    (``neighbors``, ``out_degrees``, space accounting, ...), backed by a
    compressed byte payload.  Functional reads go through the cached
    dense :meth:`decode`; the compressed arrays are what a placement
    moves, and what the space/transfer accounting measures.
    """

    def __init__(self, csr: CSRGraph):
        if not isinstance(csr, CSRGraph):
            raise GraphFormatError(
                f"CompressedCSRGraph encodes a CSRGraph, got {type(csr).__name__}"
            )
        payload, row_byte_offsets, edge_byte_offsets = self._encode(csr)
        #: The compressed neighbor stream (uint8).
        self.payload = payload
        #: Byte offset of each row's first varint (|V| + 1 entries,
        #: uint32 unless the payload needs 64-bit offsets).
        self.row_byte_offsets = row_byte_offsets
        #: Derived host-side index: byte offset of each edge's varint
        #: (|E| + 1 entries, int64).  Not part of the stored format.
        self.edge_byte_offsets = edge_byte_offsets
        #: Dense weights ride along uncompressed (SSSP/SSWP need exact
        #: float32 values; they are not topology).
        self.edge_weights = csr.edge_weights
        for arr in (self.payload, self.row_byte_offsets,
                    self.edge_byte_offsets):
            arr.setflags(write=False)
        self._num_vertices = csr.num_vertices
        self._num_edges = csr.num_edges
        # Filled by the first decode() — never the input object, so every
        # functional read genuinely exercises the decoder (the round-trip
        # property is load-bearing, not decorative).
        self._dense: CSRGraph | None = None

    # ------------------------------------------------------------------
    # Encode / decode
    # ------------------------------------------------------------------

    @staticmethod
    def _encode(csr: CSRGraph):
        cols = csr.column_indices
        offsets = csr.row_offsets.astype(np.int64)
        n = csr.num_vertices
        if len(cols) == 0:
            payload = np.empty(0, dtype=np.uint8)
            row_byte_offsets = np.zeros(n + 1, dtype=np.uint32)
            edge_byte_offsets = np.zeros(1, dtype=np.int64)
            return payload, row_byte_offsets, edge_byte_offsets

        # prev[e]: the value edge e's delta is taken against — the owner
        # vertex for the first edge of a row, the previous column
        # otherwise.
        prev = np.empty_like(cols)
        prev[1:] = cols[:-1]
        nonempty = np.flatnonzero(np.diff(offsets))
        prev[offsets[nonempty]] = nonempty
        payload, edge_byte_offsets = _write_varints(_zigzag(cols - prev))

        offset_dtype = np.uint32 if len(payload) < 2**32 else np.int64
        row_byte = edge_byte_offsets[offsets].astype(offset_dtype)
        return payload, row_byte, edge_byte_offsets

    def decode(self) -> CSRGraph:
        """The exact dense CSR this graph encodes (cached).

        Reconstruction uses only the stored format — the payload's
        continuation bits delimit varints, ``row_byte_offsets`` delimits
        rows — so this is the proof the format is self-describing.
        """
        if self._dense is not None:
            return self._dense
        payload = self.payload
        n = self._num_vertices
        if len(payload) == 0:
            dense = CSRGraph(
                np.zeros(n + 1, dtype=OFFSET_DTYPE),
                np.empty(0, dtype=VERTEX_DTYPE),
                self.edge_weights,
                validate=False,
            )
            self._dense = dense
            return dense

        codes, ends = _read_varints(payload)
        deltas = _unzigzag(codes)

        # Rows: varints never span a row boundary, so the number of edges
        # up to a row's byte offset is the number of terminators at or
        # before it.
        row_byte = self.row_byte_offsets.astype(np.int64)
        row_offsets = np.searchsorted(ends, row_byte, side="right")

        # Retarget each row's first delta from its owner to the last
        # column of the row before it (0 for the first row with edges);
        # one running sum then decodes every row.  It is exact in int32:
        # every partial sum is a column, or a column minus its owner.
        nonempty = np.flatnonzero(np.diff(row_offsets))
        firsts = row_offsets[nonempty]
        last_cols = nonempty + np.add.reduceat(deltas, firsts, dtype=np.int64)
        before = np.zeros_like(last_cols)
        before[1:] = last_cols[:-1]
        deltas[firsts] += (nonempty - before).astype(np.int32)
        cols = np.cumsum(deltas, dtype=np.int32, out=deltas)

        dense = CSRGraph(
            row_offsets.astype(OFFSET_DTYPE),
            cols,
            self.edge_weights,
            validate=False,
        )
        self._dense = dense
        return dense

    # ------------------------------------------------------------------
    # CSRGraph read API (delegated to the dense decode)
    # ------------------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return self._num_vertices

    @property
    def num_edges(self) -> int:
        return self._num_edges

    @property
    def is_weighted(self) -> bool:
        return self.edge_weights is not None

    @property
    def average_degree(self) -> float:
        if self._num_vertices == 0:
            return 0.0
        return self._num_edges / self._num_vertices

    def out_degrees(self) -> np.ndarray:
        return self.decode().out_degrees()

    def out_degree(self, v: int) -> int:
        return self.decode().out_degree(v)

    def max_out_degree(self) -> int:
        return self.decode().max_out_degree()

    def neighbors(self, v: int) -> np.ndarray:
        return self.decode().neighbors(v)

    def neighbor_weights(self, v: int) -> np.ndarray:
        return self.decode().neighbor_weights(v)

    def edge_sources(self) -> np.ndarray:
        return self.decode().edge_sources()

    def iter_edges(self):
        return self.decode().iter_edges()

    def to_scipy(self):
        return self.decode().to_scipy()

    @property
    def row_offsets(self) -> np.ndarray:
        return self.decode().row_offsets

    @property
    def column_indices(self) -> np.ndarray:
        return self.decode().column_indices

    def with_weights(self, weights: np.ndarray) -> "CompressedCSRGraph":
        return CompressedCSRGraph(self.decode().with_weights(weights))

    def without_weights(self) -> "CompressedCSRGraph":
        if self.edge_weights is None:
            return self
        return CompressedCSRGraph(self.decode().without_weights())

    # ------------------------------------------------------------------
    # Space accounting
    # ------------------------------------------------------------------

    @property
    def nbytes(self) -> int:
        """Stored topology bytes, plus dense weights if present."""
        total = self.payload.nbytes + self.row_byte_offsets.nbytes
        if self.edge_weights is not None:
            total += self.edge_weights.nbytes
        return total

    @property
    def topology_bits(self) -> int:
        """Stored topology size in bits (payload + row byte offsets)."""
        return 8 * (self.payload.nbytes + self.row_byte_offsets.nbytes)

    @property
    def bits_per_edge(self) -> float:
        """Measured payload bits per edge (the neighbor stream alone)."""
        if self._num_edges == 0:
            return 0.0
        return 8.0 * self.payload.nbytes / self._num_edges

    @property
    def bits_per_node(self) -> float:
        """Measured offset-structure bits per vertex."""
        if self._num_vertices == 0:
            return 0.0
        return 8.0 * self.row_byte_offsets.nbytes / self._num_vertices

    @property
    def total_bits_per_edge(self) -> float:
        """All stored topology bits amortized over edges — the number to
        compare against dense CSR's ``32 * (|E| + |V|) / |E|``."""
        if self._num_edges == 0:
            return 0.0
        return self.topology_bits / self._num_edges

    def topology_words(self) -> int:
        """Stored topology in the paper's 4-byte words (rounded up)."""
        nbytes = self.payload.nbytes + self.row_byte_offsets.nbytes
        return -(-nbytes // WORD_BYTES)

    def device_arrays(self) -> dict[str, np.ndarray]:
        """Arrays a placement must move: the *compressed* topology."""
        arrays = {
            "row_offsets": self.row_byte_offsets,
            "column_indices": self.payload,
        }
        if self.edge_weights is not None:
            arrays["edge_weights"] = self.edge_weights
        return arrays

    # ------------------------------------------------------------------
    # Byte-range accounting (what a frontier expansion must move)
    # ------------------------------------------------------------------

    def edge_byte_ranges(
        self, starts: np.ndarray, degrees: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Payload byte ranges covering edge ranges ``[start, start + degree)``.

        Returns ``(start_bytes, length_bytes)`` int64 arrays aligned with
        the inputs — the exact bytes a placement must read to expand
        those adjacency slices (cf. ``start * 4`` / ``degree * 4`` for
        dense CSR).
        """
        starts = np.asarray(starts, dtype=np.int64)
        degrees = np.asarray(degrees, dtype=np.int64)
        lo = self.edge_byte_offsets[starts]
        hi = self.edge_byte_offsets[starts + degrees]
        return lo, hi - lo

    # ------------------------------------------------------------------
    # Dunder protocol
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CompressedCSRGraph):
            return NotImplemented
        return (
            np.array_equal(self.payload, other.payload)
            and np.array_equal(self.row_byte_offsets, other.row_byte_offsets)
            and (self.edge_weights is None) == (other.edge_weights is None)
            and (self.edge_weights is None
                 or np.array_equal(self.edge_weights, other.edge_weights))
        )

    def __hash__(self):  # pragma: no cover - explicitness only
        return id(self)

    def __repr__(self) -> str:
        w = ", weighted" if self.is_weighted else ""
        return (
            f"CompressedCSRGraph(|V|={self._num_vertices}, "
            f"|E|={self._num_edges}, {self.bits_per_edge:.1f} b/edge, "
            f"{self.bits_per_node:.1f} b/node{w})"
        )


def compress(csr: CSRGraph) -> CompressedCSRGraph:
    """Encode ``csr``; ``compress(csr).decode()`` is byte-for-byte equal."""
    return CompressedCSRGraph(csr)
