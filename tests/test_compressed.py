"""Compressed CSR topology + direct-access placement (PR 8).

Five batteries:

* format — the payload and both offset arrays equal a scalar zigzag +
  LEB128 encoder's, for varints of one to five bytes;
* roundtrip — the delta+varint codec reproduces the dense topology
  byte-for-byte on every generator family;
* placement — all memory modes x encodings produce bit-identical labels,
  and the differential harness accepts a compressed graph directly;
* memo key — the frontier-memo key separates placements and encodings
  (the regression the PR's key extension exists to prevent);
* chaos — direct-access PCIe faults retry, then demote down the ladder
  to zero-copy without ever surfacing a wrong answer.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import EtaGraphConfig, MemoryMode
from repro.core.session import EngineSession
from repro.graph import generators
from repro.graph.compressed import (
    CompressedCSRGraph,
    _read_varints,
    _unzigzag,
    _write_varints,
    _zigzag,
    compress,
)
from repro.graph.csr import CSRGraph
from repro.gpu.transfer import (
    DIRECT_ACCESS_SECTOR_BYTES,
    direct_access_sectors,
)
from repro.resilience.faults import FAULT_KINDS, FaultPlan, FaultSpec
from repro.resilience.session import (
    LADDER,
    _MODE_RUNGS,
    _RUNG_MODES,
    ResilientSession,
    RetryPolicy,
)
from repro.testing.differential import msbfs_engine, run_differential_case


def _generator_zoo() -> dict[str, CSRGraph]:
    """One representative per generator family."""
    return {
        "rmat": generators.rmat(8, 2_000, seed=3),
        "social": generators.social_network(500, 4_000, seed=4),
        "web_chain": generators.web_chain(
            600, 5_000, depth=24, leaf_fraction=0.3, seed=5
        ),
        "path": generators.path_graph(200),
        "cycle": generators.cycle_graph(97),
        "star": generators.star_graph(64),
        "complete": generators.complete_graph(24),
        "grid": generators.grid_graph(12, 17),
        "erdos_renyi": generators.erdos_renyi(300, 2_500, seed=6),
    }


def _leb128(code: int) -> bytes:
    """Scalar little-endian base-128 varint of one unsigned code."""
    out = bytearray()
    while True:
        byte, code = code & 0x7F, code >> 7
        out.append(byte | 0x80 if code else byte)
        if not code:
            return bytes(out)


def _reference_encode(csr: CSRGraph):
    """Scalar zigzag + LEB128 encoder, one edge at a time: the payload
    and every edge's byte offset."""
    payload = bytearray()
    edge_bytes = [0]
    offsets = csr.row_offsets
    for v in np.flatnonzero(np.diff(offsets)):
        prev = int(v)
        for c in csr.column_indices[offsets[v]:offsets[v + 1]]:
            delta, prev = int(c) - prev, int(c)
            payload += _leb128(2 * delta if delta >= 0 else -2 * delta - 1)
            edge_bytes.append(len(payload))
    return bytes(payload), np.array(edge_bytes, dtype=np.int64)


def _assert_reference_format(csr: CSRGraph, c: CompressedCSRGraph):
    payload, edge_bytes = _reference_encode(csr)
    assert c.payload.dtype == np.uint8
    assert c.payload.tobytes() == payload
    assert c.edge_byte_offsets.dtype == np.int64
    assert np.array_equal(c.edge_byte_offsets, edge_bytes)
    assert c.row_byte_offsets.dtype == np.uint32
    assert np.array_equal(c.row_byte_offsets, edge_bytes[csr.row_offsets])


# ----------------------------------------------------------------------
# Format: pinned against a scalar encoder
# ----------------------------------------------------------------------


class TestFormat:
    def test_zigzag_matches_scalar(self):
        deltas = np.array([0, -1, 1, -64, 63, 64, -(2**31 - 1), 2**31 - 1,
                           -(2**27), 2**27], dtype=np.int32)
        codes = _zigzag(deltas)
        assert codes.dtype == np.uint32
        assert codes.tolist() == [2 * d if d >= 0 else -2 * d - 1
                                  for d in deltas.tolist()]
        assert _unzigzag(codes).tolist() == deltas.tolist()

    def test_varints_of_one_to_five_bytes(self):
        codes = np.array([0, 1, 127, 128, 2**14 - 1, 2**14, 2**21 - 1,
                          2**21, 2**28 - 1, 2**28, 2**32 - 1, 5],
                         dtype=np.uint32)
        payload, offsets = _write_varints(codes)
        assert payload.tobytes() == b"".join(
            _leb128(int(code)) for code in codes)
        assert np.diff(offsets).tolist() == [
            len(_leb128(int(code))) for code in codes]
        decoded, ends = _read_varints(payload)
        assert decoded.tolist() == codes.tolist()
        assert np.array_equal(ends, offsets[1:])

    @pytest.mark.parametrize("name", sorted(_generator_zoo()))
    def test_generators_match_scalar_encoder(self, name):
        dense = _generator_zoo()[name]
        _assert_reference_format(dense, CompressedCSRGraph(dense))

    def test_one_to_four_byte_deltas(self):
        """A 2**22-vertex space reaches 4-byte varints; unsorted rows
        and empty rows between them keep the exact format."""
        n = 2**22 + 5
        rows = {0: [0, 1, 100, 20_000, 3_000_000, n - 1, 5],
                7: [7, 6, 2**21],
                n - 2: [0, n - 1, 0]}
        degrees = np.zeros(n, dtype=np.int64)
        for v, cols in rows.items():
            degrees[v] = len(cols)
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degrees, out=offsets[1:])
        dense = CSRGraph(offsets.astype(np.int32), np.array(
            [c for v in sorted(rows) for c in rows[v]], dtype=np.int32))
        c = CompressedCSRGraph(dense)
        assert set(np.diff(c.edge_byte_offsets).tolist()) == {1, 2, 3, 4}
        _assert_reference_format(dense, c)
        decoded = c.decode()
        assert decoded.row_offsets.tobytes() == dense.row_offsets.tobytes()
        assert decoded.column_indices.tobytes() == \
            dense.column_indices.tobytes()


# ----------------------------------------------------------------------
# Roundtrip
# ----------------------------------------------------------------------


class TestRoundtrip:
    @pytest.mark.parametrize("name", sorted(_generator_zoo()))
    def test_every_generator_roundtrips_bit_for_bit(self, name):
        dense = _generator_zoo()[name]
        decoded = CompressedCSRGraph(dense).decode()
        assert decoded.row_offsets.dtype == dense.row_offsets.dtype
        assert decoded.column_indices.dtype == dense.column_indices.dtype
        assert np.array_equal(decoded.row_offsets, dense.row_offsets)
        assert np.array_equal(decoded.column_indices, dense.column_indices)

    def test_read_api_matches_dense(self):
        dense = _generator_zoo()["web_chain"]
        c = CompressedCSRGraph(dense)
        assert (c.num_vertices, c.num_edges) == \
            (dense.num_vertices, dense.num_edges)
        assert np.array_equal(c.out_degrees(), dense.out_degrees())
        for v in (0, 1, c.num_vertices - 1):
            assert np.array_equal(c.neighbors(v), dense.neighbors(v))

    def test_weighted_roundtrip_preserves_weights(self):
        dense = _generator_zoo()["erdos_renyi"]
        w = np.arange(dense.num_edges, dtype=np.float32) % 7 + 1
        c = CompressedCSRGraph(dense.with_weights(w))
        assert c.is_weighted
        decoded = c.decode()
        assert np.array_equal(decoded.edge_weights, w)
        assert not c.without_weights().is_weighted

    def test_empty_and_singleton_graphs(self):
        empty = CSRGraph(np.zeros(1, dtype=np.int64),
                         np.empty(0, dtype=np.int32))
        one = generators.star_graph(1)
        for g in (empty, one):
            decoded = CompressedCSRGraph(g).decode()
            assert np.array_equal(decoded.row_offsets, g.row_offsets)
            assert np.array_equal(decoded.column_indices, g.column_indices)

    def test_compress_helper_and_equality(self):
        dense = _generator_zoo()["grid"]
        assert compress(dense) == CompressedCSRGraph(dense)

    def test_web_graphs_are_denser_than_csr(self):
        """The headline claim, at test scale: delta+varint needs fewer
        bits than dense CSR's 32(|E|+|V|)/|E| on crawl-shaped graphs."""
        dense = generators.web_chain(
            5_000, 60_000, depth=60, leaf_fraction=0.3, seed=9
        )
        c = CompressedCSRGraph(dense)
        dense_bits = 32.0 * (dense.num_edges + dense.num_vertices) \
            / dense.num_edges
        assert c.total_bits_per_edge < dense_bits
        assert c.bits_per_edge > 0 and c.bits_per_node > 0
        # topology_words is the Table I accounting unit: ceil(bytes/4).
        assert c.topology_words() < dense.topology_words()


# ----------------------------------------------------------------------
# Placement: every mode x encoding agrees bit-for-bit
# ----------------------------------------------------------------------

ALL_MODES = tuple(MemoryMode)


class TestPlacement:
    @pytest.fixture(scope="class")
    def graph(self):
        return generators.web_chain(
            1_500, 14_000, depth=30, leaf_fraction=0.3, seed=8
        )

    @pytest.fixture(scope="class")
    def reference(self, graph):
        with EngineSession(graph, EtaGraphConfig(
                memory_mode=MemoryMode.DEVICE)) as s:
            return s.query("bfs", 0).labels

    @pytest.mark.parametrize("mode", ALL_MODES, ids=lambda m: m.value)
    @pytest.mark.parametrize("encoding", ["dense", "compressed"])
    def test_labels_identical_across_combos(self, graph, reference, mode,
                                            encoding):
        topology = compress(graph) if encoding == "compressed" else graph
        with EngineSession(topology, EtaGraphConfig(memory_mode=mode)) as s:
            labels = s.query("bfs", 0).labels
        assert np.array_equal(labels, reference)

    # Direct-access cases keep the bare problem ids they had when the
    # test ran under that placement only.
    @pytest.mark.parametrize("problem,mode", [
        pytest.param(problem, mode, id=(
            problem if mode is MemoryMode.DIRECT_ACCESS
            else f"{problem}-{mode.value}"
        ))
        for problem in ("bfs", "sssp", "cc") for mode in ALL_MODES
    ])
    def test_differential_over_compressed_topology(self, problem, mode):
        """The differential harness (etagraph, etagraph-session and
        etagraph-msbfs engines vs the CPU oracle) accepts a
        CompressedCSRGraph directly, under every placement."""
        dense = generators.social_network(400, 3_000, seed=10)
        w = (np.arange(dense.num_edges, dtype=np.float32) % 5) + 1
        topology = CompressedCSRGraph(dense.with_weights(w))
        config = EtaGraphConfig(memory_mode=mode)
        report = run_differential_case(
            topology, problem, 0,
            config=config,
            baselines=(),
            extra_engines={"etagraph-msbfs": msbfs_engine(config)},
        )
        assert report.ok, report.summary()
        assert {e.engine for e in report.engines} >= \
            {"etagraph", "etagraph-session", "etagraph-msbfs"}

    def test_direct_access_moves_bytes_over_pcie(self, graph):
        """Direct access streams sector reads every iteration instead of
        staging the topology up-front."""
        with EngineSession(graph, EtaGraphConfig(
                memory_mode=MemoryMode.DIRECT_ACCESS)) as s:
            result = s.query("bfs", 0)
            transfers = [iv for iv in result.timeline.intervals
                         if iv.label.startswith("direct-")]
            assert transfers, "no direct-access transfer intervals recorded"
            total = sum(iv.nbytes for iv in transfers)
            assert total % DIRECT_ACCESS_SECTOR_BYTES == 0
            # Sector-granular reads touch far less than whole-graph
            # staging would.
            assert total < graph.nbytes * result.iterations


# ----------------------------------------------------------------------
# Frontier-memo key
# ----------------------------------------------------------------------


class TestMemoKey:
    def _key_for(self, graph_or_compressed, mode):
        """The memo key a fresh session computes for the same frontier."""
        with EngineSession(
            graph_or_compressed, EtaGraphConfig(memory_mode=mode)
        ) as s:
            s.query("bfs", 0)  # place + allocate label arrays
            active = np.array([0], dtype=np.int32)
            return s.memo.key(
                active.tobytes(), 1, s._buffers["labels"], s._weights_arr
            )

    def test_key_separates_placement_and_encoding(self):
        """The deterministic bump allocator hands identical addresses to
        two sessions over the same graph, so without the placement facts
        in the key, a dense/device trace plan could serve a
        compressed/direct-access frontier.  This is the test that the
        pre-PR key (digest, n, labels addr, itemsize, weights addr,
        lanes) would fail."""
        graph = generators.web_chain(
            800, 6_000, depth=20, leaf_fraction=0.3, seed=12
        )
        # Same dense topology, both host-resident placements: the bump
        # allocator hands both sessions identical label addresses, so
        # the pre-PR key (digest, n, labels addr, itemsize, weights
        # addr, lanes) is identical across them.  Only the new placement
        # facts keep the entries apart.
        zc_key = self._key_for(graph, MemoryMode.ZERO_COPY)
        da_key = self._key_for(graph, MemoryMode.DIRECT_ACCESS)
        assert zc_key[:-2] == da_key[:-2]
        assert zc_key != da_key
        assert zc_key[-2:] == (MemoryMode.ZERO_COPY.value, False)
        assert da_key[-2:] == (MemoryMode.DIRECT_ACCESS.value, False)
        # Same placement, different encoding: the compression flag (and,
        # here, the payload's different footprint) separates the keys.
        cda_key = self._key_for(compress(graph), MemoryMode.DIRECT_ACCESS)
        assert cda_key != da_key
        assert cda_key[-2:] == (MemoryMode.DIRECT_ACCESS.value, True)

    def test_memo_still_hits_within_a_session(self):
        graph = generators.web_chain(
            800, 6_000, depth=20, leaf_fraction=0.3, seed=12
        )
        with EngineSession(compress(graph), EtaGraphConfig(
                memory_mode=MemoryMode.DIRECT_ACCESS)) as s:
            a = s.query("bfs", 0)
            hits_before = s.memo_hits
            b = s.query("bfs", 0)
            assert s.memo_hits > hits_before
            assert np.array_equal(a.labels, b.labels)


# ----------------------------------------------------------------------
# Sector accounting
# ----------------------------------------------------------------------


class TestSectorCounting:
    @staticmethod
    def _reference(starts, lengths):
        sectors = set()
        for s, n in zip(starts, lengths):
            if n > 0:
                lo = s // DIRECT_ACCESS_SECTOR_BYTES
                hi = (s + n - 1) // DIRECT_ACCESS_SECTOR_BYTES
                sectors.update(range(lo, hi + 1))
        return len(sectors)

    def test_empty_and_zero_length_ranges(self):
        empty = np.empty(0, dtype=np.int64)
        assert direct_access_sectors(empty, empty) == 0
        assert direct_access_sectors(
            np.array([100, 300]), np.array([0, 0])
        ) == 0

    def test_interval_union_matches_reference(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            starts = rng.integers(0, 5_000, size=n)
            lengths = rng.integers(0, 700, size=n)
            assert direct_access_sectors(starts, lengths) == \
                self._reference(starts, lengths)

    def test_duplicate_sectors_counted_once(self):
        starts = np.array([0, 0, 64, 128], dtype=np.int64)
        lengths = np.array([4, 128, 64, 1], dtype=np.int64)
        # Ranges cover sectors {0}, {0}, {0}, {1} -> 2 distinct.
        assert direct_access_sectors(starts, lengths) == 2


# ----------------------------------------------------------------------
# Ladder + chaos
# ----------------------------------------------------------------------


class TestLadderAndChaos:
    def test_direct_access_rung_sits_between_um_and_zero_copy(self):
        assert LADDER.index("um_oversubscribed") \
            < LADDER.index("direct_access") < LADDER.index("zero_copy")
        assert _RUNG_MODES["direct_access"] is MemoryMode.DIRECT_ACCESS
        assert _MODE_RUNGS[MemoryMode.DIRECT_ACCESS] == "direct_access"
        for rung, mode in _RUNG_MODES.items():
            assert _MODE_RUNGS[mode] == rung
        assert "direct_access_fault" in FAULT_KINDS

    def test_direct_access_faults_retry_then_demote_to_zero_copy(self):
        """A persistent PCIe fault on direct reads exhausts the rung's
        retries, demotes one rung down the ladder (zero-copy), and still
        serves bit-exact labels."""
        graph = generators.web_chain(
            600, 5_000, depth=20, leaf_fraction=0.3, seed=13
        )
        with EngineSession(graph, EtaGraphConfig(
                memory_mode=MemoryMode.DEVICE)) as s:
            expected = s.query("bfs", 0).labels
        plan = FaultPlan(specs=(
            FaultSpec(kind="direct_access_fault", at=0, count=64),
        ))
        with ResilientSession(
            compress(graph),
            EtaGraphConfig(memory_mode=MemoryMode.DIRECT_ACCESS),
            fault_plan=plan,
        ) as rs:
            outcome = rs.run("bfs", 0)
        assert outcome.final_placement == "zero_copy"
        assert outcome.degraded
        assert any(f.startswith("direct_access_fault")
                   for f in outcome.faults_seen)
        assert np.array_equal(outcome.result.labels, expected)

    def test_transient_direct_access_fault_is_retried_in_place(self):
        graph = generators.web_chain(
            600, 5_000, depth=20, leaf_fraction=0.3, seed=13
        )
        plan = FaultPlan(specs=(
            FaultSpec(kind="direct_access_fault", at=0, count=1),
        ))
        with ResilientSession(
            graph, EtaGraphConfig(memory_mode=MemoryMode.DIRECT_ACCESS),
            fault_plan=plan,
        ) as rs:
            outcome = rs.run("bfs", 0)
        assert outcome.final_placement == "direct_access"
        assert not outcome.degraded
        assert len(outcome.faults_seen) == 1
        assert outcome.faults_seen[0].startswith("direct_access_fault")

    def test_cpu_fallback_disallowed_surfaces_typed_error(self):
        """Every host-resident rung faulted + no CPU floor => a typed
        error, never a wrong answer."""
        from repro.errors import ReproError

        graph = generators.web_chain(
            400, 3_000, depth=15, leaf_fraction=0.3, seed=14
        )
        plan = FaultPlan(specs=(
            FaultSpec(kind="direct_access_fault", at=0, count=512),
            FaultSpec(kind="transfer_fault", at=0, count=512),
        ))
        with ResilientSession(
            graph, EtaGraphConfig(memory_mode=MemoryMode.DIRECT_ACCESS),
            fault_plan=plan,
            policy=RetryPolicy(allow_cpu_fallback=False),
        ) as rs:
            with pytest.raises(ReproError):
                rs.run("bfs", 0)
