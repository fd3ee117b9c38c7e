"""Characterization golden for the engine's simulated-interval records.

Every traversal records its activities twice over: as spans on the
tracer (the Perfetto tracks) and as Fig. 4 intervals on the
:class:`~repro.gpu.timeline.Timeline`.  This test pins both, byte for
byte, across the paths that record them: a cold-then-warm query pair in
each of the five memory modes (the UM modes oversubscribed, so
``um.touch`` re-faults fire; the warm query is weighted, so edge weights
are installed on a warm session), compressed direct access, out-of-core
UDC (``shadow-table`` staging), a 4-lane MSBFS wave and delta PageRank.

Regenerate with ``REGEN_GOLDEN=1 python -m pytest
tests/test_engine_record_golden.py`` — only on purpose, after a diff
shows what moved.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro import EngineSession, EtaGraphConfig, MemoryMode
from repro.core.msbfs import run_wave
from repro.core.pagerank import pagerank
from repro.gpu.device import GTX_1080TI
from repro.graph.compressed import compress
from repro.graph.generators import rmat
from repro.graph.weights import uniform_int_weights
from repro.observability.export import to_chrome_trace, to_jsonl, \
    validate_chrome_trace
from repro.utils.units import KIB

GOLDEN = Path(__file__).parent / "golden" / "engine_record_cases.txt"

#: Below the graph's UM topology footprint but above its working
#: buffers: UM prefetch oversubscribes and re-faults every iteration.
#: Device mode copies all topology into device memory, so it runs at
#: the full capacity instead.
OVERSUBSCRIBED = GTX_1080TI.with_capacity(16 * KIB)


def _graph():
    g = rmat(9, 3000, seed=4)
    return g.with_weights(uniform_int_weights(g.num_edges, seed=5))


def _modes():
    for mode in MemoryMode:
        device = GTX_1080TI if mode is MemoryMode.DEVICE else OVERSUBSCRIBED
        yield mode.value, mode, device


def _run_cases():
    """``(case name, result)`` for every pinned traversal, in order."""
    g = _graph()
    out = []
    for name, mode, device in _modes():
        cfg = EtaGraphConfig(memory_mode=mode, telemetry=True)
        with EngineSession(g, cfg, device) as s:
            out.append((f"{name}/bfs-0", s.query("bfs", 0)))
            out.append((f"{name}/sssp-3", s.query("sssp", 3)))
    cfg = EtaGraphConfig(memory_mode=MemoryMode.DIRECT_ACCESS,
                         telemetry=True)
    with EngineSession(compress(g), cfg) as s:
        out.append(("compressed-direct/bfs-0", s.query("bfs", 0)))
        out.append(("compressed-direct/bfs-0-warm", s.query("bfs", 0)))
    for mode in (MemoryMode.UM_PREFETCH, MemoryMode.DEVICE):
        cfg = EtaGraphConfig(memory_mode=mode, udc_mode="out_of_core",
                             telemetry=True)
        with EngineSession(g, cfg) as s:
            out.append((f"out-of-core-{mode.value}/bfs-0",
                        s.query("bfs", 0)))
    cfg = EtaGraphConfig(telemetry=True)
    with EngineSession(g, cfg, OVERSUBSCRIBED) as s:
        out.append(("wave-4", run_wave(s, np.arange(4))))
    with EngineSession(g, cfg) as s:
        out.append(("pagerank", pagerank(s)))
    return out


def _render(cases) -> str:
    lines = []
    for name, result in cases:
        lines.append(f"# {name} trace")
        lines.append(to_jsonl(result.trace).rstrip("\n"))
        lines.append(f"# {name} timeline")
        lines += [
            json.dumps([iv.kind, iv.start_ms, iv.end_ms, iv.nbytes,
                        iv.label])
            for iv in result.timeline.intervals
        ]
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def cases():
    return _run_cases()


def test_records_match_golden_bytes(cases):
    got = _render(cases)
    if os.environ.get("REGEN_GOLDEN"):
        GOLDEN.write_text(got, encoding="utf-8")
    assert got == GOLDEN.read_text(encoding="utf-8"), (
        f"{GOLDEN.name} drifted: spans or Fig. 4 intervals moved"
    )


def test_every_trace_validates(cases):
    for name, result in cases:
        assert validate_chrome_trace(to_chrome_trace(result.trace)) == [], \
            name


def test_cases_reach_every_recording_path(cases):
    names = {r.name for _, result in cases for r in result.trace.records}
    labels = {iv.label for _, result in cases
              for iv in result.timeline.intervals}
    for span in ("um.touch", "um.prefetch", "um.register", "pin_host",
                 "shadow-table", "zerocopy", "edge_weights",
                 "labels-init", "labels-d2h", "wave-masks-init",
                 "residual-init", "transform", "vertex_kernel"):
        assert span in names, span
    assert any(n.startswith("direct-access-") for n in names)
    for prefix in ("iter-", "zerocopy-", "direct-", "prefetch-"):
        assert any(lb.startswith(prefix) for lb in labels), prefix
