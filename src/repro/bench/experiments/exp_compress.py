"""Compressed-topology density and out-of-core placement throughput
(``python -m repro.bench compress``).

Two sections, one report:

* **Compression density** — encode each surrogate with
  :class:`~repro.graph.compressed.CompressedCSRGraph` and report measured
  ``bits_per_edge`` / ``bits_per_node`` against dense CSR's
  ``32 * (|E| + |V|) / |E|``.  Web surrogates must land at or below 60%
  of dense (hard-asserted here, gated by ``repro.bench compare``'s
  one-sided ``bits_*`` rule thereafter).
* **Out-of-core placement throughput** — a raised-scale web surrogate
  (:data:`~repro.graph.datasets.RAISED_DATASETS`; dense topology well
  past the scaled device capacity) served by one warm
  :class:`~repro.core.session.EngineSession` per placement x encoding
  combo: UM on-demand (``um_oversubscribed``) vs EMOGI-style
  ``direct_access``, each over dense and compressed topology.  Labels
  are asserted identical across all combos; simulated traversal time is
  asserted strictly better for direct access (the modeled claim);
  host wall throughput is reported with the usual ``wall_`` naming.

Metric naming is load-bearing: ``wall_*`` leaves are host wall-clock
(generous, direction-aware compare gate), ``bits_*`` leaves are
compression density (tight, flagged only when they rise); everything
else is deterministic and gated tightly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bench.runner import BenchContext, ExperimentReport
from repro.bench.workloads import time_queries
from repro.core.config import EtaGraphConfig, MemoryMode
from repro.core.multi import pick_sources
from repro.errors import InvariantViolation
from repro.graph import datasets
from repro.graph.compressed import CompressedCSRGraph
from repro.utils.tables import render_table

#: Acceptance bound: compressed topology on web surrogates must need at
#: most this fraction of dense CSR's bits.
WEB_RATIO_BOUND = 0.60

#: Density section graphs (full run).  One social graph rides along for
#: contrast; the bound applies to the ``web`` kind only.
DENSITY_GRAPHS = ("livejournal", "uk-2005", "sk-2005", "uk-2006")
DENSITY_GRAPHS_QUICK = ("livejournal", "uk-2005")

#: The placement combos of the throughput section, in report order.
PLACEMENTS = (
    ("um_oversubscribed", MemoryMode.UM_ON_DEMAND),
    ("direct_access", MemoryMode.DIRECT_ACCESS),
)
ENCODINGS = ("dense", "compressed")


@dataclass(frozen=True)
class CompressSettings:
    """Shape of one ``repro.bench compress`` run."""

    density_graphs: tuple[str, ...] = DENSITY_GRAPHS
    #: The oversubscribed graph of the throughput section.
    raised_graph: str = "uk-2005-x8"
    #: Distinct BFS sources per combo (the first is always the dataset's
    #: canonical deep-crawl source).
    sources: int = 3
    #: Batch replays against the warm session (>= 2 exercises the
    #: frontier memo under every placement).
    repeats: int = 2
    source_seed: int = 8

    @classmethod
    def quick(cls) -> "CompressSettings":
        return cls(density_graphs=DENSITY_GRAPHS_QUICK,
                   raised_graph="uk-2005-x4", sources=2, repeats=2)


def dense_bits_per_edge(csr) -> float:
    """Dense CSR topology bits amortized over edges: ``32(|E|+|V|)/|E|``."""
    return 32.0 * (csr.num_edges + csr.num_vertices) / max(csr.num_edges, 1)


def measure_density(name: str, ctx: BenchContext) -> dict:
    """Encode one surrogate; returns its density metrics."""
    csr, _ = ctx.load(name, weighted=False)
    compressed = CompressedCSRGraph(csr)
    dense_bits = dense_bits_per_edge(csr)
    ratio = compressed.total_bits_per_edge / dense_bits
    kind = datasets.get_spec(name).kind
    if kind == "web" and ratio > WEB_RATIO_BOUND:
        raise InvariantViolation(
            f"{name}: compressed topology needs {ratio:.1%} of dense CSR "
            f"bits — web surrogates must stay at or below "
            f"{WEB_RATIO_BOUND:.0%}"
        )
    return {
        "num_vertices": csr.num_vertices,
        "num_edges": csr.num_edges,
        "bits_per_edge": compressed.bits_per_edge,
        "bits_per_node": compressed.bits_per_node,
        "bits_per_edge_total": compressed.total_bits_per_edge,
        "dense_bits_per_edge_total": dense_bits,
        "compression_ratio": ratio,
    }


def measure_combo(
    topology, sources, mode: MemoryMode, settings: CompressSettings, device
) -> tuple[dict, np.ndarray]:
    """Serve the BFS batch on one placement x encoding combo.

    Returns ``(metrics, labels-of-first-source)`` — the labels feed the
    cross-combo bit-identity check.
    """
    batch = time_queries(
        topology, EtaGraphConfig(memory_mode=mode), device, sources,
        repeats=settings.repeats,
    )
    results, wall_s = batch.results, batch.wall_s
    edges = sum(r.stats.total_edges_scanned for r in results)
    metrics = {
        # Deterministic (tight compare tolerance).
        "queries": len(results),
        "iterations": sum(r.iterations for r in results),
        "edges_traced": edges,
        "simulated_total_ms": sum(r.total_ms for r in results),
        # Host wall-clock (generous, direction-aware).
        "wall_s": wall_s,
        "wall_ms_per_query": wall_s * 1e3 / len(results),
        "wall_edges_per_sec": edges / wall_s,
    }
    return metrics, results[0].labels


def run_compress(
    quick: bool = False, ctx: BenchContext | None = None, *,
    settings: CompressSettings | None = None,
) -> ExperimentReport:
    """Run both sections; returns a saveable report."""
    ctx = ctx or BenchContext()
    if settings is None:
        settings = CompressSettings.quick() if quick else CompressSettings()
    device = ctx.device

    # --- section 1: compression density -------------------------------
    density: dict = {}
    density_rows = []
    graphs = tuple(settings.density_graphs)
    if settings.raised_graph not in graphs:
        graphs = graphs + (settings.raised_graph,)
    for name in graphs:
        m = measure_density(name, ctx)
        density[name] = m
        density_rows.append([
            name, f"{m['num_edges']:,}", f"{m['bits_per_edge']:.2f}",
            f"{m['bits_per_node']:.2f}", f"{m['bits_per_edge_total']:.2f}",
            f"{m['dense_bits_per_edge_total']:.2f}",
            f"{m['compression_ratio']:.1%}",
        ])

    # --- section 2: out-of-core placement throughput -------------------
    name = settings.raised_graph
    csr, canonical = ctx.load(name, weighted=False)
    compressed = CompressedCSRGraph(csr)
    extra = pick_sources(csr, settings.sources - 1,
                         seed=settings.source_seed) \
        if settings.sources > 1 else np.empty(0, dtype=np.int64)
    sources = np.concatenate(([canonical], extra)).astype(np.int64)

    combos: dict = {}
    labels_ref = None
    throughput_rows = []
    for rung, mode in PLACEMENTS:
        for encoding in ENCODINGS:
            topology = compressed if encoding == "compressed" else csr
            metrics, labels = measure_combo(
                topology, sources, mode, settings, device
            )
            if labels_ref is None:
                labels_ref = labels
            elif not np.array_equal(labels, labels_ref):
                raise InvariantViolation(
                    f"{name}: {rung}+{encoding} labels diverge from "
                    f"{PLACEMENTS[0][0]}+{ENCODINGS[0]}"
                )
            combos[f"{rung}+{encoding}"] = metrics
            throughput_rows.append([
                f"{rung}+{encoding}", metrics["queries"],
                f"{metrics['simulated_total_ms']:.2f}",
                f"{metrics['wall_ms_per_query']:.0f}",
                f"{metrics['wall_edges_per_sec'] / 1e6:.2f} M/s",
            ])

    # Direct access must beat UM oversubscription on the modeled clock
    # for both encodings — the EMOGI claim this PR reproduces.
    speedups: dict = {}
    for encoding in ENCODINGS:
        um = combos[f"um_oversubscribed+{encoding}"]
        da = combos[f"direct_access+{encoding}"]
        sim = um["simulated_total_ms"] / max(da["simulated_total_ms"], 1e-12)
        if sim <= 1.0:
            raise InvariantViolation(
                f"{name}/{encoding}: direct access is not faster than UM "
                f"on the simulated clock (speedup {sim:.3f}x)"
            )
        speedups[encoding] = {
            "sim_speedup": sim,
            "wall_edges_per_sec_ratio": (
                da["wall_edges_per_sec"] / max(um["wall_edges_per_sec"],
                                               1e-12)
            ),
        }

    text = "\n\n".join([
        render_table(
            ["graph", "edges", "bits/edge", "bits/node", "total b/edge",
             "dense b/edge", "ratio"],
            density_rows,
            title="Compressed CSR density (delta + varint vs dense CSR)",
        ),
        render_table(
            ["placement", "queries", "sim ms", "wall ms/query", "edges/s"],
            throughput_rows,
            title=(
                f"Out-of-core serving on {name} "
                f"(|E|={csr.num_edges:,}, dense topology "
                f"{csr.nbytes / 2**20:.0f} MiB vs "
                f"{device.memory_capacity / 2**20:.0f} MiB device)"
            ),
        ),
    ])
    return ExperimentReport(
        experiment="compress",
        title="Compressed topology + direct-access placement",
        text=text,
        data={
            "density": density,
            "raised": {
                "combos": combos,
                "speedups": speedups,
                "num_vertices": csr.num_vertices,
                "num_edges": csr.num_edges,
            },
            "settings": {
                "quick": bool(quick),
                "raised_graph": settings.raised_graph,
                "sources": settings.sources,
                "repeats": settings.repeats,
            },
        },
    )
