"""Simulator-throughput measurement (``python -m repro.bench perf``).

Everything else in this repository measures *simulated* GPU time; this
harness measures how fast the **simulator** runs on the host.  The
workload is the serving regime the session layer exists for: per
canonical graph, one topology-resident :class:`EngineSession` answers a
batch of BFS queries — ``sources`` distinct sources, each asked
``repeats`` times (popular sources repeat in a serving mix, which is
exactly what the session's frontier memo amortizes).  One untimed
warm-up query pays topology placement so the timed region measures
steady-state query throughput, not setup
(:func:`~repro.bench.workloads.time_queries`).

With ``--trace-dir`` the timed region runs with spans on, and the last
query's Chrome trace per graph is written after the region closes;
comparing ``wall_ms_per_query`` with and without it measures telemetry
overhead.

Metric naming is load-bearing: keys prefixed ``wall_`` are host
wall-clock measurements and are gated generously (and direction-aware)
by ``repro.bench compare``; every other numeric leaf is a deterministic
function of (graph seed, config) and is gated tightly.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.bench.runner import BenchContext, ExperimentReport
from repro.bench.workloads import time_queries
from repro.core.config import EtaGraphConfig
from repro.core.multi import pick_sources
from repro.utils.tables import render_table

#: The three canonical perf graphs: the small-dataset grid every
#: framework and CI machine can run.
CANONICAL_GRAPHS = ("slashdot", "livejournal", "com-orkut")


@dataclass(frozen=True)
class PerfSettings:
    """Shape of one harness run."""

    graphs: tuple[str, ...] = CANONICAL_GRAPHS
    #: Distinct BFS sources per graph.
    sources: int = 8
    #: How many times the source batch is replayed against the warm
    #: session (repeat >= 2 exercises the frontier memo's hit path).
    repeats: int = 3
    algorithm: str = "bfs"
    source_seed: int = 3

    @classmethod
    def quick(cls) -> "PerfSettings":
        return cls(sources=4, repeats=2)


def measure_graph(name: str, settings: PerfSettings,
                  ctx: BenchContext) -> dict:
    """Run the serving workload on one graph; returns the metric dict."""
    csr, _ = ctx.load(name, weighted=False)
    sources = pick_sources(csr, settings.sources, seed=settings.source_seed)
    config = EtaGraphConfig(telemetry=ctx.trace_dir is not None)
    batch = time_queries(
        csr, config, ctx.device, sources, repeats=settings.repeats,
        algorithm=settings.algorithm,
    )
    results = batch.results

    if ctx.trace_dir is not None:
        # Written after the timed region closed, so file I/O never
        # perturbs the wall-clock numbers.
        from repro.observability.export import write_chrome_trace

        trace_dir = Path(ctx.trace_dir)
        trace_dir.mkdir(parents=True, exist_ok=True)
        write_chrome_trace(
            results[-1].trace, trace_dir / f"perf-{name}.json"
        )

    edges = sum(r.stats.total_edges_scanned for r in results)
    launches = sum(r.profiler.kernels.launches for r in results)
    iterations = sum(r.iterations for r in results)
    simulated_ms = sum(r.total_ms for r in results)
    queries = len(results)
    wall_s = batch.wall_s
    cache_accesses = batch.cache_accesses

    return {
        # Deterministic workload invariants (tight compare tolerance).
        "num_vertices": csr.num_vertices,
        "num_edges": csr.num_edges,
        "queries": queries,
        "iterations": iterations,
        "edges_traced": edges,
        "kernel_launches": launches,
        "cache_accesses": cache_accesses,
        "simulated_total_ms": simulated_ms,
        "memo_hits": batch.memo_hits,
        "memo_misses": batch.memo_misses,
        # Host wall-clock (generous, direction-aware compare tolerance).
        "wall_s": wall_s,
        "wall_ms_per_query": wall_s * 1e3 / queries,
        "wall_edges_per_sec": edges / wall_s,
        "wall_launches_per_sec": launches / wall_s,
        "wall_cache_accesses_per_sec": cache_accesses / wall_s,
    }


def run_perf(
    quick: bool = False, ctx: BenchContext | None = None, *,
    settings: PerfSettings | None = None,
) -> ExperimentReport:
    """Measure simulator throughput; returns a saveable report.

    ``data`` maps each graph name to its metric dict plus a
    ``canonical`` aggregate over all graphs — the headline
    ``canonical.wall_edges_per_sec`` is the number successive PRs are
    compared on.
    """
    ctx = ctx or BenchContext()
    if settings is None:
        settings = PerfSettings.quick() if quick else PerfSettings()

    data: dict = {}
    total_edges = 0
    total_launches = 0
    total_accesses = 0
    total_queries = 0
    total_wall = 0.0
    rows = []
    for name in settings.graphs:
        metrics = measure_graph(name, settings, ctx)
        data[name] = metrics
        total_edges += metrics["edges_traced"]
        total_launches += metrics["kernel_launches"]
        total_accesses += metrics["cache_accesses"]
        total_queries += metrics["queries"]
        total_wall += metrics["wall_s"]
        rows.append([
            name,
            metrics["queries"],
            f"{metrics['edges_traced'] / 1e6:.2f} M",
            f"{metrics['wall_ms_per_query']:.1f}",
            f"{metrics['wall_edges_per_sec'] / 1e6:.2f} M/s",
            f"{metrics['wall_launches_per_sec']:.0f}/s",
            f"{metrics['wall_cache_accesses_per_sec'] / 1e6:.2f} M/s",
            f"{metrics['memo_hits']}/{metrics['memo_hits'] + metrics['memo_misses']}",
        ])

    total_wall = max(total_wall, 1e-9)
    data["canonical"] = {
        "queries": total_queries,
        "edges_traced": total_edges,
        "kernel_launches": total_launches,
        "cache_accesses": total_accesses,
        "wall_s": total_wall,
        "wall_ms_per_query": total_wall * 1e3 / max(total_queries, 1),
        "wall_edges_per_sec": total_edges / total_wall,
        "wall_launches_per_sec": total_launches / total_wall,
        "wall_cache_accesses_per_sec": total_accesses / total_wall,
    }
    data["settings"] = {
        "quick": bool(quick),
        "sources": settings.sources,
        "repeats": settings.repeats,
        "algorithm": settings.algorithm,
        "telemetry": ctx.trace_dir is not None,
    }
    rows.append([
        "canonical",
        total_queries,
        f"{total_edges / 1e6:.2f} M",
        f"{total_wall * 1e3 / max(total_queries, 1):.1f}",
        f"{total_edges / total_wall / 1e6:.2f} M/s",
        f"{total_launches / total_wall:.0f}/s",
        f"{total_accesses / total_wall / 1e6:.2f} M/s",
        "",
    ])

    text = render_table(
        ["graph", "queries", "edges", "ms/query", "edges/s", "launches/s",
         "cache acc/s", "memo hits"],
        rows,
        title=(
            f"Simulator throughput: {settings.algorithm} x "
            f"{settings.sources} sources x {settings.repeats} repeats "
            f"on a warm session"
        ),
    )
    return ExperimentReport(
        experiment="perf",
        title="Simulator wall-clock throughput",
        text=text,
        data=data,
    )
