"""MSBFS wave-vs-sequential throughput (``python -m repro.bench msbfs``).

The tentpole claim of the wave runner (:mod:`repro.core.msbfs`) is a
wall-clock one: a 64-source wave does one edge expansion, one
``TracePlan`` build and one cache pass per iteration where the
sequential batch does 64 of each, so the *same delivered work* (64
per-source BFS solutions) finishes many times faster.  This harness
measures exactly that, per canonical graph, on one warm session each:

* **sequential leg** — ``sources`` BFS queries through a warm
  :class:`~repro.core.session.EngineSession`, the ``run_batch``
  default;
* **wave leg** — the same sources as MSBFS waves of ``wave_width``
  lanes through an identically warmed session, labels bit-identical
  per source (asserted here on every run — a perf number for a wrong
  answer is worthless).

Both legs report ``wall_edges_per_sec`` over the **delivered** edge
count — the sequential batch's total edges scanned — so the two
throughputs share a numerator and their ratio is precisely the
wall-time ratio.  ``wall_speedup_edges_per_sec`` is that ratio (a
throughput ratio: ``repro.bench compare`` gates it against *falling*).
Deterministic leaves (edge counts, iterations, simulated ms, memo
counters) keep the tight tolerance.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.bench.experiments.exp_perf import CANONICAL_GRAPHS
from repro.bench.runner import BenchContext, ExperimentReport
from repro.bench.workloads import time_queries
from repro.core.config import EtaGraphConfig
from repro.core.multi import pick_sources
from repro.core.session import EngineSession
from repro.utils.tables import render_table


@dataclass(frozen=True)
class MsbfsSettings:
    """Shape of one wave-vs-sequential run."""

    graphs: tuple[str, ...] = CANONICAL_GRAPHS
    #: Distinct BFS sources per graph (= total lanes over all waves).
    sources: int = 64
    #: Lanes per wave; sources chunk into ceil(sources/width) waves.
    wave_width: int = 64
    source_seed: int = 3

    @classmethod
    def quick(cls) -> "MsbfsSettings":
        # CI-sized: the sequential leg dominates the wall cost, so the
        # quick run shrinks the batch, not the wave width.
        return cls(sources=16, wave_width=16)


def measure_graph(name: str, settings: MsbfsSettings,
                  ctx: BenchContext) -> dict:
    """Both legs on one graph; returns the metric dict."""
    from repro.core import msbfs

    csr, _ = ctx.load(name, weighted=False)
    sources = pick_sources(csr, settings.sources, seed=settings.source_seed)
    config = EtaGraphConfig()

    # --- sequential leg ----------------------------------------------
    sequential = time_queries(csr, config, ctx.device, sources)
    seq_results = sequential.results
    wall_sequential_s = sequential.wall_s
    delivered_edges = sum(
        r.stats.total_edges_scanned for r in seq_results
    )
    sequential_simulated_ms = sum(r.total_ms for r in seq_results)

    # --- wave leg -----------------------------------------------------
    with EngineSession(csr, config, ctx.device) as session:
        session.query("bfs", int(sources[0]))  # identical warm-up
        t0 = time.perf_counter()
        waves = [
            msbfs.run_wave(session, chunk)
            for chunk in msbfs.wave_chunks(sources, settings.wave_width)
        ]
        wall_wave_s = max(time.perf_counter() - t0, 1e-9)
        memo_hits = session.memo_hits
        memo_misses = session.memo_misses

    # A perf number for a wrong answer is worthless: every lane must be
    # bit-identical to its sequential counterpart.
    lane = 0
    for wave in waves:
        for i in range(wave.width):
            if wave.labels_for(i).tobytes() != \
                    seq_results[lane].labels.tobytes():
                raise AssertionError(
                    f"{name}: wave lane for source {int(sources[lane])} "
                    "diverged from the sequential query"
                )
            lane += 1

    wave_edges = sum(w.stats.total_edges_scanned for w in waves)
    wave_iterations = sum(w.iterations for w in waves)
    wave_simulated_ms = sum(w.total_ms for w in waves)

    return {
        # Deterministic workload invariants (tight compare tolerance).
        "num_vertices": csr.num_vertices,
        "num_edges": csr.num_edges,
        "queries": len(sources),
        "waves": len(waves),
        "wave_width": settings.wave_width,
        "delivered_edges": delivered_edges,
        "wave_edges_scanned": wave_edges,
        "wave_iterations": wave_iterations,
        "sequential_simulated_ms": sequential_simulated_ms,
        "wave_simulated_ms": wave_simulated_ms,
        "memo_hits": memo_hits,
        "memo_misses": memo_misses,
        # Host wall-clock (generous, direction-aware compare tolerance).
        # Both throughputs count *delivered* edges (the sequential
        # batch's total), so their ratio is the wall-time ratio.
        "wall_sequential_s": wall_sequential_s,
        "wall_wave_s": wall_wave_s,
        "wall_edges_per_sec_sequential": delivered_edges / wall_sequential_s,
        "wall_edges_per_sec": delivered_edges / wall_wave_s,
        "wall_speedup_edges_per_sec": wall_sequential_s / wall_wave_s,
    }


def run_msbfs(
    quick: bool = False, ctx: BenchContext | None = None, *,
    settings: MsbfsSettings | None = None,
) -> ExperimentReport:
    """Measure wave-vs-sequential throughput; returns a saveable report.

    ``data`` maps each graph to its metric dict plus a ``canonical``
    aggregate; the headline is ``canonical.wall_speedup_edges_per_sec``
    — the whole-grid wall-time ratio of the sequential batch to the
    wave batch at equal delivered work.
    """
    ctx = ctx or BenchContext()
    if settings is None:
        settings = MsbfsSettings.quick() if quick else MsbfsSettings()

    data: dict = {}
    total_delivered = 0
    total_seq_wall = 0.0
    total_wave_wall = 0.0
    total_queries = 0
    rows = []
    for name in settings.graphs:
        metrics = measure_graph(name, settings, ctx)
        data[name] = metrics
        total_delivered += metrics["delivered_edges"]
        total_seq_wall += metrics["wall_sequential_s"]
        total_wave_wall += metrics["wall_wave_s"]
        total_queries += metrics["queries"]
        rows.append([
            name,
            metrics["queries"],
            metrics["waves"],
            f"{metrics['delivered_edges'] / 1e6:.2f} M",
            f"{metrics['wall_edges_per_sec_sequential'] / 1e6:.2f} M/s",
            f"{metrics['wall_edges_per_sec'] / 1e6:.2f} M/s",
            f"{metrics['wall_speedup_edges_per_sec']:.1f}x",
        ])

    total_seq_wall = max(total_seq_wall, 1e-9)
    total_wave_wall = max(total_wave_wall, 1e-9)
    data["canonical"] = {
        "queries": total_queries,
        "delivered_edges": total_delivered,
        "wall_sequential_s": total_seq_wall,
        "wall_wave_s": total_wave_wall,
        "wall_edges_per_sec_sequential": total_delivered / total_seq_wall,
        "wall_edges_per_sec": total_delivered / total_wave_wall,
        "wall_speedup_edges_per_sec": total_seq_wall / total_wave_wall,
    }
    data["settings"] = {
        "quick": bool(quick),
        "sources": settings.sources,
        "wave_width": settings.wave_width,
        "source_seed": settings.source_seed,
    }
    rows.append([
        "canonical",
        total_queries,
        "",
        f"{total_delivered / 1e6:.2f} M",
        f"{total_delivered / total_seq_wall / 1e6:.2f} M/s",
        f"{total_delivered / total_wave_wall / 1e6:.2f} M/s",
        f"{total_seq_wall / total_wave_wall:.1f}x",
    ])

    text = render_table(
        ["graph", "queries", "waves", "edges", "sequential", "wave",
         "speedup"],
        rows,
        title=(
            f"MSBFS wave vs sequential batch: {settings.sources} sources, "
            f"{settings.wave_width}-lane waves, equal delivered work"
        ),
    )
    return ExperimentReport(
        experiment="msbfs",
        title="Multi-source wave traversal wall-clock throughput",
        text=text,
        data=data,
    )
