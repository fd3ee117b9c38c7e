"""CuSha baseline: G-Shards edge-centric processing (HPDC'14).

Execution model reproduced here:

* Graph is stored as G-Shards: per destination-window shards of
  ``(src, dst, src_value, edge_value)`` entries sorted by source — about
  four words per edge plus in/out vertex-value arrays, all ``cudaMalloc``'d
  (this is why CuSha is the first framework to hit O.O.M in Table III).
* Every iteration processes **all** shard entries (CuSha has no frontier):
  one thread block per shard streams its entries — fully coalesced reads,
  windowed shared-memory accumulation, coalesced write-back of the window,
  then a streaming refresh of the shard ``src_value`` slots through the
  Concatenated-Windows mapping.
* Cost per iteration is therefore ~|E| streamed words regardless of how
  few vertices are active — great on small-diameter graphs, increasingly
  wasteful as iteration counts grow.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import Framework, FrameworkResult
from repro.errors import ConfigError
from repro.gpu.kernel import simulate_streaming_kernel
from repro.gpu.transfer import h2d_copy
from repro.graph.csr import CSRGraph
from repro.graph.gshard import GShards


#: CuSha's processing methods (Section VI-B: the paper runs all three and
#: reports the best).
METHODS = ("gs", "cw", "vwc")


class CuShaFramework(Framework):
    """Edge-centric G-Shards / Concatenated-Windows / VWC engine.

    ``method``:

    * ``"gs"`` — plain G-Shards: stream every shard entry each pass and
      refresh every src_value slot.
    * ``"cw"`` — Concatenated Windows: windows are concatenated so the
      value-refresh pass only rewrites slots of vertices that changed,
      trading an extra index array for less write-back traffic.
    * ``"vwc"`` — Virtual Warp-Centric: CuSha's re-implementation of the
      virtual-warp CSR kernel it compares against; vertex-centric over
      all vertices with sub-warp work division (less lockstep waste than
      a plain thread-per-vertex kernel, no shard streaming).  It keeps
      CuSha's per-edge value staging, so its footprint matches the shard
      methods.
    * ``"best"`` — run all three, report the fastest (the paper's setup).
    """

    name = "cusha"

    #: Instructions per shard entry (load 4 fields, compare, accumulate).
    INSTR_PER_EDGE = 14.0

    edge_centric = True

    def __init__(self, device=None, method: str = "gs"):
        super().__init__(device)
        if method not in METHODS + ("best",):
            raise ConfigError(
                f"unknown CuSha method {method!r}; known: {METHODS + ('best',)}"
            )
        self.method = method

    def run(self, csr: CSRGraph, problem, source: int) -> FrameworkResult:
        if self.method == "best":
            results = [CuShaFramework(self.device, m).run(csr, problem, source)
                       for m in METHODS]
            best = min(results, key=lambda r: r.total_ms)
            best.extras["method"] = best.extras["method"] + " (best of 3)"
            return best
        return super().run(csr, problem, source)

    def _place(self, ctx):
        csr, mem = ctx.csr, ctx.mem
        shards = GShards.from_csr(csr)
        # Allocate CuSha's actual device structures; OOM emerges here.
        # All three methods stage per-edge values, so the footprint is
        # common (which is why the paper's O.O.M cells cover the whole
        # framework, not one method).
        device_arrays = [
            mem.alloc(name, arr) for name, arr in shards.device_arrays().items()
        ]
        if self.method == "cw":
            mem.alloc_empty("cw_index", max(shards.num_edges, 1), np.int32)
        labels_host = ctx.problem.initial_labels(csr.num_vertices, ctx.source)
        labels_arr = mem.alloc("vertex_values_in", labels_host)
        mem.alloc_empty("vertex_values_out", max(csr.num_vertices, 1),
                        labels_host.dtype)

        # Upfront H2D of shards + initial values.
        transfer_ms = sum(h2d_copy(self.device, ctx.prof, arr.nbytes)
                          for arr in device_arrays + [labels_arr])
        ctx.extras.update(num_shards=shards.num_shards, method=self.method)
        return {"shards": shards}, labels_arr.data, transfer_ms

    def _charge(self, ctx, arrays, step):
        """One full-graph pass under the selected processing method.

        The frontier holds the vertices the previous pass changed (all
        of them on the first pass): ``cw`` refreshes only their slots.
        """
        csr, edges = ctx.csr, arrays["shards"].num_edges
        n = csr.num_vertices
        entry_words = 4 if csr.edge_weights is None else 5
        scatter = None
        if self.method == "vwc":
            # Virtual warp-centric: read CSR + staged values, sub-warp
            # division halves (not eliminates) lockstep waste; scattered
            # value gathers instead of streaming.
            read_bytes, write_bytes = edges * 2 * 4 + n * 8, n * 4
            instr = self.INSTR_PER_EDGE + 6.0
            scatter = csr.column_indices[
                :: max(1, csr.num_edges // 100_000)].astype(np.int64)
        elif self.method == "cw":
            # Concatenated windows: refresh only changed vertices' slots.
            refresh_frac = min(1.0, len(step.active) / max(n, 1))
            read_bytes = edges * entry_words * 4 + n * 4
            write_bytes = edges * 4 * refresh_frac + n * 4
            instr = self.INSTR_PER_EDGE + 1.0
        else:
            # Plain G-Shards.
            read_bytes = edges * entry_words * 4 + n * 4
            write_bytes = edges * 4 + n * 4
            instr = self.INSTR_PER_EDGE
        timing = simulate_streaming_kernel(
            self.device, ctx.caches,
            read_bytes=read_bytes,
            write_bytes=write_bytes,
            n_threads=max(edges, 1),
            instr_per_thread=instr,
            scatter_indices=scatter,
        )
        ctx.prof.record_kernel(timing.counters)
        return (timing.time_ms,), 0.0
