"""Naive vertex-centric baseline (Harish & Narayanan, HiPC'07).

The motivation baseline of Section I: one thread per vertex over the
*entire* vertex set each iteration, no frontier, no degree bounding — so
warps stall on their highest-degree lane (the long-tail problem) and
inactive vertices still burn threads.  Used in examples and ablation
benches to show what UDC + the active set buy.
"""

from __future__ import annotations

from repro.baselines.base import Framework, edge_ranges
from repro.gpu.kernel import simulate_vertex_kernel
from repro.gpu.transfer import h2d_copy


class SimpleVertexCentric(Framework):
    """Thread-per-vertex, full-sweep, lockstep-limited engine."""

    name = "simple-vc"

    def _place(self, ctx):
        csr, mem = ctx.csr, ctx.mem
        arrays = {
            "offsets": mem.alloc("row_offsets", csr.row_offsets),
            "cols": mem.alloc("column_indices", csr.column_indices),
            "weights": (None if csr.edge_weights is None
                        else mem.alloc("edge_weights", csr.edge_weights)),
            "labels": mem.alloc("labels", ctx.problem.initial_labels(
                csr.num_vertices, ctx.source)),
        }
        transfer_ms = sum(h2d_copy(self.device, ctx.prof, arr.nbytes)
                          for arr in arrays.values() if arr is not None)
        return arrays, arrays["labels"].data, transfer_ms

    def _charge(self, ctx, arrays, step):
        # Cost: ALL vertices are launched; inactive ones read their
        # activity state and exit.  Active vertices scan their full
        # (unbounded) degree -> lockstep long tail.
        starts, degs = edge_ranges(ctx.csr, step.active)
        timing = simulate_vertex_kernel(
            self.device, ctx.caches,
            starts=starts,
            degrees=degs,
            adj_array=arrays["cols"],
            neighbor_ids=step.nbr,
            label_array=arrays["labels"],
            weight_array=arrays["weights"],
            meta_array=arrays["offsets"],
            meta_words_per_thread=2,
            updates=step.attempted,
            idle_threads=ctx.csr.num_vertices - len(step.active),
            instr_per_edge=ctx.problem.instr_per_edge,
        )
        ctx.prof.record_kernel(timing.counters)
        return (timing.time_ms,), 0.0
