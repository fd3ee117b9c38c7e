"""Gunrock baseline: frontier advance + filter (PPoPP'16).

Execution model reproduced here:

* Data-centric frontier abstraction: each iteration runs an **advance**
  kernel (expand the vertex frontier along out-edges, merge-based load
  balancing across per-thread / per-warp / per-CTA strategies) and a
  **filter** kernel (compact the generated edge frontier into the next
  vertex frontier) — two launches plus a scan per iteration, which is the
  per-iteration overhead EtaGraph's single fused kernel avoids.
* Load balancing is good (``balanced_issue``), but neighbor gathers stay
  uncoalesced and there is no shared-memory prefetch.
* Problem data allocates CSR plus per-edge values plus two frontier
  queues sized at a fraction of |E| (Gunrock's queue-sizing factor) —
  the footprint that drives its O.O.M on sk-2005/uk-2006 in Table III.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import Framework, edge_ranges
from repro.errors import ConfigError
from repro.gpu.kernel import simulate_streaming_kernel, simulate_vertex_kernel
from repro.gpu.transfer import h2d_copy
from repro.graph.csr import VERTEX_DTYPE


#: Gunrock's workload-mapping strategies for the advance kernel
#: (Section VII-B: per-thread fine-grained, per-warp and per-CTA
#: coarse-grained; the enactor picks dynamically by frontier shape).
MAPPINGS = ("thread", "warp", "cta", "dynamic")


class GunrockFramework(Framework):
    """Frontier-based advance/filter engine."""

    name = "gunrock"

    #: Gunrock sizes its ping-pong frontier queues as a fraction of |E|
    #: (the enactor's queue-sizing factor).  0.33 reproduces the paper's
    #: Table III footprint boundary: SSSP fits RMAT25/uk-2005, everything
    #: dies at sk-2005.
    QUEUE_SIZING = 0.33

    #: Frontier max-degree above which the dynamic policy switches from
    #: per-thread to the coarse-grained (balanced) mappings.
    DYNAMIC_DEGREE_THRESHOLD = 128

    def __init__(self, device=None, mapping: str = "dynamic"):
        super().__init__(device)
        if mapping not in MAPPINGS:
            raise ConfigError(
                f"unknown Gunrock mapping {mapping!r}; known: {MAPPINGS}"
            )
        self.mapping = mapping

    def _advance_params(self, max_degree: int) -> tuple[bool, float]:
        """(balanced_issue, extra instructions/edge) for the advance kernel.

        Per-thread mapping is cheap but lockstep-bound; warp/CTA mappings
        balance via cooperative expansion at a per-edge bookkeeping cost.
        """
        mapping = self.mapping
        if mapping == "dynamic":
            mapping = ("cta" if max_degree > self.DYNAMIC_DEGREE_THRESHOLD
                       else "thread")
        if mapping == "thread":
            return False, 0.5
        if mapping == "warp":
            return True, 2.0
        return True, 3.0  # cta: scan + binary search per edge

    def _place(self, ctx):
        csr, mem = ctx.csr, ctx.mem
        # Problem + enactor allocations (cudaMalloc; OOM emerges here).
        arrays = {
            "offsets": mem.alloc("row_offsets", csr.row_offsets),
            "cols": mem.alloc("column_indices", csr.column_indices),
            "weights": (None if csr.edge_weights is None
                        else mem.alloc("edge_weights", csr.edge_weights)),
        }
        queue_len = max(int(self.QUEUE_SIZING * csr.num_edges), csr.num_vertices)
        mem.alloc_empty("frontier_queue_a", queue_len, VERTEX_DTYPE)
        mem.alloc_empty("frontier_queue_b", queue_len, VERTEX_DTYPE)
        arrays["labels"] = mem.alloc("labels", ctx.problem.initial_labels(
            csr.num_vertices, ctx.source))
        mem.alloc_empty("preds", max(csr.num_vertices, 1), VERTEX_DTYPE)
        mem.alloc_empty("visited_flags", max(csr.num_vertices, 1), np.uint8)

        transfer_ms = sum(h2d_copy(self.device, ctx.prof, arr.nbytes)
                          for arr in arrays.values() if arr is not None)
        return arrays, arrays["labels"].data, transfer_ms

    def _charge(self, ctx, arrays, step):
        launches = []
        if step.edges:
            # Advance under the selected workload mapping, no SMP.
            starts, degs = edge_ranges(ctx.csr, step.active)
            balanced, lb_cost = self._advance_params(int(degs.max()))
            advance = simulate_vertex_kernel(
                self.device, ctx.caches,
                starts=starts,
                degrees=degs,
                adj_array=arrays["cols"],
                neighbor_ids=step.nbr,
                label_array=arrays["labels"],
                weight_array=arrays["weights"],
                meta_array=arrays["offsets"],
                meta_words_per_thread=2,  # row_offsets[v], row_offsets[v+1]
                balanced_issue=balanced,
                updates=step.attempted,
                instr_per_edge=ctx.problem.instr_per_edge + lb_cost,
            )
            ctx.prof.record_kernel(advance.counters)
            launches.append(advance.time_ms)

        # Filter: stream the generated edge frontier, scan + compact
        # into the next vertex frontier.
        filter_k = simulate_streaming_kernel(
            self.device, ctx.caches,
            read_bytes=max(step.edges, 1) * 4,
            write_bytes=len(step.changed) * 4,
            n_threads=max(step.edges, 1),
            instr_per_thread=10.0,
        )
        ctx.prof.record_kernel(filter_k.counters)
        launches.append(filter_k.time_ms)
        return launches, 0.0
