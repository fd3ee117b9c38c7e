"""Tigr baseline: preprocessed Virtual Split Transformation (ASPLOS'18).

Execution model reproduced here:

* **Out-of-core preprocessing**: the graph is rewritten at load time into
  the VST layout (``|E| + 2|N| + 2|V|`` words, Table I) — the extra
  arrays are transferred to the device along with the adjacency, which is
  both the space and the transfer-time overhead UDC avoids.
* **Vertex-parallel kernel over all virtual nodes**: every iteration
  launches one thread per virtual node; threads whose owner is inactive
  check a flag and exit (the ``idle_threads`` cost), active ones scan
  their <= K_t edges.  Degrees are bounded, so warps are balanced — but
  there is no frontier compaction, so launch width never shrinks, which
  is what the paper's uk-2005 case (200 iterations) punishes.
* No shared-memory prefetch.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import Framework
from repro.gpu.kernel import simulate_vertex_kernel
from repro.gpu.transfer import h2d_copy
from repro.graph.vst import VirtualSplitGraph
from repro.utils.ragged import ragged_arange


class TigrFramework(Framework):
    """Virtual-split vertex-centric engine."""

    name = "tigr"

    #: Tigr's virtual-node degree bound (the paper's Table I uses K=10
    #: for the |N| accounting; we keep the same value).
    DEGREE_BOUND = 10

    def _place(self, ctx):
        csr, mem = ctx.csr, ctx.mem
        vst = VirtualSplitGraph(csr, self.DEGREE_BOUND)
        device_arrays = {
            name: mem.alloc(name, arr)
            for name, arr in vst.device_arrays().items()
        }
        labels_arr = mem.alloc("labels", ctx.problem.initial_labels(
            csr.num_vertices, ctx.source))
        active_flags_arr = mem.alloc_full(
            "active_flags", max(csr.num_vertices, 1), 0, np.uint8
        )
        transfer_ms = sum(
            h2d_copy(self.device, ctx.prof, arr.nbytes)
            for arr in [*device_arrays.values(), labels_arr, active_flags_arr]
        )
        ctx.extras["num_virtual"] = vst.num_virtual
        v_starts = vst.virtual_start.astype(np.int64)
        arrays = {
            "cols": device_arrays["vst_column_indices"],
            "weights": device_arrays.get("vst_edge_weights"),
            "meta": device_arrays["vst_virtual_start"],
            "labels": labels_arr,
            "num_virtual": vst.num_virtual,
            "v_starts": v_starts,
            "v_degrees": vst.virtual_ends().astype(np.int64) - v_starts,
            "first_virtual": vst.real_first_virtual.astype(np.int64),
            "virtual_counts": vst.real_virtual_count.astype(np.int64),
        }
        return arrays, labels_arr.data, transfer_ms

    def _charge(self, ctx, arrays, step):
        # Virtual nodes of the active owners.
        counts = arrays["virtual_counts"][step.active]
        act_virtual = np.repeat(arrays["first_virtual"][step.active],
                                counts) + ragged_arange(counts)
        if not len(act_virtual):
            return (), 0.0
        timing = simulate_vertex_kernel(
            self.device, ctx.caches,
            starts=arrays["v_starts"][act_virtual],
            degrees=arrays["v_degrees"][act_virtual],
            adj_array=arrays["cols"],
            neighbor_ids=step.nbr,
            label_array=arrays["labels"],
            weight_array=arrays["weights"],
            meta_array=arrays["meta"],
            meta_words_per_thread=2,  # start + owner
            updates=step.attempted,
            idle_threads=arrays["num_virtual"] - len(act_virtual),
            instr_per_edge=ctx.problem.instr_per_edge,
        )
        ctx.prof.record_kernel(timing.counters)
        return (timing.time_ms,), 0.0
