#!/usr/bin/env python
"""Beyond the paper's three algorithms: CC and delta-PageRank.

The framework generalizes past BFS/SSSP/SSWP:

* **connected components** — the all-active member of the traversal
  family (every vertex starts in the frontier);
* **delta PageRank** — Section II-C's contrast case ("PageRank-like
  algorithms update all vertices every iteration") turned into an
  active-set algorithm via residual pushing, run through the same
  iteration pipeline as a traversal query.

Run: ``python examples/analytics_extensions.py``
"""

import numpy as np

from repro.algorithms.cc import weakly_connected_components
from repro.core.pagerank import delta_pagerank
from repro.graph import generators
from repro.utils.units import format_ms


def main() -> None:
    graph = generators.social_network(20_000, 300_000, seed=9)
    print(f"graph: {graph}\n")

    # --- connected components -----------------------------------------
    comp = weakly_connected_components(graph)
    sizes = np.bincount(comp)
    sizes = sizes[sizes > 0]
    print(f"components: {len(sizes)} total, largest covers "
          f"{100 * sizes.max() / graph.num_vertices:.1f}% of vertices")

    # --- delta PageRank -------------------------------------------------
    pr = delta_pagerank(graph, tolerance=1e-6)
    top = pr.top_vertices(5)
    print(f"\npagerank: {pr.iterations} rounds, "
          f"{format_ms(pr.total_ms)} simulated")
    print(f"  top vertices: {top.tolist()}")
    print(f"  active-set decay: {pr.active_history[:6]} ...")


if __name__ == "__main__":
    main()
