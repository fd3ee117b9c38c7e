"""Synthetic graph generators.

Two generators carry the evaluation:

* :func:`rmat` — the Recursive-MATrix generator (Chakrabarti et al.), the
  same model PaRMAT implements.  The paper generates RMAT25 with
  ``a=0.45, b=0.22, c=0.22``; we use identical quadrant probabilities.
  RMAT also serves as the surrogate for the skewed social networks
  (LiveJournal, com-Orkut, Slashdot), whose defining property for this
  paper is their power-law out-degree distribution.
* :func:`web_chain` — surrogate for the WebGraph crawls (uk-2005, sk-2005,
  uk-2006).  What matters about those graphs in the evaluation is (i) very
  large BFS depth (uk-2005 needs ~200 iterations, Table IV), (ii) a large
  reachable set but a smaller strongly-connected core (%LCC, Table II),
  and (iii) for uk-2006, a source whose activatable subgraph is a tiny
  pocket (activation 1.15e-4).  ``web_chain`` builds a directed chain of
  communities (the crawl frontier) with one-way "leaf" pages hanging off
  it, reproducing all three properties by construction.

All generators are deterministic given ``seed`` and fully vectorized.
Randomness is always drawn from a function-local
``np.random.default_rng(seed)`` — never from NumPy's module-global RNG —
so two same-seed calls are bit-identical regardless of what any other
code has drawn in between (enforced by regression tests in
``tests/test_graph_generators.py``).
"""

from __future__ import annotations

import numpy as np

from repro.errors import DatasetError
from repro.graph.builder import build_csr_from_edges, remove_self_loops
from repro.graph.csr import CSRGraph, VERTEX_DTYPE


# ----------------------------------------------------------------------
# RMAT
# ----------------------------------------------------------------------

def rmat_edges(
    scale: int,
    num_edges: int,
    a: float = 0.45,
    b: float = 0.22,
    c: float = 0.22,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Generate RMAT edge endpoints over ``2**scale`` vertices.

    Each edge picks one quadrant per bit level with probabilities
    ``(a, b, c, d=1-a-b-c)``; vectorized as ``scale`` rounds of a single
    uniform draw for all edges.
    """
    if not 0 < a + b + c <= 1.0:
        raise DatasetError(f"invalid RMAT probabilities a+b+c={a + b + c}")
    if scale < 1 or scale > 30:
        raise DatasetError(f"RMAT scale must be in [1, 30], got {scale}")
    rng = np.random.default_rng(seed)
    # Ids stay below 2**30, so they are built in int32 in place.
    src = np.zeros(num_edges, dtype=VERTEX_DTYPE)
    dst = np.zeros(num_edges, dtype=VERTEX_DTYPE)
    r = np.empty(num_edges)
    ab = a + b
    abc = a + b + c
    for _ in range(scale):
        rng.random(out=r)
        # Quadrant decoding: bit of src set for quadrants c, d;
        # bit of dst set for quadrants b, d.
        src <<= 1
        src |= r >= ab
        dst <<= 1
        dst |= (r >= a) & (r < ab) | (r >= abc)
    return src, dst


def rmat(
    scale: int,
    num_edges: int,
    a: float = 0.45,
    b: float = 0.22,
    c: float = 0.22,
    seed: int = 0,
    *,
    self_loops: bool = False,
) -> CSRGraph:
    """RMAT graph as CSR (duplicates removed, self-loops optional)."""
    src, dst = rmat_edges(scale, num_edges, a, b, c, seed)
    if not self_loops:
        src, dst, _ = remove_self_loops(src, dst)
    return build_csr_from_edges(src, dst, num_vertices=2**scale)


def social_network(
    num_vertices: int,
    num_edges: int,
    *,
    skew: float = 0.45,
    seed: int = 0,
) -> CSRGraph:
    """Skewed social-network surrogate over an arbitrary vertex count.

    RMAT requires a power-of-two vertex space; this wraps :func:`rmat_edges`
    at the next power of two and folds ids down with a modulo, preserving
    the power-law degree shape while hitting the requested ``|V|`` exactly
    (the scaled Table II vertex counts are not powers of two).
    """
    if num_vertices < 2:
        raise DatasetError("social_network needs at least 2 vertices")
    scale = max(1, int(np.ceil(np.log2(num_vertices))))
    b = c = (1.0 - skew) / 2.5
    src, dst = rmat_edges(scale, num_edges, a=skew, b=b, c=c, seed=seed)
    src = src % num_vertices
    dst = dst % num_vertices
    src, dst, _ = remove_self_loops(src, dst)
    return build_csr_from_edges(src, dst, num_vertices=num_vertices)


# ----------------------------------------------------------------------
# Web-crawl surrogate
# ----------------------------------------------------------------------

def web_chain(
    num_vertices: int,
    num_edges: int,
    *,
    depth: int,
    leaf_fraction: float = 0.3,
    pocket_size: int = 0,
    pocket_depth: int = 4,
    seed: int = 0,
) -> CSRGraph:
    """Directed web-crawl surrogate with controllable BFS depth.

    Structure (all edges directed):

    * ``depth`` *communities* of core pages arranged in a chain; intra-
      community random edges plus forward edges community ``i`` ->
      ``i + 1`` and sparse back edges.  BFS from community 0 therefore
      needs ~``depth`` iterations and the core is strongly connected.
    * a ``leaf_fraction`` of vertices are *leaf pages*: they receive edges
      from core pages but have no out-edges back to the core — reachable
      (they activate) yet outside the strongly-connected core, which is
      how uk-2005 can be 99% activatable with a 65% LCC.
    * optionally a disconnected *pocket* of ``pocket_size`` vertices laid
      out in ``pocket_depth`` BFS levels containing vertex 0; querying
      from vertex 0 then touches only the pocket (the uk-2006 case,
      activation ~1e-4).

    Vertex ids stay in community (crawl) order — see the comment near the
    end for why that locality is load-bearing.
    """
    if depth < 1:
        raise DatasetError(f"depth must be >= 1, got {depth}")
    if pocket_size >= num_vertices:
        raise DatasetError("pocket_size must be smaller than num_vertices")
    if pocket_size and pocket_depth < 1:
        raise DatasetError("pocket_depth must be >= 1")
    rng = np.random.default_rng(seed)

    n_pocket = int(pocket_size)
    n_main = num_vertices - n_pocket
    n_leaf = int(n_main * leaf_fraction)
    n_core = n_main - n_leaf
    if n_core < depth:
        raise DatasetError(
            f"need at least {depth} core vertices, have {n_core} "
            f"({num_vertices} total, leaf_fraction={leaf_fraction})"
        )

    # Budget edges: pocket edges are few; the rest split between core
    # structure and core->leaf edges proportionally to vertex counts.
    e_pocket = min(4 * n_pocket, num_edges // 20) if n_pocket else 0
    e_main = num_edges - e_pocket
    e_leaf = int(e_main * leaf_fraction)
    e_core = e_main - e_leaf

    srcs: list[np.ndarray] = []
    dsts: list[np.ndarray] = []

    # --- core chain ---------------------------------------------------
    comm_of = np.sort(rng.integers(0, depth, size=n_core))
    comm_of[:depth] = np.arange(depth)  # every community non-empty
    comm_of = np.sort(comm_of)
    comm_start = np.searchsorted(comm_of, np.arange(depth + 1))
    comm_sizes = np.diff(comm_start)

    def sample_in_community(comm_ids: np.ndarray) -> np.ndarray:
        """Uniform core vertex within each requested community (vectorized)."""
        offset = (rng.random(len(comm_ids)) * comm_sizes[comm_ids]).astype(
            np.int64)
        offset += comm_start[comm_ids]
        return offset

    # Intra-community edges (60% of core budget), forward chain edges
    # (30%), sparse back edges (10%).
    e_intra = int(e_core * 0.6)
    e_fwd = int(e_core * 0.3)
    e_back = e_core - e_intra - e_fwd

    comm_intra = rng.integers(0, depth, size=e_intra)
    srcs.append(sample_in_community(comm_intra))
    dsts.append(sample_in_community(comm_intra))

    if depth > 1:
        comm_src = rng.integers(0, depth - 1, size=e_fwd)
        srcs.append(sample_in_community(comm_src))
        dsts.append(sample_in_community(comm_src + 1))

        comm_back = rng.integers(1, depth, size=e_back)
        srcs.append(sample_in_community(comm_back))
        dsts.append(sample_in_community(comm_back - 1))
    else:
        comm_extra = rng.integers(0, depth, size=e_fwd + e_back)
        srcs.append(sample_in_community(comm_extra))
        dsts.append(sample_in_community(comm_extra))

    # Deterministic spine so reachability depth is guaranteed: one edge
    # from the first vertex of community i to the first of community i+1.
    if depth > 1:
        spine = comm_start[:-1][:depth]
        srcs.append(spine[:-1].astype(np.int64))
        dsts.append(spine[1:].astype(np.int64))

    # --- leaf pages (reachable, no out-edges) ---------------------------
    if n_leaf:
        leaf_ids = n_core + rng.integers(0, n_leaf, size=e_leaf)
        comm_l = rng.integers(0, depth, size=e_leaf)
        srcs.append(sample_in_community(comm_l))
        dsts.append(leaf_ids.astype(np.int64))
        # Guarantee every leaf has at least one in-edge.
        all_leaves = n_core + np.arange(n_leaf, dtype=np.int64)
        srcs.append(sample_in_community(rng.integers(0, depth, size=n_leaf)))
        dsts.append(all_leaves)

    # --- pocket (disconnected component containing the query source) ---
    if n_pocket:
        base = n_main
        # Pocket vertex i sits at BFS level `level_of[i]`; vertex `base`
        # (level 0) becomes the query source after the permutation below.
        level_of = np.minimum(
            np.arange(n_pocket) * pocket_depth // max(n_pocket, 1),
            pocket_depth - 1,
        )
        level_first = np.searchsorted(level_of, np.arange(pocket_depth))
        # Reachability guarantee: every pocket vertex beyond the source
        # gets an in-edge from the first vertex of the previous level
        # (or of its own level for the remainder of level 0).
        tail = np.arange(1, n_pocket, dtype=np.int64)
        prev_level = np.maximum(level_of[1:] - 1, 0)
        srcs.append(base + level_first[prev_level].astype(np.int64))
        dsts.append(base + tail)
        # Random forward intra-pocket edges: from vertex at level l to any
        # vertex at level <= l + 1 (keeps the BFS depth exactly bounded).
        if e_pocket:
            p_src = rng.integers(0, n_pocket, size=e_pocket)
            hi_level = np.minimum(level_of[p_src] + 1, pocket_depth - 1)
            hi = np.searchsorted(level_of, hi_level, side="right")
            p_dst = (rng.random(e_pocket) * hi).astype(np.int64)
            srcs.append(base + p_src.astype(np.int64))
            dsts.append(base + p_dst)

    src = np.concatenate(srcs)
    dst = np.concatenate(dsts)
    del srcs, dsts  # free the pieces before the build's own copies
    src, dst, _ = remove_self_loops(src, dst)

    # Vertex ids stay in community (crawl) order — WebGraph datasets are
    # crawl-ordered, and that locality is load-bearing: it is what lets
    # the UM driver merge a BFS wavefront's faulting pages into the large
    # contiguous migrations of Table V, and what keeps oversubscribed
    # traversals from thrashing.  For pocket graphs, swap ids 0 and the
    # pocket entry so the query source is always vertex 0.
    if n_pocket:
        swap = np.arange(num_vertices, dtype=np.int64)
        swap[0], swap[n_main] = n_main, 0
        src = swap.take(src)
        dst = swap.take(dst)
    return build_csr_from_edges(src, dst, num_vertices=num_vertices)


# ----------------------------------------------------------------------
# Small deterministic graphs (tests & examples)
# ----------------------------------------------------------------------

def path_graph(n: int) -> CSRGraph:
    """Directed path ``0 -> 1 -> ... -> n-1``."""
    idx = np.arange(n - 1, dtype=VERTEX_DTYPE)
    return build_csr_from_edges(idx, idx + 1, num_vertices=n)


def cycle_graph(n: int) -> CSRGraph:
    """Directed cycle over ``n`` vertices."""
    idx = np.arange(n, dtype=VERTEX_DTYPE)
    return build_csr_from_edges(idx, (idx + 1) % n, num_vertices=n)


def star_graph(n_leaves: int, *, out: bool = True) -> CSRGraph:
    """Hub vertex 0 with ``n_leaves`` leaves (max-skew degree distribution)."""
    hub = np.zeros(n_leaves, dtype=VERTEX_DTYPE)
    leaves = np.arange(1, n_leaves + 1, dtype=VERTEX_DTYPE)
    if out:
        return build_csr_from_edges(hub, leaves, num_vertices=n_leaves + 1)
    return build_csr_from_edges(leaves, hub, num_vertices=n_leaves + 1)


def complete_graph(n: int) -> CSRGraph:
    """All ordered pairs (no self loops)."""
    src = np.repeat(np.arange(n, dtype=VERTEX_DTYPE), n)
    dst = np.tile(np.arange(n, dtype=VERTEX_DTYPE), n)
    src, dst, _ = remove_self_loops(src, dst)
    return build_csr_from_edges(src, dst, num_vertices=n)


def grid_graph(rows: int, cols: int) -> CSRGraph:
    """2-D grid with right/down directed edges (high-diameter regular graph)."""
    ids = np.arange(rows * cols, dtype=VERTEX_DTYPE).reshape(rows, cols)
    srcs = [ids[:, :-1].ravel(), ids[:-1, :].ravel()]
    dsts = [ids[:, 1:].ravel(), ids[1:, :].ravel()]
    return build_csr_from_edges(
        np.concatenate(srcs), np.concatenate(dsts), num_vertices=rows * cols
    )


def erdos_renyi(n: int, num_edges: int, seed: int = 0) -> CSRGraph:
    """Uniform random directed graph with ``num_edges`` attempted edges."""
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, size=num_edges, dtype=np.int64)
    dst = rng.integers(0, n, size=num_edges, dtype=np.int64)
    src, dst, _ = remove_self_loops(src, dst)
    return build_csr_from_edges(src, dst, num_vertices=n)
