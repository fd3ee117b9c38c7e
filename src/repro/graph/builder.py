"""Vectorized CSR construction from raw edge arrays.

Building CSR is the only "pre-processing" EtaGraph performs (the paper's
point is that UDC needs *no* further transformation beyond the CSR every
framework loads anyway), so this path is shared by every framework in the
repo and kept fully vectorized.  Its cost is one sort: each edge becomes
one int64 key ``(src << bits(n - 1)) | dst``, whose order is the
``(src, dst)`` order CSR needs.  An unweighted graph sorts the keys in
place and unpacks the columns and row offsets from them; a weighted one
takes the keys' stable argsort to carry its weights along.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.csr import CSRGraph, OFFSET_DTYPE, VERTEX_DTYPE, WEIGHT_DTYPE
from repro.utils.sorting import stable_argsort
from repro.utils.validation import ensure_array

#: Vertex ids are int32, so a graph has at most this many vertices.
_MAX_VERTICES = int(np.iinfo(VERTEX_DTYPE).max) + 1


def build_csr_from_edges(
    src: np.ndarray,
    dst: np.ndarray,
    num_vertices: int | None = None,
    weights: np.ndarray | None = None,
    *,
    dedup: bool = True,
) -> CSRGraph:
    """Build a :class:`CSRGraph` from parallel ``src``/``dst`` arrays.

    Parameters
    ----------
    src, dst:
        Edge endpoints; any integer dtype.  Every id must lie in
        ``[0, num_vertices)``, and the columns are stored as int32.
    num_vertices:
        Total vertex count.  Defaults to ``max(src, dst) + 1``.
    weights:
        Optional per-edge float weights, permuted along with the edges.
    dedup:
        Drop duplicate ``(src, dst)`` pairs, keeping the first occurrence
        (the paper assumes graphs without duplicate edges for UDC's
        correctness argument — Section III-B).
    """
    src = np.asarray(src)
    dst = np.asarray(dst)
    if src.ndim != 1 or dst.ndim != 1 or len(src) != len(dst):
        raise GraphFormatError(
            f"src and dst must be 1-D and of one length, got shapes "
            f"{src.shape} and {dst.shape}"
        )
    if weights is not None:
        weights = ensure_array("weights", weights, WEIGHT_DTYPE)
        if len(weights) != len(src):
            raise GraphFormatError(
                f"weights length {len(weights)} != edge count {len(src)}"
            )

    # Check the ids as given, before a cast could wrap them: the packed
    # key below relies on every id lying in [0, num_vertices).
    if len(src) and (src.min() < 0 or dst.min() < 0):
        raise GraphFormatError("negative vertex ids are not allowed")
    top = max(int(src.max()), int(dst.max())) if len(src) else -1
    num_vertices = top + 1 if num_vertices is None else int(num_vertices)
    if top >= num_vertices:
        raise GraphFormatError(
            f"edge endpoint {top} exceeds num_vertices={num_vertices}"
        )
    if not 0 <= num_vertices <= _MAX_VERTICES:
        raise GraphFormatError(
            f"num_vertices={num_vertices} is outside the int32 vertex "
            f"range [0, {_MAX_VERTICES}]"
        )

    # One int64 key per edge orders edges by (src, dst), so each
    # adjacency list is contiguous and ascending.  Equal keys are equal
    # edges: an unweighted sort need not be stable, while a weighted one
    # must be, so that dedup keeps the first occurrence's weight.
    shift = max(num_vertices - 1, 0).bit_length()
    keys = src.astype(np.int64)
    keys <<= shift
    keys |= dst.astype(np.int64, copy=False)
    if weights is None:
        keys.sort()
    else:
        order = stable_argsort(keys)
        keys = keys[order]
        weights = weights[order]

    if dedup and len(keys) > 1:
        keep = np.empty(len(keys), dtype=bool)
        keep[0] = True
        np.not_equal(keys[1:], keys[:-1], out=keep[1:])
        if not keep.all():
            keys = keys[keep]
            if weights is not None:
                weights = weights[keep]

    if len(keys) > np.iinfo(OFFSET_DTYPE).max:
        raise GraphFormatError(
            f"edge count {len(keys)} exceeds int32 offset range"
        )
    # Row v's edges are the keys in [v << shift, (v + 1) << shift).
    row_starts = np.arange(num_vertices + 1, dtype=np.int64) << shift
    row_offsets = np.searchsorted(keys, row_starts).astype(OFFSET_DTYPE)
    columns = (keys & ((1 << shift) - 1)).astype(VERTEX_DTYPE)
    return CSRGraph(row_offsets, columns, weights, validate=False)


def remove_self_loops(
    src: np.ndarray, dst: np.ndarray, weights: np.ndarray | None = None
):
    """Filter out ``src == dst`` edges from parallel edge arrays."""
    src = np.asarray(src)
    dst = np.asarray(dst)
    keep = src != dst
    if weights is not None:
        return src[keep], dst[keep], np.asarray(weights)[keep]
    return src[keep], dst[keep], None


def symmetrize(src: np.ndarray, dst: np.ndarray):
    """Return edge arrays containing both directions of every edge."""
    src = np.asarray(src)
    dst = np.asarray(dst)
    return np.concatenate([src, dst]), np.concatenate([dst, src])
