"""Fast exact replacements for the simulator's sorting hot spots.

* ``np.unique`` on int64 keys (the packed ``(group, sector)`` dedup of
  :func:`repro.gpu.coalescing.coalesce`): the hash-based implementation
  in recent numpy is an order of magnitude slower than an explicit
  sort + run-length mask on these workloads;
* ``np.argsort(kind="stable")`` on int64 keys (the order in which the
  reuse-window caches walk a raw sector stream,
  :func:`repro.gpu.cache.sort_stream`): a plain quicksort over
  ``(key << b) | i`` packed values yields the identical stable
  permutation several times faster, because the tie-break is baked into
  the sort key.

Both helpers are *exact*: they return bit-identical results to the numpy
expressions they replace, for any int64 input within the documented
range, falling back to the numpy expression when packing would overflow.

Trace plans need neither on their dense path: they dedup per coalescing
group with a row sort (:func:`repro.gpu.coalescing.coalesce_rows`) and
order each sort unit with one narrow packed sort
(:func:`repro.gpu.cache.sort_segments`).
"""

from __future__ import annotations

import numpy as np


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """Exactly ``np.unique(values)`` for integer arrays, via sort+mask."""
    values = np.asarray(values)
    if len(values) == 0:
        return values[:0].copy()
    ordered = np.sort(values)
    keep = np.empty(len(ordered), dtype=bool)
    keep[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


def stable_argsort(keys: np.ndarray) -> np.ndarray:
    """Exactly ``np.argsort(keys, kind="stable")`` for non-negative
    int64 keys, via one quicksort over packed ``(key, index)`` values.

    Packing needs ``key < 2**(63 - ceil(log2(n)))``; wider keys fall
    back to numpy's stable argsort.
    """
    keys = np.asarray(keys, dtype=np.int64)
    n = len(keys)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    index_bits = int(n - 1).bit_length() or 1
    max_key = int(keys.max())
    if keys.min() < 0 or max_key >> (63 - index_bits):
        return np.argsort(keys, kind="stable")
    packed = (keys << index_bits) | np.arange(n, dtype=np.int64)
    packed.sort()
    return packed & ((1 << index_bits) - 1)
