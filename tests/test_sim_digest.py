"""Tests for the fixed-op digest of simulated outputs
(``python -m repro.testing digest``)."""

import json

import numpy as np

from repro.testing import digest


class TestCanonical:
    def test_float_bits_matter(self):
        x = 0.1
        assert digest._canonical(x) != digest._canonical(
            np.nextafter(x, 1.0))

    def test_arrays_keep_dtype_and_shape(self):
        a = np.arange(6, dtype=np.int32)
        assert digest._canonical(a) != digest._canonical(a.astype(np.int64))
        assert digest._canonical(a) != digest._canonical(a.reshape(2, 3))


def test_ops_match_golden():
    """Every op's hash equals the committed golden; a changed or
    missing op is named."""
    golden = json.loads(digest.GOLDEN.read_text())
    hashes = digest.run_ops()
    assert digest.changed_ops(hashes, golden) == []
    first, last = list(hashes)[0], list(hashes)[-1]
    hashes[first] = "0" * 64
    del hashes[last]
    assert digest.changed_ops(hashes, golden) == sorted([first, last])
