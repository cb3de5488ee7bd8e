from __future__ import annotations

import numpy as np
import pytest

from gramdelta.numerics import csum


@pytest.mark.parametrize("width", [0, 1, 4096, 4097, 10_000])
def test_rows_sum_as_one_dimensional_calls(width):
    # fsum up to 4096 terms, 4096-term chunks beyond; a transposed (strided)
    # array gives the sums of its rows too
    rng = np.random.default_rng(width)
    arr = rng.standard_normal((5, width)) * np.logspace(-8, 8, 5)[:, None]
    for rows in (arr, np.ascontiguousarray(arr.T).T):
        sums = csum(rows)
        assert sums.shape == (5,)
        assert [x.hex() for x in sums.tolist()] == [csum(r).hex() for r in rows]
    assert csum(np.empty((0, width))).shape == (0,)
    assert type(csum(arr[0])) is float
