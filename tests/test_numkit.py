import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thorin.numkit import (
    binom_prod,
    box_size,
    iterate_box,
)
from thorin.oracle import PrecisionContext


class TestIterateBox:
    def test_univariate_total_order(self):
        assert list(iterate_box((2,))) == [(0,), (1,), (2,)]

    def test_bivariate_endpoints(self):
        seq = list(iterate_box((1, 1)))
        assert set(seq) == {(0, 0), (1, 0), (0, 1), (1, 1)}
        assert seq[0] == (0, 0)
        assert seq[-1] == (1, 1)

    def test_cube_cardinality(self):
        seq = list(iterate_box((1, 1, 1)))
        assert len(seq) == 8
        assert seq[0] == (0, 0, 0) and seq[-1] == (1, 1, 1)

    @pytest.mark.parametrize("m", [(12,), (3, 3), (2, 2, 2), (1, 1, 1, 1), (4, 2, 1)])
    def test_partial_order_extension(self, m):
        seq = list(iterate_box(m))
        assert len(seq) == box_size(m)
        assert len(set(seq)) == len(seq)
        pos = {k: i for i, k in enumerate(seq)}
        for k in seq:
            for kp in seq:
                if kp != k and all(a <= b for a, b in zip(kp, k)):
                    assert pos[kp] < pos[k]

    @given(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=3))
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_every_box_covered(self, m):
        seq = list(iterate_box(tuple(m)))
        assert len(seq) == box_size(m)
        for k in seq:
            assert all(0 <= a <= b for a, b in zip(k, m))

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            list(iterate_box((-1, 2)))


class TestBinomProd:
    def test_values(self):
        assert binom_prod((3, 2), (1, 1)) == 6
        assert binom_prod((2, 2), (0, 0)) == 1
        assert binom_prod((1, 1), (2, 0)) == 0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            binom_prod((1, 2), (1,))

    @given(
        st.lists(st.integers(0, 8), min_size=1, max_size=4),
        st.lists(st.integers(0, 8), min_size=1, max_size=4),
    )
    @settings(max_examples=50, deadline=None, derandomize=True)
    def test_matches_componentwise_comb(self, x, y):
        n = min(len(x), len(y))
        x, y = x[:n], y[:n]
        expected = 1
        for a, b in zip(x, y):
            expected *= math.comb(a, b) if b <= a else 0
        assert binom_prod(x, y) == expected


class TestPrecisionContext:
    def test_validation(self):
        with pytest.raises(ValueError):
            PrecisionContext(32)

    def test_double_context_matches_native(self):
        rng = np.random.default_rng(3)
        a = rng.uniform(-1e6, 1e6, 200)
        b = rng.uniform(-1e6, 1e6, 200)
        b[np.abs(b) < 1e-3] = 1.0
        with PrecisionContext(53).workprec():
            for x, y in zip(a, b):
                mx, my = mpmath.mpf(x), mpmath.mpf(y)
                assert float(mx + my) == x + y
                assert float(mx - my) == x - y
                assert float(mx * my) == x * y
                assert float(mx / my) == x / y
