"""Foundational numerics: multi-index iteration shared by the other
modules.

Every ``thorin`` command runs in native doubles; extended precision lives
in :mod:`thorin.oracle`, which ``import thorin`` does not load.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, Sequence, Tuple

MultiIndex = Tuple[int, ...]

__all__ = [
    "MultiIndex",
    "iterate_box",
    "box_shape",
    "box_size",
    "binom_prod",
]


def _validate_index(k: Sequence[int]) -> MultiIndex:
    k = tuple(int(v) for v in k)
    if any(v < 0 for v in k):
        raise ValueError(f"multi-index must be componentwise >= 0, got {k}")
    return k


def iterate_box(m: Sequence[int]) -> Iterator[MultiIndex]:
    """Yield every multi-index ``k <= m`` exactly once, in lexicographic
    order.

    Every ``k`` appears after all ``k' < k`` (componentwise), so values
    computed along the iteration may depend on previously visited
    indices.
    """
    return itertools.product(*(range(mi + 1) for mi in _validate_index(m)))


def box_shape(m: Sequence[int]) -> Tuple[int, ...]:
    return tuple(mi + 1 for mi in _validate_index(m))


def box_size(m: Sequence[int]) -> int:
    return math.prod(box_shape(m))


def binom_prod(x: Sequence[int], y: Sequence[int]) -> int:
    """Product of componentwise binomial coefficients ``prod C(x_i, y_i)``.

    Zero whenever some ``y_i > x_i``.
    """
    if len(x) != len(y):
        raise ValueError("multi-indices must have the same length")
    return math.prod(map(math.comb, x, y))


def _from_oracle(module: str, *names: str):
    """A module ``__getattr__`` (PEP 562) serving ``names`` from :mod:`thorin.oracle`,
    for ``benchmarks/``, which still looks them up where they used to live."""

    def __getattr__(name):
        if name not in names:
            raise AttributeError(f"module {module!r} has no attribute {name!r}")
        from . import oracle

        return getattr(oracle, name)

    return __getattr__


__getattr__ = _from_oracle(__name__, "PrecisionContext")
