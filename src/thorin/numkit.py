"""Foundational numerics: configurable extended-precision arithmetic and
multi-index iteration shared by the other modules.

Extended precision is a runtime parameter carried by a
:class:`PrecisionContext`.  Only the reference chain behind
``model_coeffs`` and the shifted-moment quadrature use it, at 256 bits by
default, as the oracles the double paths are tested against; every
``thorin`` command runs in native doubles.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence, Tuple

import mpmath

MultiIndex = Tuple[int, ...]

__all__ = [
    "PrecisionContext",
    "COEFF_DEFAULT",
    "MultiIndex",
    "iterate_box",
    "box_shape",
    "box_size",
    "binom_prod",
]


@dataclass(frozen=True)
class PrecisionContext:
    """Significand precision (in bits) of the working real type.

    Arithmetic performed under a context is reproducible given
    ``(bits, round-to-nearest)``; ``bits=53`` reproduces IEEE doubles
    bit for bit on the basic operations.
    """

    bits: int = 53

    def __post_init__(self):
        if self.bits < 53:
            raise ValueError(f"precision must be at least 53 bits, got {self.bits}")

    def workprec(self):
        """mpmath context manager setting this precision."""
        return mpmath.workprec(self.bits)


COEFF_DEFAULT = PrecisionContext(256)


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
