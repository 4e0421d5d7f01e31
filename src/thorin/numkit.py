"""Foundational numerics: configurable extended-precision arithmetic and
multi-index iteration shared by the other modules.

Extended precision is a runtime parameter carried by a
:class:`PrecisionContext`.  Only the reference coefficient chain
(``model_coeffs``, ``thorin coeffs --bits``) and the projection moments
use it, at 256 bits by default; fits, their reports and Monte-Carlo
paths run in native doubles.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence, Tuple

import mpmath
from mpmath import mpf

MultiIndex = Tuple[int, ...]

__all__ = [
    "PrecisionContext",
    "DOUBLE",
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

    def mpf(self, x) -> mpf:
        """Convert ``x`` to an mpmath float at this precision."""
        with mpmath.workprec(self.bits):
            return mpf(x)

    @property
    def eps(self) -> mpf:
        return mpf(2) ** (1 - self.bits)

    @property
    def digits(self) -> int:
        """Approximate decimal digits carried by this precision."""
        return int(self.bits * 0.3010299956639812)


DOUBLE = PrecisionContext(53)
COEFF_DEFAULT = PrecisionContext(256)


def _validate_index(k: Sequence[int]) -> MultiIndex:
    k = tuple(int(v) for v in k)
    if any(v < 0 for v in k):
        raise ValueError(f"multi-index must be componentwise >= 0, got {k}")
    return k


@lru_cache(maxsize=256)
def _box_cache(m: MultiIndex) -> Tuple[MultiIndex, ...]:
    ranges = [range(mi + 1) for mi in m]
    idx = list(itertools.product(*ranges))
    # graded colexicographic: primary |k|, colex tie break.  Any graded
    # order extends the componentwise partial order, which the moment
    # recursion requires.
    idx.sort(key=lambda k: (sum(k), tuple(reversed(k))))
    return tuple(idx)


def iterate_box(m: Sequence[int]) -> Iterator[MultiIndex]:
    """Yield every multi-index ``k <= m`` exactly once, in graded
    colexicographic order.

    Every ``k`` appears after all ``k' < k`` (componentwise), so values
    computed along the iteration may depend on previously visited
    indices.
    """
    return iter(_box_cache(_validate_index(m)))


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
    out = 1
    for a, b in zip(x, y):
        if b > a:
            return 0
        out *= math.comb(a, b)
    return out
