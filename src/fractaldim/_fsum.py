"""Correctly rounded sums over multisets of floats."""

from __future__ import annotations

import math


def copies(x: float, k: int) -> list[float]:
    """k copies of x as the exact pieces x * 2**b over the set bits b of k.

    math.fsum returns the correctly rounded exact sum of its terms, so in any
    fsum these pieces give the same float as k separate copies of x, from
    O(log k) terms.  Each piece is exact as long as k*x stays below the float
    range limit.
    """
    return [math.ldexp(x, b) for b in range(k.bit_length()) if k >> b & 1]
