"""Reference copies of the stream product and `rzl.number.inverse` as they
stood before the exact-window kernel: every coefficient is one
`convolution_sum` call over the operands' `__getitem__`.  The differential
property in test_properties.py compares the library against them, value,
type and operand reads alike.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from rzl.number import (
    DEFAULT_DEPTH,
    RzlNumber,
    convolution_sum,
    leading_index,
    recurrence,
)
from rzl.scalar import PRECISION_BUDGET, is_rational_scalar
from rzl.verdict import UndecidedError


def product(x: RzlNumber, y: RzlNumber) -> RzlNumber:
    """x * y, one convolution_sum per coefficient."""
    fs = None
    if x.finite_support is not None and y.finite_support is not None:
        fs = x.finite_support + y.finite_support

    def conv(k):
        lo, hi = x.low, k - y.low
        if x.finite_support is not None:
            hi = min(hi, x.finite_support)
        if y.finite_support is not None:
            lo = max(lo, k - y.finite_support)
        return convolution_sum(x.__getitem__, y.__getitem__, k, lo, hi)

    return RzlNumber(x.low + y.low, conv, fs)


def inverse(x: RzlNumber, depth: int = DEFAULT_DEPTH,
            budget: int = PRECISION_BUDGET) -> RzlNumber:
    """1/x by the recurrence w[t] = -sum(u[j]*w[t-j], j=1..t)."""
    li = leading_index(x, depth, budget)
    if not li.is_certified:
        raise UndecidedError("inverse requires certified leading term", li)
    m = li.witness
    a = x[m]
    inv_a = 1 / Fraction(a) if is_rational_scalar(a) else a.reciprocal(budget)
    rel = functools.cache(lambda j: x[m + j] * inv_a)
    top = None if x.finite_support is None else x.finite_support - m
    w_at = recurrence(lambda t, w: -convolution_sum(
        rel, w.__getitem__, t, 1, t if top is None else min(t, top)), 1)
    fs = -m if x.finite_support is not None and x.finite_support <= m else None
    return RzlNumber(-m, lambda i: 0 if i + m < 0 else inv_a * w_at(i + m), fs)
