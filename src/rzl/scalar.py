"""Coefficient scalars: exact rationals and computable reals.

Coefficients are either exact rationals (`int` / `fractions.Fraction`) or
`CompReal` values known only through arbitrarily good rational
approximations.  A `CompReal` never answers equality questions; callers get
brackets and may escalate precision, which is why every sign decision in
this package is allowed to come back undecided.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction

Rational = Fraction

#: Precision ceiling for sign decisions on computable reals.  Escalation is
#: geometric, so this costs ~20 refinement rounds before giving up.
PRECISION_BUDGET = 2 ** 20

_SIN_CYCLE = (0, 1, 0, -1)   # n-th derivative of sin at 0, mod 4
_COS_CYCLE = (1, 0, -1, 0)


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


class CompReal:
    """A real number given by a rational approximation at every precision.

    ``approx(n)`` returns a rational q with ``|q - value| <= 1/n``; the
    guaranteed bracket at precision n is ``[q - 1/n, q + 1/n]`` (width 2/n).
    Approximations are deterministic and memoized, so values are safe to
    share; recomputation is idempotent.
    """

    __slots__ = ("_fn", "_memo", "tag")

    def __init__(self, approx_fn, tag="derived"):
        self._fn = approx_fn
        self._memo = {}
        self.tag = tag

    @staticmethod
    def from_rational(q) -> "CompReal":
        q = _as_fraction(q)
        return CompReal(lambda n: q, tag=f"exact-rational:{q}")

    def approx(self, n: int) -> Fraction:
        if n < 1:
            raise ValueError("precision must be a positive integer")
        if n not in self._memo:
            self._memo[n] = _as_fraction(self._fn(n))
        return self._memo[n]

    def bracket(self, n: int) -> tuple[Fraction, Fraction]:
        a = self.approx(n)
        return (a - Fraction(1, n), a + Fraction(1, n))

    def __neg__(self) -> "CompReal":
        tag = f"neg:{self.tag}" if self.tag != "derived" else "derived"
        return CompReal(lambda n: -self.approx(n), tag=tag)

    def __add__(self, other) -> "CompReal":
        if isinstance(other, numbers.Rational) and other == 0:
            return self
        other = _promote(other)
        if other is NotImplemented:
            return NotImplemented
        return CompReal(lambda n: self.approx(2 * n) + other.approx(2 * n))

    __radd__ = __add__

    def __sub__(self, other):
        other = _promote(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _promote(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "CompReal":
        if isinstance(other, numbers.Rational):
            return self._scale(_as_fraction(other))
        if not isinstance(other, CompReal):
            return NotImplemented

        def fn(n):
            # |a| <= ma and |b| <= mb, so querying both at n*(ma+mb+1)
            # keeps the product within 1/n of the true value.
            ma = abs(self.approx(1)) + 1
            mb = abs(other.approx(1)) + 1
            m = n * (math.ceil(ma + mb) + 1)
            return self.approx(m) * other.approx(m)

        return CompReal(fn)

    __rmul__ = __mul__

    def _scale(self, q: Fraction) -> "CompReal":
        if q == 0:
            return CompReal.from_rational(0)
        if q == 1:
            return self
        m = math.ceil(abs(q))
        tag = f"scale({q}):{self.tag}" if self.tag != "derived" else "derived"
        return CompReal(lambda n: self.approx(n * m) * q, tag=tag)

    def reciprocal(self, lower_bound: Fraction) -> "CompReal":
        """Reciprocal given a certified rational bound 0 < lower_bound <= |value|."""
        if lower_bound <= 0:
            raise ValueError("reciprocal needs a positive certified lower bound")

        def fn(n):
            m = max(math.ceil(Fraction(2, lower_bound)),
                    math.ceil(2 * n / (lower_bound * lower_bound)))
            a = self.approx(m)
            return 1 / a

        return CompReal(fn)

    def bracket_clear_of(self, cuts, budget: int = PRECISION_BUDGET):
        """The first bracket at precision 1, 2, 4, ... <= budget that holds
        none of the rational cut points, or None within the budget."""
        n = 1
        while n <= budget:
            lo, hi = self.bracket(n)
            if all(c < lo or hi < c for c in cuts):
                return lo, hi
            n *= 2
        return None

    def sign(self, budget: int = PRECISION_BUDGET):
        """+1/-1 once a bracket excludes zero, or None within the budget."""
        clear = self.bracket_clear_of((0,), budget)
        return None if clear is None else (1 if clear[0] > 0 else -1)

    def __repr__(self):
        return f"CompReal({float(self.approx(10 ** 6)):.6g}, tag={self.tag!r})"


def _promote(x):
    if isinstance(x, CompReal):
        return x
    if isinstance(x, numbers.Rational):
        return CompReal.from_rational(x)
    return NotImplemented


def _exp_tail_bound(q: Fraction, order: int) -> Fraction:
    # Valid once order + 2 > 2|q|: the term ratio is then below 1/2 and the
    # tail is dominated by twice its first term.
    aq = abs(q)
    return 2 * aq ** (order + 1) / Fraction(math.factorial(order + 1))


def _partial_sum(kind: str, q: Fraction, order: int) -> Fraction:
    total = Fraction(0)
    power = Fraction(1)
    fact = 1
    for k in range(order + 1):
        if k > 0:
            power *= q
            fact *= k
        if kind == "exp":
            c = 1
        elif kind == "sin":
            c = _SIN_CYCLE[k % 4]
        else:
            c = _COS_CYCLE[k % 4]
        if c:
            total += c * power / fact
    return total


def creal_elementary(kind: str, q) -> CompReal:
    """exp, sin or cos of an exact rational, with a proven series tail bound."""
    if kind not in ("exp", "sin", "cos"):
        raise ValueError(f"unknown elementary kind {kind!r}")
    q = _as_fraction(q)

    def fn(n):
        order = max(4, 2 * math.ceil(abs(q)))
        while _exp_tail_bound(q, order) >= Fraction(1, 2 * n):
            order *= 2
        return _partial_sum(kind, q, order)

    return CompReal(fn, tag=f"series:{kind}({q})")


def creal_from_rational(q) -> CompReal:
    return CompReal.from_rational(q)


# ---------------------------------------------------------------------------
# Mixed-scalar helpers.  A "scalar" is an exact rational or a CompReal;
# rational pairs stay exact, anything touching a CompReal is promoted.
# ---------------------------------------------------------------------------

def is_rational_scalar(x) -> bool:
    # int and Fraction, the types the package itself produces, are checked
    # by identity before the slower `numbers.Rational` ABC check.
    t = type(x)
    return t is int or t is Fraction or isinstance(x, numbers.Rational)


def scalar_add(a, b):
    if is_rational_scalar(a):
        if is_rational_scalar(b):
            return a + b
        if a == 0:
            return b
    elif is_rational_scalar(b) and b == 0:
        return a
    return _promote(a) + _promote(b)


def scalar_sub(a, b):
    if is_rational_scalar(a) and is_rational_scalar(b):
        return a - b
    return scalar_add(a, scalar_neg(b))


def scalar_neg(a):
    return -a if is_rational_scalar(a) else -_promote(a)


def scalar_mul(a, b):
    """Product; an exact zero factor gives the exact 0, never a
    computable-real zero whose sign could not be decided."""
    if is_rational_scalar(a):
        if is_rational_scalar(b):
            return a * b
        return 0 if a == 0 else _promote(b) * a
    if is_rational_scalar(b) and b == 0:
        return 0
    return _promote(a) * b


def scalar_div(a, b, budget: int = PRECISION_BUDGET):
    """Exact division for rationals; bracket-certified reciprocal otherwise."""
    if is_rational_scalar(b):
        if b == 0:
            raise ZeroDivisionError("scalar division by zero")
        if is_rational_scalar(a):
            return Fraction(a) / Fraction(b)
        return scalar_mul(a, 1 / Fraction(b))
    bc = _promote(b)
    clear = bc.bracket_clear_of((0,), budget)
    if clear is None:
        raise ZeroDivisionError("divisor sign undecided within precision budget")
    return scalar_mul(a, bc.reciprocal(min(abs(clear[0]), abs(clear[1]))))


def scalar_sign(x, budget: int = PRECISION_BUDGET):
    """Sign of a scalar: -1, 0 or +1 for rationals (exact), and for a
    CompReal either a certified -1/+1 or None when undecided."""
    if is_rational_scalar(x):
        return 0 if x == 0 else (1 if x > 0 else -1)
    return x.sign(budget)


def scalar_is_zero(x) -> bool:
    """True only when provably zero (exact rational zero)."""
    return is_rational_scalar(x) and x == 0


def scalar_eq(a, b, budget: int = PRECISION_BUDGET):
    """Tri-state equality: True/False when certified, None when undecidable."""
    if is_rational_scalar(a) and is_rational_scalar(b):
        return a == b
    pa, pb = _promote(a), _promote(b)
    if pa.tag == pb.tag and not pa.tag.startswith("derived"):
        return True
    s = (pa - pb).sign(budget)
    if s is None:
        return None
    return False


def scalar_abs_within(x, bound: Fraction, budget: int = PRECISION_BUDGET):
    """Tri-state check |x| < bound for a positive rational bound."""
    if is_rational_scalar(x):
        return abs(Fraction(x)) < bound
    clear = x.bracket_clear_of((-bound, bound), budget)
    # a bracket clear of both cuts lies wholly inside or wholly outside
    return None if clear is None else abs(clear[0]) < bound


def scalar_str(x) -> str:
    """Exact rendering for rationals, 6 significant digits with a ``~``
    marker for computable reals."""
    if is_rational_scalar(x):
        f = Fraction(x)
        return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"
    return "~" + f"{float(x.approx(10 ** 7)):.6g}"
