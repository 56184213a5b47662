"""Coefficient scalars: exact rationals and computable reals.

Coefficients are either exact rationals (`int` / `fractions.Fraction`) or
`CompReal` values known only through arbitrarily good rational
approximations.  Brackets never prove two computable reals equal; callers
get brackets and may escalate precision, which is why every sign decision
in this package is allowed to come back undecided.  Equality is certified
only from how two values were built: `scalar_eq` compares their DAGs.

Scalars mix through the ordinary operators ``+ - *`` and unary ``-``, the
package's one mixed-scalar arithmetic: int and Fraction return
NotImplemented for a `CompReal` partner, so `CompReal`'s reflected
operators take over.  Exact identities stay exact: x+0, x-0 and x*1 are x
itself, x*0 is the exact int 0, and x*(-1), 0-x and -x are one node
shape, a scaling by -1.

A `CompReal` is a node of a DAG evaluated in midpoint-radius ("ball")
arithmetic at one working precision p, the scheme of Mueller's iRRAM ("The
iRRAM: exact arithmetic in C++", 2000) and van der Hoeven's "Ball
arithmetic" (2009): each node computes its ball from its children's balls
at the same p, at most once per p.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction

from .verdict import UndecidedError

Rational = Fraction

#: Precision ceiling for sign decisions on computable reals.  Escalation is
#: geometric, so this costs ~20 refinement rounds before giving up.
PRECISION_BUDGET = 2 ** 20

#: Bits a first working precision carries beyond those of the requested
#: precision, so that the radii of moderately deep DAGs fit without a retry.
_GUARD_BITS = 16

#: `scalar_str` renders a computable real to relative precision once its
#: bracket at `_RENDER_CAP` excludes 0; a value that bracket does not
#: separate from 0 keeps the absolute rendering at `_RENDER_PRECISION`.
_RENDER_CAP = 2 ** 100
_RENDER_PRECISION = 10 ** 7

_SIN_CYCLE = (0, 1, 0, -1)   # n-th derivative of sin at 0, mod 4
_COS_CYCLE = (1, 0, -1, 0)


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def _grid(bits: int) -> int:
    """`bits` rounded up to three significant bits, and to at least 32:
    approximations at nearby precisions then share one working precision."""
    step = 1 << max(5, bits.bit_length() - 3)
    return -(-bits // step) * step


def _first_precision(n: int) -> int:
    """The working precision `CompReal._working_ball(n)` tries first."""
    return _grid(n.bit_length() + _GUARD_BITS)


class CompReal:
    """A real number given by a rational approximation at every precision.

    ``approx(n)`` returns a rational q with ``|q - value| <= 1/n``; the
    guaranteed bracket at precision n is ``[q - 1/n, q + 1/n]`` (width 2/n).
    ``ball(p)`` returns integers (M, R) with ``|value - M/2^p| <= R/2^p``.
    Balls and approximations are deterministic and memoized, so values are
    safe to share across threads; recomputation is idempotent.

    ``CompReal(approx_fn)`` wraps a function n -> rational within 1/n of
    the value; the arithmetic operators, `reciprocal` and
    `creal_elementary` build DAG nodes over such leaves and rationals.  A
    node's value is a function of its op, data and kids, so the DAG is
    the record of how the value was built.  `reciprocal` certifies its own
    bound on |value|, so no fact a caller asserts enters the DAG.
    """

    __slots__ = ("_op", "_kids", "_data", "_balls", "_memo")

    def __init__(self, approx_fn):
        self._op, self._kids, self._data = _approx_fn_ball, (), approx_fn
        self._balls, self._memo = {}, {}

    @classmethod
    def _node(cls, op, kids, data) -> "CompReal":
        """A node whose ball at p is op(p, data, *(kid balls at p))."""
        node = cls(data)
        node._op, node._kids = op, kids
        return node

    @staticmethod
    def from_rational(q) -> "CompReal":
        return CompReal._node(_rational_ball, (), _as_fraction(q))

    def ball(self, p: int) -> tuple[int, int]:
        """(M, R) with |value - M/2^p| <= R/2^p.

        Nodes below are evaluated children first from an explicit stack,
        so the depth of the DAG is not limited by the recursion limit.
        """
        ball = self._balls.get(p)
        if ball is not None:
            return ball
        stack = [self]
        while stack:
            node = stack[-1]
            balls = node._balls
            if p in balls:
                stack.pop()
                continue
            kids = node._kids
            for k in kids:
                if p not in k._balls:
                    stack.extend(kids)
                    break
            else:
                stack.pop()
                balls[p] = node._op(p, node._data, *[k._balls[p] for k in kids])
        return self._balls[p]

    def _working_ball(self, n: int) -> tuple[int, int, int]:
        """(M, R, p): the ball at the working precision p of precision n,
        the first p from `_first_precision(n)` at which R/2^p <= 1/n.

        p depends on n alone, so every thread reads the same balls and the
        same answer."""
        p = _first_precision(n)
        m, r = self.ball(p)
        while r * n > 1 << p:
            p = _grid((r * n).bit_length() + p // 4)
            m, r = self.ball(p)
        return m, r, p

    def approx(self, n: int) -> Fraction:
        """M/2^p from `_working_ball(n)`, memoized per n.  Sign decisions
        do not come through here: `bracket_clear_of` reads the balls."""
        if n < 1:
            raise ValueError("precision must be a positive integer")
        a = self._memo.get(n)
        if a is None:
            m, _, p = self._working_ball(n)
            a = self._memo.setdefault(n, Fraction(m, 1 << p))
        return a

    def bracket(self, n: int) -> tuple[Fraction, Fraction]:
        a = self.approx(n)
        return (a - Fraction(1, n), a + Fraction(1, n))

    def __neg__(self) -> "CompReal":
        return CompReal._node(_scale_ball, (self,), Fraction(-1))

    def __add__(self, other):
        if not isinstance(other, CompReal):
            if not is_rational_scalar(other):
                return NotImplemented
            if other == 0:
                return self
            other = CompReal.from_rational(other)
        return CompReal._node(_add_ball, (self, other), None)

    __radd__ = __add__

    def __sub__(self, other):
        # negating first lets a rational zero short-circuit in `+`
        if not (isinstance(other, CompReal) or is_rational_scalar(other)):
            return NotImplemented
        return self + -other

    def __rsub__(self, other):
        if not is_rational_scalar(other):
            return NotImplemented
        return -self + other

    def __mul__(self, other):
        if isinstance(other, CompReal):
            return CompReal._node(_mul_ball, (self, other), None)
        if is_rational_scalar(other):
            return self._scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def _scale(self, q):
        """self*q for a rational q: 0 gives the exact int 0 and 1 gives
        self; any other q, -1 included, is one `_scale_ball` node."""
        if q == 0:
            return 0
        if q == 1:
            return self
        return CompReal._node(_scale_ball, (self,), _as_fraction(q))

    def reciprocal(self, budget: int = PRECISION_BUDGET) -> "CompReal":
        """1/value, bounding |value| below by min(|lo|, |hi|) of the bracket
        `bracket_clear_of((0,), budget)` finds; raises `UndecidedError` when
        no bracket within the budget clears 0."""
        clear = self.bracket_clear_of((0,), budget)
        if clear is None:
            raise UndecidedError("reciprocal needs a bracket clear of 0 within the budget")
        return CompReal._node(_reciprocal_ball, (self,), min(abs(clear[0]), abs(clear[1])))

    def bracket_clear_of(self, cuts, budget: int = PRECISION_BUDGET):
        """The first bracket at precision 1, 2, 4, ... <= budget that holds
        none of the rational cut points, or None within the budget.

        The bracket at n is `bracket(n)`, (a - 1/n, a + 1/n) with a = M/2^p
        from `_working_ball(n)`, but it is decided in integers: a cut c/d
        (d > 0) lies outside it iff n*|c*2^p - M*d| > d*2^p.  No `Fraction`
        is built before the returned bracket.

        The band of n is n and the doubled n' after it with
        `_first_precision(n') == p` and R*n' <= 2^p: `_working_ball(n')`
        reads the same ball and needs no retry, so the band's brackets are
        nested around the one centre a, and "clear of every cut" holds from
        some n' of the band on or nowhere in it.  So each band reads one
        ball, and the first n' that clears follows from it: with
        e = |c*2^p - M*d| and t = d*2^p for each cut, the least power of two
        n' >= n above every t/e.  It is the answer if the band reaches it;
        otherwise, or when a cut is the centre (e = 0), the whole band is
        skipped.  After a retry at n the band is usually n alone.
        """
        cuts = [(c.numerator, c.denominator) for c in cuts]
        n = 1
        while n <= budget:
            m, r, p = self._working_ball(n)
            gaps = [(abs((c << p) - m * d), d << p) for c, d in cuts]
            first = None
            if all(e for e, _ in gaps):
                need = max((t // e for e, t in gaps), default=0)
                first = max(n, 1 << need.bit_length())
            last = n
            if first != n and (2 * n <= budget and r * 2 * n <= 1 << p
                               and _first_precision(2 * n) == p):
                # the band ends at the last power of two within the caps; `_grid`
                # rounds up and fixes p, so _first_precision(n') <= p iff
                # n'.bit_length() + _GUARD_BITS <= p
                cap = min(budget, (1 << (p - _GUARD_BITS)) - 1, (1 << p) // r if r else budget)
                last = 1 << (cap.bit_length() - 1)
                last = last if first is None else min(first, last)
            if last == first:
                return (Fraction(m * last - (1 << p), last << p),
                        Fraction(m * last + (1 << p), last << p))
            n = 2 * last
        return None

    def sign(self, budget: int = PRECISION_BUDGET):
        """+1/-1 once a bracket excludes zero, or None within the budget."""
        clear = self.bracket_clear_of((0,), budget)
        return None if clear is None else (1 if clear[0] > 0 else -1)

    def __repr__(self):
        return f"CompReal({float(self.approx(10 ** 6)):.6g})"


def _promote(x) -> CompReal:
    return x if isinstance(x, CompReal) else CompReal.from_rational(x)


# ---------------------------------------------------------------------------
# Ball operations.  Each maps (p, data, *kid balls at p) to the node's ball
# at p; M is rounded down, and R counts that rounding as one more ulp
# unless it was exact.
# ---------------------------------------------------------------------------

def _rational_ball(p, q):
    m, rem = divmod(q.numerator << p, q.denominator)
    return m, int(rem != 0)


def _approx_fn_ball(p, fn):
    # fn(2^p) is within one ulp of the value, and flooring it costs one more
    v = _as_fraction(fn(1 << p))
    return (v.numerator << p) // v.denominator, 2


def _add_ball(p, _, a, b):
    return a[0] + b[0], a[1] + b[1]


def _mul_ball(p, _, a, b):
    (ma, ra), (mb, rb) = a, b
    prod = ma * mb
    m = prod >> p
    err = abs(ma) * rb + abs(mb) * ra + ra * rb
    return m, -(-err >> p) + (m << p != prod)


def _scale_ball(p, q, a):
    m, rem = divmod(a[0] * q.numerator, q.denominator)
    return m, -(-a[1] * abs(q.numerator) // q.denominator) + (rem != 0)


def _reciprocal_ball(p, lower_bound, a):
    m, r = a
    num, den = lower_bound.numerator, lower_bound.denominator
    if abs(m) <= r:
        # the ball still holds 0: only |1/value| <= 1/lower_bound is known
        return 0, -(-(den << p) // num)
    # |value| >= bn/bd ulps, the better of the ball's bound and lower_bound;
    # then |1/value - 2^p/m| <= r * 2^p / (bn/bd * |m|) in units of 2^-p
    bn, bd = abs(m) - r, 1
    if bn * den < num << p:
        bn, bd = num << p, den
    q, rem = divmod(1 << 2 * p, m)
    return q, -(-(r << 2 * p) * bd // (bn * abs(m))) + (rem != 0)


def _series_ball(p, data):
    """exp, sin or cos of a rational q summed in fixed point with g guard
    bits: t is |q|^k/k! in units of 2^-(p+g), rounded down, and e bounds
    its error; each term adds its error to the total."""
    kind, q = data
    a, b = abs(q.numerator), q.denominator
    cycle = (1, 1, 1, 1) if kind == "exp" else _SIN_CYCLE if kind == "sin" else _COS_CYCLE
    g = p.bit_length() + 4
    t, e = 1 << (p + g), 0
    total = err = 0
    k = 0
    while True:
        c = cycle[k % 4]
        if c:
            total += -c * t if q < 0 and k % 2 else c * t
            err += e
        # once every ratio |q|/(j+1), j >= k, is at most 1/2, the terms
        # after k sum to at most |q|^k/k!, that is at most t + e = e
        if t == 0 and 2 * a <= (k + 1) * b:
            break
        k += 1
        t, rem = divmod(t * a, b * k)
        e = -(-e * a // (b * k)) + (rem != 0)
    err += e
    m = total >> g
    return m, -(-err >> g) + (m << g != total)


def creal_elementary(kind: str, q) -> CompReal:
    """exp, sin or cos of an exact rational, with a proven series tail bound."""
    if kind not in ("exp", "sin", "cos"):
        raise ValueError(f"unknown elementary kind {kind!r}")
    return CompReal._node(_series_ball, (), (kind, _as_fraction(q)))


def creal_from_rational(q) -> CompReal:
    return CompReal.from_rational(q)


# ---------------------------------------------------------------------------
# Scalar helpers.  A "scalar" is an exact rational or a CompReal, and the
# ordinary operators above are its arithmetic.  These answer what those
# operators cannot: signs, tri-state equality and rendering.
# ---------------------------------------------------------------------------

def is_rational_scalar(x) -> bool:
    # int and Fraction, the types the package itself produces, are checked
    # by identity before the slower `numbers.Rational` ABC check.
    t = type(x)
    return t is int or t is Fraction or isinstance(x, numbers.Rational)


def scalar_sign(x, budget: int = PRECISION_BUDGET):
    """Sign of a scalar: -1, 0 or +1 for rationals (exact), and for a
    CompReal either a certified -1/+1 or None when undecided."""
    if is_rational_scalar(x):
        return 0 if x == 0 else (1 if x > 0 else -1)
    return x.sign(budget)


def scalar_is_zero(x) -> bool:
    """True only when provably zero (exact rational zero)."""
    return is_rational_scalar(x) and x == 0


def _same_dag(a: CompReal, b: CompReal) -> bool:
    """True when a and b were built alike: the same op and equal data at
    every node, and kids that match position by position.  Approximation-
    function leaves match only as the same function object.  Node pairs
    are walked from an explicit stack, once each."""
    stack, seen = [(a, b)], set()
    while stack:
        a, b = stack.pop()
        if a is b or (id(a), id(b)) in seen:
            continue
        seen.add((id(a), id(b)))
        if a._op is not b._op or (a._data is not b._data and
                                  (a._op is _approx_fn_ball or a._data != b._data)):
            return False
        stack.extend(zip(a._kids, b._kids))
    return True


def scalar_eq(a, b, budget: int = PRECISION_BUDGET):
    """Tri-state equality: True/False when certified, None when undecidable.

    Brackets only ever prove two values different; True needs two rationals
    that are equal or two DAGs built alike (`_same_dag`)."""
    if is_rational_scalar(a) and is_rational_scalar(b):
        return a == b
    pa, pb = _promote(a), _promote(b)
    if _same_dag(pa, pb):
        return True
    return None if (pa - pb).sign(budget) is None else False


def scalar_abs_within(x, bound: Fraction, budget: int = PRECISION_BUDGET):
    """Tri-state check |x| < bound for a positive rational bound."""
    if is_rational_scalar(x):
        return abs(Fraction(x)) < bound
    clear = x.bracket_clear_of((-bound, bound), budget)
    # a bracket clear of both cuts lies wholly inside or wholly outside
    return None if clear is None else abs(clear[0]) < bound


def scalar_str(x) -> str:
    """Exact rendering for rationals, 6 significant digits with a ``~``
    marker for computable reals.

    Once the bracket at `_RENDER_CAP` excludes 0, the digits come from an
    approximation within 10^-8 of the magnitude (two guard digits); a value
    that bracket does not separate from 0 prints from the approximation at
    `_RENDER_PRECISION`, certified only to that absolute error."""
    if is_rational_scalar(x):
        f = Fraction(x)
        return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"
    a = x.approx(_RENDER_CAP)
    t = abs(a) * _RENDER_CAP   # the bracket at the cap is (±t - 1, ±t + 1) / cap
    if t <= 1:
        a = x.approx(_RENDER_PRECISION)
    elif t <= 10 ** 8 + 1:     # |x| >= (t - 1) / cap, below about 1e-22
        a = x.approx(math.ceil(10 ** 8 * _RENDER_CAP / (t - 1)))
    return "~" + f"{float(a):.6g}"
