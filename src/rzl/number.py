"""Numbers with real, infinitesimal and infinite parts.

An `RzlNumber` is a lazily evaluated stream of coefficients indexed by
integers: index 0 holds the standard (real) part, positive indices hold
powers of the infinitesimal unit eps, and the finitely many negative
indices hold powers of the infinite unit w = 1/eps.  Ordering is
lexicographic from the lowest index up.

Streams are never evaluated eagerly; each coefficient is computed on first
access and memoized.  `low` marks the lowest tracked index and may well
point at a zero coefficient -- normalizing it away would require deciding
that a coefficient is nonzero, which is impossible in general.  The
explicit, depth-bounded normalizer is `leading_index`.
"""

from __future__ import annotations

import functools
import operator
import sys
from enum import Enum
from fractions import Fraction
from math import gcd

from .scalar import PRECISION_BUDGET, is_rational_scalar, scalar_is_zero
from .verdict import UndecidedError, Verdict, certified, unknown

DEFAULT_DEPTH = 16


class PartSelector(Enum):
    """Index ranges of the canonical decomposition.

    ST is index 0, NST_EPSILON the indices >= 1, NST_OMEGA the indices
    <= -1.  NI_EPSILON (the non-infinitesimal part) is NST_OMEGA + ST and
    NI_OMEGA (the non-infinite part) is ST + NST_EPSILON.
    """

    ST = "st"
    NST_EPSILON = "nst_eps"
    NST_OMEGA = "nst_omega"
    NI_EPSILON = "ni_eps"
    NI_OMEGA = "ni_omega"


class RzlNumber:
    __slots__ = ("low", "finite_support", "_fn", "_memo")

    def __init__(self, low: int, coeff, finite_support: int | None = None):
        self.low = low
        self.finite_support = finite_support
        self._fn = coeff
        self._memo = {}

    # -- coefficient access -------------------------------------------------

    def __getitem__(self, i: int):
        if i < self.low:
            return 0
        if self.finite_support is not None and i > self.finite_support:
            return 0
        memo = self._memo
        if i in memo:
            return memo[i]
        try:
            v = self._fn(i)
        except _Deeper as exc:
            if exc.reads:
                exc.reads -= 1
                raise
            v = _read_deep(self, i, exc.read)
        except RecursionError:
            raise _Deeper(self, i) from None
        return memo.setdefault(i, v)

    # -- arithmetic ----------------------------------------------------------

    def _termwise(self, other, op):
        """The stream i -> op(self[i], other[i]), for sums and differences."""
        fs = None
        if self.finite_support is not None and other.finite_support is not None:
            fs = max(self.finite_support, other.finite_support)
        return RzlNumber(min(self.low, other.low), lambda i: op(self[i], other[i]), fs)

    def __add__(self, other):
        other = as_number(other)
        return other if other is NotImplemented else self._termwise(other, operator.add)

    __radd__ = __add__

    def __neg__(self):
        return RzlNumber(self.low, lambda i: -self[i], self.finite_support)

    def __sub__(self, other):
        other = as_number(other)
        return other if other is NotImplemented else self._termwise(other, operator.sub)

    def __rsub__(self, other):
        other = as_number(other)
        return other if other is NotImplemented else other._termwise(self, operator.sub)

    def __mul__(self, other):
        other = as_number(other)
        if other is NotImplemented:
            return NotImplemented
        low = self.low + other.low
        fs = None
        if self.finite_support is not None and other.finite_support is not None:
            fs = self.finite_support + other.finite_support

        def conv(k):
            # Finite Cauchy product slice: i >= self.low and k-i >= other.low.
            lo, hi = self.low, k - other.low
            if self.finite_support is not None:
                hi = min(hi, self.finite_support)
            if other.finite_support is not None:
                lo = max(lo, k - other.finite_support)
            return convolution_sum(self.__getitem__, other.__getitem__, k, lo, hi)

        return RzlNumber(low, conv, fs)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        if k == 0:
            return one()
        if k == 1:
            return self
        half = (self * self) ** (k // 2)
        return half if k % 2 == 0 else half * self

    def shift(self, by: int) -> "RzlNumber":
        """Multiply by eps**by (an exact index shift; by may be negative)."""
        fs = None if self.finite_support is None else self.finite_support + by
        return RzlNumber(self.low + by, lambda i: self[i - by], fs)

    def trim_low(self) -> "RzlNumber":
        """Raise `low` past provably (rational) zero omega slots, at most to 0.

        Purely cosmetic-plus-sound: trimming stops at the first coefficient
        that cannot be certified zero.
        """
        low = self.low
        while low < 0 and scalar_is_zero(self[low]):
            low += 1
        if low == self.low:
            return self
        return RzlNumber(low, lambda i: self[i], self.finite_support)

    def __repr__(self):
        from .render import render
        return render(self, 7)


def as_number(x):
    if isinstance(x, RzlNumber):
        return x
    if is_rational_scalar(x):
        return from_scalar(x)
    return NotImplemented


_GETITEM = RzlNumber.__getitem__.__code__


class _Deeper(RecursionError):
    """Raised by a read x[i] that hit the recursion limit, on its way up to
    the nearest `_read_deep`, or else to the outermost read: `read` is
    (x, i) and `reads` counts the reads it passes on the way, each giving
    up its work."""

    def __init__(self, x: RzlNumber, i: int):
        super().__init__("maximum recursion depth exceeded")
        self.read, self.reads, frame = (x, i), 0, sys._getframe(1)
        while frame.f_back is not None and frame.f_back.f_code is not _read_deep.__code__:
            frame = frame.f_back
            self.reads += frame.f_code is _GETITEM
        if frame.f_back is None:
            self.reads -= 1   # the outermost read takes it


def _read_deep(x: RzlNumber, i: int, read):
    """x's coefficient at i, once a `_Deeper` from the unfinished `read`
    reached it: the pending reads are finished deepest first, from an
    explicit stack, and then x's function is called again.  Every later
    `_Deeper` below comes back here.  A pending read met again, as in a
    stream that reads itself, is passed up through every read."""
    pending = [(x, i), read]
    while True:
        s, j = pending[-1]
        try:
            if len(pending) == 1:
                return x._fn(i)
            s[j]
            pending.pop()
        except _Deeper as deeper:
            if deeper.read in pending:   # no read can finish it
                deeper.reads = sys.maxsize
            if deeper.reads:
                raise
            pending.append(deeper.read)


# -- constructors -------------------------------------------------------------

def make_number(low: int, coeff, finite_support: int | None = None) -> RzlNumber:
    """Wrap a total coefficient function, zero below `low`, into a number.
    It must be pure: a read past the recursion limit may call it again."""
    return RzlNumber(low, coeff, finite_support)


def from_scalar(v) -> RzlNumber:
    return RzlNumber(0, lambda i: v if i == 0 else 0, finite_support=0)


def from_rational(q) -> RzlNumber:
    return from_scalar(q if isinstance(q, int) else Fraction(q))


def from_coefficients(low: int, coeffs) -> RzlNumber:
    coeffs = list(coeffs)
    fs = low + len(coeffs) - 1
    return RzlNumber(low, lambda i: coeffs[i - low] if low <= i <= fs else 0,
                     finite_support=fs)


def monomial(c, index: int) -> RzlNumber:
    """The pure term c*eps**index (index < 0 gives an omega power)."""
    return RzlNumber(min(index, 0), lambda i: c if i == index else 0,
                     finite_support=index)


def zero() -> RzlNumber:
    return from_scalar(0)


def one() -> RzlNumber:
    return from_scalar(1)


def epsilon() -> RzlNumber:
    return from_coefficients(0, [0, 1])


def omega() -> RzlNumber:
    return from_coefficients(-1, [1])


def grossone() -> RzlNumber:
    """The infinite unit treated as an ordinary number; identical to omega()."""
    return omega()


def grossone_fraction(n: int) -> RzlNumber:
    if n < 1:
        raise ValueError("n must be a positive integer")
    return monomial(Fraction(1, n), -1)


# -- parts ---------------------------------------------------------------------

def part(x: RzlNumber, sel: PartSelector) -> RzlNumber:
    if sel is PartSelector.ST:
        return RzlNumber(0, lambda i: x[0] if i == 0 else 0, finite_support=0)
    if sel is PartSelector.NST_EPSILON:
        return RzlNumber(1, lambda i: x[i] if i >= 1 else 0,
                         finite_support=x.finite_support)
    if sel is PartSelector.NST_OMEGA:
        return RzlNumber(x.low, lambda i: x[i] if i <= -1 else 0,
                         finite_support=-1)
    if sel is PartSelector.NI_EPSILON:
        return RzlNumber(x.low, lambda i: x[i] if i <= 0 else 0,
                         finite_support=0)
    if sel is PartSelector.NI_OMEGA:
        return RzlNumber(0, lambda i: x[i] if i >= 0 else 0,
                         finite_support=x.finite_support)
    raise ValueError(f"unknown part selector {sel!r}")


def standard_part(x: RzlNumber):
    """The index-0 coefficient as a scalar."""
    return x[0]


def coefficient_at(x: RzlNumber, i: int):
    """Exact coefficient at an index; zero below the tracked range."""
    return x[i]


# -- leading term, inverse, division --------------------------------------------

def recurrence(step, first):
    """The sequence a[0] = first, a[t] = step(t, a) for t >= 1, as a function
    t -> a[t]; `step` may read a[0 .. t-1] only.

    Entries are computed in increasing index order, without recursion, into
    an index-keyed memo whose keys always form a prefix 0 .. n-1.  Threads
    racing on one index compute equal values and the first write is kept,
    so a sequence shared between threads stays consistent.
    """
    memo = {0: first}

    def at(k):
        if k not in memo:
            for t in range(len(memo), k + 1):
                memo.setdefault(t, step(t, memo))
        return memo[k]

    return at


def convolution_sum(a, b, k: int, lo: int, hi: int):
    """sum(a(i) * b(k - i), i = lo .. hi): the inner sum of the Cauchy
    product and of every convolution recurrence.  Terms with an exact zero
    factor are skipped, and b is not read where a is an exact zero, so a
    zero weight never forces the coefficient it would multiply.

    While both factors are int or Fraction, the terms add up as one integer
    numerator over a running common denominator, normalised once at the
    end.  From the first computable-real term on, the sum goes through the
    scalar operators.  The result is an int when every surviving factor was
    an int, a Fraction when one was a Fraction, and the int 0 when no term
    survives: the same value and type as adding the terms one by one.
    """
    num, den, frac = 0, 1, False   # the exact terms so far sum to num/den
    acc = None                     # the sum, once a term is not exact
    for i in range(lo, hi + 1):
        x = a(i)
        tx = type(x)
        if tx is int or tx is Fraction:
            if not x:
                continue
        elif scalar_is_zero(x):
            continue
        y = b(k - i)
        ty = type(y)
        if ty is int or ty is Fraction:
            if not y:
                continue
        elif scalar_is_zero(y):
            continue
        if acc is None:
            if tx is int and ty is int:
                num += x * y * den
                continue
            if (tx is int or tx is Fraction) and (ty is int or ty is Fraction):
                frac = True
                d = x.denominator * y.denominator
                if den % d:
                    grow = d // gcd(den, d)
                    num, den = num * grow, den * grow
                num += x.numerator * y.numerator * (den // d)
                continue
            acc = Fraction(num, den) if frac else num
        acc += x * y
    if acc is None:
        return Fraction(num, den) if frac else num
    return acc


def _exact_zeros(x: RzlNumber, hi: int | None = None) -> bool:
    """Provably zero -- an exact rational zero -- at every index from
    x.low to hi.  Without hi the window is the whole stream, which needs
    a finite support."""
    if hi is None:
        if x.finite_support is None:
            return False
        hi = x.finite_support
    return all(scalar_is_zero(x[i]) for i in range(x.low, hi + 1))


def _masked(x: RzlNumber, m: int) -> RzlNumber:
    """x with its coefficient at m read as an exact 0."""
    return RzlNumber(x.low, lambda i: 0 if i == m else x[i], x.finite_support)


def leading_index(x: RzlNumber, depth: int = DEFAULT_DEPTH,
                  budget: int = PRECISION_BUDGET) -> Verdict:
    """First index whose coefficient is provably nonzero.

    Scans indices low .. low+depth.  An undecided computable-real
    coefficient blocks the scan: anything past it could not soundly be
    called leading.  A certified verdict's value is the interval (lo, hi)
    that proved the coefficient nonzero, which holds it and excludes 0:
    (c, c) for a rational c, and for a computable real the first bracket
    clear of 0 that `CompReal.bracket_clear_of` finds within the budget.
    """
    if depth < 1:
        raise ValueError("depth must be a positive integer")
    hi = x.low + depth
    if x.finite_support is not None:
        hi = min(hi, x.finite_support)
    for i in range(x.low, hi + 1):
        c = x[i]
        clear = (c, c) if is_rational_scalar(c) else c.bracket_clear_of((0,), budget)
        if clear is None:
            return unknown(depth, witness=i,
                           reason=f"coefficient sign undecided at index {i}")
        if clear != (0, 0):
            return certified(depth, witness=i, value=clear,
                             reason="first provably nonzero coefficient")
    if x.finite_support is not None and x.finite_support <= hi:
        return unknown(depth, reason="exact zero: no leading term exists")
    return unknown(depth, reason="all inspected coefficients are zero")


def inverse(x: RzlNumber, depth: int = DEFAULT_DEPTH,
            budget: int = PRECISION_BUDGET) -> RzlNumber:
    """Multiplicative inverse, available only once a leading term is certified.

    With x = a*eps**m * (1 + u) and u of strictly positive relative order,
    the inverse is a**-1 * eps**-m * sum((-u)**j); every coefficient of
    that series is a finite computation, realized here by the equivalent
    convolution recurrence w[0]=1, w[t] = -sum(u[j]*w[t-j], j=1..t).
    """
    li = leading_index(x, depth, budget)
    if not li.is_certified:
        raise UndecidedError("inverse requires certified leading term", li)
    m = li.witness
    a = x[m]
    # a's balls are memoized: the reciprocal rereads those that certified it
    inv_a = 1 / Fraction(a) if is_rational_scalar(a) else a.reciprocal(budget)

    # coefficient of eps**j in (1+u), for j >= 1
    rel = functools.cache(lambda j: x[m + j] * inv_a)
    top = None if x.finite_support is None else x.finite_support - m
    w_at = recurrence(lambda t, w: -convolution_sum(
        rel, w.__getitem__, t, 1, t if top is None else min(t, top)), 1)

    fs = None
    if x.finite_support is not None and x.finite_support <= m:
        fs = -m   # pure monomial: exact monomial inverse

    def fn(i):
        t = i + m
        if t < 0:
            return 0
        return inv_a * w_at(t)

    return RzlNumber(-m, fn, finite_support=fs)


def divide(x: RzlNumber, y: RzlNumber, depth: int = DEFAULT_DEPTH,
           budget: int = PRECISION_BUDGET) -> RzlNumber:
    return as_number(x) * inverse(as_number(y), depth, budget)


# -- fractal lift ---------------------------------------------------------------

def fractal_lift(value) -> RzlNumber:
    """Lift a pure standard value v to v + v*eps + v*eps**2 + ...

    The lifted stream repeats its own tail under a one-index zoom: dropping
    the omega part of w times the lift reproduces the lift exactly.
    """
    if isinstance(value, RzlNumber):
        # pure means exact zeros off index 0 over the whole support
        if not _exact_zeros(_masked(value, 0)):
            raise ValueError("fractal lift needs a pure standard value")
        value = value[0]
    return RzlNumber(0, lambda i: value if i >= 0 else 0)


# -- exact comparison on the certified-finite fragment ---------------------------

def compare_finite(x: RzlNumber, y: RzlNumber) -> int:
    """Exact lexicographic comparison for finite-support rational numbers.

    Returns -1, 0 or +1.  Raises on streams without a support bound or with
    computable-real coefficients; this is the decidable fragment only.
    """
    d = as_number(y) - as_number(x)
    if d.finite_support is None:
        raise ValueError("exact comparison needs finite support on both sides")
    for i in range(d.low, d.finite_support + 1):
        c = d[i]
        if not is_rational_scalar(c):
            raise ValueError("exact comparison is rational-only")
        if c != 0:
            return -1 if c > 0 else 1
    return 0


def eq_up_to(x: RzlNumber, y: RzlNumber, lo: int, hi: int) -> bool:
    """Exact coefficient-wise equality of the rational fragment on a window."""
    return all(x[i] == y[i] for i in range(lo, hi + 1))
