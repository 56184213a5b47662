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

A product's coefficient is a Cauchy convolution of its factors'
coefficients, so K coefficients cost O(K**2) scalar operations.  Over
exact windows read in index order, each coefficient is one integer sum
that reads every factor coefficient once (`_ExactWindow`).
"""

from __future__ import annotations

import functools
import operator
import sys
import threading
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
        window = None   # built at the first window of EXACT_WIDTH terms

        def conv(k):
            nonlocal window
            # Finite Cauchy product slice: i >= self.low and k-i >= other.low.
            lo, hi = self.low, k - other.low
            if self.finite_support is not None:
                hi = min(hi, self.finite_support)
            if other.finite_support is not None:
                lo = max(lo, k - other.finite_support)
            if hi - lo + 1 >= EXACT_WIDTH:
                if window is None:
                    window = _ExactWindow(self.__getitem__, self.low,
                                          other.__getitem__, other.low)
                v = window.sum(k, lo, hi, done)
                if v is not None:
                    return v
            return convolution_sum(self.__getitem__, other.__getitem__, k, lo, hi)

        product = RzlNumber(low, conv, fs)
        done = product._memo   # not the product itself: conv would hold a cycle
        return product

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

    Products and `inverse` call it for windows narrower than EXACT_WIDTH,
    for reads out of index order and once a coefficient is not exact;
    wider exact windows read in order go through `_ExactWindow`.
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


#: Fewest terms a convolution window holds before `_ExactWindow` sums it.
#: Narrower windows, such as those of a low-degree polynomial factor, cost
#: less through `convolution_sum` than building the prefixes would.
EXACT_WIDTH = 8

# Per-coefficient codes: 0 for an exact zero, 1 for a nonzero int and
# _FRACTION for a nonzero Fraction.  The product of two codes is 0 for a
# term with a zero factor, 1 for an int * int term and at least _MANY for
# a term with a Fraction factor; a window of fewer than _MANY terms thus
# holds a surviving Fraction term exactly when its code sum reaches _MANY.
_MANY = 1 << 32
_FRACTION = 1 + _MANY


class _Prefix:
    """An operand's exact coefficients get(start), get(start + 1), ... as
    read so far: integer numerators over one common denominator, published
    together as `state` = (numerators, denominator), and their codes.  A
    list only grows at its end (a wider denominator publishes a new
    numerator list), and `codes` grows last, so a reader that sees n codes
    finds n numerators under any later `state`."""

    __slots__ = ("get", "start", "state", "codes", "ints", "fracs", "first")

    def __init__(self, get, start: int):
        self.get, self.start = get, start
        self.state, self.codes = ([], 1), []
        self.ints = self.fracs = False   # a nonzero int, a nonzero Fraction
        self.first = None                # index of the first nonzero

    def push(self, v) -> bool:
        """Append v, the next coefficient; False, appending nothing, when v
        is not an int or a Fraction."""
        nums, den = self.state
        tv = type(v)
        if tv is int:
            num, code = v * den, 1 if v else 0
            self.ints = self.ints or v != 0
        elif tv is Fraction:
            d = v.denominator
            if den % d:   # widen the common denominator: a new list
                grow = d // gcd(den, d)
                den *= grow
                nums = [n * grow for n in nums]
            num = v.numerator * (den // d)
            code = _FRACTION if num else 0
            self.fracs = self.fracs or num != 0
        else:
            return False
        if code and self.first is None:
            self.first = self.start + len(self.codes)
        nums.append(num)
        self.state = nums, den
        self.codes.append(code)
        return True


class _ExactWindow:
    """`convolution_sum(a, b, k, lo, hi)` for a run of k, while every
    coefficient read is an int or a Fraction, from prefixes that read each
    operand coefficient once: one C-level sum of numerator products per k
    and one normalisation, the same value and type.

    `sum` goes on only when all of k's predecessors are in `done`, the
    memo of the outputs.  Then the operands are read exactly as far as
    `convolution_sum` would have read them for those outputs and k: a up
    to hi, and b up to k minus a's first nonzero index, so b(k - i) is
    never read where every a(i) up to i is an exact 0.  Otherwise, or from
    the first coefficient that is not exact on, it returns None and the
    caller calls `convolution_sum`.  The operand reads happen outside the
    lock, and a value is appended only where its index is next, so threads
    sharing a window keep one consistent prefix."""

    __slots__ = ("a", "b", "lock", "exact", "next")

    def __init__(self, a, a_start: int, b, b_start: int):
        self.a, self.b = _Prefix(a, a_start), _Prefix(b, b_start)
        self.lock = threading.Lock()
        self.exact = True
        self.next = a_start + b_start   # every output below it is computed

    def _fill(self, p: _Prefix, upto: int) -> bool:
        codes = p.codes
        while self.exact and p.start + len(codes) <= upto:
            j = p.start + len(codes)
            v = p.get(j)
            with self.lock:
                if p.start + len(codes) == j and not p.push(v):
                    self.exact = False
        return self.exact

    def sum(self, k: int, lo: int, hi: int, done):
        if not self.exact:
            return None
        n = self.next
        while n < k and n in done:
            n += 1
        self.next = n
        if n != k:
            return None
        a, b = self.a, self.b
        # convolution_sum's new reads, in its order: b past the last output,
        # a(hi), then b once more where a(hi) is a's first nonzero
        if a.first is not None and not self._fill(b, k - max(lo, a.first)):
            return None
        if not self._fill(a, hi):
            return None
        if a.first is None or a.first > hi:
            self.next = k + 1
            return 0
        s = max(lo, a.first)   # a(s) pairs with b(k - s)
        if not self._fill(b, k - s):
            return None
        self.next = k + 1
        (a_nums, a_den), (b_nums, b_den) = a.state, b.state
        i, j, width = s - a.start, k - hi - b.start, hi - s + 1
        ys = b_nums[j:j + width]
        ys.reverse()
        num = sum(map(operator.mul, a_nums[i:i + width], ys))
        if not (a.fracs or b.fracs):   # ints only: both denominators are 1
            return num
        den = a_den * b_den
        if num and not (a.ints and b.ints):   # a Fraction in every term
            return Fraction(num, den)
        ys = b.codes[j:j + width]
        ys.reverse()
        if sum(map(operator.mul, a.codes[i:i + width], ys)) >= _MANY:
            return Fraction(num, den)
        return num // den


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
    The recurrence runs in index order, so from EXACT_WIDTH terms on an
    exact u is summed by `_ExactWindow`, which keeps u and w as integer
    numerators: the 1/a folded into u costs no Fraction per term.
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
    window = None   # built at the first window of EXACT_WIDTH terms

    def step(t, w):
        nonlocal window
        hi = t if top is None else min(t, top)
        if hi >= EXACT_WIDTH:
            if window is None:
                window = _ExactWindow(rel, 1, w.__getitem__, 0)
            v = window.sum(t, 1, hi, w)
            if v is not None:
                return -v
        return -convolution_sum(rel, w.__getitem__, t, 1, hi)

    w_at = recurrence(step, 1)

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
