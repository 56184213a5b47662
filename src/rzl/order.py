"""Lexicographic order, metrics, balls and separation predicates.

Everything here is a depth-bounded semi-decision: the first provably
nonzero coefficient of a difference settles a comparison, and when no
coefficient can be certified nonzero the answer is Unknown rather than a
guess.  Certified and Refuted verdicts carry witnesses that replay the
decision (an index, a separating radius, a violating point).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .number import (
    DEFAULT_DEPTH,
    RzlNumber,
    _exact_zeros,
    _masked,
    as_number,
    from_rational,
    leading_index,
    monomial,
)
from .scalar import PRECISION_BUDGET, scalar_abs_within, scalar_is_zero, scalar_sign
from .verdict import UndecidedError, Verdict, certified, refuted, unknown

NEGATIVE = "negative"
POSITIVE = "positive"

INFINITESIMAL = "infinitesimal"
APPRECIABLE = "appreciable"
INFINITE = "infinite"


def sign_of(x: RzlNumber, depth: int = DEFAULT_DEPTH,
            budget: int = PRECISION_BUDGET) -> Verdict:
    """Sign of the first provably nonzero coefficient; Unknown = zero so far.

    The sign is read from the interval `leading_index` certified, which
    lies wholly on one side of 0, so the coefficient is decided once.
    """
    li = leading_index(as_number(x), depth, budget)
    if li.is_certified:
        label = POSITIVE if li.value[0] > 0 else NEGATIVE
        return certified(depth, witness=(li.witness, label), value=label)
    return unknown(depth, reason=li.reason)


def lex_less(x: RzlNumber, y: RzlNumber, depth: int = DEFAULT_DEPTH,
             budget: int = PRECISION_BUDGET) -> Verdict:
    """Strict lexicographic x < y.  Equality can never be certified, so
    x < x stays Unknown at every depth."""
    sv = sign_of(as_number(y) - as_number(x), depth, budget)
    if sv.is_certified:
        if sv.value == POSITIVE:
            return certified(depth, witness=sv.witness)
        return refuted(depth, witness=sv.witness)
    return unknown(depth, reason=sv.reason)


def abs_val(x: RzlNumber, depth: int = DEFAULT_DEPTH,
            budget: int = PRECISION_BUDGET) -> Verdict:
    """|x| as a Verdict-wrapped number.  Unknown sign means no value: the
    caller may not treat an undecided stream as zero."""
    x = as_number(x)
    sv = sign_of(x, depth, budget)
    if sv.is_certified:
        return certified(depth, witness=sv.witness,
                         value=x if sv.value == POSITIVE else -x)
    return unknown(depth, reason=sv.reason)


def classify(x: RzlNumber, depth: int = DEFAULT_DEPTH,
             budget: int = PRECISION_BUDGET) -> Verdict:
    x = as_number(x)
    li = leading_index(x, depth, budget)
    if not li.is_certified:
        return unknown(depth, reason=li.reason)
    m = li.witness
    label = INFINITESIMAL if m >= 1 else (APPRECIABLE if m == 0 else INFINITE)
    return certified(depth, witness=m, value=label)


def dis(x: RzlNumber, y: RzlNumber, depth: int = DEFAULT_DEPTH,
        budget: int = PRECISION_BUDGET) -> Verdict:
    """Distance |y - x| valued in the stream field itself."""
    return abs_val(as_number(y) - as_number(x), depth, budget)


def diss(x: RzlNumber, y: RzlNumber, depth: int = DEFAULT_DEPTH,
         budget: int = PRECISION_BUDGET) -> Verdict:
    """Standard part of |y - x|: the pseudo-metric that cannot tell 0 from eps."""
    d = dis(x, y, depth, budget)
    if d.is_certified:
        return certified(depth, witness=d.witness, value=d.value[0])
    return d


# -- Delta sets ----------------------------------------------------------------

@dataclass(frozen=True)
class DeltaSpec:
    m: int
    down_closed: bool = False

    def __post_init__(self):
        if self.m < 0:
            raise ValueError("m must be a nonnegative integer")


def in_delta(x: RzlNumber, d: DeltaSpec, depth: int = DEFAULT_DEPTH,
             budget: int = PRECISION_BUDGET) -> Verdict:
    """Membership in the order sets of infinitesimal depth.

    The down-closed set is read as "leading index >= m".  The plain set is
    the literal pure-monomial reading: a single coefficient at index m
    (nonzero when m >= 1) and nothing else; see `in_delta_leading` for the
    leading-order reading of the same set.
    """
    x = as_number(x)
    if d.down_closed:
        li = leading_index(x, depth, budget)
        if li.is_certified:
            if li.witness >= d.m:
                return certified(depth, witness=li.witness)
            return refuted(depth, witness=li.witness)
        if _exact_zeros(x):
            # the zero stream is the a_0 = 0 member of the order-0 set only
            return certified(depth, reason="exact zero") if d.m == 0 \
                else refuted(depth, reason="exact zero")
        return unknown(depth, reason=li.reason)

    # pure-monomial reading: the first coefficient off index m that is not
    # certified zero settles it; past an undecided one nothing is read
    off = leading_index(_masked(x, d.m), depth, budget)
    if off.is_certified:
        return refuted(depth, witness=off.witness,
                       reason=f"nonzero coefficient off index {d.m}")
    hi = x.low + depth
    if x.finite_support is not None:
        hi = min(hi, x.finite_support)
    # every coefficient decided: none undecided, and the support ends inside
    # the window (finite_support <= low + depth, so hi is finite_support)
    entire = off.witness is None and x.finite_support == hi
    if d.m >= 1:
        s_m = scalar_sign(x[d.m], budget)
        if s_m == 0 and entire:
            return refuted(depth, reason="exact zero is not of positive order")
        if not s_m:
            return unknown(depth, reason="coefficient at m not certified nonzero")
    if entire:
        return certified(depth, witness=d.m)
    return unknown(depth, reason="tail beyond inspected window",
                   caveat=f"window {x.low}..{hi}")


def in_delta_leading(x: RzlNumber, m: int, depth: int = DEFAULT_DEPTH,
                     budget: int = PRECISION_BUDGET) -> Verdict:
    """Leading-order reading: the first nonzero coefficient sits at index m."""
    li = leading_index(as_number(x), depth, budget)
    if li.is_certified:
        if li.witness == m:
            return certified(depth, witness=m)
        return refuted(depth, witness=li.witness)
    return unknown(depth, reason=li.reason)


# -- balls -----------------------------------------------------------------------

class BallKind(Enum):
    ST = "st"
    E = "e"
    RAT = "rat"
    PSI = "psi"


@dataclass(frozen=True)
class BallSpec:
    center: RzlNumber
    kind: BallKind
    n: int | None = None
    radius: RzlNumber | None = None

    def __post_init__(self):
        if self.n is not None and self.n < 1:
            raise ValueError("n must be a positive integer")


def st_ball(center: RzlNumber, n: int) -> BallSpec:
    return BallSpec(as_number(center), BallKind.ST, n=n)


def rat_ball(center: RzlNumber, n: int) -> BallSpec:
    return BallSpec(as_number(center), BallKind.RAT, n=n)


def psi_ball(center: RzlNumber, n: int) -> BallSpec:
    return BallSpec(as_number(center), BallKind.PSI, n=n)


def e_ball(center: RzlNumber, radius: RzlNumber) -> BallSpec:
    return BallSpec(as_number(center), BallKind.E, radius=as_number(radius))


def within_radius(d: RzlNumber, r: RzlNumber, depth: int, budget: int) -> Verdict:
    """Certify -r < d < r in one scan of d and r over the window of
    `leading_index(r - d)`.  At each index the upper side r[i] - d[i] and
    the lower side d[i] + r[i] are decided as that scan decides, each side
    stopping where its own scan would; where r[i] is an exact 0 the sides
    are the mirror balls -d[i] and d[i], one decision.  A refuted upper
    side wins over the lower one; the certified witness is (lower, upper)."""
    d, r = as_number(d), as_number(r)
    if depth < 1:
        raise ValueError("depth must be a positive integer")
    low = min(d.low, r.low)
    hi = low + depth
    if d.finite_support is not None and r.finite_support is not None:
        hi = min(hi, max(d.finite_support, r.finite_support))
    up = lo = None   # (index, sign) where a side stopped; sign None: undecided
    for i in range(low, hi + 1):
        ri, di = r[i], d[i]
        mirror = scalar_is_zero(ri)
        s = scalar_sign(di, budget) if mirror else None
        if up is None:
            su = (s and -s) if mirror else scalar_sign(ri - di, budget)
            if su == -1:
                return refuted(depth, witness=(i, NEGATIVE))
            up = (i, su) if su != 0 else None
        if lo is None:
            sl = s if mirror else scalar_sign(di + ri, budget)
            lo = (i, sl) if sl != 0 else None
        if up is not None and lo is not None:
            break
    if lo is not None and lo[1] == -1:
        return refuted(depth, witness=(lo[0], NEGATIVE))
    if up is not None and lo is not None and up[1] == lo[1] == 1:
        return certified(depth, witness=((lo[0], POSITIVE), (up[0], POSITIVE)))
    return unknown(depth, reason="containment undecided at depth")


def ball_contains(b: BallSpec, z: RzlNumber, depth: int = DEFAULT_DEPTH,
                  budget: int = PRECISION_BUDGET) -> Verdict:
    z = as_number(z)
    if b.kind is BallKind.PSI:
        gap = z[0] - b.center[0]
        inside = scalar_abs_within(gap, Fraction(1, b.n), budget)
        if inside is True:
            return certified(depth, witness=("st-gap", gap))
        if inside is False:
            return refuted(depth, witness=("st-gap", gap))
        return unknown(depth, reason="standard-part gap undecided")
    if b.kind is BallKind.E:
        li = leading_index(as_number(b.radius), depth, budget)
        if not (li.is_certified and li.witness >= 1 and li.value[0] > 0):
            raise ValueError("e-ball radius must be a certified positive infinitesimal")
        radius = b.radius
    elif b.kind in (BallKind.ST, BallKind.RAT):
        radius = from_rational(Fraction(1, b.n))
    else:
        raise ValueError(f"unknown ball kind {b.kind!r}")
    return within_radius(z - b.center, radius, depth, budget)


# -- separation -------------------------------------------------------------------

def distinguishable(x: RzlNumber, y: RzlNumber, kind: str,
                    depth: int = DEFAULT_DEPTH,
                    budget: int = PRECISION_BUDGET) -> Verdict:
    """Is there an open set of the given kind containing exactly one point?

    kind 'st': possible exactly when |x - y| is not infinitesimal; a ball of
    rational radius below half the gap is returned as witness.  kind 'e':
    any certified difference separates, with radius one order below it.
    """
    d = as_number(y) - as_number(x)
    li = leading_index(d, depth, budget)
    if kind not in ("st", "e"):
        raise ValueError("kind must be 'st' or 'e'")
    if not li.is_certified:
        if _exact_zeros(d):
            return refuted(depth, reason="points are equal")
        return unknown(depth, reason=li.reason)
    m = li.witness
    if kind == "e":
        return certified(depth, witness=("eps-radius-order", m + 1))
    if m >= 1:
        return refuted(depth, witness=m,
                       reason="difference is infinitesimal; every "
                              "rational-radius ball around one point "
                              "contains the other")
    # the smallest n with 1/n below half the certified |gap|
    lo, hi = li.value
    n = 1 if m < 0 else 2 // min(abs(lo), abs(hi)) + 1
    return certified(depth, witness=("st-ball-n", n))


def point_interior_witness(interval: tuple[RzlNumber, RzlNumber], z: RzlNumber,
                           kind: str, depth: int = DEFAULT_DEPTH,
                           budget: int = PRECISION_BUDGET) -> Verdict:
    """Search for a ball radius around z that stays inside the open interval.

    kind 'st' tries rational radii 1/n for n <= depth and refutes when a
    side gap is certified infinitesimal (every rational radius overshoots);
    kind 'e' tries monomial radii eps**m for m <= depth.
    """
    a, b = (as_number(interval[0]), as_number(interval[1]))
    z = as_number(z)
    if not lex_less(a, z, depth, budget).is_certified \
            or not lex_less(z, b, depth, budget).is_certified:
        raise UndecidedError("z must be certified interior to (a, b)")
    if kind not in ("st", "e"):
        raise ValueError("kind must be 'st' or 'e'")
    left, right = z - a, b - z
    for k in range(1, depth + 1):
        r = from_rational(Fraction(1, k)) if kind == "st" else monomial(1, k)
        if lex_less(r, left, depth, budget).is_certified and \
                lex_less(r, right, depth, budget).is_certified:
            return certified(depth, witness=("1/n" if kind == "st" else "eps^m", k))
    if kind == "st":
        for side, name in ((left, "left"), (right, "right")):
            side_li = leading_index(side, depth, budget)
            if side_li.is_certified and side_li.witness >= 1:
                return refuted(depth, witness=(name, side_li.witness),
                               reason="gap is infinitesimal: every rational "
                                      "radius reaches outside the interval")
    return unknown(depth, reason="no radius certified within depth")
