"""Evaluation of expressions over coefficient streams, series
transcendentals, the quotient derivative and its permeation to the reals.

The derivative is the literal Newton quotient (f(x+eps) - f(x)) / eps,
kept exact: division by the canonical infinitesimal is an index shift, so
no leading-term search is ever needed.  Whether its standard part may be
carried over to plain real calculus is a separate, certificate-guarded
step: permeation requires the quotient's standard part to provably agree
with the symbolic derivative AND the evaluation point to be provably free
of nonstandard parts.

`evaluate` is one `expr.walk` with a handler per node class; each
operator node evaluates to the binary stream operator.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace

from . import expr as E
from .number import (
    DEFAULT_DEPTH,
    RzlNumber,
    _exact_zeros,
    as_number,
    convolution_sum,
    divide,
    epsilon,
    from_scalar,
    omega,
    part,
    recurrence,
)
from .order import DeltaSpec, abs_val, in_delta
from .scalar import (
    PRECISION_BUDGET,
    creal_elementary,
    is_rational_scalar,
    scalar_eq,
    scalar_sign,
)
from .verdict import (
    DomainError,
    UndecidedError,
    Verdict,
    certified,
    refuted,
    unknown,
)

_PREDICATES = {"<=": operator.le, "<": operator.lt, "=": operator.eq,
               ">": operator.gt, ">=": operator.ge}


def _compare_scalar(value, op: str, bound, budget: int):
    """Decide St-predicates exactly on rationals, by sign certificate on
    computable reals; raises when undecided."""
    s = scalar_sign(value - Fraction(bound), budget)
    if s is None:
        raise UndecidedError("undecided at depth: standard-part predicate")
    return _PREDICATES[op](s, 0)


def branch_taken(t: E.PiecewiseSt, st, budget: int) -> E.Expr:
    """The branch of t taken where its subject has standard part st (so also
    infinitesimally close by); raises when the predicate is undecided."""
    return t.then_branch if _compare_scalar(st, t.op, t.bound, budget) else t.else_branch


def _scalar_tree(f: E.Expr) -> E.Expr:
    """f, once known to hold no unit literal (so it has a scalar value)."""
    if E.contains(f, (E.EpsilonLit, E.OmegaLit)):
        raise DomainError("unit literals have no scalar value")
    return f


def evaluate(f: E.Expr, x: RzlNumber, depth: int = DEFAULT_DEPTH,
             budget: int = PRECISION_BUDGET, var: str = "x") -> RzlNumber:
    """Structural evaluation of an expression at a stream point: one walk
    with the `_EVALUATE` table, each node of a DAG evaluated once."""
    at = SimpleNamespace(x=as_number(x), var=var, depth=depth, budget=budget)
    return E.walk(f, _EVALUATE, at, memo={})


def _eval_var(t, at):
    if t.name != at.var:
        raise DomainError(f"unbound variable {t.name!r}")
    return at.x


def _eval_sym_power(t, at):
    # the exponent is read first, at its standard part
    k = (yield _scalar_tree(t.exponent))[0]
    if not is_rational_scalar(k) or Fraction(k).denominator != 1 or k < 0:
        raise ValueError("exponent must resolve to a nonnegative integer")
    return (yield t.base) ** int(k)


def _eval_sign(t, at):
    s = scalar_sign((yield t.arg)[0], at.budget)
    if s is None:
        raise UndecidedError("undecided at depth: sign of standard part")
    return from_scalar(s)


def _eval_abs(t, at):
    av = abs_val((yield t.arg), at.depth, at.budget)
    if not av.is_certified:
        raise UndecidedError("undecided at depth: absolute value", av)
    return av.value


_EVALUATE = {
    E.Var: _eval_var,
    E.Const: lambda t, at: from_scalar(t.value),
    E.EpsilonLit: lambda t, at: epsilon(),
    E.OmegaLit: lambda t, at: omega(),
    E.Add: lambda t, at: (yield t.left) + (yield t.right),
    E.Sub: lambda t, at: (yield t.left) - (yield t.right),
    E.Mul: lambda t, at: (yield t.left) * (yield t.right),
    E.Div: lambda t, at: divide((yield t.left), (yield t.right), at.depth, at.budget),
    E.PowInt: lambda t, at: (yield t.base) ** t.exponent,
    E.PowSym: _eval_sym_power,
    **dict.fromkeys((E.Sin, E.Cos, E.Exp), lambda t, at: transcendental(
        type(t).__name__.lower(), (yield t.arg), at.depth, at.budget)),
    E.Sign: _eval_sign,
    E.Abs: _eval_abs,
    E.Part: lambda t, at: part((yield t.arg), t.selector),
    E.PiecewiseSt: lambda t, at: (yield branch_taken(t, (yield t.subject)[0], at.budget)),
}


# -- series transcendentals ---------------------------------------------------------

def transcendental(kind: str, x: RzlNumber, depth: int = DEFAULT_DEPTH,
                   budget: int = PRECISION_BUDGET) -> RzlNumber:
    """sin/cos/exp of a stream with no infinite part.

    With s the standard part and d = Nst_eps(x) the infinitesimal
    displacement (d_j = x[j] for j >= 1), the series E = exp(d),
    S = sin(d) and C = cos(d) follow from the differential recurrences
    (Brent & Kung 1978):

        E_0 = 1,           k*E_k = sum(j*d_j*E_{k-j}, j = 1..k)
        S_0 = 0, C_0 = 1,  k*S_k = sum(j*d_j*C_{k-j}),
                           k*C_k = -sum(j*d_j*S_{k-j})

    and the addition formulas give exp(s+d) = e^s*E, sin(s+d) =
    sin s*C + cos s*S and cos(s+d) = cos s*C - sin s*S; at s = 0 the
    output is E, S or C itself.  The inner sums stop at j = D when d has
    finite support D, so K coefficients cost O(K*D) scalar operations, and
    O(K**2) for infinite support.  On a rational displacement the
    recurrences stay in exact rationals, and each output coefficient
    touches a computable real at most twice.

    A nonzero (or undecidable) coefficient at a negative index makes every
    output coefficient an infinite sum, so infinite arguments are rejected
    outright.
    """
    if kind not in ("sin", "cos", "exp"):
        raise ValueError(f"unknown series function {kind!r}")
    x = as_number(x)
    if not _exact_zeros(x, -1):
        raise DomainError("series undefined for infinite argument")
    s = x[0]
    if not is_rational_scalar(s):
        raise DomainError("series functions need an exact rational standard part")
    s = Fraction(s)
    top = x.finite_support
    weight = functools.cache(lambda j: j * x[j])   # j*d_j

    def weighted(k, seq, pick):
        """sum(j*d_j*seq[k-j][pick], j = 1..k), stopping at the support of d."""
        return convolution_sum(weight, lambda i: seq[i][pick], k, 1,
                               k if top is None else min(k, top))

    # Each entry is a tuple: (E_k,) for exp, (S_k, C_k) for sin and cos.
    if kind == "exp":
        exp_s = creal_elementary("exp", s) if s else 1
        series = recurrence(
            lambda k, e: (weighted(k, e, 0) * Fraction(1, k),), (1,))
    else:
        sin_s = creal_elementary("sin", s) if s else 0
        cos_s = creal_elementary("cos", s) if s else 1
        series = recurrence(
            lambda k, sc: (weighted(k, sc, 1) * Fraction(1, k),
                           weighted(k, sc, 0) * Fraction(-1, k)),
            (0, 1))

    def fn(k):
        if kind == "exp":
            return exp_s * series(k)[0]
        sk, ck = series(k)
        if kind == "sin":
            return sin_s * ck + cos_s * sk
        return cos_s * ck + sin_s * -sk

    fs = 0 if (top is not None and top <= 0) else None
    return RzlNumber(0, fn, finite_support=fs)


# -- Newton-quotient derivative ------------------------------------------------------

def der(f: E.Expr, x: RzlNumber, depth: int = DEFAULT_DEPTH,
        budget: int = PRECISION_BUDGET,
        displacement: RzlNumber | None = None) -> RzlNumber:
    """The exact quotient (f(x+d) - f(x)) / d, with d the canonical
    infinitesimal unless another displacement is supplied."""
    x = as_number(x)
    d = epsilon() if displacement is None else as_number(displacement)
    num = evaluate(f, x + d, depth, budget) - evaluate(f, x, depth, budget)
    if displacement is None:
        return num.shift(-1).trim_low()
    return divide(num, d, depth, budget).trim_low()


def eval_scalar(f: E.Expr, s, budget: int = PRECISION_BUDGET):
    """Evaluate an expression at a scalar (real) point: the standard part
    of its value at the constant stream s."""
    return evaluate(_scalar_tree(f), from_scalar(s), budget=budget)[0]


# -- the derivative comparison set ----------------------------------------------------

def _resolve_piecewise(f: E.Expr, x: RzlNumber, budget: int):
    """Specialize every branch node by the standard part of its subject at x.

    Returns (tree, boundary_hit): boundary_hit is set when some subject's
    standard part lands exactly on its bound, where the pieces meet and the
    classical derivative is not defined.  A tree without branch nodes comes
    back as itself.
    """
    if not E.contains(f, E.PiecewiseSt):
        return f, False
    boundary = []
    return E.walk(f, _RESOLVE, x, budget, boundary), bool(boundary)


def _resolve_branch(t, x, budget, boundary):
    st = evaluate(t.subject, x, budget=budget)[0]
    if is_rational_scalar(st) and st == Fraction(t.bound):
        boundary.append(t)
    return (yield branch_taken(t, st, budget))


_RESOLVE = {**dict.fromkeys(E.NODES, E.rebuilt), E.PiecewiseSt: _resolve_branch}


def _compare_derivatives(f: E.Expr, x: RzlNumber, depth: int, budget: int,
                         quotient: RzlNumber | None = None):
    """The comparison behind `in_E` and `permeate`, done once: returns the
    membership verdict and the classical derivative's value at St(x) (None
    when it has none).

    Branch nodes are resolved once.  `quotient` is der(f, x) when the
    caller already holds it; it is reused when resolution left f as it was.
    The sign convention applies throughout, which changes nothing on a
    tree without a sign node.
    """
    try:
        tree, boundary = _resolve_piecewise(f, x, budget)
    except (UndecidedError, DomainError, ZeroDivisionError) as exc:
        return unknown(depth, reason=f"quotient not evaluable: {exc}"), None
    if boundary:
        return refuted(depth, reason="classical derivative undefined "
                                     "at branch boundary"), None
    try:
        g = E.classical_derivative(tree, sign_convention=True)
        cls = eval_scalar(g, x[0], budget)
    except (UndecidedError, DomainError, ZeroDivisionError) as exc:
        cls, no_reference = None, exc
    try:
        if quotient is None or tree is not f:
            quotient = der(tree, x, depth, budget)
        st_d = quotient[0]
    except (UndecidedError, DomainError, ZeroDivisionError) as exc:
        return unknown(depth, reason=f"quotient not evaluable: {exc}"), cls
    if cls is None:
        return unknown(depth, reason=f"no classical reference: {no_reference}"), None
    eq = scalar_eq(st_d, cls, budget)
    if eq is True:
        reason = "sign-convention derivative" if E.contains(tree, E.Sign) else None
        return certified(depth, witness=("st", st_d, "classical", cls),
                         reason=reason), cls
    if eq is False:
        return refuted(depth, witness=("st", st_d, "classical", cls)), cls
    return unknown(depth, reason="standard-part comparison undecided"), cls


def in_E(f: E.Expr, x: RzlNumber, depth: int = DEFAULT_DEPTH,
         budget: int = PRECISION_BUDGET) -> Verdict:
    """Does the quotient derivative's standard part equal the classical
    derivative at the standard part of x?

    Exact (Certified/Refuted) on the rational fragment; computable-real
    comparisons fall back to bracket separation and may stay Unknown.  A
    sign node uses the flat-graph convention (derivative zero everywhere)
    and the verdict says so.
    """
    return _compare_derivatives(f, as_number(x), depth, budget)[0]


def is_microstable(f: E.Expr, sample_points, depth: int = DEFAULT_DEPTH,
                   budget: int = PRECISION_BUDGET) -> Verdict:
    """Check that an eps-displacement never changes the non-infinitesimal
    part of the value, on the given samples (a bounded check: Certified
    means certified on these samples)."""
    undecided = None
    count = 0
    for k, x in enumerate(sample_points):
        count += 1
        x = as_number(x)
        try:
            lhs = evaluate(f, x + epsilon(), depth, budget)
            rhs = evaluate(f, x, depth, budget)
        except (UndecidedError, DomainError, ZeroDivisionError) as exc:
            return unknown(depth, witness=("sample", k),
                           reason=f"not evaluable at sample: {exc}")
        lo = min(lhs.low, rhs.low)
        for i in range(lo, 1):
            eq = scalar_eq(lhs[i], rhs[i], budget)
            if eq is False:
                return refuted(depth, witness=("sample", k, "index", i))
            if eq is None:
                undecided = ("sample", k, "index", i)
    if undecided is not None:
        return unknown(depth, witness=undecided,
                       reason="coefficient comparison undecided")
    return certified(depth, reason="certified on the given samples",
                     caveat=f"{count} sample points")


# -- permeation ------------------------------------------------------------------------

@dataclass(frozen=True)
class DerivativeReport:
    der_value: RzlNumber
    standard_part: object
    classical_value: object | None
    in_e: Verdict
    permeated: object | None
    reason: str | None = None


def permeate(f: E.Expr, x: RzlNumber, depth: int = DEFAULT_DEPTH,
             budget: int = PRECISION_BUDGET) -> DerivativeReport:
    """Full derivative report; the permeated field is populated only when
    membership in the comparison set is certified and the point provably
    has no nonstandard part."""
    x = as_number(x)
    d = der(f, x, depth, budget)
    st = d[0]
    verdict, classical = _compare_derivatives(f, x, depth, budget, quotient=d)
    nst_zero = in_delta(x, DeltaSpec(0), depth, budget)   # Nst(x) = 0
    if verdict.is_certified and nst_zero.is_certified:
        return DerivativeReport(d, st, classical, verdict, permeated=st)
    if not verdict.is_certified:
        reason = "membership in the derivative comparison set not certified"
    elif nst_zero.is_refuted:
        reason = "Nst(x) != 0"
    else:
        reason = "Nst(x) not certified zero"
    return DerivativeReport(d, st, classical, verdict, permeated=None,
                            reason=reason)
