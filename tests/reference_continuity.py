"""Reference copy of `rzl.continuity` as it stood before its checkers were
put on a shared certifier, refuter and per-tolerance driver; the
differential test in test_checker_reference.py compares against it.

The original module docstring follows.

Depth-bounded continuity verifiers.

Three notions are checked at a point: the classical rational-radius
definition (both tolerance and neighbourhood of the form 1/n), the
stream-radius definition (both radii arbitrary positive streams), and the
graded (k,n) form where the tolerance lives at infinitesimal order k and
the neighbourhood at order n.

Quantifiers over the whole field are undecidable, so each checker splits
into a certification side (closed-form moduli for a whitelisted class:
constants, polynomials via an algebraic local Lipschitz bound, and
standard-part branch functions whose pieces are in the class) and a
refutation side (a structured, reproducible grid of witness points).
Anything else is answered Unknown, with budgets recorded.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction

from reference_order import within_radius

from rzl import expr as E
from rzl.calculus import evaluate
from rzl.number import (
    DEFAULT_DEPTH,
    RzlNumber,
    as_number,
    from_rational,
    monomial,
)
from rzl.order import lex_less
from rzl.scalar import PRECISION_BUDGET, is_rational_scalar
from rzl.verdict import UndecidedError, Verdict, certified, refuted, unknown

_HALF = Fraction(1, 2)


@dataclass(frozen=True)
class GridBudget:
    """Structured witness grid: rational coefficients, a ceiling on the
    infinitesimal order of displacements, and a candidate cap."""
    coefficients: tuple = (Fraction(1), _HALF, Fraction(1, 4), Fraction(1, 8))
    max_index: int = 4
    count: int = 64


@dataclass(frozen=True)
class ContinuityQuery:
    f: E.Expr
    point: RzlNumber
    k: int = 0
    n: int = 0
    witness_budget: GridBudget = field(default_factory=GridBudget)

    def __post_init__(self):
        if self.k < 0 or self.n < 0:
            raise ValueError("k and n must be nonnegative")


# -- function classification for the certification whitelist ------------------------

def _classify(f: E.Expr):
    """("const", c) | ("poly", coeffs) | ("piecewise", node) | None."""
    coeffs = E.as_polynomial(f)
    if coeffs is not None:
        if len(coeffs) == 1:
            return ("const", coeffs[0])
        return ("poly", coeffs)
    if isinstance(f, E.PiecewiseSt):
        if E.as_polynomial(f.subject) is None:
            return None
        for branch in (f.then_branch, f.else_branch):
            if _classify(branch) is None:
                return None
        return ("piecewise", f)
    return None


def _branch_at(f: E.PiecewiseSt, c: RzlNumber, budget: int):
    """The branch active at c (and at every point infinitesimally close to
    it, since the predicate reads only standard parts)."""
    from rzl.calculus import _compare_scalar
    st = evaluate(f.subject, c, budget=budget)[0]
    taken = _compare_scalar(st, f.op, f.bound, budget)
    return f.then_branch if taken else f.else_branch


def _omega_free(c: RzlNumber) -> bool:
    """Provably no infinite part (rational zeros on all negative indices)."""
    return all(is_rational_scalar(c[i]) and c[i] == 0 for i in range(c.low, 0))


def _lipschitz_at(coeffs, c: RzlNumber):
    # the local bound argument needs a finite point: degree >= 2 terms are
    # unbounded along the infinite unit, so an omega part voids the rule
    if len(coeffs) > 2 and not _omega_free(c):
        return None
    st = c[0]
    if not is_rational_scalar(st):
        return None
    return E.poly_local_lipschitz(coeffs, Fraction(st))


def _certify_kn(f: E.Expr, c: RzlNumber, k: int, n: int, depth: int,
                precision: int) -> Verdict | None:
    cls = _classify(f)
    if cls is None:
        return None
    kind = cls[0]
    if kind == "const":
        return certified(depth, witness={"rule": "constant"},
                         reason="constant functions meet every grade")
    if kind == "poly":
        if k > n:
            return None
        lip = _lipschitz_at(cls[1], c)
        if lip is None:
            return None
        return certified(depth, witness={
            "rule": "poly-lipschitz", "L": str(lip),
            "eps2": f"min(1, eps1/(2*max(L,1))) scaled into order {n}"},
            reason="algebraic Lipschitz modulus on |x-c| <= 1")
    if kind == "piecewise":
        if n < 1:
            return None   # only infinitesimal radii freeze the branch
        if not isinstance(cls[1].subject, E.Var) and not _omega_free(c):
            return None   # nonlinear subjects may amplify omega parts
        try:
            branch = _branch_at(cls[1], c, precision)
        except UndecidedError:
            return None
        inner = _certify_kn(branch, c, k, n, depth, precision)
        if inner is None or not inner.is_certified:
            return None
        return certified(depth, witness={
            "rule": "branch-freeze", "branch": E.to_text(branch),
            "inner": inner.witness},
            reason="standard-part branch is constant on infinitesimal radii")
    return None


def _displacements(radius: RzlNumber, order_floor: int, budget: GridBudget,
                   depth: int, precision: int):
    """Rational-stream displacements certified strictly inside the radius."""
    out = []
    for j in range(order_floor, budget.max_index + 1):
        for q in budget.coefficients:
            for sgn in (1, -1):
                d = monomial(sgn * q * _HALF, j)
                if lex_less(d if sgn > 0 else -d, radius, depth, precision).is_certified:
                    out.append(d)
                if len(out) >= budget.count:
                    return out
    return out


def _violates(f: E.Expr, fc, x: RzlNumber, tolerance: RzlNumber,
              depth: int, precision: int) -> bool:
    """Is f(x) - f(c) provably outside the tolerance?  `fc()` gives f(c);
    the caller memoizes it, so one query evaluates f(c) once."""
    try:
        gap = evaluate(f, x, depth, precision) - fc()
    except UndecidedError:
        return False
    return within_radius(gap, tolerance, depth, precision).is_refuted


def _refute_kn(f: E.Expr, c: RzlNumber, k: int, n: int, budget: GridBudget,
               depth: int, precision: int) -> Verdict | None:
    fc = functools.cache(lambda: evaluate(f, c, depth, precision))
    for a1 in budget.coefficients[:2]:
        e1 = monomial(a1, k)
        rounds = []
        for a2 in budget.coefficients:
            e2 = monomial(a2, n)
            hit = None
            for d in _displacements(e2, n, budget, depth, precision):
                if _violates(f, fc, c + d, e1, depth, precision):
                    hit = d
                    break
            if hit is None:
                rounds = None
                break
            rounds.append((f"{a2}*eps^{n}", repr(hit)))
        if rounds is not None:
            return refuted(depth, witness={
                "eps1": f"{a1}*eps^{k}", "violations": rounds},
                caveat="radius family budgeted by the witness grid")
    return None


def check_kn_continuity(q: ContinuityQuery, depth: int = DEFAULT_DEPTH,
                        precision: int = PRECISION_BUDGET) -> Verdict:
    """Graded continuity at a point: every tolerance of infinitesimal order
    k admits a neighbourhood radius of order n."""
    c = as_number(q.point)
    cert = _certify_kn(q.f, c, q.k, q.n, depth, precision)
    if cert is not None:
        return cert
    ref = _refute_kn(q.f, c, q.k, q.n, q.witness_budget, depth, precision)
    if ref is not None:
        return ref
    return unknown(depth, reason="outside the certifiable class and no grid "
                                 "violation found")


def check_kn_grid(f: E.Expr, point: RzlNumber, kmax: int, nmax: int,
                  budget: GridBudget | None = None,
                  depth: int = DEFAULT_DEPTH,
                  precision: int = PRECISION_BUDGET) -> dict:
    """All verdicts on the (k,n) lattice up to the given bounds."""
    budget = budget or GridBudget()
    return {(k, n): check_kn_continuity(
        ContinuityQuery(f, point, k, n, budget), depth, precision)
        for k in range(kmax + 1) for n in range(nmax + 1)}


# -- classical rational-radius definition ---------------------------------------------

def check_ed_class(f: E.Expr, point: RzlNumber, depth: int = DEFAULT_DEPTH,
                   budget: GridBudget | None = None,
                   precision: int = PRECISION_BUDGET) -> Verdict:
    """Continuity with tolerance 1/n and neighbourhood 1/m, both rational."""
    budget = budget or GridBudget()
    c = as_number(point)
    cls = _classify(f)
    if cls is not None and cls[0] == "const":
        return certified(depth, witness={"rule": "constant"})
    if cls is not None and cls[0] == "poly":
        lip = _lipschitz_at(cls[1], c)
        if lip is not None:
            bound = max(1, -(-lip.numerator // lip.denominator))
            return certified(depth, witness={
                "rule": "poly-lipschitz", "L": str(lip),
                "modulus": f"m(n) = {bound}*n"},
                reason="computed modulus of continuity")
    # refutation: a tolerance 1/n violated inside every rational radius 1/m
    fc = functools.cache(lambda: evaluate(f, c, depth, precision))
    for n_tol in (1, 2, 4):
        tol = from_rational(Fraction(1, n_tol))
        rounds = []
        for m in (1, 2, 4, 8, 16, 32):
            hit = None
            for q_c in budget.coefficients:
                for sgn in (1, -1):
                    d = from_rational(sgn * q_c * _HALF * Fraction(1, m))
                    if _violates(f, fc, c + d, tol, depth, precision):
                        hit = d
                        break
                if hit is not None:
                    break
            if hit is None:
                rounds = None
                break
            rounds.append((f"1/{m}", repr(hit)))
        if rounds is not None:
            return refuted(depth, witness={"tolerance": f"1/{n_tol}",
                                           "violations": rounds},
                           caveat="neighbourhood family budgeted")
    return unknown(depth, reason="outside the certifiable class and no grid "
                                 "violation found")


def check_ed(f: E.Expr, point: RzlNumber, depth: int = DEFAULT_DEPTH,
             budget: GridBudget | None = None,
             precision: int = PRECISION_BUDGET) -> Verdict:
    """Continuity with both radii arbitrary positive streams."""
    budget = budget or GridBudget()
    c = as_number(point)
    cert = _certify_ed(f, c, depth, precision)
    if cert is not None:
        return cert
    # refutation: some stream tolerance violated inside every budgeted radius
    fc = functools.cache(lambda: evaluate(f, c, depth, precision))
    for k_tol in range(0, 3):
        for a1 in budget.coefficients[:2]:
            e1 = monomial(a1, k_tol)
            rounds = []
            for j in range(0, budget.max_index + 1):
                for a2 in budget.coefficients:
                    e2 = monomial(a2, j)
                    hit = None
                    for d in _displacements(e2, j, budget, depth, precision):
                        if _violates(f, fc, c + d, e1, depth, precision):
                            hit = d
                            break
                    if hit is None:
                        rounds = None
                        break
                    rounds.append((f"{a2}*eps^{j}", repr(hit)))
                if rounds is None:
                    break
            if rounds is not None:
                return refuted(depth, witness={"tolerance": f"{a1}*eps^{k_tol}",
                                               "violations": rounds},
                               caveat="radius family budgeted")
    return unknown(depth, reason="outside the certifiable class and no grid "
                                 "violation found")


def _certify_ed(f: E.Expr, c: RzlNumber, depth: int,
                precision: int) -> Verdict | None:
    cls = _classify(f)
    if cls is None:
        return None
    if cls[0] == "const":
        return certified(depth, witness={"rule": "constant"})
    if cls[0] == "poly":
        lip = _lipschitz_at(cls[1], c)
        if lip is None:
            return None
        return certified(depth, witness={
            "rule": "poly-lipschitz", "L": str(lip),
            "eps2": "min(1, eps1/(2*max(L,1)))"},
            reason="stream radii scale through the Lipschitz bound")
    if cls[0] == "piecewise":
        if not isinstance(cls[1].subject, E.Var) and not _omega_free(c):
            return None
        try:
            branch = _branch_at(cls[1], c, precision)
        except UndecidedError:
            return None
        inner = _certify_ed(branch, c, depth, precision)
        if inner is None or not inner.is_certified:
            return None
        return certified(depth, witness={
            "rule": "branch-freeze", "branch": E.to_text(branch),
            "eps2": "min(inner radius, eps)", "inner": inner.witness},
            reason="infinitesimal radii cannot change the standard-part branch")
    return None
