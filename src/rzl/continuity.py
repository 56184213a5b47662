"""Depth-bounded continuity verifiers.

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
from dataclasses import dataclass
from fractions import Fraction

from . import expr as E
from .calculus import branch_taken, evaluate
from .number import (
    DEFAULT_DEPTH,
    RzlNumber,
    _exact_zeros,
    as_number,
    from_rational,
    monomial,
)
from .order import within_radius
from .scalar import PRECISION_BUDGET, is_rational_scalar
from .verdict import UndecidedError, Verdict, certified, refuted, unknown

_HALF = Fraction(1, 2)
# the structured witness grid: rational coefficients, a ceiling on the
# infinitesimal order of displacements, and a cap on candidates per radius
_GRID_COEFFICIENTS = (Fraction(1), _HALF, Fraction(1, 4), Fraction(1, 8))
_GRID_MAX_INDEX = 4
_GRID_COUNT = 64


@dataclass(frozen=True)
class ContinuityQuery:
    f: E.Expr
    point: RzlNumber
    k: int = 0
    n: int = 0

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


def _lipschitz_at(coeffs, c: RzlNumber):
    # the local bound argument needs a finite point: degree >= 2 terms are
    # unbounded along the infinite unit, so an omega part voids the rule
    if len(coeffs) > 2 and not _exact_zeros(c, -1):
        return None
    st = c[0]
    if not is_rational_scalar(st):
        return None
    return E.poly_local_lipschitz(coeffs, Fraction(st))


def _certify(f: E.Expr, c: RzlNumber, rules: dict, depth: int,
             precision: int) -> Verdict | None:
    """Certify f at c through the whitelist, or None.

    `rules` maps a class -- "const", "poly", "piecewise" -- to a function
    giving the (witness, reason) of its certificate: of nothing for a
    constant, of the Lipschitz bound for a polynomial, and of the frozen
    branch and its inner witness for a branch function.  A class left out
    is not certifiable at the queried grade.
    """
    cls = _classify(f)
    if cls is None or cls[0] not in rules:
        return None
    kind, data = cls
    if kind == "const":
        arg = ()
    elif kind == "poly":
        lip = _lipschitz_at(data, c)
        if lip is None:
            return None
        arg = (lip,)
    else:
        if not isinstance(data.subject, E.Var) and not _exact_zeros(c, -1):
            return None   # nonlinear subjects may amplify omega parts
        try:
            branch = branch_taken(
                data, evaluate(data.subject, c, budget=precision)[0], precision)
        except UndecidedError:
            return None
        inner = _certify(branch, c, rules, depth, precision)
        if inner is None:
            return None
        arg = (branch, inner.witness)
    witness, reason = rules[kind](*arg)
    return certified(depth, witness=witness, reason=reason)


def _stream_tolerances(coefficients, orders):
    """(label, a*eps^j) for every order j and coefficient a."""
    return [(f"{a}*eps^{j}", monomial(a, j)) for j in orders for a in coefficients]


def _stream_radii(orders, depth: int):
    """(label, candidates) for the radii a*eps^j on the grid; `candidates()`
    lists the first `_GRID_COUNT` grid displacements ±h*eps^i (h = q/2), i
    from the lowest order up, that `lex_less(h*eps^i, a*eps^j, depth)`
    certifies; for i, j >= 0: j <= depth, and i > j or h < a at i == j."""
    grid = [(i, q * _HALF, (monomial(q * _HALF, i), monomial(-q * _HALF, i)))
            for i in range(min(orders), _GRID_MAX_INDEX + 1) for q in _GRID_COEFFICIENTS]

    def candidates(a, j):
        return [d for i, h, pair in grid
                if j <= depth and (i > j or (i == j and h < a))
                for d in pair][:_GRID_COUNT]
    return [(f"{a}*eps^{j}", lambda a=a, j=j: candidates(a, j))
            for j in orders for a in _GRID_COEFFICIENTS]


def _refute(f: E.Expr, c: RzlNumber, tolerances, radii, tolerance_key: str,
            caveat: str, depth: int, precision: int) -> Verdict:
    """Refuted with the first tolerance violated inside every radius, or
    Unknown.

    `tolerances` holds (label, tolerance) pairs and `radii` holds (label,
    candidates) pairs, `candidates()` listing displacements inside that
    radius; each list is built once per query, when first needed, and
    f(c + d) - f(c) once per displacement d.  The witness names the
    tolerance under `tolerance_key` and, per radius, its label and the
    first displacement d with f(c + d) outside the tolerance.
    """
    fc = functools.cache(lambda: evaluate(f, c, depth, precision))
    radii = [(label, functools.cache(candidates)) for label, candidates in radii]
    gaps = {}

    def violates(d, tol):
        if d not in gaps:   # None when f(c + d) - f(c) is undecided
            try:
                gaps[d] = evaluate(f, c + d, depth, precision) - fc()
            except UndecidedError:
                gaps[d] = None
        return gaps[d] is not None and \
            within_radius(gaps[d], tol, depth, precision).is_refuted

    for tol_label, tol in tolerances:
        rounds = []
        for label, candidates in radii:
            hit = next((d for d in candidates() if violates(d, tol)), None)
            if hit is None:
                break
            rounds.append((label, repr(hit)))
        else:
            return refuted(depth, witness={tolerance_key: tol_label, "violations": rounds},
                           caveat=caveat)
    return unknown(depth, reason="outside the certifiable class and no grid "
                                 "violation found")


def check_kn_continuity(q: ContinuityQuery, depth: int = DEFAULT_DEPTH,
                        precision: int = PRECISION_BUDGET) -> Verdict:
    """Graded continuity at a point: every tolerance of infinitesimal order
    k admits a neighbourhood radius of order n."""
    c = as_number(q.point)
    k, n = q.k, q.n
    rules = {"const": lambda: ({"rule": "constant"},
                               "constant functions meet every grade")}
    if k <= n:
        rules["poly"] = lambda lip: (
            {"rule": "poly-lipschitz", "L": str(lip),
             "eps2": f"min(1, eps1/(2*max(L,1))) scaled into order {n}"},
            "algebraic Lipschitz modulus on |x-c| <= 1")
    if n >= 1:   # only infinitesimal radii freeze the branch
        rules["piecewise"] = lambda branch, inner: (
            {"rule": "branch-freeze", "branch": E.to_text(branch), "inner": inner},
            "standard-part branch is constant on infinitesimal radii")
    cert = _certify(q.f, c, rules, depth, precision)
    if cert is not None:
        return cert
    return _refute(q.f, c, _stream_tolerances(_GRID_COEFFICIENTS[:2], (k,)),
                   _stream_radii((n,), depth), "eps1",
                   "radius family budgeted by the witness grid", depth, precision)


def check_kn_grid(f: E.Expr, point: RzlNumber, kmax: int, nmax: int,
                  depth: int = DEFAULT_DEPTH,
                  precision: int = PRECISION_BUDGET) -> dict:
    """All verdicts on the (k,n) lattice up to the given bounds."""
    return {(k, n): check_kn_continuity(
        ContinuityQuery(f, point, k, n), depth, precision)
        for k in range(kmax + 1) for n in range(nmax + 1)}


# -- classical rational-radius definition ---------------------------------------------

def check_ed_class(f: E.Expr, point: RzlNumber, depth: int = DEFAULT_DEPTH,
                   precision: int = PRECISION_BUDGET) -> Verdict:
    """Continuity with tolerance 1/n and neighbourhood 1/m, both rational."""
    c = as_number(point)

    def modulus(lip):
        bound = max(1, -(-lip.numerator // lip.denominator))
        return ({"rule": "poly-lipschitz", "L": str(lip),
                 "modulus": f"m(n) = {bound}*n"}, "computed modulus of continuity")

    cert = _certify(f, c, {"const": lambda: ({"rule": "constant"}, None),
                           "poly": modulus}, depth, precision)
    if cert is not None:
        return cert
    # refutation: a tolerance 1/n violated inside every rational radius 1/m
    tolerances = [(f"1/{n}", from_rational(Fraction(1, n))) for n in (1, 2, 4)]
    points = {}   # the radii share grid values: one displacement per value

    def grid(m):
        return [points.setdefault(v, from_rational(v)) for v in
                (sgn * q * _HALF / m for q in _GRID_COEFFICIENTS for sgn in (1, -1))]
    radii = [(f"1/{m}", lambda m=m: grid(m)) for m in (1, 2, 4, 8, 16, 32)]
    return _refute(f, c, tolerances, radii, "tolerance",
                   "neighbourhood family budgeted", depth, precision)


def check_ed(f: E.Expr, point: RzlNumber, depth: int = DEFAULT_DEPTH,
             precision: int = PRECISION_BUDGET) -> Verdict:
    """Continuity with both radii arbitrary positive streams."""
    c = as_number(point)
    rules = {
        "const": lambda: ({"rule": "constant"}, None),
        "poly": lambda lip: ({"rule": "poly-lipschitz", "L": str(lip),
                              "eps2": "min(1, eps1/(2*max(L,1)))"},
                             "stream radii scale through the Lipschitz bound"),
        "piecewise": lambda branch, inner: (
            {"rule": "branch-freeze", "branch": E.to_text(branch),
             "eps2": "min(inner radius, eps)", "inner": inner},
            "infinitesimal radii cannot change the standard-part branch"),
    }
    cert = _certify(f, c, rules, depth, precision)
    if cert is not None:
        return cert
    # refutation: some stream tolerance violated inside every budgeted radius
    return _refute(f, c, _stream_tolerances(_GRID_COEFFICIENTS[:2], range(3)),
                   _stream_radii(range(_GRID_MAX_INDEX + 1), depth),
                   "tolerance", "radius family budgeted", depth, precision)
