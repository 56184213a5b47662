"""Reference copy of the expression passes as they stood before they ran
on one walk with handler tables: each is a recursive function, one call
per tree level, and a chain of + or * is evaluated one binary operation at
a time.  The differential tests in test_walk.py compare against it.

The part texts, which are not a pass, come from `rzl.expr`; the dense
polynomial helpers, a list of coefficients in ascending order, are copied
here as they stood.
"""

from __future__ import annotations

from fractions import Fraction

from rzl import expr as E
from rzl.calculus import branch_taken, transcendental
from rzl.expr import _GROSSONE, _PART_TEXT
from rzl.number import (
    DEFAULT_DEPTH,
    RzlNumber,
    as_number,
    divide,
    epsilon,
    from_scalar,
    omega,
    part,
)
from rzl.order import abs_val
from rzl.scalar import PRECISION_BUDGET, is_rational_scalar, scalar_sign
from rzl.verdict import DomainError, UndecidedError


def substitute(tree, replacement, name="x"):
    def go(t):
        if isinstance(t, E.Var):
            return replacement if t.name == name else t
        return t.rebuild(go)
    return go(tree)


def contains(tree, node_types) -> bool:
    return isinstance(tree, node_types) or any(
        contains(child, node_types) for child in tree.children())


def classical_derivative(f, sign_convention=False):
    def d(t):
        if isinstance(t, E.Var):
            return E.Const(1)
        if isinstance(t, E.Const):
            return E.Const(0)
        if isinstance(t, (E.EpsilonLit, E.OmegaLit)):
            raise DomainError("unit literals are not classical functions")
        if isinstance(t, E.Add):
            return E.Add(d(t.left), d(t.right))
        if isinstance(t, E.Sub):
            return E.Sub(d(t.left), d(t.right))
        if isinstance(t, E.Mul):
            return E.Add(E.Mul(d(t.left), t.right), E.Mul(t.left, d(t.right)))
        if isinstance(t, E.Div):
            num = E.Sub(E.Mul(d(t.left), t.right), E.Mul(t.left, d(t.right)))
            return E.Div(num, E.PowInt(t.right, 2))
        if isinstance(t, E.PowInt):
            if t.exponent == 0:
                return E.Const(0)
            return E.Mul(E.Mul(E.Const(t.exponent), E.PowInt(t.base, t.exponent - 1)),
                         d(t.base))
        if isinstance(t, E.Sin):
            return E.Mul(E.Cos(t.arg), d(t.arg))
        if isinstance(t, E.Cos):
            return E.Sub(E.Const(0), E.Mul(E.Sin(t.arg), d(t.arg)))
        if isinstance(t, E.Exp):
            return E.Mul(E.Exp(t.arg), d(t.arg))
        if isinstance(t, E.Sign):
            if sign_convention:
                return E.Const(0)
            raise DomainError("sign is not in the differentiable fragment")
        raise DomainError(f"{type(t).__name__} is not in the differentiable fragment")
    return d(f)


def _poly_add(a, b):
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
            for i in range(n)]


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def _poly_trim(a):
    while len(a) > 1 and a[-1] == 0:
        a = a[:-1]
    return [Fraction(c) for c in a]


def as_polynomial(f, name="x"):
    def go(t):
        if isinstance(t, E.Var):
            return [Fraction(0), Fraction(1)] if t.name == name else None
        if isinstance(t, E.Const):
            return [Fraction(t.value)]
        if isinstance(t, E.Add):
            a, b = go(t.left), go(t.right)
            return None if a is None or b is None else _poly_add(a, b)
        if isinstance(t, E.Sub):
            a, b = go(t.left), go(t.right)
            return None if a is None or b is None else _poly_add(a, [-c for c in b])
        if isinstance(t, E.Mul):
            a, b = go(t.left), go(t.right)
            return None if a is None or b is None else _poly_mul(a, b)
        if isinstance(t, E.Div):
            a, b = go(t.left), go(t.right)
            if a is None or b is None or len(_poly_trim(b)) != 1:
                return None
            c = b[0]
            if c == 0:
                return None
            return [q / c for q in a]
        if isinstance(t, E.PowInt):
            a = go(t.base)
            if a is None:
                return None
            out = [Fraction(1)]
            for _ in range(t.exponent):
                out = _poly_mul(out, a)
            return out
        return None
    coeffs = go(f)
    return None if coeffs is None else _poly_trim(coeffs)


def to_text(f, grossone=False):
    def bin_(t, sym, prec):
        return f"{go(t.left, prec)} {sym} {go(t.right, prec + 1)}"

    def go(t, parent_prec=0):
        if isinstance(t, E.Var):
            return t.name
        if isinstance(t, E.Const):
            v = Fraction(t.value)
            s = str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
            return s if v >= 0 else f"({s})"
        if isinstance(t, E.EpsilonLit):
            return "eps"
        if isinstance(t, E.OmegaLit):
            return _GROSSONE if grossone else "w"
        if isinstance(t, (E.Add, E.Sub)):
            text = bin_(t, "+" if isinstance(t, E.Add) else "-", 1)
            return f"({text})" if parent_prec > 1 else text
        if isinstance(t, (E.Mul, E.Div)):
            text = bin_(t, "*" if isinstance(t, E.Mul) else "/", 2)
            return f"({text})" if parent_prec > 2 else text
        if isinstance(t, E.PowInt):
            return f"{go(t.base, 4)}^{t.exponent}"
        if isinstance(t, E.PowSym):
            return f"{go(t.base, 4)}^({go(t.exponent)})"
        if isinstance(t, (E.Sin, E.Cos, E.Exp, E.Sign, E.Abs)):
            fname = type(t).__name__.lower()
            return f"{fname}({go(t.arg)})"
        if isinstance(t, E.Part):
            return _PART_TEXT[t.selector].format(go(t.arg))
        if isinstance(t, E.PiecewiseSt):
            return (f"piecewise(St({go(t.subject)}) {t.op} {t.bound}, "
                    f"{go(t.then_branch)}, {go(t.else_branch)})")
        raise TypeError(f"unknown node {t!r}")
    return go(f)


def _scalar_tree(f):
    if contains(f, (E.EpsilonLit, E.OmegaLit)):
        raise DomainError("unit literals have no scalar value")
    return f


def evaluate(f, x: RzlNumber, depth: int = DEFAULT_DEPTH,
             budget: int = PRECISION_BUDGET, var: str = "x") -> RzlNumber:
    x = as_number(x)

    def go(t) -> RzlNumber:
        if isinstance(t, E.Var):
            if t.name != var:
                raise DomainError(f"unbound variable {t.name!r}")
            return x
        if isinstance(t, E.Const):
            return from_scalar(t.value)
        if isinstance(t, E.EpsilonLit):
            return epsilon()
        if isinstance(t, E.OmegaLit):
            return omega()
        if isinstance(t, E.Add):
            return go(t.left) + go(t.right)
        if isinstance(t, E.Sub):
            return go(t.left) - go(t.right)
        if isinstance(t, E.Mul):
            return go(t.left) * go(t.right)
        if isinstance(t, E.Div):
            return divide(go(t.left), go(t.right), depth, budget)
        if isinstance(t, E.PowInt):
            return go(t.base) ** t.exponent
        if isinstance(t, E.PowSym):
            k = go(_scalar_tree(t.exponent))[0]
            if not is_rational_scalar(k) or Fraction(k).denominator != 1 or k < 0:
                raise ValueError("exponent must resolve to a nonnegative integer")
            return go(t.base) ** int(k)
        if isinstance(t, (E.Sin, E.Cos, E.Exp)):
            return transcendental(type(t).__name__.lower(), go(t.arg), depth, budget)
        if isinstance(t, E.Sign):
            s = scalar_sign(go(t.arg)[0], budget)
            if s is None:
                raise UndecidedError("undecided at depth: sign of standard part")
            return from_scalar(s)
        if isinstance(t, E.Abs):
            av = abs_val(go(t.arg), depth, budget)
            if not av.is_certified:
                raise UndecidedError("undecided at depth: absolute value", av)
            return av.value
        if isinstance(t, E.Part):
            return part(go(t.arg), t.selector)
        if isinstance(t, E.PiecewiseSt):
            return go(branch_taken(t, go(t.subject)[0], budget))
        raise TypeError(f"unknown node {t!r}")

    return go(f)


def resolve_piecewise(f, x: RzlNumber, budget: int):
    if not contains(f, E.PiecewiseSt):
        return f, False
    boundary = False

    def go(t):
        nonlocal boundary
        if not isinstance(t, E.PiecewiseSt):
            return t.rebuild(go)
        st = evaluate(t.subject, x, budget=budget)[0]
        if is_rational_scalar(st) and st == Fraction(t.bound):
            boundary = True
        return go(branch_taken(t, st, budget))

    return go(f), boundary
