"""Expression trees over one variable, the infinitesimal and infinite units.

The tree is purely symbolic; evaluation over coefficient streams lives in
`calculus`.  This module also carries the symbolic tools built on the
trees: the classical derivative used as the reference for the derivative
comparison set, substitution for composition, a polynomial classifier that
the continuity checkers use to certify moduli, and text echo.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields
from fractions import Fraction

from .number import PartSelector
from .verdict import DomainError

_OPS = ("<=", "<", "=", ">", ">=")


class Expr:
    __slots__ = ()

    def children(self) -> tuple:
        """The direct subtrees, in field order."""
        return tuple(getattr(self, name) for name in _subtree_fields(type(self)))

    def rebuild(self, fn) -> "Expr":
        """A copy with `fn` applied to every direct subtree; a leaf comes
        back unchanged."""
        names = _subtree_fields(type(self))
        if not names:
            return self
        values = dict(vars(self))
        for name in names:
            values[name] = fn(values[name])
        return type(self)(**values)

    def __add__(self, other):
        return Add(self, _as_expr(other))

    def __radd__(self, other):
        return Add(_as_expr(other), self)

    def __sub__(self, other):
        return Sub(self, _as_expr(other))

    def __rsub__(self, other):
        return Sub(_as_expr(other), self)

    def __mul__(self, other):
        return Mul(self, _as_expr(other))

    def __rmul__(self, other):
        return Mul(_as_expr(other), self)

    def __truediv__(self, other):
        return Div(self, _as_expr(other))

    def __rtruediv__(self, other):
        return Div(_as_expr(other), self)

    def __pow__(self, k):
        return PowInt(self, k)

    def __neg__(self):
        return Sub(Const(0), self)


@functools.cache
def _subtree_fields(cls) -> tuple:
    """Names of the fields of a node class annotated `Expr`: its subtrees,
    in order."""
    return tuple(f.name for f in fields(cls) if f.type == "Expr")


def _as_expr(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, Fraction)):
        return Const(x)
    raise TypeError(f"cannot treat {x!r} as an expression")


@dataclass(frozen=True)
class Var(Expr):
    name: str = "x"


@dataclass(frozen=True)
class Const(Expr):
    value: object   # exact rational

    def __post_init__(self):
        if not isinstance(self.value, (int, Fraction)):
            raise TypeError("constants must be exact rationals")


@dataclass(frozen=True)
class EpsilonLit(Expr):
    pass


@dataclass(frozen=True)
class OmegaLit(Expr):
    pass


@dataclass(frozen=True)
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Sub(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Mul(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Div(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class PowInt(Expr):
    base: Expr
    exponent: int

    def __post_init__(self):
        if not isinstance(self.exponent, int) or self.exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")


@dataclass(frozen=True)
class PowSym(Expr):
    """Power with a symbolic exponent; only sequence terms use this, and the
    exponent must resolve to a nonnegative integer at evaluation time."""
    base: Expr
    exponent: Expr


@dataclass(frozen=True)
class Sin(Expr):
    arg: Expr


@dataclass(frozen=True)
class Cos(Expr):
    arg: Expr


@dataclass(frozen=True)
class Exp(Expr):
    arg: Expr


@dataclass(frozen=True)
class Sign(Expr):
    arg: Expr


@dataclass(frozen=True)
class Abs(Expr):
    arg: Expr


@dataclass(frozen=True)
class Part(Expr):
    selector: PartSelector
    arg: Expr


@dataclass(frozen=True)
class PiecewiseSt(Expr):
    """Branch on the standard part of `subject` against a rational bound."""
    op: str
    bound: object
    then_branch: Expr
    else_branch: Expr
    subject: Expr = Var()

    def __post_init__(self):
        if self.op not in _OPS:
            raise ValueError(f"predicate must be one of {_OPS}")


X = Var()


def substitute(tree: Expr, replacement: Expr, name: str = "x") -> Expr:
    """Plug `replacement` in for the named variable (composition)."""
    def go(t):
        if isinstance(t, Var):
            return replacement if t.name == name else t
        return t.rebuild(go)
    return go(tree)


def contains(tree: Expr, node_types) -> bool:
    return isinstance(tree, node_types) or any(
        contains(child, node_types) for child in tree.children())


# -- classical symbolic derivative ------------------------------------------------

def classical_derivative(f: Expr, sign_convention: bool = False) -> Expr:
    """Symbolic derivative with the usual rules.

    Outside the differentiable fragment this raises, except that with
    `sign_convention=True` a sign node differentiates to zero everywhere
    (its graph is flat across every infinitesimal neighbourhood).
    """
    def d(t):
        if isinstance(t, Var):
            return Const(1)
        if isinstance(t, Const):
            return Const(0)
        if isinstance(t, (EpsilonLit, OmegaLit)):
            raise DomainError("unit literals are not classical functions")
        if isinstance(t, Add):
            return Add(d(t.left), d(t.right))
        if isinstance(t, Sub):
            return Sub(d(t.left), d(t.right))
        if isinstance(t, Mul):
            return Add(Mul(d(t.left), t.right), Mul(t.left, d(t.right)))
        if isinstance(t, Div):
            num = Sub(Mul(d(t.left), t.right), Mul(t.left, d(t.right)))
            return Div(num, PowInt(t.right, 2))
        if isinstance(t, PowInt):
            if t.exponent == 0:
                return Const(0)
            return Mul(Mul(Const(t.exponent), PowInt(t.base, t.exponent - 1)),
                       d(t.base))
        if isinstance(t, Sin):
            return Mul(Cos(t.arg), d(t.arg))
        if isinstance(t, Cos):
            return Sub(Const(0), Mul(Sin(t.arg), d(t.arg)))
        if isinstance(t, Exp):
            return Mul(Exp(t.arg), d(t.arg))
        if isinstance(t, Sign):
            if sign_convention:
                return Const(0)
            raise DomainError("sign is not in the differentiable fragment")
        raise DomainError(f"{type(t).__name__} is not in the differentiable fragment")
    return d(f)


# -- polynomial classification -----------------------------------------------------

def as_polynomial(f: Expr, name: str = "x"):
    """Coefficient list (ascending) when f is a rational-coefficient
    polynomial in the named variable, else None."""
    def go(t):
        if isinstance(t, Var):
            return [Fraction(0), Fraction(1)] if t.name == name else None
        if isinstance(t, Const):
            return [Fraction(t.value)]
        if isinstance(t, Add):
            a, b = go(t.left), go(t.right)
            return None if a is None or b is None else _poly_add(a, b)
        if isinstance(t, Sub):
            a, b = go(t.left), go(t.right)
            return None if a is None or b is None else _poly_add(a, [-c for c in b])
        if isinstance(t, Mul):
            a, b = go(t.left), go(t.right)
            return None if a is None or b is None else _poly_mul(a, b)
        if isinstance(t, Div):
            a, b = go(t.left), go(t.right)
            if a is None or b is None or len(_poly_trim(b)) != 1:
                return None
            c = b[0]
            if c == 0:
                return None
            return [q / c for q in a]
        if isinstance(t, PowInt):
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


def poly_local_lipschitz(coeffs, center: Fraction) -> Fraction:
    """Rational L with |p(x) - p(c)| <= L|x - c| whenever |x - c| <= 1 and
    the point has no infinite part.

    Pure algebra (no mean value theorem): p(x) - p(c) factors as
    (x - c) * q(x, c); with `center` the standard part of an
    infinite-part-free point, every monomial of q is bounded by powers of
    |center| + 2 (the +2 absorbs the infinitesimal tail and the unit
    displacement), which is valid in any ordered field extension.
    """
    bound = abs(Fraction(center)) + 2
    l = Fraction(0)
    for k, c in enumerate(coeffs):
        if k >= 1 and c != 0:
            l += abs(c) * k * bound ** (k - 1)
    return l if l > 0 else Fraction(0)


# -- text echo ---------------------------------------------------------------------

_GROSSONE = "①"

# The surface syntax has no functions for the non-infinitesimal and
# non-infinite parts; they echo as the sums that define them.
_PART_TEXT = {
    PartSelector.ST: "St({0})",
    PartSelector.NST_EPSILON: "NstE({0})",
    PartSelector.NST_OMEGA: "NstW({0})",
    PartSelector.NI_EPSILON: "(NstW({0}) + St({0}))",
    PartSelector.NI_OMEGA: "(St({0}) + NstE({0}))",
}


def to_text(f: Expr, grossone: bool = False) -> str:
    """Render an expression back to parseable surface syntax.  With
    `grossone=True` the infinite unit echoes as the circled-one symbol."""
    def bin_(t, sym, prec):
        return f"{go(t.left, prec)} {sym} {go(t.right, prec + 1)}"

    def go(t, parent_prec=0):
        if isinstance(t, Var):
            return t.name
        if isinstance(t, Const):
            v = Fraction(t.value)
            s = str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
            return s if v >= 0 else f"({s})"
        if isinstance(t, EpsilonLit):
            return "eps"
        if isinstance(t, OmegaLit):
            return _GROSSONE if grossone else "w"
        if isinstance(t, (Add, Sub)):
            text = bin_(t, "+" if isinstance(t, Add) else "-", 1)
            return f"({text})" if parent_prec > 1 else text
        if isinstance(t, (Mul, Div)):
            text = bin_(t, "*" if isinstance(t, Mul) else "/", 2)
            return f"({text})" if parent_prec > 2 else text
        if isinstance(t, PowInt):
            return f"{go(t.base, 4)}^{t.exponent}"
        if isinstance(t, PowSym):
            return f"{go(t.base, 4)}^({go(t.exponent)})"
        if isinstance(t, (Sin, Cos, Exp, Sign, Abs)):
            fname = type(t).__name__.lower()
            return f"{fname}({go(t.arg)})"
        if isinstance(t, Part):
            return _PART_TEXT[t.selector].format(go(t.arg))
        if isinstance(t, PiecewiseSt):
            return (f"piecewise(St({go(t.subject)}) {t.op} {t.bound}, "
                    f"{go(t.then_branch)}, {go(t.else_branch)})")
        raise TypeError(f"unknown node {t!r}")
    return go(f)
