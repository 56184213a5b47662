"""Expression trees over one variable, the infinitesimal and infinite units.

The tree is purely symbolic; evaluation over coefficient streams lives in
`calculus`.  This module also carries the symbolic tools built on the
trees: the classical derivative used as the reference for the derivative
comparison set, substitution for composition, a polynomial classifier that
the continuity checkers use to certify moduli, and text echo.

Every pass over a tree, here and in `calculus`, is one `walk` with a table
from node class to handler, kept on an explicit stack: a chain of any
length passes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields
from fractions import Fraction
from types import GeneratorType

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
        handler, value = rebuilt(self), None
        try:
            while True:
                value = fn(handler.send(value))
        except StopIteration as done:
            return done.value

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

NODES = tuple(Expr.__subclasses__())   # every node class


# -- the one tree walk ---------------------------------------------------------------

def walk(tree: Expr, handlers: dict, *args, memo: dict | None = None):
    """The value of `tree` under a pass: a table from node class to a
    handler, called as handler(node, *args).  A handler returns its node's
    value, or is a generator that yields each subtree whose value it needs,
    when it needs it, and is sent that value.  Suspended handlers wait on an
    explicit stack.  With a `memo` dict, a node met again (a shared subtree
    of a DAG) keeps the value of its first visit."""
    stack, node = [], tree
    while True:
        if memo is not None and id(node) in memo:
            value = memo[id(node)]
        else:
            handler = handlers.get(type(node))
            if handler is None:
                raise TypeError(f"unknown node {node!r}")
            value = handler(node, *args)
            if type(value) is GeneratorType:
                stack.append((value, node))
                value = None
        while stack:
            handler, node = stack[-1]
            try:
                node = handler.send(value)
                break
            except StopIteration as done:
                stack.pop()
                value = done.value
                if memo is not None:
                    memo[id(node)] = value
        else:
            return value


def rebuilt(t: Expr, *_):
    """Handler: t with every subtree replaced by its value."""
    names = _subtree_fields(type(t))
    if not names:
        return t
    values = dict(vars(t))
    for name in names:
        values[name] = yield values[name]
    return type(t)(**values)


def substitute(tree: Expr, replacement: Expr, name: str = "x") -> Expr:
    """Plug `replacement` in for the named variable (composition)."""
    return walk(tree, _SUBSTITUTE, replacement, name)


_SUBSTITUTE = {**dict.fromkeys(NODES, rebuilt),
               Var: lambda t, replacement, name: replacement if t.name == name else t}


def contains(tree: Expr, node_types) -> bool:
    # a subtree shared by several parents, as in a derivative, is seen once
    stack, seen = [tree], set()
    while stack:
        node = stack.pop()
        if isinstance(node, node_types):
            return True
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node.children())
    return False


# -- classical symbolic derivative ------------------------------------------------

def classical_derivative(f: Expr, sign_convention: bool = False) -> Expr:
    """Symbolic derivative with the usual rules.

    Outside the differentiable fragment this raises, except that with
    `sign_convention=True` a sign node differentiates to zero everywhere
    (its graph is flat across every infinitesimal neighbourhood).
    """
    return walk(f, _DERIVATIVE, sign_convention)


_OUTSIDE = {EpsilonLit: "unit literals are not classical functions",
            OmegaLit: "unit literals are not classical functions",
            Sign: "sign is not in the differentiable fragment"}


def _d_outside(t, sign_convention):
    """Handler for a node outside the differentiable fragment, where the
    sign convention makes a sign node's derivative zero."""
    if type(t) is Sign and sign_convention:
        return Const(0)
    raise DomainError(_OUTSIDE.get(type(t), f"{type(t).__name__} is not in the "
                                            "differentiable fragment"))


_DERIVATIVE = {
    **dict.fromkeys(NODES, _d_outside),
    Var: lambda t, _: Const(1),
    Const: lambda t, _: Const(0),
    **dict.fromkeys((Add, Sub), lambda t, _: type(t)((yield t.left), (yield t.right))),
    Mul: lambda t, _: Add(Mul((yield t.left), t.right), Mul(t.left, (yield t.right))),
    Div: lambda t, _: Div(Sub(Mul((yield t.left), t.right), Mul(t.left, (yield t.right))),
                          PowInt(t.right, 2)),
    PowInt: lambda t, _: Const(0) if t.exponent == 0 else Mul(
        Mul(Const(t.exponent), PowInt(t.base, t.exponent - 1)), (yield t.base)),
    Sin: lambda t, _: Mul(Cos(t.arg), (yield t.arg)),
    Cos: lambda t, _: Sub(Const(0), Mul(Sin(t.arg), (yield t.arg))),
    Exp: lambda t, _: Mul(Exp(t.arg), (yield t.arg)),
}


# -- polynomial classification -----------------------------------------------------

def as_polynomial(f: Expr, name: str = "x"):
    """Coefficient list (ascending, no trailing zeros) when f is a
    rational-coefficient polynomial in the named variable, else None."""
    terms = walk(f, _POLYNOMIAL, name)
    if terms is None:
        return None
    return [terms.get(k, Fraction(0)) for k in range(max(terms, default=0) + 1)]


# A polynomial is held as a dict from exponent to nonzero coefficient, so
# multiplying x^k by x is one term, whatever k is.

def _poly_binary(combine):
    """Handler: combine(left, right) of two polynomials, None as soon as
    one side is not a polynomial."""
    def handler(t, _):
        a = yield t.left
        b = None if a is None else (yield t.right)
        return None if b is None else combine(a, b)
    return handler


def _poly_power(a, k):
    return None if a is None else functools.reduce(_poly_mul, [a] * k, {0: Fraction(1)})


def _poly_add(a, b, sign=1):
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0) + sign * c
    return {k: c for k, c in out.items() if c}


def _poly_mul(a, b):
    out = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = out.get(i + j, 0) + x * y
    return {k: c for k, c in out.items() if c}


_POLYNOMIAL = {
    **dict.fromkeys(NODES, lambda t, _: None),
    Var: lambda t, name: {1: Fraction(1)} if t.name == name else None,
    Const: lambda t, _: {0: Fraction(t.value)} if t.value else {},
    Add: _poly_binary(_poly_add),
    Sub: _poly_binary(lambda a, b: _poly_add(a, b, -1)),
    Mul: _poly_binary(_poly_mul),
    Div: _poly_binary(lambda a, b: {k: c / b[0] for k, c in a.items()}
                      if b.keys() == {0} else None),
    PowInt: lambda t, _: _poly_power((yield t.base), t.exponent),
}


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
    return walk(f, _TEXT, grossone)


# A + or - node binds at 1 and a * or / node at 2; an operand placed at a
# higher precedence than its node binds at gets parentheses.
_BINDING = {Add: 1, Sub: 1, Mul: 2, Div: 2}


def _infix(sym, prec):
    def handler(t, _):
        left, right = (yield t.left), (yield t.right)
        return f"{_operand(left, t.left, prec)} {sym} {_operand(right, t.right, prec + 1)}"
    return handler


def _operand(text, t, prec):
    return f"({text})" if _BINDING.get(type(t), prec) < prec else text


_TEXT = {
    Var: lambda t, _: t.name,
    Const: lambda t, _: str(Fraction(t.value)) if t.value >= 0 else f"({Fraction(t.value)})",
    EpsilonLit: lambda t, _: "eps",
    OmegaLit: lambda t, grossone: _GROSSONE if grossone else "w",
    Add: _infix("+", 1), Sub: _infix("-", 1), Mul: _infix("*", 2), Div: _infix("/", 2),
    PowInt: lambda t, _: f"{_operand((yield t.base), t.base, 4)}^{t.exponent}",
    PowSym: lambda t, _: f"{_operand((yield t.base), t.base, 4)}^({(yield t.exponent)})",
    **dict.fromkeys((Sin, Cos, Exp, Sign, Abs),
                    lambda t, _: f"{type(t).__name__.lower()}({(yield t.arg)})"),
    Part: lambda t, _: _PART_TEXT[t.selector].format((yield t.arg)),
    PiecewiseSt: lambda t, _: (f"piecewise(St({(yield t.subject)}) {t.op} {t.bound}, "
                               f"{(yield t.then_branch)}, {(yield t.else_branch)})"),
}
