"""Surface syntax: a recursive-descent expression parser and the
coefficient-list literal format.

Grammar (expression mode)::

    expr     := term (('+' | '-') term)*
    term     := unary (('*' | '/') unary)*
    unary    := '-' unary | power
    power    := atom ('^' exponent)*          # left-associative
    exponent := INTEGER                       # sequence mode: also n, '(' expr ')'
    atom     := INTEGER | NAME '(' expr ')' | NAME | '(' expr ')'

Names: ``eps`` (the infinitesimal unit), ``w`` and ``G`` (the infinite
unit), the variable ``x``, and the functions sin cos exp sign St NstE
NstW abs.  ``a/b`` over integer literals folds to an exact rational
constant; division elsewhere stays symbolic.

Sequence mode (`parse_sequence`) reads the term index n in place of x.
Each term is one `calculus.evaluate` call with n bound to the index; a
symbolic exponent is read there at its standard part, which must be an
exact nonnegative integer.

Any text containing a comma is read as a rendered coefficient list
("-1, 0, ^2, 2, 0, ..."), giving back the stream literal, so rendering
round-trips through the parser on the rational fragment.
"""

from __future__ import annotations

import re
from fractions import Fraction

from . import expr as E
from .calculus import evaluate
from .number import PartSelector, RzlNumber, from_coefficients, from_rational

# Deepest nesting of parentheses, function calls and unary minus signs
# accepted; deeper input is refused before it can exhaust the stack.
_MAX_NESTING = 100

# whitespace matches no group and is skipped; any other character no
# token starts with is the last group's, and an error
_TOKEN = re.compile(rf"(\d+)|([A-Za-z_][A-Za-z0-9_]*)|([+\-*/^()])|({E._GROSSONE})|(\S)")

_FUNCTIONS = {
    "sin": E.Sin,
    "cos": E.Cos,
    "exp": E.Exp,
    "sign": E.Sign,
    "abs": E.Abs,
}

_PARTS = {
    "St": PartSelector.ST,
    "NstE": PartSelector.NST_EPSILON,
    "NstW": PartSelector.NST_OMEGA,
}


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


def _tokens(text: str) -> list:
    """(kind, value, position) triples, ending with ("end", None, len(text))."""
    items = []
    for m in _TOKEN.finditer(text):
        number, name, op, _, bad = m.groups()
        if bad is not None:
            raise ParseError(f"unexpected character {bad!r}", m.start())
        if number is not None:
            items.append(("num", int(number), m.start()))
        elif op is None:   # a name, or the circled one, which is w
            items.append(("name", name or "w", m.start()))
        else:
            items.append(("op", op, m.start()))
    items.append(("end", None, len(text)))
    return items


class _Parser:
    def __init__(self, text: str, variable: str):
        self.toks, self.i = _tokens(text), 0
        self.variable = variable
        self.nesting = -1   # the outermost expression is level 0

    def peek(self):
        return self.toks[self.i]

    def next(self):
        self.i += 1
        return self.toks[self.i - 1]

    def expect_op(self, op: str):
        kind, val, pos = self.next()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", pos)

    def parse(self) -> E.Expr:
        node = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {val!r}", pos)
        return node

    def _nest(self, by: int):
        self.nesting += by
        if self.nesting > _MAX_NESTING:
            raise ParseError(f"nesting deeper than {_MAX_NESTING} levels",
                             self.peek()[2])

    def expr(self) -> E.Expr:
        self._nest(1)
        node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                rhs = self.term()
                node = E.Add(node, rhs) if val == "+" else E.Sub(node, rhs)
            else:
                self._nest(-1)
                return node

    def term(self) -> E.Expr:
        node = self.unary()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                rhs = self.unary()
                if val == "*":
                    node = E.Mul(node, rhs)
                else:
                    node = self._divide(node, rhs)
            else:
                return node

    @staticmethod
    def _divide(lhs: E.Expr, rhs: E.Expr) -> E.Expr:
        # fold integer-literal quotients into exact rational constants
        if isinstance(lhs, E.Const) and isinstance(rhs, E.Const):
            if Fraction(rhs.value) == 0:
                raise ZeroDivisionError("division by zero in constant")
            return E.Const(Fraction(lhs.value) / Fraction(rhs.value))
        return E.Div(lhs, rhs)

    def unary(self) -> E.Expr:
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.next()
            self._nest(1)
            inner = self.unary()
            self._nest(-1)
            if isinstance(inner, E.Const):
                return E.Const(-Fraction(inner.value))
            return E.Sub(E.Const(0), inner)
        return self.power()

    def power(self) -> E.Expr:
        node = self.atom()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "^":
                self.next()
                node = self._apply_power(node)
            else:
                return node

    def _apply_power(self, base: E.Expr) -> E.Expr:
        kind, val, pos = self.peek()
        if kind == "num":
            self.next()
            return E.PowInt(base, val)
        if kind == "name" and val == self.variable == "n":
            self.next()
            return E.PowSym(base, E.Var("n"))
        if kind == "op" and val == "(" and self.variable == "n":
            self.next()
            inner = self.expr()
            self.expect_op(")")
            return E.PowSym(base, inner)
        raise ParseError("exponent must be a nonnegative integer", pos)

    def atom(self) -> E.Expr:
        kind, val, pos = self.next()
        if kind == "num":
            return E.Const(val)
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        if kind == "name":
            nxt_kind, nxt_val, _ = self.peek()
            if nxt_kind == "op" and nxt_val == "(":
                ctor = _FUNCTIONS.get(val)
                sel = _PARTS.get(val)
                if ctor is None and sel is None:
                    raise ParseError(f"unknown function {val!r}", pos)
                self.next()
                arg = self.expr()
                self.expect_op(")")
                return ctor(arg) if ctor is not None else E.Part(sel, arg)
            if val == "eps":
                return E.EpsilonLit()
            if val in ("w", "G"):
                return E.OmegaLit()
            if val == self.variable:
                return E.Var(val)
            raise ParseError(f"unknown identifier {val!r}", pos)
        raise ParseError("expected a number, name or parenthesis", pos)


def parse(text: str):
    """Parse surface syntax to an expression tree, or a rendered
    coefficient list back to a stream literal."""
    if "," in text:
        return parse_rendered(text)
    return _Parser(text, "x").parse()


def parse_sequence(text: str):
    """Parse an expression in the term index n; returns n -> stream."""
    tree = _Parser(text, "n").parse()

    def term(n: int) -> RzlNumber:
        return evaluate(tree, from_rational(n), var="n")

    return term


def parse_rendered(text: str) -> RzlNumber:
    """Inverse of `render` on the rational fragment."""
    body = text.strip()
    entries = [e.strip() for e in body.split(",")]
    while entries and entries[-1] in ("...", ""):
        entries.pop()
    if not entries:
        raise ParseError("empty coefficient list", 0)
    caret_at = [i for i, e in enumerate(entries) if e.startswith("^")]
    if len(caret_at) != 1:
        raise ParseError("coefficient list needs exactly one ^ entry", 0)
    k = caret_at[0]
    coeffs = []
    for i, entry in enumerate(entries):
        raw = entry[1:].strip() if i == k else entry
        coeffs.append(_parse_rational(raw))
    return from_coefficients(-k, coeffs)


def _parse_rational(raw: str):
    m = re.fullmatch(r"(-?\d+)(?:\s*/\s*(\d+))?", raw)
    if m is None:
        raise ParseError(f"not an exact rational: {raw!r}", 0)
    num = int(m.group(1))
    if m.group(2) is None:
        return num
    return Fraction(num, int(m.group(2)))
