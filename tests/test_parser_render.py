"""Surface syntax: parsing, rendering, and the round-trip between them."""

import random
from fractions import Fraction as F

import pytest

from rzl import calculus, parser
from rzl import expr as E
from rzl.calculus import eval_scalar, evaluate
from rzl.number import (
    PartSelector,
    RzlNumber,
    eq_up_to,
    epsilon,
    from_coefficients,
    from_rational,
    omega,
    one,
    zero,
)
from rzl.parser import ParseError, _Parser, parse, parse_rendered, parse_sequence
from rzl.render import render, render_number
from rzl.scalar import creal_elementary, is_rational_scalar
from rzl.verdict import DomainError


def test_parse_structure_examples():
    tree = parse("1/(eps+w)")
    assert isinstance(tree, E.Div)
    assert isinstance(tree.left, E.Const)
    assert isinstance(tree.right, E.Add)
    assert isinstance(tree.right.left, E.EpsilonLit)
    assert isinstance(tree.right.right, E.OmegaLit)
    tree2 = parse("sin(x+eps)")
    assert isinstance(tree2, E.Sin)
    assert isinstance(tree2.arg, E.Add)
    assert isinstance(tree2.arg.left, E.Var)


def test_parse_evaluates_paper_number():
    v = evaluate(parse("2+2*eps-w^2"), zero())
    assert [v[i] for i in range(-2, 3)] == [-1, 0, 2, 2, 0]


def test_precedence():
    assert evaluate(parse("-x^2"), from_rational(3))[0] == -9
    assert evaluate(parse("2*x^2"), from_rational(3))[0] == 18
    assert evaluate(parse("2+3*4"), zero())[0] == 14
    assert evaluate(parse("x-1-2"), from_rational(10))[0] == 7
    assert evaluate(parse("x^2^3"), from_rational(2))[0] == 64   # left-assoc
    assert evaluate(parse("6/3/2"), zero())[0] == 1
    assert evaluate(parse("(St(x)+NstE(x))-x"), one() + epsilon())[0] == 0


def test_fraction_literals_fold():
    node = parse("3/7")
    assert isinstance(node, E.Const) and node.value == F(3, 7)
    assert evaluate(parse("1/2+1/3"), zero())[0] == F(5, 6)


def test_grossone_symbols():
    g = evaluate(parse("G"), zero())
    assert eq_up_to(g, omega(), -1, 4)
    circled = evaluate(parse("① - 100"), zero())
    assert circled[-1] == 1 and circled[0] == -100
    echo = E.to_text(parse("G^2 - w"), grossone=True)
    assert "①" in echo and "w" not in echo


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as ei:
        parse("1 + $")
    assert ei.value.pos == 4
    with pytest.raises(ParseError, match="unknown identifier"):
        parse("2 * foo")
    with pytest.raises(ParseError, match="exponent"):
        parse("x^-1")
    with pytest.raises(ParseError):
        parse("(1+2")
    with pytest.raises(ZeroDivisionError):
        parse("1/0")


def test_render_paper_goldens():
    assert render(one(), 7) == "^1, 0, 0, 0, 0, 0, 0, ..."
    assert render(epsilon(), 7) == "^0, 1, 0, 0, 0, 0, 0, ..."
    assert render(omega(), 7) == "1, ^0, 0, 0, 0, 0, 0, 0, ..."
    assert render(epsilon() + omega() + one(), 7) == "1, ^1, 1, 0, 0, 0, 0, 0, ..."
    assert render(epsilon() - omega() + one(), 7) == "-1, ^1, 1, 0, 0, 0, 0, 0, ..."
    assert render(epsilon() * omega() + one(), 7) == "0, ^2, 0, 0, 0, 0, 0, 0, ..."
    assert render(epsilon() * (-epsilon()) + one(), 7) == "^1, 0, -1, 0, 0, 0, 0, ..."
    assert render(zero(), 3) == "^0, 0, 0, ..."


def test_render_structured_form():
    rn = render_number(epsilon() - omega() + one(), 4)
    assert rn.omega_coeffs == (-1,) and rn.standard == 1
    assert rn.epsilon_coeffs == (1, 0, 0) and rn.truncation == 4
    assert rn.text() == "-1, ^1, 1, 0, 0, ..."


def test_render_fractions_and_creal():
    x = from_coefficients(0, [F(1, 3), F(-7, 2)])
    assert render(x, 3) == "^1/3, -7/2, 0, ..."
    from rzl.number import make_number
    e = creal_elementary("exp", 1)
    funny = make_number(0, lambda i: (i + 1) * e if i >= 0 else 0)
    text = render(funny, 3)
    assert text.startswith("^~2.71828, ~5.43656, ~8.15485")


def test_rendered_parses_back():
    x = parse("-1, 0, ^2, 2, 0, ...")
    assert isinstance(x, RzlNumber)
    assert [x[i] for i in range(-2, 3)] == [-1, 0, 2, 2, 0]
    y = parse_rendered("^0, 1, 0, -1, ...")
    assert y.low == 0 and y[1] == 1 and y[3] == -1
    with pytest.raises(ParseError):
        parse_rendered("1, 2, 3")          # no caret
    with pytest.raises(ParseError):
        parse_rendered("^1, ^2, ...")      # two carets


def test_render_parse_render_roundtrip_random():
    rng = random.Random(99)
    for _ in range(200):
        low = rng.randint(-4, 0)
        length = rng.randint(1, 6)
        coeffs = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(length)]
        x = from_coefficients(low, coeffs)
        text = render(x, 7)
        back = parse(text)
        assert render(back, 7) == text
        assert eq_up_to(back, x, -6, 6)


def test_sequence_parsing():
    term = parse_sequence("eps^n")
    assert term(3)[3] == 1 and term(3)[1] == 0
    harm = parse_sequence("1/n")
    assert harm(4)[0] == F(1, 4)
    mixed = parse_sequence("n*eps")
    assert mixed(7)[1] == 7
    shifted = parse_sequence("eps^(n+1)")
    assert shifted(2)[3] == 1
    with pytest.raises(ParseError, match="unknown identifier"):
        parse_sequence("eps^n + x")


# The sequence families of the benchmark corpus, and the exponent shapes.
_SEQUENCE_CORPUS = ("eps^n", "1/n", "1/2/n", "2/n", "1/n + eps", "1/2*eps/n", "n",
                    "(-1)^n", "2 + eps^n", "1/2 + eps^n", "eps^(n+1)", "(1/2)^n",
                    "n^n*eps^n", "sin(1/n)", "exp(1/n)*eps")


def _rewritten_term(text, n):
    """A term built by rewriting: n substituted as a constant, each
    symbolic power turned into an integer power through eval_scalar, then
    the tree evaluated."""
    def resolve(t):
        if not isinstance(t, E.PowSym):
            return t.rebuild(resolve)
        k = F(eval_scalar(resolve(t.exponent), 0))
        assert k.denominator == 1 and k >= 0
        return E.PowInt(resolve(t.base), int(k))

    tree = resolve(E.substitute(_Parser(text, "n").parse(), E.Const(n), "n"))
    return evaluate(tree, zero(), var="n")


@pytest.mark.parametrize("text", _SEQUENCE_CORPUS)
def test_sequence_term_matches_rewrite(text):
    term = parse_sequence(text)
    for n in range(1, 13):
        got, want = term(n), _rewritten_term(text, n)
        for i in range(min(got.low, want.low), 9):
            a, b = got[i], want[i]
            if is_rational_scalar(a):
                assert is_rational_scalar(b) and a == b, (text, n, i)
            else:
                assert a.ball(64) == b.ball(64), (text, n, i)


def test_sequence_term_is_one_evaluate_call(monkeypatch):
    # symbolic exponents are read inside that call, not by a second one
    calls = []
    real = calculus.evaluate

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(calculus, "evaluate", counted)
    monkeypatch.setattr(parser, "evaluate", counted)
    term = parse_sequence("eps^(n+1) + (1/2)^n * n^n")
    assert term(3)[4] == 1
    assert len(calls) == 1


def test_sequence_exponent_errors():
    with pytest.raises(ValueError, match="nonnegative integer"):
        parse_sequence("eps^(sin(n))")(1)
    with pytest.raises(ValueError, match="nonnegative integer"):
        parse_sequence("eps^(n-3)")(2)
    with pytest.raises(ValueError, match="nonnegative integer"):
        parse_sequence("eps^(n/2)")(3)
    with pytest.raises(DomainError, match="unit literals have no scalar value"):
        parse_sequence("2^(n+eps)")(1)


@pytest.mark.parametrize("selector", list(PartSelector), ids=lambda s: s.value)
def test_part_text_parses_back(selector):
    # the non-infinitesimal and non-infinite parts echo as the sums that
    # define them; the product checks their grouping
    tree = E.Part(selector, E.X) * 3
    point = omega() + 2 + epsilon()
    back = evaluate(parse(E.to_text(tree)), point)
    assert eq_up_to(back, evaluate(tree, point), -2, 4)


def test_nesting_limit():
    assert parse("(" * 100 + "x" + ")" * 100) == E.X
    assert parse("-" * 100 + "1") == E.Const(1)
    for deep in ("(" * 1500 + "x" + ")" * 1500, "-" * 1500 + "1",
                 "sin(" * 101 + "x" + ")" * 101):
        with pytest.raises(ParseError, match="nesting deeper than 100"):
            parse(deep)
