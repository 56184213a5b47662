"""Evaluation, series functions, the quotient derivative and permeation."""

import math
import random
from fractions import Fraction as F

import pytest

from rzl import expr as E
from rzl.calculus import (
    DerivativeReport,
    der,
    eval_scalar,
    evaluate,
    in_E,
    is_microstable,
    permeate,
    transcendental,
)
from rzl.expr import classical_derivative, substitute
from rzl.number import (
    PartSelector,
    eq_up_to,
    epsilon,
    from_coefficients,
    from_rational,
    omega,
    one,
    zero,
)
from rzl.scalar import CompReal
from rzl.verdict import DomainError, UndecidedError

X = E.X
STEP = E.PiecewiseSt("<=", 1, X, X + 1)          # x below the split, x+1 above
POS_INDICATOR = E.PiecewiseSt(">", 0, E.Const(1), E.Const(0))


def rand_poly(rng, deg=3):
    expr = E.Const(rng.randint(-3, 3))
    for k in range(1, deg + 1):
        expr = expr + E.Const(rng.randint(-3, 3)) * X ** k
    return expr


def rand_point(rng):
    return from_coefficients(0, [F(rng.randint(-6, 6), rng.randint(1, 3)),
                                 rng.randint(-2, 2), rng.randint(-2, 2)])


def test_eval_examples():
    v = evaluate(E.Const(3) * X, one() + epsilon())
    assert [v[i] for i in range(0, 3)] == [3, 3, 0]
    s = evaluate(E.Sign(X), from_rational(-2) + 5 * epsilon())
    assert s[0] == -1
    assert evaluate(X ** 2 + 2 * X + 3, one())[0] == 6
    assert evaluate(E.Part(PartSelector.ST, X), one() + epsilon())[1] == 0


def test_eval_undecided_branch_raises():
    sneaky = CompReal(lambda n: F(1, 2 * n))
    from rzl.number import make_number
    z = make_number(0, lambda i: sneaky if i == 0 else 0)
    with pytest.raises(UndecidedError, match="undecided at depth"):
        evaluate(E.Sign(X), z, budget=2 ** 10)


def test_sin_cos_exp_at_infinitesimal_angle():
    s = transcendental("sin", epsilon())
    assert [s[i] for i in range(6)] == [0, 1, 0, F(-1, 6), 0, F(1, 120)]
    c = transcendental("cos", epsilon())
    assert [c[i] for i in range(5)] == [1, 0, F(-1, 2), 0, F(1, 24)]
    x = transcendental("exp", epsilon())
    assert [x[i] for i in range(5)] == [1, 1, F(1, 2), F(1, 6), F(1, 24)]


def test_series_rejects_infinite_argument():
    with pytest.raises(DomainError, match="infinite argument"):
        transcendental("sin", omega() + one())
    with pytest.raises(DomainError, match="infinite argument"):
        evaluate(E.Exp(X), omega())


@pytest.mark.parametrize("kind,cycle", [
    ("sin", (math.sin, math.cos, lambda t: -math.sin(t), lambda t: -math.cos(t))),
    ("cos", (math.cos, lambda t: -math.sin(t), lambda t: -math.cos(t), math.sin)),
    ("exp", (math.exp, math.exp, math.exp, math.exp)),
])
def test_series_shift_closed_forms(kind, cycle):
    # coefficient k of f(s + a*eps) must be a^k/k! times the k-th derivative
    s, a = 1, 2
    v = transcendental(kind, one() + 2 * epsilon())
    n = 2 * 10 ** 6
    for k in range(5):
        coeff = v[k]
        got = float(coeff.approx(n)) if isinstance(coeff, CompReal) else float(coeff)
        expect = a ** k / math.factorial(k) * cycle[k % 4](s)
        assert abs(got - expect) <= 1e-6


def test_pythagorean_and_exponential_identities():
    s, c = transcendental("sin", epsilon()), transcendental("cos", epsilon())
    ident = s * s + c * c
    assert ident[0] == 1 and all(ident[i] == 0 for i in range(1, 13))
    ex, exn = transcendental("exp", epsilon()), transcendental("exp", -epsilon())
    prod = ex * exn
    assert prod[0] == 1 and all(prod[i] == 0 for i in range(1, 13))
    # same identities at a non-zero rational standard part, within brackets
    p = one() + 2 * epsilon()
    sp, cp = transcendental("sin", p), transcendental("cos", p)
    pyth = sp * sp + cp * cp
    for i in range(0, 6):
        coeff = pyth[i]
        target = F(1) if i == 0 else F(0)
        if isinstance(coeff, CompReal):
            assert abs(coeff.approx(10 ** 6) - target) <= F(1, 10 ** 6)
        else:
            assert coeff == target


def test_der_goldens():
    d = der(E.Const(3) * X, from_rational(7))
    assert d[0] == 3 and all(d[i] == 0 for i in range(d.low, 9) if i != 0)
    d2 = der(X ** 2 + 2 * X + 3, one())
    assert d2[0] == 4 and d2[1] == 1 and all(d2[i] == 0 for i in range(2, 9))
    for at in (-1, 0, 1):
        ds = der(E.Sign(X), from_rational(at))
        assert all(ds[i] == 0 for i in range(ds.low, 9))
    did = der(X, rand_point(random.Random(1)))
    assert did[0] == 1 and all(did[i] == 0 for i in range(did.low, 9) if i != 0)


def test_der_at_general_points_keeps_displacement_term():
    d = der(X ** 2 + 2 * X + 3, from_rational(F(5, 2)))
    assert d[0] == 7 and d[1] == 1       # 2x + 2 plus the displacement slot


def test_der_with_alternative_displacement():
    d = der(X ** 2, from_rational(3), displacement=epsilon() ** 2)
    # (x + e^2)^2 - x^2 over e^2 is 2x + e^2
    assert d[0] == 6 and d[2] == 1 and d[1] == 0


def test_der_is_linear():
    rng = random.Random(41)
    for _ in range(25):
        f, g = rand_poly(rng), rand_poly(rng)
        x = rand_point(rng)
        c = F(rng.randint(-3, 3))
        left = der(E.Add(f, g), x)
        right = der(f, x) + der(g, x)
        assert eq_up_to(left, right, -4, 12)
        assert eq_up_to(der(E.Mul(E.Const(c), f), x),
                        from_rational(c) * der(f, x), -4, 12)


def test_product_rule_residue_is_identically_zero():
    rng = random.Random(43)
    for _ in range(25):
        f, g = rand_poly(rng), rand_poly(rng)
        x = rand_point(rng)
        lhs = der(E.Mul(f, g), x)
        rhs = evaluate(f, x) * der(g, x) \
            + evaluate(g, x + epsilon()) * der(f, x)
        assert eq_up_to(lhs, rhs, -6, 12)


def test_classical_derivative_rules():
    d = classical_derivative(X ** 2 + 2 * X + 3)
    assert eval_scalar(d, F(5)) == 12            # 2*5 + 2
    assert eval_scalar(classical_derivative(E.Sin(X)), 0) == 1   # cos(0)
    ce = classical_derivative(E.Exp(X))
    assert eval_scalar(ce, 0) == 1
    with pytest.raises(DomainError):
        classical_derivative(E.Sign(X))


def test_in_E_examples():
    assert in_E(X, rand_point(random.Random(2))).is_certified
    assert in_E(X ** 2 + 2 * X + 3, one()).is_certified
    v = in_E(E.Sign(X), zero())
    assert v.is_certified and "convention" in v.reason
    for kind in (E.Sin, E.Cos, E.Exp):
        assert in_E(kind(X), one()).is_certified
    # product of members stays a member (spot check on polynomial pairs)
    rng = random.Random(47)
    for _ in range(10):
        f, g = rand_poly(rng), rand_poly(rng)
        x = from_rational(F(rng.randint(-4, 4), rng.randint(1, 3)))
        assert in_E(f, x).is_certified
        assert in_E(g, x).is_certified
        assert in_E(E.Mul(f, g), x).is_certified
        assert in_E(E.Add(f, g), x).is_certified
        assert in_E(substitute(f, g), x).is_certified


def test_in_E_quotient():
    f = X ** 2 + 1
    g = X - 3
    v = in_E(E.Div(f, g), one())
    assert v.is_certified
    assert eval_scalar(classical_derivative(E.Div(f, g)), F(1)) == F(-3, 2)


def test_in_E_piecewise_boundary_refuted():
    assert in_E(STEP, one()).is_refuted
    assert in_E(STEP, from_rational(2)).is_certified


def test_microstability():
    pts = [zero(), one(), from_rational(-3) + epsilon(),
           from_rational(F(1, 2)) + omega() * 0]
    assert is_microstable(POS_INDICATOR, pts).is_certified
    assert is_microstable(X, pts).is_certified
    v = is_microstable(E.Mul(E.OmegaLit(), X), [zero()])
    assert v.is_refuted and v.witness == ("sample", 0, "index", 0)


def test_microstability_closure():
    rng = random.Random(53)
    pts = [rand_point(rng) for _ in range(4)]
    f, g = POS_INDICATOR, E.PiecewiseSt("<", 2, E.Const(5), E.Const(7))
    for expr in (E.Add(f, g), E.Mul(f, g), substitute(f, g)):
        assert is_microstable(expr, pts).is_certified


def test_permeate_matrix():
    r = permeate(E.Const(3) * X, from_rational(5))
    assert isinstance(r, DerivativeReport)
    assert r.permeated == 3 and r.in_e.is_certified
    r2 = permeate(X ** 2 + 2 * X + 3, one() + epsilon())
    assert r2.permeated is None and r2.reason == "Nst(x) != 0"
    r3 = permeate(E.Sign(X), zero())
    assert r3.permeated == 0
    r4 = permeate(X ** 2 + 2 * X + 3, one())
    assert r4.permeated == 4 and r4.classical_value == 4
    # a stream whose tail is not support-bounded cannot certify Nst(x) = 0
    from rzl.number import make_number
    fuzzy = make_number(0, lambda i: 1 if i == 0 else 0)
    r5 = permeate(X, fuzzy)
    assert r5.permeated is None and "not certified" in r5.reason


def test_permeate_depends_on_in_E():
    # |x| evaluates fine at 1 but has no symbolic reference derivative here,
    # so membership stays unknown and permeation is withheld
    r = permeate(E.Abs(X), one())
    assert r.permeated is None and r.in_e.is_unknown
    # at 0 the absolute value itself is undecidable: evaluation refuses
    with pytest.raises(UndecidedError):
        permeate(E.Abs(X), zero())


@pytest.mark.parametrize("at", [F(1, 2), F(1, 3)])
@pytest.mark.parametrize("text, f", [
    ("sin(x)+cos(x)", lambda m, x: m.sin(x) + m.cos(x)),
    ("cos(x)-sin(x)", lambda m, x: m.cos(x) - m.sin(x)),
    ("sin(x)-cos(x)", lambda m, x: m.sin(x) - m.cos(x)),
], ids=["sin+cos", "cos-sin", "sin-cos"])
def test_permeate_certifies_sums_of_sin_and_cos(text, f, at):
    # the quotient's standard part and the classical derivative are the
    # same sum of series constants, built alike, so scalar_eq proves them
    # equal where no bracket could
    mpmath = pytest.importorskip("mpmath")
    from rzl.parser import parse
    r = permeate(parse(text), from_rational(at))
    assert r.in_e.is_certified and r.permeated is not None
    got = r.permeated.approx(10 ** 9)
    with mpmath.workdps(50):
        want = mpmath.diff(lambda x: f(mpmath, x), mpmath.mpf(at.numerator) / at.denominator)
        assert abs(mpmath.mpf(got.numerator) / got.denominator - want) < mpmath.mpf(10) ** -6


def test_eval_scalar_refuses_unit_literals():
    for unit in (E.EpsilonLit(), E.OmegaLit()):
        with pytest.raises(DomainError, match="unit literals"):
            eval_scalar(X + unit, 1)
    assert eval_scalar(E.Part(PartSelector.NST_EPSILON, X) + X, F(1, 2)) == F(1, 2)


def test_permeate_computes_the_derivative_once(monkeypatch):
    import rzl.calculus as C
    calls = []

    def counted(name, fn):
        def wrapper(tree, *args, **kwargs):
            calls.append((name, tree))
            return fn(tree, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(C, "evaluate", counted("evaluate", C.evaluate))
    monkeypatch.setattr(C, "der", counted("der", C.der))
    monkeypatch.setattr(E, "classical_derivative",
                        counted("classical", E.classical_derivative))
    f = X ** 2 + 2 * X + 3
    r = permeate(f, one())
    assert r.permeated == 4 and r.classical_value == 4
    assert sum(1 for name, t in calls if name == "evaluate" and t is f) == 2
    assert [name for name, _ in calls].count("der") == 1
    assert [name for name, _ in calls].count("classical") == 1


@pytest.mark.parametrize("op, below, at, above", [
    ("<=", True, True, False),
    ("<", True, False, False),
    ("=", False, True, False),
    (">", False, False, True),
    (">=", False, True, True),
])
def test_compare_scalar_predicates(op, below, at, above):
    from rzl.calculus import _compare_scalar
    from rzl.scalar import creal_elementary, creal_from_rational
    half = F(1, 2)
    assert _compare_scalar(half, op, 1, 2 ** 12) is below
    assert _compare_scalar(half, op, half, 2 ** 12) is at
    assert _compare_scalar(half, op, 0, 2 ** 12) is above
    c = creal_elementary("sin", F(1, 3))            # about 0.327
    assert _compare_scalar(c, op, 1, 2 ** 12) is below
    assert _compare_scalar(c, op, 0, 2 ** 12) is above
    with pytest.raises(UndecidedError):     # equality is never certified
        _compare_scalar(creal_from_rational(half), op, half, 2 ** 12)


def test_microstable_at_an_untagged_computable_real():
    from rzl.number import from_scalar
    from rzl.scalar import creal_elementary
    c = creal_elementary("sin", F(1, 3)) * creal_elementary("cos", F(1, 3))
    assert is_microstable(X, [from_scalar(c)]).is_certified
