"""Exact rational scalars and computable-real brackets."""

import math
import operator
import random
import sys
import threading
from fractions import Fraction as F

import pytest

from rzl.scalar import (
    PRECISION_BUDGET,
    CompReal,
    _first_precision,
    creal_elementary,
    creal_from_rational,
    scalar_abs_within,
    scalar_eq,
    scalar_sign,
    scalar_str,
)
from rzl.verdict import UndecidedError


def euler_number_oracle() -> tuple[F, F]:
    # independent partial sum for e with an explicit remainder bound
    total, fact = F(0), 1
    for k in range(21):
        if k:
            fact *= k
        total += F(1, fact)
    return total, F(2, fact * 21)


def bracket_contains(c: CompReal, n: int, value: F) -> bool:
    lo, hi = c.bracket(n)
    return lo <= value <= hi


def test_creal_arith_dispatch():
    a, b = creal_from_rational(F(1, 2)), creal_from_rational(F(1, 3))
    assert bracket_contains(a + b, 60, F(5, 6))
    assert bracket_contains(a - b, 60, F(1, 6))
    assert bracket_contains(a * b, 60, F(1, 6))
    assert bracket_contains(-a, 60, F(-1, 2))


def test_rational_arithmetic_identities():
    assert F(1, 2) + F(1, 3) == F(5, 6)
    assert F(2, 3) * F(3, 2) == 1
    assert F(-1, 7) < 0
    with pytest.raises(ZeroDivisionError):
        F(1) / F(0)


def test_rational_field_axioms_randomized():
    rng = random.Random(20240811)
    for _ in range(500):
        a = F(rng.randint(-50, 50), rng.randint(1, 30))
        b = F(rng.randint(-50, 50), rng.randint(1, 30))
        c = F(rng.randint(-50, 50), rng.randint(1, 30))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + 0 == a and a * 1 == a
        if a != 0:
            assert a * (1 / a) == 1


@pytest.mark.parametrize("q,n", [(F(0), 10), (F(1), 7), (F(3, 7), 100)])
def test_from_rational_bracket(q, n):
    assert bracket_contains(creal_from_rational(q), n, q)


def test_creal_add_mul_brackets():
    three = creal_from_rational(1) + creal_from_rational(2)
    assert bracket_contains(three, 4, F(3))
    quarter = creal_from_rational(F(1, 2)) * creal_from_rational(F(1, 2))
    assert bracket_contains(quarter, 100, F(1, 4))


def test_creal_neg_of_e_bracket():
    e_approx, tail = euler_number_oracle()
    c = -creal_elementary("exp", 1)
    n = 10 ** 5
    lo, hi = c.bracket(n)
    # true -e lies within [ -e_approx - tail, -e_approx ]
    assert lo <= -e_approx <= hi + tail


def test_elementary_goldens():
    assert bracket_contains(creal_elementary("exp", 0), 50, F(1))
    assert bracket_contains(creal_elementary("sin", 0), 50, F(0))
    e_approx, tail = euler_number_oracle()
    c = creal_elementary("exp", 1)
    n = 10 ** 5
    a = c.approx(n)
    assert abs(a - e_approx) <= F(1, n) + tail
    assert str(float(a))[:7] == "2.71828"


@pytest.mark.parametrize("kind,q", [("sin", F(1)), ("cos", F(1)),
                                    ("sin", F(-2)), ("cos", F(5, 3)),
                                    ("exp", F(-1)), ("exp", F(7, 2))])
def test_elementary_against_float_oracle(kind, q):
    fn = {"sin": math.sin, "cos": math.cos, "exp": math.exp}[kind]
    n = 10 ** 6
    a = creal_elementary(kind, q).approx(n)
    assert abs(float(a) - fn(float(q))) < 1 / n + 1e-9


def test_bracket_width_and_refinement():
    c = creal_elementary("exp", F(2))
    prev = None
    for n in (1, 2, 10, 100, 10 ** 4):
        lo, hi = c.bracket(n)
        assert hi - lo <= F(2, n)
        if prev is not None:
            plo, phi = prev
            assert max(lo, plo) <= min(hi, phi)   # brackets intersect
        prev = (lo, hi)


def test_approx_deterministic():
    c = creal_elementary("sin", F(1, 3))
    assert c.approx(1000) == c.approx(1000)


def test_sign_decisions():
    assert creal_elementary("exp", 1).sign() == 1
    assert (-creal_elementary("exp", 1)).sign() == -1
    sneaky = CompReal(lambda n: F(1, 2 * n))
    assert sneaky.sign(budget=2 ** 12) is None
    assert scalar_sign(F(0)) == 0
    assert scalar_sign(F(-3, 4)) == -1


def test_scalar_eq_tristate():
    assert scalar_eq(F(1, 2), F(2, 4)) is True
    a = creal_elementary("cos", 1)
    b = creal_elementary("cos", 1)
    assert scalar_eq(a, b) is True            # built alike
    assert scalar_eq(a, creal_elementary("sin", 1)) is False
    sneaky = CompReal(lambda n: F(1, 2 * n))
    assert scalar_eq(sneaky, F(0), budget=2 ** 12) is None


def test_scalar_mul_preserves_provenance_through_trivial_ops():
    c = creal_elementary("sin", 2)
    assert c * F(1) is c
    assert scalar_eq(c * F(1, 2), c * F(1, 2)) is True


def test_scalar_eq_certifies_values_built_alike():
    cos1 = creal_elementary("cos", 1)
    assert scalar_eq(cos1, creal_elementary("cos", 1)) is True
    assert scalar_eq(cos1 * F(1, 2), creal_elementary("cos", 1) * F(1, 2)) is True
    for x in (_leaf(F(2, 3)), _leaf(F(1, 2)) * _leaf(F(4, 3))):
        assert scalar_eq(x * -1, -x) is True


def test_an_approximation_function_is_no_proof_of_equality():
    # a leaf matches only the same function object: one that claims to be
    # sin(1) is not certified equal to it, and no other name can be given
    forged = CompReal(lambda n: 0)
    assert scalar_eq(forged, creal_elementary("sin", 1)) is False
    assert scalar_eq(forged, CompReal(lambda n: 1)) is False
    with pytest.raises(TypeError):
        CompReal(lambda n: 0, tag="series:sin(1)")


def _leaf(q):
    """A computable real of exact value q whose approximations never are q."""
    return CompReal(lambda n: q + F(1, 3 * n))


OPERANDS = {   # name -> (operand, its exact value): a leaf and a product
    "tagged": lambda: (_leaf(F(2, 3)), F(2, 3)),
    "derived": lambda: (_leaf(F(1, 2)) * _leaf(F(4, 3)), F(2, 3)),
}


@pytest.mark.parametrize("zero,one,partner", [(0, 1, 3), (F(0), F(1), F(-2, 7))],
                         ids=["int", "Fraction"])
@pytest.mark.parametrize("name", OPERANDS)
def test_operator_rules(name, zero, one, partner):
    x, v = OPERANDS[name]()
    assert x - zero is x and x + zero is x and zero + x is x
    assert x * one is x and one * x is x
    assert type(x * zero) is int and type(zero * x) is int
    neg = -x
    # x*(-1) - (-x) is exactly 0, so only the structure of the DAGs
    # certifies these
    assert scalar_eq(x * -one, neg) is True and scalar_eq(zero - x, neg) is True
    assert (x * -one).ball(64) == (zero - x).ball(64) == neg.ball(64)
    for op in (operator.add, operator.sub, operator.mul):
        for a, b, va, vb in ((x, partner, v, partner), (partner, x, partner, v),
                             (x, x, v, v)):
            assert bracket_contains(op(a, b), 10 ** 9, op(va, vb)), (op, a, b)


def test_scalar_abs_within():
    assert scalar_abs_within(F(1, 3), F(1, 2)) is True
    assert scalar_abs_within(F(-2), F(1, 2)) is False
    c = creal_elementary("sin", 1)   # ~0.84
    assert scalar_abs_within(c, F(9, 10)) is True
    assert scalar_abs_within(c, F(1, 2)) is False


def test_creal_reciprocal():
    c = creal_elementary("exp", 1)
    r = c.reciprocal()
    val = r.approx(10 ** 6)
    assert abs(float(val) - 1 / math.e) < 1e-5


def test_reciprocal_is_built_only_once_a_bracket_clears_zero():
    # an exact 0 from two distinct nodes: no bracket clears it, so no
    # reciprocal node exists whose balls could be read forever
    with pytest.raises(UndecidedError):
        (creal_elementary("sin", F(1, 3)) - creal_elementary("sin", F(1, 3))).reciprocal()
    # a value of about 6.8e-9 needs brackets finer than the default budget
    mpmath = pytest.importorskip("mpmath")
    d = creal_elementary("sin", F(1, 3)) - F(32719469, 10 ** 8)
    with pytest.raises(UndecidedError):
        d.reciprocal()
    a = d.reciprocal(2 ** 30).approx(10 ** 6)
    with mpmath.workdps(50):
        v = 1 / (mpmath.sin(mpmath.mpf(1) / 3) - mpmath.mpf(32719469) / 10 ** 8)
        assert abs(mpmath.mpf(a.numerator) / a.denominator - v) <= mpmath.mpf(1) / 10 ** 6


def test_exact_zero_factor_stays_exact():
    c = creal_elementary("sin", 1)
    for z in (0 * c, c * 0, 0 * c.reciprocal()):
        assert type(z) is int and scalar_sign(z) == 0


def _inverse_two_plus_sin():
    """1/(2 + sin(1/3 + eps)), whose coefficient t is a chain of t sums."""
    from rzl.calculus import transcendental
    from rzl.number import epsilon, from_rational, inverse
    return inverse(from_rational(2) + transcendental("sin", from_rational(F(1, 3)) + epsilon()))


def test_render_is_certified_to_six_significant_digits():
    mpmath = pytest.importorskip("mpmath")
    x = _inverse_two_plus_sin()
    with mpmath.workdps(50):
        s = mpmath.mpf(1) / 3
        # 2 + sin(s + z) = sum b_k z^k; its inverse by the convolution recurrence
        derivs = (mpmath.sin(s), mpmath.cos(s), -mpmath.sin(s), -mpmath.cos(s))
        b = [2 + derivs[0]] + [derivs[k % 4] / mpmath.factorial(k) for k in range(1, 20)]
        w = [1 / b[0]]
        for k in range(1, 20):
            w.append(-sum(b[j] * w[k - j] for j in range(1, k + 1)) / b[0])
        for k in range(20):
            text = scalar_str(x[k])
            assert text.startswith("~")
            unit = mpmath.mpf(10) ** (mpmath.floor(mpmath.log10(abs(w[k]))) - 5)
            assert abs(mpmath.mpf(text[1:]) - w[k]) <= unit, (k, text)


def test_cold_deep_coefficient_reads_without_recursion():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        text = scalar_str(_inverse_two_plus_sin()[399])
    finally:
        sys.setrecursionlimit(limit)
    assert text.startswith("~")


def test_threads_share_one_ball_dag():
    c = _inverse_two_plus_sin()[30]
    results = []

    def read():
        results.append(c.approx(10 ** 30))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 4
    assert set(results) == {_inverse_two_plus_sin()[30].approx(10 ** 30)}


def test_scalar_eq_of_a_value_with_itself():
    # c*1 is c itself.  -(-c) is built unlike c, and its difference from c
    # is exactly 0, which no bracket certifies
    c = creal_elementary("sin", F(1, 3)) * creal_elementary("cos", F(1, 3))
    assert scalar_eq(c, c) is True
    assert scalar_eq(c, c * 1) is True
    assert scalar_eq(-(-c), c) is None


def test_approx_retries_at_a_higher_precision(monkeypatch):
    # the denominator's self-certified lower bound is about 8.8e-7 while
    # its value is about 4.7e-6, so the reciprocal's ball at the first
    # working precision is too wide and approx raises the precision
    mpmath = pytest.importorskip("mpmath")
    x = (creal_elementary("sin", F(1, 3)) - F(32719, 100000)).reciprocal()
    precisions = []
    ball = CompReal.ball

    def recorded(self, p):
        if self is x:
            precisions.append(p)
        return ball(self, p)

    monkeypatch.setattr(CompReal, "ball", recorded)
    with mpmath.workdps(50):
        v = 1 / (mpmath.sin(mpmath.mpf(1) / 3) - mpmath.mpf(32719) / 100000)
        for n in (10, 2 ** 64):
            del precisions[:]
            a = x.approx(n)
            assert len(set(precisions)) >= 2, n
            assert abs(mpmath.mpf(a.numerator) / a.denominator - v) <= mpmath.mpf(1) / n


def test_scalar_str_below_the_render_cap():
    # exp(-60) ~ 8.8e-27: the bracket at 2^100 excludes 0 with few digits
    # to spare, so the digits come from an approximation at a higher one
    mpmath = pytest.importorskip("mpmath")
    text = scalar_str(creal_elementary("exp", F(-60)))
    assert text == "~8.75651e-27"
    with mpmath.workdps(50):
        assert text == "~" + mpmath.nstr(mpmath.exp(-60), 6)


def test_inverse_builds_one_reciprocal_node(monkeypatch):
    # inverse divides every coefficient by the one reciprocal of its
    # leading coefficient
    budgets = []
    reciprocal = CompReal.reciprocal
    monkeypatch.setattr(CompReal, "reciprocal",
                        lambda self, budget: budgets.append(budget) or reciprocal(self, budget))
    x = _inverse_two_plus_sin()
    assert all(isinstance(x[i], CompReal) for i in range(21))
    assert len(budgets) == 1


def test_undecided_escalation_reads_one_ball_per_band(monkeypatch):
    # sin(1/3) - sin(1/3) from two distinct nodes is exactly 0, so every
    # bracket up to the budget holds the cut: the escalation decides in
    # integers, one ball per working precision, and builds no Fraction
    z = creal_elementary("sin", F(1, 3)) - creal_elementary("sin", F(1, 3))
    balls, fractions = [], []
    ball, new = CompReal.ball, F.__dict__["__new__"]

    def counted_new(cls, *args, **kwargs):
        fractions.append(args)
        return new.__func__(cls, *args, **kwargs)

    monkeypatch.setattr(CompReal, "ball", lambda self, p: balls.append(p) or ball(self, p))
    F.__new__ = staticmethod(counted_new)
    try:
        clear = z.bracket_clear_of((0,), PRECISION_BUDGET)
    finally:
        F.__new__ = new
    assert clear is None
    assert len(balls) <= 4 and fractions == []


def test_undecided_escalation_finds_band_ends_in_closed_form(monkeypatch):
    # each band's end follows from its working precision; doubling n to
    # find it made 22 `_first_precision` calls for this escalation
    calls = []
    monkeypatch.setattr("rzl.scalar._first_precision",
                        lambda n: calls.append(n) or _first_precision(n))
    z = creal_elementary("sin", F(1, 3)) - creal_elementary("sin", F(1, 3))
    assert z.bracket_clear_of((0,), PRECISION_BUDGET) is None
    assert len(calls) <= 4
