"""The sin/cos/exp series kernel: differential recurrences against the
Taylor shift, identities, a high index, and sharing streams between threads."""

import math
import random
import sys
import threading
import time
from fractions import Fraction as F

import pytest

from rzl.calculus import transcendental
from rzl.number import (
    PartSelector,
    RzlNumber,
    as_number,
    epsilon,
    from_coefficients,
    from_rational,
    inverse,
    leading_index,
    make_number,
    one,
    part,
)
from rzl.scalar import (
    creal_elementary,
    is_rational_scalar,
    scalar_eq,
    scalar_is_zero,
)

KINDS = ("sin", "cos", "exp")


# -- reference: the Taylor shift ------------------------------------------------

def _taylor_coefficients(kind, s):
    """n -> n-th derivative of the function at s over n!, exact at s = 0."""
    if s == 0:
        base = {"sin": (0, 1, 0, -1), "cos": (1, 0, -1, 0)}
    else:
        sin_s = creal_elementary("sin", s)
        cos_s = creal_elementary("cos", s)
        base = {"sin": (sin_s, cos_s, -sin_s, -cos_s),
                "cos": (cos_s, -sin_s, -cos_s, sin_s)}
    exp_s = F(1) if s == 0 else creal_elementary("exp", s)
    facts = [1]

    def coeff(n):
        while len(facts) <= n:
            facts.append(facts[-1] * len(facts))
        inv_fact = F(1, facts[n])
        if kind == "exp":
            return exp_s * inv_fact
        return base[kind][n % 4] * inv_fact

    return coeff


def taylor_shift(kind, x):
    """Coefficient k is the sum over n <= k of g_n(s) * (d**n)[k], with s the
    standard part, d the infinitesimal displacement and g_n(s) the n-th
    derivative at s over n!: O(K**3) for K coefficients, single-threaded."""
    x = as_number(x)
    s = F(x[0])
    delta = part(x, PartSelector.NST_EPSILON)
    coeff = _taylor_coefficients(kind, s)
    powers = [None, delta]

    def delta_pow(n):
        while len(powers) <= n:
            powers.append(powers[-1] * delta)
        return powers[n]

    def fn(k):
        acc = coeff(0) if k == 0 else 0
        for n in range(1, k + 1):
            c = coeff(n)
            if scalar_is_zero(c):
                continue
            dnk = delta_pow(n)[k]
            if scalar_is_zero(dnk):
                continue
            acc = acc + c * dnk
        return acc

    fs = 0 if (x.finite_support is not None and x.finite_support <= 0) else None
    return RzlNumber(0, fn, finite_support=fs)


# -- displacements: finite and infinite support ----------------------------------

DISPLACEMENTS = {
    "c*eps": lambda: F(-3, 4) * epsilon(),
    "cubic": lambda: from_coefficients(0, [0, 1, F(-2), F(1, 3)]),
    "exp(eps)-1": lambda: transcendental("exp", epsilon()) - 1,
    "inverse(1+eps)-1": lambda: inverse(1 + epsilon()) - 1,
}


def _overlap(a, b, n):
    """Do the certified brackets of two scalars at precision n meet?"""
    lo_a, hi_a = (a, a) if is_rational_scalar(a) else a.bracket(n)
    lo_b, hi_b = (b, b) if is_rational_scalar(b) else b.bracket(n)
    return max(lo_a, lo_b) <= min(hi_a, hi_b)


@pytest.mark.parametrize("name", DISPLACEMENTS)
@pytest.mark.parametrize("kind", KINDS)
def test_recurrences_equal_taylor_shift_exactly(kind, name):
    d = DISPLACEMENTS[name]()
    got, ref = transcendental(kind, d), taylor_shift(kind, d)
    for k in range(61):
        assert is_rational_scalar(got[k])
        assert got[k] == ref[k], (kind, name, k)


CREAL_DISPLACEMENTS = {
    **DISPLACEMENTS,
    # computable-real coefficients in the displacement itself
    "eps*sin(1/2+eps)": lambda: epsilon() * transcendental(
        "sin", from_rational(F(1, 2)) + epsilon()),
}


@pytest.mark.parametrize("s", [0, F(1, 3), F(-2, 5)])
@pytest.mark.parametrize("name", CREAL_DISPLACEMENTS)
@pytest.mark.parametrize("kind", KINDS)
def test_recurrences_match_taylor_shift_in_brackets(kind, name, s):
    x = from_rational(s) + CREAL_DISPLACEMENTS[name]()
    got, ref = transcendental(kind, x), taylor_shift(kind, x)
    for k in range(8):
        assert _overlap(got[k], ref[k], 10 ** 6), (kind, name, s, k)


@pytest.mark.parametrize("name", DISPLACEMENTS)
def test_identities_on_a_window(name):
    a = DISPLACEMENTS[name]()
    sin, cos = transcendental("sin", a), transcendental("cos", a)
    pyth = sin * sin + cos * cos
    prod = transcendental("exp", a) * transcendental("exp", -a)
    for k in range(41):
        assert pyth[k] == prod[k] == (1 if k == 0 else 0), k
    # at a nonzero standard part, within brackets
    b = from_rational(F(1, 3)) + a
    sin, cos = transcendental("sin", b), transcendental("cos", b)
    pyth = sin * sin + cos * cos
    prod = transcendental("exp", b) * transcendental("exp", -b)
    for k in range(6):
        target = 1 if k == 0 else 0
        assert _overlap(pyth[k], target, 10 ** 6), k
        assert _overlap(prod[k], target, 10 ** 6), k


def test_tagged_constants_pass_through():
    # an exact zero partner keeps the series constant itself (or its
    # negation), so scalar_eq can still certify it from its structure
    x = one() + epsilon()
    assert scalar_eq(transcendental("sin", x)[0], creal_elementary("sin", 1)) is True
    assert scalar_eq(transcendental("sin", x)[1], creal_elementary("cos", 1)) is True
    assert scalar_eq(transcendental("cos", x)[1], -creal_elementary("sin", 1)) is True
    assert scalar_eq(transcendental("exp", x)[0], creal_elementary("exp", 1)) is True
    assert transcendental("sin", from_rational(F(1, 3)))[1] == 0


def test_exact_zeros_stay_exact_with_a_computable_real_displacement():
    # d = sin(1)*eps: S_0 = 0 is an exact zero, so C_1 = -d_1*S_0 must stay
    # an exact 0 rather than a computable-real zero that is never decided
    sin1 = creal_elementary("sin", F(1))
    d = from_coefficients(0, [0, sin1])
    cos, sin = transcendental("cos", d), transcendental("sin", d)
    for k in (1, 3, 5):
        assert is_rational_scalar(cos[k]) and cos[k] == 0, k
    for k in (0, 2, 4):
        assert is_rational_scalar(sin[k]) and sin[k] == 0, k
    li = leading_index(cos - 1)
    assert li.is_certified and li.witness == 2
    assert inverse(cos - 1).low == -2


def test_taylor_coefficients_against_sympy():
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    cubic = t - 2 * t ** 2 + sympy.Rational(1, 3) * t ** 3
    for kind, expr in (("sin", sympy.sin(cubic)), ("cos", sympy.cos(cubic))):
        poly = sympy.series(expr, t, 0, 12).removeO()
        got = transcendental(kind, DISPLACEMENTS["cubic"]())
        for k in range(12):
            c = poly.coeff(t, k)
            assert got[k] == F(int(c.p), int(c.q)), (kind, k)
    # exp(exp(t) - 1) generates the Bell numbers: coefficient k is B_k / k!
    got = transcendental("exp", DISPLACEMENTS["exp(eps)-1"]())
    for k in range(41):
        assert got[k] == F(int(sympy.bell(k)), math.factorial(k)), k


def test_high_index_without_recursion():
    assert transcendental("exp", epsilon())[1200] == F(1, math.factorial(1200))


def _dense(seed, n, pool, lead=None):
    """A polynomial of n coefficients drawn from pool.  Each first read of
    a coefficient yields the interpreter lock, so that threads sharing a
    product of such factors often read one operand index at once."""
    rng = random.Random(seed)
    coeffs = [rng.choice(pool) for _ in range(n)]
    if lead is not None:
        coeffs[0] = lead

    def coeff(i):
        time.sleep(0)
        return coeffs[i]

    return make_number(0, coeff, n - 1)


_FRACTIONS = (F(1), F(-2), F(1, 2), F(3), F(-1, 3), F(2, 3), F(-3, 2))


@pytest.mark.parametrize("build, n", [
    (lambda: inverse(1 + transcendental("sin", epsilon())), 60),
    (lambda: transcendental("exp", epsilon() + epsilon() ** 2), 60),
    # wide exact windows: the threads share one window's prefixes
    (lambda: _dense(1, 100, _FRACTIONS) * _dense(2, 100, _FRACTIONS), 199),
    (lambda: inverse(_dense(3, 40, (1, 2, -1, -2, 0), lead=1)), 64),
], ids=["inverse(1+sin(eps))", "exp(eps+eps^2)", "poly100*poly100", "inverse(poly40)"])
def test_shared_stream_across_threads(build, n):
    expected = [build()[k] for k in range(n)]
    shared = build()
    results = [None] * 4
    start = threading.Barrier(4)

    def read(slot):
        start.wait(timeout=60)   # all four begin at index 0 together
        results[slot] = [shared[k] for k in range(n)]

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read, args=(i,)) for i in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    assert results == [expected] * 4
