"""Core stream arithmetic, checked against independent brute-force oracles."""

import random
from fractions import Fraction as F

import pytest

from rzl import (
    PartSelector,
    UndecidedError,
    divide,
    epsilon,
    fractal_lift,
    from_coefficients,
    from_rational,
    grossone,
    grossone_fraction,
    inverse,
    leading_index,
    make_number,
    monomial,
    omega,
    one,
    part,
    zero,
)
from rzl.number import RzlNumber, compare_finite, convolution_sum, eq_up_to
from rzl.scalar import CompReal, scalar_is_zero


# -- independent oracle: dict-based polynomial (Laurent) arithmetic -----------------

def to_dict(x: RzlNumber) -> dict:
    assert x.finite_support is not None
    return {i: F(x[i]) for i in range(x.low, x.finite_support + 1) if x[i] != 0}


def dict_mul(a: dict, b: dict) -> dict:
    out = {}
    for i, ai in a.items():
        for j, bj in b.items():
            out[i + j] = out.get(i + j, F(0)) + ai * bj
    return {k: v for k, v in out.items() if v != 0}


def dict_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, F(0)) + v
    return {k: v for k, v in out.items() if v != 0}


def random_number(rng, max_low=-3, max_len=6):
    low = rng.randint(max_low, 0)
    coeffs = [rng.randint(-3, 3) for _ in range(rng.randint(1, max_len))]
    return from_coefficients(low, coeffs)


def test_literal_goldens():
    from rzl import coefficient_at
    One = one()
    assert One[0] == 1 and One[-56] == 0 and One[2454] == 0
    assert coefficient_at(One, 0) == 1 and coefficient_at(One, -56) == 0
    n4 = from_rational(2) + 2 * epsilon() - omega() ** 2
    assert [n4[i] for i in range(-2, 3)] == [-1, 0, 2, 2, 0]
    assert n4[1] == 2


def test_make_number_examples():
    m1 = make_number(0, lambda i: 1 if i == 0 else 0)
    assert m1[0] == 1 and m1[5] == 0
    mw = make_number(-1, lambda i: 1 if i == -1 else 0)
    assert mw[-1] == 1 and mw[0] == 0
    m4 = make_number(-2, lambda i: {-2: -1, 0: 2, 1: 2}.get(i, 0))
    assert [m4[i] for i in range(-2, 3)] == [-1, 0, 2, 2, 0]


def test_addition_goldens():
    s = epsilon() + omega() + one()
    assert [s[i] for i in range(-1, 3)] == [1, 1, 1, 0]
    d = epsilon() - omega() + one()
    assert [d[i] for i in range(-1, 3)] == [-1, 1, 1, 0]
    x = from_coefficients(-1, [2, -1, 3])
    z = x + zero()
    assert eq_up_to(x, z, -2, 12)


def test_multiplication_goldens():
    p = epsilon() * omega() + one()
    assert [p[i] for i in range(-1, 3)] == [0, 2, 0, 0]
    q = epsilon() * (-epsilon()) + one()
    assert [q[i] for i in range(0, 4)] == [1, 0, -1, 0]


def test_mul_against_convolution_oracle():
    rng = random.Random(7)
    for _ in range(200):
        x = random_number(rng)
        y = random_number(rng)
        expected = dict_mul(to_dict(x), to_dict(y))
        got = x * y
        for k in range(got.low, 13):
            assert F(got[k]) == expected.get(k, F(0))


def test_pow():
    e2 = epsilon() ** 2
    assert [e2[i] for i in range(0, 4)] == [0, 0, 1, 0]
    w2 = omega() ** 2
    assert w2.low == -2 and w2[-2] == 1
    b = (one() + epsilon()) ** 2
    assert [b[i] for i in range(0, 4)] == [1, 2, 1, 0]
    sq = random.Random(3)
    x = random_number(sq)
    expected = dict_mul(to_dict(x), to_dict(x))
    got = x ** 2
    for k in range(got.low, 13):
        assert F(got[k]) == expected.get(k, F(0))
    assert (x ** 0)[0] == 1


def test_parts():
    n4 = from_rational(2) + 2 * epsilon() - omega() ** 2
    st = part(n4, PartSelector.ST)
    assert st[0] == 2 and st[1] == 0 and st[-2] == 0
    assert part(epsilon(), PartSelector.NST_OMEGA)[-1] == 0
    # the three parts partition every index
    rng = random.Random(11)
    for _ in range(50):
        x = random_number(rng)
        back = (part(x, PartSelector.NST_OMEGA) + part(x, PartSelector.ST)
                + part(x, PartSelector.NST_EPSILON))
        assert eq_up_to(x, back, -5, 12)
        ni_e = part(x, PartSelector.NI_EPSILON)
        ni_w = part(x, PartSelector.NI_OMEGA)
        assert eq_up_to(ni_e + part(x, PartSelector.NST_EPSILON), x, -5, 12)
        assert eq_up_to(ni_w + part(x, PartSelector.NST_OMEGA), x, -5, 12)


def test_parts_are_linear():
    rng = random.Random(13)
    for sel in PartSelector:
        for _ in range(20):
            x, y = random_number(rng), random_number(rng)
            c = F(rng.randint(-4, 4), rng.randint(1, 4))
            assert eq_up_to(part(x + y, sel), part(x, sel) + part(y, sel), -6, 12)
            assert eq_up_to(part(c * x, sel), c * part(x, sel), -6, 12)


def test_eps_shift_law():
    rng = random.Random(17)
    for _ in range(30):
        x = random_number(rng)
        shifted = epsilon() * x
        for n in range(-4, 13):
            assert shifted[n] == x[n - 1]


def test_leading_index():
    assert leading_index(epsilon() + omega(), 8).witness == -1
    assert leading_index(zero(), 8).is_unknown
    e5 = epsilon() ** 5
    assert leading_index(e5, 3).is_unknown
    assert leading_index(e5, 6).witness == 5


def test_inverse_golden_series():
    inv = inverse(epsilon() + omega(), 8)
    assert [inv[i] for i in range(0, 8)] == [0, 1, 0, -1, 0, 1, 0, -1]
    assert inverse(one(), 4)[0] == 1 and inverse(one(), 4).finite_support == 0


def test_inverse_product_is_one():
    cases = [one() + omega(),                      # 1 + w
             epsilon() + omega(),
             3 * epsilon() + 5 * omega(),          # r*eps + s*w
             from_rational(F(7, 2)) + omega(),     # r + w
             from_rational(-4) + epsilon()]        # r + eps
    for x in cases:
        p = x * inverse(x, 12)
        assert p[0] == 1
        for i in range(p.low, 13):
            if i != 0:
                assert p[i] == 0


def test_inverse_uniqueness_at_depth():
    rng = random.Random(23)
    for _ in range(20):
        x = random_number(rng)
        if not leading_index(x, 8).is_certified:
            continue
        y1 = inverse(x, 8)
        y2 = inverse(x, 16)
        assert eq_up_to(y1, y2, min(y1.low, y2.low), 12)


def test_inverse_requires_certified_leading_term():
    with pytest.raises(UndecidedError, match="certified leading term"):
        inverse(zero(), 8)
    sneaky = CompReal(lambda n: F(1, 2 * n))
    z = make_number(0, lambda i: sneaky if i == 0 else (1 if i == 1 else 0))
    with pytest.raises(UndecidedError, match="certified leading term"):
        inverse(z, 8)


def test_divide():
    x = epsilon() + omega()
    q = divide(x, x, 12)
    assert q[0] == 1 and all(q[i] == 0 for i in range(q.low, 13) if i != 0)
    w_inv = divide(one(), omega(), 8)
    assert w_inv[1] == 1 and all(w_inv[i] == 0 for i in range(w_inv.low, 9) if i != 1)
    shift = divide(epsilon(), epsilon() ** 2, 8)
    assert shift[-1] == 1 and shift[0] == 0


def test_grossone():
    g = grossone()
    assert eq_up_to(g, omega(), -1, 8)
    g3 = grossone_fraction(3)
    assert g3[-1] == F(1, 3) and g3[0] == 0
    assert eq_up_to(g3 * from_rational(3), g, -1, 8)
    assert (g ** 0)[0] == 1
    assert all((zero() * g)[i] == 0 for i in range(-2, 9))
    gg = divide(g, g, 8)
    assert gg[0] == 1 and all(gg[i] == 0 for i in range(gg.low, 9) if i != 0)


def test_fractal_lift():
    F1 = fractal_lift(from_rational(1))
    assert all(F1[k] == 1 for k in range(0, 12))
    F0 = fractal_lift(zero())
    assert all(F0[k] == 0 for k in range(0, 12))
    Fv = fractal_lift(from_rational(5))
    # zooming one slot out of the omega direction reproduces the lift
    zoom = part(omega() * Fv, PartSelector.NI_OMEGA)
    assert eq_up_to(zoom, Fv, -2, 10)
    # pushing into the eps direction shifts every coefficient one slot
    pushed = epsilon() * Fv
    assert all(pushed[k] == Fv[k - 1] for k in range(0, 11))
    with pytest.raises(ValueError):
        fractal_lift(epsilon())
    # with no support bound, no window of zeros makes a stream pure
    with pytest.raises(ValueError):
        fractal_lift(make_number(0, lambda i: 3 if i == 0 else (1 if i == 20 else 0)))


def test_field_axioms_randomized():
    rng = random.Random(29)
    for _ in range(150):
        x, y, z = (random_number(rng) for _ in range(3))
        assert eq_up_to(x + y, y + x, -6, 16)
        assert eq_up_to((x + y) + z, x + (y + z), -9, 16)
        assert eq_up_to(x * y, y * x, -6, 16)
        assert eq_up_to((x * y) * z, x * (y * z), -9, 16)
        assert eq_up_to(x * (y + z), x * y + x * z, -9, 16)
        assert eq_up_to(x * one(), x, -6, 16)
        assert eq_up_to(x + (-x), zero(), -6, 16)


def test_compare_finite_oracle_matches_lex_less():
    from rzl.order import lex_less
    rng = random.Random(31)
    for _ in range(60):
        x, y = random_number(rng), random_number(rng)
        cmp = compare_finite(x, y)
        v = lex_less(x, y, 12)
        if cmp < 0:
            assert v.is_certified
        elif cmp > 0:
            assert v.is_refuted
        else:
            assert v.is_unknown


def test_finite_support_flag():
    x = from_coefficients(-1, [1, 2, 3])
    assert x.finite_support == 1
    assert x[2] == 0 and x[100] == 0
    y = x * x
    assert y.finite_support == 2
    s = x + from_coefficients(0, [5])
    assert s.finite_support == 1


def test_any_inverse_on_a_window_matches_the_inverse():
    # perturbing a true inverse beyond the inspection window keeps the
    # product equal to one on the window, and the two candidates agree up
    # to the window minus the order spread
    rng = random.Random(67)
    checked = 0
    for _ in range(40):
        x = random_number(rng)
        li = leading_index(x, 8)
        if not li.is_certified:
            continue
        depth = 12
        y1 = inverse(x, 8)
        y2 = y1 + monomial(1, depth + 5)
        p1, p2 = x * y1, x * y2
        hi = depth + li.witness + 4
        for i in range(min(p1.low, p2.low), hi + 1):
            assert p1[i] == (1 if i == 0 else 0)
            if i <= depth + li.witness:
                assert p2[i] == (1 if i == 0 else 0)
        assert eq_up_to(y1, y2, y1.low, depth + 4)
        checked += 1
    assert checked > 10


def test_concurrent_coefficient_reads_are_consistent():
    # streams are shared freely across threads: memo recomputation is
    # idempotent, so concurrent readers must agree with a serial pass
    from concurrent.futures import ThreadPoolExecutor

    x = inverse(epsilon() + omega() + one(), 8)
    serial = [F(x[i]) for i in range(0, 40)]
    y = inverse(epsilon() + omega() + one(), 8)

    def read(i):
        return F(y[i])

    with ThreadPoolExecutor(max_workers=8) as pool:
        concurrent = list(pool.map(read, range(0, 40)))
    assert concurrent == serial


def test_product_coefficient_types():
    # the CLI's JSON report prints a Fraction as "4" and an int as 4
    x = from_rational(F(1, 2)) + epsilon()
    assert type((x ** 2)[0]) is F and (x ** 2)[0] == F(1, 4)
    assert type((from_rational(F(2)) * from_rational(F(1, 2)))[0]) is F
    assert type((from_rational(2) * from_rational(3))[0]) is int
    cancel = (x * (epsilon() - from_rational(F(1, 2))))[1]   # 1/2 - 1/2
    assert type(cancel) is F and cancel == 0
    assert type((x * epsilon() ** 2)[1]) is int               # no term survives


def generic_convolution_sum(a, b, k, lo, hi):
    """Reference: the convolution loop with one scalar operation per term."""
    acc = 0
    for i in range(lo, hi + 1):
        x = a(i)
        if scalar_is_zero(x):
            continue
        y = b(k - i)
        if scalar_is_zero(y):
            continue
        acc += x * y
    return acc


def test_convolution_sum_matches_generic_loop():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings
    from hypothesis import strategies as st

    rationals = st.builds(F, st.integers(-2 ** 12, 2 ** 12), st.integers(1, 2 ** 10))
    tagged = rationals.map(CompReal.from_rational)
    derived = st.tuples(rationals, rationals).map(
        lambda qr: CompReal.from_rational(qr[0]) + CompReal.from_rational(qr[1]))
    exact = st.one_of(rationals, st.integers(-10 ** 6, 10 ** 6),
                      st.sampled_from([0, F(0), F(3), F(-1), 1]))
    sequences = st.one_of(st.lists(exact, min_size=1, max_size=10),
                          st.lists(st.one_of(exact, tagged, derived),
                                   min_size=1, max_size=10))

    def recorder(values, name, calls):
        def read(i):
            calls.append((name, i))
            return values[i] if 0 <= i < len(values) else 0
        return read

    @settings(deadline=None, max_examples=300, derandomize=True)
    @given(st.data())
    def check(data):
        xs, ys = data.draw(sequences), data.draw(sequences)
        k = data.draw(st.integers(0, len(xs) + len(ys)))
        lo = data.draw(st.integers(-1, len(xs)))
        hi = data.draw(st.integers(lo, len(xs) + 1))
        calls, ref_calls = [], []
        got = convolution_sum(recorder(xs, "a", calls), recorder(ys, "b", calls),
                              k, lo, hi)
        want = generic_convolution_sum(recorder(xs, "a", ref_calls),
                                       recorder(ys, "b", ref_calls), k, lo, hi)
        assert type(got) is type(want)
        if isinstance(want, CompReal):
            assert got.ball(64) == want.ball(64)
        else:
            assert got == want
        assert calls == ref_calls
        for n, (name, j) in enumerate(calls):
            if name == "b":   # b(k - i) follows a(i), and a(i) was not an exact zero
                i = k - j
                assert n > 0 and calls[n - 1] == ("a", i)
                assert not scalar_is_zero(xs[i] if 0 <= i < len(xs) else 0)

    check()
