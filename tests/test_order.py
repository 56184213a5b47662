"""Order, metric and separation predicates: spec examples plus law checks."""

import random
from fractions import Fraction as F

import pytest

from rzl import (
    epsilon,
    from_coefficients,
    from_rational,
    grossone,
    monomial,
    omega,
    one,
    zero,
)
from rzl.number import compare_finite, eq_up_to
from rzl.order import (
    APPRECIABLE,
    INFINITE,
    INFINITESIMAL,
    NEGATIVE,
    POSITIVE,
    DeltaSpec,
    abs_val,
    ball_contains,
    classify,
    dis,
    diss,
    distinguishable,
    e_ball,
    in_delta,
    in_delta_leading,
    lex_less,
    point_interior_witness,
    psi_ball,
    rat_ball,
    sign_of,
    st_ball,
)
from rzl.scalar import CompReal
from rzl.verdict import UndecidedError


def rand_num(rng):
    low = rng.randint(-3, 0)
    return from_coefficients(low, [rng.randint(-3, 3)
                                   for _ in range(rng.randint(1, 5))])


def test_sign_examples():
    assert sign_of(epsilon() - epsilon() ** 3).value == POSITIVE
    assert sign_of(from_rational(1000) - omega()).value == NEGATIVE
    for depth in (1, 4, 16, 64):
        assert sign_of(zero(), depth).is_unknown


def test_lex_less_examples():
    for n in (1, 2, 10, 1000, 10 ** 6):
        assert lex_less(epsilon(), from_rational(F(1, n))).is_certified
    rng = random.Random(5)
    for _ in range(25):
        finite = from_rational(F(rng.randint(-999, 999), rng.randint(1, 99))) \
            + rng.randint(-3, 3) * epsilon()
        assert lex_less(finite, grossone()).is_certified
    x = epsilon() + one()
    assert lex_less(x, x).is_unknown


def test_abs_examples():
    assert eq_up_to(abs_val(-omega()).value, omega(), -1, 8)
    assert eq_up_to(abs_val(epsilon() - one()).value, one() - epsilon(), 0, 8)
    # |a| - eps with a = 0 exactly: flips to eps - |a|; with a certified-zero
    # impossible, the verdict must stay open
    sneaky = CompReal(lambda n: F(1, 2 * n))
    from rzl.number import make_number
    z = make_number(0, lambda i: sneaky if i == 0 else (-1 if i == 1 else 0))
    assert abs_val(z, 8).is_unknown


def test_classify_examples():
    assert classify(epsilon() ** 3, 8).value == INFINITESIMAL
    assert classify(from_rational(2) + epsilon()).value == APPRECIABLE
    assert classify(omega() - from_rational(10 ** 6)).value == INFINITE
    assert classify(zero()).is_unknown


def test_metric_examples():
    assert diss(zero(), epsilon()).value == 0
    assert sign_of(epsilon()).is_certified          # yet 0 != eps
    assert dis(from_rational(1), from_rational(3)).value[0] == 2
    rng = random.Random(9)
    for _ in range(30):
        x, y = rand_num(rng), rand_num(rng)
        a, b = dis(x, y, 12), dis(y, x, 12)
        if a.is_certified and b.is_certified:
            assert eq_up_to(a.value, b.value, -6, 12)


def test_triangle_inequality_on_certified_triples():
    rng = random.Random(15)
    checked = 0
    for _ in range(60):
        x, y, z = rand_num(rng), rand_num(rng), rand_num(rng)
        dxz, dxy, dyz = dis(x, z, 12), dis(x, y, 12), dis(y, z, 12)
        if all(v.is_certified for v in (dxz, dxy, dyz)):
            assert compare_finite(dxz.value, dxy.value + dyz.value) <= 0
            checked += 1
    assert checked > 10


def test_order_laws_certified_level():
    rng = random.Random(21)
    transitive = translation = scaling = 0
    for _ in range(80):
        x, y, z = rand_num(rng), rand_num(rng), rand_num(rng)
        vxy, vyz = lex_less(x, y, 12), lex_less(y, z, 12)
        if vxy.is_certified and vyz.is_certified:
            assert lex_less(x, z, 24).is_certified
            transitive += 1
        if vxy.is_certified:
            assert lex_less(x + z, y + z, 24).is_certified
            translation += 1
            c = F(rng.randint(1, 5), rng.randint(1, 3))
            assert lex_less(c * x, c * y, 24).is_certified
            scaling += 1
    assert min(transitive, translation, scaling) > 5


def test_delta_examples():
    assert in_delta(5 * epsilon() ** 2, DeltaSpec(2), 8).is_certified
    assert in_delta(epsilon() ** 3, DeltaSpec(2, down_closed=True), 8).is_certified
    assert in_delta(epsilon() + epsilon() ** 2, DeltaSpec(1), 8).is_refuted
    assert in_delta(epsilon(), DeltaSpec(2, down_closed=True), 8).is_refuted
    assert in_delta(from_rational(7), DeltaSpec(0), 8).is_certified
    assert in_delta_leading(epsilon() + epsilon() ** 2, 1, 8).is_certified
    assert in_delta_leading(epsilon() ** 2, 1, 8).is_refuted
    assert in_delta(zero(), DeltaSpec(0, down_closed=True), 8).is_certified
    assert in_delta(zero(), DeltaSpec(1, down_closed=True), 8).is_refuted


def test_ball_examples():
    inside = from_rational(2) + 999 * epsilon()
    assert ball_contains(psi_ball(from_rational(2), 10), inside).is_certified
    assert ball_contains(st_ball(zero(), 5), epsilon()).is_certified
    assert ball_contains(e_ball(zero(), epsilon() ** 2), epsilon()).is_refuted
    assert ball_contains(e_ball(zero(), epsilon()), epsilon() ** 2).is_certified
    with pytest.raises(ValueError):
        ball_contains(e_ball(zero(), one()), epsilon())   # radius not infinitesimal


def test_st_ball_equals_rat_ball():
    rng = random.Random(27)
    for _ in range(40):
        c, z = rand_num(rng), rand_num(rng)
        n = rng.randint(1, 9)
        a = ball_contains(st_ball(c, n), z, 12)
        b = ball_contains(rat_ball(c, n), z, 12)
        assert a.state == b.state


def test_distinguishable_examples():
    e, oneplus = epsilon(), one() + epsilon()
    assert distinguishable(e, oneplus, "st").is_certified
    assert distinguishable(e, oneplus, "e").is_certified
    v = distinguishable(zero(), e, "st")
    assert v.is_refuted
    assert distinguishable(zero(), e, "e").is_certified
    assert distinguishable(zero(), omega(), "st").is_certified
    assert distinguishable(one(), one(), "e", 8).is_refuted


def test_interior_witness_examples():
    half_eps = monomial(F(1, 2), 1)
    graded = point_interior_witness((zero(), epsilon()), half_eps, "e")
    assert graded.is_certified and graded.witness == ("eps^m", 2)
    assert point_interior_witness((zero(), epsilon()), half_eps, "st").is_refuted
    v = point_interior_witness((zero(), from_rational(2)), one(), "st")
    assert v.is_certified and v.witness == ("1/n", 2)
    # the literal reading refutes rational-radius interiority at 2 + eps in (2, 3)
    two_eps = from_rational(2) + epsilon()
    assert point_interior_witness((from_rational(2), from_rational(3)),
                                  two_eps, "st").is_refuted
    assert point_interior_witness((from_rational(2), from_rational(3)),
                                  two_eps, "e").is_certified
    with pytest.raises(UndecidedError):
        point_interior_witness((zero(), epsilon()), from_rational(5), "st")


def test_verdict_monotonicity_under_depth_growth():
    rng = random.Random(33)
    for _ in range(150):
        x, y = rand_num(rng), rand_num(rng)
        states = [lex_less(x, y, d).state for d in (2, 4, 8, 16, 32)]
        seen_decided = None
        for s in states:
            if s.value in ("certified", "refuted"):
                if seen_decided is None:
                    seen_decided = s
                else:
                    assert s == seen_decided
    for _ in range(100):
        x = rand_num(rng)
        states = [classify(x, d).state for d in (2, 4, 8, 16)]
        decided = [s for s in states if s.value == "certified"]
        if decided:
            vals = [classify(x, d).value for d in (8, 16)]
            assert len(set(v for v in vals if v is not None)) <= 1


def test_archimedean_splits_by_fragment():
    # on the standard fragment a multiple overtakes any bound
    x, y = from_rational(F(2, 7)), from_rational(555)
    n = 555 * 7 // 2 + 1
    assert lex_less(y, from_rational(n) * x, 8).is_certified
    # an infinitesimal never overtakes 1, at any sampled multiplier
    for n in (1, 10, 10 ** 3, 10 ** 9):
        assert lex_less(from_rational(n) * epsilon(), one(), 8).is_certified


def test_totality_and_antisymmetry_at_certified_level():
    rng = random.Random(61)
    flips = 0
    for _ in range(120):
        x, y = rand_num(rng), rand_num(rng)
        fwd, bwd = lex_less(x, y, 12), lex_less(y, x, 12)
        assert not (fwd.is_certified and bwd.is_certified)   # antisymmetry
        if fwd.is_refuted:                                   # totality: x > y
            assert bwd.is_certified
            flips += 1
        if bwd.is_refuted:
            assert fwd.is_certified
    assert flips > 5


def test_psi_ball_with_computable_real_center():
    from rzl.number import make_number
    from rzl.scalar import creal_elementary
    sin1 = creal_elementary("sin", 1)            # ~0.8415
    center = make_number(0, lambda i: sin1 if i == 0 else 0, finite_support=0)
    near = from_rational(F(84, 100)) + 7 * epsilon()
    far = from_rational(2)
    assert ball_contains(psi_ball(center, 50), near).is_certified
    assert ball_contains(psi_ball(center, 50), far).is_refuted
    sneaky = CompReal(lambda n: F(1, 2 * n))
    edge = make_number(0, lambda i: sneaky if i == 0 else 0)
    boundary_center = from_rational(F(1, 50))    # gap exactly at the radius
    assert ball_contains(psi_ball(boundary_center, 50), edge,
                         budget=2 ** 10).is_unknown


def test_st_separation_witness_for_a_computable_real():
    mpmath = pytest.importorskip("mpmath")
    from rzl.number import from_scalar
    from rzl.scalar import creal_elementary
    v = distinguishable(from_scalar(creal_elementary("sin", F(1, 3))), zero(), "st")
    assert v.is_certified and v.witness == ("st-ball-n", 26)
    with mpmath.workdps(50):
        assert mpmath.mpf(1) / 26 < abs(mpmath.sin(mpmath.mpf(1) / 3)) / 2


# -- one decision per leading coefficient ----------------------------------------

def _count_clears(monkeypatch) -> list:
    """Record each CompReal.bracket_clear_of call (the escalation loop)."""
    calls = []
    clear = CompReal.bracket_clear_of

    def counted(self, *args):
        calls.append(self)
        return clear(self, *args)

    monkeypatch.setattr(CompReal, "bracket_clear_of", counted)
    return calls


def test_order_escalates_once_per_computable_coefficient(monkeypatch):
    from rzl.scalar import creal_elementary
    c = creal_elementary("sin", F(1, 3))
    x = from_coefficients(-1, [0, 0, c, 1])     # leading coefficient c at index 1
    calls = _count_clears(monkeypatch)
    for check, witness in ((lambda: sign_of(x), (1, POSITIVE)),
                           (lambda: abs_val(x), (1, POSITIVE)),
                           (lambda: lex_less(zero(), x), (1, POSITIVE)),
                           (lambda: lex_less(x, zero()), (1, NEGATIVE))):
        calls.clear()
        v = check()
        assert v.witness == witness
        assert len(calls) == 1


def test_st_distinguishable_escalates_once(monkeypatch):
    from rzl.scalar import creal_elementary
    gap = from_coefficients(0, [creal_elementary("sin", F(1, 3)), 1])
    calls = _count_clears(monkeypatch)
    v = distinguishable(zero(), gap, "st")
    assert v.is_certified and v.witness == ("st-ball-n", 26)
    assert len(calls) == 1


def test_within_radius_stops_at_a_refuted_upper_side():
    from rzl.number import make_number
    from rzl.order import within_radius
    v = within_radius(from_rational(2), one(), 8, 2 ** 20)
    assert v.is_refuted and v.witness == (0, NEGATIVE)
    # the same values as streams without a support bound, so the window
    # runs to index 8: the upper side 1 - 2 < 0 refutes at index 0, and no
    # coefficient past it is read
    reads = []

    def counted(value):
        return make_number(0, lambda i: reads.append(i) or (value if i == 0 else 0))

    v = within_radius(counted(2), counted(1), 8, 2 ** 20)
    assert v.is_refuted and v.witness == (0, NEGATIVE)
    assert reads == [0, 0]
