"""The three convergence notions and the hyper-Cauchy checker."""

from fractions import Fraction as F

import pytest

from rzl import convergence
from rzl.convergence import (
    RzlSequence,
    cc_check,
    cc_from_hc,
    hc_check,
    hyper_cauchy_check,
    rc_check,
)
from rzl.number import (
    epsilon,
    from_rational,
    monomial,
    one,
    zero,
)
from rzl.order import abs_val

EPS_POW = RzlSequence(lambda n: epsilon() ** n, "eps^n")
HARMONIC = RzlSequence(lambda n: from_rational(F(1, n)), "1/n")
N_EPS = RzlSequence(lambda n: monomial(n, 1), "n*eps")
EV_CONST = RzlSequence(lambda n: from_rational(min(n, 4)), "eventually 4")


def test_cc_non_unique_limits():
    for c in (100, 200, 300):
        v = cc_check(N_EPS, monomial(c, 1), 24)
        assert v.is_certified, c


def test_cc_harmonic_with_supplied_modulus():
    v = cc_check(HARMONIC, zero(), 40, modulus=lambda m: m)
    assert v.is_certified and v.witness["modulus"] == "supplied"


def test_cc_harmonic_derived():
    assert cc_check(HARMONIC, zero(), 40).is_certified


def test_cc_refuted_for_wrong_standard_limit():
    v = cc_check(N_EPS, one(), 24)
    assert v.is_refuted and v.witness["tolerance"] == "1/2"


def test_hc_examples():
    v = hc_check(EPS_POW, zero(), [epsilon()], 20)
    assert v.is_certified
    assert v.witness["infinitesimal_radius_modulus"] == 1
    assert hc_check(EPS_POW, zero(), [epsilon(), epsilon() ** 3,
                                      from_rational(F(1, 7))], 20).is_certified
    r = hc_check(HARMONIC, zero(), [epsilon()], 20)
    assert r.is_refuted and "radius" in r.witness
    # standard-part-only sequence cannot hyperconverge to 0 either
    st_seq = RzlSequence(lambda n: from_rational(F(1, n)), "st 1/n")
    assert hc_check(st_seq, zero(), [epsilon()], 20).is_refuted


def test_hc_requires_positive_radii():
    with pytest.raises(ValueError):
        hc_check(EPS_POW, zero(), [zero()], 8)
    with pytest.raises(ValueError):
        hc_check(EPS_POW, zero(), [], 8)


def test_hc_implies_cc_by_modulus_transfer():
    for seq, limit in ((EPS_POW, zero()),
                       (RzlSequence(lambda n: epsilon() ** n + monomial(5, 1),
                                    "5eps + eps^n"), monomial(5, 1))):
        hc = hc_check(seq, limit, [epsilon()], 20)
        assert hc.is_certified
        cc = cc_from_hc(seq, limit, hc, 20)
        assert cc.is_certified
        assert cc_check(seq, limit, 20).is_certified


def test_hc_of_absolute_values():
    alternating = RzlSequence(
        lambda n: (-1) ** n * (epsilon() ** n), "(-eps)^n-ish")
    hc = hc_check(alternating, zero(), [epsilon()], 16)
    assert hc.is_certified

    def abs_term(n):
        v = abs_val(alternating(n), 16)
        assert v.is_certified
        return v.value

    hc_abs = hc_check(RzlSequence(abs_term, "|s_n|"), zero(), [epsilon()], 16)
    assert hc_abs.is_certified


def test_rc_examples():
    st_seq = RzlSequence(lambda n: from_rational(F(1, n)), "st 1/n")
    v = rc_check(st_seq, zero(), 20, 24)
    assert v.is_certified and v.caveat is None     # finite support, no caveat
    r = rc_check(EPS_POW, zero(), 12, 16)
    assert r.is_refuted
    assert r.witness["tolerance"] == "1/1"
    assert r.witness["violating_index_by_term"][1] == 1
    const = RzlSequence(lambda n: from_rational(7) + epsilon(), "const")
    assert rc_check(const, from_rational(7) + epsilon(), 12, 16).is_certified


def test_hyper_cauchy():
    assert hyper_cauchy_check(EV_CONST, [epsilon()], 16).is_certified
    v = hyper_cauchy_check(HARMONIC, [epsilon()], 16)
    assert v.is_refuted
    transfer = hyper_cauchy_check(EPS_POW, [epsilon()], 16, limit_hint=zero())
    assert transfer.is_certified and "transfer" in transfer.witness
    # direct pairwise certification without a hint
    direct = hyper_cauchy_check(EPS_POW, [epsilon()], 12)
    assert direct.is_certified


def test_hyper_cauchy_pairwise_modulus():
    # pairs of eps^a, eps^b (a, b > 10) differ by an infinitesimal of order
    # 11; row 10 is the highest with a pair at or above eps
    seq = RzlSequence(lambda n: from_rational(F(1, n)) if n <= 10 else epsilon() ** n,
                      "1/n then eps^n")
    v = hyper_cauchy_check(seq, [epsilon()])
    assert v.is_certified
    assert v.witness == {"modulus": {0: 10}}


def test_hyper_cauchy_checks_each_pair_once(monkeypatch):
    # the default window has 23 consecutive pairs: the n0 scan stops at
    # each one, and the refutation reads them again from the memo
    calls = []
    real = convergence.within_radius

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(convergence, "within_radius", counted)
    assert hyper_cauchy_check(HARMONIC, [epsilon()]).is_refuted
    assert len(calls) == 23


def test_budget_growth_never_flips_decided_verdicts():
    cases = [
        lambda m: cc_check(N_EPS, monomial(100, 1), m).state,
        lambda m: hc_check(EPS_POW, zero(), [epsilon()], m).state,
        lambda m: hc_check(HARMONIC, zero(), [epsilon()], m).state,
        lambda m: rc_check(EPS_POW, zero(), m, 4 * m).state,
    ]
    for case in cases:
        states = [case(m) for m in (6, 12, 24)]
        decided = [s for s in states if s.value != "unknown"]
        assert len(set(decided)) <= 1


@pytest.mark.parametrize("check", [
    lambda m: cc_check(HARMONIC, zero(), m),
    lambda m: hc_check(HARMONIC, zero(), [epsilon()], m),
    lambda m: rc_check(HARMONIC, zero(), m),
    lambda m: hyper_cauchy_check(HARMONIC, [epsilon()], m + 1),
], ids=["cc", "hc", "rc", "cauchy"])
def test_windows_that_inspect_nothing_raise(check):
    # no term (one term for the hyper-Cauchy pairs) decides nothing
    with pytest.raises(ValueError, match="window of"):
        check(0)
    with pytest.raises(ValueError, match="window of"):
        check(-3)
    check(1)   # the smallest window is accepted


def test_rc_refuses_a_negative_index_budget():
    with pytest.raises(ValueError, match="index budget"):
        rc_check(HARMONIC, zero(), 3, -1)
    rc_check(HARMONIC, zero(), 3, 0)
