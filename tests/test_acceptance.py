"""Acceptance criteria.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all)
and enforces its runtime budget.  Expected values are worked examples and
byte-exact renderings; property suites use seeded generators and
independent brute-force oracles.
"""

import math
import random
import time
from fractions import Fraction as F

from rzl import expr as E
from rzl.calculus import permeate, transcendental
from rzl.continuity import ContinuityQuery, check_kn_continuity, check_kn_grid
from rzl.convergence import RzlSequence, cc_check, cc_from_hc, hc_check, hyper_cauchy_check, rc_check
from rzl.number import (
    RzlNumber,
    eq_up_to,
    epsilon,
    from_coefficients,
    from_rational,
    grossone,
    inverse,
    make_number,
    monomial,
    omega,
    one,
    zero,
)
from rzl.order import (
    DeltaSpec,
    classify,
    diss,
    distinguishable,
    in_delta,
    lex_less,
    point_interior_witness,
    sign_of,
)
from rzl.parser import parse
from rzl.render import render
from rzl.scalar import CompReal
from rzl.verdict import UndecidedError

X = E.X


def _report(num: int, ok: bool, elapsed: float, limit: float, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"{status}: criterion {num} [{elapsed:.2f}s < {limit:.0f}s] {detail}")


def _run(num, limit, detail, body):
    t0 = time.perf_counter()
    ok = False
    try:
        body()
        ok = True
    finally:
        elapsed = time.perf_counter() - t0
        _report(num, ok and elapsed < limit, elapsed, limit, detail)
    assert elapsed < limit, f"criterion {num} exceeded its runtime budget"


def test_criterion_1_inverse_golden():
    def body():
        inv = inverse(epsilon() + omega(), 8)
        assert [inv[i] for i in range(8)] == [0, 1, 0, -1, 0, 1, 0, -1]
    _run(1, 1.0, "inverse of eps+w reproduces the alternating odd series", body)


def test_criterion_2_listing_goldens():
    def body():
        o, e, w = one(), epsilon(), omega()
        assert render(o, 7) == "^1, 0, 0, 0, 0, 0, 0, ..."
        assert render(w, 7) == "1, ^0, 0, 0, 0, 0, 0, 0, ..."
        assert render(e, 7) == "^0, 1, 0, 0, 0, 0, 0, ..."
        assert render(e + w + o, 7) == "1, ^1, 1, 0, 0, 0, 0, 0, ..."
        assert render(e - w + o, 7) == "-1, ^1, 1, 0, 0, 0, 0, 0, ..."
        assert render(e * w + o, 7) == "0, ^2, 0, 0, 0, 0, 0, 0, ..."
        assert render(e * (-e) + o, 7) == "^1, 0, -1, 0, 0, 0, 0, ..."
    _run(2, 1.0, "stream renderings match the reference outputs byte for byte", body)


def test_criterion_3_field_axioms_and_oracle():
    def body():
        rng = random.Random(160953)

        def rand_num(max_len):
            low = rng.randint(-3, 0)
            return from_coefficients(
                low, [rng.randint(-3, 3) for _ in range(rng.randint(1, max_len))])

        pool = [rand_num(4) for _ in range(10_000)]
        for i in range(0, len(pool) - 2, 3):
            x, y, z = pool[i], pool[i + 1], pool[i + 2]
            lo = x.low + y.low + z.low
            assert eq_up_to(x + y, y + x, lo, 16)
            assert eq_up_to((x + y) + z, x + (y + z), lo, 16)
            assert eq_up_to(x * y, y * x, lo, 16)
            assert eq_up_to((x * y) * z, x * (y * z), lo, 16)
            assert eq_up_to(x * (y + z), x * y + x * z, lo, 16)
            assert eq_up_to(x * one(), x, lo, 16)
            assert eq_up_to(x + zero(), x, lo, 16)
            assert eq_up_to(x + (-x), zero(), lo, 16)

        def to_dict(v):
            return {i: F(v[i]) for i in range(v.low, v.finite_support + 1)
                    if v[i] != 0}

        for _ in range(400):
            x, y = rand_num(6), rand_num(6)
            expected = {}
            for i, ai in to_dict(x).items():
                for j, bj in to_dict(y).items():
                    expected[i + j] = expected.get(i + j, F(0)) + ai * bj
            got = x * y
            for k in range(got.low, 13):
                assert F(got[k]) == expected.get(k, F(0))
    _run(3, 30.0, "field axioms on 10^4 streams; Cauchy product matches the "
                  "double-loop oracle", body)


def test_criterion_4_derivative_goldens():
    def body():
        d = permeate(E.Const(3) * X, from_rational(5))
        assert d.standard_part == 3 and d.permeated == 3
        assert all(d.der_value[i] == 0 for i in range(d.der_value.low, 9) if i != 0)

        for at in (F(1), F(-2), F(7, 3)):
            dv = permeate(X ** 2 + 2 * X + 3, from_rational(at))
            assert dv.der_value[0] == 2 * at + 2
            assert dv.der_value[1] == 1
            assert dv.permeated == 2 * at + 2 and dv.in_e.is_certified

        for at in (-1, 0, 1):
            ds = permeate(E.Sign(X), from_rational(at))
            assert all(ds.der_value[i] == 0 for i in range(ds.der_value.low, 9))
            assert ds.permeated == 0

        # permeation granted exactly when Nst(x) = 0 and membership certified
        for f in (E.Const(3) * X, X ** 2 + 2 * X + 3, E.Sign(X)):
            granted = permeate(f, from_rational(1))
            assert granted.permeated is not None and granted.in_e.is_certified
            withheld = permeate(f, one() + epsilon())
            assert withheld.permeated is None
        unknown_member = permeate(E.Abs(X), one())
        assert unknown_member.permeated is None
    _run(4, 1.0, "quotient-derivative worked examples; permeation gate exact", body)


def test_criterion_5_transcendental_goldens():
    def body():
        s, c = transcendental("sin", epsilon()), transcendental("cos", epsilon())
        x = transcendental("exp", epsilon())
        assert [s[i] for i in range(6)] == [0, 1, 0, F(-1, 6), 0, F(1, 120)]
        assert [c[i] for i in range(5)] == [1, 0, F(-1, 2), 0, F(1, 24)]
        assert [x[i] for i in range(5)] == [1, 1, F(1, 2), F(1, 6), F(1, 24)]

        v = transcendental("sin", one() + 2 * epsilon())
        n = 2 * 10 ** 6           # bracket width 1e-6
        cycle = (math.sin(1), math.cos(1), -math.sin(1), -math.cos(1))
        for k in range(5):
            coeff = v[k]
            got = float(coeff.approx(n)) if isinstance(coeff, CompReal) else float(coeff)
            expect = 2 ** k / math.factorial(k) * cycle[k % 4]
            assert abs(got - expect) <= 1e-6

        ident = s * s + c * c
        assert ident[0] == 1 and all(ident[i] == 0 for i in range(1, 13))
        prod = x * transcendental("exp", -epsilon())
        assert prod[0] == 1 and all(prod[i] == 0 for i in range(1, 13))
        p = one() + 2 * epsilon()
        sp, cp = transcendental("sin", p), transcendental("cos", p)
        pyth = sp * sp + cp * cp
        exp_pair = transcendental("exp", p) * transcendental("exp", -p)
        for ident2 in (pyth, exp_pair):
            for i in range(13):
                coeff = ident2[i]
                target = F(1) if i == 0 else F(0)
                if isinstance(coeff, CompReal):
                    assert abs(coeff.approx(10 ** 4) - target) <= F(1, 10 ** 4)
                else:
                    assert coeff == target
    _run(5, 10.0, "series values exact on rationals; shifted closed forms "
                  "within 1e-6 brackets", body)


def test_criterion_6_order_topology():
    def body():
        for n in (1, 10, 1000, 10 ** 6):
            assert lex_less(epsilon(), from_rational(F(1, n)), 8).is_certified
        rng = random.Random(42)
        for _ in range(100):
            r = from_rational(F(rng.randint(-9999, 9999), rng.randint(1, 99))) \
                + rng.randint(-3, 3) * epsilon()
            assert lex_less(r, grossone(), 8).is_certified
        assert diss(zero(), epsilon()).value == 0
        assert sign_of(epsilon()).is_certified         # hence 0 != eps
        for num, den in ((1, 4), (1, 2), (3, 4)):
            z = monomial(F(num, den), 1)
            assert point_interior_witness((zero(), epsilon()), z, "e").is_certified
            assert point_interior_witness((zero(), epsilon()), z, "st").is_refuted
        assert distinguishable(epsilon(), one() + epsilon(), "st").is_certified
        assert distinguishable(epsilon(), one() + epsilon(), "e").is_certified
        assert distinguishable(zero(), epsilon(), "st").is_refuted
    _run(6, 5.0, "order spot checks, pseudo-metric case, openness and "
                 "separation witnesses", body)


def test_criterion_7_continuity():
    def body():
        v = check_kn_continuity(ContinuityQuery(X, zero(), 1, 0))
        assert v.is_refuted and "eps^1" in v.witness["eps1"]
        assert check_kn_continuity(ContinuityQuery(X, zero(), 0, 0)).is_certified
        step = E.PiecewiseSt("<=", 1, X, X + 1)
        assert check_kn_continuity(ContinuityQuery(step, one(), 0, 0)).is_refuted
        assert check_kn_continuity(ContinuityQuery(step, one(), 0, 1)).is_certified
        const_grid = check_kn_grid(E.Const(F(5, 2)), from_rational(1), 4, 4)
        assert all(v.is_certified for v in const_grid.values())
        for f, point in ((X, zero()), (step, one()), (2 * X - 1, from_rational(2))):
            grid = check_kn_grid(f, point, 3, 3)
            for (k, n), verdict in grid.items():
                if verdict.is_certified:
                    if n < 3:
                        assert grid[(k, n + 1)].is_certified
                    if k > 0:
                        assert grid[(k - 1, n)].is_certified
    _run(7, 10.0, "graded continuity verdicts and lattice transfers", body)


def test_criterion_8_convergence():
    def body():
        eps_pow = RzlSequence(lambda n: epsilon() ** n, "eps^n")
        harmonic = RzlSequence(lambda n: from_rational(F(1, n)), "1/n")
        n_eps = RzlSequence(lambda n: monomial(n, 1), "n*eps")

        hc_ok = hc_check(eps_pow, zero(), [epsilon()], 20)
        assert hc_ok.is_certified
        assert hc_check(harmonic, zero(), [epsilon()], 20).is_refuted
        assert cc_check(n_eps, monomial(100, 1), 24).is_certified
        assert cc_check(n_eps, monomial(200, 1), 24).is_certified
        assert rc_check(harmonic, zero(), 20, 24).is_certified

        # modulus transfer on every certified hyperconvergence case
        certified_cases = [(eps_pow, zero()),
                           (RzlSequence(lambda n: epsilon() ** n + one(), "1+eps^n"),
                            one())]
        for seq, limit in certified_cases:
            hc = hc_check(seq, limit, [epsilon()], 20)
            assert hc.is_certified
            assert cc_from_hc(seq, limit, hc, 20).is_certified

        ev_const = RzlSequence(lambda n: from_rational(min(n, 4)), "eventually 4")
        assert hyper_cauchy_check(ev_const, [epsilon()], 16).is_certified
        assert hyper_cauchy_check(harmonic, [epsilon()], 16).is_refuted
        assert hyper_cauchy_check(eps_pow, [epsilon()], 16,
                                  limit_hint=zero()).is_certified
    _run(8, 10.0, "three convergence notions with limit non-uniqueness and "
                  "modulus transfer", body)


def test_criterion_9_non_computability():
    def body():
        try:
            inverse(zero(), 8)
            raise AssertionError("inverse(0) must not produce a value")
        except UndecidedError as exc:
            assert "certified leading term" in str(exc)
        sneaky = CompReal(lambda n: F(1, 2 * n))
        z = make_number(0, lambda i: sneaky if i == 0 else (1 if i == 1 else 0))
        try:
            inverse(z, 8)
            raise AssertionError("inverse of undecidable leading term must fail")
        except UndecidedError as exc:
            assert "certified leading term" in str(exc)
        for depth in (1, 2, 4, 8, 16, 32, 64):
            assert sign_of(zero(), depth).is_unknown

        rng = random.Random(424242)

        def rand_num():
            return from_coefficients(rng.randint(-3, 0),
                                     [rng.randint(-2, 2)
                                      for _ in range(rng.randint(1, 5))])

        predicates = []
        for _ in range(250):
            x, y = rand_num(), rand_num()
            m = rng.randint(0, 3)
            predicates.extend([
                lambda d, x=x, y=y: lex_less(x, y, d).state,
                lambda d, x=x: sign_of(x, d).state,
                lambda d, x=x: classify(x, d).state,
                lambda d, x=x, m=m: in_delta(x, DeltaSpec(m, down_closed=True), d).state,
            ])
        assert len(predicates) == 1000
        for pred in predicates:
            decided = None
            for depth in (2, 4, 8, 16, 32):
                s = pred(depth)
                if s.value == "unknown":
                    continue
                if decided is None:
                    decided = s
                else:
                    assert s == decided, "certified/refuted flip under depth growth"
    _run(9, 30.0, "undecidable cases stay undecided; 10^3 predicates are "
                  "monotone under depth doubling", body)


def test_criterion_10_parser_roundtrip():
    def body():
        rng = random.Random(777)
        for _ in range(1000):
            low = rng.randint(-4, 0)
            coeffs = [F(rng.randint(-99, 99), rng.randint(1, 20))
                      for _ in range(rng.randint(1, 6))]
            x = from_coefficients(low, coeffs)
            text = render(x, 7)
            back = parse(text)
            assert isinstance(back, RzlNumber)
            assert render(back, 7) == text
    _run(10, 5.0, "10^3 rendered streams survive render-parse-render "
                  "byte-identically", body)
