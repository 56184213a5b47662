"""Differential test: the continuity and convergence checkers against a
copy of their earlier, loop-per-notion implementation.

Every query of a fixed corpus must give the same verdict JSON (state,
depth, witness, value, reason, caveat) or raise the same exception type
with the same message, and no continuity query may evaluate the function
more often than the reference does.  Every refutation of the corpus must
replay from its witness (and, for a window of terms, its caveat).
"""

from fractions import Fraction as F

import pytest
import reference_continuity as ref_cont
import reference_convergence as ref_conv

from rzl import continuity, convergence
from rzl import expr as E
from rzl.calculus import evaluate
from rzl.cli import _verdict_json
from rzl.number import DEFAULT_DEPTH, epsilon, from_rational, monomial, omega, one
from rzl.order import within_radius
from rzl.parser import parse, parse_rendered, parse_sequence
from rzl.scalar import PRECISION_BUDGET
from rzl.verdict import DomainError

X = E.X

FUNCTIONS = {
    "const": E.Const(F(7, 3)),
    "poly": parse("x^2 - 2*x + 1/2"),
    "piecewise": E.PiecewiseSt("<=", 0, X, X + 1),
    "piecewise-square": E.PiecewiseSt("<", F(1, 4), E.Const(1), X, subject=X * X),
    "sign": E.Sign(X),
    "abs": E.Abs(X),
    "sin": E.Sin(X),
    "exp": E.Exp(X),
    "rational(-3,1/3)": parse("(x - 3)/(x^2 + 1/3)"),
    "rational(1,1)": parse("(x + 1)/(x^2 + 1)"),
}

POINTS = {
    "0": lambda: from_rational(0),
    "1/3": lambda: from_rational(F(1, 3)),
    "-2/5": lambda: from_rational(F(-2, 5)),
    "w+1": lambda: omega() + one(),
    "1/2+eps": lambda: from_rational(F(1, 2)) + epsilon(),
}


def _outcome(call):
    """Verdict JSON (or a dict of them), or the raised exception."""
    try:
        v = call()
    except Exception as exc:   # compared, not swallowed
        return ("raised", type(exc), str(exc))
    if isinstance(v, dict):
        return {key: _verdict_json(val) for key, val in v.items()}
    return _verdict_json(v)


def _counting(monkeypatch, module):
    calls = []
    real = module.evaluate

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, "evaluate", counted)
    return calls


CONTINUITY_QUERIES = {
    "kn_grid": lambda m, f, c: m.check_kn_grid(f, c, 2, 2),
    "ed": lambda m, f, c: m.check_ed(f, c),
    "ed_class": lambda m, f, c: m.check_ed_class(f, c),
}


@pytest.mark.parametrize("fname", sorted(FUNCTIONS))
def test_continuity_matches_reference(fname, monkeypatch):
    new_calls = _counting(monkeypatch, continuity)
    ref_calls = _counting(monkeypatch, ref_cont)
    f = FUNCTIONS[fname]
    for pname, point in POINTS.items():
        for qname, query in CONTINUITY_QUERIES.items():
            case = (fname, pname, qname)
            del new_calls[:], ref_calls[:]
            expected = _outcome(lambda: query(ref_cont, f, point()))
            got = _outcome(lambda: query(continuity, f, point()))
            assert got == expected, case
            assert len(new_calls) <= len(ref_calls), case


def test_continuity_corpus_reaches_every_outcome():
    # certificates, refutations, Unknown and errors all occur in the corpus
    states = set()
    for fname in ("const", "piecewise", "sin"):
        for point in (POINTS["0"], POINTS["w+1"]):
            out = _outcome(lambda: continuity.check_ed_class(FUNCTIONS[fname], point()))
            states.add(out[0] if isinstance(out, tuple) else out["state"])
    assert states == {"certified", "refuted", "unknown", "raised"}


SEQUENCES = ("1/n", "2/n", "n", "(-1)^n", "eps^n", "eps/(2*n)", "1/2 + eps^n")

CONVERGENCE_QUERIES = {
    "cc": lambda m, s, lim: m.cc_check(s, lim),
    "cc-modulus": lambda m, s, lim: m.cc_check(s, lim, modulus=lambda k: k),
    "hc-eps": lambda m, s, lim: m.hc_check(s, lim, [epsilon()]),
    "hc-1/4": lambda m, s, lim: m.hc_check(s, lim, [from_rational(F(1, 4))]),
    "hc-both": lambda m, s, lim: m.hc_check(
        s, lim, [from_rational(F(1, 4)), epsilon()]),
    "rc-4": lambda m, s, lim: m.rc_check(s, lim, index_budget=4),
    "rc-16": lambda m, s, lim: m.rc_check(s, lim, index_budget=16),
    "cauchy": lambda m, s, lim: m.hyper_cauchy_check(s, [epsilon()], limit_hint=lim),
    "hc-zero-radius": lambda m, s, lim: m.hc_check(s, lim, [from_rational(0)]),
    "hc-no-radius": lambda m, s, lim: m.hc_check(s, lim, []),
    "cauchy-no-radius": lambda m, s, lim: m.hyper_cauchy_check(s, []),
}


@pytest.mark.parametrize("text", SEQUENCES)
def test_convergence_matches_reference(text):
    seq = convergence.RzlSequence(parse_sequence(text), text)
    for limit in (F(0), F(1, 2)):
        for qname, query in CONVERGENCE_QUERIES.items():
            case = (text, limit, qname)
            expected = _outcome(lambda: query(ref_conv, seq, from_rational(limit)))
            got = _outcome(lambda: query(convergence, seq, from_rational(limit)))
            assert got == expected, case


def test_hc_reads_each_term_once(monkeypatch):
    calls = []
    real = convergence.within_radius

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(convergence, "within_radius", counted)
    seq = convergence.RzlSequence(parse_sequence("1/n"), "1/n")
    v = convergence.hc_check(seq, from_rational(0), [epsilon()])
    assert v.is_refuted
    assert len(calls) == 24


def _number(label):
    """The number a witness label names: "a*eps^j", "1/m" or a rendered
    coefficient list, which parses back on the rational fragment only."""
    if "," in label:
        return parse_rendered(label)
    if "*eps^" in label:
        a, j = label.split("*eps^")
        return monomial(F(a), int(j))
    return from_rational(F(label))


@pytest.mark.parametrize("fname", sorted(FUNCTIONS))
def test_continuity_refutations_replay(fname):
    # each violation names a radius and a grid displacement d inside it
    # with f(c + d) - f(c) certified outside the witness's tolerance
    f, replayed = FUNCTIONS[fname], 0
    for pname, point in POINTS.items():
        for qname, query in CONTINUITY_QUERIES.items():
            try:
                out = query(continuity, f, point())
            except DomainError:   # series functions at the infinite point
                continue
            for v in out.values() if isinstance(out, dict) else (out,):
                if not v.is_refuted:
                    continue
                c = point()
                tol = _number(v.witness.get("eps1") or v.witness["tolerance"])
                for radius, hit in v.witness["violations"]:
                    d = _number(hit)
                    assert within_radius(d, _number(radius), DEFAULT_DEPTH,
                                         PRECISION_BUDGET).is_certified, (pname, qname, radius)
                    gap = evaluate(f, c + d) - evaluate(f, c)
                    assert within_radius(gap, tol, DEFAULT_DEPTH,
                                         PRECISION_BUDGET).is_refuted, (pname, qname, hit)
                    replayed += 1
    assert replayed or fname == "const"


def _replay_convergence(seq, limit, v):
    """Replay a refuted convergence verdict's witness term by term."""
    window = range(1, int(v.caveat.split("..")[1].split(",")[0]) + 1)
    w = v.witness
    if "violating_index_by_term" in w:   # rc: a coefficient at or above 1/m
        bound = _number(w["tolerance"])[0]
        for n, i in w["violating_index_by_term"].items():
            assert abs(F(seq(n)[i] - limit[i])) >= bound, (n, i)
    elif "violations" in w:   # cc and hc: each term outside the tolerance
        r = _number(w.get("tolerance") or w["radius"])
        assert w["violations"] == list(window)
        for n in w["violations"]:
            assert within_radius(seq(n) - limit, r, DEFAULT_DEPTH,
                                 PRECISION_BUDGET).is_refuted, n
    else:   # hyper-Cauchy: each consecutive pair outside the radius
        r = _number(w["radius"])
        for n in window[:-1]:
            assert within_radius(seq(n + 1) - seq(n), r, DEFAULT_DEPTH,
                                 PRECISION_BUDGET).is_refuted, n


def test_convergence_refutations_replay():
    modes = set()
    for text in SEQUENCES:
        seq = convergence.RzlSequence(parse_sequence(text), text)
        for lim in (F(0), F(1, 2)):
            for qname, query in CONVERGENCE_QUERIES.items():
                try:
                    v = query(convergence, seq, from_rational(lim))
                except ValueError:   # no radius, or a radius that is not positive
                    continue
                if v.is_refuted:
                    _replay_convergence(seq, from_rational(lim), v)
                    modes.add(qname.split("-")[0])
    assert modes == {"cc", "hc", "rc", "cauchy"}


def test_known_budget_flips_keep_their_verdicts():
    # (0,0)-continuity of a steep continuous function, refuted because the
    # radii stop at 1/8; rc certifies eps^n -> 0 from its index window; cc
    # refutes 2/n -> 0 from its 24-term window
    f = FUNCTIONS["rational(-3,1/3)"]
    c = from_rational(F(1, 4))
    assert continuity.check_kn_continuity(continuity.ContinuityQuery(f, c)).is_refuted
    eps_pow = convergence.RzlSequence(parse_sequence("eps^n"), "eps^n")
    assert convergence.rc_check(eps_pow, from_rational(0)).is_certified
    two_over_n = convergence.RzlSequence(parse_sequence("2/n"), "2/n")
    assert convergence.cc_check(two_over_n, from_rational(0)).is_refuted
