"""Answers for every query, computed without rzl.

Series coefficients come from a small truncated power-series evaluator
written here.  At standard part 0 it works modulo the prime p = 2^61 - 1,
where rzl's exact rationals are compared through their residues (two
distinct rationals share a residue only when p divides the numerator of
their difference); at other standard parts it works in 50-digit mpmath
floating point and checks that rzl's brackets contain the value.  Its
transcendentals use the differential recurrences (f' = d'f for exp, the
sin/cos pair), not rzl's Taylor shift, so the two share no algorithm.  At
set-up, sympy's Taylor expansion checks the first coefficients of one query
of every family.  Pairs are also checked by convolution identities:
x * inverse(x) = 1, exp(a) * exp(-a) = 1 and sin(a)^2 + cos(a)^2 = 1.
Checker verdicts are checked against the mathematical truth recorded with
each query, and CLI exit codes against the verdict they print.
"""

from __future__ import annotations

import json
from fractions import Fraction

import mpmath

mpmath.mp.dps = 50
RENDER_PRECISION = Fraction(1, 10 ** 7)
EXIT = {"certified": 0, "refuted": 2, "unknown": 3}
TOL = mpmath.mpf(10) ** -30


# -- truncated power series ------------------------------------------------------------

class Exact:
    """Exact series as residues modulo the prime P; transcendentals only at
    standard part 0."""
    P = (1 << 61) - 1
    zero, one = 0, 1

    @classmethod
    def num(cls, q):
        q = Fraction(q)
        return q.numerator * pow(q.denominator, -1, cls.P) % cls.P

    @classmethod
    def red(cls, x):
        return x % cls.P

    @classmethod
    def div(cls, x, y):
        return x * pow(y, -1, cls.P) % cls.P

    @staticmethod
    def at(kind, s):
        if s != 0:
            raise ValueError("exact series need standard part 0")
        return {"exp": 1, "sin": 0, "cos": 1}[kind]


class Real:
    """Series in mpmath floating point, 50 digits."""
    zero, one = mpmath.mpf(0), mpmath.mpf(1)

    @staticmethod
    def num(q):
        q = Fraction(q)
        return mpmath.mpf(q.numerator) / q.denominator

    @staticmethod
    def red(x):
        return x

    @staticmethod
    def div(x, y):
        return x / y

    @staticmethod
    def at(kind, s):
        return getattr(mpmath, kind)(s)


def _conv(a, b, K, fld):
    return [fld.red(sum((a[i] * b[k - i] for i in range(k + 1)), start=fld.zero))
            for k in range(K)]


def series(t, K, fld):
    """The first K coefficients of tree t."""
    op = t[0]
    zeros = [fld.zero] * K
    if op in ("eps", "chain"):
        out = list(zeros)
        if K > 1:
            out[1] = fld.num(1 if op == "eps" else t[1])
        return out
    if op == "q":
        return [fld.num(t[1])] + zeros[1:]
    if op == "poly":
        return [fld.num(c) for c in t[1][:K]] + zeros[len(t[1]):]
    if op in ("add", "sub"):
        a, b = series(t[1], K, fld), series(t[2], K, fld)
        return [fld.red(x + y if op == "add" else x - y) for x, y in zip(a, b)]
    if op == "mul":
        return _conv(series(t[1], K, fld), series(t[2], K, fld), K, fld)
    if op == "pow":
        a = series(t[1], K, fld)
        out = [fld.one] + zeros[1:]
        for _ in range(t[2]):
            out = _conv(out, a, K, fld)
        return out
    a = series(t[1], K, fld)

    def dot(x, y, k):   # sum_{j=1..k} x_j y_{k-j}
        return sum((x[j] * y[k - j] for j in range(1, k + 1)), start=fld.zero)

    if op == "inv":
        b = [fld.div(fld.one, a[0])]
        for k in range(1, K):
            b.append(fld.div(-dot(a, b, k), a[0]))
        return b
    # f(s + d) from the recurrences of exp(d) and (sin d, cos d)
    d = [fld.red(j * a[j]) for j in range(K)]          # j * d_j
    if op == "exp":
        e = [fld.one]
        for k in range(1, K):
            e.append(fld.div(dot(d, e, k), fld.num(k)))
        return [fld.red(fld.at("exp", a[0]) * x) for x in e]
    sn, cs = [fld.zero], [fld.one]
    for k in range(1, K):
        sn.append(fld.div(dot(d, cs, k), fld.num(k)))
        cs.append(fld.div(-dot(d, sn, k), fld.num(k)))
    sin_s, cos_s = fld.at("sin", a[0]), fld.at("cos", a[0])
    if op == "sin":
        return [fld.red(sin_s * c + cos_s * s) for s, c in zip(sn, cs)]
    return [fld.red(cos_s * c - sin_s * s) for s, c in zip(sn, cs)]


def _sympy(t, e):
    import sympy
    op = t[0]
    if op == "eps":
        return e
    if op == "chain":
        return t[1] * e
    if op == "q":
        return sympy.Rational(t[1].numerator, t[1].denominator) \
            if isinstance(t[1], Fraction) else sympy.Integer(t[1])
    if op == "poly":
        return sum(_sympy(("q", Fraction(c)), e) * e ** i for i, c in enumerate(t[1][:8]))
    args = [_sympy(x, e) for x in t[1:2]]
    if op in ("add", "sub", "mul"):
        b = _sympy(t[2], e)
        return {"add": args[0] + b, "sub": args[0] - b, "mul": args[0] * b}[op]
    if op == "pow":
        return args[0] ** t[2]
    if op == "inv":
        return 1 / args[0]
    return getattr(sympy, op)(args[0])


def sympy_check(queries, n=6) -> list[str]:
    """Compare the evaluator with sympy's Taylor coefficients on the first
    query of each family; returns the families that disagree."""
    if not any(q.kind == "series" for q in queries):
        return []
    import sympy
    e = sympy.Symbol("e")
    bad, seen = [], set()
    for q in sorted(queries, key=lambda q: q.id):
        if q.kind != "series" or q.family in seen:
            continue
        seen.add(q.family)
        k = min(n, q.K)
        fld = Real if q.render else Exact
        for t in q.outs:
            ref = sympy.series(_sympy(t, e), e, 0, k).removeO()
            ours = series(t, k, fld)
            for i in range(k):
                c = ref.coeff(e, i)
                if fld is Exact:
                    ok = Exact.num(Fraction(int(c.p), int(c.q))) == ours[i]
                else:
                    ok = abs(mpmath.mpf(str(sympy.N(c, 45))) - ours[i]) < TOL
                if not ok:
                    bad.append(q.family)
                    break
    return sorted(set(bad))


# -- verdicts per query -------------------------------------------------------------

class Check:
    """Outcome of checking one query's answer."""

    def __init__(self):
        self.ok = True
        self.why = None
        self.coeffs = 0       # result coefficients delivered
        self.verdicts = 0     # verdicts returned
        self.decided = 0      # of which certified or refuted

    def fail(self, why):
        if self.ok:
            self.ok, self.why = False, why
        return self

    def verdict(self, state, allowed, what="verdict"):
        self.verdicts += 1
        self.decided += state in ("certified", "refuted")
        if state not in allowed:
            self.fail(f"{what}: {state}, expected one of {sorted(allowed)}")


def check(q, answer) -> Check:
    c = Check()
    if q.kind == "series":
        if "error" in answer:
            return c.fail(answer["error"])
        return _check_series(q, answer, c)
    if q.kind == "cli":
        return _check_cli(q, answer, c)
    if "error" in answer:
        return c.fail(answer["error"])
    return _check_lib(q, answer, c)


def _scalar(v):
    """Worker scalar -> (Fraction value, is a CompReal approximation)."""
    if isinstance(v, list):
        return Fraction(v[1]), True
    return Fraction(v), False


def _check_series(q, answer, c):
    outs = answer["outs"]
    c.coeffs = q.K * len(outs)
    if q.render:
        for t, got in zip(q.outs, outs):
            for i, (want, (text, v)) in enumerate(zip(series(t, q.K, Real), got)):
                value, approx = _scalar(v)
                err = abs(Real.num(value) - want)
                if err > (Real.num(RENDER_PRECISION) if approx else 0) + TOL:
                    return c.fail(f"coefficient {i}: bracket misses {mpmath.nstr(want, 12)}")
                if text.startswith("~"):
                    shown = abs(mpmath.mpf(text[1:]) - want)
                    if shown > Real.num(RENDER_PRECISION) + abs(want) * mpmath.mpf("5e-6"):
                        return c.fail(f"coefficient {i}: rendered {text}")
                elif Fraction(text) != value:
                    return c.fail(f"coefficient {i}: rendered {text}")
        return c
    got = [[Exact.num(v) for v in out] for out in outs]
    for i, t in enumerate(q.outs):
        want = series(t, q.K, Exact)
        if got[i] != want:
            k = next(k for k in range(q.K) if got[i][k] != want[k])
            return c.fail(f"output {i} coefficient {k}: residue {got[i][k]} != {want[k]}")
    one = [Exact.one] + [Exact.zero] * (q.K - 1)
    if q.identity in ("inverse", "exp"):      # x * inverse(x), exp(a) * exp(-a)
        ok = _conv(got[0], got[1], q.K, Exact) == one
    elif q.identity == "sincos":
        ok = [Exact.red(x + y) for x, y in zip(_conv(got[0], got[0], q.K, Exact),
                                    _conv(got[1], got[1], q.K, Exact))] == one
    else:
        ok = True
    return c if ok else c.fail(f"identity {q.identity} fails")


def _creal_value(spec):
    kind, a, point = spec
    a = Real.num(a)
    return a * getattr(mpmath, kind)(a * Real.num(point))


def _check_lib(q, answer, c):
    e = q.expect
    if q.call == "grid":
        for cell, allowed in e["grid"].items():
            c.verdict(answer["grid"][cell], allowed, f"(k,n)=({cell})")
        return c
    c.verdict(answer["state"], e["state"])
    if q.call != "permeate" or answer["state"] != "certified":
        return c
    st, approx = _scalar(answer["standard_part"])
    c.coeffs = 1
    if "value" in e:
        if approx or st != e["value"]:
            return c.fail(f"standard part {answer['standard_part']} != {e['value']}")
    else:
        want = _creal_value(e["creal"])
        if abs(Real.num(st) - want) > (Real.num(RENDER_PRECISION) if approx else 0) + TOL:
            return c.fail(f"standard part misses {mpmath.nstr(want, 12)}")
    if answer["permeated"] != answer["standard_part"]:
        return c.fail("permeated value differs from the certified standard part")
    return c


def _check_cli(q, answer, c):
    e = q.expect
    if "error" in answer:
        return c.fail(answer["error"])
    try:
        doc = json.loads(answer["stdout"])
    except ValueError:
        return c.fail(f"stdout is not one JSON object: {answer['stdout'][:80]!r}")
    code = answer["exit"]
    if code == 1:
        if not doc.get("error"):
            return c.fail("exit 1 without an error message")
        return c if e.get("error") or e.get("or_error") else c.fail(f"error: {doc['error']}")
    if e.get("error"):
        return c.fail(f"exit {code}, expected an error")
    verdict = doc.get("verdict")
    if q.argv[0] in ("eval", "der", "inverse"):
        if code != 0:
            return c.fail(f"exit {code} for a value verb")
    elif verdict is None or EXIT.get(verdict["state"]) != code:
        return c.fail(f"exit {code} does not match verdict {verdict and verdict['state']}")
    if "state" in e:
        c.verdict(verdict["state"], e["state"])
    if "label" in e:
        c.verdict(verdict["state"], {"certified"})
        if verdict.get("value") != e["label"]:
            c.fail(f"classified {verdict.get('value')}, expected {e['label']}")
    result = doc.get("result")
    if result:
        c.coeffs = len(result["coefficients"])
        have = {x["index"]: x["value"] for x in result["coefficients"]}
        for idx, want in e.get("coeffs", ()):
            if idx not in have or Fraction(have[idx]) != want:
                return c.fail(f"coefficient {idx}: {have.get(idx)} != {want}")
    report = doc.get("report") or {}
    if "standard_part" in e and Fraction(report.get("standard_part")) != e["standard_part"]:
        return c.fail(f"standard part {report.get('standard_part')}")
    if "permeated" in e and (report.get("permeated") is None
                             or Fraction(report["permeated"]) != e["permeated"]):
        return c.fail(f"permeated {report.get('permeated')}")
    return c
