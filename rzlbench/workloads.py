"""Seeded query lists for the three benchmark workloads.

Nothing here imports rzl: the lists are plain data, built the same way by
the parent process (which computes the oracles) and by the worker (which
times rzl on them).  The seed varies signs, constants and query order; the
shapes and coefficient counts are fixed, so a pass costs about the same
whatever the seed.

Series trees are tuples:

    ("eps",)              the infinitesimal unit
    ("q", r)              a rational constant
    ("poly", (c0, c1..))  a rational polynomial in eps
    ("add"|"sub"|"mul", a, b), ("pow", a, n)
    ("inv", a), ("sin"|"cos"|"exp", a)
    ("chain", n)          eps + eps + ... (n terms), built with `+`
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction as F

WORKLOADS = ("series-exact", "series-creal", "checkers")

#: Coefficient counts of the K sweep (single kernels only reach 400).
SWEEP_K = (50, 100, 200, 400)

#: Depth of the deep inputs that end in RecursionError today.
DEEP = 1500

#: Why each known defect fails; a query that names one is still counted
#: in ``failed``, it only does not make the run incorrect.
KNOWN_DEFECTS = {
    "deep-parens": "parser recursion: RecursionError on 1500 nested parentheses",
    "deep-sum": "stream closure chain: RecursionError on a 1500-term sum",
    "rc-index-window": "rc_check certifies eps^n -> 0 from its index window; "
                       "a larger index budget refutes it",
    "kn-radius-floor": "check_kn_grid refutes (0,0)-continuity of a continuous "
                       "function with slope above 8: its radii stop at 1/8",
    "cc-term-window": "cc_check refutes 2/n -> 0 from its 24-term window; "
                      "more terms certify it",
}


@dataclass
class Query:
    id: int
    family: str
    kind: str                    # "series" | "cli" | "lib"
    K: int = 0                   # coefficients forced per output (series)
    outs: tuple = ()             # series trees
    render: bool = False         # series: render with scalar_str
    identity: str | None = None  # series: "inverse" | "exp" | "sincos"
    argv: tuple = ()             # cli
    call: str = ""               # lib: grid | ed | ed_class | permeate | cc | hc | rc | cauchy
    args: dict = field(default_factory=dict)
    expect: dict = field(default_factory=dict)
    known_defect: str | None = None


def build(workload: str, seed: int) -> list[Query]:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    specs = {"series-exact": _series_exact, "series-creal": _series_creal,
             "checkers": _checkers}[workload](rng)
    rng.shuffle(specs)
    return [Query(id=i, **spec) for i, spec in enumerate(specs)]


def sweep(seed: int) -> list[Query]:
    """The single-kernel queries of series-exact, for the traced K sweep."""
    return [q for q in build("series-exact", seed) if q.family.startswith("sweep.")]


# -- helpers --------------------------------------------------------------------

def _sgn(rng) -> int:
    return rng.choice((1, -1))


def _swap(rng, q: F) -> F:
    """q or 1/q with a random sign: the same bit sizes either way."""
    return _sgn(rng) * (q if rng.random() < 0.5 else 1 / q)


def _lin(c):
    """c * eps as a polynomial tree."""
    return ("poly", (0, c))


def _series(family, K, *outs, identity=None, render=False, known_defect=None):
    return dict(family=family, kind="series", K=K, outs=tuple(outs),
                identity=identity, render=render, known_defect=known_defect)


_DENSE = (F(1), F(2), F(1, 2), F(3), F(1, 3), F(2, 3), F(3, 2))


def _dense_poly(rng, n, pool=_DENSE, lead=None):
    cs = [_sgn(rng) * rng.choice(pool) for _ in range(n)]
    if lead is not None:
        cs[0] = lead
    return ("poly", tuple(cs))


# Each workload mixes three tiers of queries: a few heavy ones that dominate
# wall_s, a mid tier of a few dozen similar queries around the 90th
# percentile, and a light tier around the median.  Percentiles that fall
# inside a tier of similar queries move with the code, not with the seed.

# -- series-exact ---------------------------------------------------------------------

def _series_exact(rng) -> list[dict]:
    out = []
    # heavy and mid: the K sweep of single kernels.  Integer coefficients
    # keep the cost of inverse independent of the seed.
    for K in SWEEP_K:
        out.append(_series("sweep.mul", K, ("mul", _dense_poly(rng, K), _dense_poly(rng, K))))
        out.append(_series("sweep.inverse", K,
                           ("inv", _dense_poly(rng, K, pool=(1, 2), lead=1))))
        out.append(_series("sweep.transcendental", K, ("exp", _lin(_swap(rng, F(2, 3))))))

    def inv_sin():
        x = ("add", ("q", 1), ("mul", ("q", _swap(rng, F(1, 2))),
                                 ("sin", _lin(_swap(rng, F(2, 3))))))
        return (x, ("inv", x))

    # heavy: compositions at larger K
    for K in (100, 200):
        out.append(_series("inverse(1+b*sin)", K, *inv_sin(), identity="inverse"))
    out.append(_series("exp(exp-1)", 40, ("exp", ("sub", ("exp", _lin(_swap(rng, F(2, 3)))),
                                                   ("q", 1)))))
    # mid: compositions at K = 50
    for _ in range(4):
        out.append(_series("inverse(1+b*sin)", 50, *inv_sin(), identity="inverse"))
        a = ("poly", (0, _swap(rng, F(1, 2)), _swap(rng, F(1, 3))))
        out.append(_series("exp(a)*exp(-a)", 50, ("exp", a), ("exp", ("sub", ("q", 0), a)),
                           identity="exp"))
        a = ("poly", (0, _swap(rng, F(2, 3)), 0, _swap(rng, F(1, 2))))
        out.append(_series("sin^2+cos^2", 50, ("sin", a), ("cos", a), identity="sincos"))
        out.append(_series("exp*cos", 50, ("mul", ("exp", _lin(_swap(rng, F(1, 2)))),
                                           ("cos", _lin(_swap(rng, F(2, 3)))))))
        out.append(_series("(1+sin)^3", 50, ("pow", ("add", ("q", 1),
                                                     ("sin", _lin(_swap(rng, F(1, 2))))), 3)))
        out.append(_series("exp(exp-1)", 20, ("exp", ("sub", ("exp", _lin(_swap(rng, F(2, 3)))),
                                                       ("q", 1)))))
    # light
    for _ in range(30):
        x = ("poly", (F(1), _swap(rng, F(1, 2)), _swap(rng, F(1, 3)), _swap(rng, F(1, 4))))
        out.append(_series("small.inverse", 50, x, ("inv", x), identity="inverse"))
    for _ in range(50):
        out.append(_series("small.mul", 50, ("mul", _dense_poly(rng, 25), _dense_poly(rng, 25))))
    for kind in ("sin", "cos", "exp"):
        for _ in range(32):
            out.append(_series(f"small.{kind}", 40, (kind, _lin(_swap(rng, F(2, 3))))))
    out.append(_series("deep-sum", 2, ("chain", DEEP), known_defect="deep-sum"))
    return out


# -- series-creal ---------------------------------------------------------------------

_ST = (F(1, 3), F(2, 5), F(3, 7), F(1, 2))


def _at(s, delta):
    return ("add", ("q", s), delta)


def _series_creal(rng) -> list[dict]:
    """Standard parts and scales run through every magnitude, and both
    signs, equally often: the cost of a CompReal tree depends on both.  The
    seed picks the pairing and the order."""
    out = []
    sgn = _Deck(rng, (1, -1)).draw

    def add(family, K, *outs, **kw):
        out.append(_series(family, K, *outs, render=True, **kw))

    def trans(kind, K, s, c):
        add(f"{kind}(s+c*eps)", K, (kind, _at(sgn() * s, _lin(sgn() * c))))

    def inv_sin(K, s):
        add("inverse(2+sin)", K, ("inv", ("add", ("q", 2), ("sin", _at(s, ("eps",))))))

    # heavy: larger K, and the inverse whose precision doubles per index
    for sign in (1, -1):
        for kind in ("sin", "cos", "exp"):
            add(f"{kind}(s+c*eps)", 70, (kind, _at(sign * F(1, 3), _lin(sgn() * F(1, 2)))))
        inv_sin(12, sign * F(1, 3))
        inv_sin(10, sign * F(2, 5))
        add("exp^3", 16, ("pow", ("exp", _at(sign * F(1, 3), ("eps",))), 3))
    # mid: inverse(2+sin) at K = 6 holds the 90th percentile, the rest sits
    # just below it
    for s in _ST:
        for _ in range(4):
            inv_sin(6, sgn() * s)
        for kind in ("sin", "cos", "exp"):
            trans(kind, 40, s, F(1, 2))
        ss = sgn() * s
        add("sin*cos", 16, ("mul", ("sin", _at(ss, ("eps",))), ("cos", _at(ss, ("eps",)))))
        add("inverse(2+eps+eps^2)*exp", 16,
            ("mul", ("inv", ("poly", (F(2), F(1), F(1)))),
             ("exp", _at(sgn() * s, _lin(sgn() * F(1, 2))))))
        add("exp^3", 6, ("pow", ("exp", _at(sgn() * s, ("eps",))), 3))
    # light
    for s in _ST:
        for c in (F(1, 2), F(2)):
            for kind in ("sin", "cos", "exp"):
                for _ in range(4):
                    trans(kind, 12, s, c)
        for _ in range(6):
            ss = sgn() * s
            add("small.sin*exp", 8, ("mul", ("sin", _at(ss, ("eps",))),
                                            ("exp", _at(ss, ("eps",)))))
        for _ in range(4):
            add("sin(s+exp-1)", 8, ("sin", _at(sgn() * s, ("sub", ("exp", _lin(sgn() * F(1, 2))),
                                                            ("q", 1)))))
    add("deep-sum", 2, ("sin", _at(F(1, 3), ("chain", DEEP))), known_defect="deep-sum")
    return out


# -- checkers ---------------------------------------------------------------------------

def _fmt(q: F) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _poly_text(cs) -> str:
    """sum c_i x^i with a non-negative leading term (argv-safe), degree first."""
    parts = []
    for i in range(len(cs) - 1, -1, -1):
        c = cs[i]
        if c == 0:
            continue
        mag = _fmt(abs(c))
        body = "x" if i == 1 else f"x^{i}"
        term = mag if i == 0 else (body if mag == "1" else f"{mag}*{body}")
        parts.append(("-" if c < 0 else "+", term))
    text = parts[0][1] if parts[0][0] == "+" else f"0-{parts[0][1]}"
    for sign, term in parts[1:]:
        text += f" {sign} {term}"
    return text


def _poly_eval(cs, x):
    acc = F(0)
    for c in reversed(cs):
        acc = acc * x + c
    return acc


def _poly_der(cs):
    return [i * c for i, c in enumerate(cs)][1:]


_POINTS = (F(1, 3), F(2, 5), F(1, 4), F(3, 7), F(1, 2), F(2, 3))
_SIGNED_POINTS = _POINTS + tuple(-p for p in _POINTS)


class _Deck:
    """Draws from a pool in shuffled rounds, so that each member comes up
    equally often: the seed decides which query gets which value, not how
    often a value (and its cost) occurs."""

    def __init__(self, rng, pool):
        self.rng, self.pool, self.left = rng, list(pool), []

    def draw(self):
        if not self.left:
            self.left = self.rng.sample(self.pool, len(self.pool))
        return self.left.pop()


def _gentle(f, c) -> bool:
    """f moves by less than 1/2 over a step of 1/16 from c.  The continuity
    refuters try radii down to 1/8 only, so a steeper continuous function is
    refuted (known defect "kn-radius-floor")."""
    return all(abs(f(c + d) - f(c)) < F(1, 2) for d in (F(1, 16), F(-1, 16)))


def _rand_poly(rng, c, degree=3):
    """Rational polynomial with p'(c) != 0, gentle at c."""
    while True:
        cs = [_sgn(rng) * rng.choice(_DENSE) for _ in range(degree + 1)]
        if _poly_eval(_poly_der(cs), c) != 0 and _gentle(lambda x: _poly_eval(cs, x), c):
            return cs


def _lib(family, call, expect, **args):
    return dict(family=family, kind="lib", call=call, args=args, expect=expect)


def _cli(family, argv, expect, known_defect=None):
    return dict(family=family, kind="cli", argv=(*argv, "--format", "json"), expect=expect,
                known_defect=known_defect)


C, R, U = "certified", "refuted", "unknown"


def _grid_expect(cont, must=False):
    """cont(k, n) -> truth of (k,n)-continuity; unknown allowed unless must."""
    return {"grid": {f"{k},{n}": ({C} if cont(k, n) else {R}) if must
                     else ({C, U} if cont(k, n) else {R, U})
                     for k in range(3) for n in range(3)}}


def _checkers(rng) -> list[dict]:
    out = []
    kn_le = lambda k, n: k <= n                          # noqa: E731

    def deck(pool=_SIGNED_POINTS):
        return _Deck(rng, pool)
    # -- library continuity checkers ---------------------------------------
    pts, degrees = deck(), deck((2, 3))
    for _ in range(12):
        c = pts.draw()
        cs = _rand_poly(rng, c, degrees.draw())
        out.append(_lib("grid.poly", "grid", _grid_expect(kn_le, must=True),
                        f=_poly_text(cs), point=c))
        out.append(_lib("ed.poly", "ed", {"state": {C}}, f=_poly_text(cs), point=c))
        out.append(_lib("ed_class.poly", "ed_class", {"state": {C}},
                        f=_poly_text(cs), point=c))
    for text in ("sin(x)", "exp(x)"):
        out.append(_lib("grid.trans@0", "grid", _grid_expect(kn_le), f=text, point=F(0)))
    # the slowest queries, at 1/3 as in the baseline timing of
    # check_kn_grid(sin(x)): their cost varies by 20 % from point to point,
    # and they make half of a pass
    for text in ("sin(x)", "exp(x)"):
        out.append(_lib("grid.trans@c", "grid", _grid_expect(kn_le), f=text, point=F(1, 3)))
        out.append(_lib("ed.trans@c", "ed", {"state": {C, U}}, f=text, point=F(1, 3)))
    pts = deck()
    for text in ("sin(2*x)", "exp(x/2)", "sin(x/2)", "exp(2*x)"):
        for _ in range(2):
            out.append(_lib("ed_class.trans", "ed_class", {"state": {C, U}}, f=text,
                            point=pts.draw()))
    pts = deck()
    for _ in range(2):
        b = pts.draw()
        c = b + _sgn(rng) * F(1, 5)
        out.append(_lib("grid.abs", "grid", _grid_expect(kn_le), f=f"abs(x - {_fmt(abs(b))})"
                        if b > 0 else f"abs(x + {_fmt(abs(b))})", point=c))
    out.append(_lib("grid.abs@kink", "grid", _grid_expect(kn_le), f="abs(x)", point=F(0)))
    # sign reads the standard part: it jumps only at its zero, and only for
    # appreciable (n = 0) radii
    out.append(_lib("grid.sign@0", "grid", _grid_expect(lambda k, n: n >= 1),
                    f="sign(x)", point=F(0)))
    out.append(_lib("grid.sign@c", "grid", _grid_expect(lambda k, n: True),
                    f="sign(x)", point=pts.draw()))
    out.append(_lib("ed.sign@0", "ed", {"state": {C, U}}, f="sign(x)", point=F(0)))
    out.append(_lib("ed_class.sign@0", "ed_class", {"state": {R, U}}, f="sign(x)", point=F(0)))
    for _ in range(2):
        b = pts.draw()
        c = b + _sgn(rng) * F(1, 5)
        active, other = _rand_poly(rng, c), _rand_poly(rng, c)
        lo, hi = (active, other) if c <= b else (other, active)
        pw = {"op": "<=", "bound": b, "then": _poly_text(lo), "else": _poly_text(hi)}
        out.append(_lib("grid.piecewise", "grid", _grid_expect(kn_le), f=pw, point=c))
        out.append(_lib("ed.piecewise", "ed", {"state": {C, U}}, f=pw, point=c))
    for _ in range(2):
        while True:
            a, b, c = _sgn(rng) * rng.choice(_DENSE), rng.choice(_DENSE), pts.draw()
            if -c * c - 2 * a * c + b != 0 and _gentle(lambda x: (x + a) / (x * x + b), c):
                break                             # f'(c) != 0
        text = f"(x + {_fmt(a)})/(x^2 + {_fmt(b)})" if a > 0 else \
            f"(x - {_fmt(-a)})/(x^2 + {_fmt(b)})"
        out.append(_lib("grid.rational", "grid", _grid_expect(kn_le), f=text, point=c))
        out.append(_lib("ed_class.rational", "ed_class", {"state": {C, U}}, f=text, point=c))
    out.append(dict(_lib("grid.steep", "grid", _grid_expect(kn_le),
                         f="(x - 3)/(x^2 + 1/3)", point=F(1, 4)),
                    known_defect="kn-radius-floor"))
    # -- permeation ----------------------------------------------------------
    pts, degrees = deck(), deck((2, 3))
    for _ in range(24):
        c = pts.draw()
        cs = _rand_poly(rng, c, degrees.draw())
        out.append(_lib("permeate.poly", "permeate",
                        {"state": {C}, "value": _poly_eval(_poly_der(cs), c)},
                        f=_poly_text(cs), point=c))
    for text, der in (("sin(x)", ("cos", 1)), ("exp(x)", ("exp", 1)),
                      ("sin(2*x)", ("cos", 2)), ("exp(x/2)", ("exp", F(1, 2)))):
        c = pts.draw()
        out.append(_lib("permeate.trans", "permeate",
                        {"state": {C, U}, "creal": (der[0], der[1], c)}, f=text, point=c))
    for _ in range(2):
        b = pts.draw()
        c = b + _sgn(rng) * F(1, 5)
        text = f"abs(x - {_fmt(b)})" if b > 0 else f"abs(x + {_fmt(-b)})"
        out.append(_lib("permeate.abs", "permeate",
                        {"state": {C, U}, "value": F(1 if c > b else -1)}, f=text, point=c))
    # -- convergence ---------------------------------------------------------
    out.extend(_sequences(rng, lib=True))
    # -- CLI -------------------------------------------------------------------
    out.extend(_cli_corpus(rng))
    return out


def _sequences(rng, lib: bool):
    """Sequence families with their truth under each notion (radius eps),
    twice over: a/n falls below the smallest tolerance, 1/16, inside the
    24-term window for both values of a."""
    out = []
    for a, c in zip((F(1), F(1, 2)), rng.sample((F(2), F(1, 2)), 2)):
        out.extend(_sequence_family(a, c, lib))
    return out + _sequence_defects(lib)


def _sequence_family(a, c, lib):
    fam = [
        # text, limit, {mode: truth}
        ("eps^n", F(0), {"cc": True, "hc": True, "cauchy": True}),
        (f"{_fmt(a)}/n", F(0), {"cc": True, "hc": False, "rc": True, "cauchy": False}),
        (f"{_fmt(a)}/n + eps", F(0), {"cc": True, "hc": False, "rc": False,
                                            "cauchy": False}),
        (f"{_fmt(a)}*eps/n", F(0), {"cc": True, "hc": True, "rc": True, "cauchy": True}),
        ("n", F(0), {"cc": False, "hc": False, "rc": False, "cauchy": False}),
        ("(-1)^n", F(0), {"cc": False, "hc": False, "rc": False, "cauchy": False}),
        (f"{_fmt(c)} + eps^n", F(0), {"cc": False, "hc": False, "rc": False,
                                            "cauchy": True}),
        (f"{_fmt(c)} + eps^n", c, {"cc": True, "hc": True, "cauchy": True}),
    ]
    out = []
    must = {("eps^n", "hc"), ("eps^n", "cc")}
    for text, limit, truths in fam:
        for mode, truth in truths.items():
            state = {C} if (text, mode) in must else ({C, U} if truth else {R, U})
            if lib:
                out.append(_lib(f"{mode}", mode, {"state": state}, seq=text, limit=limit))
            else:
                out.append(_cli(f"cli.converge.{mode}",
                                ["converge", mode, "--seq", text, f"--limit={_fmt(limit)}"],
                                {"state": state}))
    return out


def _sequence_defects(lib):
    # Known defects.  Uniform coefficient-wise convergence of eps^n to 0 is
    # false (every term has a coefficient 1), but rc_check certifies it from
    # its index window.  2/n -> 0 classically, but every term of the 24-term
    # window is above the tolerance 1/16, and cc_check refutes it.
    known = (("rc", "eps^n", {R, U}, "rc-index-window"),
             ("cc", "2/n", {C, U}, "cc-term-window"))
    out = []
    for mode, text, state, defect in known:
        if lib:
            out.append(dict(_lib(mode, mode, {"state": state}, seq=text, limit=F(0)),
                            known_defect=defect))
        else:
            out.append(_cli(f"cli.converge.{mode}", ["converge", mode, "--seq", text,
                                                     "--limit", "0"],
                            {"state": state}, known_defect=defect))
    return out


def _cli_corpus(rng):
    out = []
    # README examples
    out.append(_cli("cli.readme", ["eval", "1/(eps+w)", "--eps-digits", "8"],
                    {"coeffs": [(1, F(1)), (2, F(0)), (3, F(-1))]}))
    out.append(_cli("cli.readme", ["der", "x^2+2*x+3", "--at", "1"],
                    {"coeffs": [(0, F(4)), (1, F(1)), (2, F(0))], "standard_part": F(4)}))
    out.append(_cli("cli.readme", ["converge", "hc", "--seq", "eps^n", "--limit", "0",
                                   "--terms", "20"], {"state": {C}}))
    out.append(_cli("cli.readme", ["classify", "eps^3"], {"label": "infinitesimal"}))
    out.append(_cli("cli.readme", ["inverse", "eps+w"],
                    {"coeffs": [(1, F(1)), (2, F(0)), (3, F(-1))]}))
    out.append(_cli("cli.readme", ["continuity", "x", "--at", "0", "--k", "1", "--n", "0"],
                    {"state": {R}}))
    out.append(_cli("cli.readme", ["permeate", "sin(x)*exp(x)", "--at", "1/2"],
                    {"state": {C, U}}))
    # generated corpus
    for _ in range(12):
        cs = [_sgn(rng) * rng.choice(_DENSE) for _ in range(4)]
        lo = rng.choice((-2, -1, 0))
        text = _poly_text(cs).replace("x", "eps")
        coeffs = [(i, cs[i]) for i in range(4)]
        if lo < 0:
            text += f" + w^{-lo}"
            coeffs.append((lo, F(1)))
        out.append(_cli("cli.eval.poly", ["eval", text], {"coeffs": coeffs}))
    for _ in range(3):
        a = rng.choice(_DENSE)
        out.append(_cli("cli.eval.geometric", ["eval", f"1/({_fmt(a)}+eps)", "--eps-digits", "8"],
                        {"coeffs": [(i, (1 / a) * (-1 / a) ** i) for i in range(8)]}))
    pts, degrees = _Deck(rng, _SIGNED_POINTS), _Deck(rng, (2, 3))
    for _ in range(12):
        c = pts.draw()
        cs = _rand_poly(rng, c, degrees.draw())
        d1 = _poly_der(cs)
        d2 = _poly_der(d1)
        out.append(_cli("cli.der.poly", ["der", _poly_text(cs), f"--at={_fmt(c)}"],
                        {"coeffs": [(0, _poly_eval(d1, c)), (1, _poly_eval(d2, c) / 2)],
                         "standard_part": _poly_eval(d1, c)}))
    for _ in range(4):
        c = pts.draw()
        cs = _rand_poly(rng, c, degrees.draw())
        out.append(_cli("cli.permeate.poly", ["permeate", _poly_text(cs), f"--at={_fmt(c)}"],
                        {"state": {C}, "permeated": _poly_eval(_poly_der(cs), c)}))
    for _ in range(12):
        c = pts.draw()
        cs = _rand_poly(rng, c, degrees.draw())
        k, n = rng.randrange(3), rng.randrange(3)
        out.append(_cli("cli.continuity.poly", ["continuity", _poly_text(cs), f"--at={_fmt(c)}",
                                                "--k", str(k), "--n", str(n)],
                        {"state": {C} if k <= n else {R}}))
    for m in (-2, -1, 0, 1, 2, 3) * 2:
        a = rng.choice(_DENSE)
        base = "eps" if m > 0 else "w"
        text = _fmt(a) if m == 0 else f"{_fmt(a)}*{base}^{abs(m)}"
        label = "infinitesimal" if m > 0 else ("appreciable" if m == 0 else "infinite")
        out.append(_cli("cli.classify", ["classify", text], {"label": label}))
    for _ in range(3):
        a, b = rng.choice(_DENSE), _sgn(rng) * rng.choice(_DENSE)
        m = rng.choice((0, 1, 2))
        text = f"{_fmt(a)}*eps^{m} + {_fmt(b)}*eps^{m + 1}" if b > 0 else \
            f"{_fmt(a)}*eps^{m} - {_fmt(-b)}*eps^{m + 1}"
        coeffs = [(j - m, (1 / a) * (-b / a) ** j) for j in range(6)]
        out.append(_cli("cli.inverse", ["inverse", text], {"coeffs": coeffs}))
    out.extend(_sequences(rng, lib=False))
    pts = _Deck(rng, _SIGNED_POINTS)
    for _ in range(2):
        c = pts.draw()
        out.append(_cli("cli.permeate.trans", ["permeate", "sin(x)*exp(x)", f"--at={_fmt(c)}"],
                        {"state": {C, U}}))
    # bad input must exit 1 with a JSON error
    for argv in (["eval", "(eps"], ["inverse", "0"], ["eval", "sin(w)"]):
        out.append(_cli("cli.error", argv, {"error": True}))
    # deep inputs: RecursionError today, a clean answer or error once fixed
    out.append(_cli("cli.deep", ["eval", "(" * DEEP + "eps" + ")" * DEEP],
                    {"coeffs": [(1, F(1))], "or_error": True}, known_defect="deep-parens"))
    out.append(_cli("cli.deep", ["eval", "+".join(["eps"] * DEEP)],
                    {"coeffs": [(1, F(DEEP))], "or_error": True}, known_defect="deep-sum"))
    return out
