"""Budgeted convergence checkers for sequences of coefficient streams.

Three notions coexist and deliberately disagree: classical convergence
(rational tolerances 1/m, under which limits are not unique once
infinitesimals exist), hyperconvergence (every positive stream radius,
including infinitesimal ones), and uniform coefficient-wise convergence
(an l-infinity style bound across all indices at once).  A hyper-Cauchy
checker rounds these out.

Every verdict is budgeted: terms up to M, coefficient indices up to I,
tolerances from a sampled geometric family.  Certification needs a
modulus -- supplied by the caller or derived from per-term certificates
that are individually sound (for example, a distance whose coefficients
at indices <= 0 are exactly zero is provably below every 1/m).
Refutation requires a certified per-term violation at every inspected
term, not mere non-observation.  Budget caveats are recorded on the
verdict.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from .number import DEFAULT_DEPTH, RzlNumber, _exact_zeros, as_number, from_rational
from .order import POSITIVE, sign_of, within_radius
from .scalar import PRECISION_BUDGET, is_rational_scalar
from .verdict import Verdict, certified, refuted, unknown

_TOLERANCES = (1, 2, 4, 8, 16)


@dataclass(frozen=True)
class RzlSequence:
    """A sequence given by a total, deterministic term function."""
    term: object            # positive integer -> RzlNumber
    description: str = ""

    def __call__(self, n: int) -> RzlNumber:
        return as_number(self.term(n))


def _window(m_terms: int, least: int = 1) -> str:
    """The caveat naming terms 1..m_terms.  A window of fewer than `least`
    terms (a pair needs two) inspects nothing, so it may decide nothing."""
    if m_terms < least:
        raise ValueError(f"window of {m_terms} terms: at least {least} needed")
    return f"terms 1..{m_terms}"


def _distances(s: RzlSequence, limit: RzlNumber, m_terms: int):
    limit = as_number(limit)
    return {n: s(n) - limit for n in range(1, m_terms + 1)}


def _positive_radii(radii, what: str, depth: int, budget: int) -> list:
    """(radius, leading index) for each radius, all certified positive."""
    radii = [as_number(r) for r in radii]
    if not radii:
        raise ValueError(f"{what} needs at least one radius")
    out = []
    for r in radii:
        sv = sign_of(r, depth, budget)
        if not (sv.is_certified and sv.value == POSITIVE):
            raise ValueError("every radius must be certified positive")
        out.append((r, sv.witness[0]))
    return out


def _per_tolerance(term_verdict, m_terms: int):
    """Drive one tolerance over terms 1..m_terms: returns (N, None) when
    every term past N < m_terms is certified within it (a modulus),
    (None, {n: witness}) when every term is refuted (a persistent
    violation), and (None, None) otherwise.

    Terms are read from the last one down, each at most once, and the
    reading stops as soon as the outcome is settled.
    """
    top = term_verdict(m_terms)
    if top.is_certified:
        n = m_terms - 1
        while n > 0 and term_verdict(n).is_certified:
            n -= 1
        return n, None
    witnesses = {}
    for n in range(m_terms, 0, -1):
        v = top if n == m_terms else term_verdict(n)
        if not v.is_refuted:
            return None, None
        witnesses[n] = v.witness
    return None, dict(sorted(witnesses.items()))


def _sweep_tolerances(term_verdict, m_terms: int):
    """`_per_tolerance` over each 1/m of `_TOLERANCES`, with term_verdict(n,
    m): returns (m, {n: witness}) for the first tolerance every term
    violates, else (None, {m: N}) when each tolerance has a modulus N, and
    (None, None) otherwise.  A tolerance without a modulus does not stop
    the search for one that every inspected term violates."""
    derived = {}
    for m in _TOLERANCES:
        n0, violated = _per_tolerance(lambda n: term_verdict(n, m), m_terms)
        if violated is not None:
            return m, violated
        if derived is not None and n0 is not None:
            derived[m] = n0
        else:
            derived = None
    return None, derived


def cc_check(s: RzlSequence, limit: RzlNumber, m_terms: int = 24,
             depth: int = DEFAULT_DEPTH, budget: int = PRECISION_BUDGET,
             modulus=None) -> Verdict:
    """Classical convergence: every rational tolerance 1/m is met beyond
    some N.  Limits need not be unique."""
    window = _window(m_terms)
    ds = _distances(s, limit, m_terms)
    within = functools.cache(lambda n, m: within_radius(
        ds[n], from_rational(Fraction(1, m)), depth, budget))

    if modulus is not None:
        if all(within(n, m).is_certified for m in _TOLERANCES
               for n in range(modulus(m) + 1, m_terms + 1)):
            return certified(depth, witness={"modulus": "supplied"},
                             reason="supplied modulus verified on the window",
                             caveat=window)

    if all(_exact_zeros(d, 0) for d in ds.values()):
        return certified(depth, witness={"modulus": "N = 0"},
                         reason="every inspected distance is certified "
                                "infinitesimal, hence below each 1/m",
                         caveat=window)

    m, found = _sweep_tolerances(within, m_terms)
    if m is not None:
        return refuted(depth, witness={"tolerance": f"1/{m}",
                                       "violations": sorted(ds)},
                       reason="every inspected distance certified at or "
                              "above the tolerance", caveat=window)
    if found is not None:
        return certified(depth, witness={"modulus": found},
                         reason="per-term certificates yield a modulus on "
                                "the window", caveat=window)
    return unknown(depth, reason="no modulus derivable and no persistent "
                                 "violation", caveat=window)


def hc_check(s: RzlSequence, limit: RzlNumber, radii, m_terms: int = 24,
             depth: int = DEFAULT_DEPTH, budget: int = PRECISION_BUDGET) -> Verdict:
    """Hyperconvergence: every supplied positive radius (stream-valued,
    infinitesimals allowed) is met beyond some N."""
    window = _window(m_terms)
    radii = _positive_radii(radii, "hyperconvergence", depth, budget)
    ds = _distances(s, limit, m_terms)

    moduli = {}
    inf_modulus = None
    for idx, (r, lead) in enumerate(radii):
        n0, violated = _per_tolerance(
            lambda n: within_radius(ds[n], r, depth, budget), m_terms)
        if n0 is not None:
            moduli[idx] = n0
            if inf_modulus is None and lead >= 1:   # r is infinitesimal
                inf_modulus = n0
            continue
        # the first radius neither met nor violated ends the check
        if violated is not None:
            return refuted(depth, witness={"radius": repr(r),
                                           "violations": sorted(ds)},
                           reason="every inspected distance certified at or "
                                  "above the radius", caveat=window)
        return unknown(depth, witness={"radius": repr(r)},
                       reason="radius neither met nor persistently violated",
                       caveat=window)
    return certified(depth, witness={"modulus": moduli,
                                     "radii": [repr(r) for r, _ in radii],
                                     "infinitesimal_radius_modulus": inf_modulus},
                     reason="per-term certificates yield a modulus for every "
                            "radius", caveat=window)


def cc_from_hc(s: RzlSequence, limit: RzlNumber, hc_verdict: Verdict,
               m_terms: int = 24, depth: int = DEFAULT_DEPTH,
               budget: int = PRECISION_BUDGET) -> Verdict:
    """Transfer a hyperconvergence modulus to classical convergence.

    A modulus N for a certified infinitesimal radius r already bounds the
    distance below every rational 1/m beyond N (the distance is certified
    below r and r is below every 1/m), so N is reused verbatim.
    """
    if not hc_verdict.is_certified:
        return unknown(depth, reason="no hyperconvergence certificate to transfer")
    n0 = hc_verdict.witness.get("infinitesimal_radius_modulus")
    if n0 is not None:
        return certified(depth,
                         witness={"modulus": {m: n0 for m in _TOLERANCES}},
                         reason="modulus transferred from an infinitesimal "
                                "radius certificate",
                         caveat=hc_verdict.caveat)
    return cc_check(s, limit, m_terms, depth, budget)


def rc_check(s: RzlSequence, limit: RzlNumber, m_terms: int = 24,
             index_budget: int = 16, depth: int = DEFAULT_DEPTH,
             budget: int = PRECISION_BUDGET) -> Verdict:
    """Uniform coefficient-wise convergence: one N per tolerance must bound
    every coefficient index at once."""
    if index_budget < 0:
        raise ValueError(f"the index budget must be nonnegative, got {index_budget}")
    window = f"{_window(m_terms)}, indices up to {index_budget}"
    ds = _distances(s, limit, m_terms)

    exhaustive = all(d.finite_support is not None
                     and d.finite_support <= index_budget for d in ds.values())

    def term_verdict(n: int, m: int) -> Verdict:
        """Certified when every inspected coefficient is rational and below
        1/m; refuted at the first rational one at or above it."""
        d = ds[n]
        hi = min(d.finite_support, index_budget) if d.finite_support is not None \
            else index_budget
        rational = True
        for i in range(d.low, hi + 1):
            c = d[i]
            if not is_rational_scalar(c):
                rational = False
            elif abs(Fraction(c)) >= Fraction(1, m):
                return refuted(depth, witness=i)
        return certified(depth) if rational else unknown(depth)

    m, found = _sweep_tolerances(term_verdict, m_terms)
    if m is not None:
        return refuted(depth, witness={"tolerance": f"1/{m}",
                                       "violating_index_by_term": found},
                       reason="every inspected term violates the uniform "
                              "bound at some index", caveat=window)
    if found is not None:
        return certified(depth, witness={"modulus": found},
                         reason="uniform coefficient bound attained on "
                                "inspected indices",
                         caveat=None if exhaustive else window)
    return unknown(depth, reason="uniform bound neither certified nor "
                                 "persistently violated", caveat=window)


def hyper_cauchy_check(s: RzlSequence, radii, m_terms: int = 24,
                       depth: int = DEFAULT_DEPTH,
                       budget: int = PRECISION_BUDGET,
                       limit_hint: RzlNumber | None = None) -> Verdict:
    """Pairwise distances below every supplied positive radius beyond some N.

    Real-coefficient sequences can only manage this by becoming constant;
    eventually-constant detection therefore certifies directly.  With a
    limit hint, a hyperconvergence certificate at half the radii transfers
    by the triangle inequality.
    """
    window = _window(m_terms, least=2)
    radii = [r for r, _ in _positive_radii(radii, "hyper-Cauchy", depth, budget)]
    terms = {n: s(n) for n in range(1, m_terms + 1)}

    # eventually constant (exact, needs finite support): scan down past
    # the steps that are provably zero
    n0 = m_terms
    while n0 > 1 and _exact_zeros(terms[n0] - terms[n0 - 1]):
        n0 -= 1
    if n0 < m_terms:
        return certified(depth, witness={"constant_from": n0},
                         reason="sequence is provably constant from "
                                f"term {n0} on", caveat=window)

    if limit_hint is not None:
        half = from_rational(Fraction(1, 2))
        hc = hc_check(s, limit_hint, [half * r for r in radii], m_terms,
                      depth, budget)
        if hc.is_certified:
            return certified(depth, witness={"transfer": hc.witness},
                             reason="hyperconvergence at half radii gives "
                                    "pairwise bounds by the triangle "
                                    "inequality", caveat=window)

    verdicts = {}
    for idx, r in enumerate(radii):
        # the n0 scan and the consecutive-pair refutation revisit pairs
        pair = functools.cache(
            lambda a, b: within_radius(terms[b] - terms[a], r, depth, budget))
        # n0 is the highest row a with a pair (a, b > a) not certified
        n0 = m_terms - 1
        while n0 > 0 and all(pair(n0, b).is_certified
                             for b in range(n0 + 1, m_terms + 1)):
            n0 -= 1
        if n0 < m_terms - 1:
            verdicts[idx] = n0
            continue
        consecutive_violated = all(
            pair(n, n + 1).is_refuted for n in range(1, m_terms))
        if consecutive_violated:
            return refuted(depth, witness={"radius": repr(r)},
                           reason="every consecutive inspected pair is "
                                  "certified at or above the radius",
                           caveat=window)
        return unknown(depth, witness={"radius": repr(r)},
                       reason="pairwise bound neither certified nor "
                              "persistently violated", caveat=window)
    return certified(depth, witness={"modulus": verdicts},
                     reason="pairwise certificates on the window",
                     caveat=window)
