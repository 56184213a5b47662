"""Reference copy of `rzl.convergence` as it stood before its checkers were
put on a shared certifier, refuter and per-tolerance driver; the
differential test in test_checker_reference.py compares against it.

The original module docstring follows.

Budgeted convergence checkers for sequences of coefficient streams.

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

from dataclasses import dataclass
from fractions import Fraction

from reference_order import within_radius

from rzl.number import DEFAULT_DEPTH, RzlNumber, as_number, from_rational
from rzl.order import POSITIVE, sign_of
from rzl.scalar import PRECISION_BUDGET, is_rational_scalar
from rzl.verdict import Verdict, certified, refuted, unknown

_TOLERANCES = (1, 2, 4, 8, 16)


@dataclass(frozen=True)
class RzlSequence:
    """A sequence given by a total, deterministic term function."""
    term: object            # positive integer -> RzlNumber
    description: str = ""

    def __call__(self, n: int) -> RzlNumber:
        return as_number(self.term(n))


def _distances(s: RzlSequence, limit: RzlNumber, m_terms: int):
    limit = as_number(limit)
    return {n: s(n) - limit for n in range(1, m_terms + 1)}


def _certified_infinitesimal(d: RzlNumber) -> bool:
    """Provably below every 1/m: all coefficients at indices <= 0 are
    exactly zero (a finite, sound check -- indices below `low` are zero by
    construction)."""
    return all(is_rational_scalar(d[i]) and d[i] == 0
               for i in range(d.low, 1))


def _lt(d: RzlNumber, r: RzlNumber, depth: int, budget: int) -> Verdict:
    return within_radius(d, r, depth, budget)


def _exactly_zero(d: RzlNumber) -> bool:
    if d.finite_support is None:
        return False
    return all(is_rational_scalar(d[i]) and d[i] == 0
               for i in range(d.low, d.finite_support + 1))


def _find_modulus(flags: dict[int, bool], m_terms: int) -> int | None:
    """Least N with every inspected n > N passing, or None."""
    last_fail = 0
    for n, ok in flags.items():
        if not ok:
            last_fail = max(last_fail, n)
    return last_fail if last_fail < m_terms else None


def cc_check(s: RzlSequence, limit: RzlNumber, m_terms: int = 24,
             depth: int = DEFAULT_DEPTH, budget: int = PRECISION_BUDGET,
             modulus=None) -> Verdict:
    """Classical convergence: every rational tolerance 1/m is met beyond
    some N.  Limits need not be unique."""
    ds = _distances(s, limit, m_terms)
    window = f"terms 1..{m_terms}"

    if modulus is not None:
        for m in _TOLERANCES:
            bound = from_rational(Fraction(1, m))
            n0 = modulus(m)
            if not all(_lt(ds[n], bound, depth, budget).is_certified
                       for n in range(n0 + 1, m_terms + 1)):
                break
        else:
            return certified(depth, witness={"modulus": "supplied"},
                             reason="supplied modulus verified on the window",
                             caveat=window)

    if all(_certified_infinitesimal(d) for d in ds.values()):
        return certified(depth, witness={"modulus": "N = 0"},
                         reason="every inspected distance is certified "
                                "infinitesimal, hence below each 1/m",
                         caveat=window)

    derived = {}
    for m in _TOLERANCES:
        bound = from_rational(Fraction(1, m))
        flags = {n: _lt(ds[n], bound, depth, budget).is_certified for n in ds}
        n0 = _find_modulus(flags, m_terms)
        if n0 is None:
            derived = None
            break
        derived[m] = n0
    if derived is not None:
        return certified(depth, witness={"modulus": derived},
                         reason="per-term certificates yield a modulus on "
                                "the window", caveat=window)

    for m in _TOLERANCES:
        bound = from_rational(Fraction(1, m))
        if all(_lt(ds[n], bound, depth, budget).is_refuted for n in ds):
            return refuted(depth, witness={"tolerance": f"1/{m}",
                                           "violations": sorted(ds)},
                           reason="every inspected distance certified at or "
                                  "above the tolerance", caveat=window)
    return unknown(depth, reason="no modulus derivable and no persistent "
                                 "violation", caveat=window)


def hc_check(s: RzlSequence, limit: RzlNumber, radii, m_terms: int = 24,
             depth: int = DEFAULT_DEPTH, budget: int = PRECISION_BUDGET) -> Verdict:
    """Hyperconvergence: every supplied positive radius (stream-valued,
    infinitesimals allowed) is met beyond some N."""
    radii = [as_number(r) for r in radii]
    if not radii:
        raise ValueError("hyperconvergence needs at least one radius")
    for r in radii:
        sv = sign_of(r, depth, budget)
        if not (sv.is_certified and sv.value == POSITIVE):
            raise ValueError("every radius must be certified positive")
    ds = _distances(s, limit, m_terms)
    window = f"terms 1..{m_terms}"

    from rzl.order import DeltaSpec, in_delta

    moduli = {}
    inf_modulus = None
    for idx, r in enumerate(radii):
        flags = {n: _lt(ds[n], r, depth, budget).is_certified for n in ds}
        n0 = _find_modulus(flags, m_terms)
        if n0 is not None:
            moduli[idx] = n0
            if inf_modulus is None and \
                    in_delta(r, DeltaSpec(1, down_closed=True), depth, budget).is_certified:
                inf_modulus = n0
            continue
        if all(_lt(ds[n], r, depth, budget).is_refuted for n in ds):
            return refuted(depth, witness={"radius": repr(r),
                                           "violations": sorted(ds)},
                           reason="every inspected distance certified at or "
                                  "above the radius", caveat=window)
        return unknown(depth, witness={"radius": repr(r)},
                       reason="radius neither met nor persistently violated",
                       caveat=window)
    return certified(depth, witness={"modulus": moduli,
                                     "radii": [repr(r) for r in radii],
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
    limit = as_number(limit)
    ds = _distances(s, limit, m_terms)
    window = f"terms 1..{m_terms}, indices up to {index_budget}"

    exhaustive = all(d.finite_support is not None
                     and d.finite_support <= index_budget for d in ds.values())

    def term_ok(d: RzlNumber, m: int) -> bool:
        bound = Fraction(1, m)
        hi = d.finite_support if (d.finite_support is not None
                                  and d.finite_support <= index_budget) else index_budget
        for i in range(d.low, hi + 1):
            c = d[i]
            if not is_rational_scalar(c):
                return False
            if abs(Fraction(c)) >= bound:
                return False
        return True

    derived = {}
    for m in _TOLERANCES:
        flags = {n: term_ok(ds[n], m) for n in ds}
        n0 = _find_modulus(flags, m_terms)
        if n0 is None:
            derived = None
            break
        derived[m] = n0
    if derived is not None:
        return certified(depth, witness={"modulus": derived},
                         reason="uniform coefficient bound attained on "
                                "inspected indices",
                         caveat=None if exhaustive else window)

    for m in _TOLERANCES:
        bound = Fraction(1, m)
        witnesses = {}
        for n, d in ds.items():
            hit = None
            hi = min(d.finite_support, index_budget) if d.finite_support is not None \
                else index_budget
            for i in range(d.low, hi + 1):
                c = d[i]
                if is_rational_scalar(c) and abs(Fraction(c)) >= bound:
                    hit = i
                    break
            if hit is None:
                witnesses = None
                break
            witnesses[n] = hit
        if witnesses is not None:
            return refuted(depth, witness={"tolerance": f"1/{m}",
                                           "violating_index_by_term": witnesses},
                           reason="every inspected term violates the uniform "
                                  "bound at some index", caveat=window)
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
    radii = [as_number(r) for r in radii]
    if not radii:
        raise ValueError("hyper-Cauchy needs at least one radius")
    for r in radii:
        sv = sign_of(r, depth, budget)
        if not (sv.is_certified and sv.value == POSITIVE):
            raise ValueError("every radius must be certified positive")
    terms = {n: s(n) for n in range(1, m_terms + 1)}
    window = f"terms 1..{m_terms}"

    # eventually constant (exact, needs finite support)
    for n0 in range(1, m_terms):
        if all(_exactly_zero(terms[n + 1] - terms[n])
               for n in range(n0, m_terms)):
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
        best_n0 = None
        for n0 in range(0, m_terms - 1):
            pairs_ok = all(
                _lt(terms[b] - terms[a], r, depth, budget).is_certified
                for a in range(n0 + 1, m_terms + 1)
                for b in range(a + 1, m_terms + 1))
            if pairs_ok:
                best_n0 = n0
                break
        if best_n0 is not None:
            verdicts[idx] = best_n0
            continue
        consecutive_violated = all(
            _lt(terms[n + 1] - terms[n], r, depth, budget).is_refuted
            for n in range(1, m_terms))
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
