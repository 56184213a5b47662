"""Reference copy of `rzl.order.within_radius` as it stood before it
decided both sides of -r < d < r in one scan: two `leading_index` scans,
of r - d through `lex_less` and of d + r through `sign_of`.  The
differential property in test_properties.py compares against it, and the
reference checkers in reference_continuity.py and reference_convergence.py
call it.
"""

from __future__ import annotations

from rzl.number import RzlNumber
from rzl.order import NEGATIVE, lex_less, sign_of
from rzl.verdict import Verdict, certified, refuted, unknown


def within_radius(d: RzlNumber, r: RzlNumber, depth: int, budget: int) -> Verdict:
    """Certify -r < d < r (two-sided, avoids needing a certified sign of d)."""
    upper = lex_less(d, r, depth, budget)
    if upper.is_refuted:
        return refuted(depth, witness=upper.witness)
    # -r < d is the sign of d + r, one stream
    lower = sign_of(d + r, depth, budget)
    if lower.is_certified and lower.value == NEGATIVE:
        return refuted(depth, witness=lower.witness)
    if upper.is_certified and lower.is_certified:
        return certified(depth, witness=(lower.witness, upper.witness))
    return unknown(depth, reason="containment undecided at depth")
