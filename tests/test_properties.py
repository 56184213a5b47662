"""Property tests: precision escalation agrees with exact rational answers,
order verdicts are monotone in their budgets, the one-scan containment
test agrees with its two-scan reference, products and inverses agree
with one convolution_sum per coefficient, computable-real balls contain
the values mpmath computes, and evaluate agrees with an independent
truncated power-series evaluator."""

import itertools
import math
import operator
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
import reference_number  # noqa: E402
import reference_order  # noqa: E402
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from rzl import expr as E  # noqa: E402
from rzl.calculus import der, evaluate  # noqa: E402
from rzl.number import (  # noqa: E402
    EXACT_WIDTH,
    epsilon,
    from_coefficients,
    from_rational,
    inverse,
    leading_index,
    make_number,
    monomial,
)
from rzl.order import (  # noqa: E402
    DeltaSpec,
    abs_val,
    ball_contains,
    classify,
    distinguishable,
    e_ball,
    in_delta,
    lex_less,
    point_interior_witness,
    psi_ball,
    rat_ball,
    sign_of,
    st_ball,
    within_radius,
)
from rzl.scalar import CompReal, is_rational_scalar, scalar_abs_within, scalar_eq  # noqa: E402
from rzl.verdict import DomainError, UndecidedError  # noqa: E402

SETTINGS = settings(deadline=None, max_examples=60, derandomize=True)

rationals = st.fractions(min_value=-2, max_value=2, max_denominator=2 ** 12)
budgets = st.integers(min_value=1, max_value=2 ** 12)


@st.composite
def computable(draw):
    """A rational q and a CompReal for it: exact-tagged or a derived sum."""
    q = draw(rationals)
    if draw(st.booleans()):
        return q, CompReal.from_rational(q)
    a = draw(rationals)
    return q, CompReal.from_rational(a) + CompReal.from_rational(q - a)


def _sign(q):
    return (q > 0) - (q < 0)


@SETTINGS
@given(computable(), budgets)
def test_escalated_sign_matches_exact(qc, budget):
    q, c = qc
    s = c.sign(budget)
    if s is not None:
        assert s == _sign(q)
        assert c.sign(4 * budget) == s
    if q == 0:
        assert s is None     # a bracket around zero never clears it


@SETTINGS
@given(computable(), st.fractions(min_value=Fraction(1, 2 ** 10), max_value=2), budgets)
def test_escalated_abs_within_matches_exact(qc, bound, budget):
    q, c = qc
    inside = scalar_abs_within(c, bound, budget)
    if inside is not None:
        assert inside == (abs(q) < bound)
        assert scalar_abs_within(c, bound, 4 * budget) == inside
    clear = c.bracket_clear_of((-bound, bound), budget)
    assert (clear is None) == (inside is None)
    if clear is not None:
        lo, hi = clear
        assert lo <= q <= hi
        assert all(cut < lo or hi < cut for cut in (-bound, bound))
        assert c.bracket_clear_of((-bound, bound), 4 * budget) == clear


# -- order verdicts under growing budgets ----------------------------------------

small = st.sampled_from([0, 0, 0, 1, -1, Fraction(1, 2), Fraction(-1, 3), 2])


@st.composite
def streams(draw):
    """A finite-support rational stream, one coefficient possibly a CompReal."""
    low = draw(st.integers(min_value=-2, max_value=1))
    coeffs = draw(st.lists(small, min_size=1, max_size=5))
    if draw(st.booleans()):
        i = draw(st.integers(min_value=0, max_value=len(coeffs) - 1))
        _, coeffs[i] = draw(computable())
    return from_coefficients(low, coeffs)


def _plain(obj):
    """Witness with computable reals replaced by their value at 10^-6."""
    if isinstance(obj, CompReal):
        return ("creal", obj.approx(10 ** 6))
    if isinstance(obj, tuple):
        return tuple(_plain(v) for v in obj)
    return obj


def _assert_monotone(check, depth, budget):
    small_v = check(depth, budget)
    if small_v.is_unknown:
        return
    big_v = check(depth + 8, 4 * budget)
    assert big_v.state == small_v.state
    assert _plain(big_v.witness) == _plain(small_v.witness)


depths = st.integers(min_value=1, max_value=8)


@SETTINGS
@given(streams(), streams(), st.integers(min_value=0, max_value=3), depths, budgets)
def test_order_verdicts_monotone_in_budget(x, y, m, depth, budget):
    _assert_monotone(lambda d, b: sign_of(x, d, b), depth, budget)
    _assert_monotone(lambda d, b: lex_less(x, y, d, b), depth, budget)
    _assert_monotone(lambda d, b: classify(x, d, b), depth, budget)
    _assert_monotone(lambda d, b: abs_val(x, d, b), depth, budget)
    for kind in ("st", "e"):
        _assert_monotone(lambda d, b: distinguishable(x, y, kind, d, b), depth, budget)
    _assert_monotone(lambda d, b: in_delta(x, DeltaSpec(m, down_closed=True), d, b),
                     depth, budget)
    _assert_monotone(lambda d, b: in_delta(x, DeltaSpec(m), d, b), depth, budget)


@SETTINGS
@given(st.integers(min_value=-2, max_value=1), st.lists(small, max_size=4),
       computable(), st.booleans(), depths, budgets)
def test_leading_index_value_holds_the_coefficient(low, coeffs, qc, as_creal, depth, budget):
    """A certified value is an interval that holds the leading coefficient
    and excludes 0, and it is (c, c) for a rational coefficient c."""
    q, c = qc
    x = from_coefficients(low, coeffs + [c if as_creal else q])
    li = leading_index(x, depth, budget)
    if not li.is_certified:
        return
    lo, hi = li.value
    exact = (coeffs + [q])[li.witness - low]
    assert lo <= exact <= hi and not lo <= 0 <= hi
    if not isinstance(x[li.witness], CompReal):
        assert li.value == (exact, exact)


def test_in_delta_pure_reading_witness_stable():
    # the pure-monomial reading stops at an undecided coefficient instead of
    # refuting at a later one, so a larger budget cannot move its witness
    x = from_coefficients(0, [CompReal.from_rational(Fraction(1, 1000)), 0, 1])
    low = in_delta(x, DeltaSpec(1), 8, 16)
    assert low.is_unknown and low.reason == "coefficient at m not certified nonzero"
    high = in_delta(x, DeltaSpec(1), 8, 2 ** 12)
    assert high.is_refuted and high.witness == 0


@SETTINGS
@given(streams(), streams(), st.integers(min_value=1, max_value=4), depths, budgets)
def test_ball_contains_monotone_in_budget(center, z, n, depth, budget):
    for ball in (st_ball(center, n), rat_ball(center, n), psi_ball(center, n),
                 e_ball(center, monomial(Fraction(1, n), 1))):
        _assert_monotone(lambda d, b: ball_contains(ball, z, d, b), depth, budget)


@settings(deadline=None, max_examples=500, derandomize=True)
@given(streams(), streams(), streams(), st.sampled_from([None, Fraction(1, 3), Fraction(1, 2)]),
       depths, budgets)
def test_order_witnesses_replay(x, y, w, t, depth, budget):
    """A certified separation or interior witness replays at the default
    depth and budget: the balls an 'st' or 'e' separation names refute
    containing the other point, and the radius r an interior witness names
    keeps (z - r, z + r) inside the interval.  z is the third stream, or
    the point t of the way from one end of the interval to the other."""
    for kind, ball in (("st", st_ball), ("e", lambda c, k: e_ball(c, monomial(1, k)))):
        v = distinguishable(x, y, kind, depth, budget)
        if v.is_certified and v.witness[1] >= 1:
            for c, other in ((x, y), (y, x)):
                assert ball_contains(ball(c, v.witness[1]), other).is_refuted, (kind, v)
    a, b = (y, x) if lex_less(y, x, depth, budget).is_certified else (x, y)
    z = w if t is None else a + (b - a) * t
    if not (lex_less(a, z, depth, budget).is_certified
            and lex_less(z, b, depth, budget).is_certified):
        return
    for kind in ("st", "e"):
        v = point_interior_witness((a, b), z, kind, depth, budget)
        if v.is_certified:
            name, k = v.witness
            r = from_rational(Fraction(1, k)) if name == "1/n" else monomial(1, k)
            assert lex_less(a, z - r).is_certified and lex_less(z + r, b).is_certified, v


def _counting_clears(call):
    """call()'s result and the number of `bracket_clear_of` calls it made."""
    clear, calls = CompReal.bracket_clear_of, []

    def counted(self, *args):
        calls.append(self)
        return clear(self, *args)

    CompReal.bracket_clear_of = counted
    try:
        return call(), len(calls)
    finally:
        CompReal.bracket_clear_of = clear


@st.composite
def containments(draw):
    """(d, r) for -r < d < r: r a monomial, eps or a stream of either sign,
    or d or -d plus a stream shifted up by 1 to 3 indices, so that one side
    is exactly 0 where the other decides first."""
    d = draw(streams())
    kind = draw(st.sampled_from(["monomial", "eps", "stream", "d", "-d"]))
    if kind == "monomial":
        return d, monomial(draw(rationals), draw(st.integers(min_value=-2, max_value=4)))
    if kind == "eps":
        return d, epsilon()
    e = draw(streams())
    if kind == "stream":
        return d, e
    return d, (d if kind == "d" else -d) + e.shift(draw(st.integers(min_value=1, max_value=3)))


@settings(deadline=None, max_examples=400, derandomize=True)
@given(containments(), depths, budgets)
def test_within_radius_matches_the_two_scan_reference(dr, depth, budget):
    """The one-scan containment test returns the verdict of the two scans
    it replaced, field for field, for radii of either sign, and decides no
    computable-real coefficient more often than they did."""
    d, r = dr
    got, got_clears = _counting_clears(lambda: within_radius(d, r, depth, budget))
    want, want_clears = _counting_clears(
        lambda: reference_order.within_radius(d, r, depth, budget))
    assert got == want
    assert got_clears <= want_clears


# -- the exact-window kernel against convolution_sum -------------------------------

exact_coeffs = st.one_of(
    st.integers(min_value=-7, max_value=7),
    st.fractions(min_value=-3, max_value=3, max_denominator=12),
    st.sampled_from([0, Fraction(0), Fraction(3, 1), Fraction(-1, 1)]))


@st.composite
def recorded_streams(draw, lead=None):
    """A recipe (low, coefficients, bounded) for `make_number`: exact zeros
    ahead of the first drawn coefficient (`lead`, if given), up to three
    windows' worth of exact coefficients, perhaps one CompReal, and a
    support that ends with the list or repeats it without end."""
    low = draw(st.integers(min_value=-2, max_value=1))
    zeros = draw(st.lists(st.sampled_from([0, Fraction(0)]), max_size=3))
    size = draw(st.integers(min_value=1, max_value=3 * EXACT_WIDTH))
    coeffs = draw(st.lists(exact_coeffs, min_size=size, max_size=size))
    if lead is not None:
        coeffs[0] = draw(lead)
    coeffs = zeros + coeffs
    if draw(st.booleans()):
        at = draw(st.integers(min_value=len(zeros) + (lead is not None),
                              max_value=len(coeffs)))
        if at < len(coeffs):
            coeffs[at] = draw(computable())[1]
    return low, coeffs, draw(st.booleans())


def _recorded(recipe, reads):
    """The recipe's stream; every index its coefficient function is called
    at goes into `reads`."""
    low, coeffs, bounded = recipe

    def coeff(i):
        reads.add(i)
        return coeffs[(i - low) % len(coeffs)]

    return make_number(low, coeff, low + len(coeffs) - 1 if bounded else None)


def _same_scalar(got, want):
    assert type(got) is type(want)
    if isinstance(want, CompReal):
        assert got.ball(64) == want.ball(64)
    else:
        assert got == want


@st.composite
def convolutions(draw):
    """(op, recipes): a product of two streams, a square, an inverse with
    leading coefficient +-1, 2 or 1/2, or such an inverse times a stream."""
    op = draw(st.sampled_from(["mul", "square", "inverse", "inverse*b"]))
    lead = st.sampled_from([1, -1, 2, Fraction(1, 2)]) if op.startswith("inverse") else None
    return op, [draw(recorded_streams(lead)), draw(recorded_streams())]


def _convolution(op, x, y, mul, inv):
    if op == "mul":
        return mul(x, y)
    if op == "square":
        return mul(x, x)
    if op == "inverse":
        return inv(x)
    return mul(inv(x), y)


@settings(deadline=None, max_examples=200, derandomize=True)
@given(convolutions(), st.integers(min_value=1, max_value=4 * EXACT_WIDTH), st.data())
def test_exact_window_matches_convolution_sum(case, n, data):
    """Products and inverses return the value and type that one
    convolution_sum per coefficient returns, in index order and in shuffled
    (cold) order, over windows on both sides of EXACT_WIDTH; and after each
    output read their operands have been read at exactly the same indices,
    so no b(k - i) is read where a(i) is an exact 0."""
    op, recipes = case
    got_reads, want_reads = [set(), set()], [set(), set()]
    got = _convolution(op, *map(_recorded, recipes, got_reads),
                       operator.mul, inverse)
    want = _convolution(op, *map(_recorded, recipes, want_reads),
                        reference_number.product, reference_number.inverse)
    assert (got.low, got.finite_support) == (want.low, want.finite_support)
    indices = list(range(want.low, want.low + n))
    if data.draw(st.booleans(), label="shuffled"):
        indices = data.draw(st.permutations(indices), label="order")
    for k in indices:
        _same_scalar(got[k], want[k])
        assert got_reads == want_reads, k


# -- ball arithmetic against an independent oracle -------------------------------

leaves = st.tuples(st.sampled_from(["exp", "sin", "cos"]), rationals)
steps = st.tuples(st.sampled_from(["+", "-", "*", "/", "scale"]),
                  st.integers(min_value=0, max_value=11),
                  st.integers(min_value=0, max_value=11),
                  st.fractions(min_value=-64, max_value=64, max_denominator=64))


@SETTINGS
@given(st.lists(leaves, min_size=1, max_size=4), st.lists(steps, max_size=8))
def test_ball_approximations_are_sound(leaf_list, step_list):
    """Random DAGs of + - * /, rational scaling and exp/sin/cos leaves at
    rationals stay within 1/n of their 50-digit mpmath values, and their
    balls contain those values.  Nodes whose
    value exceeds 1000 in magnitude are dropped, so that the oracle's own
    rounding stays far below 1/n."""
    mpmath = pytest.importorskip("mpmath")
    from rzl.scalar import creal_elementary

    def mp(q):
        return mpmath.mpf(q.numerator) / q.denominator

    with mpmath.workdps(50):
        nodes = [(creal_elementary(kind, q), getattr(mpmath, kind)(mp(q)))
                 for kind, q in leaf_list]
        for op, i, j, q in step_list:
            (a, va), (b, vb) = nodes[i % len(nodes)], nodes[j % len(nodes)]
            if op == "/":
                if b.bracket_clear_of((0,)) is None:   # divisor not separated from 0
                    continue
                c, v = a * b.reciprocal(), va / vb
            else:
                c, v = {"+": (a + b, va + vb), "-": (a - b, va - vb),
                        "*": (a * b, va * vb), "scale": (a * q, va * mp(q))}[op]
            # a scaling by 0 is the exact int 0, which has no balls
            if abs(v) <= 1000 and isinstance(c, CompReal):
                nodes.append((c, v))
        slack = mpmath.mpf(10) ** -30
        for c, v in nodes:
            for n in (1, 10, 10 ** 6, 2 ** 64):
                assert abs(mp(c.approx(n)) - v) <= mpmath.mpf(1) / n + slack
            for p in (4, 16, 64):   # the balls themselves, also at low precision
                m, r = c.ball(p)
                assert abs(m - v * 2 ** p) <= r + slack


# -- escalation in integers against the loop over Fraction brackets -------------

def _fraction_loop(c, cuts, budget):
    """The escalation as a loop over `approx` and `Fraction` brackets."""
    n = 1
    while n <= budget:
        a = c.approx(n)
        lo, hi = a - Fraction(1, n), a + Fraction(1, n)
        if all(cut < lo or hi < cut for cut in cuts):
            return lo, hi
        n *= 2
    return None


def _floor_leaf(q):
    """An approximation-function leaf for q: floor(q*n)/n is within 1/n."""
    return CompReal(lambda n: Fraction(math.floor(q * n), n))


dag_leaves = st.tuples(st.sampled_from(["exp", "sin", "cos", "fn"]), rationals,
                       st.sampled_from([1, 1, Fraction(1, 2 ** 17)]))
dag_steps = st.tuples(st.sampled_from(["+", "-", "*", "/", "scale", "zero", "rzero"]),
                      st.integers(min_value=0, max_value=11),
                      st.integers(min_value=0, max_value=11),
                      st.sampled_from([Fraction(1, 2 ** 30), Fraction(-1, 2 ** 17),
                                       Fraction(-1, 2 ** 12),
                                       Fraction(3, 7), Fraction(-5), Fraction(2 ** 20)]))
escalation_budgets = st.sampled_from([1, 3, 1000, 2 ** 15, 2 ** 16, 2 ** 17, 2 ** 20])


@settings(deadline=None, max_examples=150, derandomize=True)
@given(st.lists(dag_leaves, min_size=1, max_size=3), st.lists(dag_steps, max_size=6),
       st.fractions(min_value=Fraction(1, 2 ** 30), max_value=4, max_denominator=2 ** 30),
       escalation_budgets)
def test_bracket_clear_of_matches_the_fraction_loop(leaf_list, step_list, b, budget):
    """Random DAGs of + - *, reciprocals (of small values too, whose balls
    need a retry), scaling down to 2^-30, exp/sin/cos and
    approximation-function leaves, and exact zeros x - x built from distinct
    nodes: `bracket_clear_of` returns exactly the bracket of the loop over
    `approx(n) -+ 1/n`, for the cuts 0 and -b, b."""
    from rzl.scalar import creal_elementary

    def leaf(kind, q, s):
        if kind == "fn":
            return lambda: _floor_leaf(q) * s
        return lambda: creal_elementary(kind, q) * s

    makes = [leaf(*spec) for spec in leaf_list]
    nodes = [make() for make in makes]
    for op, i, j, q in step_list:
        i, j = i % len(nodes), j % len(nodes)
        (a, make_a), (c, make_c) = (nodes[i], makes[i]), (nodes[j], makes[j])
        if op == "/":               # a / (c*q): a small q needs retries
            if (c * q).bracket_clear_of((0,)) is None:
                continue

            def make(make_a=make_a, make_c=make_c, q=q):
                return make_a() * (make_c() * q).reciprocal()
        elif op == "zero":
            # exactly 0 from two distinct DAGs whose centres differ by the
            # roundings of 1/3
            def make(make_a=make_a):
                return make_a() - make_a() * Fraction(1, 3) * 3
        elif op == "rzero":
            # the same, with the roundings amplified by 1/(a*q)
            if (a * q).bracket_clear_of((0,)) is None:
                continue

            def make(make_a=make_a, q=q):
                return ((make_a() * q).reciprocal()
                        - (make_a() * q * Fraction(1, 3) * 3).reciprocal())
        else:
            def make(op=op, make_a=make_a, make_c=make_c, q=q):
                x, y = make_a(), make_c()
                return {"+": x + y, "-": x - y, "*": x * y, "scale": x * q}[op]
        node = make()
        if isinstance(node, CompReal):
            makes.append(make)
            nodes.append(node)
    for node in nodes:
        for cuts in ((0,), (-b, b)):
            got = node.bracket_clear_of(cuts, budget)
            assert got == _fraction_loop(node, cuts, budget)
            assert got is None or all(type(end) is Fraction for end in got)


# -- equality from the structure of the DAG -------------------------------------

def _dag_recipe(leaf_list, step_list):
    """The DAGs of `test_bracket_clear_of_matches_the_fraction_loop` as
    (node, make, pure) triples: make() builds the node afresh, and pure
    says that it was built from exp/sin/cos leaves only."""
    from rzl.scalar import creal_elementary

    def leaf(kind, q, s):
        if kind == "fn":
            return lambda: _floor_leaf(q) * s
        return lambda: creal_elementary(kind, q) * s

    makes = [leaf(*spec) for spec in leaf_list]
    nodes = [make() for make in makes]
    pure = [kind != "fn" for kind, _, _ in leaf_list]
    for op, i, j, q in step_list:
        i, j = i % len(nodes), j % len(nodes)
        (a, make_a), (c, make_c) = (nodes[i], makes[i]), (nodes[j], makes[j])
        if op in ("/", "rzero") and \
                ((c if op == "/" else a) * q).bracket_clear_of((0,)) is None:
            continue
        if op == "/":
            def make(make_a=make_a, make_c=make_c, q=q):
                return make_a() * (make_c() * q).reciprocal()
        elif op == "zero":
            def make(make_a=make_a):
                return make_a() - make_a() * Fraction(1, 3) * 3
        elif op == "rzero":
            def make(make_a=make_a, q=q):
                return ((make_a() * q).reciprocal()
                        - (make_a() * q * Fraction(1, 3) * 3).reciprocal())
        else:
            def make(op=op, make_a=make_a, make_c=make_c, q=q):
                x, y = make_a(), make_c()
                return {"+": x + y, "-": x - y, "*": x * y, "scale": x * q}[op]
        node = make()
        if isinstance(node, CompReal):
            makes.append(make)
            nodes.append(node)
            pure.append(pure[i] and (pure[j] or op in ("zero", "rzero", "scale")))
    return list(zip(nodes, makes, pure))


@settings(deadline=None, max_examples=60, derandomize=True)
@given(st.lists(dag_leaves, min_size=1, max_size=3), st.lists(dag_steps, max_size=6))
def test_scalar_eq_is_true_for_dags_built_alike_and_only_for_equal_values(leaf_list, step_list):
    """On those random DAGs: a node built from exp/sin/cos leaves only is
    certified equal to a fresh build of itself, and any two nodes that
    `scalar_eq` certifies equal, fresh builds included, have approximations
    at 10^9 within 2/10^9 of each other."""
    recipe = _dag_recipe(leaf_list, step_list)
    fresh = [make() for _, make, _ in recipe]
    for (node, _, pure), again in zip(recipe, fresh):
        if pure:
            assert scalar_eq(node, again) is True
    n = 10 ** 9
    for a, b in itertools.combinations([node for node, _, _ in recipe] + fresh, 2):
        if scalar_eq(a, b) is True:
            assert abs(a.approx(n) - b.approx(n)) <= Fraction(2, n)


# -- evaluate against a truncated power-series oracle ---------------------------

# A Laurent series truncated after a known prefix: (low, coefficients at
# low, low + 1, ...).  A coefficient is a Fraction while it is computed from
# rationals alone and an mpmath float otherwise, and a product with a
# Fraction zero factor is a Fraction zero, as in rzl, so that the oracle
# knows which of evaluate's refusals a tree must meet.
_TERMS = 24                 # coefficients known of each leaf
_SCAN = 16                  # evaluate's default depth: the divisor window
_DOCUMENTED = {
    "inverse requires certified leading term",
    "series undefined for infinite argument",
    "series functions need an exact rational standard part",
}


class _Refusal(Exception):
    """The error evaluate must raise on this tree: its class and message."""


def _zero(v):
    return type(v) is Fraction and v == 0


def _mp(q):
    import mpmath
    q = Fraction(q)
    return mpmath.mpf(q.numerator) / q.denominator


def _exact_or_real(op, a, b):
    if type(a) is Fraction and type(b) is Fraction:
        return op(a, b)
    return op(*(_mp(v) if type(v) is Fraction else v for v in (a, b)))


def _plus(a, b):
    return b if _zero(a) else a if _zero(b) else _exact_or_real(operator.add, a, b)


def _times(a, b):
    return Fraction(0) if _zero(a) or _zero(b) else _exact_or_real(operator.mul, a, b)


def _coeff(series, i):
    low, c = series
    return c[i - low] if i >= low else Fraction(0)


def _product(a, b):
    (la, ca), (lb, cb) = a, b
    out = []
    for k in range(min(len(ca), len(cb))):
        acc = Fraction(0)
        for i in range(k + 1):
            acc = _plus(acc, _times(ca[i], cb[k - i]))
        out.append(acc)
    return la + lb, out


def _quotient(a, b):
    """a / b by long division, after the first certified coefficient of b."""
    import mpmath
    (la, ca), (lb, cb) = a, b
    for v, c in enumerate(cb):
        if v > _SCAN:
            break
        if _zero(c):
            continue
        if type(c) is Fraction or abs(c) > mpmath.mpf(10) ** -5:
            q = []
            for k in range(min(len(ca), len(cb) - v)):
                acc = ca[k]
                for j in range(1, k + 1):
                    acc = _plus(acc, -_times(cb[v + j], q[k - j]))
                q.append(Fraction(0) if _zero(acc) else _exact_or_real(operator.truediv, acc, c))
            return la - lb - v, q
        hypothesis.assume(abs(c) < mpmath.mpf(10) ** -30)   # else too close to call
        break
    else:
        hypothesis.assume(len(cb) > _SCAN)
    raise _Refusal(UndecidedError, "inverse requires certified leading term")


def _taylor(kind, a):
    """kind(s + d) = sum f^(n)(s)/n! d^n, in powers of the displacement d."""
    import mpmath
    low, c = a
    hypothesis.assume(len(c) > -low)
    if not all(_zero(v) for v in c[:max(0, -low)]):
        raise _Refusal(DomainError, "series undefined for infinite argument")
    s = _coeff(a, 0)
    if type(s) is not Fraction:
        raise _Refusal(DomainError, "series functions need an exact rational standard part")
    n = low + len(c)            # coefficients 0 .. n-1 are known
    d = (0, [Fraction(0)] + [_coeff(a, j) for j in range(1, n)])
    power, parts = (0, [Fraction(1)] + [Fraction(0)] * (n - 1)), []
    for k in range(n):          # parts[k] = d^k / k!
        parts.append([_times(Fraction(1, math.factorial(k)), v) for v in power[1]])
        power = _product(power, d)

    def tail(first):            # sum of (-1)^(k//2) d^k/k! over k = first, first+2, ...
        out = []
        for i in range(n):
            acc = Fraction(0)
            for k in range(first, n, 2):
                v = parts[k][i]
                acc = _plus(acc, -v if kind != "exp" and k // 2 % 2 else v)
            out.append(acc)
        return out
    if kind == "exp":
        e = [_plus(x, y) for x, y in zip(tail(0), tail(1))]
        at = Fraction(1) if s == 0 else mpmath.exp(_mp(s))
        return 0, [_times(at, v) for v in e]
    sin_s, cos_s = (Fraction(0), Fraction(1)) if s == 0 else \
        (mpmath.sin(_mp(s)), mpmath.cos(_mp(s)))
    cs, sn = tail(0), tail(1)
    if kind == "sin":
        return 0, [_plus(_times(sin_s, x), _times(cos_s, y)) for x, y in zip(cs, sn)]
    return 0, [_plus(_times(cos_s, x), -_times(sin_s, y)) for x, y in zip(cs, sn)]


def _oracle(t, s, q):
    """t at s + eps + q*eps^2, in evaluate's order: kids left to right."""
    if isinstance(t, E.Var):
        return 0, [s, Fraction(1), q] + [Fraction(0)] * (_TERMS - 3)
    if isinstance(t, E.Const):
        return 0, [Fraction(t.value)] + [Fraction(0)] * (_TERMS - 1)
    if isinstance(t, (E.Sin, E.Cos, E.Exp)):
        return _taylor(type(t).__name__.lower(), _oracle(t.arg, s, q))
    if isinstance(t, E.PowInt):
        base, out = _oracle(t.base, s, q), (0, [Fraction(1)] + [Fraction(0)] * (_TERMS - 1))
        for _ in range(t.exponent):
            out = _product(out, base)
        return out
    a, b = _oracle(t.left, s, q), _oracle(t.right, s, q)
    if isinstance(t, E.Mul):
        return _product(a, b)
    if isinstance(t, E.Div):
        return _quotient(a, b)
    low = min(a[0], b[0])
    top = min(a[0] + len(a[1]), b[0] + len(b[1]))
    sign = 1 if isinstance(t, E.Add) else -1
    return low, [_plus(_coeff(a, i), sign * _coeff(b, i)) for i in range(low, top)]


def _real(t, x):
    """t at the real x, in mpmath, for mpmath.diff."""
    import mpmath
    if isinstance(t, E.Var):
        return x
    if isinstance(t, E.Const):
        return _mp(t.value)
    if isinstance(t, (E.Sin, E.Cos, E.Exp)):
        return getattr(mpmath, type(t).__name__.lower())(_real(t.arg, x))
    if isinstance(t, E.PowInt):
        return _real(t.base, x) ** t.exponent
    op = {E.Add: operator.add, E.Sub: operator.sub, E.Mul: operator.mul,
          E.Div: operator.truediv}[type(t)]
    return op(_real(t.left, x), _real(t.right, x))


def _close(got, want):
    """An exact coefficient equals an exact one; otherwise rzl's value is
    within 10^-12 of the oracle's, relative to its size."""
    import mpmath
    if type(want) is Fraction:
        return is_rational_scalar(got) and got == want
    value = got.approx(10 ** 18) if isinstance(got, CompReal) else got
    return abs(_mp(value) - want) <= mpmath.mpf(10) ** -12 * max(1, abs(want))


small_constants = st.sampled_from([0, 1, -1, 2, Fraction(1, 2), Fraction(-1, 3), Fraction(3, 2)])


def expressions(depth=4):
    """Trees up to `depth` of + - * / ^k sin cos exp over x and constants."""
    leaf = st.one_of(st.just(E.X), st.builds(E.Const, small_constants))
    if depth == 0:
        return leaf
    kid = expressions(depth - 1)
    return st.one_of(
        leaf,
        st.builds(lambda op, a, b: op(a, b), st.sampled_from([E.Add, E.Sub, E.Mul, E.Div]),
                  kid, kid),
        st.builds(E.PowInt, kid, st.integers(0, 3)),
        st.builds(lambda op, a: op(a), st.sampled_from([E.Sin, E.Cos, E.Exp]), kid))


@settings(deadline=None, max_examples=300, derandomize=True)
@given(expressions(), st.sampled_from([0, 0, Fraction(1, 3), Fraction(-1, 2), 1]),
       st.sampled_from([0, 1, Fraction(-1, 2)]))
def test_evaluate_matches_a_power_series_oracle(tree, s, q):
    """Coefficients -k .. 5 of a random tree at s + eps + q*eps^2 match an
    oracle that composes Taylor series with powers of the displacement
    (Fractions where rzl is exact, 50-digit mpmath elsewhere), and the
    standard part of der(f, s) matches mpmath.diff.  A tree is refused only
    by the documented errors, and exactly where the oracle expects it."""
    mpmath = pytest.importorskip("mpmath")
    s, q = Fraction(s), Fraction(q)
    point = from_rational(s) + epsilon() + monomial(q, 2)
    with mpmath.workdps(50):
        try:
            want = _oracle(tree, s, q)
        except _Refusal as refusal:
            cls, message = refusal.args
            with pytest.raises(cls) as raised:
                evaluate(tree, point)
            assert str(raised.value) == message
            return
        hypothesis.assume(want[0] + len(want[1]) > 5)   # known through index 5
        got = evaluate(tree, point)
        for i in range(min(got.low, want[0]), 6):
            assert _close(got[i], _coeff(want, i)), (i, got[i], _coeff(want, i))

        try:
            slope = der(tree, from_rational(s))[0]
        except (UndecidedError, DomainError) as exc:
            assert str(exc) in _DOCUMENTED
            return
        assert _close(slope, mpmath.diff(lambda x: _real(tree, x), _mp(s)))
