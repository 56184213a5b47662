"""Graded and classical continuity checkers."""

from fractions import Fraction as F

import pytest

from rzl import expr as E
from rzl.continuity import (
    ContinuityQuery,
    check_ed,
    check_ed_class,
    check_kn_continuity,
    check_kn_grid,
)
from rzl.expr import substitute
from rzl.number import from_rational, one, zero

X = E.X
STEP = E.PiecewiseSt("<=", 1, X, X + 1)
DELTA_INDICATOR = E.PiecewiseSt("=", 0, E.Const(1), E.Const(0))


def kn(f, point, k, n, **kw):
    return check_kn_continuity(ContinuityQuery(f, point, k, n), **kw)


def test_identity_grades():
    assert kn(X, zero(), 0, 0).is_certified
    v = kn(X, zero(), 1, 0)
    assert v.is_refuted and "eps^1" in v.witness["eps1"]
    # k <= n exactly characterizes the identity's certified set
    grid = check_kn_grid(X, from_rational(3), 3, 3)
    for (k, n), verdict in grid.items():
        if k <= n:
            assert verdict.is_certified, (k, n)
        else:
            assert verdict.is_refuted, (k, n)


def test_step_function_grades():
    assert kn(STEP, one(), 0, 0).is_refuted
    assert kn(STEP, one(), 0, 1).is_certified
    assert kn(STEP, one(), 0, 2).is_certified     # transfers upward in n
    assert kn(STEP, from_rational(5), 0, 1).is_certified


def test_constant_certifies_everywhere():
    const = E.Const(F(7, 3))
    grid = check_kn_grid(const, from_rational(2), 4, 4)
    assert all(v.is_certified for v in grid.values())


def test_lattice_monotonicity_on_certified_set():
    # certified at (k,n) stays certified at (k, n+1) and at (k-1, n)
    for f, point in ((X, zero()), (STEP, one()), (E.Const(2), zero()),
                     (2 * X + 1, from_rational(3)), (X ** 2, one())):
        grid = check_kn_grid(f, point, 3, 3)
        for (k, n), verdict in grid.items():
            if verdict.is_certified:
                if n < 3:
                    assert grid[(k, n + 1)].is_certified, (f, k, n)
                if k > 0:
                    assert grid[(k - 1, n)].is_certified, (f, k, n)


def test_composition_grade_spot_check():
    # affine composed with affine: grades chain through the middle index
    f = 2 * X + 1            # certified (k,n) iff k <= n
    g = 3 * X - 2
    for (k, n, q) in [(0, 1, 2), (1, 1, 1), (0, 0, 0)]:
        assert kn(f, from_rational(5), k, n).is_certified
        assert kn(g, from_rational(5), n, q).is_certified
        assert kn(substitute(f, g), from_rational(5), k, q).is_certified


def test_multiplication_grade_spot_check():
    f = 2 * X + 1
    g = X - 3
    for (k, n) in [(0, 0), (1, 1), (0, 2)]:
        assert kn(f, one(), k, n).is_certified
        assert kn(g, one(), k, n).is_certified
        assert kn(E.Mul(f, g), one(), max(k, k), min(n, n)).is_certified


def test_polynomial_certification_and_refutation():
    p = X ** 3 - 2 * X + 1
    assert kn(p, from_rational(2), 0, 0).is_certified
    assert kn(p, from_rational(2), 2, 0).is_refuted
    v = kn(E.Sin(X), one(), 0, 0)
    assert v.is_unknown          # outside the certifiable class, no violation


def test_ed_class_identity_modulus():
    v = check_ed_class(X, from_rational(3))
    assert v.is_certified and v.witness["modulus"] == "m(n) = 1*n"
    assert check_ed_class(E.Const(1), zero()).is_certified
    assert check_ed_class(X ** 2 + 1, from_rational(2)).is_certified


def test_ed_vs_ed_class_split_on_infinitesimal_indicator():
    # the indicator of the infinitesimal set at 0: continuous under stream
    # radii (an infinitesimal radius freezes the branch), discontinuous
    # under rational radii (1/m-close points leave the set)
    ed = check_ed(DELTA_INDICATOR, zero())
    ed_class = check_ed_class(DELTA_INDICATOR, zero())
    assert ed.is_certified
    assert ed_class.is_refuted
    assert ed_class.witness["tolerance"] == "1/2"


def test_step_is_ed_continuous_but_not_ed_class():
    assert check_ed(STEP, one()).is_certified
    assert check_ed_class(STEP, one()).is_refuted
    # away from the split the step is an affine branch: both notions agree
    assert check_ed_class(STEP, from_rational(5)).is_unknown or \
        check_ed_class(STEP, from_rational(5)).is_certified


def test_query_validation():
    with pytest.raises(ValueError):
        ContinuityQuery(X, zero(), -1, 0)


def test_constancy_contrapositive():
    # only constants survive every grade: non-constant members of the
    # certifiable class always show a refuted cell in the budgeted grid
    for f, point in ((X, zero()), (STEP, one()), (2 * X - 1, from_rational(2)),
                     (X ** 2, one())):
        grid = check_kn_grid(f, point, 2, 2)
        assert any(v.is_refuted for v in grid.values())


def test_refuter_reads_f_once_per_grid_point(monkeypatch):
    # f(c) once per query and f(c + d) once per grid point c + d the query
    # reads, whatever the number of tolerances and radii
    from rzl import continuity
    calls = []
    real = continuity.evaluate

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(continuity, "evaluate", counted)
    c = from_rational(F(1, 3))
    check_kn_grid(E.Sin(X), c, 2, 2)
    assert len(calls) == 225
    del calls[:]
    check_ed(E.Sin(X), c)
    assert len(calls) == 41
    # the radii 1/m share grid values, such as 1/4 for q = 1/2, m = 1 and
    # for q = 1, m = 2
    del calls[:]
    check_ed_class(E.Sin(X), c)
    assert len(calls) == 11


def test_stream_radii_selection_restates_lex_less():
    # the closed-form choice of grid displacements inside each radius
    # a*eps^j is the one lex_less certifies: on the whole grid, for every
    # radius of the stream and graded checkers and every depth 1..16
    from rzl.continuity import _GRID_COEFFICIENTS, _GRID_MAX_INDEX, _stream_radii
    from rzl.number import monomial
    from rzl.order import lex_less
    from rzl.scalar import PRECISION_BUDGET
    orders_list = [range(_GRID_MAX_INDEX + 1)] + [(n,) for n in range(_GRID_MAX_INDEX + 1)]
    for depth in range(1, 17):
        for orders in orders_list:
            labels = [(a, j) for j in orders for a in _GRID_COEFFICIENTS]
            for (a, j), (label, candidates) in zip(labels, _stream_radii(orders, depth),
                                                   strict=True):
                assert label == f"{a}*eps^{j}"
                expected = [(i, sign * q / 2)
                            for i in range(min(orders), _GRID_MAX_INDEX + 1)
                            for q in _GRID_COEFFICIENTS
                            if lex_less(monomial(q / 2, i), monomial(a, j), depth,
                                        PRECISION_BUDGET).is_certified
                            for sign in (1, -1)]
                got = [(d.finite_support, d[d.finite_support]) for d in candidates()]
                assert got == expected, (depth, orders, label)
