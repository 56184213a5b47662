"""The one tree walk: every expression pass against a copy of its earlier
recursive form on random trees, and every pass on chains far deeper than
the recursion limit."""

import functools
import operator
import sys
import threading
from fractions import Fraction as F

import pytest
import reference_expr as ref

from rzl import calculus, number
from rzl import expr as E
from rzl.calculus import _resolve_piecewise, evaluate
from rzl.number import PartSelector, epsilon, from_rational, one, zero
from rzl.parser import parse
from rzl.scalar import _same_dag, is_rational_scalar

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

SETTINGS = settings(deadline=None, max_examples=150, derandomize=True)
BUDGET = 2 ** 10

constants = st.builds(E.Const, st.fractions(min_value=-3, max_value=3, max_denominator=4))


def _chain(ops, operands):
    tree = operands[0]
    for op, operand in zip(ops, operands[1:]):
        tree = op(tree, operand)
    return tree


def exponents(var):
    """Exponents of a symbolic power: nonnegative integers at a sequence
    index, and some that are not."""
    v = E.Var(var)
    return st.sampled_from([E.Const(0), E.Const(2), v, E.Add(v, E.Const(1)),
                            E.Sub(E.Const(1), v), E.EpsilonLit(), E.Div(v, E.Const(2))])


def trees(var):
    """Trees over all 17 node classes, with + / - and * chains up to six long."""
    leaves = st.one_of(st.just(E.Var(var)), constants,
                       st.sampled_from([E.EpsilonLit(), E.OmegaLit(), E.Var("y")]))

    def extend(kids):
        return st.one_of(
            st.builds(lambda c, a, b: c(a, b),
                      st.sampled_from([E.Add, E.Sub, E.Mul, E.Div]), kids, kids),
            st.integers(2, 6).flatmap(lambda n: st.builds(
                _chain, st.lists(st.sampled_from([E.Add, E.Sub]), min_size=n - 1,
                                 max_size=n - 1), st.lists(kids, min_size=n, max_size=n))),
            st.integers(2, 6).flatmap(lambda n: st.builds(
                _chain, st.just([E.Mul] * (n - 1)), st.lists(kids, min_size=n, max_size=n))),
            st.builds(E.PowInt, kids, st.integers(0, 3)),
            st.builds(E.PowSym, kids, exponents(var)),
            st.builds(lambda c, a: c(a),
                      st.sampled_from([E.Sin, E.Cos, E.Exp, E.Sign, E.Abs]), kids),
            st.builds(E.Part, st.sampled_from(list(PartSelector)), kids),
            st.builds(E.PiecewiseSt, st.sampled_from(["<=", "<", "=", ">", ">="]),
                      st.sampled_from([0, F(1, 3), 2]), kids, kids, kids),
        )

    return st.recursive(leaves, extend, max_leaves=10)


# a function mode (x at rational and infinitesimally displaced points) and
# a sequence mode (n at a positive integer)
cases = st.one_of(
    st.tuples(trees("x"), st.just("x"),
              st.sampled_from([F(0), F(1, 3), F(-1, 2), F(2)]), st.booleans()),
    st.tuples(trees("n"), st.just("n"), st.sampled_from([F(1), F(2), F(3)]), st.just(False)),
)


def _outcome(fn, *args):
    try:
        return "value", fn(*args)
    except Exception as exc:
        return "error", type(exc), str(exc)


def _point(at, displaced):
    return from_rational(at) + epsilon() if displaced else from_rational(at)


def _coefficients(evaluator, tree, x, var):
    value = evaluator(tree, x, 6, BUDGET, var)
    return [value[i] for i in range(-1, 5)]


@SETTINGS
@given(cases)
def test_walk_passes_match_the_recursive_passes(case):
    tree, var, at, displaced = case
    for grossone in (False, True):
        assert E.to_text(tree, grossone) == ref.to_text(tree, grossone)
    for name in ("x", "n", "y"):
        assert E.as_polynomial(tree, name) == ref.as_polynomial(tree, name)
        assert E.substitute(tree, E.Sin(E.Var("z")), name) == \
            ref.substitute(tree, E.Sin(E.Var("z")), name)
    for kinds in (E.Var, (E.EpsilonLit, E.OmegaLit), E.PiecewiseSt, E.Sign, E.PowSym):
        assert E.contains(tree, kinds) == ref.contains(tree, kinds)
    for convention in (False, True):
        assert _outcome(E.classical_derivative, tree, convention) == \
            _outcome(ref.classical_derivative, tree, convention)
    x = _point(at, displaced)
    assert _outcome(_resolve_piecewise, tree, x, BUDGET) == \
        _outcome(ref.resolve_piecewise, tree, x, BUDGET)

    got = _outcome(_coefficients, evaluate, tree, x, var)
    want = _outcome(_coefficients, ref.evaluate, tree, x, var)
    assert got[0] == want[0], (got, want)
    if got[0] == "error":
        assert got == want
        return
    for a, b in zip(got[1], want[1]):
        if is_rational_scalar(b):
            assert type(a) is type(b) and a == b
        else:
            assert _same_dag(a, b)


def test_walk_reads_only_what_a_handler_asks_for():
    # a branch node evaluates its subject and the branch taken; the other
    # branch would raise
    tree = E.PiecewiseSt("<", 0, E.OmegaLit() * E.Sin(E.OmegaLit()), E.X + 1)
    assert evaluate(tree, from_rational(2))[0] == 3
    with pytest.raises(TypeError, match="unknown node"):
        E.walk(E.Add(E.X, "x"), E._TEXT, False)


# -- chains deeper than the recursion limit ---------------------------------------

@pytest.fixture
def recursion_limit_1000():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(limit)


@pytest.mark.parametrize("n", [1500, 10 ** 4])
@pytest.mark.parametrize("op", ["+", "-", "*"])
def test_every_pass_runs_on_long_chains(recursion_limit_1000, op, n):
    tree = parse(op.join(["x"] * n))
    # coefficient 1 counts the terms: n*x, (2 - n)*x, and (1 + eps)^n
    count = {"+": n, "-": 2 - n, "*": n}[op]
    assert evaluate(tree, one() + epsilon() if op == "*" else epsilon())[1] == count
    assert E.to_text(tree) == f" {op} ".join(["x"] * n)
    assert E.to_text(E.substitute(tree, E.EpsilonLit())) == f" {op} ".join(["eps"] * n)
    assert E.contains(tree, E.Var) and not E.contains(tree, E.EpsilonLit)
    poly = E.as_polynomial(tree)
    assert poly == ([0] * n + [1] if op == "*" else [0, count])
    derivative = E.classical_derivative(tree)
    if op != "*":
        assert E.to_text(derivative) == f" {op} ".join(["1"] * n)
        assert calculus.eval_scalar(derivative, F(1, 3)) == count
    resolved, boundary = _resolve_piecewise(
        E.PiecewiseSt("<", 1, tree, E.Const(0)), zero(), BUDGET)
    assert E.to_text(resolved) == E.to_text(tree) and not boundary


@pytest.mark.parametrize("op", ["*", "/"])
def test_a_derivative_dag_evaluates_each_node_once(monkeypatch, recursion_limit_1000, op):
    # the derivative of a chain shares the chain's prefixes, so evaluating
    # it node by node would build O(n^2) streams
    built = []
    init = number.RzlNumber.__init__
    monkeypatch.setattr(number.RzlNumber, "__init__",
                        lambda self, *args, **kw: built.append(1) or init(self, *args, **kw))
    evaluate(E.classical_derivative(parse(op.join(["x"] * 1500))), from_rational(2))
    assert len(built) < 10 * 1500
    # a long prefix shared with another parent is evaluated once
    chain = parse({"*": "*", "/": "+"}[op].join(["x"] * 1500))
    assert evaluate(E.Add(chain, chain.left), one() + epsilon())[1] == 1500 + 1499
    # a shorter one builds the recursive evaluation's DAG node for node
    for tree in (parse(op.join(["x"] * 40)), parse(f"sin(x){op}x{op}x{op}cos(x){op}x")):
        derivative, x = E.classical_derivative(tree), from_rational(F(1, 3)) + epsilon()
        for a, b in zip(_coefficients(evaluate, derivative, x, "x"),
                        _coefficients(ref.evaluate, derivative, x, "x")):
            if is_rational_scalar(b):
                assert type(a) is type(b) and a == b
            else:
                assert _same_dag(a, b)


def test_a_cold_read_of_a_long_chain_needs_no_recursion(recursion_limit_1000):
    # (1 + eps) chained 10^4 times: n(1 + eps), (2 - n)(1 + eps) and
    # (1 + eps)^n, read from the highest coefficient down
    n = 10 ** 4
    want = {operator.add: [n, n, 0], operator.sub: [2 - n, 2 - n, 0],
            operator.mul: [1, n, n * (n - 1) // 2]}
    for op, coefficients in want.items():
        chain = functools.reduce(op, [one() + epsilon() for _ in range(n)])
        assert [chain[i] for i in (2, 1, 0)] == coefficients[::-1]
    # threads reading one chain at once agree, and each coefficient is the
    # first one written
    chain = functools.reduce(operator.add, [from_rational(F(1, 3)) + epsilon()] * 5000)
    reads = []
    threads = [threading.Thread(target=lambda: reads.append([chain[i] for i in range(3)]))
               for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert reads == [[F(5000, 3), 5000, 0]] * 4
    assert all(read[0] is chain[0] for read in reads)


def test_a_deep_read_starts_at_any_stack_depth(recursion_limit_1000):
    # a read made 700 frames down, under limit 1000, hands its pending reads
    # to the outermost read, which has the whole stack below it
    chain = functools.reduce(operator.add, [epsilon()] * 3000)

    def read_at(depth):
        return chain[1] if depth == 0 else read_at(depth - 1)
    assert read_at(700) == 3000


def test_a_product_of_four_factors_is_read_as_written():
    tree, x = parse("sin(x)*cos(x)*exp(x)*sin(x)"), from_rational(F(1, 3)) + epsilon()
    got, want = evaluate(tree, x), ref.evaluate(tree, x)
    for i in range(3):
        assert _same_dag(got[i], want[i])
