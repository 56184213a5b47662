"""Command-line front end.

Verbs: eval, der, permeate, continuity, converge, classify, inverse, each
declared once, in `_VERBS`, with its help text, runner and arguments.
Running with no verb starts a line-oriented read-eval-print loop on stdin.

Exit status: 0 for values and certified verdicts, 2 for refuted, 3 for
unknown, 1 for any error, usage errors included.  An expression that
starts with a minus sign goes after ``--``.  ``--format json`` emits one
stable JSON object on stdout with exact fraction strings for coefficients.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import expr as E
from .calculus import evaluate, permeate
from .continuity import ContinuityQuery, check_kn_continuity
from .convergence import (
    RzlSequence,
    cc_check,
    hc_check,
    hyper_cauchy_check,
    rc_check,
)
from .number import DEFAULT_DEPTH, RzlNumber, inverse, zero
from .order import classify as classify_number
from .parser import ParseError, parse, parse_sequence
from .render import DEFAULT_EPS_DIGITS, render
from .scalar import CompReal, scalar_str
from .verdict import DomainError, UndecidedError, Verdict, VerdictState

_EXIT = {VerdictState.CERTIFIED: 0, VerdictState.REFUTED: 2,
         VerdictState.UNKNOWN: 3}

#: Errors reported as a message and exit status 1, by the verbs and the REPL.
_ERRORS = (ParseError, UndecidedError, DomainError, ValueError,
           ZeroDivisionError, RecursionError)

_DASH_HINT = "an expression that starts with '-' goes after '--': rzl eval -- \"-eps+1\""


def _message(exc: Exception) -> str:
    # a read deeper than the recursion limit is finished by the outermost
    # read; one that makes no progress so, as a stream that reads itself,
    # still raises this
    return "input too deeply nested" if isinstance(exc, RecursionError) else str(exc)


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors exit 1 like every other error (2 means Refuted); the
    verb parsers inherit this."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n({_DASH_HINT})\n")


def _jsonable(obj):
    if obj is None or isinstance(obj, (str, int, bool)):
        return obj
    if isinstance(obj, (Fraction, CompReal)):
        return scalar_str(obj)
    if isinstance(obj, RzlNumber):
        return render(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, VerdictState):
        return obj.value
    return str(obj)


def _number_json(x: RzlNumber, eps_digits: int) -> dict:
    return {
        "low": x.low,
        "finite_support": x.finite_support,
        "coefficients": [{"index": i, "value": scalar_str(x[i])}
                         for i in range(x.low, eps_digits)],
        "rendered": render(x, eps_digits),
    }


def _verdict_json(v: Verdict) -> dict:
    return {
        "state": v.state.value,
        "depth_used": v.depth_used,
        "witness": _jsonable(v.witness),
        "value": _jsonable(v.value),
        "reason": v.reason,
        "caveat": v.caveat,
    }


def _point_from(text: str, depth: int) -> RzlNumber:
    node = parse(text)
    if isinstance(node, RzlNumber):
        return node
    if E.contains(node, E.Var):
        raise DomainError("evaluation point must not contain the variable")
    return evaluate(node, zero(), depth)


def _value_from(text: str, at: str | None, depth: int):
    """(node, value) for the text: a coefficient literal is its own value,
    an expression is evaluated at the point `at`, or at 0 without one."""
    node = parse(text)
    if isinstance(node, RzlNumber):
        return node, node
    point = _point_from(at, depth) if at else zero()
    return node, evaluate(node, point, depth)


def _function_from(text: str) -> E.Expr:
    node = parse(text)
    if isinstance(node, RzlNumber):
        raise DomainError("expected an expression, got a coefficient literal")
    return node


def _verdict_lines(head: str, v: Verdict, *fields: str) -> list[str]:
    """`head: state`, then one indented line per nonempty field of v."""
    return [f"{head}: {v.state.value}"] + \
        [f"  {name}: {getattr(v, name)}" for name in fields if getattr(v, name)]


# Each runner returns (JSON report, text lines, exit status).

def _run_eval(args):
    node, value = _value_from(args.expression, args.at, args.depth)
    echo = args.expression.strip() if isinstance(node, RzlNumber) \
        else E.to_text(node, grossone=args.grossone)
    rendered = render(value, args.eps_digits)
    report = {"command": args.command, "echo": echo,
              "result": _number_json(value, args.eps_digits),
              "verdict": None, "error": None}
    return report, ([echo] if args.grossone else []) + [rendered], 0


def _run_der(args):
    """`der` and `permeate`: the same report; only `permeate` exits by
    the membership verdict."""
    f = _function_from(args.expression)
    point = _point_from(args.at, args.depth)
    rep = permeate(f, point, args.depth)
    report = {
        "command": args.command,
        "echo": E.to_text(f, grossone=args.grossone),
        "result": _number_json(rep.der_value, args.eps_digits),
        "report": {
            "standard_part": scalar_str(rep.standard_part),
            "classical_value": None if rep.classical_value is None
            else scalar_str(rep.classical_value),
            "in_E": _verdict_json(rep.in_e),
            "permeated": None if rep.permeated is None
            else scalar_str(rep.permeated),
            "reason": rep.reason,
        },
        "verdict": _verdict_json(rep.in_e),
        "error": None,
    }
    lines = [f"der = {render(rep.der_value, args.eps_digits)}",
             f"standard part = {scalar_str(rep.standard_part)}",
             f"permeated = {scalar_str(rep.permeated)}" if rep.permeated is not None
             else f"permeated: absent ({rep.reason})"]
    return report, lines, _EXIT[rep.in_e.state] if args.command == "permeate" else 0


def _run_continuity(args):
    f = _function_from(args.expression)
    point = _point_from(args.at, args.depth)
    v = check_kn_continuity(ContinuityQuery(f, point, args.k, args.n), args.depth)
    report = {"command": args.command, "echo": E.to_text(f, grossone=args.grossone),
              "k": args.k, "n": args.n,
              "verdict": _verdict_json(v), "error": None}
    return report, _verdict_lines(f"({args.k},{args.n})-continuity", v, "reason"), \
        _EXIT[v.state]


def _run_converge(args):
    term = parse_sequence(args.seq)
    seq = RzlSequence(term, description=args.seq)
    limit = _point_from(args.limit, args.depth)
    radii_text = args.radius if args.radius else ["eps"]
    if args.mode == "cc":
        v = cc_check(seq, limit, args.terms, args.depth)
    elif args.mode == "rc":
        v = rc_check(seq, limit, args.terms, args.indices, args.depth)
    else:   # only hc and cauchy read radii
        radii = [_point_from(t, args.depth) for t in radii_text]
        if args.mode == "hc":
            v = hc_check(seq, limit, radii, args.terms, args.depth)
        else:
            v = hyper_cauchy_check(seq, radii, args.terms, args.depth,
                                   limit_hint=limit)
    report = {"command": f"{args.command} {args.mode}", "sequence": args.seq,
              "limit": args.limit, "radii": radii_text,
              "terms": args.terms, "indices": args.indices,
              "verdict": _verdict_json(v), "error": None}
    return report, _verdict_lines(args.mode, v, "reason", "caveat"), _EXIT[v.state]


def _run_classify(args):
    _, value = _value_from(args.expression, None, args.depth)
    v = classify_number(value, args.depth)
    report = {"command": args.command,
              "result": _number_json(value, args.eps_digits),
              "verdict": _verdict_json(v), "error": None}
    return report, [v.value if v.is_certified else f"unknown ({v.reason})"], _EXIT[v.state]


def _run_inverse(args):
    _, value = _value_from(args.expression, args.at, args.depth)
    inv = inverse(value, args.depth)
    report = {"command": args.command,
              "result": _number_json(inv, args.eps_digits),
              "verdict": None, "error": None}
    return report, [render(inv, args.eps_digits)], 0


def _arg(*flags, **options):
    return flags, options


_EXPRESSION = _arg("expression")
_AT_ZERO = _arg("--at", default="0")

#: verb -> (help, runner, arguments before the common flags)
_VERBS = {
    "eval": ("evaluate an expression", _run_eval,
             [_EXPRESSION, _arg("--at", default=None, help="evaluation point (expression)")]),
    "der": ("quotient derivative at a point", _run_der, [_EXPRESSION, _AT_ZERO]),
    "permeate": ("derivative report with permeation", _run_der, [_EXPRESSION, _AT_ZERO]),
    "continuity": ("graded (k,n) continuity check", _run_continuity,
                   [_EXPRESSION, _AT_ZERO, _arg("--k", type=int, default=0),
                    _arg("--n", type=int, default=0)]),
    "converge": ("sequence convergence checks", _run_converge,
                 [_arg("mode", choices=("cc", "hc", "rc", "cauchy")),
                  _arg("--seq", required=True, help="term expression in n"),
                  _arg("--limit", default="0"),
                  _arg("--radius", action="append", default=None,
                       help="radius expression (repeatable; hc and cauchy)"),
                  _arg("--terms", type=int, default=24),
                  _arg("--indices", type=int, default=16)]),
    "classify": ("infinitesimal / appreciable / infinite", _run_classify, [_EXPRESSION]),
    "inverse": ("multiplicative inverse", _run_inverse,
                [_EXPRESSION, _arg("--at", default=None)]),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process from `_VERBS`."""
    ap = _ArgumentParser(
        prog="rzl",
        description="exact arithmetic with infinitesimal and infinite parts",
        epilog=_DASH_HINT)
    subs = ap.add_subparsers(dest="command")
    for name, (help_text, run, arguments) in _VERBS.items():
        p = subs.add_parser(name, help=help_text)
        for flags, options in arguments:
            p.add_argument(*flags, **options)
        p.add_argument("--depth", type=int, default=DEFAULT_DEPTH)
        p.add_argument("--eps-digits", type=int, default=DEFAULT_EPS_DIGITS)
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--grossone", action="store_true",
                       help="echo the infinite unit as the circled-one symbol")
        p.set_defaults(run=run)
    return ap


def _repl() -> int:
    print("rzl calculator; expressions in x, eps, w; :q quits", file=sys.stderr)
    while True:
        try:
            line = input("rzl> ")
        except EOFError:
            return 0
        line = line.strip()
        if not line:
            continue
        if line in (":q", ":quit", "quit", "exit"):
            return 0
        try:
            print(render(_value_from(line, None, DEFAULT_DEPTH)[1]))
        except _ERRORS as exc:
            print(f"error: {_message(exc)}", file=sys.stderr)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command is None:
        return _repl()
    try:
        if args.depth < 1:
            raise ValueError("depth must be a positive integer")
        report, lines, code = args.run(args)
    except _ERRORS as exc:
        if args.format == "json":
            print(json.dumps({"command": args.command, "error": _message(exc)}))
        else:
            print(f"error: {_message(exc)}", file=sys.stderr)
        return 1
    print(json.dumps(report) if args.format == "json" else "\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
