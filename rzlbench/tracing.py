"""Spans and counters around rzl's layer entry points, installed from outside.

`install` rebinds the public entry points of each layer, in every ``rzl``
module that holds them, to wrappers that record a span (name, start, end,
parent) and count calls.  Streams returned by the kernels (`*`, `inverse`,
`transcendental`) get their coefficient function wrapped too, so forcing a
coefficient later is charged to the kernel that built the stream.  Self time
is a span's duration minus the time its child spans cover; it is summed per
span name while the run goes, and the raw spans are kept up to a cap.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

#: Span names whose self time is charged to the kernel of a stream.
KERNELS = ("number.mul", "number.inverse", "calculus.transcendental")


class Tracer:
    def __init__(self, span_cap: int = 100_000):
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.active = Counter()      # open spans per name
        self.max_precision = 0
        self.spans = []              # (id, name, start, end, parent id)
        self.span_cap = span_cap
        self._stack = []             # [id, time covered by children]
        self._ids = 0

    def wrap(self, name: str, fn, on_enter=None):
        stack, self_s, calls, active = self._stack, self.self_s, self.calls, self.active
        spans, cap = self.spans, self.span_cap

        def traced(*args, **kwargs):
            if on_enter is not None:
                on_enter()
            sid = self._ids = self._ids + 1
            parent = stack[-1][0] if stack else 0
            frame = [sid, 0.0]
            stack.append(frame)
            active[name] += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                active[name] -= 1
                stack.pop()
                dur = t1 - t0
                self_s[name] += dur - frame[1]
                calls[name] += 1
                if stack:
                    stack[-1][1] += dur
                if len(spans) < cap:
                    spans.append((sid, name, t0, t1, parent))

        return traced

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent"],
                       "dropped_after": self.span_cap, "spans": self.spans}, fh)


def _rebind(old, new) -> None:
    """Point every rzl module attribute or class attribute bound to `old` at `new`."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "rzl" and not mod_name.startswith("rzl."):
            continue
        for key, val in list(vars(mod).items()):
            if val is old:
                setattr(mod, key, new)
            elif isinstance(val, type) and val.__module__.startswith("rzl"):
                for attr, member in list(vars(val).items()):
                    if member is old:
                        setattr(val, attr, new)


def install(tracer: Tracer) -> None:
    # the package re-exports the function render under the submodule's name
    calculus, cli, continuity, convergence, number, order, parser, render = (
        importlib.import_module(f"rzl.{m}") for m in (
            "calculus", "cli", "continuity", "convergence", "number", "order", "parser",
            "render"))
    from rzl.number import RzlNumber
    from rzl.scalar import CompReal

    t, counts = tracer, tracer.counts

    # scalar: CompReal approximations (a span only when not memoized)
    approx = CompReal.approx
    approx_span = t.wrap("scalar.creal", approx)

    def traced_approx(self, n):
        counts["scalar.creal_approx_calls"] += 1
        if n > t.max_precision:
            t.max_precision = n
        if n in self._memo:
            return approx(self, n)
        return approx_span(self, n)

    _rebind(approx, traced_approx)
    bracket = CompReal.bracket

    def counted_bracket(self, n):
        counts["scalar.sign_bracket_calls"] += 1
        return bracket(self, n)

    _rebind(bracket, counted_bracket)

    # number: coefficient requests and memo use
    getitem = RzlNumber.__getitem__

    def counted_getitem(self, i):
        counts["number.coeff_requests"] += 1
        memo = self._memo
        if i in memo:
            counts["number.memo_hits"] += 1
            return getitem(self, i)
        before = len(memo)
        value = getitem(self, i)
        if len(memo) > before:
            counts["number.coeff_computed"] += 1
        return value

    _rebind(getitem, counted_getitem)

    # stream kernels: construction and every coefficient they compute
    def kernel(name, fn):
        def build(*args, **kwargs):
            res = fn(*args, **kwargs)
            if isinstance(res, RzlNumber):
                res._fn = t.wrap(name, res._fn)
            return res
        _rebind(fn, t.wrap(name, build))

    kernel("number.mul", RzlNumber.__mul__)
    kernel("number.inverse", number.inverse)
    kernel("calculus.transcendental", calculus.transcendental)

    def spans(name, *fns, on_enter=None):
        for fn in fns:
            _rebind(fn, t.wrap(name, fn, on_enter))

    spans("order.leading_index", number.leading_index)
    for fname in ("sign_of", "lex_less", "within_radius", "abs_val", "classify"):
        spans(f"order.{fname}", getattr(order, fname))

    def on_evaluate():
        if t.active["continuity"]:
            counts["continuity.evaluate_calls"] += 1

    def on_continuity():
        if not t.active["continuity"]:
            counts["continuity.queries"] += 1

    spans("calculus.evaluate", calculus.evaluate, on_enter=on_evaluate)
    spans("calculus.permeate", calculus.permeate)
    spans("continuity", continuity.check_kn_continuity, continuity.check_kn_grid,
          continuity.check_ed, continuity.check_ed_class, on_enter=on_continuity)
    spans("convergence", convergence.cc_check, convergence.hc_check, convergence.rc_check,
          convergence.hyper_cauchy_check, convergence.cc_from_hc)
    call = convergence.RzlSequence.__call__

    def counted_call(self, n):
        counts["convergence.terms_built"] += 1
        return call(self, n)

    _rebind(call, counted_call)
    spans("parser.parse", parser.parse, parser.parse_sequence)
    spans("render.render", render.render, render.render_number)
    spans("cli.main", cli.main)


def layer_metrics(tracer: Tracer, passes: int) -> dict:
    """Per-pass layer figures from the traced passes."""
    s, c, n = tracer.self_s, tracer.counts, tracer.calls
    hits, computed = c["number.memo_hits"], c["number.coeff_computed"]
    queries = c["continuity.queries"]
    per_pass = {
        "scalar.creal_approx_calls": c["scalar.creal_approx_calls"],
        "scalar.creal_self_s": s["scalar.creal"],
        "scalar.sign_bracket_calls": c["scalar.sign_bracket_calls"],
        "number.coeff_requests": c["number.coeff_requests"],
        "number.coeff_computed": computed,
        "number.mul_self_s": s["number.mul"],
        "number.inverse_self_s": s["number.inverse"],
        "number.leading_index_calls": n["order.leading_index"],
        "calculus.transcendental_self_s": s["calculus.transcendental"],
        "calculus.evaluate_calls": n["calculus.evaluate"],
        "calculus.evaluate_self_s": s["calculus.evaluate"],
        "calculus.permeate_self_s": s["calculus.permeate"],
        "order.leading_index_self_s": s["order.leading_index"],
        "order.lex_less_calls": n["order.lex_less"],
        "order.within_radius_calls": n["order.within_radius"],
        "continuity.self_s": s["continuity"],
        "convergence.self_s": s["convergence"],
        "convergence.terms_built": c["convergence.terms_built"],
        "parser.parse_self_s": s["parser.parse"],
        "render.render_self_s": s["render.render"],
        "cli.main_self_s": s["cli.main"],
    }
    out = {k: v / passes for k, v in per_pass.items()}
    out["scalar.creal_max_precision_bits"] = tracer.max_precision.bit_length()
    out["number.memo_hit_ratio"] = hits / (hits + computed) if hits + computed else 0.0
    out["continuity.evaluate_per_query"] = \
        c["continuity.evaluate_calls"] / queries if queries else 0.0
    return out
