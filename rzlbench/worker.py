"""Times rzl on one workload's query list; run by run.py in a fresh process.

The process imports rzl and the benchmark's own modules only, so its peak
memory is rzl's.  It runs whole passes over the query list, closed loop and
one query at a time, until the time is up, and prints one JSON document:
per-query latencies of every pass, the answers of the first pass (for the
parent to check against its oracles), the queries whose answer changed in a
later pass, peak memory, and with tracing the per-layer figures.

    python3 worker.py --src SRC --workload W --seed N --seconds S --trace 0|1 [--spans FILE]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import operator
import resource
import statistics
import sys
from fractions import Fraction
from functools import reduce
from time import perf_counter

import tracing as tr
import workloads as wl

RENDER_PRECISION = 10 ** 7   # what scalar_str asks of a CompReal


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()
    sys.path.insert(0, args.src)
    runner = Runner()
    queries = wl.build(args.workload, args.seed)

    passes, first, changed = [], None, []

    def run_passes(until, traced, wrap=None):
        nonlocal first
        while True:
            lat, answers = runner.run_pass(queries, wrap)
            passes.append({"traced": traced, "lat": lat})
            if first is None:
                first = answers
            else:
                changed.extend(q.id for q in queries if answers[q.id] != first[q.id])
            if perf_counter() >= until:
                return

    start = perf_counter()
    doc = {}
    if args.trace:
        run_passes(start + args.seconds / 2, traced=False)
        tracer = tr.Tracer()
        tr.install(tracer)
        query_span = tracer.wrap("bench.query", runner.run)
        run_passes(start + args.seconds, traced=True, wrap=query_span)
        traced = [p for p in passes if p["traced"]]
        doc["layers"] = tr.layer_metrics(tracer, len(traced))
        doc["layers"].update(k_sweep(runner, tracer, args.seed))
        wall = {flag: statistics.median(sum(p["lat"]) for p in passes if p["traced"] == flag)
                for flag in (False, True)}
        doc["layers"]["trace.overhead_s"] = wall[True] - wall[False]
        if args.spans:
            tracer.write_spans(args.spans)
    else:
        run_passes(start + args.seconds, traced=False)
    doc.update(passes=passes, answers={str(k): v for k, v in first.items()},
               changed=sorted(set(changed)),
               peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    sys.stdout.write(json.dumps(doc) + "\n")
    return 0


def k_sweep(runner, tracer, seed) -> dict:
    """Self time of each kernel per K on the single-kernel queries, and the
    log-log slope of self time over K."""
    out = {}
    per_k = {name: [] for name in tr.KERNELS}
    for K in wl.SWEEP_K:
        before = {name: tracer.self_s[name] for name in tr.KERNELS}
        for q in wl.sweep(seed):
            if q.K == K:
                runner.run(q)
        for name in tr.KERNELS:
            t = tracer.self_s[name] - before[name]
            per_k[name].append(t)
            out[f"{name}_self_s.K{K}"] = t
    xs = [math.log(K) for K in wl.SWEEP_K]
    for name, ts in per_k.items():
        ys = [math.log(max(t, 1e-9)) for t in ts]
        mx, my = statistics.fmean(xs), statistics.fmean(ys)
        slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / \
            sum((x - mx) ** 2 for x in xs)
        out[f"{name}_k_exp"] = slope
    return out


class Runner:
    """Runs queries against rzl; `run` is the timed part, `answer` turns the
    result into plain comparable data outside the timed part."""

    def __init__(self):
        import rzl.calculus
        import rzl.cli
        import rzl.continuity
        import rzl.convergence
        import rzl.expr
        import rzl.number
        import rzl.parser
        import rzl.scalar
        self.rzl = rzl

    def run_pass(self, queries, wrap=None):
        run = wrap or self.run
        lat, answers = [], {}
        for q in queries:
            t0 = perf_counter()
            try:
                res, err = run(q), None
            except Exception as exc:   # a failed query is recorded, the pass goes on
                res, err = None, f"{type(exc).__name__}: {str(exc)[:160]}"
            lat.append(perf_counter() - t0)
            answers[q.id] = {"error": err} if err else self.answer(q, res)
        return lat, answers

    def run(self, q):
        if q.kind == "series":
            return self.run_series(q)
        if q.kind == "cli":
            return self.run_cli(q)
        return self.run_lib(q)

    # -- series ---------------------------------------------------------------

    def stream(self, t):
        r = self.rzl
        op = t[0]
        if op == "eps":
            return r.number.epsilon()
        if op == "q":
            return r.number.from_rational(t[1])
        if op == "poly":
            return r.number.from_coefficients(0, t[1])
        if op == "chain":
            return reduce(operator.add, [r.number.epsilon() for _ in range(t[1])])
        if op == "add":
            return self.stream(t[1]) + self.stream(t[2])
        if op == "sub":
            return self.stream(t[1]) - self.stream(t[2])
        if op == "mul":
            return self.stream(t[1]) * self.stream(t[2])
        if op == "pow":
            return self.stream(t[1]) ** t[2]
        if op == "inv":
            return r.number.inverse(self.stream(t[1]))
        return r.calculus.transcendental(op, self.stream(t[1]))

    def run_series(self, q):
        outs = [self.stream(t) for t in q.outs]
        if q.render:
            scalar_str = self.rzl.scalar.scalar_str
            for x in outs:
                for i in range(q.K):
                    scalar_str(x[i])
        else:
            for x in outs:
                for i in range(q.K):
                    x[i]
        return outs

    # -- CLI and checkers -----------------------------------------------------------

    def run_cli(self, q):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.rzl.cli.main(list(q.argv))
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue()

    def expr(self, spec):
        parse = self.rzl.parser.parse
        if isinstance(spec, str):
            return parse(spec)
        return self.rzl.expr.PiecewiseSt(spec["op"], spec["bound"], parse(spec["then"]),
                                         parse(spec["else"]))

    def run_lib(self, q):
        r, a = self.rzl, q.args
        if q.call in ("cc", "hc", "rc", "cauchy"):
            seq = r.convergence.RzlSequence(r.parser.parse_sequence(a["seq"]), a["seq"])
            limit = r.number.from_rational(a["limit"])
            radii = [r.number.epsilon()]
            if q.call == "cc":
                return r.convergence.cc_check(seq, limit)
            if q.call == "hc":
                return r.convergence.hc_check(seq, limit, radii)
            if q.call == "rc":
                return r.convergence.rc_check(seq, limit)
            return r.convergence.hyper_cauchy_check(seq, radii)
        f, point = self.expr(a["f"]), r.number.from_rational(a["point"])
        if q.call == "grid":
            return r.continuity.check_kn_grid(f, point, 2, 2)
        if q.call == "ed":
            return r.continuity.check_ed(f, point)
        if q.call == "ed_class":
            return r.continuity.check_ed_class(f, point)
        return r.calculus.permeate(f, point)

    # -- answers ----------------------------------------------------------------------

    def scalar(self, v):
        """An exact rational as "p/q", a CompReal as ["~", its approximation
        at the rendering precision]."""
        if self.rzl.scalar.is_rational_scalar(v):
            return str(Fraction(v))
        return ["~", str(v.approx(RENDER_PRECISION))]

    def answer(self, q, res):
        if q.kind == "series":
            if q.render:
                scalar_str = self.rzl.scalar.scalar_str
                return {"outs": [[[scalar_str(x[i]), self.scalar(x[i])] for i in range(q.K)]
                                 for x in res]}
            return {"outs": [[self.scalar(x[i]) for i in range(q.K)] for x in res]}
        if q.kind == "cli":
            return {"exit": res[0], "stdout": res[1]}
        if q.call == "grid":
            return {"grid": {f"{k},{n}": v.state.value for (k, n), v in res.items()}}
        if q.call == "permeate":
            return {"state": res.in_e.state.value, "standard_part": self.scalar(res.standard_part),
                    "permeated": None if res.permeated is None else self.scalar(res.permeated)}
        return {"state": res.state.value}


if __name__ == "__main__":
    sys.exit(main())
