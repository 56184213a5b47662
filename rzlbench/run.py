"""rzl benchmark: one workload, one seed, one JSON line of metrics.

    python3 rzlbench/run.py --workload series-exact --seed 1 --seconds 20 --trace 0

Run from the root of a source tree holding ``src/rzl`` and BENCHMARK.json.
The run measures set-up (fresh interpreters importing ``rzl.cli``), builds
the seeded query list, times it in a worker process (worker.py) for the
given seconds, checks every answer against oracles that do not use rzl
(oracle.py), and prints, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end metrics of BENCHMARK.json, with ``--trace 1``
its per-layer metrics.  A result that does not match BENCHMARK.json is not
printed; the run exits with status 2 instead.  README.md defines every
metric.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracle            # noqa: E402
import workloads as wl   # noqa: E402

SETUP_RUNS = 14          # fresh interpreters timed for setup_s
IMPORTTIME_RUNS = 5      # fresh interpreters read for setup.import_ms.*
WORKER_TIMEOUT = 150     # seconds; a run must end within 180


class BenchError(Exception):
    """The benchmark cannot run here or produced a malformed result."""


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        spec = load_spec(ROOT / "BENCHMARK.json")
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            raise BenchError(f"unknown workload {args.workload!r}")
        src = ROOT / "src"
        if not (src / "rzl" / "__init__.py").is_file():
            raise BenchError(f"no rzl sources under {src}")
        result = run(args, spec, src)
        self_check(result, spec, args.trace)
    except BenchError as exc:
        print(f"rzlbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


def run(args, spec, src: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    metrics = {}
    setup_cmd = [sys.executable, "-c", "import rzl.cli"]
    subprocess.run(setup_cmd, env=env, check=True, timeout=60)   # warm the bytecode cache
    if args.trace:
        metrics.update(import_ms(env, spec))
    else:   # timed before and after the worker: the machine's speed drifts
        setup = launch_times(setup_cmd, env, SETUP_RUNS // 2)   # over tens of seconds
    queries = wl.build(args.workload, args.seed)
    bad_families = oracle.sympy_check(queries)
    doc = run_worker(args, src, env)
    if not args.trace:
        setup += launch_times(setup_cmd, env, SETUP_RUNS - SETUP_RUNS // 2)
        metrics["setup_s"] = statistics.median(setup)
    checks = {q.id: oracle.check(q, doc["answers"][str(q.id)]) for q in queries}
    for qid in doc["changed"]:
        checks[qid].fail("answer changed between passes")
    for q in queries:
        if q.kind == "series" and q.family in bad_families:
            checks[q.id].fail("evaluator disagrees with sympy")

    passes = doc["passes"]
    lat = [t for p in passes for t in p["lat"]]
    failing = [q for q in queries if not checks[q.id].ok]
    attempted = len(lat)
    failed = len(failing) * len(passes)
    correct = all(q.known_defect for q in failing)
    for q in failing:
        tag = f" (known defect {q.known_defect}: {wl.KNOWN_DEFECTS[q.known_defect]})" \
            if q.known_defect else ""
        print(f"rzlbench: query {q.id} {q.family} failed: {checks[q.id].why}{tag}",
              file=sys.stderr)
    if args.trace:
        metrics.update(doc["layers"])
    else:
        wall = statistics.median(sum(p["lat"]) for p in passes)
        verdicts = sum(c.verdicts for c in checks.values())
        decided = sum(c.decided for c in checks.values())
        if verdicts == 0:   # value-only workloads: a query answered in full
            verdicts, decided = len(queries), len(queries) - len(failing)
        metrics.update({
            "wall_s": wall,
            "ops_per_s": len(queries) / wall,
            "query_p50_ms": 1e3 * statistics.median(lat),
            "query_p90_ms": 1e3 * statistics.quantiles(lat, n=10)[8],
            "coeffs_per_s": sum(c.coeffs for c in checks.values() if c.ok) / wall,
            "decided_frac": decided / verdicts,
            "failed_frac": failed / attempted,
            "peak_rss_mb": doc["peak_rss_mb"],
        })
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": units.get(name, "?")}
                        for name, value in metrics.items()}}


def launch_times(cmd, env, runs: int) -> list[float]:
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return times


def import_ms(env, spec) -> dict:
    """Median self import time of each rzl module, from -X importtime."""
    prefix = "setup.import_ms."
    modules = [m["name"][len(prefix):] for m in spec["per_layer"]
               if m["name"].startswith(prefix)]
    samples = {m: [] for m in modules}
    cmd = [sys.executable, "-X", "importtime", "-c", "import rzl.cli"]
    for _ in range(IMPORTTIME_RUNS):
        out = subprocess.run(cmd, env=env, check=True, timeout=60, capture_output=True,
                             text=True).stderr
        seen = {}
        for line in out.splitlines():
            m = re.match(r"import time:\s+(\d+) \|\s+\d+ \|\s+(\S+)\s*$", line)
            if m:
                seen[m.group(2)] = int(m.group(1)) / 1000
        for mod in modules:   # a module no longer imported costs nothing
            samples[mod].append(seen.get(mod, 0.0))
    return {prefix + mod: statistics.median(v) for mod, v in samples.items()}


def run_worker(args, src: Path, env) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--src", str(src),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        out_dir = ROOT / ".bench_build" / "rzlbench"
        out_dir.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(out_dir / f"spans-{args.workload}-{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded {WORKER_TIMEOUT} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


# -- the result contract ------------------------------------------------------------------

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.\-]{1,16}")


def load_spec(path: Path) -> dict:
    """Read BENCHMARK.json and check it against the benchmark contract."""
    try:
        raw = path.read_bytes()
        spec = json.loads(raw)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from exc
    problems = []

    def need(cond, what):
        if not cond:
            problems.append(what)

    need(len(raw) <= 64 * 1024, "file larger than 64 KiB")
    need(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                       "per_layer"}, "top-level keys")
    cmd, paths = spec.get("command", []), spec.get("paths", [])
    need(1 <= len(cmd) <= 32 and all(isinstance(s, str) and len(s) <= 200 for s in cmd),
         "command")
    need(1 <= len(paths) <= 16 and all(re.fullmatch(r"[A-Za-z0-9_.\-/]{1,200}", p)
                                       and not p.startswith("/") and ".." not in p
                                       for p in paths), "paths")
    rs = spec.get("run_seconds")
    need(isinstance(rs, int) and 1 <= rs <= 60, "run_seconds")
    names = []
    works = spec.get("workloads", [])
    need(2 <= len(works) <= 8, "2 to 8 workloads")
    for w in works:
        need(set(w) == {"name", "why"} and NAME.fullmatch(w.get("name", ""))
             and 0 < len(w.get("why", "")) <= 200 and "\n" not in w.get("why", ""),
             f"workload {w.get('name')}")
        names.append(w.get("name"))
    e2e, layers = spec.get("end_to_end", []), spec.get("per_layer", [])
    need(1 <= len(e2e) <= 16 and 1 <= len(layers) <= 128, "metric counts")
    for m in e2e + layers:
        keys = {"name", "unit", "better"} | ({"bound"} if m in e2e else set())
        need(set(m) == keys and NAME.fullmatch(m.get("name", ""))
             and UNIT.fullmatch(m.get("unit", "")) and m.get("better") in ("higher", "lower"),
             f"metric {m.get('name')}")
        names.append(m.get("name"))
    for m in e2e:
        need(isinstance(m.get("bound"), (int, float)) and 0 < m["bound"] <= 0.25,
             f"bound of {m.get('name')}")
    need(any(m.get("name") == "setup_s" and m.get("unit") == "s" and m.get("better") == "lower"
             for m in e2e), "setup_s metric")
    need(len(names) == len(set(names)), "names used once")
    if problems:
        raise BenchError("BENCHMARK.json breaks the contract: " + "; ".join(problems))
    return spec


def self_check(result: dict, spec: dict, trace: int) -> None:
    """The printed line must carry exactly the declared metrics, with their units."""
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys")
    if not isinstance(result.get("correct"), bool):
        problems.append("correct is not a boolean")
    attempted, failed = result.get("attempted"), result.get("failed")
    if not (type(attempted) is int and attempted >= 1 and type(failed) is int
            and 0 <= failed <= attempted):
        problems.append("attempted / failed")
    got = result.get("metrics", {})
    missing, extra = declared.keys() - got.keys(), got.keys() - declared.keys()
    if missing or extra:
        problems.append(f"missing {sorted(missing)}, undeclared {sorted(extra)}")
    for name, m in got.items():
        if set(m) != {"value", "unit"} or m["unit"] != declared.get(name):
            problems.append(f"{name}: unit {m.get('unit')!r}")
        elif isinstance(m["value"], bool) or not isinstance(m["value"], (int, float)) \
                or not math.isfinite(m["value"]):
            problems.append(f"{name}: value {m['value']!r}")
    if problems:
        raise BenchError("result breaks the contract: " + "; ".join(problems))


if __name__ == "__main__":
    sys.exit(main())
