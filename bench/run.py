"""Benchmark of the zinbiel library: one workload, one run.

    python3 bench/run.py --workload {paper,check,solve} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from
./src.  Each workload is a closed loop with one client that issues whole
rounds of requests (see workloads.py) until at least S seconds have been
spent inside requests.  Every answer is checked by an independent route,
outside the timed region.

Shared machines change speed.  On a 2-vCPU shared VM a fixed piece of
Fraction arithmetic took 8.5 ms or 14.5 ms for seconds at a time, and the
two vCPUs did not slow down together; so the speed has to be measured on
the benchmark's own CPU, during each timed piece.  `probe` is a fixed
pure-Python Fraction kernel that does not touch the library.  It runs
before and after every request and every set-up, and every SAMPLE_S
seconds during it from a SIGALRM handler whose time is taken off the
piece.  A piece's time t is reported scaled to a machine on which the
probe takes PROBE_S: t * PROBE_S / (mean of the probe times).  The
unscaled figures are printed too.

Each request fills a slot of its round (see workloads.py), and a run makes
at least MIN_ROUNDS rounds.  The typical round holds each slot's median
scaled latency across rounds: ops_per_s is its number of requests over its
total time, latency_p50_ms and latency_p90_ms are its percentiles (linear
interpolation between order statistics, as numpy.percentile does), so
that one slow stretch of the machine moves no figure.  setup_s is the
median scaled time of one set-up before the first round and one after
each round.

--trace 0 prints the end-to-end metrics, --trace 1 runs round 0 in
alternating untraced and traced passes for about S seconds, writes the
spans to .bench_run/ and prints the per-layer metrics, whose times are
not scaled.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the lines before it
give the same figures for a reader, with the error rate and a digest of
every request's output.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_ROUNDS = 3
PROBE_S = 0.003
SAMPLE_S = 0.1
_PROBE_V = tuple(Fraction(i % 7 - 3, 1 + i % 4) for i in range(12))

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

# Per-layer metrics read from the traced spans: (metric, span name, stat).
SPAN_STATS = (
    ("exactlin.rref.calls", "exactlin.rref", "calls"),
    ("exactlin.rref.self_s", "exactlin.rref", "self"),
    ("exactlin.nullspace.total_s", "exactlin.nullspace", "total"),
    ("exactlin.poly_expand_quadratic.total_s", "exactlin.poly_expand_quadratic", "total"),
    ("exactlin.inverse.total_s", "exactlin.inverse", "total"),
    ("core.condition_over_tuples.calls", "core.condition_over_tuples", "calls"),
    ("core.condition_over_tuples.self_s", "core.condition_over_tuples", "self"),
    ("core.is_zinbiel.total_s", "core.is_zinbiel", "total"),
    ("extending.verify_datum.total_s", "extending.verify_datum", "total"),
    ("extending.verify_datum.self_s", "extending.verify_datum", "self"),
    ("extending.build_unified.total_s", "extending.build_unified", "total"),
    ("extending.extract_datum.total_s", "extending.extract_datum", "total"),
    ("extending.datums_equivalent.total_s", "extending.datums_equivalent", "total"),
    ("products.crossed.total_s", "products.crossed", "total"),
    ("products.bicrossed.total_s", "products.bicrossed", "total"),
    ("products.is_bimodule.total_s", "products.is_bimodule", "total"),
    ("products.semidirect.total_s", "products.semidirect", "total"),
    ("products.search_deformation_maps.total_s", "products.search_deformation_maps", "total"),
    ("flag.solve_reduced.total_s", "flag.solve_reduced", "total"),
    ("flag.solve_reduced.self_s", "flag.solve_reduced", "self"),
    ("flag.verify_flag.total_s", "flag.verify_flag", "total"),
    ("flag.flag_equivalent.total_s", "flag.flag_equivalent", "total"),
    ("catalog.get_flag_datum.total_s", "catalog.get_flag_datum", "total"),
    ("jsonio.datum_from_json.total_s", "jsonio.datum_from_json", "total"),
    ("jsonio.algebra_from_json.total_s", "jsonio.algebra_from_json", "total"),
    ("jsonio.report_to_json.total_s", "jsonio.report_to_json", "total"),
    ("jsonio.family_to_json.total_s", "jsonio.family_to_json", "total"),
    ("jsonio.dumps.total_s", "jsonio.dumps", "total"),
    ("cli.run.self_s", "cli.run", "self"),
)

# Per-layer counts kept by the tracer's count wrappers.
COUNT_STATS = (
    ("exactlin.Tensor3.combine.calls", "exactlin.Tensor3.combine"),
    ("exactlin.vunit.calls", "exactlin.vunit"),
    ("exactlin.Matrix.apply.calls", "exactlin.Matrix.apply"),
    ("exactlin.rref.cells", "exactlin.rref.cells"),
    ("core.condition_over_tuples.tuples", "core.condition_over_tuples.tuples"),
    ("core.condition_over_tuples.failed", "core.condition_over_tuples.failed"),
    ("products.is_deformation_map.calls", "products.is_deformation_map"),
    ("catalog.get_base_algebra.calls", "catalog.get_base_algebra"),
)

OTHER_STATS = (
    ("extending.verify_over_oracle", "ratio"),
    ("jsonio.bytes_in", "bytes"),
    *((f"acceptance.c{c}.s", "s") for c in range(1, 11)),
    ("trace.overhead_frac", "ratio"),
)


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name, _, stat in SPAN_STATS:
        units[name] = "count" if stat == "calls" else "s"
    for name, _ in COUNT_STATS:
        units[name] = "count"
    units.update(OTHER_STATS)
    return units


# -- set-up ------------------------------------------------------------------

def _ours(key):
    return key in ("zinbiel", "workloads") or key.startswith("zinbiel.")


def load(workload, seed, workdir, keep=True):
    """Import zinbiel afresh and make the workload's first round; returns
    (seconds taken, workload object).  With keep false the modules
    imported before are put back afterwards."""
    saved = {k: sys.modules.pop(k) for k in list(sys.modules) if _ours(k)}
    start = time.perf_counter()
    wl = importlib.import_module("workloads").WORKLOADS[workload](seed, workdir)
    seconds = time.perf_counter() - start
    if not keep:
        for k in [k for k in sys.modules if _ours(k)]:
            del sys.modules[k]
        sys.modules.update(saved)
    return seconds, wl


# -- running requests -----------------------------------------------------------

class Outcomes:
    """Counts, failures and the output digest of the requests run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.digest = hashlib.sha256()
        self.round0_digest = None

    def record(self, req, result):
        self.attempted += 1
        code, out = result
        self.digest.update(f"{req.key}\n{code}\n{out}\n".encode())
        try:
            ok = code is not None and req.check(code, out)
        except Exception as exc:  # a malformed answer is a failed request
            ok, out = False, f"check raised {type(exc).__name__}: {exc}"
        if not ok:
            self.failed += 1
            self.errors.append(f"{req.key}: exit {code}: {out[:300]}")
        return ok


def probe():
    """Seconds taken by a fixed piece of Fraction arithmetic."""
    start = time.perf_counter()
    acc = Fraction(0)
    v = _PROBE_V
    for _ in range(32):
        for x in tuple(a * b + c for a, b, c in zip(v, v[1:] + v[:1], v[2:] + v[:2])):
            if x != 0:
                acc += x
    return time.perf_counter() - start


class Speed:
    """Times pieces of work and scales them to the probe speed.  While
    entered, a SIGALRM handler runs `probe` every SAMPLE_S seconds."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0           # seconds inside the handler
        self._probing = False

    def _tick(self, signum, frame):
        if self._probing:
            return
        start = time.perf_counter()
        self.samples.append(probe())
        self.spent += time.perf_counter() - start

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False

    def _probe(self):
        self._probing = True
        try:
            return probe()
        finally:
            self._probing = False

    def scaled(self, fn):
        """Run fn(); returns (raw seconds, seconds scaled to the probe
        speed, result)."""
        before = self._probe()
        n, spent = len(self.samples), self.spent
        start = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - start - (self.spent - spent)
        speeds = [before, self._probe(), *self.samples[n:]]
        return raw, raw * PROBE_S * len(speeds) / sum(speeds), result


def execute(req):
    """Run one request; an exception is a failed request, not a crash."""
    try:
        return req.call()
    except Exception as exc:
        return None, f"{type(exc).__name__}: {exc}"


def run_timed(wl, seconds, setup, speed):
    """Whole rounds until `seconds` are spent inside requests and at least
    MIN_ROUNDS are done, with one scaled call of `setup` after each round.
    Returns the outcomes, the scaled latencies by slot,
    the raw latencies, the rounds run and the scaled set-up times."""
    out = Outcomes()
    by_slot = defaultdict(list)
    raw_lat, setups = [], []
    r = 0
    while sum(raw_lat) < seconds or r < MIN_ROUNDS:
        for req in wl.round(r):
            raw, dt, result = speed.scaled(lambda: execute(req))
            raw_lat.append(raw)
            by_slot[req.slot].append(dt)
            out.record(req, result)
        if r == 0:
            out.round0_digest = out.digest.hexdigest()
        r += 1
        setups.append(speed.scaled(setup)[1])
    return out, by_slot, raw_lat, r, setups


def run_traced(wl, seconds, tracer):
    """Round 0 in alternating untraced and traced passes.  Returns the
    per-layer metrics and the outcomes of every pass."""
    reqs = wl.round(0)
    out = Outcomes()
    untraced_walls, traced_walls = [], []
    by_slot = defaultdict(list)
    span_stats, count_sets = [], []
    start = time.perf_counter()
    while not traced_walls or time.perf_counter() - start < seconds:
        wall = 0.0
        outputs = []
        for req in reqs:
            t0 = time.perf_counter()
            result = execute(req)
            dt = time.perf_counter() - t0
            wall += dt
            by_slot[req.slot].append(dt)
            outputs.append(result)
            out.record(req, result)
        untraced_walls.append(wall)

        lo, before = len(tracer.spans), dict(tracer.counts)
        traced = []
        t0 = time.perf_counter()
        with tracer:
            for req in reqs:
                idx = tracer.begin("request")
                traced.append(execute(req))
                tracer.end(idx)
        traced_walls.append(time.perf_counter() - t0)
        for req, result, plain in zip(reqs, traced, outputs):
            if result != plain:
                out.failed += 1
                out.errors.append(f"{req.key}: traced output differs from untraced")
        span_stats.append(tracer.summary(lo))
        count_sets.append({k: v - before.get(k, 0) for k, v in tracer.counts.items()
                           if v != before.get(k, 0)})
    if any(c != count_sets[0] for c in count_sets):
        out.failed += 1
        out.errors.append("traced counts differ between identical passes")

    metrics = {}
    for name, span, stat in SPAN_STATS:
        pos = {"calls": 0, "total": 1, "self": 2}[stat]
        vals = [s.get(span, (0, 0.0, 0.0))[pos] for s in span_stats]
        metrics[name] = vals[0] if stat == "calls" else statistics.median(vals)
    for name, key in COUNT_STATS:
        metrics[name] = count_sets[0].get(key, 0)
    metrics["extending.verify_over_oracle"] = verify_over_oracle(reqs)
    metrics["jsonio.bytes_in"] = sum(req.bytes_in for req in reqs)
    for c in range(1, 11):
        times = by_slot.get(f"c={c}")
        metrics[f"acceptance.c{c}.s"] = statistics.median(times) if times else 0.0
    metrics["trace.overhead_frac"] = (statistics.median(traced_walls)
                                      / statistics.median(untraced_walls) - 1)
    return metrics, out, len(traced_walls)


def verify_over_oracle(reqs):
    """Time of verify_datum over time of is_zinbiel(build_unified(d, force=True))
    on the round's datums, both untraced; 0 when the round has none."""
    datums = [req.datum for req in reqs if req.datum is not None]
    if not datums:
        return 0.0
    oracle = sys.modules["workloads"].oracle
    verify_datum = sys.modules["zinbiel.extending"].verify_datum
    start = time.perf_counter()
    for d in datums:
        verify_datum(d)
    direct = time.perf_counter() - start
    start = time.perf_counter()
    for d in datums:
        oracle(d)
    return direct / (time.perf_counter() - start)


# -- report -----------------------------------------------------------------------

def report(metrics, units, out, lines):
    for line in lines:
        print(line)
    for name, value in metrics.items():
        print(f"  {name:44s} {value:>16.6g} {units[name]}")
    print(f"  {'error_rate':44s} {out.failed / out.attempted:>16.6g} (failed/attempted)")
    for err in out.errors[:10]:
        print(f"error: {err}")
    print(json.dumps({
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("paper", "check", "solve"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "zinbiel" / "__init__.py").is_file():
        print(f"error: no library source at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = ROOT / ".bench_run" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir):
    head = [f"workload {args.workload}  seed {args.seed}  closed loop, 1 client"]
    if args.trace:
        _, wl = load(args.workload, args.seed, workdir)
        tracer = Tracer()
        metrics, out, passes = run_traced(wl, args.seconds, tracer)
        trace_path = ROOT / ".bench_run" / f"trace-{args.workload}-{args.seed}.tsv"
        tracer.write(trace_path)
        head.append(f"traced round 0 in {passes} traced + {passes} untraced passes; "
                    f"{len(tracer.spans)} spans written to {trace_path.relative_to(ROOT)}")
        report(metrics, per_layer_units(), out, head)
        return 0

    with Speed() as speed:
        _, first_setup, (_, wl) = speed.scaled(lambda: load(args.workload, args.seed, workdir))
        out, by_slot, raw, rounds, setups = run_timed(
            wl, args.seconds, lambda: load(args.workload, args.seed, workdir, keep=False),
            speed)
    setups.insert(0, first_setup)
    typical = [statistics.median(v) for v in by_slot.values()]
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(typical) / sum(typical),
        "latency_p50_ms": statistics.median(typical) * 1000,
        "latency_p90_ms": statistics.quantiles(typical, n=10, method="inclusive")[8] * 1000,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    head += [
        f"{len(raw)} requests in {rounds} rounds of {len(typical)} slots; "
        f"{len(speed.samples)} probe samples, median {statistics.median(speed.samples) * 1000:.3f} ms "
        f"(scaled to {PROBE_S * 1000:g} ms)",
        f"unscaled: {sum(raw):.3f} s inside requests, {len(raw) / sum(raw):.4f} "
        f"requests/s, p50 {statistics.median(raw) * 1000:.3f} ms, "
        f"p90 {statistics.quantiles(raw, n=10, method='inclusive')[8] * 1000:.3f} ms",
        f"scaled set-ups (s): {', '.join(f'{s:.4f}' for s in setups)}",
        f"round 0 output digest sha256:{out.round0_digest}",
        f"run output digest     sha256:{out.digest.hexdigest()}",
    ]
    report(metrics, dict(END_TO_END), out, head)
    return 0


if __name__ == "__main__":
    sys.exit(main())
