"""fractalhull benchmark: one workload per run, closed loop, one client.

    python3 perfbench/run.py --workload planar-exact --seed 20250809 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from its src/.
Set-up is the import of fractalhull plus the generation of the inputs.  It
runs once before the first op and again SETUP_REPEATS - 1 times, at even
intervals over the run, between two ops; setup_s is the median.  Whole
sweeps over the workload's ops, one op after the other, run while the next
sweep still fits in --seconds; light sweeps over the ops under LIGHT_S fill
what is left of the run.  Every op's output is checked (checks.py); a failed
op counts in `failed` and the run goes on.

--trace 0 prints the end-to-end metrics, every time at yardstick speed.  A
shared 2-vCPU Xeon VM switches between a fast and a slow mode (about 1.8
times slower) every few milliseconds, and for minutes at a time it is mostly
slow, so raw times, and even the fastest run of an op in a 60 s run, follow
the host.  The benchmark therefore runs a fixed pure-Python Fraction loop,
the yardstick, between every two timed ops and around every set-up, and
scales each time by YARDSTICK_S over the mean of the two yardstick runs
around it.  On that host the ratio of an op's time to the yardstick's held
within about 3 % across runs whose raw times differed by 30 %.  The
yardstick is benchmark code, so a change to the program moves the scaled
times as it moves the raw ones.  An op's latency is the median of its scaled
runs; op_ms is a percentile of those latencies over the workload's op list
(one sample per op) and sweep_s their sum, one pass over the workload.
setup_s is the median scaled set-up.  The raw median of the yardstick is
printed beside the metrics.

--trace 1 runs every op twice in a row, once untraced and once traced
(tracing.py), alternating which goes first, and prints the per-layer
metrics and the tracing overhead, the traced over the untraced op time
summed over the run.  It writes every span and one row per traced op under
perfbench/.work/<workload>/.  Metric names and units come from
BENCHMARK.json.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPEATS = 25
# Light sweeps (Run.measure) run the ops whose fastest scaled run is under this.
LIGHT_S = 0.05
# The yardstick's time on a 2.1 GHz Xeon in its fast mode: scaled times are
# seconds on a host that runs the yardstick this fast.
YARDSTICK_S = 0.0014
REFERENCE = os.path.join(HERE, "reference.json")

sys.path.insert(0, HERE)

import models  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def units():
    """{metric name: unit} of every metric BENCHMARK.json names."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def yardstick():
    """Seconds of one run of a fixed Fraction loop, the kind of work the program does."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 600):
        total += Fraction(1, i)
    return time.perf_counter() - start


def fresh_import():
    """Import fractalhull.cli from scratch; returns cli.main."""
    for name in [n for n in sys.modules if n == "fractalhull" or n.startswith("fractalhull.")]:
        del sys.modules[name]
    return importlib.import_module("fractalhull.cli").main


class Run:
    """One workload at one seed: set-up times, op results and failures."""

    def __init__(self, workload, seed, work, reference):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.reference = reference
        self.setup_times = []  # scaled seconds
        self.setup_due = []  # perf_counter times of the set-ups still to come
        self.attempted = 0
        self.failures = []  # (op id, problems)
        self.latencies = {}  # op id -> scaled seconds of its untraced runs
        self.yardsticks = [yardstick()]
        self.ops = self.setup()

    def scaled(self, seconds):
        """`seconds` at yardstick speed, from the yardstick runs just before and after."""
        before = self.yardsticks[-1]
        self.yardsticks.append(yardstick())
        return seconds * YARDSTICK_S / ((before + self.yardsticks[-1]) / 2)

    def setup(self):
        """Import plus input generation, timed; returns the ops."""
        start = time.perf_counter()
        self.cli_main = fresh_import()
        ops = workloads.build_ops(self.workload, self.seed, ROOT, self.work)
        self.setup_times.append(self.scaled(time.perf_counter() - start))
        return ops

    def run_op(self, op, tracer=None):
        """Run and check one op; returns its seconds."""
        try:
            os.remove(op.out_path)
        except FileNotFoundError:
            pass
        if tracer is None:
            elapsed, code, error = workloads.run_op(self.cli_main, op)
        else:
            with tracer:
                tracer.begin_op(op.op_id)
                elapsed, code, error = workloads.run_op(self.cli_main, op)
                tracer.end_op()
        self.attempted += 1
        problems = workloads.check_op(op, code, error, self.reference.get(op.op_id))
        if problems:
            self.failures.append((op.op_id, problems))
        return elapsed

    def sweep(self, ops):
        """One untraced pass over `ops`; keeps each op's scaled times."""
        gc.collect()  # every sweep starts from a collected heap
        for op in ops:
            elapsed = self.run_op(op)
            self.latencies.setdefault(op.op_id, []).append(self.scaled(elapsed))
            if self.setup_due and time.perf_counter() >= self.setup_due[0]:
                self.setup_due.pop(0)
                self.setup()
                gc.collect()

    def measure(self, seconds, started):
        """Untraced sweeps until `seconds` after `started`; returns (full, light) counts.

        Full sweeps run every op while the next one is predicted to end in
        time.  Light sweeps then fill the rest of the run with the ops whose
        fastest run so far is under LIGHT_S, so that the short ops, which set
        op_ms.p50, get many runs even where one full sweep takes half the run.
        """
        light_ops = None
        counts = [0, 0]
        while True:
            ops = self.ops if light_ops is None else light_ops
            begin = time.perf_counter()
            self.sweep(ops)
            counts[light_ops is not None] += 1
            last = time.perf_counter() - begin
            if time.perf_counter() - started + last <= seconds:
                continue
            if light_ops is not None:
                return tuple(counts)
            light_ops = [op for op in self.ops if min(self.latencies[op.op_id]) < LIGHT_S]
            if not light_ops:
                return tuple(counts)

    def paired_sweep(self, index, tracer):
        """One pass that runs every op untraced and traced; returns both time lists."""
        gc.collect()
        plain, traced = [], []
        for position, op in enumerate(self.ops):
            if (position + index) % 2:
                traced.append(self.run_op(op, tracer))
                plain.append(self.run_op(op))
            else:
                plain.append(self.run_op(op))
                traced.append(self.run_op(op, tracer))
        return plain, traced

    def sweeps(self, seconds, started, sweep):
        """At least one sweep, then more while the next is predicted to end in time."""
        out = []
        while True:
            begin = time.perf_counter()
            out.append(sweep(len(out)))
            last = time.perf_counter() - begin
            if time.perf_counter() - started + last > seconds:
                return out


def percentile(values, p):
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def end_to_end(latencies, setup_times):
    """End-to-end metrics from each op's latency (seconds, one per op in the list)."""
    return {
        "sweep_s": sum(latencies),
        "op_ms.p50": 1000.0 * percentile(latencies, 50),
        "op_ms.p90": 1000.0 * percentile(latencies, 90),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def write_trace(tracer, selfs, ops_rows, work):
    """Write every span and one row per op as JSON lines; returns both paths."""
    spans_path = os.path.join(work, "trace-spans.jsonl")
    with open(spans_path, "w", encoding="utf-8") as handle:
        for index, (span, self_s) in enumerate(zip(tracer.spans, selfs)):
            name, parent, op_id, start, end, _outer, attrs = span
            row = {"id": index, "name": name, "parent": parent, "op": op_id,
                   "start": start, "end": end, "self_ms": 1000.0 * self_s}
            if attrs:
                row["attrs"] = attrs
            handle.write(json.dumps(row) + "\n")
    ops_path = os.path.join(work, "trace-ops.jsonl")
    with open(ops_path, "w", encoding="utf-8") as handle:
        for row in ops_rows:
            handle.write(json.dumps(row) + "\n")
    return spans_path, ops_path


def traced_run(run, seconds, started, work):
    """Paired sweeps, each op untraced and traced.

    Returns (per-layer metrics, absent metrics with reasons, trace paths).
    """
    tracer = tracing.Tracer()
    pairs = run.sweeps(seconds, started, lambda index: run.paired_sweep(index, tracer))
    spans = tracer.spans
    selfs = tracing.self_times(spans)
    # Every traced op opens one root span; traced op k belongs to sweep k // len(ops).
    roots = [i for i, span in enumerate(spans) if span[tracing.NAME] == "op"]
    ends = roots[1:] + [len(spans)]
    ops_rows = []
    for k, (lo, hi) in enumerate(zip(roots, ends)):
        agg = tracing.aggregate(spans, selfs, lo, hi)
        layers = {}
        for name, (_needs, compute) in tracing.LAYER_METRICS.items():
            value = compute(agg)
            if value is not None:
                layers[name] = value
        root = spans[lo]
        ops_rows.append({
            "workload": run.workload, "model": root[tracing.OP], "seed": run.seed,
            "sweep": k // len(run.ops) + 1, "index": k % len(run.ops),
            "op_ms": 1000.0 * (root[tracing.END] - root[tracing.START]),
            "layers": layers,
        })
    per = len(run.ops)
    sweep_aggs = [
        tracing.aggregate(spans, selfs, roots[s * per], ends[(s + 1) * per - 1])
        for s in range(len(pairs))
    ]
    values, absent = tracing.layer_values(tracer, sweep_aggs)
    plain = sum(sum(p) for p, _ in pairs)
    traced = sum(sum(t) for _, t in pairs)
    values["trace.overhead_ratio"] = traced / plain
    return values, absent, write_trace(tracer, selfs, ops_rows, work)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=models.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "fractalhull", "cli.py")):
        print(f"error: no fractalhull sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    unit = units()
    with open(REFERENCE, encoding="utf-8") as handle:
        reference = json.load(handle)[args.workload]
    work = os.path.join(HERE, ".work", args.workload)

    run = Run(args.workload, args.seed, work, reference)
    started = time.perf_counter()
    if args.trace:
        metrics, absent, paths = traced_run(run, args.seconds, started, work)
        for name, reason in absent.items():
            print(f"absent {name}: {reason}")
        print(f"spans written to {os.path.relpath(paths[0], ROOT)}, "
              f"op rows to {os.path.relpath(paths[1], ROOT)}")
    else:
        run.setup_due = [started + args.seconds * (i + 1) / SETUP_REPEATS
                         for i in range(SETUP_REPEATS - 1)]
        full, light = run.measure(args.seconds, started)
        latencies = [statistics.median(run.latencies[op.op_id]) for op in run.ops]
        metrics = end_to_end(latencies, run.setup_times)
        print(f"{args.workload} seed {args.seed}: {full} full and {light} light sweeps, "
              f"{run.attempted} op runs; op_ms over {len(run.ops)} ops, each the median "
              f"of its runs; setup_s over {len(run.setup_times)} set-ups")
        print(f"yardstick: median {1000 * statistics.median(run.yardsticks):.4g} ms raw "
              f"over {len(run.yardsticks)} runs; times are scaled to {1000 * YARDSTICK_S:g} ms")
    failed = len(run.failures)
    for op_id, problems in run.failures[:10]:
        print(f"FAILED {op_id}: {'; '.join(problems)}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {unit[name]}")
    print(f"failed_frac {failed / run.attempted:.6g} ({failed} of {run.attempted} ops)")
    result = {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
