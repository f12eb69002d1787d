"""The four workloads as lists of ops, and how one op is run and checked.

One op is one user command run in process through fractalhull.cli.main with
its stdout and stderr captured.  The model workloads run `analyze FILE --json
OUT` on generated model files; cli-files runs `analyze --json` and `render`
(default 12 steps, RENDER_POINTS points, default sampling seed) on each
shipped models/*.json file.  The run seed shuffles the order of the ops.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import time
from dataclasses import dataclass

import checks
import models

WORKLOADS = ("planar-exact", "planar-float", "spatial-exact", "cli-files")

# cli-files renders this many sampled points instead of the default 20000.
# At 20000 a render takes about 1 s, nearly all of it float point sampling
# that no hull or decide change touches.  At 2000 it takes 0.1 to 0.2 s, its
# decide_polytope and iterate_hulls passes are a visible share of it, and a
# 30 s run holds many more runs of it.
RENDER_POINTS = 2000


@dataclass(frozen=True)
class Op:
    op_id: str
    kind: str  # "model", "analyze" or "render"
    argv: tuple
    out_path: str
    exact: bool = True


def build_ops(workload, seed, root, work):
    """Generate the workload's inputs under `work`; returns its ops in seed order."""
    os.makedirs(os.path.join(work, "out"), exist_ok=True)
    if workload == "cli-files":
        ops = _cli_ops(root, work)
    else:
        items = models.workload_models(workload)
        paths = models.write_models(items, os.path.join(work, "models"))
        exact = workload != "planar-float"
        ops = []
        for model_id, _doc in items:
            out = os.path.join(work, "out", f"{model_id}.json")
            argv = ("analyze", paths[model_id], "--json", out)
            ops.append(Op(model_id, "model", argv, out, exact))
    random.Random(seed).shuffle(ops)
    return ops


def _cli_ops(root, work):
    directory = os.path.join(root, "models")
    names = sorted(n for n in os.listdir(directory) if n.endswith(".json"))
    if not names:
        raise FileNotFoundError(f"no model files in {directory}")
    ops = []
    for name in names:
        path = os.path.join(directory, name)
        stem = name[: -len(".json")]
        with open(path, encoding="utf-8") as handle:
            exact = json.load(handle).get("arithmetic", "rational") == "rational"
        out = os.path.join(work, "out", f"{stem}.json")
        ops.append(Op(f"analyze:{name}", "analyze", ("analyze", path, "--json", out), out, exact))
        svg = os.path.join(work, "out", f"{stem}.svg")
        argv = ("render", path, "--points", str(RENDER_POINTS), "--out", svg)
        ops.append(Op(f"render:{name}", "render", argv, svg, exact))
    return ops


def run_op(cli_main, op):
    """Run one op; returns (seconds, exit code or None, error text or None).

    Any exception is caught here so that a failing op counts as failed and
    the run goes on.
    """
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli_main(list(op.argv))
    except Exception as exc:  # noqa: BLE001 - the benchmark records every failure
        return time.perf_counter() - start, None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    return elapsed, code, sink.getvalue() if code != 0 else None


def observe(op, code):
    """(digests, problems) for the file one finished op wrote."""
    try:
        with open(op.out_path, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        return {"exit": code}, [f"no output: {exc}"]
    digests, problems = checks.observe(raw, op.kind, op.exact)
    digests["exit"] = code
    return digests, problems


def check_op(op, code, error, reference):
    """Problems with one op's result; an empty list means the op is correct."""
    if code is None:
        return [error]
    if code != 0:
        return [f"exit code {code}: {(error or '').strip()[:200]}"]
    digests, problems = observe(op, code)
    return problems + checks.compare(digests, reference)
