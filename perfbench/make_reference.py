"""Write reference.json: the digests of every op's output at the default seed.

    python3 perfbench/make_reference.py

Run it only where a change to the reports is intended and explained; the
benchmark fails every op whose output no longer matches.
"""

from __future__ import annotations

import json
import os
import sys

import run
import workloads
from models import DEFAULT_SEED


def main():
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    reference = {}
    for workload in workloads.WORKLOADS:
        work = os.path.join(run.HERE, ".work", workload)
        bench = run.Run(workload, DEFAULT_SEED, work, {})
        entries = {}
        for op in bench.ops:
            _elapsed, code, error = workloads.run_op(bench.cli_main, op)
            if code != 0:
                raise SystemExit(f"{workload} {op.op_id}: exit {code}: {error}")
            digests, problems = workloads.observe(op, code)
            if problems:
                raise SystemExit(f"{workload} {op.op_id}: {problems}")
            entries[op.op_id] = digests
        reference[workload] = entries
        print(f"{workload}: {len(entries)} ops")
    with open(run.REFERENCE, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
