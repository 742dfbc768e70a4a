#!/usr/bin/env python3
"""Record the reference digests that perfbench/run.py checks every unit against.

    python3 perfbench/record.py

Runs each unit of both pools of every workload once, untraced, and rewrites
reference.json. One line per unit (workload, pool, unit, digest,
seconds) goes to standard error. Re-record only for a change that is meant
to alter results, and say why in that change.
"""
from __future__ import annotations

import json
import sys

import run


def main() -> int:
    harness = run.load_package()
    reference: dict = {"pools": {}}
    for name, workload in run.WORKLOADS.items():
        pools = reference["pools"][name] = {}
        for pool, pool_seed in run.POOL_SEEDS.items():
            digests = []
            for unit in range(workload.pool):
                got, seconds = run.run_unit(harness, workload, pool_seed, unit)
                digests.append(got)
                print(name, pool, unit, got, f"{seconds:.6f}", file=sys.stderr, flush=True)
            pools[pool] = digests
    tmp = run.REFERENCE.with_suffix(".tmp")
    tmp.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    tmp.replace(run.REFERENCE)
    return 0


if __name__ == "__main__":
    sys.exit(main())
