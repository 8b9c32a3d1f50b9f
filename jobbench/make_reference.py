#!/usr/bin/env python3
"""Regenerates reference.json, the correctness oracle of the benchmark.

Runs every job of every workload for every scenario seed of its seed
pool and of its held-out pool, and records its simulated outcome,
including the simulated time at which its topology was built.  Run it only when a
change is meant to alter simulated results, and say so in the change:

    python3 jobbench/make_reference.py
"""

import json
import sys

import run


def main():
    exe = run.build()
    reference = {}
    for workload in run.WORKLOADS:
        outcomes = reference.setdefault(workload, {})
        # Two rounds: a job whose outcome differs between them is not
        # deterministic and cannot be a reference.
        records = []
        for held_out in (False, True):
            records += run.run_driver(exe, workload, 0, 0, False, {},
                                      rounds=2, whole_pool=True,
                                      held_out=held_out)
        for rec in records:
            if rec.get("crashed") or not rec["outcome"]["build_ok"]:
                sys.exit("make_reference: %s failed" % rec["job"])
            if outcomes.setdefault(rec["job"], rec["outcome"]) != \
                    rec["outcome"]:
                sys.exit("make_reference: %s is not deterministic"
                         % rec["job"])
        print("%s: %d jobs" % (workload, len(outcomes)), file=sys.stderr)
    with open(run.REFERENCE, "w") as f:
        json.dump(reference, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
