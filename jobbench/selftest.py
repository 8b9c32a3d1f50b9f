#!/usr/bin/env python3
"""Self-tests of the benchmark's own checks, on real runs of the driver.

  oracle      the run matches reference.json, and changing any single
              outcome field of one job in a copy of the reference (by one
              unit, or one ulp for a float) fails exactly that job;
  perturbation  the traced runs pass the non-perturbation check, and a
              traced run with one outcome field, one work counter or the
              executed-event count changed fails it;
  ledger      two runs of the same build give identical per-layer work
              counts.

    python3 jobbench/selftest.py [--workload churn]

Exits 0 when every test passes.
"""

import argparse
import copy
import math
import sys

import run


def bump(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    return math.nextafter(value, math.inf)


def ledger(records):
    """The deterministic part of the per-layer report: every metric that
    is not a host time."""
    spans = [(s[0]["job"], s) for s in
             (run.spans_of(r) for r in records if r["kind"] == "traced")]
    return {name: value for name, (value, unit)
            in run.per_layer(records, spans).items()
            if unit not in run.HOST_TIME_UNITS}


def test_oracle(records, reference):
    failures, jobs = run.check(records, reference)
    assert not failures, "clean run failed: %s" % failures
    job = jobs[0]
    for field in reference[job]:
        bad = copy.deepcopy(reference)
        bad[job][field] = bump(bad[job][field])
        failures, _ = run.check(records, bad)
        assert list(failures) == [job], (field, list(failures))
        # Discover runs are checked on the build-end time only.
        checked = sum(1 for r in records if r["job"] == job and (
            r["kind"] != "discover" or field == "built_at_s"))
        assert len(failures[job]) == checked, (field, failures[job])
    print("oracle: %d one-field changes each failed exactly %s"
          % (len(reference[job]), job))


def test_perturbation(records):
    full = {r["job"]: r for r in records if r["kind"] == "full"}
    traced = [r for r in records if r["kind"] == "traced"]
    assert traced, "no traced runs"
    for rec in traced:
        assert run.check_traced(rec, full[rec["job"]]) is None
    rec = traced[0]
    base = full[rec["job"]]
    for path in (("outcome", "packets_delivered"),
                 ("counters", "channel.unicasts_sent"),
                 ("counters", "sim.events_executed")):
        bad = copy.deepcopy(rec)
        bad[path[0]][path[1]] = bump(bad[path[0]][path[1]])
        assert run.check_traced(bad, base) is not None, path
    print("perturbation: %d traced runs match their untraced runs; "
          "3 planted differences caught" % len(traced))


def test_ledger(first, second):
    a, b = ledger(first), ledger(second)
    assert a == b, {k: (a[k], b.get(k)) for k in a if a[k] != b.get(k)}
    print("ledger: %d work counts identical across two runs" % len(a))


def main(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", default="churn", choices=run.WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    exe = run.build()
    reference = run.load_reference()[args.workload]
    first = run.run_driver(exe, args.workload, args.seed, 0, True, reference,
                           rounds=1)
    second = run.run_driver(exe, args.workload, args.seed, 0, True, reference,
                            rounds=1)
    test_oracle(first, reference)
    test_perturbation(first)
    test_ledger(first, second)
    print("selftest: all passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
