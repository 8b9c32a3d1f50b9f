#!/usr/bin/env python3
"""Host-time benchmark of the REFER simulator.

Builds the `jobbench` driver from the repository's sources, runs one
workload for a fixed host-time budget and prints, by name and with units,
the whole-job wall, set-up and traffic time and peak memory, plus
jobs_failed / jobs.  Every simulated outcome is checked against the
committed reference (reference.json).  With --trace 1 the same jobs also
run traced, and the report holds the per-layer ledger instead; the stage
spans of every traced job are written to a JSONL file.

    python3 jobbench/run.py --workload saturation --seed 1 --seconds 30 \
        --trace 0

The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
README.md documents the workloads, the metrics and the span file.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.json")
WORKLOADS = ("saturation", "dense_build", "churn")
SYSTEMS = ("REFER", "DaTree", "D-DEAR", "Kautz-overlay")
STAGES = ("wire", "construct", "warmup", "measure", "drain", "teardown")
# One benchmark run must end within 180 s; the driver's discover runs,
# rounds and last-round overshoot stay well inside this.
DRIVER_TIMEOUT_S = 170

# Counters the traced run may change, and how (see check_traced).
PROBE_COUNTERS = ("sim.events_executed", "sim.closure.inline")
QUEUE_DEPTH = "sim.peak_queue_depth"
# Units of per-layer metrics measured in host time; every other per-layer
# metric is a deterministic work count or ratio and repeats exactly.
HOST_TIME_UNITS = ("ms", "ns", "%")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "jobbench")


def build():
    """Configures (once) and builds the driver; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "harness",
                                       "experiment.hpp")):
        raise BenchError("simulator sources not found next to jobbench/")
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", "4"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise BenchError("build failed: " + " ".join(cmd))
    return os.path.join(out, "jobbench")


def run_driver(exe, workload, seed, seconds, trace, reference, rounds=0,
               whole_pool=False, held_out=False):
    """Runs the driver; returns its per-run records.  The reference
    build-end times place each job's set-up probe."""
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if reference:
        cmd += ["--built-at", ",".join(
            "%s=%r" % (job, out["built_at_s"])
            for job, out in sorted(reference.items()))]
    if rounds:
        cmd += ["--rounds", str(rounds)]
    if whole_pool:
        cmd += ["--whole-pool", "1"]
    if held_out:
        cmd += ["--held-out", "1"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        raise BenchError("driver timed out") from e
    if proc.returncode != 0:
        raise BenchError("driver exited with %d" % proc.returncode)
    return [json.loads(line) for line in proc.stdout.splitlines() if line]


def load_reference():
    with open(REFERENCE) as f:
        return json.load(f)


# --------------------------------------------------------------- checks


def check_traced(traced, full):
    """Non-perturbation: the traced run must reproduce the untraced run.

    The outcome must be identical.  Work counters must be identical too,
    except that every extra probe or flight-recorder tick is one more
    executed event and one more inline closure, and may raise the peak
    queue depth by at most that many.  Returns a reason or None.
    """
    if traced["outcome"] != full["outcome"]:
        return "traced outcome differs from the untraced run"
    extra = (traced["probe_events"] - full["probe_events"]
             + traced["timeline_tick_events"])
    tc, fc = traced["counters"], full["counters"]
    if set(tc) != set(fc):
        return "traced run reports other counters"
    for name in tc:
        delta = tc[name] - fc[name]
        if name in PROBE_COUNTERS:
            ok = delta == extra
        elif name == QUEUE_DEPTH:
            ok = 0 <= delta <= extra
        else:
            ok = delta == 0
        if not ok:
            return "traced run changed %s by %d (%d extra events)" % (
                name, delta, extra)
    return None


def check(records, reference):
    """Checks every run record.  Returns (failures, jobs) where failures
    maps a job name to its list of (record, reason)."""
    failures = {}
    jobs = []
    first_full = {}
    for rec in records:
        job = rec["job"]
        if job not in jobs:
            jobs.append(job)
        reason = None
        if rec.get("crashed"):
            reason = "%s run crashed" % rec["kind"]
        elif not rec["outcome"]["build_ok"]:
            reason = "%s run: topology build failed" % rec["kind"]
        elif job not in reference:
            reason = "no reference outcome for this job"
        elif rec["kind"] == "discover":
            if rec["outcome"]["built_at_s"] != reference[job]["built_at_s"]:
                reason = "topology built at another simulated time"
        elif rec["outcome"] != reference[job]:
            diff = sorted(k for k in reference[job]
                          if rec["outcome"].get(k) != reference[job][k])
            reason = "outcome differs from the reference in " + \
                ", ".join(diff or ["its fields"])
        elif rec["kind"] == "full":
            base = first_full.setdefault(job, rec)
            if rec["counters"] != base["counters"]:
                reason = "work counters differ between rounds"
        else:
            base = first_full.get(job)
            reason = ("no untraced run to compare" if base is None
                      else check_traced(rec, base))
        if reason:
            failures.setdefault(job, []).append((rec, reason))
    return failures, jobs


# -------------------------------------------------------------- metrics


def median(values):
    return statistics.median(values) if values else 0.0


def by_job(records, kind):
    """Successful runs of one kind, grouped by job."""
    out = {}
    for rec in records:
        if (rec["kind"] == kind and not rec.get("crashed")
                and rec["outcome"]["build_ok"]):
            out.setdefault(rec["job"], []).append(rec)
    return out


def end_to_end(records):
    full = by_job(records, "full")
    wall = [median([r["wall_ms"] for r in runs]) for runs in full.values()]
    setup = [median([r["setup_ms"] for r in runs]) for runs in full.values()]
    traffic = [median([r["wall_ms"] - r["setup_ms"] for r in runs])
               for runs in full.values()]
    rss = [median([r["maxrss_kb"] for r in runs]) for runs in full.values()]
    return {
        "wall_s": (sum(wall) / 1e3, "s"),
        "setup_s": (sum(setup) / 1e3, "s"),
        "traffic_s": (sum(traffic) / 1e3, "s"),
        "peak_rss_mb": (max(rss, default=0) / 1024.0, "MB"),
    }


def spans_of(rec):
    """The job span and its six contiguous stage spans of a traced run."""
    marks = rec["marks_ns"]
    job_id = "%s#%d" % (rec["job"], rec["round"])
    spans = [{"job": job_id, "span": "job", "parent": None,
              "start_ns": marks[0], "end_ns": marks[-1]}]
    for i, name in enumerate(STAGES):
        spans.append({"job": job_id, "span": name, "parent": "job",
                      "start_ns": marks[i], "end_ns": marks[i + 1]})
    return spans


def spans_tile(spans):
    """True when the stage spans run back to back from job start to end."""
    job, stages = spans[0], spans[1:]
    edges = [job["start_ns"]] + [s["end_ns"] for s in stages]
    return (all(s["start_ns"] == e for s, e in zip(stages, edges))
            and edges[-1] == job["end_ns"]
            and all(s["end_ns"] >= s["start_ns"] for s in stages))


def ratio(num, den):
    return num / den if den else 0.0


def system_of(job):
    """The system a job runs, whatever its policy: REFER/regular@3 -> REFER."""
    return job.split("@")[0].split("/")[0]


def per_layer(records, traced_spans):
    """The per-layer ledger.  Counters are summed over the workload's
    jobs (one round; they repeat exactly); times are the sum over jobs of
    each job's median over rounds."""
    discover = {job: runs[0]
                for job, runs in by_job(records, "discover").items()}
    full = by_job(records, "full")
    traced = by_job(records, "traced")
    first = {job: runs[0] for job, runs in full.items()}

    def total(name, pool=first):
        return sum(r["counters"].get(name, 0) for r in pool.values())

    def traced_ms(fn):
        return sum(median([fn(r) for r in runs]) for runs in traced.values())

    def phase(name):
        return traced_ms(lambda r: r["phase_ms"][name])

    # Each stage's median duration over the rounds, per job.
    stage_ms = {}
    for job_id, spans in traced_spans:
        for span in spans[1:]:
            stage_ms.setdefault((job_id.split("#")[0], span["span"]), []).append(
                (span["end_ns"] - span["start_ns"]) / 1e6)

    def stage_total(stage, system=None):
        return sum(median(v) for (job, name), v in stage_ms.items()
                   if name == stage and system in (None, system_of(job)))

    m = {"harness.wire_ms": (stage_total("wire"), "ms")}
    for system in SYSTEMS:
        m["harness.construct_ms." + system] = (
            stage_total("construct", system), "ms")
    for stage in ("warmup", "measure", "drain", "teardown"):
        m["harness.%s_ms" % stage] = (stage_total(stage), "ms")
    untraced_wall = sum(median([r["wall_ms"] for r in runs])
                        for job, runs in full.items() if job in traced)
    m["harness.trace_overhead_pct"] = (
        100.0 * (ratio(traced_ms(lambda r: r["wall_ms"]), untraced_wall) - 1),
        "%")

    probes = sum(r["probe_events"] for r in first.values())
    events = total("sim.events_executed") - probes
    m["sim.events_executed"] = (events, "count")
    m["sim.peak_queue_depth"] = (max(
        (r["counters"].get(QUEUE_DEPTH, 0) for r in first.values()),
        default=0), "count")
    m["sim.kernel_dispatch_ms"] = (phase("kernel_dispatch"), "ms")
    traffic_ms = sum(median([r["wall_ms"] - r["setup_ms"] for r in runs])
                     for runs in full.values())
    traffic_events = events - total("sim.events_executed", discover)
    m["sim.host_ns_per_event"] = (ratio(traffic_ms * 1e6, traffic_events),
                                  "ns")
    m["sim.traffic_events"] = (traffic_events, "count")

    sent = total("channel.unicasts_sent")
    m["channel.frames_sent"] = (sent + total("channel.broadcasts_sent"),
                                "count")
    m["channel.unicasts_sent"] = (sent, "count")
    m["channel.unicast_fail_ratio"] = (
        ratio(total("channel.unicasts_failed"), sent), "ratio")
    m["channel.medium_scans"] = (total("channel.queue_wait_us.count"),
                                 "count")
    m["channel.medium_scan_ms"] = (phase("medium_scan"), "ms")
    m["channel.queue_wait_p95_us"] = (max(
        (r.get("queue_wait_p95_us", 0) for r in first.values()), default=0),
        "us")

    queries = total("world.grid.queries")
    m["world.grid.queries"] = (queries, "count")
    m["world.grid.candidates_per_query"] = (
        ratio(total("world.grid.candidates"), queries), "ratio")
    m["world.grid.rebins"] = (total("world.grid.rebins"), "count")
    hits = total("world.neighbor_cache.hits")
    lookups = (hits + total("world.neighbor_cache.rebuilds")
               + total("world.neighbor_cache.skipped_fills"))
    m["world.neighbor_cache.lookups"] = (lookups, "count")
    m["world.neighbor_cache.hit_ratio"] = (ratio(hits, lookups), "ratio")
    m["world.spatial_query_ms"] = (phase("spatial_query"), "ms")

    construct_bcasts = total("channel.broadcasts_sent", discover)
    m["net.flood_scopes"] = (
        total("channel.broadcasts_sent") - construct_bcasts, "count")
    m["net.flooding_ms"] = (phase("flooding"), "ms")
    m["net.construct_broadcasts"] = (construct_bcasts, "count")

    rc_hits = total("router.route_cache_hits")
    rc_lookups = rc_hits + total("router.route_cache_misses")
    m["router.route_cache_lookups"] = (rc_lookups, "count")
    m["router.route_cache_hit_ratio"] = (ratio(rc_hits, rc_lookups), "ratio")
    m["router.routing_decide_ms"] = (phase("routing_decide"), "ms")
    for name in ("failovers", "route_gen_floods", "regular_walks"):
        m["router." + name] = (total("router." + name), "count")

    started = total("app.loops_started")
    m["app.loops_started"] = (started, "count")
    m["app.loop_completion_ratio"] = (
        ratio(total("app.loops_within_deadline"), started), "ratio")
    return m


# -------------------------------------------------------------- report

# Where each per-layer metric should move an end-to-end metric (README).
LAYER_NOTES = {
    "harness": "construct/wire -> setup_s on dense_build; "
               "warmup..teardown -> traffic_s on saturation, churn",
    "sim": "-> traffic_s on saturation",
    "channel": "-> traffic_s on saturation",
    "world": "-> traffic_s on saturation, setup_s on dense_build",
    "net": "-> setup_s on dense_build, traffic_s on churn",
    "router": "-> traffic_s on saturation (REFER jobs) and churn",
    "app": "context for traffic_s on churn (simulated outcomes: checked)",
}
PHASE_METRICS = ("sim.kernel_dispatch_ms", "channel.medium_scan_ms",
                 "world.spatial_query_ms", "net.flooding_ms",
                 "router.routing_decide_ms")


def fmt(value):
    return ("%d" % value if isinstance(value, int)
            else "%.6g" % value)


def report(args, records, failures, jobs, metrics, spans_path):
    rounds = 1 + max((r["round"] for r in records if r["kind"] == "full"),
                     default=-1)
    print("jobbench %s  seed=%d  jobs=%d  rounds=%d  trace=%d" % (
        args.workload, args.seed, len(jobs), rounds, args.trace))
    for job, problems in failures.items():
        for rec, reason in problems[:3]:
            print("  FAILED %s (%s run, round %s): %s" % (
                job, rec["kind"], rec.get("round"), reason))
    if not args.trace:
        for name, (value, unit) in metrics.items():
            print("  %-14s %12.6f %s" % (name, value, unit))
        wall, setup = metrics["wall_s"][0], metrics["setup_s"][0]
        print("  setup share  %.1f%% of wall_s" % (100 * ratio(setup, wall)))
    else:
        layer = None
        for name, (value, unit) in metrics.items():
            head = name.split(".")[0]
            if head != layer:
                layer = head
                print("  [%s] %s" % (layer, LAYER_NOTES[layer]))
            note = ("  (measure window only, inclusive)"
                    if name in PHASE_METRICS else "")
            print("    %-36s %14s %s%s" % (name, fmt(value), unit, note))
        tags = {}
        for rec in records:
            if rec["kind"] == "traced" and rec["round"] == 0:
                for tag, us in rec["event_tag_us"].items():
                    tags[tag] = tags.get(tag, 0) + us
        top = sorted(tags.items(), key=lambda kv: -kv[1])[:6]
        print("  kernel time by event tag (round 0, whole job): " + ", ".join(
            "%s %.1f ms" % (t, us / 1e3) for t, us in top))
        print("  spans: %s" % spans_path)
    print("  jobs_failed    %d / %d jobs" % (len(failures), len(jobs)))


def main(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--held-out", action="store_true",
                   help="run the workload's held-out scenario seeds")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    try:
        exe = build()
        reference = load_reference().get(args.workload, {})
        records = run_driver(exe, args.workload, args.seed, args.seconds,
                             args.trace, reference, held_out=args.held_out)
    except (BenchError, OSError, ValueError) as e:
        print("jobbench: %s" % e, file=sys.stderr)
        return 1
    failures, jobs = check(records, reference)

    spans_path = None
    spans_ok = True
    if args.trace:
        traced_spans = []
        for rec in records:
            if rec["kind"] == "traced" and not rec.get("crashed"):
                spans = spans_of(rec)
                spans_ok &= spans_tile(spans)
                traced_spans.append((spans[0]["job"], spans))
        spans_path = os.path.join(build_dir(), "spans_%s_seed%d.jsonl" % (
            args.workload, args.seed))
        with open(spans_path, "w") as f:
            for _, spans in traced_spans:
                for s in spans:
                    f.write(json.dumps(s) + "\n")
        metrics = per_layer(records, traced_spans)
    else:
        metrics = end_to_end(records)

    report(args, records, failures, jobs, metrics, spans_path)
    failed = sum(len(v) for v in failures.values())
    result = {
        "correct": failed == 0 and spans_ok,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
