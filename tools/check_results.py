#!/usr/bin/env python3
"""Validate referbench results documents (runner/results_writer.hpp).

One subcommand per CI check; each exits non-zero (AssertionError) on the
first violation and prints a one-line summary when the documents pass.

Usage:
    tools/check_results.py smoke 'bench_smoke*.json'
    tools/check_results.py fig-sat sat.json ci/baselines/fig_sat_quick_greedy.json
    tools/check_results.py grid-counters 'rel_smoke*.json'
    tools/check_results.py app app_smoke.json
    tools/check_results.py timeline timeline_smoke.json

Glob patterns are expanded here (quote them), so a run that wrote no
JSON at all fails instead of passing vacuously.
"""

import argparse
import glob
import json
import sys

SCHEMA_VERSION = 6


def expand(pattern):
    paths = sorted(glob.glob(pattern))
    assert paths, f"no JSON matches {pattern}"
    return paths


def load(path):
    with open(path) as f:
        doc = json.load(f)
    assert doc["schema_version"] == SCHEMA_VERSION, path
    return doc


def check_smoke(args):
    """Every document of a `--jobs 2` run is schema-valid: the jobs count
    and each job's observability entries (counters and full histograms)."""
    paths = expand(args.pattern)
    for p in paths:
        doc = load(p)
        assert doc["jobs"] == 2, p
        for job in doc["jobs_run"]:
            obs = job["metrics"]["observability"]
            assert isinstance(obs, list) and obs, p
            for e in obs:
                assert e["kind"] in ("counter", "histogram"), p
                assert "name" in e, p
                if e["kind"] == "histogram":
                    for k in ("n", "sum", "min", "max", "p50", "p95", "p99"):
                        assert k in e, (p, e["name"], k)
                else:
                    assert "count" in e, (p, e["name"])
    print(len(paths), "schema-valid documents")


def greedy_half(d):
    """The greedy jobs and series of a fig_sat document, minus the
    permitted differences: the nondeterministic wall_ms / wall_s / git
    stamps and the world.grid.* / world.neighbor_cache.* observability
    counters (machine-independent but kernel- and heuristic-dependent,
    not simulation results)."""
    jobs = []
    for r in d["jobs_run"]:
        if r.get("routing_policy"):
            continue
        r = json.loads(json.dumps(r))  # deep copy
        r.pop("wall_ms", None)
        r["metrics"]["observability"] = [
            e for e in r["metrics"]["observability"]
            if not e["name"].startswith(("world.grid.",
                                         "world.neighbor_cache."))]
        jobs.append(r)
    series = [s for s in d["series"] if s["x_label"] == "packets/s per source"]
    return {"scenario": d["scenario"], "jobs_run": jobs, "series": series}


def check_fig_sat(args):
    """The two-policy fig_sat sweep ran, and its greedy half matches the
    pinned baseline field for field."""
    doc = load(args.doc)
    with open(args.baseline) as f:
        base = json.load(f)
    assert doc["scenario"]["routing_policy"] == "greedy"

    labels = [s["x_label"] for s in doc["series"]]
    assert "packets/s per source (REFER regular policy)" in labels, labels
    regular = [r for r in doc["jobs_run"]
               if r.get("routing_policy") == "regular"]
    assert regular, "no regular-policy jobs in the two-policy sweep"

    assert greedy_half(doc) == greedy_half(base), (
        "greedy fig_sat numbers drifted from the pinned baseline")
    print(len(greedy_half(doc)["jobs_run"]),
          "greedy jobs match the pinned baseline;",
          len(regular), "regular-policy jobs ran")


def check_grid_counters(args):
    """Every job exports the spatial index's world.grid.* counters and
    the neighbour cache's walk work counters."""
    paths = expand(args.pattern)
    for p in paths:
        doc = load(p)
        for job in doc["jobs_run"]:
            obs = {e["name"]: e for e in job["metrics"]["observability"]}
            for name in ("world.grid.queries", "world.grid.candidates",
                         "world.grid.rebins", "world.grid.rebuilds",
                         "world.neighbor_cache.candidates_walked",
                         "world.neighbor_cache.exact_checks"):
                assert name in obs, (p, name)
                assert obs[name]["kind"] == "counter", (p, name)
            assert obs["world.grid.queries"]["count"] > 0, p
            walked = obs["world.neighbor_cache.candidates_walked"]["count"]
            assert obs["world.neighbor_cache.exact_checks"]["count"] <= walked, p
    print(len(paths), "schema-valid documents with grid counters")


def check_app(args):
    """The closed-loop app metrics exist and are ordered on all four
    systems."""
    doc = load(args.doc)
    assert doc["scenario"]["app_enabled"] is True
    systems = set()
    for job in doc["jobs_run"]:
        systems.add(job["system"])
        m = job["metrics"]
        for key in ("app_loops_started", "app_loops_completed",
                    "app_loops_within_deadline", "app_loop_p50_ms",
                    "app_loop_p95_ms", "app_loop_p99_ms",
                    "app_loop_completion_ratio",
                    "app_actuator_availability", "app_recoveries",
                    "app_mean_recovery_s"):
            assert key in m, key
        assert m["app_loops_started"] >= m["app_loops_completed"] \
            >= m["app_loops_within_deadline"]
        assert 0.0 <= m["app_actuator_availability"] <= 1.0
    assert systems == {"REFER", "DaTree", "D-DEAR", "Kautz-overlay"}
    print(len(doc["jobs_run"]), "app jobs, loop metrics OK")


def check_timeline(args):
    """A --timeline 5 --phase-profile run: every job carries a timeseries
    of equal-length series, the five wall-clock phases, and qos_kbps
    re-derived exactly from qos_delivered."""
    doc = load(args.doc)
    assert doc["scenario"]["timeline_bucket_s"] == 5
    assert doc["scenario"]["phase_profile"] is True
    jobs = doc["jobs_run"]
    assert jobs
    phases = {"kernel_dispatch", "medium_scan", "routing_decide",
              "flooding", "spatial_query"}
    for job in jobs:
        ts = job["metrics"]["timeseries"]
        n = len(ts["qos_kbps"])
        assert n > 0
        for key in ("sent", "delivered", "qos_delivered",
                    "delivery_ratio", "failovers", "delay_p50_ms",
                    "delay_p95_ms", "queue_wait_mean_us",
                    "queue_wait_p95_us", "channel_busy_fraction",
                    "energy_rate_w", "event_queue_depth",
                    "route_cache_hit_rate", "app_loops_started",
                    "app_loops_ok", "app_loop_mean_ms",
                    "top_airtime", "top_energy"):
            assert len(ts[key]) == n, (job["system"], key)
        assert set(ts["phase_us"]) == phases, job["system"]
        bits = doc["scenario"]["packet_bytes"] * 8.0
        for q, k in zip(ts["qos_delivered"], ts["qos_kbps"]):
            assert q * bits / 1000.0 / ts["bucket_s"] == k
    print(len(jobs), "jobs carry a timeseries")


def main(argv):
    parser = argparse.ArgumentParser(
        description="Validate referbench results documents "
                    f"(schema v{SCHEMA_VERSION}).")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("smoke", help=check_smoke.__doc__)
    p.add_argument("pattern")
    p.set_defaults(run=check_smoke)

    p = sub.add_parser("fig-sat", help=check_fig_sat.__doc__)
    p.add_argument("doc")
    p.add_argument("baseline")
    p.set_defaults(run=check_fig_sat)

    p = sub.add_parser("grid-counters", help=check_grid_counters.__doc__)
    p.add_argument("pattern")
    p.set_defaults(run=check_grid_counters)

    p = sub.add_parser("app", help=check_app.__doc__)
    p.add_argument("doc")
    p.set_defaults(run=check_app)

    p = sub.add_parser("timeline", help=check_timeline.__doc__)
    p.add_argument("doc")
    p.set_defaults(run=check_timeline)

    args = parser.parse_args(argv[1:])
    args.run(args)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
