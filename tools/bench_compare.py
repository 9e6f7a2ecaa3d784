#!/usr/bin/env python3
"""Diff fresh BENCH_*.json files against the tracked copies in the repo root.

The benches drop one JSON per run (bench_json.hpp); the repo tracks a
reference copy of each at the root. This script compares a fresh run against
those references and fails (exit 1) when a *gated* headline metric regresses
by more than the threshold (default 20%).

Gating policy: only metrics that are deterministic at equal config are
gated --
  - simulation-time metrics (bench_workload): pure functions of seed +
    config, so any drift at equal config is a real code change;
  - exact counters (allocs_per_*, encodes/copies per broadcast,
    resident_bytes_end): deterministic.
Anything wall-clock-derived is reported by the benches but never gated
here: raw rates are swamped by shared-runner noise, and even same-run
ratios (speedup_vs_*, index_speedup) halve across allocators/CPUs. Those
ratios already have absolute floors enforced by the bench binaries' own
exit codes, so this diff does not re-gate them.

A bench is only compared when its config keys match the tracked copy
(a smoke run at different --rate/--duration is incomparable); mismatches
are reported and skipped, not failed. Metrics present on only one side
(a new or retired key) are likewise reported and skipped.

Usage: tools/bench_compare.py [--tracked DIR] [--fresh DIR] [--threshold F]
"""

import argparse
import glob
import json
import os
import sys

# Per-bench compare spec: config keys that must match for the comparison to
# mean anything, and gated metrics with their good direction.
SPECS = {
    "workload": {
        "config": ["n", "seed", "duration_ms", "rate_per_sec", "clients",
                   "outstanding", "request_bytes"],
        "metrics": {
            "open_tx_per_sec": "higher",
            "closed_tx_per_sec": "higher",
            "open_latency_p99_ms": "lower",
            "closed_latency_p99_ms": "lower",
        },
        # The frontier grid is gated cell by cell (also sim-deterministic).
        "metric_patterns": [("frontier_", "_tx_per_sec", "higher"),
                            ("frontier_", "_latency_p99_ms", "lower")],
    },
    "hotpath": {
        "config": ["n", "rounds"],
        "metrics": {
            "allocs_per_delivery": "lower",
            "encodes_per_broadcast": "lower",
        },
    },
    "consensus": {
        "config": ["slots", "n"],
        "metrics": {
            "allocs_per_slot": "lower",
        },
    },
    "storage": {
        "config": ["slots", "gap"],
        "metrics": {
            "resident_bytes_end": "lower",
        },
    },
    # bench_socket: real-time TCP throughput/latency (medians over --repeat
    # runs, still wall-clock); nothing stable to gate.
    "socket": {"config": [], "metrics": {}},
    # bench_sharding: wall-clock scaling sweep; the >= 6x S=8/S=1 floor and
    # the exactly-once gates live in the binary's exit code, not here.
    "sharding": {
        "config": ["n", "seed", "rate_per_shard", "window_ms", "tx_bytes",
                   "batch_txs", "batch_bytes"],
        "metrics": {},
    },
}


def bench_name(path):
    base = os.path.basename(path)
    return base[len("BENCH_"):-len(".json")]


def gated_metrics(spec, tracked, fresh):
    metrics = dict(spec.get("metrics", {}))
    for prefix, suffix, direction in spec.get("metric_patterns", []):
        for key in tracked:
            if key.startswith(prefix) and key.endswith(suffix):
                metrics[key] = direction
    return metrics


def compare(name, tracked, fresh, threshold):
    """Returns (failures, skipped_reason_or_None)."""
    spec = SPECS.get(name)
    if spec is None:
        return [], "no compare spec"
    for key in spec["config"]:
        if tracked.get(key) != fresh.get(key):
            return [], (f"config mismatch ({key}: tracked={tracked.get(key)} "
                        f"fresh={fresh.get(key)})")
    failures = []
    for key, direction in sorted(gated_metrics(spec, tracked, fresh).items()):
        if key not in tracked or key not in fresh:
            print(f"  {name}.{key}: only on one side, skipped")
            continue
        ref, got = float(tracked[key]), float(fresh[key])
        if direction == "higher":
            bad = got < ref * (1.0 - threshold)
        else:
            bad = got > ref * (1.0 + threshold)
        delta = (got - ref) / ref * 100.0 if ref != 0 else 0.0
        marker = "REGRESSION" if bad else "ok"
        print(f"  {name}.{key}: tracked={ref:g} fresh={got:g} "
              f"({delta:+.1f}%, want {direction}) {marker}")
        if bad:
            failures.append(f"{name}.{key}")
    return failures, None


def main():
    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tracked", default=repo_root,
                    help="directory with the reference BENCH_*.json (repo root)")
    ap.add_argument("--fresh", default=os.path.join(repo_root, "build"),
                    help="directory with the fresh run's BENCH_*.json")
    ap.add_argument("--threshold", type=float, default=0.20,
                    help="relative regression that fails the diff (0.20 = 20%%)")
    args = ap.parse_args()

    fresh_files = sorted(glob.glob(os.path.join(args.fresh, "BENCH_*.json")))
    if not fresh_files:
        print(f"bench_compare: no BENCH_*.json under {args.fresh}", file=sys.stderr)
        return 2

    all_failures = []
    compared = 0
    for path in fresh_files:
        name = bench_name(path)
        tracked_path = os.path.join(args.tracked, os.path.basename(path))
        if not os.path.exists(tracked_path):
            # First run of a new bench: nothing to diff against yet. Skip
            # cleanly (exit 0) -- committing the fresh JSON at the repo root
            # starts the trajectory.
            print(f"{name}: first run, no tracked baseline at "
                  f"{tracked_path} -- skipped (commit the fresh JSON to "
                  f"start tracking)")
            continue
        with open(tracked_path) as f:
            tracked = json.load(f)
        with open(path) as f:
            fresh = json.load(f)
        print(f"{name}:")
        failures, skipped = compare(name, tracked, fresh, args.threshold)
        if skipped is not None:
            print(f"  skipped: {skipped}")
            continue
        compared += 1
        all_failures.extend(failures)

    if all_failures:
        print(f"\nbench_compare: {len(all_failures)} gated regression(s) "
              f">{args.threshold * 100:.0f}%:", file=sys.stderr)
        for f in all_failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"\nbench_compare: {compared} bench(es) compared, no gated "
          f"regression >{args.threshold * 100:.0f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
