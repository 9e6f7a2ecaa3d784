#!/usr/bin/env python3
"""Check that two sets of runs of the same code agree.

    python3 benchmark/agree.py [--runs N] [--seed S] [--workload NAME]...

Run from the repository root. Runs each workload of BENCHMARK.json N times
(default 3), then N times again, with the command and run length that file
names, all at one seed (default 1). Prints each end-to-end metric's median
and quartiles per set. Exits 1 when the two medians of a metric differ by
more than its bound, when a metric the simulator computes from simulated
time differs at all between runs, or when a run fails its correctness
gates.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

# Metrics of the sim-* workloads that depend on simulated time only, so a
# seed fixes them exactly. The last is a report-only row, printed on every
# run but not gated by a bound.
SIM_TIME = ("tx_per_s", "latency_p50_ms", "latency_p99_ms", "committed_ratio",
            "delivery.stall_max_ms")
REPORT_ROWS = ("delivery.stall_max_ms",)


def run_once(spec, workload, seed):
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        return None, f"{workload}: exit {out.returncode}\n{out.stdout[-2000:]}"
    result = json.loads(lines[-1])
    if not result["correct"]:
        return None, f"{workload}: correctness gate failed\n{out.stdout[-2000:]}"
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    for line in lines[:-1]:
        parts = line.split()
        name = parts[0].removeprefix(workload + ".") if parts else ""
        if name in REPORT_ROWS:
            metrics[name] = float(parts[1])
    return metrics, None


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main():
    root = Path(__file__).resolve().parent.parent
    spec = json.loads((root / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=3)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workload", action="append", choices=names)
    args = ap.parse_args()
    workloads = args.workload or names
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    bounds.update({name: None for name in REPORT_ROWS})

    # sets[s][workload][metric] -> values over the runs of set s
    sets = [{w: {} for w in workloads} for _ in range(2)]
    problems = []
    for s in range(2):
        for r in range(args.runs):
            for w in workloads:
                print(f"set {s + 1} run {r + 1}: {w}", file=sys.stderr, flush=True)
                metrics, err = run_once(spec, w, args.seed)
                if err:
                    problems.append(f"set {s + 1} run {r + 1}: {err}")
                    continue
                for k, v in metrics.items():
                    sets[s][w].setdefault(k, []).append(v)

    for w in workloads:
        print(f"== {w}")
        print(f"  {'metric':21s} {'set 1: q1 / median / q3':>38s} {'set 2: q1 / median / q3':>38s}"
              f" {'diff':>8s} {'bound':>6s}")
        for k, bound in bounds.items():
            a, b = sets[0][w].get(k, []), sets[1][w].get(k, [])
            if not a or not b:
                continue
            qa, qb = quartiles(a), quartiles(b)
            diff = abs(qb[1] - qa[1]) / qa[1] if qa[1] else float("inf")
            fmt = lambda q: f"{q[0]:11.5g} /{q[1]:11.5g} /{q[2]:11.5g}"
            shown = "-" if bound is None else f"{bound:.3f}"
            print(f"  {k:21s} {fmt(qa):>38s} {fmt(qb):>38s} {diff:8.4f} {shown:>6s}")
            if bound is not None and diff > bound:
                problems.append(f"{w}.{k}: medians {qa[1]:.6g} and {qb[1]:.6g} differ by "
                                f"{diff:.4f} > bound {bound}")
            if w.startswith("sim-") and k in SIM_TIME and len(set(a + b)) > 1:
                problems.append(f"{w}.{k}: a simulated-time metric differs between runs: "
                                f"{sorted(set(a + b))}")
    for p in problems:
        print("FAIL " + p)
    print("agree: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
