#!/usr/bin/env python3
"""Steadiness check for the partree benchmark.

Runs the benchmark command from BENCHMARK.json several times per
workload, each run with its own seed, and reports for every end-to-end
metric the median, the quartiles (statistics.quantiles(values, n=4))
and the spread (q3 - q1) / median next to the metric's bound. Runs are
interleaved across workloads so host drift spreads evenly over them.

    python3 perfbench/steady.py                      # 10 runs per workload
    python3 perfbench/steady.py --runs 5 --workloads cold_construct
    python3 perfbench/steady.py --out perfbench/results/steadiness.json
    python3 perfbench/steady.py --compare a.json b.json  # two sets, same code
    python3 perfbench/steady.py --summarize a.json       # recompute a summary

Every set uses the same seed list (--seed-base, --seed-base + 1, ...),
so two sets differ only in when they ran. --compare checks what the
acceptance rule asks of two sets: every spread except setup_s within
its bound, and no median of the second set worse than the first's by
more than the bound.

Run it from the repository root; set CARGO_TARGET_DIR to reuse a build.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(spec, workload, seed, seconds, trace):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    t = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - t
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    host = next((json.loads(l[5:]) for l in lines if l.startswith("host ")), {})
    notes = [l for l in lines[:-1] if not l.startswith("host ")]
    return result, host, notes, wall


# A run during which the host's CPUs lost less than this to other guests
# (host_steal_s in the run's host record) counts as quiet.
QUIET_STEAL_S = 1.0


def spread_of(vals):
    med = statistics.median(vals)
    q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
    return med, q1, q3, (q3 - q1) / med if med else float("nan")


def summarize(runs, metrics):
    """Median, quartiles and spread of every metric per workload; the
    spread over the quiet runs alone is a diagnostic next to it."""
    summary = {}
    for w, rs in runs.items():
        summary[w] = {}
        quiet = [r for r in rs if r["host"].get("host_steal_s", 0.0) < QUIET_STEAL_S]
        for m in metrics:
            med, q1, q3, spread = spread_of([r["metrics"][m["name"]] for r in rs])
            entry = {"median": med, "q1": q1, "q3": q3, "spread": spread}
            if "bound" in m:
                entry["bound"] = m["bound"]
                entry["within_third_of_bound"] = spread < m["bound"] / 3
            line = (f"{w:15s} {m['name']:22s} median {med:10.4g} q1 {q1:10.4g} q3 {q3:10.4g} "
                    f"spread {spread:6.3f}" + (f" bound {m['bound']}" if "bound" in m else ""))
            if len(quiet) >= 4:
                entry["quiet_runs"] = len(quiet)
                entry["quiet_spread"] = spread_of([r["metrics"][m["name"]] for r in quiet])[3]
                line += f"  ({len(quiet)} quiet runs: spread {entry['quiet_spread']:.3f})"
            summary[w][m["name"]] = entry
            print(line)
    return summary


def compare(paths):
    """Holds two evidence sets to the metrics' bounds; returns 0 if they meet them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    sets = []
    for p in paths:
        with open(p) as f:
            sets.append(json.load(f)["summary"])
    bad = 0
    for w in sets[0]:
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            a, b = sets[0][w][name], sets[1][w][name]
            worse = (b["median"] - a["median"]) / a["median"]
            if m["better"] == "higher":
                worse = -worse
            ok = worse <= bound and (name == "setup_s" or max(a["spread"], b["spread"]) <= bound)
            bad += not ok
            print(f"{w:15s} {name:15s} spread {a['spread']:.3f} / {b['spread']:.3f}  "
                  f"second median worse by {worse:+.3f}  bound {bound}  {'ok' if ok else 'FAILS'}")
    return 1 if bad else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1000)
    ap.add_argument("--workloads", nargs="*")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--out")
    ap.add_argument("--compare", nargs=2, metavar="SET")
    ap.add_argument("--summarize", metavar="SET", help="recompute the summary of a kept set")
    a = ap.parse_args()
    if a.compare:
        sys.exit(compare(a.compare))
    if a.summarize:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        with open(a.summarize) as f:
            doc = json.load(f)
        doc["summary"] = summarize(doc["runs"], spec["end_to_end" if doc["trace"] == 0 else "per_layer"])
        with open(a.summarize, "w") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")
        return

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = a.workloads or [w["name"] for w in spec["workloads"]]
    seconds = a.seconds or spec["run_seconds"]
    metrics = spec["end_to_end"] if a.trace == 0 else spec["per_layer"]
    runs = {w: [] for w in workloads}
    for i in range(a.runs):
        for w in workloads:
            seed = a.seed_base + i
            result, host, notes, wall = run_once(spec, w, seed, seconds, a.trace)
            if not result["correct"]:
                sys.exit(f"{w} seed {seed}: {result}")
            if result["failed"]:
                print(f"{w} seed {seed}: {result['failed']} failed ops", flush=True)
            runs[w].append({"seed": seed, "wall_s": round(wall, 2), "host": host, "notes": notes,
                            "attempted": result["attempted"], "failed": result["failed"],
                            "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
            print(f"{w} seed {seed}: {wall:.1f}s steal {host.get('host_steal_s', 0):.1f}s "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  flush=True)

    summary = summarize(runs, metrics)
    if a.out:
        doc = {"seconds": seconds, "trace": a.trace, "runs_per_workload": a.runs,
               "summary": summary, "runs": runs}
        with open(os.path.join(ROOT, a.out), "w") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
