#!/usr/bin/env python3
"""Run the benchmark the way the driver does and judge it by its own bounds.

  python3 benchmark/repeat.py             two full sets back to back
  python3 benchmark/repeat.py --spread    ten seeds per workload

Both read BENCHMARK.json, run its command once per workload and seed from the
root of the checkout, and print one row per (end-to-end metric, workload).
Within a set the workloads take turns, seed by seed, so that a slow period of
the machine is spread over all of them.

A set is RUNS runs per workload (seeds 1, 2, ...), of which each metric's
median counts, as the driver compares medians. The default mode compares the
second set with the first: a metric that got worse by more than its bound is
a breach. `--spread` runs SPREAD_SEEDS seeds and reports the distance between
the first and third quartile of each metric as a share of its median, which
must stay within the bound (`setup_s` excepted) and should stay below a third
of it. The exit code is non-zero on any breach, failed check or failed run.
"""

import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNS = 3
SPREAD_SEEDS = 10


def run(spec, workload, seed):
    """One driver-style untraced run; returns its metrics by name."""
    command = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit code {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def run_set(spec, seeds):
    """Per workload and metric, the values of seeds 1..`seeds` in seed order."""
    names = [w["name"] for w in spec["workloads"]]
    values = {w: {m["name"]: [] for m in spec["end_to_end"]} for w in names}
    for seed in range(1, seeds + 1):
        print(f"  seed {seed}", file=sys.stderr)
        for w in names:
            for metric, value in run(spec, w, seed).items():
                values[w][metric].append(value)
    return values


def rows(spec):
    return ((m, w["name"]) for m in spec["end_to_end"] for w in spec["workloads"])


def repeat(spec):
    sets = []
    for n in (1, 2):
        print(f"set {n}", file=sys.stderr)
        sets.append(run_set(spec, RUNS))
    breaches = 0
    print("| metric | workload | first | second | worse by | bound | |")
    print("|---|---|---|---|---|---|---|")
    for metric, w in rows(spec):
        first, second = (statistics.median(s[w][metric["name"]]) for s in sets)
        worse = (second - first) / first * (1 if metric["better"] == "lower" else -1)
        breach = worse > metric["bound"]
        breaches += breach
        print(f"| {metric['name']} | {w} | {first:.6g} | {second:.6g} "
              f"| {100 * worse:+.2f}% | {100 * metric['bound']:.0f}% | {'BREACH' if breach else 'ok'} |")
    return breaches


def spread(spec):
    values = run_set(spec, SPREAD_SEEDS)
    breaches = 0
    print("| metric | workload | median | spread | bound | |")
    print("|---|---|---|---|---|---|")
    for metric, w in rows(spec):
        v = values[w][metric["name"]]
        print(f"  {w} {metric['name']}: {' '.join(f'{x:.5g}' for x in v)}", file=sys.stderr)
        q1, _, q3 = statistics.quantiles(v, n=4)
        share = (q3 - q1) / statistics.median(v)
        verdict = "ok"
        if metric["name"] == "setup_s":
            verdict = "not gated"
        elif share > metric["bound"]:
            verdict = "BREACH"
            breaches += 1
        elif share > metric["bound"] / 3:
            verdict = "above a third of the bound"
        print(f"| {metric['name']} | {w} | {statistics.median(v):.6g} | {100 * share:.2f}% "
              f"| {100 * metric['bound']:.0f}% | {verdict} |")
    return breaches


def main():
    if sys.argv[1:] not in ([], ["--spread"]):
        sys.exit(__doc__)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    breaches = spread(spec) if sys.argv[1:] else repeat(spec)
    if breaches:
        sys.exit(f"{breaches} breach(es)")


if __name__ == "__main__":
    main()
