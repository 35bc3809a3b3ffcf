"""Paired benchmark runs of two source trees, one command per claim.

    python3 scripts/bench_pairs.py PARENT_TREE CHANGE_TREE --workload W [W ..]
                                   --pairs N --seconds S --out FILE
                                   [--first-seed K]

For each workload, pair i runs `bench/run.py --trace 0` once in each tree,
on seed K + i; the parent goes first in even pairs and the change in odd
ones, so slow drift in the machine's speed falls on both sides alike.
Each tree runs its own `bench/run.py` on its own `src/`.  FILE gets one
JSON object: per workload, whether every run was correct, the summed
attempted and failed operations, the seeds and, per end-to-end metric,
each side's median and quartiles, the pairs where the change read better,
ties, the ratio of the medians and the raw runs.  A run that fails stops
the tool before FILE is written.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


def run_once(tree, workload, seed, seconds):
    """The result line of one untraced `bench/run.py` run in `tree`."""
    cmd = [sys.executable, os.path.join("bench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=tree, check=True, capture_output=True,
                          text=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(xs):
    """(q1, median, q3); statistics.quantiles, exclusive method."""
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def summarize(runs, better):
    """One workload's entry from its pairs of results {side: result}."""
    entry = {
        "correct": {s: all(p[s]["correct"] is True for p in runs)
                    for s in SIDES},
        "failed": {s: sum(p[s]["failed"] for p in runs) for s in SIDES},
        "attempted": {s: sum(p[s]["attempted"] for p in runs) for s in SIDES},
        "metrics": {},
    }
    for name, metric in runs[0]["parent"]["metrics"].items():
        values = {s: [p[s]["metrics"][name]["value"] for p in runs]
                  for s in SIDES}
        out = {"unit": metric["unit"]}
        for s in SIDES:
            q1, med, q3 = quartiles(values[s])
            out.update({f"{s}_median": med, f"{s}_q1": q1, f"{s}_q3": q3})
        sign = -1.0 if better.get(name, "lower") == "lower" else 1.0
        diffs = [sign * (c - p)
                 for p, c in zip(values["parent"], values["change"])]
        out["change_better_pairs"] = sum(d > 0 for d in diffs)
        out["ties"] = sum(d == 0 for d in diffs)
        out["change_over_parent"] = (out["change_median"]
                                     / out["parent_median"]
                                     if out["parent_median"] else None)
        for s in SIDES:
            out[f"{s}_runs"] = values[s]
        entry["metrics"][name] = out
    return entry


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", metavar="PARENT_TREE")
    parser.add_argument("change", metavar="CHANGE_TREE")
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    trees = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    with open(os.path.join(trees["change"], "BENCHMARK.json"),
              encoding="utf-8") as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}

    seeds = list(range(args.first_seed, args.first_seed + args.pairs))
    report = {
        "command": ("python3 bench/run.py --workload W --seed S "
                    f"--seconds {args.seconds:g} --trace 0"),
        "machine": (f"{os.cpu_count()}-core {platform.machine()}, "
                    f"Python {platform.python_version()}"),
        "order": "parent first on even pairs, change first on odd ones",
        "fields": ("median and quartiles (q1, q3; statistics.quantiles, "
                   "exclusive method) of each side's runs; "
                   "change_better_pairs counts the pairs where the change "
                   "read better; change_over_parent is the ratio of the "
                   "medians"),
        "workloads": {},
    }
    for workload in args.workload:
        runs = []
        for i, seed in enumerate(seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {s: run_once(trees[s], workload, seed, args.seconds)
                    for s in order}
            runs.append(pair)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{s} wall_s {pair[s]['metrics']['wall_s']['value']:.4g}"
                for s in order), file=sys.stderr)
        entry = summarize(runs, better)
        entry["seeds"] = seeds
        report["workloads"][workload] = entry
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
