"""One measured run of a workload, in a fresh interpreter started by run.py.

    python3 bench/worker.py --workload W --seed N --seconds S --trace 0|1
                            --dir RUN_DIR --result FILE [--setup-only]

Set-up imports vibrolang from the checkout's `src/` and writes the workload's
configs; the time at which it ends (time.monotonic, which run.py reads on the
same clock) goes into the result file.  The run then makes whole rounds of
the workload's CLI invocations, each through `vibrolang.cli.main`, and checks
every round's outputs.  With --trace 1, rounds alternate untraced and traced.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")


def setup(args):
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH)
    import vibrolang.cli  # noqa: F401  (the set-up being timed)

    import workloads

    pkg = os.path.dirname(os.path.abspath(sys.modules["vibrolang"].__file__))
    if os.path.commonpath([pkg, SRC]) != SRC:
        raise SystemExit(f"vibrolang was imported from {pkg}, not from {SRC}")
    work = workloads.build(args.workload, args.seed, workloads.load_presets(SRC))
    cfg_dir = os.path.join(args.dir, "configs")
    os.makedirs(cfg_dir, exist_ok=True)
    paths = []
    for inv in work.invocations:
        path = os.path.join(cfg_dir, inv.name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(inv.config, fh, indent=2, sort_keys=True)
        paths.append(path)
    return work, paths, time.monotonic()


def run_round(work, paths, out_dir):
    """All invocations of one round; returns (wall seconds, failed calls,
    bytes written)."""
    from vibrolang import cli

    shutil.rmtree(out_dir, ignore_errors=True)
    failed = 0
    start = time.perf_counter()
    for inv, path in zip(work.invocations, paths):
        rc = cli.main([inv.config["command"], "--config", path, "--format", inv.fmt,
                       "--out", os.path.join(out_dir, inv.name)])
        failed += rc != 0
    wall = time.perf_counter() - start
    written = sum(os.path.getsize(os.path.join(d, f))
                  for d, _, files in os.walk(out_dir) for f in files)
    return wall, failed, written


def run_checks(work, out_dir, verbose):
    import checks

    failed = 0
    for label, check in work.checks:
        try:
            detail = check(out_dir)
        except (checks.CheckFailed, OSError, KeyError, ValueError) as exc:
            failed += 1
            print(f"FAILED {label}: {exc!r}", file=sys.stderr)
            continue
        if verbose:
            print(f"ok {label}: {detail}", file=sys.stderr)
    return failed


def measure(args, work, paths):
    import selftest
    import tracing

    selftest.run(args.workload)
    out_dir = os.path.join(args.dir, "out")
    tracer = tracing.Tracer() if args.trace else None
    walls, traced_walls, layers = [], [], []
    written = 0
    attempted = failed = 0
    begin = time.perf_counter()
    longest = 0.0
    while True:
        traced = tracer is not None and len(walls) > len(traced_walls)
        round_start = time.perf_counter()
        if traced:
            first = len(tracer.spans)
            tracer.install()
            try:
                wall, bad, written = run_round(work, paths, out_dir)
            finally:
                tracer.uninstall()
            traced_walls.append(wall)
            layers.append(tracer.layer_metrics(first, wall))
        else:
            wall, bad, _ = run_round(work, paths, out_dir)
            walls.append(wall)
        attempted += len(paths) + len(work.checks)
        first_round = len(walls) + len(traced_walls) == 1
        failed += bad + run_checks(work, out_dir, verbose=first_round)
        longest = max(longest, time.perf_counter() - round_start)
        elapsed = time.perf_counter() - begin
        if elapsed + longest > args.seconds and (tracer is None or traced_walls):
            break
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "rounds": len(walls),
              "wall_s": statistics.median(walls),
              "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        per_layer = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        traced_wall = statistics.median(traced_walls)
        per_layer["trace.wall_s"] = traced_wall
        per_layer["trace.overhead_s"] = traced_wall - result["wall_s"]
        per_layer["cli.bytes_written"] = written
        result["per_layer"] = per_layer
        trace_file = os.path.join(BENCH, "out",
                                  f"trace-{args.workload}-seed{args.seed}.json")
        with open(trace_file, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "spans": tracer.dump()}, fh)
    return result


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    work, paths, ready = setup(args)
    result = {"ready": ready}
    if not args.setup_only:
        result.update(measure(args, work, paths))
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
