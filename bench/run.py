"""vibrolang benchmark: one run of one workload, from the root of a checkout.

    python3 bench/run.py --workload chain|wing|cavity|lines --seed N
                         --seconds S --trace 0|1

Each run starts fresh interpreters (bench/worker.py): SETUP_PROBES of them
only import vibrolang and write the workload's configs, to time set-up; one
more does the same and then measures whole rounds of the workload through
`vibrolang.cli.main` for about S seconds, checking every round's outputs.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: with --trace 0 the end-to-end metrics
(setup_s, wall_s, peak_rss_mib), with --trace 1 the per-layer metrics of the
traced rounds (see README.md).  A run that cannot finish exits non-zero
without printing that line.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("chain", "wing", "cavity", "lines")
SETUP_PROBES = 2
# the whole run must end within 180 s
TIMEOUT_S = 170.0

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mib": "MiB"}


def spawn(args, run_dir, tag, setup_only, deadline):
    """Run worker.py in a fresh interpreter; returns (its result, set-up
    time from spawn to the end of its set-up)."""
    result_file = os.path.join(run_dir, f"{tag}.json")
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--dir", os.path.join(run_dir, tag), "--result", result_file]
    if setup_only:
        cmd.append("--setup-only")
    start = time.monotonic()
    subprocess.run(cmd, cwd=ROOT, check=True, stdout=sys.stderr,
                   timeout=max(1.0, deadline - start))
    with open(result_file, encoding="utf-8") as fh:
        result = json.load(fh)
    return result, result["ready"] - start


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "vibrolang", "cli.py")):
        print(f"error: no vibrolang source under {ROOT}/src", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIMEOUT_S
    out_root = os.path.join(BENCH, "out")
    run_dir = os.path.join(out_root, f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
    os.makedirs(run_dir)
    try:
        setups = [spawn(args, run_dir, f"setup{i}", True, deadline)[1]
                  for i in range(SETUP_PROBES)]
        result, setup = spawn(args, run_dir, "run", False, deadline)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"error: worker failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    setups.append(setup)

    if args.trace:
        from tracing import PER_LAYER

        metrics = {name: {"value": result["per_layer"][name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        values = {"setup_s": statistics.median(setups),
                  "wall_s": result["wall_s"],
                  "peak_rss_mib": result["peak_rss_mib"]}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(f"{args.workload} seed {args.seed}: {result['rounds']} untraced rounds, "
          f"set-up samples {', '.join(f'{s:.3f}' for s in setups)} s")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
