#!/usr/bin/env python3
"""Reproduce every bundled figure preset through the CLI.

Writes CSV (and SVG) artifacts plus a manifest per preset under --out.
--seed goes to the chain presets (relaxation and collective), the only
ones whose runs read it.  Pass --only to run a subset, e.g.:

    python scripts/reproduce_figures.py --out out/figures --only fig5a fig6c
"""

import argparse
import json
import os
import sys
import tempfile
import time
from importlib import resources

from vibrolang.cli import SEEDED, load_preset
from vibrolang.cli import main as cli_main

# every preset bundled with the package, so a new one cannot be missed
PRESETS = sorted(
    entry.name[:-len(".json")]
    for entry in (resources.files("vibrolang") / "presets").iterdir()
    if entry.name.endswith(".json"))


def run(out_root, names, fmt, seed):
    failures = []
    with tempfile.TemporaryDirectory() as cfg_dir:
        for name in names:
            cfg_path = os.path.join(cfg_dir, f"{name}.json")
            with open(cfg_path, "w", encoding="utf-8") as fh:
                json.dump({"command": "preset", "name": name}, fh)
            argv = ["preset", "--config", cfg_path,
                    "--out", f"{out_root}/{name}", "--format", fmt]
            if seed is not None and load_preset(name)["command"] in SEEDED:
                argv += ["--seed", str(seed)]
            t0 = time.time()
            rc = cli_main(argv)
            status = "ok" if rc == 0 else f"exit {rc}"
            print(f"{name}: {status} ({time.time() - t0:.1f}s)")
            if rc != 0:
                failures.append(name)
    return failures


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="out/figures")
    ap.add_argument("--format", default="csv+svg",
                    choices=["csv", "csv+svg"])
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--only", nargs="*", default=None,
                    help="subset of preset names (default: all)")
    args = ap.parse_args()
    names = args.only if args.only else PRESETS
    unknown = [n for n in names if n not in PRESETS]
    if unknown:
        sys.exit(f"unknown presets: {', '.join(unknown)}")
    bad = run(args.out, names, args.format, args.seed)
    sys.exit(1 if bad else 0)
