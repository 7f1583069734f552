"""The ranksat benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload runs in a child process
(`workloads.py`) that imports ranksat from the checkout's `src/`; this
process starts it, so that `setup_s` is timed from the child's start, and
prints one JSON object as the last line of standard output:

    {"correct": .., "attempted": .., "failed": .., "metrics": {name: {value, unit}}}

With --trace 0 the metrics are the end-to-end ones (setup_s, verify_s,
peak_rss_mb); with --trace 1 the per-layer ones listed in BENCHMARK.json.
Exits non-zero, printing no result, when the program cannot be run.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD_TIMEOUT_S = 170

END_TO_END_UNITS = {"setup_s": "s", "verify_s": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("saturation", "identities", "delta-q64", "search"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "ranksat", "__init__.py")):
        print(f"error: no ranksat source under {src}", file=sys.stderr)
        return 2

    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0")
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--root", ROOT]
    spawned = time.monotonic()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            print(f"error: workload did not finish in {CHILD_TIMEOUT_S} s", file=sys.stderr)
            return 3
    if proc.returncode != 0:
        print(f"error: workload process exited with {proc.returncode}", file=sys.stderr)
        return proc.returncode if proc.returncode > 0 else 4
    lines = out.strip().splitlines()
    child = json.loads(lines[-1])

    if args.trace:
        units = per_layer_units()
        metrics = {name: {"value": child["per_layer"][name], "unit": unit}
                   for name, unit in units.items()}
    else:
        values = {"setup_s": child["setup_done"] - spawned,
                  "verify_s": child["verify_s"],
                  "peak_rss_mb": child["peak_rss_mb"]}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    print(f"rounds: {child['rounds']}, round times: "
          + ", ".join(f"{t:.3f}" for t in child["round_s"]), file=sys.stderr)
    print(json.dumps({"correct": child["correct"], "attempted": child["attempted"],
                      "failed": child["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
