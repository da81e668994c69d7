"""Run a workload under several seeds and report each metric's spread.

    python3 bench/spread.py --workload decide --seeds 1-10 [--trace 0]

For every metric it prints the median of the runs and the distance between
the first and third quartiles as a share of that median, next to the bound
BENCHMARK.json fixes for it.  Runs are sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--seconds", type=int)
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bench = spec["command"]
    seconds = args.seconds or spec["run_seconds"]
    runs, ok = [], True
    for seed in _seeds(args.seeds):
        cmd = bench + ["--workload", args.workload, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", str(args.trace)]
        res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
        if res.returncode != 0:
            print(res.stderr, file=sys.stderr)
            return 1
        result = json.loads(res.stdout.splitlines()[-1])
        ok &= result["correct"]
        runs.append({k: v["value"] for k, v in result["metrics"].items()})
        print(f"seed {seed}: " + " ".join(f"{k}={v:.4g}" for k, v in runs[-1].items()
                                          if args.trace == 0), flush=True)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"{'metric':<44} {'median':>12} {'spread':>8} {'bound':>6}")
    for name in runs[0]:
        values = [r[name] for r in runs]
        med = statistics.median(values)
        if len(values) >= 2 and med:
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = f"{(q3 - q1) / med:8.4f}"
        else:
            spread = f"{'-':>8}"
        bound = bounds.get(name)
        print(f"{name:<44} {med:12.5g} {spread} {bound if bound is not None else '':>6}")
    print("all runs correct" if ok else "SOME RUNS INCORRECT")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
