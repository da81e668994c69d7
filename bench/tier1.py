"""Time the tier-1 test command once and list its ten slowest tests.

    python3 bench/tier1.py

Informational only: it is not one of the benchmark's gated runs and its
figures are not metrics.  It runs the tier-1 command from ROADMAP.md with
``--durations=10`` added and prints the wall time, the pytest summary line
and the slowest tests, then one JSON line with the same facts.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time

import env

_DURATION = re.compile(r"\d+\.\d+s (setup|call|teardown) ")
COMMAND = ["-m", "pytest", "-q", "--continue-on-collection-errors", "--durations=10"]


def main() -> int:
    pythonpath = os.pathsep.join(filter(None, [str(env.SRC), os.environ.get("PYTHONPATH")]))
    t0 = time.perf_counter()
    res = subprocess.run([sys.executable, *COMMAND], cwd=env.ROOT, capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": pythonpath}, timeout=1800)
    wall = time.perf_counter() - t0
    lines = res.stdout.splitlines()
    slowest, summary = [], lines[-1] if lines else ""
    if any("slowest" in line for line in lines):
        start = next(i for i, line in enumerate(lines) if "slowest" in line) + 1
        for line in lines[start:]:
            if not line.strip() or line.startswith("="):
                break
            if _DURATION.match(line):
                slowest.append(line.strip())
    print(f"tier-1 wall time: {wall:.1f} s (exit code {res.returncode})")
    print(summary)
    print("\n".join(slowest))
    print(json.dumps({"tier1_wall_s": wall, "exit_code": res.returncode, "summary": summary,
                      "slowest": slowest, "env": env.describe()}))
    return res.returncode


if __name__ == "__main__":
    sys.exit(main())
