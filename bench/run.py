"""Run one benchmark workload against this checkout's stabgraph.

    python3 bench/run.py --workload script --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --self-test

Each request is one in-process ``stabgraph.cli.main(argv)`` call on files
generated from ``--seed``; one client sends the next request when the
previous one returns (a closed loop).  Whole rounds of requests run until
``--seconds`` have passed and every request type has at least 100 samples.
Outputs are checked after the timed pass.  With ``--trace 1`` the first
round then runs again under the span tracer for the per-layer metrics.
The last line of standard output is the result: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``).  The line before
it records the environment.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import env
import speed

SETUP_REPEATS = 5
PASS_CAP_S = 110  # stop a pass here even below the sample floor
WORK_DIR = env.ROOT / ".bench_work"  # input files, deleted after each run
OUT_DIR = env.ROOT / ".bench_out"  # run records and span dumps


def _is_package(name: str) -> bool:
    return name == "stabgraph" or name.startswith("stabgraph.")


def _import_seconds() -> float:
    """Time a fresh import of the package, numpy being loaded already.

    The modules imported here are discarded and the ones in use put back,
    so every reference the benchmark holds stays valid.
    """
    saved = {k: v for k, v in sys.modules.items() if _is_package(k)}
    for k in saved:
        del sys.modules[k]
    try:
        t0 = time.perf_counter()
        importlib.import_module("stabgraph")
        return time.perf_counter() - t0
    finally:
        for k in [k for k in sys.modules if _is_package(k)]:
            del sys.modules[k]
        sys.modules.update(saved)


class Runner:
    def __init__(self, cli, tracer=None) -> None:
        self.cli = cli
        self.tracer = tracer
        self.speed = speed.Speedometer()
        self._texts: dict = {}  # interned output texts: repeats share memory

    def request(self, req, rid: int = -1):
        """Run one request; return (start, seconds, exit code, stdout, output)."""
        if req.out:
            with contextlib.suppress(FileNotFoundError):
                os.remove(req.out)
        out, err = io.StringIO(), io.StringIO()
        rc = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if self.tracer:
                self.tracer.request = rid
            t0 = time.perf_counter()
            try:
                rc = self.cli.main(req.argv)
            except SystemExit as exc:  # argparse rejects its arguments
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # a crash is a failed request, not a failed run
                print(f"{type(exc).__name__}: {exc}", file=err)
            t1 = time.perf_counter()
            if self.tracer:
                self.tracer.request = -1
        output = None
        if req.out and os.path.exists(req.out):
            with open(req.out, encoding="utf-8") as fh:
                text = fh.read()
            output = self._texts.setdefault(text, text)
        return t0, t1 - t0, rc, out.getvalue() + err.getvalue(), output

    def run(self, wl, seconds: float, floor: int, max_rounds: int | None = None) -> tuple:
        """Whole rounds until ``seconds`` have passed and each type has
        ``floor`` samples, or ``max_rounds`` rounds; returns (samples, rounds).
        Sample times come out scaled to the reference machine speed."""
        from checks import Sample

        gc.collect()
        samples, starts, counts = [], [], Counter()
        t_start = time.perf_counter()
        rounds = 0
        while max_rounds is None or rounds < max_rounds:
            for req in wl.round_requests(rounds):
                self.speed.maybe_measure()
                start, *ran = self.request(req, len(samples))
                samples.append(Sample(rounds, req, *ran))
                starts.append(start)
                counts[req.kind] += 1
            rounds += 1
            elapsed = time.perf_counter() - t_start
            if elapsed >= PASS_CAP_S:
                break
            if elapsed >= seconds and min(counts[t] for t in wl.types) >= floor:
                break
        self.speed.measure()
        for s, start in zip(samples, starts):
            s.scale = self.speed.scale(start, start + s.seconds)
            s.raw_seconds = s.seconds
            s.seconds *= s.scale
        return samples, rounds


def _setup(name: str, seed: int, tmp: Path, runner: Runner):
    """Build the inputs and warm up, ``SETUP_REPEATS`` times, keeping the
    last workload; time a fresh-interpreter import as often.  Returns the
    workload, the build-and-warm-up times and the import times, scaled like
    request times."""
    import workloads

    builds, imports = [], []
    for rep in range(SETUP_REPEATS):
        workdir = tmp / f"setup{rep}"
        workdir.mkdir()
        runner.speed.measure()
        t0 = time.perf_counter()
        wl = workloads.build(name, seed, workdir)
        for req in wl.warmup:
            runner.request(req)
        t1 = time.perf_counter()
        took = _import_seconds()
        t2 = time.perf_counter()
        runner.speed.measure()
        builds.append((t1 - t0) * runner.speed.scale(t0, t1))
        imports.append(took * runner.speed.scale(t1, t2))
    return wl, builds, imports


def _metrics(values: dict, spec: list) -> dict:
    names = [m["name"] for m in spec]
    if set(names) != set(values):
        raise SystemExit(
            f"bench: metrics disagree with BENCHMARK.json: missing "
            f"{sorted(set(names) - set(values))}, extra {sorted(set(values) - set(names))}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def measure(name: str, seed: int, seconds: float, trace: bool, tmp: Path) -> tuple:
    import checks
    import metrics
    import tracing
    import workloads
    from stabgraph import cli

    runner = Runner(cli)
    wl, builds, imports = _setup(name, seed, tmp, runner)
    setup_s = statistics.median(builds) + statistics.median(imports)
    samples, rounds = runner.run(wl, seconds, workloads.MIN_PER_TYPE)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    t_check = time.perf_counter()
    checker = checks.Checker(wl.inputs)
    checker.check_all(samples)
    checked = list(samples)
    check_s = time.perf_counter() - t_check
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "env": env.describe(), "round": wl.sizes(), "rounds": rounds,
        "requests": dict(Counter(f"{s.req.kind}.n{s.req.n}" for s in samples)),
        "setup_build_s": builds,
        "setup_import_s": imports,
        "check_s": check_s,
        "raw": metrics.end_to_end(
            [dataclasses.replace(s, seconds=s.raw_seconds) for s in samples], 0.0, peak_rss_mb),
        "speed_loop_ms": dict(zip(("q1", "median", "q3"), (
            q * 1e3 for q in statistics.quantiles(runner.speed.took, n=4)))),
    }
    if not trace:
        values = metrics.end_to_end(samples, setup_s, peak_rss_mb)
    else:
        tracer = tracing.Tracer()
        runner.tracer = tracer
        with tracer:
            # One round: the same requests as the first untraced round.
            traced, _ = runner.run(wl, 0, floor=0, max_rounds=1)
        checker.check_all(traced)
        checked += traced
        values = metrics.layers(tracer, traced, samples, rounds=1)
        values.update(metrics.by_type(samples))
        tracer.dump(OUT_DIR / f"spans-{name}.npz")
    failures = [(s.req.kind, s.req.n, s.req.argv[:2], s.error) for s in checked if s.error]
    record["failures"] = failures[:10]
    return values, checked, record


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=("script", "decide", "verify"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true",
                   help="check that every checker rejects a corrupted output, then exit")
    args = p.parse_args(argv)
    if not args.self_test and args.workload is None:
        p.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    env.ensure_stabgraph()
    spec = json.loads((env.ROOT / "BENCHMARK.json").read_text())
    if args.self_test:
        import checks

        results = checks.self_test(args.seed)
        for label, passed in results:
            print(f"{label:<28} {'ok' if passed else 'NOT CAUGHT'}")
        return 0 if all(p for _, p in results) else 1

    WORK_DIR.mkdir(exist_ok=True)
    OUT_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=WORK_DIR))
    try:
        values, checked, record = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    failed = sum(s.error is not None for s in checked)
    result = {
        "correct": failed == 0,
        "attempted": len(checked),
        "failed": failed,
        "metrics": _metrics(values, spec["per_layer" if args.trace else "end_to_end"]),
    }
    record["result"] = result
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    for kind, n, argv, error in record["failures"]:
        print(f"bench: FAILED {kind} n={n} {argv}: {error}", file=sys.stderr)
    print(json.dumps({"record": str(path.relative_to(env.ROOT)), "env": record["env"],
                      "round": record["round"], "requests": record["requests"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
