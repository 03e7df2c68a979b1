"""Benchmark of eivreg: one workload per invocation, one JSON result line.

    python3 bench/run.py --workload fit_arrays --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. With ``--trace 0`` the end-to-end metrics are measured (rows_per_s,
peak_mb, setup_s); with ``--trace 1`` the same operations run in-process,
alternating untraced and traced, and the per-layer metrics are reported.
Every operation's outputs are checked against an independent reference. The
last line of standard output is the result object; diagnostics go to stderr.
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
import tracemalloc
from pathlib import Path

from tracing import Tracer, instrument, layer_metrics
from workloads import WORKLOADS, run_child

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

# Fresh interpreters started per run to time `import eivreg.io_cli`.
SETUP_REPEATS = 9
IMPORT_CHILD = "import eivreg.io_cli"
TIMED_IMPORT_CHILD = (
    "import time; t = time.perf_counter(); import eivreg.io_cli; "
    "print(time.perf_counter() - t)"
)
# Peak RSS growth of a fresh interpreter while it parses one dataset.
READ_PEAK_CHILD = (
    "import resource, sys; from eivreg import io_cli; "
    "rss = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss; "
    "base = rss(); io_cli.read_dataset(sys.argv[1]); print((rss() - base) * 1024 / 1e6)"
)


class Tally:
    """Operations attempted and failed, and the check failures of the rest."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, workload, op):
        """Run and check one op; returns (wall time, outcome), or Nones if it failed."""
        self.attempted += 1
        try:
            elapsed, outcome = op()
        except Exception as exc:  # a crashing op is a failed op; keep measuring
            self.failed += 1
            print(f"op failed: {exc!r}", file=sys.stderr)
            return None, None
        if outcome.code != 0:
            self.failed += 1
            print(f"op failed: exit code {outcome.code}", file=sys.stderr)
            return None, None
        self.errors += workload.check(outcome)
        return elapsed, outcome

    def result(self, metrics: dict) -> dict:
        for message in self.errors[:10]:
            print(f"check failed: {message}", file=sys.stderr)
        return {"correct": not self.errors, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}


def child_seconds(code: str, env: dict, workdir: Path) -> float:
    elapsed, status, _ = run_child(["-c", code], env, workdir / "import-stderr.txt")
    if status != 0:
        raise RuntimeError(f"`python3 -c {code!r}` exited with {status}")
    return elapsed


def child_output(env: dict, *argv: str) -> float:
    """The number a Python child prints, e.g. a time it measured itself."""
    out = subprocess.run([sys.executable, *argv], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    return float(out.stdout.strip())


def timed_run(workload, seconds: int, env: dict, workdir: Path) -> dict:
    tally = Tally()
    child_seconds(IMPORT_CHILD, env, workdir)  # compiles bytecode once, untimed
    setup = [child_seconds(IMPORT_CHILD, env, workdir) + workload.setup_sample()
             for _ in range(SETUP_REPEATS)]
    tally.run(workload, workload.op)  # warm-up
    times, peaks = [], []
    deadline = time.perf_counter() + seconds
    while True:
        started = time.perf_counter()
        elapsed, outcome = tally.run(workload, workload.op)
        if elapsed is not None:
            times.append(elapsed)
            peaks.append(outcome.maxrss_mb)
        # stop before an op that would end past the deadline
        now = time.perf_counter()
        if now + (now - started) > deadline:
            break
    if workload.name == "fit_arrays":
        # in-process op: tracemalloc peak of one extra, untimed op
        tracemalloc.start()
        try:
            tally.run(workload, workload.op)
            peak_mb = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()
    else:
        peak_mb = statistics.median(peaks) if peaks else 0.0
    rows_per_s = workload.rows_per_op / statistics.median(times) if times else 0.0
    return tally.result({
        "rows_per_s": {"value": rows_per_s, "unit": "rows/s"},
        "peak_mb": {"value": peak_mb, "unit": "MB"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
    })


def traced_run(workload, seconds: int, env: dict, seed: int) -> dict:
    tally = Tally()
    import_s = statistics.median(child_output(env, "-c", TIMED_IMPORT_CHILD)
                                 for _ in range(SETUP_REPEATS))
    read_peak_mb = (child_output(env, "-c", READ_PEAK_CHILD, str(workload.dataset))
                    if workload.dataset else 0.0)
    tally.run(workload, workload.op_inprocess)  # warm-up
    tracer = Tracer()
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while True:
        started = time.perf_counter()
        elapsed, _ = tally.run(workload, workload.op_inprocess)
        if elapsed is not None:
            plain.append(elapsed)
        instrument(tracer)
        try:
            elapsed, _ = tally.run(workload, workload.op_inprocess)
        finally:
            tracer.close()
        if elapsed is not None:
            traced.append(elapsed)
        now = time.perf_counter()
        if now + (now - started) > deadline:
            break
    peak_tracer = Tracer(peaks=True)
    instrument(peak_tracer)
    try:
        tally.run(workload, workload.op_inprocess)
    finally:
        peak_tracer.close()
    tracer.write(OUT / f"spans-{workload.name}-seed{seed}.json")
    overhead = (statistics.median(traced) / statistics.median(plain) - 1.0
                if plain and traced else 0.0)
    return tally.result(layer_metrics(tracer, peak_tracer, max(len(traced), 1),
                                      import_s=import_s, read_peak_mb=read_peak_mb,
                                      overhead=overhead))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "eivreg" / "__init__.py").is_file():
        print(f"error: no eivreg sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir, env)
        if args.trace:
            result = traced_run(workload, args.seconds, env, args.seed)
        else:
            result = timed_run(workload, args.seconds, env, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
