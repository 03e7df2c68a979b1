"""The four benchmark workloads: inputs, one operation, and its checks.

Each workload draws its inputs from ``numpy.random.default_rng([index, seed])``
and computes its reference before any timing. ``op`` runs one operation the
way a user would (in-process for ``fit_arrays``, the ``eivreg`` entry point as
a child process for the others) and returns its own wall time, so file
preparation stays outside the timed interval. ``op_inprocess`` runs the same
operation inside this interpreter, which the traced run needs. ``check``
returns the failures found in an operation's outputs.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from reference import (
    check_certified,
    check_estimates,
    check_fit_report,
    check_sweep,
    dataset_header,
    file_checksum,
    make_instance,
    reference_fit,
    write_csv,
)

# Same code path as the installed ``eivreg`` console script.
ENTRY_POINT = "import sys; from eivreg.io_cli import main; sys.exit(main())"

# A child that has not finished by then is killed, and its op fails.
CHILD_TIMEOUT_S = 60.0


@dataclass
class Outcome:
    """What one operation left behind: exit code, child peak RSS, results."""

    code: int
    maxrss_mb: float = 0.0
    results: tuple = ()


def run_child(argv: list[str], env: dict, stderr_path: Path) -> tuple[float, int, float]:
    """Run a Python child to its end; returns (wall s, exit code, max RSS in MB)."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], env=env,
                                stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux
    return elapsed, proc.returncode, usage.ru_maxrss * 1024 / 1e6


class FitArrays:
    """``eivreg.fit`` twice per op on in-memory (3,2) data, n = 10^6."""

    name = "fit_arrays"
    dataset = None
    n = 1_000_000

    def __init__(self, seed: int, workdir: Path, env: dict):
        self.inst = make_instance(np.random.default_rng([1, seed]), 3, 2, self.n,
                                  intercept=True, dense_sigma0=True)
        self.refs = (reference_fit(self.inst, None), reference_fit(self.inst, self.inst.sigma0))
        self.rows_per_op = 2 * self.n
        self.data, self.specs = self._build()

    def _build(self):
        import eivreg

        data = eivreg.ObservedData(self.inst.x1, self.inst.x2)
        kind = eivreg.ModelKind.INTERCEPT
        specs = (eivreg.ModelSpec(kind=kind),
                 eivreg.ModelSpec(kind=kind, sigma0=self.inst.sigma0))
        return data, specs

    def setup_sample(self) -> float:
        """Seconds to build the library's inputs from the generated arrays."""
        start = time.perf_counter()
        self._build()
        return time.perf_counter() - start

    def op(self) -> tuple[float, Outcome]:
        from eivreg import estimators

        start = time.perf_counter()
        results = tuple(estimators.fit(self.data, spec) for spec in self.specs)
        return time.perf_counter() - start, Outcome(0, results=results)

    op_inprocess = op

    def check(self, outcome: Outcome) -> list[str]:
        errors = []
        for ref, res in zip(self.refs, outcome.results):
            errors += check_estimates(ref, b=res.b_hat, alpha=res.alpha_hat,
                                      olse=res.olse_objective, glse=res.glse_objective,
                                      u1=res.u1_hat, u2=res.u2_hat)
        return errors


class CliWorkload:
    """One ``eivreg`` command per op, as a child process or in-process."""

    name = ""
    dataset: Path | None = None
    outputs: tuple[Path, ...] = ()
    argv: list[str] = []

    def __init__(self, workdir: Path, env: dict):
        self.workdir = workdir
        self.env = env

    def setup_sample(self) -> float:
        return 0.0

    def _clear(self) -> None:
        for path in self.outputs:
            path.unlink(missing_ok=True)

    def op(self) -> tuple[float, Outcome]:
        self._clear()
        elapsed, code, maxrss_mb = run_child(["-c", ENTRY_POINT, *self.argv], self.env,
                                             self.workdir / "stderr.txt")
        return elapsed, Outcome(code, maxrss_mb=maxrss_mb)

    def op_inprocess(self) -> tuple[float, Outcome]:
        from eivreg import io_cli

        self._clear()
        start = time.perf_counter()
        code = io_cli.main(list(self.argv))
        return time.perf_counter() - start, Outcome(code)


class CliFit(CliWorkload):
    """``eivreg fit`` on a generated CSV dataset, report written to a file."""

    index = 0
    n = 0
    intercept = False
    dense_sigma0 = False
    flags: tuple[str, ...] = ()

    def __init__(self, seed: int, workdir: Path, env: dict):
        super().__init__(workdir, env)
        inst = make_instance(np.random.default_rng([self.index, seed]), 3, 2, self.n,
                             intercept=self.intercept, dense_sigma0=self.dense_sigma0)
        self.dataset = dataset = workdir / "data.csv"
        write_csv(dataset, inst.x, dataset_header(3, 2))
        self.checksum = file_checksum(dataset)
        self.ref = reference_fit(inst, inst.sigma0)
        self.rows_per_op = self.n
        report = workdir / "report.json"
        self.outputs = (report,)
        self.argv = ["fit", "--input", str(dataset),
                     "--intercept" if self.intercept else "--no-intercept"]
        if inst.sigma0 is not None:
            shape = workdir / "sigma0.csv"
            write_csv(shape, inst.sigma0, None)
            self.argv += ["--sigma0", str(shape)]
        self.argv += [*self.flags, "--output", str(report)]

    def _report(self) -> dict:
        with open(self.outputs[0], encoding="utf-8") as handle:
            return json.load(handle)


class FitCsv(CliFit):
    """``eivreg fit --no-intercept`` on a 2*10^5-row (3,2) CSV."""

    name = "fit_csv"
    index = 2
    n = 200_000

    def check(self, outcome: Outcome) -> list[str]:
        return check_fit_report(self._report(), self.ref, self.checksum, means=False)


class FitCertified(CliFit):
    """``eivreg fit`` with a dense Sigma0, means, legacy means and the oracle."""

    name = "fit_certified"
    index = 3
    n = 20_000
    intercept = True
    dense_sigma0 = True
    flags = ("--emit-means", "--legacy-means", "--verify")

    def check(self, outcome: Outcome) -> list[str]:
        report = self._report()
        return (check_fit_report(report, self.ref, self.checksum, means=True)
                + check_certified(report, self.ref))


class SimulateSweep(CliWorkload):
    """``eivreg simulate --intercept`` over a small-n grid with many replicates."""

    name = "simulate_sweep"
    grid = [20, 50, 200, 1000]
    reps = 300

    def __init__(self, seed: int, workdir: Path, env: dict):
        super().__init__(workdir, env)
        sweep_seed = int(np.random.default_rng([4, seed]).integers(0, 2**31))
        table = workdir / "sweep.csv"
        self.outputs = (table, workdir / "sweep.csv.json")
        self.rows_per_op = self.reps * sum(self.grid)
        self.argv = ["simulate", "--intercept", "--p", "3", "--r", "2", "--sigma", "0.1",
                     "--n-grid", ",".join(map(str, self.grid)), "--reps", str(self.reps),
                     "--seed", str(sweep_seed), "--output", str(table)]

    def check(self, outcome: Outcome) -> list[str]:
        table, summary = self.outputs
        with open(summary, encoding="utf-8") as handle:
            payload = json.load(handle)
        return check_sweep(table.read_text(encoding="utf-8"), payload, self.grid, self.reps)


WORKLOADS = {w.name: w for w in (FitArrays, FitCsv, FitCertified, SimulateSweep)}
