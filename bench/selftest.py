"""Self-test of the benchmark's checks: each must accept the program's real
output and reject a wrong answer, so that no check is vacuous.

    python3 bench/selftest.py

Run from the root of a source checkout. Prints one line per case and exits
1 if any check accepts a wrong answer or rejects a right one.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import eivreg  # noqa: E402
from eivreg import io_cli  # noqa: E402
from reference import (  # noqa: E402
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
from run import Tally  # noqa: E402
from workloads import Outcome  # noqa: E402

failures = 0


def expect(label: str, errors: list[str], *, rejected: bool) -> None:
    global failures
    ok = bool(errors) == rejected
    failures += not ok
    verdict = "rejects" if rejected else "accepts"
    print(f"{'PASS' if ok else 'FAIL'}  {verdict:8s}{label}"
          + (f"  ({errors[0]})" if errors and ok else ""))


def array_cases() -> None:
    """check_estimates on library fits, for both model kinds and shapes."""
    for intercept in (True, False):
        for dense in (False, True):
            inst = make_instance(np.random.default_rng([9, intercept, dense]), 3, 2, 200,
                                 intercept=intercept, dense_sigma0=dense)
            kind = eivreg.ModelKind.INTERCEPT if intercept else eivreg.ModelKind.NO_INTERCEPT
            data = eivreg.ObservedData(inst.x1, inst.x2)
            spec = eivreg.ModelSpec(kind=kind, sigma0=inst.sigma0)
            res = eivreg.fit(data, spec)
            ref = reference_fit(inst, inst.sigma0)
            good = dict(b=res.b_hat, alpha=res.alpha_hat, olse=res.olse_objective,
                        glse=res.glse_objective, u1=res.u1_hat, u2=res.u2_hat)
            tag = f"[{kind.value}, {'dense' if dense else 'identity'} sigma0]"

            def case(**wrong):
                return check_estimates(ref, **{**good, **wrong})

            expect(f"fit {tag}", case(), rejected=False)
            expect(f"slope x (1 + 1e-6) {tag}",
                   case(b=res.b_hat * (1 + 1e-6)), rejected=True)
            for name in ("olse", "glse"):
                expect(f"{name} missing one trailing eigenvalue {tag}",
                       case(**{name: good[name] - ref.trailing.min()}), rejected=True)
            if intercept:
                legacy = eivreg.legacy_means(data, spec)
                expect(f"legacy means as u1_hat {tag}", case(u1=legacy), rejected=True)
                expect(f"u2 from legacy means {tag}",
                       case(u2=res.alpha_hat[:, None] + res.b_hat @ legacy),
                       rejected=True)


def report_cases(work: Path) -> None:
    """check_fit_report and check_certified on a real `eivreg fit` report."""
    inst = make_instance(np.random.default_rng(11), 3, 2, 300, intercept=True,
                         dense_sigma0=True)
    dataset, shape, out = work / "d.csv", work / "s.csv", work / "r.json"
    write_csv(dataset, inst.x, dataset_header(3, 2))
    write_csv(shape, inst.sigma0, None)
    code = io_cli.main(["fit", "--input", str(dataset), "--intercept", "--sigma0", str(shape),
                        "--emit-means", "--legacy-means", "--verify", "--output", str(out)])
    report = json.loads(out.read_text(encoding="utf-8"))
    ref = reference_fit(inst, inst.sigma0)
    checksum = file_checksum(dataset)

    def checked(rep):
        return check_fit_report(rep, ref, checksum, means=True) + check_certified(rep, ref)

    expect("eivreg fit --verify report", checked(report) + ([] if code == 0 else ["exit"]),
           rejected=False)

    def mutated(edit):
        rep = copy.deepcopy(report)
        edit(rep)
        return checked(rep)

    def slope(rep):
        rep["estimates"]["b_hat"]["data"] = [[v * (1 + 1e-6) for v in row]
                                             for row in rep["estimates"]["b_hat"]["data"]]

    def objectives(rep):
        rep["objectives"]["olse"] -= float(ref.trailing.min())

    def legacy_means(rep):
        rep["means"]["u1_hat"] = copy.deepcopy(rep["legacy_means"]["u1_hat"])

    def checksum_edit(rep):
        rep["input_checksum"] = "sha256:" + "0" * 64

    def oracle_failed(rep):
        rep["oracle"]["passed"] = False

    def no_excess(rep):
        rep["oracle"]["legacy_objective_excess"] = 0.0

    def uneven_shift(rep):
        rep["legacy_means"]["u1_hat"]["data"][0][5] += 1e-3

    for label, edit in [
        ("report slope x (1 + 1e-6)", slope),
        ("report olse missing one trailing eigenvalue", objectives),
        ("report legacy means as u1_hat", legacy_means),
        ("report with a wrong input_checksum", checksum_edit),
        ("report with oracle.passed false", oracle_failed),
        ("report with legacy_objective_excess 0", no_excess),
        ("report whose mean shift varies by column", uneven_shift),
    ]:
        expect(label, mutated(edit), rejected=True)

    tally = Tally()

    class Failing:
        def check(self, outcome):
            return []

    tally.run(Failing(), lambda: (0.1, Outcome(3)))
    expect("an op that exits 3 (counted as failed)", ["failed"] if tally.failed else [],
           rejected=True)


def sweep_cases(work: Path) -> None:
    """check_sweep on a real `eivreg simulate` table and summary."""
    from workloads import SimulateSweep

    grid, reps = SimulateSweep.grid, SimulateSweep.reps
    table = work / "sweep.csv"
    code = io_cli.main(["simulate", "--intercept", "--p", "3", "--r", "2", "--sigma", "0.1",
                        "--n-grid", ",".join(map(str, grid)), "--reps", str(reps),
                        "--seed", "5", "--output", str(table)])
    text = table.read_text(encoding="utf-8")
    summary = json.loads((work / "sweep.csv.json").read_text(encoding="utf-8"))
    expect("eivreg simulate sweep", check_sweep(text, summary, grid, reps)
           + ([] if code == 0 else ["exit"]), rejected=False)

    def mutated(edit, table_text=text):
        rep = copy.deepcopy(summary)
        edit(rep)
        return check_sweep(table_text, rep, grid, reps)

    def skipped(rep):
        rep["skipped"] = 1

    def rising(rep):
        rep["b_error_median"][-1] = rep["b_error_median"][-2] * 1.01

    def legacy_better(rep):
        rep["u1_rmse_legacy"][0] = rep["u1_rmse_corrected"][0]

    expect("sweep with skipped = 1", mutated(skipped), rejected=True)
    expect("sweep whose b_error_median rises", mutated(rising), rejected=True)
    expect("sweep whose legacy RMSE is not above corrected", mutated(legacy_better),
           rejected=True)
    last = summary["u1_rmse_corrected"][-1]
    edited = text.replace(repr(last), repr(float(np.nextafter(last, 1.0))))
    expect("sweep table one ulp off the summary", mutated(lambda rep: None, edited),
           rejected=True)


def main() -> int:
    work = HERE / "out" / f"selftest-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        array_cases()
        report_cases(work)
        sweep_cases(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{failures} case(s) failed" if failures else "all checks reject wrong answers")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
