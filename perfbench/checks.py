"""Output checks.  Each returns a list of problems; an empty list means correct.

They are pure functions of the outputs so the tests in this directory can
show that each one rejects a deliberately perturbed output.
"""

from __future__ import annotations

import csv
import io
import math

#: slack on exact <= eps_max and on the enumeration cross-check
SWEEP_TOL = 1e-9

#: slack on bound <= exact, as in acceptance criterion 3: where both equal
#: log 4 to 15 digits the two evaluations differ by float rounding
BOUND_SLACK = 1e-12

#: largest |pml - reference| accepted on the large-n outcomes, in nats
DENSITY_TOL = 1e-9

#: slack above the cap log(1/alpha), as in LeakageReport and criterion 3
CAP_SLACK = 1e-9

#: tolerance every adversary-trial report must be judged at
ORACLE_TOL = 1e-12

LOG_FOUR = math.log(4.0)


def check_bytes(actual: bytes, expected: bytes, what: str) -> list[str]:
    if actual == expected:
        return []
    return [f"{what}: bytes differ from the committed artifact "
            f"({len(actual)} vs {len(expected)} bytes)"]


def check_sweep_rows(text: str) -> list[str]:
    """bound <= exact <= eps_max and |exact - enum| <= SWEEP_TOL on every row."""
    rows = list(csv.DictReader(line for line in io.StringIO(text)
                               if not line.startswith("#")))
    if not rows:
        return ["sweep: no rows"]
    problems = []
    for row in rows:
        bound, exact, em = (float(row[k]) for k in ("lower_bound", "exact_pml", "eps_max"))
        if not (math.isfinite(exact) and bound <= exact + BOUND_SLACK
                and exact <= em + SWEEP_TOL):
            problems.append(f"sweep n={row['n']}: not bound {bound!r} <= exact "
                            f"{exact!r} <= eps_max {em!r} + {SWEEP_TOL:g}")
        if row["enum_pml"] and not abs(exact - float(row["enum_pml"])) <= SWEEP_TOL:
            problems.append(f"sweep n={row['n']}: |exact - enum| > {SWEEP_TOL:g}")
    return problems


def check_theorem2(report) -> list[str]:
    if report.forward_ok:
        return []
    return [f"theorem2_check: sup {report.max_observed_pml!r} exceeds the "
            f"DP level {report.epsilon_dp!r}"]


def check_density(value: float, reference: float) -> list[str]:
    """Finite, inside [0, log 4], and within DENSITY_TOL of the reference."""
    if not (math.isfinite(value) and 0.0 <= value <= LOG_FOUR + CAP_SLACK):
        return [f"pml_d1 = {value!r} outside [0, log 4]"]
    if not abs(value - reference) <= DENSITY_TOL:
        return [f"pml_d1 = {value!r} differs from the reference {reference!r} "
                f"by more than {DENSITY_TOL:g}"]
    return []


def check_oracle_report(report, trials: tuple[int, int, int]) -> list[str]:
    problems = []
    done = (report.achievability_trials, report.gain_trials, report.kernel_trials)
    if done != trials:
        problems.append(f"oracle: ran {done} trials, asked for {trials}")
    if report.tolerance != ORACLE_TOL:
        problems.append(f"oracle: judged at {report.tolerance!r}, not {ORACLE_TOL:g}")
    if not report.passed:
        problems.append("oracle: trials did not pass")
    return problems


def check_oracle_cli(code: int, stdout: str) -> list[str]:
    """Exit code 0, judged at 1e-12, and a final PASS line."""
    lines = stdout.strip().splitlines()
    if code != 0 or not lines or lines[-1] != "PASS":
        return [f"oracle --mechanism: exit code {code}, last line "
                f"{lines[-1] if lines else ''!r}"]
    if f"tolerance = {ORACLE_TOL:.3e}" not in lines:
        return [f"oracle --mechanism: not judged at {ORACLE_TOL:g}"]
    return []
