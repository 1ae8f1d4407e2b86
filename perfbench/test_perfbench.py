"""Tests of the benchmark itself: every output check rejects a perturbed output.

Run from the root of a checkout:

    python3 -m pytest -q perfbench
"""

import contextlib
import dataclasses
import io
import json
import math
import signal
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from hostclock import HostClock  # noqa: E402
from tracer import PassTrace, Tracer  # noqa: E402

from pmleak import cli, constructions, leakage, oracle  # noqa: E402
from pmleak.mechanisms import product_mechanism, randomized_response  # noqa: E402
from pmleak.probability import FiniteDistribution  # noqa: E402

SWEEPS = ("sweep_eta_constant", "sweep_eta_polynomial")


def _edit_row(text, n, **fields):
    """The sweep CSV with the given columns of row n replaced."""
    lines = text.splitlines(keepends=True)
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    columns = lines[header].strip().split(",")
    for i in range(header + 1, len(lines)):
        cells = lines[i].strip().split(",")
        if cells[0] == str(n):
            for key, value in fields.items():
                cells[columns.index(key)] = repr(value)
            lines[i] = ",".join(cells) + "\n"
            return "".join(lines)
    raise AssertionError(f"no row n={n}")


def _row(text, n):
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    columns = lines[0].split(",")
    cells = next(line.split(",") for line in lines[1:] if line.split(",")[0] == str(n))
    return {k: float(v) if v else None for k, v in zip(columns, cells)}


@pytest.mark.parametrize("stem", SWEEPS)
def test_sweep_checks_accept_the_committed_results(stem):
    data = (ROOT / "results" / f"{stem}.csv").read_bytes()
    assert checks.check_bytes(data, data, stem) == []
    assert checks.check_sweep_rows(data.decode()) == []


def test_bytes_check_rejects_one_changed_byte():
    good = (ROOT / "results" / "counting_query.csv").read_bytes()
    bad = bytearray(good)
    bad[-2] ^= 1
    assert checks.check_bytes(bytes(bad), good, "counting_query.csv")


def test_sweep_rows_reject_exact_above_cap():
    text = (ROOT / "results" / "sweep_eta_constant.csv").read_text()
    row = _row(text, 4096)
    bad = _edit_row(text, 4096, exact_pml=row["eps_max"] + 1e-8)
    assert checks.check_sweep_rows(bad)


def test_sweep_rows_reject_exact_below_bound():
    text = (ROOT / "results" / "sweep_eta_constant.csv").read_text()
    row = _row(text, 13)
    bad = _edit_row(text, 13, exact_pml=row["lower_bound"] - 1e-9)
    assert checks.check_sweep_rows(bad)


def test_sweep_rows_reject_enumeration_disagreement():
    text = (ROOT / "results" / "sweep_eta_constant.csv").read_text()
    row = _row(text, 4)
    bad = _edit_row(text, 4, enum_pml=row["exact_pml"] + 1e-8)
    assert checks.check_sweep_rows(bad)


def test_theorem2_check_rejects_a_forward_violation():
    p, n = 0.25, 1
    level = math.log((1 - p) / p)
    report = leakage.theorem2_check(product_mechanism(randomized_response(p), n), level,
                                    n, (0, 1), prior_samples=5, grid_resolution=9)
    assert checks.check_theorem2(report) == []
    assert checks.check_theorem2(dataclasses.replace(report, forward_ok=False))


@pytest.mark.parametrize("n, y", [(100, -0.4), (100, 37 / 101), (1000, 0.0),
                                  (1000, 412.3 / 1001)])
def test_density_check_rejects_perturbed_values(n, y):
    ref = reference.reference_pml_d1(n, 0.25, 0.5, 0.1, y)
    value = constructions.pml_d1(constructions.CorrelatedBinaryModel(n, 0.25, 0.5), 0.1, y)
    assert checks.check_density(value, ref) == []
    assert checks.check_density(value + 1e-8, ref)
    assert checks.check_density(math.nan, ref)
    assert checks.check_density(math.log(4) + 1e-6, math.log(4) + 1e-6)
    assert checks.check_density(-1e-6, -1e-6)


def test_reference_precisions_agree(monkeypatch):
    # the same outcomes through mpmath and through extended-precision numpy
    outcomes = [(1000, -0.3), (1000, 500 / 1001), (1000, 500.37 / 1001)]
    by_mpmath = [reference.reference_pml_d1(n, 0.25, 0.5, 0.1, y) for n, y in outcomes]
    monkeypatch.setattr(reference, "MPMATH_MAX_N", 0)
    monkeypatch.setattr(reference, "CHUNK", 100)  # several chunks
    by_numpy = [reference.reference_pml_d1(n, 0.25, 0.5, 0.1, y) for n, y in outcomes]
    for a, b in zip(by_mpmath, by_numpy):
        assert abs(a - b) <= 1e-15


def test_oracle_report_check_rejects_perturbed_reports():
    trials = (20, 30, 40)
    report = oracle.run_adversary_trials(seed=3, achievability_trials=20,
                                         gain_trials=30, kernel_trials=40)
    assert checks.check_oracle_report(report, trials) == []
    assert checks.check_oracle_report(report, (20, 30, 41))
    assert checks.check_oracle_report(dataclasses.replace(report, max_gain_excess=1e-9),
                                      trials)
    assert checks.check_oracle_report(dataclasses.replace(report, tolerance=1e-9), trials)


def test_oracle_cli_check_rejects_perturbed_output(tmp_path):
    spec = tmp_path / "channel.json"
    spec.write_text(json.dumps({"kind": "finite", "x_labels": [0, 1], "y_labels": [0, 1],
                                "rows": [[0.75, 0.25], [0.25, 0.75]]}))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["oracle", "--seed", "5", "--mechanism", str(spec),
                         "--achievability-trials", "10", "--gain-trials", "10",
                         "--kernel-trials", "10"])
    out = buf.getvalue()
    assert checks.check_oracle_cli(code, out) == []
    assert checks.check_oracle_cli(2, out)
    assert checks.check_oracle_cli(code, out.replace("PASS", "FAIL"))
    assert checks.check_oracle_cli(code, out.replace("1.000e-12", "1.000e-09"))


def test_sweep_ops_fail_when_a_command_leaves_no_file(tmp_path, monkeypatch):
    workload = workloads.SweepEnum(ROOT, tmp_path, seed=1)
    assert workload.check_pass(workload.run_pass()) == (0, [])
    # exit code 0 but nothing written: the previous pass's files must not count
    monkeypatch.setattr(cli, "main", lambda argv: 0)
    failed, problems = workload.check_pass(workload.run_pass())
    assert failed == 3 and len(problems) == 3
    assert all("FileNotFoundError" in problem for problem in problems)


def test_tracer_nests_spans_and_restores_every_binding():
    original = leakage.pml
    tracer = Tracer()
    tracer.install()
    try:
        assert leakage.pml is not original and oracle.pml is leakage.pml
        prior = FiniteDistribution.uniform((0, 1))
        value = leakage.pml(prior, [0.0, -1.0])
    finally:
        tracer.uninstall()
    assert leakage.pml is original and oracle.pml is original
    assert value == original(FiniteDistribution.uniform((0, 1)), [0.0, -1.0])
    trace = tracer.collect()
    assert trace.calls["leakage.pml"] == 1
    assert trace.calls["logdomain.log_sum_exp"] >= 1
    assert trace.calls["probability.FiniteDistribution.init"] == 1
    assert 0 <= trace.self_s["leakage.pml"]
    assert tracer.spans == []


def test_benchmark_json_names_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    class Stub:
        ops_per_pass = 1
    passes = run.Passes(adjusted=[1.0, 2.0], wall=[1.0, 2.0], factors=[1.0, 1.0],
                        traces=[PassTrace(), PassTrace()])
    e2e, _ = run.end_to_end(Stub(), passes, [0.1])
    layers, _ = run.per_layer(passes, 100.0, 0.0, 0.1, 1.0)
    assert [m["name"] for m in spec["end_to_end"]] == list(e2e)
    assert [m["name"] for m in spec["per_layer"]] == list(layers)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        {k: unit for k, (_, unit) in e2e.items()}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {k: unit for k, (_, unit) in layers.items()}


def test_host_clock_samples_while_entered_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    clock = HostClock()
    with clock:
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(clock.samples) >= 3
    assert clock.factor() > 0 and clock.samples == []
    assert clock.factor() > 0  # nothing sampled: one sample is taken on the spot
