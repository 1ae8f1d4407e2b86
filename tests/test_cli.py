import contextlib
import csv
import io
import itertools
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from pmleak import cli
from pmleak.cli import EXIT_OK, EXIT_TOLERANCE, EXIT_VALIDATION, main
from test_golden import WITHOUT_AVX512


def read_table(path):
    """Parse the CSV output: (meta dict, column names, rows of strings)."""
    meta, lines = {}, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            meta[key.strip()] = value.strip()
        else:
            lines.append(line)
    header, *rows = csv.reader(lines)
    return meta, header, rows


def write_spec(tmp_path, payload, name="mech.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


RR_QUARTER = {"kind": "randomized_response", "p": 0.25}


class TestAnalyze:
    def test_leakage_free_channel_gives_zero_rows(self, tmp_path):
        spec = write_spec(tmp_path, {
            "kind": "finite", "x_labels": [0, 1], "y_labels": ["a", "b"],
            "rows": [[0.3, 0.7], [0.3, 0.7]]})
        out = tmp_path / "out.csv"
        assert main(["analyze", "--mechanism", spec, "--out", str(out)]) == EXIT_OK
        _, header, rows = read_table(out)
        assert header == ["y", "pml_nats", "argmax_label", "eps_max"]
        assert len(rows) == 2
        for row in rows:
            assert float(row[1]) == pytest.approx(0.0, abs=1e-12)

    def test_randomized_response_uniform_prior(self, tmp_path):
        spec = write_spec(tmp_path, RR_QUARTER)
        out = tmp_path / "out.csv"
        assert main(["analyze", "--mechanism", spec, "--out", str(out)]) == EXIT_OK
        _, _, rows = read_table(out)
        for row in rows:
            assert float(row[1]) == pytest.approx(math.log(1.5), abs=1e-12)
            assert float(row[3]) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_identity_with_skewed_prior_attains_eps_max(self, tmp_path):
        spec = write_spec(tmp_path, {
            "kind": "finite", "x_labels": [0, 1], "y_labels": [0, 1],
            "rows": [[1.0, 0.0], [0.0, 1.0]], "prior": [0.25, 0.75]})
        out = tmp_path / "out.csv"
        assert main(["analyze", "--mechanism", spec, "--out", str(out)]) == EXIT_OK
        _, _, rows = read_table(out)
        # outcome 0 reveals the probability-0.25 secret
        assert float(rows[0][1]) == pytest.approx(math.log(4.0), abs=1e-12)
        assert rows[0][2] == "0"
        assert float(rows[1][1]) == pytest.approx(math.log(4.0 / 3.0), abs=1e-12)

    def test_outcome_selection(self, tmp_path):
        spec = write_spec(tmp_path, RR_QUARTER)
        out = tmp_path / "out.csv"
        assert main(["analyze", "--mechanism", spec, "--y", "1",
                     "--out", str(out)]) == EXIT_OK
        _, _, rows = read_table(out)
        assert len(rows) == 1 and rows[0][0] == "1"

    def test_unknown_outcome_is_validation_error(self, tmp_path, capsys):
        spec = write_spec(tmp_path, RR_QUARTER)
        assert main(["analyze", "--mechanism", spec, "--y", "7"]) == EXIT_VALIDATION
        assert "error:" in capsys.readouterr().err

    def test_laplace_spec_with_y_grid(self, tmp_path):
        spec = write_spec(tmp_path, {
            "kind": "laplace", "scale": 10.0, "sensitivity": 1.0,
            "labels": [0, 1, 2, 3, 4], "centers": [0, 1, 2, 3, 4]})
        out = tmp_path / "out.csv"
        assert main(["analyze", "--mechanism", spec, "--y-grid", "0", "4", "9",
                     "--out", str(out)]) == EXIT_OK
        _, _, rows = read_table(out)
        assert len(rows) == 9
        for row in rows:
            assert 0.0 <= float(row[1]) <= math.log(5.0) + 1e-9

    def test_identical_rows_leak_exactly_nothing(self, tmp_path):
        # max(lls) - log P(y) rounded to -2.2e-16 at y = 0
        spec = write_spec(tmp_path, {
            "kind": "finite", "x_labels": [0, 1], "y_labels": [0, 1],
            "rows": [[1 / 3, 2 / 3], [1 / 3, 2 / 3]]})
        out = tmp_path / "out.csv"
        assert main(["analyze", "--mechanism", spec, "--out", str(out)]) == EXIT_OK
        _, _, rows = read_table(out)
        assert rows[0][1] == "0"
        assert all(float(row[1]) >= 0.0 for row in rows)

    def test_bad_row_mass_is_validation_error(self, tmp_path):
        spec = write_spec(tmp_path, {
            "kind": "finite", "x_labels": [0, 1], "y_labels": [0, 1],
            "rows": [[0.5, 0.4], [0.5, 0.5]]})
        assert main(["analyze", "--mechanism", spec]) == EXIT_VALIDATION


class TestThm3:
    def test_rows_are_sandwiched(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["thm3", "--n-range", "4", "256", "5",
                     "--out", str(out)]) == EXIT_OK
        _, header, rows = read_table(out)
        assert header == ["n", "lower_bound", "exact_pml", "enum_pml", "eps_max"]
        assert len(rows) == 5
        for row in rows:
            bound, exact, em = float(row[1]), float(row[2]), float(row[4])
            assert bound <= exact + 1e-12
            assert exact <= em
            assert em == pytest.approx(math.log(4.0), abs=1e-12)

    def test_single_n(self, tmp_path):
        out = tmp_path / "one.csv"
        assert main(["thm3", "--n", "16", "--epsilon", "1.0", "--y", "-0.3",
                     "--out", str(out)]) == EXIT_OK
        meta, _, rows = read_table(out)
        assert len(rows) == 1 and rows[0][0] == "16"
        assert meta["epsilon"] == "1"

    def test_svg_written(self, tmp_path):
        out = tmp_path / "sweep.csv"
        svg = tmp_path / "sweep.svg"
        assert main(["thm3", "--n-range", "4", "64", "4", "--out", str(out),
                     "--svg", str(svg)]) == EXIT_OK
        text = svg.read_text()
        assert text.startswith("<svg")
        assert "eps_max" in text

    def test_polynomial_eta(self, tmp_path):
        out = tmp_path / "poly.csv"
        assert main(["thm3", "--eta-poly", "1.0", "1.0", "--n-range", "16", "256", "3",
                     "--out", str(out)]) == EXIT_OK
        _, _, rows = read_table(out)
        for row in rows:
            assert float(row[1]) <= float(row[2]) + 1e-12


class TestBob:
    def test_default_run(self, tmp_path):
        out = tmp_path / "bob.csv"
        assert main(["bob", "--out", str(out)]) == EXIT_OK
        meta, header, rows = read_table(out)
        assert header == ["y", "pml_nats", "eps_max"]
        assert float(meta["dp-level"]) == pytest.approx(0.1)
        for row in rows:
            assert float(row[1]) <= math.log(5.0) + 1e-9

    def test_pml_at_center(self, tmp_path):
        out = tmp_path / "bob.csv"
        assert main(["bob", "--y-grid", "30000", "30000", "1",
                     "--out", str(out)]) == EXIT_OK
        _, _, rows = read_table(out)
        assert float(rows[0][1]) == pytest.approx(math.log(5.0), abs=1e-6)


class TestOracle:
    def test_small_run_passes(self, capsys):
        code = main(["oracle", "--seed", "7", "--achievability-trials", "20",
                     "--gain-trials", "50", "--kernel-trials", "50"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "PASS" in out

    def test_zero_trials_is_validation_error(self, capsys):
        assert main(["oracle", "--gain-trials", "0"]) == EXIT_VALIDATION
        assert "empty trial set" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    def test_zero_mass_outcome(self, tmp_path, capsys):
        # outcome 2 has P_Y = 0 under every prior, and x = 2 never yields 1
        spec = write_spec(tmp_path, {"kind": "finite", "x_labels": [0, 1, 2],
                                     "y_labels": [0, 1, 2],
                                     "rows": [[0.5, 0.5, 0], [0.25, 0.75, 0], [1, 0, 0]]})
        code = main(["oracle", "--mechanism", spec, "--seed", "3",
                     "--achievability-trials", "300", "--gain-trials", "300",
                     "--kernel-trials", "300"])
        lines = capsys.readouterr().out.splitlines()
        assert code == EXIT_OK and lines[-1] == "PASS"
        assert lines[-3].startswith("max reference gap = ")
        assert lines[-2] == "tolerance = 1.000e-12"
        maxima = [float(line.rsplit("= ", 1)[1]) for line in lines[1:5]]
        assert all(math.isfinite(v) for v in maxima)

    def test_fixed_channel(self, tmp_path, capsys):
        spec = write_spec(tmp_path, RR_QUARTER)
        code = main(["oracle", "--mechanism", spec, "--seed", "1",
                     "--achievability-trials", "20", "--gain-trials", "50",
                     "--kernel-trials", "50"])
        assert code == EXIT_OK
        assert "PASS" in capsys.readouterr().out


class TestDpCheck:
    def test_randomized_response_level(self, tmp_path, capsys):
        spec = write_spec(tmp_path, RR_QUARTER)
        assert main(["dp-check", "--mechanism", spec]) == EXIT_OK
        assert f"{math.log(3.0):.12g}" in capsys.readouterr().out

    def test_target_met(self, tmp_path, capsys):
        spec = write_spec(tmp_path, RR_QUARTER)
        assert main(["dp-check", "--mechanism", spec, "--target", "1.2"]) == EXIT_OK
        assert "meets" in capsys.readouterr().out

    def test_target_exceeded(self, tmp_path, capsys):
        spec = write_spec(tmp_path, RR_QUARTER)
        assert main(["dp-check", "--mechanism", spec,
                     "--target", "1.0"]) == EXIT_TOLERANCE
        assert "exceeds" in capsys.readouterr().out

    def test_laplace_spec(self, tmp_path, capsys):
        spec = write_spec(tmp_path, {"kind": "laplace", "scale": 10.0,
                                     "sensitivity": 1.0, "labels": [0, 1],
                                     "centers": [0.0, 1.0]})
        assert main(["dp-check", "--mechanism", spec, "--target", "0.1"]) == EXIT_OK


class TestConfigAndReproducibility:
    def test_reproducible_output_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["thm3", "--n-range", "4", "64", "4", "--reproducible"]
        assert main(argv + ["--out", str(a)]) == EXIT_OK
        assert main(argv + ["--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()
        assert b"generated-at" not in a.read_bytes()

    def test_timestamp_present_without_flag(self, tmp_path):
        out = tmp_path / "t.csv"
        assert main(["thm3", "--n", "8", "--out", str(out)]) == EXIT_OK
        assert "generated-at" in out.read_text()

    def test_config_overridden_by_flag(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 8, "epsilon": 0.5}))
        out = tmp_path / "out.csv"
        assert main(["thm3", "--config", str(cfg), "--n", "16",
                     "--out", str(out)]) == EXIT_OK
        meta, _, rows = read_table(out)
        assert rows[0][0] == "16"  # flag wins
        assert meta["epsilon"] == "0.5"  # config fills the gap

    def test_config_values_do_not_reach_a_later_call(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": 0.3, "epsilon": 0.5}))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["thm3", "--config", str(cfg), "--n", "4", "--out", str(a)]) == EXIT_OK
        assert main(["thm3", "--n", "4", "--out", str(b)]) == EXIT_OK
        for path, want in ((a, (0.3, 0.5)), (b, (0.25, 0.1))):
            meta = read_table(path)[0]
            assert (float(meta["alpha"]), float(meta["epsilon"])) == want

    def test_unknown_config_field_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        assert main(["thm3", "--config", str(cfg), "--n", "8"]) == EXIT_VALIDATION
        assert "unknown config field" in capsys.readouterr().err

    def test_malformed_config_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        assert main(["thm3", "--config", str(cfg), "--n", "8"]) == EXIT_VALIDATION

    def test_missing_mechanism_file(self, tmp_path):
        assert main(["analyze", "--mechanism",
                     str(tmp_path / "nope.json")]) == EXIT_VALIDATION



NAN_LAPLACE = {"kind": "laplace", "scale": float("nan"), "sensitivity": 1.0,
               "labels": [0, 1], "centers": [0.0, 1.0]}
LAPLACE = dict(NAN_LAPLACE, scale=1.0)


@pytest.mark.parametrize("argv, message", [
    pytest.param(["analyze", "--mechanism", "{spec}", "--y", "0.5"],
                 "scale must be positive", id="analyze-nan-scale"),
    pytest.param(["dp-check", "--mechanism", "{spec}"],
                 "scale must be positive", id="dp-check-nan-scale"),
    pytest.param(["thm3", "--n", "100", "--epsilon", "nan"],
                 "epsilon must be positive", id="thm3-nan-epsilon"),
    pytest.param(["thm3", "--n", "100", "--y", "nan"], "y must be finite", id="thm3-nan-y"),
    pytest.param(["bob", "--epsilon", "nan"], "epsilon must be positive", id="bob-nan-epsilon"),
    pytest.param(["thm3", "--n-range", "4", "4096", "0"],
                 "n-range count must be at least 1", id="thm3-zero-count"),
    pytest.param(["analyze", "--mechanism", "{lap}", "--y", "nan"],
                 "outcome y must be finite", id="analyze-nan-y"),
    pytest.param(["analyze", "--mechanism", "{lap}", "--y-grid", "0", "nan", "3"],
                 "outcome y must be finite", id="analyze-nan-y-grid"),
    # JSON admits Infinity: the PML at every y would be NaN
    pytest.param(["analyze", "--mechanism", "{inf_lap}", "--y", "0"],
                 "Laplace centers must be finite", id="analyze-inf-centers"),
    pytest.param(["thm3", "--n", "10", "--epsilon", "inf"],
                 "epsilon must be finite", id="thm3-inf-epsilon"),
    pytest.param(["bob", "--scale", "inf", "--y-grid", "0", "1", "2"],
                 "scale must be finite", id="bob-inf-scale"),
    pytest.param(["thm3", "--n", "100", "--epsilon", "1e-320"],
                 "Laplace scale must be finite", id="thm3-scale-overflow"),
    pytest.param(["bob", "--epsilon", "1e-320"],
                 "Laplace scale must be finite", id="bob-scale-overflow"),
    # epsilon (n+1) overflows, so the calibrated scale is 0 on either side of y = 0
    pytest.param(["thm3", "--n", "10", "--epsilon", "1e308", "--y", "-0.3"],
                 "scale must be positive", id="thm3-scale-underflow-negative-y"),
    pytest.param(["thm3", "--n", "10", "--epsilon", "1e308", "--y", "0.3"],
                 "scale must be positive", id="thm3-scale-underflow-positive-y"),
    pytest.param(["thm3", "--n-range", "4", "1e30", "3"],
                 "n must be below 2^53", id="thm3-n-range-beyond-float"),
    pytest.param(["thm3", "--n-range", "4", "inf", "3"],
                 "n-range ends must be finite", id="thm3-n-range-inf"),
    pytest.param(["bob", "--y-grid", "0", "inf", "3"],
                 "outcome y must be finite", id="bob-inf-y-grid"),
    pytest.param(["bob", "--y-grid", "nan", "1", "3"],
                 "outcome y must be finite", id="bob-nan-y-grid"),
    # the default grid stops at (k+1) * scale, which overflows
    pytest.param(["bob", "--k", "3", "--scale", "1e308"],
                 "outcome y must be finite", id="bob-default-grid-overflow"),
    # COUNT is checked before anything is allocated (1e13 points are 72.8 TiB)
    pytest.param(["bob", "--y-grid", "0", "1", "inf"],
                 "grid count must be at least 1 and at most 1000000", id="bob-inf-count"),
    pytest.param(["thm3", "--n-range", "4", "4096", "inf"],
                 "n-range count must be at least 1 and at most 1000000", id="thm3-inf-count"),
    pytest.param(["bob", "--y-grid", "0", "1", "1e13"],
                 "grid count must be at least 1 and at most 1000000", id="bob-huge-count"),
    pytest.param(["bob", "--y-grid", "0", "1", "2.5"],
                 "grid count must be a whole number", id="bob-fractional-count"),
    # c / n**r is complex at n = -1, r = 1.5: a TypeError traceback, found by
    # the argv fuzz test below
    pytest.param(["thm3", "--n=-1", "--eta-poly", "0.5", "1.5"],
                 "n must be at least 1", id="thm3-negative-n-eta-poly"),
    pytest.param(["thm3", "--n", "0", "--eta-poly", "0.5", "1.5"],
                 "n must be at least 1", id="thm3-zero-n-eta-poly"),
    # n ** r overflows the float range, so eta = c / n**r is 0
    pytest.param(["thm3", "--n", "1128", "--eta-poly", "1024", "1024"],
                 "eta schedule leaves (0, 1) at n=1128", id="thm3-eta-poly-overflow"),
])
def test_invalid_numbers_are_validation_errors(tmp_path, capsys, argv, message):
    spec = write_spec(tmp_path, NAN_LAPLACE)
    lap = write_spec(tmp_path, LAPLACE, name="lap.json")
    inf_lap = write_spec(tmp_path, dict(LAPLACE, centers=[math.inf] * 2), name="inf.json")
    assert main([a.format(spec=spec, lap=lap, inf_lap=inf_lap) for a in argv]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"error: {message}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    # eta = 1e-17: a bracket formed by subtracting terms much larger than
    # its value would lose it to rounding (exact 2.67e-5 against enum
    # 8.0143e-5 at epsilon = 30) or its sign (epsilon = 40)
    pytest.param(["--n", "1", "--eta", "1e-17", "--epsilon", "40"], id="tiny-eta-epsilon-40"),
    pytest.param(["--n", "1", "--eta", "1e-17", "--epsilon", "30"], id="tiny-eta-epsilon-30"),
    # q = exp(-epsilon) is 0 in floats: its terms must drop out, not raise
    pytest.param(["--n", "10", "--epsilon", "1e300"], id="underflowing-q"),
])
def test_thm3_closed_form_edges(tmp_path, argv):
    out = tmp_path / "out.csv"
    assert main(["thm3", *argv, "--out", str(out)]) == EXIT_OK
    _, header, rows = read_table(out)
    row = dict(zip(header, map(float, rows[0])))
    assert all(math.isfinite(v) for v in row.values())
    assert row["exact_pml"] <= row["eps_max"]
    assert abs(row["exact_pml"] - row["enum_pml"]) <= 1e-12


def test_thm3_at_positive_y_reports_no_bound(tmp_path):
    # lower_bound holds only for y <= 0; at n = 50, y = 0.5 it would read
    # 1.157 against an exact PML of about 0
    out, svg = tmp_path / "out.csv", tmp_path / "out.svg"
    assert main(["thm3", "--n", "50", "--y", "0.5", "--out", str(out),
                 "--svg", str(svg)]) == EXIT_OK
    _, header, rows = read_table(out)
    assert rows[0][header.index("lower_bound")] == ""
    assert abs(float(rows[0][header.index("exact_pml")])) < 1e-9
    text = svg.read_text()
    assert "exact PML" in text and "lower bound" not in text


@pytest.mark.parametrize("module", ["pmleak", "pmleak.cli"])
def test_python_dash_m_runs_the_cli(module):
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", module, "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == EXIT_OK
    assert proc.stdout.startswith("usage: pmleak")


RESULTS = pathlib.Path(__file__).resolve().parent.parent / "results"

#: the artifact commands of scripts/reproduce_results.py
RESULT_COMMANDS = {
    "sweep_eta_constant": [
        "thm3", "--n-range", "4", "4096", "24", "--alpha", "0.25", "--eta", "0.5",
        "--epsilon", "0.1", "--y", "-0.3", "--reproducible",
        "--out", "sweep_eta_constant.csv", "--svg", "sweep_eta_constant.svg"],
    "sweep_eta_polynomial": [
        "thm3", "--n-range", "4", "4096", "24", "--alpha", "0.25",
        "--eta-poly", "1.0", "1.0", "--epsilon", "0.1", "--y", "-0.3", "--reproducible",
        "--out", "sweep_eta_polynomial.csv", "--svg", "sweep_eta_polynomial.svg"],
    "counting_query": [
        "bob", "--k", "5", "--epsilon", "0.1", "--reproducible",
        "--out", "counting_query.csv"],
}


def result_outputs(argv):
    return [a for a in argv if a.endswith((".csv", ".svg"))]


def into(directory, argv):
    """argv with its output files placed in directory."""
    outputs = result_outputs(argv)
    return [str(directory / a) if a in outputs else a for a in argv]


@pytest.mark.parametrize("argv", RESULT_COMMANDS.values(), ids=RESULT_COMMANDS.keys())
def test_committed_results_reproduce_byte_identically(tmp_path, argv):
    """The artifact commands of scripts/reproduce_results.py, against results/."""
    assert main(into(tmp_path, argv)) == EXIT_OK
    for name in result_outputs(argv):
        assert (tmp_path / name).read_bytes() == (RESULTS / name).read_bytes(), name


def test_committed_results_reproduce_without_avx512_loops(tmp_path):
    # numpy's float64 exp, log1p and expm1 take other loops in a process
    # that has the AVX-512 ones switched off; results/ keeps its bytes on either
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=WITHOUT_AVX512,
               PYTHONPATH=os.pathsep.join(sys.path))
    code = ("import json, sys; from pmleak.cli import main; "
            "sys.exit(max(main(argv) for argv in json.loads(sys.argv[1])))")
    argvs = [into(tmp_path, argv) for argv in RESULT_COMMANDS.values()]
    subprocess.run([sys.executable, "-c", code, json.dumps(argvs)], env=env,
                   capture_output=True, check=True)
    for name in itertools.chain.from_iterable(map(result_outputs, RESULT_COMMANDS.values())):
        assert (tmp_path / name).read_bytes() == (RESULTS / name).read_bytes(), name


def test_numerical_failure_is_a_one_line_error(monkeypatch, capsys):
    def overflow(opts):
        raise OverflowError("math range error")

    monkeypatch.setattr(cli, "cmd_thm3", overflow)
    assert main(["thm3", "--n", "4"]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err == "error: math range error\n"


@pytest.mark.parametrize("n", ["2000000000000000", "9007199254740991"])
def test_thm3_near_an_end_at_any_n(capsys, n):
    # ten ones in the tail (variance below the line rule's 25) at
    # epsilon = 40, where the band of modes reaches down to them: the
    # circle rule takes 128 nodes, and the all-0 peak term carries the PML
    # to log(1/alpha)
    y = repr(10.5 / (int(n) + 1))
    tracemalloc.start()
    try:
        assert main(["thm3", "--n", n, "--epsilon", "40", "--y", y]) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    row = capsys.readouterr().out.splitlines()[-1].split(",")
    assert row[0] == n and abs(float(row[2]) - math.log(4.0)) <= 1e-15


@pytest.mark.parametrize("n", ["2000000000000000", "9007199254740991"])
def test_thm3_inside_the_band_at_any_n(capsys, n):
    # y = 0.5 lies inside the band of modes, where the line rule applies
    # at any n; the two conditionals are mirror images, so the PML is 0
    assert main(["thm3", "--n", n, "--y", "0.5"]) == EXIT_OK
    row = capsys.readouterr().out.splitlines()[-1].split(",")
    assert row[0] == n and float(row[2]) == 0.0


def test_thm3_below_the_band_needs_no_window(capsys):
    # y = 0.4 lies below the band of modes, where the closed forms apply at
    # any n: the PML is -log(alpha + (1 - alpha) e^-eps) to the last bits
    assert main(["thm3", "--n", "2000000000000000", "--y", "0.4"]) == EXIT_OK
    row = capsys.readouterr().out.splitlines()[-1].split(",")
    assert row[0] == "2000000000000000"
    assert abs(float(row[2]) + math.log(0.25 + 0.75 * math.exp(-0.1))) <= 1e-15


# --- fuzzing the argv of the commands that need no input file ---

# values on or past the edge of every option's range
_ODD = st.sampled_from(["0", "-0", "-1", "5e-324", "1e-320", "1e308", "-1e308",
                        "nan", "inf", "-inf", "1e30"])


def _value(valid):
    """A draw from `valid` three times in four, else an odd value."""
    return st.integers(0, 3).flatmap(lambda i: _ODD if i == 0 else valid.map(str))


@st.composite
def _thm3_argv(draw):
    y = float(draw(_value(st.floats(-2.0, 2.0))))
    # every y costs O(1) in n: the closed forms or a contour integral at a
    # fixed number of nodes
    size = _value(st.integers(1, 2 ** 53 - 1))
    argv = ["thm3", f"--y={y}", "--alpha=" + draw(_value(st.floats(0.01, 0.49))),
            "--epsilon=" + draw(_value(st.floats(0.01, 50.0)))]
    if draw(st.booleans()):
        argv += ["--n=" + draw(size)]
    else:
        argv += ["--n-range", draw(size), draw(size), draw(_value(st.integers(1, 3)))]
    if draw(st.booleans()):
        argv += ["--eta=" + draw(_value(st.floats(0.01, 0.99)))]
    else:
        argv += ["--eta-poly", draw(_value(st.floats(0.01, 2.0))),
                 draw(_value(st.floats(1.0, 3.0)))]
    return argv


@st.composite
def _bob_argv(draw):
    argv = ["bob", "--k=" + draw(_value(st.integers(1, 8))),
            "--epsilon=" + draw(_value(st.floats(0.01, 10.0))),
            "--scale=" + draw(_value(st.floats(1.0, 1e5)))]
    if draw(st.booleans()):
        argv += ["--y-grid", draw(_value(st.floats(-1e5, 1e6))),
                 draw(_value(st.floats(-1e5, 1e6))), draw(_value(st.integers(1, 20)))]
    return argv


@settings(max_examples=100, deadline=None)
@given(argv=st.one_of(_thm3_argv(), _bob_argv()))
# y far beyond the centers, where |y - center| / b drowned the PML
@example(argv=["bob", "--k=2", "--epsilon=1", "--scale=100000", "--y-grid", "1e21", "1e22", "2"])
# outcomes 2.5e5 noise scales from their nearest center, inside the centers' hull
@example(argv=["bob", "--k=2", "--epsilon=10", "--scale=100000"])
# every |y - center| / b overflows to inf between the centers
@example(argv=["bob", "--k=2", "--epsilon=1e308", "--scale=1e30"])
# (y - center) / b overflowed on a numpy float and warned
@example(argv=["bob", "--k=1", "--epsilon=467", "--scale=1e-320", "--y-grid", "467", "1e308", "4"])
# n ** r overflowed in the eta schedule
@example(argv=["thm3", "--n=1128", "--eta-poly", "1024", "1024"])
# a subnormal scale: |y - center| / b overflowed on arrays and warned
@example(argv=["thm3", "--n=1", "--epsilon=8.988465674311578e+307", "--y=1"])
@example(argv=["thm3", "--n=1", "--epsilon=8.988465674311578e+307", "--y=0"])
# a window of binomial terms sized by the largest spread asked for 2e8 terms here
@example(argv=["thm3", "--n=2000000000000000", "--epsilon=40", "--y=5.249999999999997e-15"])
def test_fuzzed_argv_exits_cleanly(argv):
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp) / "out.csv"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            try:
                code = main([*argv, "--out", str(out)])
            except SystemExit as exc:  # argparse rejects the argv
                code = exc.code
        assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_TOLERANCE)
        assert "Traceback" not in err.getvalue()
        assert "Warning" not in err.getvalue()
        if code != EXIT_OK:
            return
        _, header, rows = read_table(out)
    assert all(cell.strip().lower() not in ("nan", "inf", "-inf")
               for row in rows for cell in row)
    if argv[0] == "thm3":
        for row in rows:
            values = dict(zip(header, row))
            em = float(values["eps_max"])
            assert float(values["exact_pml"]) <= em + 1e-9
            assert values["lower_bound"] == "" or float(values["lower_bound"]) <= em + 1e-9
    else:
        for row in rows:
            values = dict(zip(header, row))
            assert float(values["pml_nats"]) <= float(values["eps_max"]) + 1e-12


# --- fuzzing the commands that read a mechanism spec file ---

def _weights(draw, size):
    """`size` probabilities summing to 1, with an odd cell one time in four."""
    weights = draw(st.lists(st.floats(0.0, 1.0), min_size=size, max_size=size))
    total = math.fsum(weights)
    probs = [w / total for w in weights] if total > 0 else [1.0 / size] * size
    if draw(st.integers(0, 3)) == 0:
        probs[draw(st.integers(0, size - 1))] = float(draw(_ODD))
    return probs


@st.composite
def _spec(draw):
    """A finite, Laplace or randomized-response spec, with or without a prior."""
    kind = draw(st.sampled_from(["finite", "laplace", "randomized_response"]))
    nx = draw(st.integers(1, 4))
    if kind == "randomized_response":
        spec, nx = {"kind": kind, "p": float(draw(_value(st.floats(0.0, 0.5))))}, 2
    elif kind == "finite":
        # scalar labels, or tuples of bits, which dp-check --entries reads as databases
        tuples = draw(st.booleans())
        m = draw(st.integers(1, 2))
        xs = ([list(x) for x in itertools.product((0, 1), repeat=m)] if tuples
              else list(range(nx)))
        nx = len(xs)
        ny = draw(st.integers(1, 4))
        spec = {"kind": kind, "x_labels": xs, "y_labels": list(range(ny)),
                "rows": [_weights(draw, ny) for _ in range(nx)]}
    else:
        spec = {"kind": kind, "labels": list(range(nx)),
                "centers": [float(draw(_value(st.floats(-10.0, 10.0)))) for _ in range(nx)],
                "scale": float(draw(_value(st.floats(0.01, 10.0))))}
        if draw(st.booleans()):
            spec["sensitivity"] = float(draw(_value(st.floats(0.0, 5.0))))
    if draw(st.booleans()):
        spec["prior"] = _weights(draw, nx)
    return spec


@st.composite
def _spec_argv(draw):
    """(spec, argv with {spec} for its path) for analyze or dp-check."""
    spec = draw(_spec())
    if draw(st.booleans()):
        argv = ["dp-check", "--mechanism", "{spec}"]
        if draw(st.booleans()):
            argv += ["--target=" + draw(_value(st.floats(0.0, 5.0)))]
        if draw(st.booleans()):
            argv += ["--entries=" + draw(_value(st.integers(1, 3)))]
        if draw(st.booleans()):
            argv += ["--tol=" + draw(_value(st.floats(0.0, 1e-6)))]
        return spec, argv
    argv = ["analyze", "--mechanism", "{spec}"]
    if spec["kind"] == "laplace" and draw(st.booleans()):
        argv += ["--y-grid", draw(_value(st.floats(-20.0, 20.0))),
                 draw(_value(st.floats(-20.0, 20.0))), draw(_value(st.integers(1, 20)))]
    elif spec["kind"] == "laplace" or draw(st.booleans()):
        argv += ["--y", *draw(st.lists(_value(st.floats(-20.0, 20.0)), min_size=1, max_size=4))]
    return spec, argv


NAN_SENSITIVITY_LAPLACE = {"kind": "laplace", "labels": [0, 1], "centers": [0.0, 1.0],
                           "scale": 1.0, "sensitivity": float("nan")}


@settings(max_examples=100, deadline=None)
@given(case=_spec_argv())
# scalar labels read as databases: a TypeError traceback
@example(case=(RR_QUARTER, ["dp-check", "--mechanism", "{spec}", "--entries=0"]))
@example(case=(RR_QUARTER, ["dp-check", "--mechanism", "{spec}", "--entries=2"]))
# a NaN target was "exceeded", exit 2
@example(case=(RR_QUARTER, ["dp-check", "--mechanism", "{spec}", "--target=nan"]))
# a NaN sensitivity printed "dp level = nan", exit 0
@example(case=(NAN_SENSITIVITY_LAPLACE, ["dp-check", "--mechanism", "{spec}"]))
# the argmax label (0,) split its CSV row into one cell too many
@example(case=({"kind": "finite", "x_labels": [[0], [1]], "y_labels": [0, 1],
                "rows": [[0.0, 1.0], [0.5, 0.5]]}, ["analyze", "--mechanism", "{spec}"]))
def test_fuzzed_spec_commands_exit_cleanly(case):
    spec, argv = case
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "mech.json"
        path.write_text(json.dumps(spec))
        argv = [str(path) if a == "{spec}" else a for a in argv]
        out = pathlib.Path(tmp) / "out.csv"
        if argv[0] == "analyze":
            argv += ["--out", str(out)]
        err, stdout = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(stdout):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the argv
                code = exc.code
        assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_TOLERANCE)
        assert "Traceback" not in err.getvalue()
        assert "Warning" not in err.getvalue()
        if code != EXIT_OK or argv[0] != "analyze":
            assert "nan" not in stdout.getvalue()
            return
        _, header, rows = read_table(out)
    assert all(cell.strip().lower() not in ("nan", "inf", "-inf")
               for row in rows for cell in row)
    for row in rows:
        values = dict(zip(header, row))
        assert 0.0 <= float(values["pml_nats"]) <= float(values["eps_max"]) + 1e-9


@st.composite
def _oracle_argv(draw):
    """(spec or None, argv with {spec} for its path) for oracle, with at
    most 200 trials of each kind."""
    argv = ["oracle", "--seed=" + draw(_value(st.integers(0, 2 ** 64)))]
    for flag in ("--achievability-trials", "--gain-trials", "--kernel-trials"):
        argv += [f"{flag}=" + draw(_value(st.integers(1, 200)))]
    if draw(st.booleans()):
        argv += ["--tol=" + draw(_value(st.floats(0.0, 1e-6)))]
    if draw(st.booleans()):
        return draw(_spec()), argv + ["--mechanism", "{spec}"]
    return None, argv


@settings(max_examples=100, deadline=None)
@given(case=_oracle_argv())
# a NaN or infinite tolerance was printed and judged, exit 2 or 0
@example(case=(None, ["oracle", "--gain-trials=5", "--achievability-trials=5",
                      "--kernel-trials=5", "--tol=nan"]))
@example(case=(None, ["oracle", "--gain-trials=5", "--achievability-trials=5",
                      "--kernel-trials=5", "--tol=inf"]))
def test_fuzzed_oracle_argv_exits_cleanly(case):
    spec, argv = case
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "mech.json"
        path.write_text(json.dumps(spec))
        argv = [str(path) if a == "{spec}" else a for a in argv]
        err, stdout = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(stdout):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the argv
                code = exc.code
    assert code in (EXIT_OK, EXIT_VALIDATION, EXIT_TOLERANCE)
    assert "Traceback" not in err.getvalue()
    assert "Warning" not in err.getvalue()
    words = stdout.getvalue().lower().split()
    assert not any(w in ("nan", "inf", "-inf") for w in words)
    if code == EXIT_OK:
        assert words[-1] == "pass"
