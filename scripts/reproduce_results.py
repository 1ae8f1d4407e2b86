#!/usr/bin/env python3
"""Run the full experiment set and drop CSV/SVG artifacts under results/.

Thin wrapper over the CLI so every figure is reproducible from the command
line with the same flags.  All runs use --reproducible so reruns diff
cleanly; tests/test_cli.py reruns COMMANDS and compares the files with
results/.  It takes no options; run from the repository root:

    PYTHONPATH=src python3 scripts/reproduce_results.py
"""

import argparse
import pathlib
import sys

from pmleak.cli import main

RESULTS = pathlib.Path(__file__).resolve().parent.parent / "results"

#: each command by the stem of the files it writes, named bare and placed
#: in the output directory when it runs
COMMANDS = {
    # per-entry PML of the correlated database vs n, constant eta
    "sweep_eta_constant": [
        "thm3", "--n-range", "4", "4096", "24", "--alpha", "0.25", "--eta", "0.5",
        "--epsilon", "0.1", "--y", "-0.3", "--reproducible",
        "--out", "sweep_eta_constant.csv", "--svg", "sweep_eta_constant.svg"],
    # same sweep with polynomially vanishing correlation eta(n) = 1/n
    "sweep_eta_polynomial": [
        "thm3", "--n-range", "4", "4096", "24", "--alpha", "0.25",
        "--eta-poly", "1.0", "1.0", "--epsilon", "0.1", "--y", "-0.3", "--reproducible",
        "--out", "sweep_eta_polynomial.csv", "--svg", "sweep_eta_polynomial.svg"],
    # the k-attribute counting query: near eps_max leakage under 0.1-DP
    "counting_query": [
        "bob", "--k", "5", "--epsilon", "0.1", "--reproducible",
        "--out", "counting_query.csv"],
    # adversary-model validation trials; they write no file
    "oracle_trials": ["oracle", "--seed", "2024"],
}


def outputs(argv):
    """The file names that argv writes: the values of its --out and --svg."""
    return [argv[i + 1] for i, a in enumerate(argv) if a in ("--out", "--svg")]


def placed(argv, directory):
    """argv with its output files placed in directory."""
    names = outputs(argv)
    return [str(directory / a) if a in names else a for a in argv]


def run_all(directory=RESULTS) -> int:
    """Run every command into directory; the worst exit code."""
    directory.mkdir(exist_ok=True)
    worst = 0
    for name, argv in COMMANDS.items():
        argv = placed(argv, directory)
        print(f"== {name}: pmleak {' '.join(argv)}")
        code = main(argv)
        if code != 0:
            print(f"   exited with code {code}", file=sys.stderr)
        worst = max(worst, code)
    print(f"artifacts written to {directory}")
    return worst


if __name__ == "__main__":
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    sys.exit(run_all())
