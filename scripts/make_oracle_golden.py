#!/usr/bin/env python3
"""Write tests/golden/oracle_pins.json: the bits of the adversary trials,
so a change to their draws or scores shows each field and array it moves.
The pins:

- every field of `run_adversary_trials`' report at seed 2024, floats as
  float.hex, on random channels at the default counts and on a fixed
  channel with an all-zero outcome column;
- the sha256 of every array that one block of trials at seed 11 draws and
  scores, on random channels of 2, 5 and 8 secrets and on the fixed
  channel: where the seed-2024 maxima could hide a moved lane.

numpy's AVX-512 exp and log round some lanes differently from its other
loops, and a report's maxima may fall on such a lane, so the pins are keyed
by the loops numpy runs, and both sets are recorded: in this process, and
in a child with the AVX-512 loops switched off.  Each report must pass.
The values come from pmleak itself; tests/test_oracle.py recomputes them
with `pins()`.  Before it writes, the script prints each report field and
block digest that differs from the file it replaces, old -> new.
Run from the repository root:

    PYTHONPATH=src python3 scripts/make_oracle_golden.py
"""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from pmleak import oracle
from pmleak.mechanisms import FiniteMechanism

OUT = Path(__file__).resolve().parent.parent / "tests" / "golden" / "oracle_pins.json"

#: numpy's CPU features that a child process switches off
WITHOUT_AVX512 = "AVX512_SPR AVX512_ICL X86_V4"

# an all-zero output column (P_Y(2) = 0) and a zero in column 1
ZERO_MASS_CHANNEL = FiniteMechanism.from_probs(
    (0, 1, 2), (0, 1, 2), [[0.5, 0.5, 0.0], [0.25, 0.75, 0.0], [1.0, 0.0, 0.0]])

#: the arguments of each pinned seed-2024 report
REPORT_RUNS = {
    "default-counts": dict(),
    "zero-mass-channel": dict(achievability_trials=100, gain_trials=1000,
                              kernel_trials=1000, channel=ZERO_MASS_CHANNEL),
}

#: the secret count and channel of each digested block: random channels at
#: the smallest, a middle and the largest count of the defaults, and the fixed one
BLOCKS = {"random-channels nx=2": (2, None), "random-channels nx=5": (5, None),
          "random-channels nx=8": (8, None), "zero-mass-channel": (3, ZERO_MASS_CHANNEL)}

#: the numpy ufuncs a block's draws and scores go through
BLOCK_UFUNCS = ("exp", "log", "log1p", "expm1")


def report(name):
    """The report of REPORT_RUNS[name] at seed 2024, floats as hex, and whether it passed."""
    r = oracle.run_adversary_trials(seed=2024, **REPORT_RUNS[name])
    return ({k: v.hex() if isinstance(v, float) else v
             for k, v in dataclasses.asdict(r).items()}, r.passed)


def numpy_loops():
    """The SIMD target numpy runs each float64 ufunc of BLOCK_UFUNCS on here."""
    return " ".join(
        f"{f}:" + np.lib.introspect.opt_func_info(f"^{f}$", "float64")[f]["dd"]["current"]
        for f in BLOCK_UFUNCS)


def block_digests(name):
    """sha256 of every array that one _BLOCK-trial block at seed 11 draws and scores."""
    nx, channel = BLOCKS[name]
    rng = np.random.default_rng(11)
    s = oracle._draw_scenarios(rng, nx, oracle._BLOCK, 8, channel)
    g, nw = oracle._draw_gains(rng, s.prior.shape, 8)
    k, sums, nu = oracle._draw_kernels(rng, s.prior.shape, 8)
    arrays = {field.name: getattr(s, field.name) for field in dataclasses.fields(s)}
    arrays.update(gains=g, guesses=nw, kernels=k, kernel_sums=sums, features=nu,
                  indicator_ratios=oracle._indicator_ratios(s),
                  gain_ratios=oracle._gain_ratios(s, g),
                  kernel_ratios=oracle._gain_ratios(s, k, sums))
    return {key: hashlib.sha256(a.tobytes()).hexdigest() for key, a in arrays.items()}


def pins():
    """This process's pins: {"reports": {name: [fields, passed]}, "loops": numpy_loops(),
    "blocks": {block: {array: sha256}}}."""
    return {"reports": {name: list(report(name)) for name in REPORT_RUNS},
            "loops": numpy_loops(),
            "blocks": {name: block_digests(name) for name in BLOCKS}}


def run_without_avx512(code, cwd):
    """The last line that Python `code` prints in a child process run from
    `cwd` with this process's sys.path and NPY_DISABLE_CPU_FEATURES set to
    WITHOUT_AVX512, where numpy's float64 loops match math's."""
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=WITHOUT_AVX512,
               PYTHONPATH=os.pathsep.join(sys.path))
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                           text=True, cwd=cwd)
    if child.returncode != 0:
        raise RuntimeError(f"child exited with code {child.returncode}:\n{child.stderr}")
    return child.stdout.strip().splitlines()[-1]


def child_pins():
    """`pins()` in a child process that has numpy's AVX-512 loops switched off."""
    code = "import json, make_oracle_golden; print(json.dumps(make_oracle_golden.pins()))"
    return json.loads(run_without_avx512(code, Path(__file__).resolve().parent))


def differences(old, new):
    """One line per report field and block digest that differs between two
    {loops: {"reports": ..., "blocks": ...}} records, "-" where one has none."""
    lines = []
    for loops in sorted(old.keys() | new.keys()):
        for section in ("reports", "blocks"):
            was = old.get(loops, {}).get(section, {})
            now = new.get(loops, {}).get(section, {})
            for name in sorted(was.keys() | now.keys()):
                fields_was, fields_now = was.get(name, {}), now.get(name, {})
                for field in sorted(fields_was.keys() | fields_now.keys()):
                    a, b = fields_was.get(field, "-"), fields_now.get(field, "-")
                    if a != b:
                        lines.append(f"{loops} | {section} | {name} | {field}: {a} -> {b}")
    return lines


def main():
    recorded = {}
    for p in (pins(), child_pins()):
        if not all(passed for _, passed in p["reports"].values()):
            sys.exit(f"a pinned report does not pass on loops {p['loops']}; nothing written")
        recorded[p["loops"]] = {
            "reports": {name: fields for name, (fields, _) in p["reports"].items()},
            "blocks": p["blocks"]}
    old = json.loads(OUT.read_text())["loops"] if OUT.exists() else {}
    moved = differences(old, recorded)
    print("\n".join(moved) if moved else "no pin moved")
    OUT.write_text(json.dumps({"about": "bits of run_adversary_trials and its blocks, by "
                                        "numpy loops; written by scripts/make_oracle_golden.py",
                               "loops": recorded}, indent=1) + "\n")
    print(f"pins for {len(recorded)} sets of numpy loops written to {OUT}")


if __name__ == "__main__":
    main()
