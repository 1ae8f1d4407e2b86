#!/usr/bin/env python3
"""Write tests/golden/pml_d1_small_variance.json: pml_d1's inputs at small
binomial variance, each with its 50-digit PML from mpmath.

The reference sums the n+1 Hamming-weight terms directly (n <= 3000), at the
calibrated scale b = 1/(epsilon (n+1)) as float arithmetic rounds it and at
the float outcome y, so it checks the evaluator and not the rounding of its
inputs.  Every float is stored as float.hex.  The cells:

- n = 1 ... 99 at mid-bin, at the bin edge and one ulp to either side, for
  k in {0, 1, n-1, n} and one seeded bin;
- n in {100, 300, 1000, 3000} with kinks within 50 of either end, and the
  same four bins;
- k(n-k)/n within 2 of 25, on both sides of the switch from the circle to
  the line;
- saddles within 0.3 of a pole radius, where the circle is moved.

Each cell takes epsilon in {0.001, 0.1, 1, 15.6, 200}, eta in {1e-12, 0.5,
0.99} and alpha in {0.01, 0.25, 0.45} in turn (the moved saddles take their
own epsilon).  Before it writes, the script prints each cell whose PML
differs from the file it replaces, old -> new.  Run from the repository root:

    python3 scripts/make_golden.py
"""

import functools
import itertools
import json
import math
import random
from pathlib import Path

import mpmath

OUT = Path(__file__).resolve().parent.parent / "tests" / "golden" / "pml_d1_small_variance.json"
EPSILONS = (0.001, 0.1, 1.0, 15.6, 200.0)
ETAS = (1e-12, 0.5, 0.99)
ALPHAS = (0.01, 0.25, 0.45)
DPS = 50
COLUMNS = ["group", "n", "alpha", "eta", "epsilon", "y", "pml"]


@functools.lru_cache(maxsize=None)
def binomials(n, dps):
    """C(n, i) for i = 0..n as mpmath floats at `dps` digits."""
    with mpmath.workdps(dps):
        return [mpmath.mpf(c) for c in itertools.accumulate(
            range(1, n + 1), lambda c, i: c * (n - i + 1) // i, initial=1)]


def cond_sums(n, etas, b, y, dps=DPS):
    """[[2b P(y | d1) for d1 = 0, 1] for each eta]: the 2^n-string mixture
    grouped by Hamming weight and summed directly, at the float scale b and
    outcome y, as mpmath floats of `dps` digits."""
    m = n + 1
    with mpmath.workdps(dps):
        # e^{-|y - j/m|/b} = e^{-|ym - j| t} for the centers j/m, j = 0..m
        t, s = 1 / (m * mpmath.mpf(b)), mpmath.mpf(y) * m
        lap = [mpmath.exp(-abs(s - j) * t) for j in range(m + 1)]
        w = binomials(n, dps)
        # row d1 weighs center (d1 + i)/m by C(n, i) and leaves out i = n d1
        sums = [mpmath.fdot(w[1:], lap[1:]), mpmath.fdot(w[:-1], lap[1:])]
        return [[eta * lap[m * d1] + (1 - eta) / (2 ** n - 1) * sums[d1] for d1 in (0, 1)]
                for eta in map(mpmath.mpf, etas)]


def reference_pml(n, alpha, eta, epsilon, y):
    """log max_d1 P(y | d1) / P(y), both rows and their alpha-mixture P(y) by direct sum."""
    b = 1.0 / (epsilon * (n + 1))  # calibrated_scale, rounded as floats round it
    with mpmath.workdps(DPS):
        cond = cond_sums(n, (eta,), b, y)[0]
        alpha = mpmath.mpf(alpha)
        return float(mpmath.log(max(cond) / (alpha * cond[0] + (1 - alpha) * cond[1])))


def bin_outcomes(n, k):
    """Mid-bin, the lower edge and one ulp to either side of it, in (0, 1]."""
    m = n + 1
    edge = k / m
    ys = [(k + 0.5) / m, math.nextafter(edge, 0.0), edge, math.nextafter(edge, 2.0)]
    return [y for y in ys if 0.0 < y <= 1.0]


def outcomes():
    """(group, n, y) of every cell but the moved saddles'."""
    rng = random.Random(16)
    for n in range(1, 100):
        ks = {0, 1, n - 1, n, rng.randint(0, n)}
        for k in sorted(k for k in ks if 0 <= k <= n):
            for y in bin_outcomes(n, k):
                yield "small-n", n, y
    for n in (100, 300, 1000, 3000):
        for k in (0, 1, n - 1, n):
            for y in bin_outcomes(n, k):
                yield "ends", n, y
        for _ in range(24):
            kink = rng.uniform(0.0, 50.0)
            yield "ends", n, (kink if rng.random() < 0.5 else n + 1 - kink) / (n + 1)
    for n in (100, 110, 150, 300, 1000, 3000):
        for k in range(1, n):
            if abs(k * (n - k) / n - 25) <= 2 and (k <= n // 2 or n > 150):
                for y in bin_outcomes(n, k)[:2]:
                    yield "switch", n, y


def moved_saddles():
    """(n, epsilon, y) with log(k/(n-k)) within 0.3 of a pole radius +-epsilon."""
    rng = random.Random(3)
    for n in (4, 20, 50, 96, 98, 99, 300, 3000):
        for k in sorted({1, 2, n // 4, n // 2, n - 1}):
            if not 0 < k < n or k * (n - k) >= 25 * n:
                continue
            x = abs(math.log(k / (n - k)))
            for gap in (-0.29, -0.1, 0.0, 0.1, 0.29):
                epsilon = x + gap
                if epsilon > 0.0005:
                    yield n, epsilon, (k + rng.uniform(0.05, 0.95)) / (n + 1)
        # k = n/2: both poles within 0.3 of the saddle, which moves outside both
        if n % 2 == 0 and n * n // 4 < 25 * n:
            for epsilon in (0.001, 0.15, 0.29):
                yield n, epsilon, (n // 2 + 0.5) / (n + 1)


def differences(old, new):
    """One line per cell whose PML differs between two lists of corpus rows,
    keyed by group and inputs, "-" where one list has none."""
    def key(row):  # "small-n n=1 alpha=0x1.0p-2 ..."
        return " ".join([row[0]] + [f"{c}={v}" for c, v in zip(COLUMNS[1:-1], row[1:-1])])
    was, now = ({key(row): row[-1] for row in rows} for rows in (old, new))
    return [f"{cell}: {was.get(cell, '-')} -> {now.get(cell, '-')}"
            for cell in sorted(was.keys() | now.keys()) if was.get(cell) != now.get(cell)]


def main():
    params = itertools.cycle(itertools.product(EPSILONS, ETAS, ALPHAS))
    mixture = itertools.cycle(itertools.product(ETAS, ALPHAS))
    cells = []
    for group, n, y in outcomes():
        epsilon, eta, alpha = next(params)
        cells.append((group, n, alpha, eta, epsilon, y))
    for n, epsilon, y in moved_saddles():
        eta, alpha = next(mixture)
        cells.append(("moved", n, alpha, eta, epsilon, y))
    rows = [[group, n, *(float(v).hex() for v in (alpha, eta, epsilon, y,
                                                   reference_pml(n, alpha, eta, epsilon, y)))]
            for group, n, alpha, eta, epsilon, y in cells]
    old = json.loads(OUT.read_text())["cells"] if OUT.exists() else []
    moved = differences(old, rows)
    print("\n".join(moved) if moved else "no cell moved")
    OUT.parent.mkdir(exist_ok=True)
    head = json.dumps({
        "about": "pml_d1(CorrelatedBinaryModel(n, alpha, eta), epsilon, y) against its "
                 f"{DPS}-digit mpmath value by direct sum; written by scripts/make_golden.py",
        "columns": COLUMNS})
    # one cell a line, so a regenerated corpus diffs cell by cell
    OUT.write_text(head[:-1] + ', "cells": [\n' + ",\n".join(map(json.dumps, rows)) + "\n]}\n")
    print(f"{len(rows)} cells written to {OUT}")


if __name__ == "__main__":
    main()
