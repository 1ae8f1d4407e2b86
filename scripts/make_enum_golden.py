#!/usr/bin/env python3
"""Write tests/golden/enumeration_bits.json: the bits of the enumeration
paths, every float as float.hex, so a change to their kernels shows each
cell it moves.  The cells:

- criterion 8's nine `theorem2_check` reports: randomized response at
  p in {0.1, 0.25, 0.4} on n in {1, 2, 3} binary entries, 50 prior
  samples, a 99-point grid on (0.01, 0.99), seed 8;
- `entry_channel` (the law of entry i and log P(y | D_i = d)) on the
  correlated model at alpha = 1/4, n = 1 ... 15, eta in {0.1, 0.5, 0.9},
  under the calibrated mechanism at epsilon in {0.1, 5}, for entries
  {0, n//2, n} and y in {-0.3, 0, 0.2, 0.5, 0.77, 1, 2};
- `entry_channel` on a ternary product prior under the product of a 3x3
  channel, at n = 1 ... 4, for every entry and outcome.

The values come from pmleak itself; tests/test_enumeration_bits.py
recomputes them with `cells()`.  Before it writes, the script prints each
cell that differs from the file it replaces, old -> new.  Run from the
repository root:

    PYTHONPATH=src python3 scripts/make_enum_golden.py
"""

import dataclasses
import itertools
import json
import math
from pathlib import Path

from pmleak.constructions import CorrelatedBinaryModel, calibrated_mechanism
from pmleak.leakage import entry_channel, theorem2_check
from pmleak.mechanisms import FiniteMechanism, product_mechanism, randomized_response
from pmleak.probability import FiniteDistribution, ProductModel

OUT = Path(__file__).resolve().parent.parent / "tests" / "golden" / "enumeration_bits.json"
TERNARY_CHANNEL = [[0.6, 0.3, 0.1], [0.25, 0.5, 0.25], [0.1, 0.2, 0.7]]
TERNARY_PRIOR = [[0.5, 0.3, 0.2], [0.2, 0.1, 0.7], [0.45, 0.45, 0.1], [0.05, 0.6, 0.35]]


def hexed(value):
    """value with every float, also inside tuples and lists, as float.hex."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return [hexed(v) for v in value]
    return value


def channel_cell(model, mech, i, y):
    law, cond = entry_channel(model, mech, i, y)
    return hexed([law.logp, cond])


def theorem2_cells():
    for p, n in itertools.product((0.1, 0.25, 0.4), (1, 2, 3)):
        report = theorem2_check(product_mechanism(randomized_response(p), n),
                                math.log((1.0 - p) / p), n, (0, 1), prior_samples=50,
                                grid_resolution=99, seed=8, grid_span=(0.01, 0.99))
        yield f"theorem2 p={p} n={n}", hexed(dataclasses.astuple(report))


def correlated_cells():
    for n, eta, epsilon in itertools.product(range(1, 16), (0.1, 0.5, 0.9), (0.1, 5.0)):
        model = CorrelatedBinaryModel(n, 0.25, eta)
        mech = calibrated_mechanism(model, epsilon)
        for i, y in itertools.product(sorted({0, n // 2, n}),
                                      (-0.3, 0.0, 0.2, 0.5, 0.77, 1.0, 2.0)):
            yield (f"correlated n={n} eta={eta} epsilon={epsilon} i={i} y={y}",
                   channel_cell(model, mech, i, y))


def ternary_cells():
    base = FiniteMechanism.from_probs((0, 1, 2), ("a", "b", "c"), TERNARY_CHANNEL)
    for n in range(1, 5):
        model = ProductModel(tuple(FiniteDistribution.from_probs((0, 1, 2), row)
                                   for row in TERNARY_PRIOR[:n]))
        mech = product_mechanism(base, n)
        for i, y in itertools.product(range(n), mech.y_labels):
            yield f"ternary n={n} i={i} y={''.join(y)}", channel_cell(model, mech, i, y)


def cells():
    """{name: pinned value} of every cell, floats as hex."""
    return dict(itertools.chain(theorem2_cells(), correlated_cells(), ternary_cells()))


def differences(old, new):
    """One line per cell whose value differs between two {name: value}
    records, "-" where one has none."""
    lines = []
    for name in sorted(old.keys() | new.keys()):
        was, now = (json.dumps(c[name]) if name in c else "-" for c in (old, new))
        if was != now:
            lines.append(f"{name}: {was} -> {now}")
    return lines


def main():
    new = cells()
    old = json.loads(OUT.read_text())["cells"] if OUT.exists() else {}
    moved = differences(old, new)
    print("\n".join(moved) if moved else "no cell moved")
    rows = [json.dumps(name) + ": " + json.dumps(value) for name, value in new.items()]
    head = json.dumps({"about": "bits of theorem2_check and entry_channel; written by "
                                "scripts/make_enum_golden.py"})
    # one cell a line, so a regenerated file diffs cell by cell
    OUT.write_text(head[:-1] + ', "cells": {\n' + ",\n".join(rows) + "\n}}\n")
    print(f"{len(rows)} cells written to {OUT}")


if __name__ == "__main__":
    main()
