"""The enumeration paths against their committed bits.

tests/golden/enumeration_bits.json pins criterion 8's `theorem2_check`
reports and `entry_channel` on the correlated and a ternary product model,
floats as hex (scripts/make_enum_golden.py writes it and recomputes it
here).  Both paths sum in numpy, whose float64 loops differ with the CPU
features a process may use, so the bits are checked in this process and in
a child with the AVX-512 loops off.  The entry-0 correlated cells are
also recomputed through the sweep's class sums (`_entry0_channel`), in
both.  A change that moves a cell lists the move in CHANGES.md.

Both enumerations of entry 0, the class sums and `pml_entry`, are also
held to the 50-digit direct sum (`make_golden.reference_pml`) on a grid
of bin edges out to epsilon = 1e100, in both processes.
"""

import functools
import json
import math

from pmleak.constructions import CorrelatedBinaryModel, _entry0_channel, calibrated_mechanism
from pmleak.leakage import pml, pml_entry
from support import GOLDEN, load_script, run_without_avx512

PINS = GOLDEN / "enumeration_bits.json"
make_enum_golden = load_script("make_enum_golden")


def direct_sum_grid():
    """(n, epsilon, y) of 2,016 cells: n in {1, 2, 3, 5, 7, 12, 15}, nine
    epsilons from 0.1 to 1e100, and in every bin k of n + 1 the edge k/(n+1),
    one ulp either side of it and (k + 1/4)/(n+1), with the mid-bin
    (k + 1/2)/(n+1) where n + 1 is a power of two; y = 0 and below are left
    out, where the PML is the one at 0."""
    cells = []
    for n in (1, 2, 3, 5, 7, 12, 15):
        m = n + 1
        ys = []
        for k in range(m):
            edge = k / m
            ys += [math.nextafter(edge, 0.0), edge, math.nextafter(edge, 2.0), (k + 0.25) / m]
            if m & (m - 1) == 0:  # elsewhere fl(j/m) can decide the nearest center (item 13 (b))
                ys.append((k + 0.5) / m)
        cells += [(n, epsilon, y) for epsilon in (0.1, 1.0, 10.0, 200.0, 1e4, 1e8, 1e17, 1e40,
                                                  1e100) for y in ys if y > 0.0]
    return cells


@functools.cache
def direct_sums():
    make_golden = load_script("make_golden")
    return [make_golden.reference_pml(n, 0.25, 0.5, epsilon, y)
            for n, epsilon, y in direct_sum_grid()]


def enumerated_pmls():
    """[[the class sums' PML, pml_entry's at n <= 7 or None], floats as hex]
    at entry 0 of the correlated model (alpha 1/4, eta 1/2), over the grid."""
    out = []
    for n, epsilon, y in direct_sum_grid():
        model = CorrelatedBinaryModel(n, 0.25, 0.5)
        entry = None
        if n <= 7:
            entry = pml_entry(model, calibrated_mechanism(model, epsilon), 0, y).pml.hex()
        out.append([pml(*_entry0_channel(model, epsilon, y)).hex(), entry])
    return out


def assert_near_direct_sums(values):
    assert len(values) == 2016
    for cell, want, pmls in zip(direct_sum_grid(), direct_sums(), values):
        for got in filter(None, pmls):
            assert abs(float.fromhex(got) - want) <= 2e-15 * (1.0 + want), cell


def moved_cells():
    """The names of the cells whose recomputed value differs from its pin."""
    want = json.loads(PINS.read_text())["cells"]
    got = make_enum_golden.cells()
    assert got.keys() == want.keys()
    return [name for name in want if got[name] != want[name]]


def moved_class_cells():
    """The names of the entry-0 correlated cells whose value recomputed by
    the sweep's class sums differs from its pin."""
    want = json.loads(PINS.read_text())["cells"]
    moved = []
    for name, value in want.items():
        kind, *fields = name.split()
        params = dict(field.split("=") for field in fields)
        if kind != "correlated" or params["i"] != "0":
            continue
        model = CorrelatedBinaryModel(int(params["n"]), 0.25, float(params["eta"]))
        law, cond = _entry0_channel(model, float(params["epsilon"]), float(params["y"]))
        if make_enum_golden.hexed([law.logp, cond]) != value:
            moved.append(name)
    return moved


def test_pins_cover_every_path():
    names = json.loads(PINS.read_text())["cells"]
    assert {name.split()[0] for name in names} == {"theorem2", "correlated", "ternary"}
    assert sum(name.startswith("theorem2") for name in names) == 9


def test_generator_lists_the_cells_that_move():
    old = json.loads(PINS.read_text())["cells"]
    assert make_enum_golden.differences(old, old) == []
    new = dict(old)
    moved, gone = "theorem2 p=0.1 n=1", "ternary n=1 i=0 y=a"
    new[moved] = [["0x0.0p+0"]]
    del new[gone]
    new["correlated n=16"] = [["0x1.0p+0"]]
    assert make_enum_golden.differences(old, new) == [
        'correlated n=16: - -> [["0x1.0p+0"]]',
        f"{gone}: {json.dumps(old[gone])} -> -",
        f'{moved}: {json.dumps(old[moved])} -> [["0x0.0p+0"]]']


def test_generator_sums_up_the_moves():
    old = json.loads(PINS.read_text())["cells"]
    assert make_enum_golden.summary(old, old) == (
        "0 cells moved, 0 of them in their law; largest PML move 0 relative to 1 + PML")
    new = dict(old)
    raised, witness = "theorem2 p=0.1 n=1", "theorem2 p=0.25 n=1"
    top = float.fromhex(old[raised][1])
    new[raised] = [old[raised][0], (top + 1e-3).hex(), *old[raised][2:]]
    new[witness] = old[witness][:2] + [[["0x1.0p-1", "0x1.0p-1"]]] + old[witness][3:]
    # a channel shifted by a constant keeps its PML
    shifted = "ternary n=2 i=1 y=ab"
    law, cond = old[shifted]
    new[shifted] = [law, [(float.fromhex(v) + 1.0).hex() for v in cond]]
    del new["ternary n=1 i=0 y=a"]
    assert make_enum_golden.summary(old, new) == (
        f"4 cells moved, 1 of them in their law; largest PML move {1e-3 / (1 + top):.2g} "
        "relative to 1 + PML")


def test_pins_in_this_process():
    assert moved_cells() == []


def test_class_sums_give_the_entry0_pins():
    # 630 cells: n = 1 ... 15, three etas, two epsilons, seven outcomes
    names = json.loads(PINS.read_text())["cells"]
    assert sum(name.startswith("correlated") and " i=0 " in name for name in names) == 630
    assert moved_class_cells() == []


def test_pins_without_avx512_loops():
    code = ("import json, test_enumeration_bits as t; "
            "print(json.dumps(t.moved_cells() + t.moved_class_cells()))")
    assert json.loads(run_without_avx512(code)) == []


def test_enumerations_against_the_direct_sum_in_this_process():
    assert_near_direct_sums(enumerated_pmls())


def test_enumerations_against_the_direct_sum_without_avx512_loops():
    code = "import json, test_enumeration_bits as t; print(json.dumps(t.enumerated_pmls()))"
    assert_near_direct_sums(json.loads(run_without_avx512(code)))
