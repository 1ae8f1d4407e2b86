"""The enumeration paths against their committed bits.

tests/golden/enumeration_bits.json pins criterion 8's `theorem2_check`
reports and `entry_channel` on the correlated and a ternary product model,
floats as hex (scripts/make_enum_golden.py writes it and recomputes it
here).  Both paths sum in numpy, whose float64 loops differ with the CPU
features a process may use, so the bits are checked in this process and in
a child with the AVX-512 loops off.  The entry-0 correlated cells are
also recomputed through the sweep's class sums (`_entry0_channel`), in
both.  A change that moves a cell lists the move in CHANGES.md.
"""

import json

from pmleak.constructions import CorrelatedBinaryModel, _entry0_channel
from support import GOLDEN, load_script, run_without_avx512

PINS = GOLDEN / "enumeration_bits.json"
make_enum_golden = load_script("make_enum_golden")


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
