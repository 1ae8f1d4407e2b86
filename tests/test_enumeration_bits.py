"""The enumeration paths against their committed bits.

tests/golden/enumeration_bits.json pins criterion 8's `theorem2_check`
reports and `entry_channel` on the correlated and a ternary product model,
floats as hex (scripts/make_enum_golden.py writes it and recomputes it
here).  Both paths sum in numpy, whose float64 loops differ with the CPU
features a process may use, so the bits are checked in this process and in
a child with the AVX-512 loops off.  A change that moves a cell lists the
move in CHANGES.md.
"""

import importlib.util
import json
import os
import pathlib
import subprocess
import sys

from test_golden import WITHOUT_AVX512

ROOT = pathlib.Path(__file__).resolve().parent.parent
PINS = pathlib.Path(__file__).resolve().parent / "golden" / "enumeration_bits.json"

spec = importlib.util.spec_from_file_location("make_enum_golden",
                                              ROOT / "scripts" / "make_enum_golden.py")
make_enum_golden = importlib.util.module_from_spec(spec)
spec.loader.exec_module(make_enum_golden)


def moved_cells():
    """The names of the cells whose recomputed value differs from its pin."""
    want = json.loads(PINS.read_text())["cells"]
    got = make_enum_golden.cells()
    assert got.keys() == want.keys()
    return [name for name in want if got[name] != want[name]]


def test_pins_cover_every_path():
    names = json.loads(PINS.read_text())["cells"]
    assert {name.split()[0] for name in names} == {"theorem2", "correlated", "ternary"}
    assert sum(name.startswith("theorem2") for name in names) == 9


def test_pins_in_this_process():
    assert moved_cells() == []


def test_pins_without_avx512_loops():
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=WITHOUT_AVX512,
               PYTHONPATH=os.pathsep.join(sys.path))
    code = ("import json, test_enumeration_bits; "
            "print(json.dumps(test_enumeration_bits.moved_cells()))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, cwd=pathlib.Path(__file__).parent).stdout
    assert json.loads(out.strip().splitlines()[-1]) == []
