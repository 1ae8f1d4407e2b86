"""pml_d1 against the committed small-variance corpus, without mpmath.

tests/golden/pml_d1_small_variance.json holds inputs and their 50-digit
PML (scripts/make_golden.py writes it).  numpy's float64 transcendentals
take AVX-512 loops where the CPU has them, and NPY_DISABLE_CPU_FEATURES
switches them off for a whole process, so the corpus is read once in this
process and once in a child with those loops off.
"""

import json
import os
import pathlib
import subprocess
import sys

from pmleak.constructions import CorrelatedBinaryModel, pml_d1

CORPUS = pathlib.Path(__file__).resolve().parent / "golden" / "pml_d1_small_variance.json"

#: NPY_DISABLE_CPU_FEATURES value that makes numpy's float64 loops match math's
WITHOUT_AVX512 = "AVX512_SPR AVX512_ICL X86_V4"


def worst_cell():
    """(largest |pml_d1 - reference|, its row) over the corpus."""
    worst = (0.0, None)
    for row in json.loads(CORPUS.read_text())["cells"]:
        n = row[1]
        alpha, eta, epsilon, y, want = (float.fromhex(v) for v in row[2:])
        err = abs(pml_d1(CorrelatedBinaryModel(n, alpha, eta), epsilon, y) - want)
        if not err <= worst[0]:  # a NaN is the worst
            worst = (err, row)
    return worst


def test_corpus_covers_its_groups():
    cells = json.loads(CORPUS.read_text())["cells"]
    assert {row[0] for row in cells} == {"small-n", "ends", "switch", "moved"}
    assert len(cells) > 2000


def test_corpus_in_this_process():
    err, row = worst_cell()
    assert err <= 1e-14, row


def test_corpus_without_avx512_loops():
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=WITHOUT_AVX512,
               PYTHONPATH=os.pathsep.join(sys.path))
    code = "import json, test_golden; print(json.dumps(test_golden.worst_cell()))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, cwd=pathlib.Path(__file__).parent).stdout
    err, row = json.loads(out.strip().splitlines()[-1])
    assert err <= 1e-14, row
