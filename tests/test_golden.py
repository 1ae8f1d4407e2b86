"""pml_d1 against the committed small-variance corpus, without mpmath, and
a sample of the corpus against its generator.

tests/golden/pml_d1_small_variance.json holds inputs and their 50-digit
PML (scripts/make_golden.py writes it).  The corpus is read once in this
process and once in a child with numpy's AVX-512 loops off.
"""

import json
import math

from pmleak.constructions import _SADDLE_MIN_VARIANCE, CorrelatedBinaryModel, pml_d1
from support import GOLDEN, load_script, run_without_avx512

CORPUS = GOLDEN / "pml_d1_small_variance.json"

#: the error each rule may leave; the line's n-sized constants all go into
#: the anchor, so its rows keep their last bits
BOUNDS = {"line": 2e-15, "circle": 1e-14, "closed form": 1e-14}


def rule(n, y):
    """The rule of `pml_d1` at (n, y): by the kink k = floor(y(n+1)) of
    clip(y, 0, 1), the line or the circle inside (0, n), else the closed form."""
    k = math.floor(min(max(y, 0.0), 1.0) * (n + 1))
    if not 0 < k < n:
        return "closed form"
    return "line" if k * (n - k) >= _SADDLE_MIN_VARIANCE * n else "circle"


def worst_cell():
    """{rule: (largest |pml_d1 - reference|, its row)} over the corpus."""
    worst = {}
    for row in json.loads(CORPUS.read_text())["cells"]:
        n = row[1]
        alpha, eta, epsilon, y, want = (float.fromhex(v) for v in row[2:])
        err = abs(pml_d1(CorrelatedBinaryModel(n, alpha, eta), epsilon, y) - want)
        name = rule(n, y)
        if name not in worst or not err <= worst[name][0]:  # a NaN is the worst
            worst[name] = (err, row)
    return worst


def assert_within_bounds(worst):
    assert worst.keys() == BOUNDS.keys()
    for name, (err, row) in worst.items():
        assert err <= BOUNDS[name], (name, row)


def test_corpus_covers_its_groups():
    cells = json.loads(CORPUS.read_text())["cells"]
    assert {row[0] for row in cells} == {"small-n", "ends", "switch", "moved"}
    assert len(cells) > 2000


def test_corpus_in_this_process():
    assert_within_bounds(worst_cell())


def test_corpus_without_avx512_loops():
    code = "import json, test_golden; print(json.dumps(test_golden.worst_cell()))"
    assert_within_bounds(json.loads(run_without_avx512(code)))


def test_generator_reproduces_the_corpus():
    # the constructions tests share the generator's direct sum, so an edit
    # made for them must leave every 10th cell with n <= 100 bit for bit
    make_golden = load_script("make_golden")
    cells = [row for row in json.loads(CORPUS.read_text())["cells"] if row[1] <= 100][::10]
    for row in cells:
        alpha, eta, epsilon, y = (float.fromhex(v) for v in row[2:6])
        assert make_golden.reference_pml(row[1], alpha, eta, epsilon, y).hex() == row[6], row
