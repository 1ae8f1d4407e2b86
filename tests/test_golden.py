"""pml_d1 against the committed small-variance corpus, without mpmath, and
a sample of the corpus against its generator.

tests/golden/pml_d1_small_variance.json holds inputs and their 50-digit
PML (scripts/make_golden.py writes it).  The corpus is read once in this
process and once in a child with numpy's AVX-512 loops off.
"""

import json

from pmleak.constructions import _PATHS, CorrelatedBinaryModel, pml_d1
from support import GOLDEN, density_path, load_script, run_without_avx512

CORPUS = GOLDEN / "pml_d1_small_variance.json"

#: the error each path may leave, by the name `_cond_densities_binomial`
#: returns; the line's n-sized constants all go into the anchor, so its rows
#: keep their last bits
BOUNDS = {"closed form": 1e-14, "mirror image": 1e-14,
          "line": 2e-15, "line + erfc pole": 2e-15, "line + residue": 2e-15,
          "line, residue alone": 2e-15,
          "circle": 1e-14, "moved circle": 1e-14, "circle + residue": 1e-14,
          "moved circle + residue": 1e-14, "circle, residue alone": 1e-14}


def worst_cell():
    """{path: (largest |pml_d1 - reference|, its row)} over the corpus, by the
    path `pml_d1` takes at the cell."""
    worst = {}
    for row in json.loads(CORPUS.read_text())["cells"]:
        n = row[1]
        alpha, eta, epsilon, y, want = (float.fromhex(v) for v in row[2:])
        model = CorrelatedBinaryModel(n, alpha, eta)
        err = abs(pml_d1(model, epsilon, y) - want)
        path = density_path(model, epsilon, y)
        if path not in worst or not err <= worst[path][0]:  # a NaN is the worst
            worst[path] = (err, row)
    return worst


def assert_within_bounds(worst):
    assert BOUNDS.keys() == set(_PATHS)
    assert worst.keys() == BOUNDS.keys(), "a path without a corpus cell"
    for path in _PATHS:
        err, row = worst[path]
        print(f"{path}: {err:.2g}")
        assert err <= BOUNDS[path], (path, row)


def test_corpus_covers_its_groups():
    cells = json.loads(CORPUS.read_text())["cells"]
    assert {row[0] for row in cells} == {"small-n", "ends", "switch", "moved"}
    assert len(cells) > 2000


def test_corpus_in_this_process():
    assert_within_bounds(worst_cell())


def test_corpus_without_avx512_loops():
    code = "import json, test_golden; print(json.dumps(test_golden.worst_cell()))"
    assert_within_bounds(json.loads(run_without_avx512(code)))


def mid_bin_values():
    """[[n, epsilon, y, pml_d1 as hex, its path]] at mid-bin outcomes past the
    corpus's epsilon range: n in {5, 30, 200}, k in {1, n // 2, n - 1}, and
    the rounding tie y = 13.5/31, whose exact f is 1/2 + 5.6e-17."""
    cells = [(n, (k + 0.5) / (n + 1)) for n in (5, 30, 200) for k in sorted({1, n // 2, n - 1})]
    out = []
    for n, y in cells + [(30, 13.5 / 31)]:
        model = CorrelatedBinaryModel(n, 0.25, 0.5)
        for epsilon in (200.0, 1e4, 1e6, 1e10, 1e20, 1e100):
            out.append([n, epsilon, y, pml_d1(model, epsilon, y).hex(),
                        density_path(model, epsilon, y)])
    return out


def assert_mid_bin_within_bounds(values):
    # 2f - 1 rounded from a rounded f moved the PML by up to 0.035 here at
    # epsilon >= 1e20 (y = 13.5/31), and by 6.8e-10 at n = 30, k = 1, epsilon = 1e10
    make_golden = load_script("make_golden")
    for n, epsilon, y, got, path in values:
        want = make_golden.reference_pml(n, 0.25, 0.5, epsilon, y)
        assert abs(float.fromhex(got) - want) <= BOUNDS[path], (n, epsilon, y, path)


def test_mid_bin_at_large_epsilon_in_this_process():
    assert_mid_bin_within_bounds(mid_bin_values())


def test_mid_bin_at_large_epsilon_without_avx512_loops():
    code = "import json, test_golden; print(json.dumps(test_golden.mid_bin_values()))"
    assert_mid_bin_within_bounds(json.loads(run_without_avx512(code)))


def test_generator_reproduces_the_corpus():
    # the constructions tests share the generator's direct sum, so an edit
    # made for them must leave every 10th cell with n <= 100 bit for bit
    make_golden = load_script("make_golden")
    cells = [row for row in json.loads(CORPUS.read_text())["cells"] if row[1] <= 100][::10]
    for row in cells:
        alpha, eta, epsilon, y = (float.fromhex(v) for v in row[2:6])
        assert make_golden.reference_pml(row[1], alpha, eta, epsilon, y).hex() == row[6], row


def test_generator_lists_the_cells_that_move():
    make_golden = load_script("make_golden")
    old = json.loads(CORPUS.read_text())["cells"]
    assert make_golden.differences(old, old) == []
    moved, gone, added = old[0], old[1], ["ends", 5000] + old[2][2:]
    new = [moved[:-1] + ["0x0.0p+0"]] + old[2:] + [added]
    inputs = [" ".join([row[0], *(f"{c}={v}" for c, v in zip(
        ("n", "alpha", "eta", "epsilon", "y"), row[1:-1]))]) for row in (moved, gone, added)]
    assert make_golden.differences(old, new) == sorted([
        f"{inputs[0]}: {moved[-1]} -> 0x0.0p+0",
        f"{inputs[1]}: {gone[-1]} -> -",
        f"{inputs[2]}: - -> {added[-1]}"])
