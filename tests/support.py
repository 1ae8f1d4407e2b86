"""What the test modules share: the repository's paths, its scripts as
modules, a child process with numpy's AVX-512 loops off, traced peaks, and
the path `pml_d1` takes."""

import contextlib
import functools
import importlib.util
import tracemalloc
import types
from pathlib import Path

from pmleak.constructions import _cond_densities_binomial, _pml_outcome, calibrated_scale

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
GOLDEN = TESTS / "golden"
RESULTS = ROOT / "results"


@functools.cache
def load_script(name):
    """scripts/<name>.py as a module, loaded once; its main block does not run."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_without_avx512(code):
    """The last line that Python `code` prints in a child process run from
    tests/ with this process's sys.path and numpy's AVX-512 loops switched
    off (`make_oracle_golden.run_without_avx512`)."""
    return load_script("make_oracle_golden").run_without_avx512(code, TESTS)


def density_path(model, epsilon, y):
    """The name of the path that `pml_d1` takes at y; at y = 1/2, where it
    reads 0 without one, the path named there."""
    return _cond_densities_binomial(model, calibrated_scale(model.n, epsilon),
                                    _pml_outcome(y), anchored=True)[2]


@contextlib.contextmanager
def traced_peak():
    """Trace the block's allocations; `.bytes` holds their peak after it."""
    peak = types.SimpleNamespace(bytes=None)
    tracemalloc.start()
    try:
        yield peak
        peak.bytes = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
