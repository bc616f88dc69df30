"""What the benchmark reads of the package, checked without running it.

`benchmark/tracer.py` wraps named module attributes and
`benchmark/kernel_micro.py` times named kernel functions.  A change
under `src/` that renames one of them would otherwise surface only
under `pytest benchmark/`, as a missing span or a crash.  The benchmark
files are loaded, never changed.
"""

import importlib
import importlib.util
from pathlib import Path

from ackirby import _kernel_py

BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"


def _load(name):
    """A benchmark module, loaded from its file under a private name."""
    spec = importlib.util.spec_from_file_location("benchmark_" + name, BENCHMARK / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_targets_exist():
    tracer = _load("tracer").Tracer()
    try:
        tracer.install()
        assert tracer.missing == []
    finally:
        tracer.uninstall()

    kernels = [_kernel_py]
    if importlib.util.find_spec("ackirby._kernel_c") is not None:
        kernels.append(importlib.import_module("ackirby._kernel_c"))
    timed = _load("kernel_micro").FUNCTIONS
    for module in kernels:
        for name in timed:
            assert callable(getattr(module, name, None)), (module.__name__, name)
