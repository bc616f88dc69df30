import doctest
import importlib

import pytest

MODULE_NAMES = [
    "ackirby.words",
    "ackirby.presentations",
    "ackirby._kernel_py",
    "ackirby._intdet",
    "ackirby.family",
    "ackirby.search",
    "ackirby.kirby",
    "ackirby.curves",
    "ackirby.cli",
]


@pytest.mark.parametrize("name", MODULE_NAMES)
def test_module_doctests(name):
    module = importlib.import_module(name)
    result = doctest.testmod(module, verbose=False)
    assert result.failed == 0
    assert result.attempted > 0
