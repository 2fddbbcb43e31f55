"""The ``>>>`` examples in the library's docstrings run and pass."""

import doctest
import importlib
import pkgutil

import pytest

import ringmoments

# __main__ runs the command line when imported, and holds no examples
MODULES = ["ringmoments"] + sorted(
    info.name
    for info in pkgutil.iter_modules(ringmoments.__path__, "ringmoments.")
    if info.name != "ringmoments.__main__"
)
WITH_EXAMPLES = {
    "ringmoments.permutations",
    "ringmoments.weingarten",
    "ringmoments.haar_moments",
    "ringmoments.exact_moments",
}


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0, name
    if name in WITH_EXAMPLES:
        assert result.attempted >= 1, name


def test_modules_with_examples_are_found():
    assert WITH_EXAMPLES <= set(MODULES)
