"""The docstring examples of every bruhatcells module run as tests."""

import doctest
import importlib
import pkgutil

import pytest

import bruhatcells

# __main__ runs the command line when imported
MODULES = sorted(
    info.name
    for info in pkgutil.iter_modules(bruhatcells.__path__, "bruhatcells.")
    if info.name != "bruhatcells.__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests_pass(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0


def test_doctests_are_found():
    attempted = sum(
        doctest.testmod(importlib.import_module(name)).attempted for name in MODULES
    )
    assert attempted >= 11
