"""Every exported name resolves: the ``__all__`` of each module and the
public names of the package namespace."""

import importlib
import pkgutil

import pytest

import bruhatcells

MODULES = sorted(
    info.name
    for info in pkgutil.iter_modules(bruhatcells.__path__)
    if info.name != "__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"bruhatcells.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing


def test_star_imports_resolve():
    for name in ["bruhatcells"] + [f"bruhatcells.{m}" for m in MODULES]:
        exec(f"from {name} import *", {})

