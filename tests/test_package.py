import importlib
import pkgutil

import pytest

import sparsedyn

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(sparsedyn.__path__, "sparsedyn."))


def test_package_has_submodules():
    assert "sparsedyn.graphs" in SUBMODULES


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_imports(name):
    importlib.import_module(name)
