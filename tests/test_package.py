import ast
import importlib
import pathlib
import pkgutil

import pytest

import sparsedyn

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(sparsedyn.__path__, "sparsedyn."))
SRC = pathlib.Path(sparsedyn.__file__).parent
# re-exported from dynamics and never called in empirical: the bench tracer patches them there
KEPT_IMPORTS = {"empirical.simulate_discrete", "empirical.simulate_diffusion"}


def unused_imports(source: str) -> set[str]:
    """Names a module's imports bind but its code never reads."""
    tree = ast.parse(source)
    bound = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__")
        for alias in node.names
    }
    return bound - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_package_has_submodules():
    assert "sparsedyn.graphs" in SUBMODULES


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_imports(name):
    importlib.import_module(name)


def test_no_unused_imports():
    found = {f"{path.stem}.{name}" for path in SRC.glob("*.py") for name in unused_imports(path.read_text())}
    assert found == KEPT_IMPORTS


def test_unused_import_check_sees_a_leftover_name():
    source = (SRC / "dynamics.py").read_text()
    leftover = source.replace("import Graph\n", "import Graph, MarkedGraph, RootedGraph\n")
    assert leftover != source
    assert unused_imports(leftover) == {"MarkedGraph", "RootedGraph"}
