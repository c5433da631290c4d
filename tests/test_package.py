import ast
import importlib
import os
import pathlib
import pkgutil
import subprocess
import sys

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


# scipy modules that only rarely called functions use; a cold import loads none
UNUSED_AT_IMPORT = ("scipy.optimize", "scipy.special", "scipy.sparse.csgraph", "scipy.sparse.linalg", "scipy.linalg")
# one call of each function that imports one of them; run cold and in the test process
LAZY_CALLS = """
import numpy as np
from sparsedyn.empirical import EmpiricalMeasure, wasserstein1_paths
from sparsedyn.graphs import Graph, MarkedGraph, component_labels, gen_regular_tree
from sparsedyn.localtopo import d_star_marked
from sparsedyn.trees import poisson_dual

gen = np.random.default_rng(20)
g = Graph.from_edges(6, [(0, 1), (1, 2), (3, 4)])
a, b = (EmpiricalMeasure(gen.normal(0.0, 1.0, (40, 4)), np.arange(4.0)) for _ in range(2))
tree = gen_regular_tree(3, 2)
x, y = (MarkedGraph(tree, gen.uniform(0.0, 1.0, tree.vertex_count)) for _ in range(2))
values = [poisson_dual(2.0), wasserstein1_paths(a, b, 3.0), component_labels(g).tolist(), d_star_marked(x, y, 2)]
"""


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


def count_guards(source: str) -> set[int]:
    """Lines of hand-written count checks: an ``if`` whose test is one ``<`` or
    ``<=`` between a parameter of its function and an int literal, with a
    ``raise`` first in its body.  ``graphs._check_whole`` replaces them all."""
    found = set()
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        params = {a.arg for a in (*fn.args.posonlyargs, *fn.args.args, *fn.args.kwonlyargs)}
        for node in ast.walk(fn):
            if not (isinstance(node, ast.If) and isinstance(node.body[0], ast.Raise)):
                continue
            test = node.test
            if isinstance(test, ast.Compare) and len(test.ops) == 1 and isinstance(test.ops[0], (ast.Lt, ast.LtE)):
                sides = (test.left, test.comparators[0])
                if (any(isinstance(s, ast.Name) and s.id in params for s in sides)
                        and any(isinstance(s, ast.Constant) and type(s.value) is int for s in sides)):
                    found.add(node.lineno)
    return found


def test_no_hand_written_count_guards():
    found = {f"{path.stem}:{line}" for path in SRC.glob("*.py") for line in count_guards(path.read_text())}
    assert not found


def test_count_guard_check_sees_a_guard():
    source = (
        "def f(count, low=0, *, depth=1):\n"
        "    if count < 1:\n        raise ValueError\n"
        "    if 0 <= depth:\n        raise ValueError\n"
        "    if count < low or count < 2:\n        raise ValueError\n"
        "    if count < 1.5:\n        raise ValueError\n"
        "    total = count\n"
        "    if total < 1:\n        raise ValueError\n"
        "    if count <= 3:\n        return\n"
    )
    assert count_guards(source) == {2, 4}


def test_cold_import_loads_only_the_scipy_it_runs():
    script = (
        "import importlib, sys\n"
        "from sparsedyn import gibbs, graphs, rng, trees\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        f"for name in {SUBMODULES!r}:\n"
        "    importlib.import_module(name)\n"
        f"print(sorted(m for m in {UNUSED_AT_IMPORT!r} if m in sys.modules))\n"
        f"{LAZY_CALLS}\n"
        "print(repr(values))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env,
                         timeout=60, check=True).stdout.splitlines()
    assert out[:2] == ["[]", "[]"]
    here: dict = {}
    exec(LAZY_CALLS, here)
    assert out[2] == repr(here["values"])


def test_walks_leave_csgraph_unloaded():
    # every BFS is graphs._levels in numpy; only component_labels calls scipy.sparse.csgraph
    script = (
        "import sys\n"
        "import numpy as np\n"
        "from sparsedyn.dynamics import distances_to, replica_paths_discrete, voter_model\n"
        "from sparsedyn.graphs import ball, component_of, gen_random_regular\n"
        "g = gen_random_regular(200, 3, 5)\n"
        "distances_to(g, [0, 7])\n"
        "ball(component_of(g, 3), 2)\n"
        "replica_paths_discrete(g, np.arange(200) % 2, voter_model(), 3, 1, 2, [4])\n"
        "print('scipy.sparse.csgraph' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env,
                         timeout=60, check=True).stdout
    assert out == "False\n"


def test_localtopo_and_gibbs_leave_sparse_and_dynamics_unloaded():
    # localtopo used to take _row_classes and frequency_tv from empirical, which loads dynamics
    script = (
        "import sys\n"
        "import sparsedyn.gibbs, sparsedyn.localtopo\n"
        "watched = ('scipy.sparse', 'sparsedyn.dynamics', 'sparsedyn.empirical')\n"
        "print(sorted(m for m in watched if m in sys.modules))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env,
                         timeout=60, check=True).stdout
    assert out == "[]\n"
