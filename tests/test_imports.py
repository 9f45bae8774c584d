"""No llbopt module imports an underscore-prefixed name from another: what
a module shares with its neighbours is part of its public surface."""

import ast
import pathlib

import llbopt

SRC = pathlib.Path(llbopt.__file__).parent


def private_imports(path):
    """``file:line name`` for each private name ``path`` imports from llbopt."""
    hits = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and (node.module or "").split(".")[0] != "llbopt":
            continue
        for alias in node.names:
            name = alias.name
            dunder = name.startswith("__") and name.endswith("__")
            if name.startswith("_") and not dunder:
                hits.append(f"{path.name}:{node.lineno} {name}")
    return hits


def test_no_private_cross_module_imports():
    hits = [hit for path in sorted(SRC.glob("*.py")) for hit in private_imports(path)]
    assert hits == []


def test_detects_relative_absolute_and_function_local_imports(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("from . import __version__\n"
                    "from .grid import Grid, _pad\n"
                    "from llbopt.llb import _dct_matrix\n"
                    "from os import _exit\n"
                    "def f():\n"
                    "    from .tangent import _helper\n")
    assert private_imports(path) == ["mod.py:2 _pad", "mod.py:3 _dct_matrix",
                                     "mod.py:6 _helper"]
