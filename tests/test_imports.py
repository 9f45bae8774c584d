"""Source checks over the llbopt modules.

No module imports an underscore-prefixed name from another: what a module
shares with its neighbours is part of its public surface.  No module
calls numpy's cross product: ``grid.cross`` is the one the sweeps run.  No
module but ``grid``, which defines them, and ``llb`` imports ``cross`` or
``dot``: the model's right-hand side and its derivatives are written once,
in ``llb``, and the other modules call them.  And no module imports a name from llbopt that it never uses, so a deleted
function leaves no stale import behind; nor does the package export one.
The modules form one layered order, :data:`ORDER`: each imports only from
the modules before it.  No module imports scipy or hashlib when it is
imported, so no CLI process pays for them at start-up:
``llb.simulate_galerkin``, the one user of scipy, imports ``scipy.integrate``
in its own body.
"""

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


def numpy_cross_uses(path):
    """``file:line`` for each ``np.cross`` / ``numpy.cross`` in ``path``,
    and each ``cross`` imported from numpy."""
    hits = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if (isinstance(node, ast.Attribute) and node.attr == "cross"
                and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
            hits.append(f"{path.name}:{node.lineno}")
        elif (isinstance(node, ast.ImportFrom) and node.module == "numpy"
              and any(alias.name == "cross" for alias in node.names)):
            hits.append(f"{path.name}:{node.lineno}")
    return sorted(hits, key=lambda hit: int(hit.rsplit(':', 1)[1]))


def test_no_numpy_cross():
    hits = [hit for path in sorted(SRC.glob("*.py")) for hit in numpy_cross_uses(path)]
    assert hits == []


def test_detects_numpy_cross(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("import numpy as np\n"
                    "from numpy import cross\n"
                    "x = np.cross(a, b)\n"
                    "f = numpy.cross\n"
                    "y = grid.cross(a, b)\n")
    assert numpy_cross_uses(path) == ["mod.py:2", "mod.py:3", "mod.py:4"]


def kernel_imports(path):
    """``file:line name`` for each ``cross`` or ``dot`` that ``path``
    imports from llbopt, under any alias."""
    hits = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and (node.module or "").split(".")[0] != "llbopt":
            continue
        hits += [f"{path.name}:{node.lineno} {alias.name}" for alias in node.names
                 if alias.name in ("cross", "dot")]
    return hits


def test_only_grid_and_llb_import_cross_or_dot():
    hits = [hit for path in sorted(SRC.glob("*.py")) if path.stem not in ("grid", "llb")
            for hit in kernel_imports(path)]
    assert hits == []


def test_detects_cross_and_dot_imports(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("from .grid import Grid, cross\n"
                    "from llbopt.grid import dot as inner\n"
                    "from numpy import cross, dot\n"
                    "def f():\n"
                    "    from . import grid\n"
                    "    from .grid import cross, laplacian_values\n")
    assert kernel_imports(path) == ["mod.py:1 cross", "mod.py:2 dot", "mod.py:6 cross"]


def unused_package_imports(path):
    """``file:line name`` for each name ``path`` imports from llbopt and
    never reads (a name listed in ``__all__`` is read by its importers)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {elt.value for elt in node.value.elts}
    hits = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and (node.module or "").split(".")[0] != "llbopt":
            continue
        for alias in node.names:
            if (alias.asname or alias.name) not in used:
                hits.append(f"{path.name}:{node.lineno} {alias.asname or alias.name}")
    return sorted(hits, key=lambda hit: int(hit.split(":")[1].split()[0]))


def test_no_unused_package_imports():
    hits = [hit for path in sorted(SRC.glob("*.py")) for hit in unused_package_imports(path)]
    assert hits == []


def test_detects_unused_package_imports(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("from .grid import Grid, cross, frame_norms as fn, laplacian_values\n"
                    "from llbopt.llb import simulate, step_values\n"
                    "from os import sep\n"
                    "__all__ = ['simulate']\n"
                    "def f(g: Grid):\n"
                    "    from .coils import CoilSet\n"
                    "    laplacian_values = None\n"
                    "    return fn.__name__\n")
    assert unused_package_imports(path) == ["mod.py:1 cross", "mod.py:1 laplacian_values",
                                            "mod.py:2 step_values", "mod.py:6 CoilSet"]


def test_package_exports_resolve():
    # a deleted type cannot stay listed in the package's exports
    assert [name for name in llbopt.__all__ if not hasattr(llbopt, name)] == []


START_UP_BANNED = ("scipy", "hashlib")
"""Libraries no llbopt module may load on import: scipy costs a process
about 10 ms of start-up, hashlib about 4 ms and OpenSSL's libcrypto."""


def start_up_imports(path):
    """``file:line module`` for each :data:`START_UP_BANNED` module (or a
    submodule of one) that ``path`` imports when it is itself imported:
    outside every function body and every ``except`` clause, whose
    fallback runs only where the import before it failed."""
    hits = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ExceptHandler)):
                continue
            if isinstance(child, ast.Import):
                modules = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                modules = [child.module]
            else:
                modules = []
            hits.extend(f"{path.name}:{child.lineno} {module}" for module in modules
                        if module.split(".")[0] in START_UP_BANNED)
            visit(child)

    visit(ast.parse(path.read_text(), filename=str(path)))
    return hits


def test_no_module_imports_scipy_or_hashlib_at_start_up():
    hits = [hit for path in sorted(SRC.glob("*.py")) for hit in start_up_imports(path)]
    assert hits == []


def test_detects_start_up_imports(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("import numpy, scipy\n"
                    "from scipy.integrate import solve_ivp\n"
                    "import scipyx, hashlib as h\n"
                    "from . import scipy\n"
                    "try:\n"
                    "    import scipy.fft\n"
                    "    from _sha256 import sha256\n"
                    "except ImportError:\n"
                    "    from hashlib import sha256\n"
                    "class A:\n"
                    "    import scipy.special\n"
                    "def f():\n"
                    "    from scipy.integrate import solve_ivp\n"
                    "    import hashlib\n")
    assert start_up_imports(path) == ["mod.py:1 scipy", "mod.py:2 scipy.integrate",
                                      "mod.py:3 hashlib", "mod.py:6 scipy.fft",
                                      "mod.py:11 scipy.special"]


ORDER = ("grid", "coils", "llb", "tangent", "adjoint", "optimize", "config", "certify", "cli")
"""The llbopt modules, each importing only from those before it; the
package's ``__init__`` imports them all and is not in the order."""


def package_modules(path):
    """``(line, module)`` for each llbopt module that ``path`` imports,
    under any import form; the package itself (``from . import
    __version__``) is not a module of :data:`ORDER` and is left out."""
    hits = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            hits += [(node.lineno, alias.name.split(".")[1]) for alias in node.names
                     if alias.name.startswith("llbopt.")]
            continue
        if not isinstance(node, ast.ImportFrom):
            continue
        parts = (node.module or "").split(".")
        if node.level == 0:
            if parts[0] != "llbopt":
                continue
            parts = parts[1:]
        if parts and parts[0]:
            hits.append((node.lineno, parts[0]))
        else:  # from . import <module>
            hits += [(node.lineno, alias.name) for alias in node.names if alias.name in ORDER]
    return hits


def out_of_order_imports(path):
    """``file:line module`` for each llbopt module that ``path`` imports and
    that does not come before it in :data:`ORDER`."""
    earlier = ORDER[:ORDER.index(path.stem)]
    return [f"{path.name}:{line} {module}"
            for line, module in sorted(package_modules(path)) if module not in earlier]


def test_modules_import_only_earlier_modules():
    modules = sorted(SRC.glob("*.py"))
    assert sorted(p.stem for p in modules if p.stem != "__init__") == sorted(ORDER)
    hits = [hit for path in modules if path.stem != "__init__"
            for hit in out_of_order_imports(path)]
    assert hits == []


def test_detects_out_of_order_imports(tmp_path):
    path = tmp_path / "config.py"
    path.write_text("from . import __version__\n"
                    "from .grid import Grid\n"
                    "from .certify import fooc_min\n"
                    "import llbopt.cli\n"
                    "from llbopt.config import parse_config\n"
                    "def f():\n"
                    "    from .optimize import reduced_state\n"
                    "    from llbopt import certify\n"
                    "    from . import cli, tangent\n")
    assert out_of_order_imports(path) == ["config.py:3 certify", "config.py:4 cli",
                                          "config.py:5 config", "config.py:8 certify",
                                          "config.py:9 cli"]
