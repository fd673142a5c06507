"""Module boundaries inside the package: private names stay private, and
every third-party import is a declared dependency."""

import ast
import re
import sys
import tomllib
from pathlib import Path

import erglab

PACKAGE = Path(erglab.__file__).parent
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_imports(path: Path) -> list[str]:
    """Underscore-prefixed names that this module imports from another
    erglab module, at any depth (lazy imports inside functions too)."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if not (node.level or module == "erglab" or module.startswith("erglab.")):
            continue
        source = "." * node.level + module
        for alias in node.names:
            if _is_private(alias.name):
                found.append(f"{path.name}:{node.lineno} imports {alias.name} from {source}")
    return found


def test_no_module_imports_another_modules_private_names():
    found = [line for path in sorted(PACKAGE.glob("*.py")) for line in _private_imports(path)]
    assert found == []


def test_the_guard_sees_relative_lazy_and_absolute_imports(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text(
        "from . import __version__\n"
        "from .ergcore import EqRel\n"
        "from erglab.ergcore import _UnionFind\n"
        "def f():\n"
        "    from .verify import _helper\n"
        "from numpy import _private_but_foreign\n"
    )
    assert _private_imports(src) == [
        "mod.py:3 imports _UnionFind from erglab.ergcore",
        "mod.py:5 imports _helper from .verify",
    ]


_LOOKUPS = ("element_of", "name_of")


def _product_lookups(path: Path) -> list[str]:
    """Calls of `element_of` or `name_of` on a `*` product: a closure
    element found by composing two permutations, where the action's
    product table already holds the answer."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in _LOOKUPS and any(
            isinstance(arg, ast.BinOp) and isinstance(arg.op, ast.Mult) for arg in node.args
        ):
            found.append((node.lineno, name))
    return [f"{path.name}:{line} calls {name} on a product" for line, name in sorted(found)]


def test_no_module_looks_up_a_product_of_closure_elements():
    found = [line for path in sorted(PACKAGE.glob("*.py")) for line in _product_lookups(path)]
    assert found == []


def test_the_guard_sees_product_lookups(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text(
        "composite = b0.element_of(g1.perm * g2.perm).name\n"
        "w = weights[a0.name_of((p1.inverse() * p2))]\n"
        "e = element_of(s * t)\n"
        "ok = act.element_of(p)\n"
        "ok = act.element_of(perms[i * 2])\n"
        "ok = act.resolve(s * t)\n"
    )
    assert _product_lookups(src) == [
        "mod.py:1 calls element_of on a product",
        "mod.py:2 calls name_of on a product",
        "mod.py:3 calls element_of on a product",
    ]


_SCALAR_TRANSPORT = ("rho", "semidirect_mul", "delta_bar", "index_cocycle")


def _scalar_transport_calls(path: Path) -> list[str]:
    """Calls of the per-point transport (`.rho(`, `semidirect_mul`,
    `delta_bar`, `index_cocycle`) inside the `check_*` functions and
    `coinduced_action`, which read the transport table instead."""
    found = []
    for fn in ast.parse(path.read_text(), filename=str(path)).body:
        if not isinstance(fn, ast.FunctionDef):
            continue
        if not (fn.name.startswith("check_") or fn.name == "coinduced_action"):
            continue
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute):
                name = func.attr
            else:
                name = getattr(func, "id", None)
                if name == "rho":  # only the method counts as `.rho(`
                    continue
            if name in _SCALAR_TRANSPORT:
                found.append(f"{path.name}:{node.lineno} {fn.name} calls {name}")
    return found


def test_coinduce_checks_do_not_take_the_per_point_transport():
    assert _scalar_transport_calls(PACKAGE / "coinduce.py") == []


def test_the_guard_sees_per_point_transport_calls(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text(
        "def check_a(sys):\n"
        "    return sys.rho(0, 1)\n"
        "def coinduced_action(a0):\n"
        "    return semidirect_mul(a0, p, q), subrel.index_cocycle(cs, 0, 1)\n"
        "def check_b(cs, a0):\n"
        "    return [delta_bar(cs, a0, x, x) for x in range(3)]\n"
        "def point_map(sys):\n"
        "    return sys.rho(0, 1), delta_bar(cs, a0, 0, 1)\n"
        "def check_c(rho):\n"
        "    return rho(0)\n"
    )
    assert _scalar_transport_calls(src) == [
        "mod.py:2 check_a calls rho",
        "mod.py:4 coinduced_action calls semidirect_mul",
        "mod.py:4 coinduced_action calls index_cocycle",
        "mod.py:6 check_b calls delta_bar",
    ]


def _model_products(path: Path) -> list[str]:
    """Calls of a `.mul(` method: a group-model product, the step of a
    search over a group model, where the closure tables already hold the
    Cayley graph. Definitions of `mul` and bare `mul(` calls do not count."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr == "mul":
                found.append(node.lineno)
    return [f"{path.name}:{line} calls .mul" for line in sorted(found)]


def test_percolation_makes_no_group_model_product():
    assert _model_products(PACKAGE / "percolation.py") == []


def test_the_guard_sees_model_products(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text(
        "class M:\n"
        "    def mul(self, a, b):\n"
        "        return a * b\n"
        "def search(model, s, v):\n"
        "    return model.key(model.mul(s, v))\n"
        "w = mul(a, b)\n"
        "x = np.multiply(a, b)\n"
        "y = self.factors[0].mul(a, b)\n"
    )
    assert _model_products(src) == ["mod.py:5 calls .mul", "mod.py:8 calls .mul"]


def _perm_constructions(path: Path) -> list[str]:
    """Calls of `Perm(...)`, bare or as an attribute (`ergcore.Perm(...)`):
    a validated permutation built from an image row, where the closure
    tables or the closure's own permutations already hold it. Class
    methods such as `Perm.identity(...)` and `isinstance(v, Perm)` do not
    count."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "Perm":
                found.append(node.lineno)
    return [f"{path.name}:{line} calls Perm" for line in sorted(found)]


def test_kazhdan_builds_no_perm_per_image_row():
    assert _perm_constructions(PACKAGE / "kazhdan.py") == []


def test_the_guard_sees_perm_constructions(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text(
        "rows = [Perm(row) for row in table.tolist()]\n"
        "p = ergcore.Perm(images)\n"
        "ok = Perm.identity(4)\n"
        "ok = isinstance(v, Perm)\n"
        "ok = perm(3)\n"
    )
    assert _perm_constructions(src) == ["mod.py:1 calls Perm", "mod.py:2 calls Perm"]


def _declared_dependencies(pyproject: Path) -> set[str]:
    """Import names of `[project].dependencies`: each requirement's
    distribution name, lower-cased, with dashes and dots as underscores."""
    with pyproject.open("rb") as fh:
        requirements = tomllib.load(fh)["project"]["dependencies"]
    names = (re.match(r"[A-Za-z0-9._-]+", req).group() for req in requirements)
    return {re.sub(r"[-.]", "_", name).lower() for name in names}


def _undeclared_imports(path: Path, declared: set[str]) -> list[str]:
    """Third-party modules this module imports, at any depth (imports in
    function bodies too), that are not in `declared`. Relative imports,
    erglab itself and the standard library are not third-party."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = [node.module or ""]
        else:
            continue
        for module in modules:
            top = module.partition(".")[0]
            if top not in declared and top != "erglab" and top not in sys.stdlib_module_names:
                found.append((node.lineno, module))
    return [f"{path.name}:{line} imports {module}" for line, module in sorted(found)]


def test_every_third_party_import_is_a_declared_dependency():
    declared = _declared_dependencies(PYPROJECT)
    found = [
        line for path in sorted(PACKAGE.glob("*.py")) for line in _undeclared_imports(path, declared)
    ]
    assert found == []


def test_the_guard_sees_undeclared_imports(tmp_path):
    pyproject = tmp_path / "pyproject.toml"
    pyproject.write_text(
        '[project]\nname = "demo"\n'
        'dependencies = ["NumPy>=1.26", "typing-extensions; python_version < \'3.11\'"]\n'
        '[project.optional-dependencies]\ntest = ["pytest>=7"]\n'
    )
    declared = _declared_dependencies(pyproject)
    assert declared == {"numpy", "typing_extensions"}
    src = tmp_path / "mod.py"
    src.write_text(
        "from __future__ import annotations\n"
        "import os, numpy.linalg as la\n"
        "from typing_extensions import Self\n"
        "from . import percolation\n"
        "from .scipy import helper\n"
        "from erglab.errors import ValidationError\n"
        "def label(g):\n"
        "    from scipy.sparse import csgraph\n"
        "    import json, pytest\n"
        "class C:\n"
        "    import numpyish\n"
    )
    assert _undeclared_imports(src, declared) == [
        "mod.py:8 imports scipy.sparse",
        "mod.py:9 imports pytest",
        "mod.py:11 imports numpyish",
    ]


# The full-group enumerations keep a per-call cap: verify passes them a
# second value, 50000. Every other cap is read from ERGLAB_CAPS alone.
_PER_CALL_CAPS = ("full_group", "full_group_table", "check_thm27")


def _cap_parameters(path: Path) -> list[str]:
    """Functions and methods, at any depth, that take a parameter named
    `cap`, other than the full-group enumerations."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
        takes_cap = any(a is not None and a.arg == "cap" for a in params)
        if takes_cap and node.name not in _PER_CALL_CAPS:
            found.append((node.lineno, node.name))
    return [f"{path.name}:{line} {name} takes cap" for line, name in sorted(found)]


def test_only_the_full_group_enumerations_take_a_cap():
    found = [line for path in sorted(PACKAGE.glob("*.py")) for line in _cap_parameters(path)]
    assert found == []


def test_the_guard_sees_cap_parameters(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text(
        "def cayley_ball(model, q, r, cap=None):\n"
        "    pass\n"
        "class FinAction:\n"
        "    def closure(self, *, cap):\n"
        "        def inner(cap, /):\n"
        "            pass\n"
        "async def f(**cap):\n"
        "    pass\n"
        "def full_group_table(rel, cap=None):\n"
        "    pass\n"
        "def check_thm27(e, action, cap=None):\n"
        "    pass\n"
        "def get_cap(name, override=None):\n"
        "    capn = cap = 3\n"
    )
    assert _cap_parameters(src) == [
        "mod.py:1 cayley_ball takes cap",
        "mod.py:4 closure takes cap",
        "mod.py:5 inner takes cap",
        "mod.py:7 f takes cap",
    ]
