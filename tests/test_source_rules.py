"""Rules for the package source.

``src/panelot`` imports no scipy (``import scipy.optimize`` lifts a process's
peak RSS from about 31 to 77 MB) and uses no ``numpy.linalg`` (its first call
maps about 5.5 MB of LAPACK). scipy stays a test-only oracle.

A frozen dataclass is written to only while it is built: every
``object.__setattr__`` call sits in a ``__post_init__``, so no cache is
written into an instance later.

Every module-level function and class is reachable: another line of the
package refers to it, or ``panelot.__all__`` lists it. ``fixtures.py``, the
home of the test instances, is exempt.
"""

import ast
from collections import defaultdict
from pathlib import Path

import pytest

import panelot

SRC = Path(__file__).resolve().parent.parent / "src" / "panelot"


def forbidden_uses(tree: ast.AST) -> list[str]:
    """Line-numbered scipy imports and numpy.linalg uses in a module."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""] + [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Attribute) and node.attr == "linalg" and isinstance(node.value, ast.Name):
            names = ["numpy.linalg"] if node.value.id in ("np", "numpy") else []
        else:
            continue
        found += [
            f"line {node.lineno}: {name}" for name in names
            if name.split(".")[0] == "scipy" or name.startswith("numpy.linalg")
        ]
    return found


@pytest.mark.parametrize("source", [
    "import scipy", "import scipy.optimize as opt", "from scipy import optimize",
    "from scipy.optimize import linprog", "import numpy.linalg", "from numpy import linalg",
    "from numpy.linalg import inv", "import numpy as np\nnp.linalg.inv(a)",
    "import numpy\nnumpy.linalg.solve(a, b)",
])
def test_the_rule_catches_each_form(source):
    assert forbidden_uses(ast.parse(source))


def test_the_rule_passes_plain_numpy():
    assert not forbidden_uses(ast.parse("import numpy as np\nfrom numpy import dot\nnp.dot(a, b)"))


def test_the_package_imports_no_scipy_and_uses_no_numpy_linalg():
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    found = {
        str(path.relative_to(SRC)): uses
        for path in modules
        if (uses := forbidden_uses(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert not found, found


def frozen_writes(tree: ast.AST) -> list[str]:
    """Line-numbered ``object.__setattr__`` calls whose innermost enclosing
    function is not a ``__post_init__``."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            function = getattr(node, "name", "<lambda>")
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "__setattr__" and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "object" and function != "__post_init__"):
            found.append(f"line {node.lineno}: in {function or 'module scope'}")
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


@pytest.mark.parametrize("source", [
    "object.__setattr__(x, 'a', 1)",
    "class C:\n    def cache(self):\n        object.__setattr__(self, 'a', 1)",
    "class C:\n    def __post_init__(self):\n        def later():\n            object.__setattr__(self, 'a', 1)",
])
def test_the_frozen_rule_catches_a_write_outside_post_init(source):
    assert frozen_writes(ast.parse(source))


def test_the_frozen_rule_passes_post_init_and_other_setattrs():
    source = ("class C:\n    def __post_init__(self):\n        object.__setattr__(self, 'a', 1)\n"
              "    def other(self):\n        setattr(self, 'b', 2)\n        self.__setattr__('c', 3)")
    assert not frozen_writes(ast.parse(source))


def test_the_package_writes_frozen_dataclasses_only_in_post_init():
    modules = sorted(SRC.rglob("*.py"))
    # Instance, Panel, PanelComposition and UniformLottery: the rule has calls to check.
    assert sum(path.read_text(encoding="utf-8").count("object.__setattr__(") for path in modules) >= 5
    found = {
        str(path.relative_to(SRC)): hits
        for path in modules
        if (hits := frozen_writes(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert not found, found


def unreferenced(trees: dict[str, ast.AST], exported=frozenset(), exempt=frozenset()) -> list[str]:
    """``module: name`` of every module-level function or class outside the
    ``exempt`` modules that ``exported`` does not list and that no name,
    attribute or import in ``trees`` refers to outside its own definition."""
    refs = defaultdict(list)
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs[node.id].append((module, node.lineno))
            elif isinstance(node, ast.Attribute):
                refs[node.attr].append((module, node.lineno))
            elif isinstance(node, ast.alias):
                refs[node.name.rpartition(".")[2]].append((module, node.lineno))
    found = []
    for module, tree in trees.items():
        if module in exempt:
            continue
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            own = range(node.lineno, node.end_lineno + 1)
            elsewhere = [ref for ref in refs[node.name] if ref[0] != module or ref[1] not in own]
            if not elsewhere and node.name not in exported:
                found.append(f"{module}: {node.name}")
    return found


def _trees(**sources):
    return {f"{module}.py": ast.parse(source) for module, source in sources.items()}


@pytest.mark.parametrize("sources", [
    {"a": "def orphan():\n    pass\n"},
    {"a": "def orphan(n):\n    return orphan(n - 1) if n else 0\n"},
    {"a": "class orphan:\n    \"\"\"orphan, named only in text.\"\"\"\n", "b": "# orphan()\n"},
    {"a": "def orphan():\n    pass\n", "fixtures": "def instance():\n    pass\n"},
], ids=["never-named", "only-itself", "only-text", "fixtures-exempt"])
def test_the_reachability_rule_catches_an_orphan(sources):
    assert unreferenced(_trees(**sources), exempt={"fixtures.py"}) == ["a.py: orphan"]


def test_the_reachability_rule_passes_called_imported_and_exported_names():
    trees = _trees(
        a="def called():\n    pass\n\ndef caller():\n    called()\n\ndef exported():\n    pass\n",
        b="from .a import caller\nimport a\n\nclass C:\n    run = a.C2\n",
        c="class C2:\n    pass\n\ndef main():\n    return C()\n",
    )
    assert unreferenced(trees, exported={"exported", "main"}) == []


def test_every_package_function_and_class_is_reachable():
    trees = {
        str(path.relative_to(SRC)): ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.rglob("*.py"))
    }
    assert len(trees) >= 10
    assert not unreferenced(trees, exported=set(panelot.__all__), exempt={"fixtures.py"})
