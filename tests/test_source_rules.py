"""Import rules for the package source.

``src/panelot`` imports no scipy (``import scipy.optimize`` lifts a process's
peak RSS from about 31 to 77 MB) and uses no ``numpy.linalg`` (its first call
maps about 5.5 MB of LAPACK). scipy stays a test-only oracle.
"""

import ast
from pathlib import Path

import pytest

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
