"""Every module-level import of the package is used, no module imports
`dataclasses`, and numpy is imported only inside functions: stdlib `ast`
checks standing in for a linter.  The last two keep a command's start-up
free of `dataclasses` (and the `inspect` it pulls in) and of numpy."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "darbouxlab"


def _module_level(body):
    """The statements at module level, including those under a top-level
    `if` (such as `if TYPE_CHECKING:`) or `try`."""
    for node in body:
        yield node
        if isinstance(node, (ast.If, ast.Try)):
            yield from _module_level(node.body + node.orelse)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in _module_level(tree.body):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in _module_level(tree.body):
        # names re-exported through __all__
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda path: path.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import math\nimport os.path\n"
              "from typing import TYPE_CHECKING, Sequence\n"
              "if TYPE_CHECKING:\n    import numpy as np\n"
              "def f(a: np.ndarray) -> float:\n    return math.pi\n")
    assert unused_imports(source) == ["os (line 3)", "Sequence (line 4)"]


def _run_at_import(body):
    """The statements run when the module is imported: all but function
    bodies and `if TYPE_CHECKING:` blocks."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        yield node
        if (isinstance(node, ast.If) and isinstance(node.test, ast.Name)
                and node.test.id == "TYPE_CHECKING"):
            yield from _run_at_import(node.orelse)
            continue
        for block in ("body", "orelse", "finalbody", "handlers"):
            yield from _run_at_import(getattr(node, block, []))


def _imported(nodes):
    """(top-level package, line) of each absolute import among nodes."""
    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module.split(".")[0], node.lineno


def startup_violations(source: str) -> list[str]:
    """Every import of dataclasses, and every import of numpy that runs
    when the module is imported."""
    tree = ast.parse(source)
    found = [(line, "dataclasses")
             for name, line in _imported(ast.walk(tree))
             if name == "dataclasses"]
    found += [(line, "numpy at import")
              for name, line in _imported(_run_at_import(tree.body))
              if name == "numpy"]
    return [f"{what} (line {line})" for line, what in sorted(found)]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda path: path.name)
def test_no_dataclasses_and_no_eager_numpy(path):
    assert startup_violations(path.read_text(encoding="utf-8")) == []


def test_the_check_finds_startup_imports():
    source = ("from typing import TYPE_CHECKING\n"
              "if TYPE_CHECKING:\n    import numpy as np\n"
              "from dataclasses import dataclass\n"
              "def f():\n    import numpy as np\n    import dataclasses\n"
              "class C:\n    from numpy.linalg import norm\n"
              "try:\n    import numpy\nexcept ImportError:\n    pass\n")
    assert startup_violations(source) == [
        "dataclasses (line 4)", "dataclasses (line 7)",
        "numpy at import (line 9)", "numpy at import (line 11)"]
