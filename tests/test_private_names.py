"""Every private name the package defines is used in it: a stdlib `ast`
check standing in for a dead-code linter."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "darbouxlab"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _targets(node):
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    for target in targets:
        for name in ast.walk(target):
            if isinstance(name, ast.Name):
                yield name.id


def private_definitions(source: str, module: str) -> dict[str, str]:
    """{qualified name: bare name} of the private module-level functions,
    classes and constants of one module, and of its classes' private
    methods."""
    found = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if _private(node.name):
                found[f"{module}.{node.name}"] = node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and _private(item.name)):
                        found[f"{module}.{node.name}.{item.name}"] = item.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for name in _targets(node):
                if _private(name):
                    found[f"{module}.{name}"] = name
    return found


def references(source: str) -> set[str]:
    """The names a module reads, as bare names or as attributes."""
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    return used


def unreferenced(sources: dict[str, str]) -> list[str]:
    """Qualified private names that no module of `sources` refers to."""
    defined, used = {}, set()
    for module, source in sources.items():
        defined.update(private_definitions(source, module))
        used |= references(source)
    return sorted(qualified for qualified, name in defined.items()
                  if name not in used)


def test_every_private_name_is_referenced():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced(sources) == []


def test_the_check_finds_a_dead_helper():
    source = ("_LIMIT = 3\n_SCALE: int = 2\n_A, _B = 1, 2\n"
              "class _Box:\n"
              "    def _used(self):\n        return _LIMIT + _A\n"
              "    def _dead(self):\n        return self._used()\n"
              "    def __len__(self):\n        return 0\n"
              "def _helper():\n    return _Box()\n"
              "def _unused_helper():\n    return _helper()\n")
    other = "from .mod import _SCALE\n"
    assert unreferenced({"mod": source, "other": other}) == [
        "mod._B", "mod._Box._dead", "mod._unused_helper"]
