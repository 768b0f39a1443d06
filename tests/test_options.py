"""Every defaulted parameter of the package is passed, by keyword or by
position, by some call in the package, its tests or the benchmark: a stdlib
`ast` check that no option lacks a caller."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "darbouxlab"
CALLERS = (ROOT / "src", ROOT / "tests", ROOT / "perfbench")


def _functions(body, prefix, in_class=False):
    """(qualified name, name called by, leading parameters a call does not
    pass, function node) for every function in `body`, nested ones too.  A
    constructor is called by its class's name."""
    for node in body:
        if isinstance(node, ast.ClassDef):
            yield from _functions(node.body, f"{prefix}{node.name}.", True)
        elif isinstance(node, ast.FunctionDef):
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in node.decorator_list)
            skipped = 1 if in_class and not static else 0
            called = (prefix.rstrip(".").rsplit(".", 1)[-1]
                      if in_class and node.name == "__init__" else node.name)
            yield f"{prefix}{node.name}", called, skipped, node
            yield from _functions(node.body, f"{prefix}{node.name}.")


def defaulted_parameters(source: str, module: str):
    """(qualified parameter, name called by, parameter, positional index or
    None) for every parameter with a default."""
    for qualified, called, skipped, node in _functions(
            ast.parse(source).body, f"{module}."):
        args = node.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        for index, arg in enumerate(positional[first:], start=first):
            yield f"{qualified}({arg.arg})", called, arg.arg, index - skipped
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield f"{qualified}({arg.arg})", called, arg.arg, None


def passed_arguments(source: str) -> dict[str, tuple[set, int]]:
    """{called name: (keywords passed, most positional arguments passed)};
    a call that unpacks `*` or `**` counts as passing everything."""
    calls = {}
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = (func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute) else None)
        if name is None:
            continue
        keywords, most = calls.get(name, (set(), 0))
        unpacked = (any(isinstance(a, ast.Starred) for a in node.args)
                    or any(k.arg is None for k in node.keywords))
        keywords |= {k.arg for k in node.keywords if k.arg is not None}
        if unpacked:
            keywords.add("*")
        calls[name] = (keywords, max(most, len(node.args)))
    return calls


def options_without_caller(package: dict[str, str],
                           callers: list[str]) -> list[str]:
    passed: dict[str, tuple[set, int]] = {}
    for source in callers:
        for name, (keywords, most) in passed_arguments(source).items():
            known, known_most = passed.get(name, (set(), 0))
            passed[name] = (known | keywords, max(known_most, most))
    dead = []
    for module, source in package.items():
        for qualified, called, param, index in defaulted_parameters(
                source, module):
            keywords, most = passed.get(called, (set(), 0))
            if not ({param, "*"} & keywords
                    or (index is not None and most > index)):
                dead.append(qualified)
    return sorted(dead)


def test_every_option_has_a_caller():
    package = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    callers = [path.read_text(encoding="utf-8")
               for root in CALLERS for path in sorted(root.rglob("*.py"))]
    assert options_without_caller(package, callers) == []


def test_the_check_finds_a_dead_option():
    source = ("class Box:\n"
              "    def __init__(self, size, label=None):\n"
              "        self.size = size\n"
              "    def grow(self, by=1, *, twice=False):\n"
              "        return by\n"
              "    @staticmethod\n"
              "    def make(size=0):\n"
              "        return Box(size)\n"
              "def load(path, *, strict=False, mode='r'):\n"
              "    def read(n=-1):\n"
              "        return n\n"
              "    return read()\n"
              "def scale(x, factor=2):\n"
              "    return x * factor\n")
    callers = [source,
               "Box(1, 'a').grow(2)\nBox.make(3)\n"
               "load('f', mode='w')\nscale(*[1, 2])\n"]
    assert options_without_caller({"mod": source}, callers) == [
        "mod.Box.grow(twice)", "mod.load(strict)", "mod.load.read(n)"]
