"""Which functions of the package build an exact `RatMatrix`: a stdlib `ast`
check that keeps one exact-kernel primitive (`operator_kernel`) for X - K."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "darbouxlab"

# the one exact kernel of X - K (the sieve's fallback after a failed lift
# reads it too), the kernel of the cofactor balances and the membership
# test of a series space
EXACT_MATRIX_SITES = {
    "darboux.operator_kernel",
    "darboux.assemble_darboux_integrals",
    "series.SeriesSpace.contains",
}


def matrix_sites(source: str, module: str) -> set[str]:
    """Qualified names of the functions whose bodies call `RatMatrix(...)`."""
    sites = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if (isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Name)
                    and child.func.id == "RatMatrix"):
                sites.add(".".join([module] + scope))
            visit(child, scope)

    visit(ast.parse(source), [])
    return sites


def test_exact_matrices_are_built_at_the_pinned_sites():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        found |= matrix_sites(path.read_text(encoding="utf-8"), path.stem)
    assert found == EXACT_MATRIX_SITES


def test_the_check_finds_a_matrix_site():
    source = ("from .exactcore import RatMatrix\n"
              "class A:\n    def f(self, m):\n"
              "        return [RatMatrix(r).rank() for r in m]\n"
              "def g(m):\n    def h():\n        return RatMatrix(m)\n"
              "    return h\n"
              "RatMatrix([[1]])\n")
    assert matrix_sites(source, "mod") == {"mod.A.f", "mod.g.h", "mod"}
