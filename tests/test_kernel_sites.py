"""Where the package calls its exact-kernel building blocks: a stdlib `ast`
check that keeps one certified route to the kernels of X - K."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "darbouxlab"

# the one exact kernel of X - K, the kernel of the cofactor balances and
# the membership test of a series space
EXACT_MATRIX_SITES = {
    "darboux.operator_kernel",
    "darboux.assemble_darboux_integrals",
    "series.SeriesSpace.contains",
}
# the sieve's kernels come from one place: lifts of a kernel mod p, checked
# exactly, and `operator_kernel` where one fails
RECONSTRUCTION_SITES = {"darboux._GradedSieve._kernel"}
OPERATOR_KERNEL_SITES = {
    "darboux.search_darboux_fixed_cofactor",
    "darboux._GradedSieve._kernel",
    "darboux.search_exp_factors",
    "series.formal_integral_space",
}
# the certificates re-check X(f) = K*f without `_operator_image`, which
# every search evaluates X - K with
LIE_DERIVATIVE_SITES = {"darboux.DarbouxCert.check",
                        "darboux.ExpFactorCert.check"}


def call_sites(source: str, module: str, name: str) -> set[str]:
    """Qualified names of the functions whose bodies call `name(...)` or
    `<anything>.name(...)`."""
    sites = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Call) and name in (
                    getattr(child.func, "id", None),
                    getattr(child.func, "attr", None)):
                sites.add(".".join([module] + scope))
            visit(child, scope)

    visit(ast.parse(source), [])
    return sites


def package_sites(name: str, modules: str = "*") -> set[str]:
    found = set()
    for path in sorted(PACKAGE.glob(f"{modules}.py")):
        found |= call_sites(path.read_text(encoding="utf-8"), path.stem, name)
    return found


def test_exact_matrices_are_built_at_the_pinned_sites():
    assert package_sites("RatMatrix") == EXACT_MATRIX_SITES


def test_exact_kernels_of_x_minus_k_are_read_at_the_pinned_sites():
    assert package_sites("rational_reconstruction") == RECONSTRUCTION_SITES
    assert package_sites("operator_kernel") == OPERATOR_KERNEL_SITES
    assert package_sites("lie_derivative", "darboux") == LIE_DERIVATIVE_SITES


def test_the_check_finds_a_matrix_site():
    source = ("from .exactcore import RatMatrix\n"
              "class A:\n    def f(self, m):\n"
              "        return [RatMatrix(r).rank() for r in m]\n"
              "def g(m):\n    def h():\n        return RatMatrix(m)\n"
              "    return h\n"
              "def k(m):\n    return exactcore.RatMatrix(m), RatMatrix\n"
              "RatMatrix([[1]])\n")
    assert call_sites(source, "mod", "RatMatrix") == {
        "mod.A.f", "mod.g.h", "mod.k", "mod"}
    assert call_sites(source, "mod", "rank") == {"mod.A.f"}
