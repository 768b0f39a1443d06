"""Where the package calls its exact-kernel building blocks, where
`darboux` reads residues, and where the CLI checks what it reports: stdlib
`ast` checks that keep one certified route to the kernels of X - K, one
mod-p boundary and one error boundary."""

import ast
import builtins
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

# every reported certificate is checked once, by the CLI, before it is
# printed; `analyze` reports through `cmd_integrals`
CHECK_SITES = {"cli._recheck"}
RECHECK_SITES = {"cli.cmd_darboux", "cli.cmd_expfactors", "cli.cmd_integrals"}
# `cli.main` turns every ValueError into exit 2; the other exceptions are a
# failed check (exit 1) and a prime that divides a denominator, which the
# screening prime rules out
NON_VALUE_ERRORS = {"darboux.InternalCheckError", "_modp.ModPUnavailableError"}

# the mod-p boundary of `darboux`: the rank screens, and the sieve, which
# owns the prime; `_LatticeBoxes` and the exact searches never see a residue
MODP_SITES = {
    "darboux._by_stack",
    "darboux._ranks",
    "darboux._rank_screen",
    *(f"darboux._GradedSieve.{name}" for name in (
        "__init__", "run", "full_operator_kernels", "_block", "_kernel",
        "_projected", "_level")),
}


def scopes_where(source: str, module: str, hit) -> set[str]:
    """Qualified names of the scopes (functions, classes, the module) whose
    own bodies hold a node for which `hit` is true; code under
    `if TYPE_CHECKING:` never runs and is skipped."""
    sites = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if (isinstance(child, ast.If)
                    and getattr(child.test, "id", None) == "TYPE_CHECKING"):
                continue
            if hit(child):
                sites.add(".".join([module] + scope))
            visit(child, scope)

    visit(ast.parse(source), [])
    return sites


def call_sites(source: str, module: str, name: str) -> set[str]:
    """Qualified names of the functions whose bodies call `name(...)` or
    `<anything>.name(...)`."""
    return scopes_where(source, module, lambda node: isinstance(
        node, ast.Call) and name in (getattr(node.func, "id", None),
                                     getattr(node.func, "attr", None)))


def reads_modp(node) -> bool:
    """`_modp.<name>`, `import numpy` or `from numpy import ...`."""
    if isinstance(node, ast.Attribute):
        return getattr(node.value, "id", None) == "_modp"
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "numpy"
                   for alias in node.names)
    return (isinstance(node, ast.ImportFrom)
            and (node.module or "").split(".")[0] == "numpy")


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


def test_modp_is_read_only_behind_the_boundary():
    source = (PACKAGE / "darboux.py").read_text(encoding="utf-8")
    assert scopes_where(source, "darboux", reads_modp) == MODP_SITES


def test_the_check_finds_a_modp_site():
    source = ("from typing import TYPE_CHECKING\n"
              "from . import _modp\n"
              "if TYPE_CHECKING:\n    import numpy as np\n"
              "class A:\n    def f(self):\n        import numpy as np\n"
              "    def g(self, p):\n        return _modp.PRIME % p\n"
              "def h():\n    def k():\n        from numpy import zeros\n"
              "    return k\n"
              "def exact(x):\n    return x.modp, modp.PRIME\n"
              "import numpy.linalg\n")
    assert scopes_where(source, "mod", reads_modp) == {
        "mod.A.f", "mod.A.g", "mod.h.k", "mod"}


def test_certificates_are_checked_once_by_the_cli():
    assert package_sites("check") == CHECK_SITES
    assert package_sites("_recheck") == RECHECK_SITES


def test_the_check_finds_a_certificate_check():
    source = ("def report(X, certs):\n    _recheck(X, certs)\n"
              "def search(X, cert):\n    ok = cert.check\n"
              "    return [c for c in [cert] if c.check(X)]\n"
              "class C:\n    def check(self, X):\n        return self._check(X)\n"
              "def _recheck(X, certs):\n    return all(check(X, c) for c in certs)\n")
    assert call_sites(source, "mod", "check") == {"mod.search", "mod._recheck"}
    assert call_sites(source, "mod", "_recheck") == {"mod.report"}


def exceptions_outside(sources: dict[str, str], base: str) -> set[str]:
    """Qualified names of the exception classes defined in `sources` (module
    name to text) that do not derive from the builtin `base`.  A base is
    resolved by its name: a class of the sources, else a builtin."""
    bases = {}
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = (module, [
                    getattr(b, "id", None) or getattr(b, "attr", None)
                    for b in node.bases])

    def ancestors(name) -> set[str]:
        if name in bases:
            return {name}.union(*map(ancestors, bases[name][1]))
        found = getattr(builtins, name or "", None)
        return ({c.__name__ for c in found.__mro__}
                if isinstance(found, type) else set())

    return {f"{bases[name][0]}.{name}" for name in bases
            if {"BaseException"} <= ancestors(name)
            and base not in ancestors(name)}


def test_every_error_but_a_failed_check_is_a_value_error():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    assert exceptions_outside(sources, "ValueError") == NON_VALUE_ERRORS


def test_the_check_finds_an_exception_outside_value_error():
    sources = {
        "a": ("class ParseError(ValueError):\n    pass\n"
              "class DeepError(ParseError):\n    pass\n"
              "class Broken(RuntimeError):\n    pass\n"
              "class Record(NamedTuple):\n    x: int\n"
              "class Plain:\n    class Inner(ArithmeticError):\n        pass\n"),
        "b": ("from .a import DeepError\n"
              "class Both(DeepError, KeyError):\n    pass\n"
              "class Later(a.Broken):\n    pass\n"
              "class Domain(ZeroDivisionError):\n    pass\n"),
    }
    assert exceptions_outside(sources, "ValueError") == {
        "a.Broken", "a.Inner", "b.Later", "b.Domain"}
