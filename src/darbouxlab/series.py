"""Truncated formal power-series first integrals.

The solver collects the homogeneous components of X(f) = 0 for an unknown
polynomial truncation f of degree <= N and solves the exact linear system on
its coefficients.  A finite truncation cannot prove that no formal first
integral exists, so the system is sharpened by a margin m: the graded
components of X(f) through degree N+m are all imposed, acting on the same
degree <= N unknowns.  The extra equations are obstructions that kill kernel
directions whose continuation fails within m more orders; reports therefore
speak of the dimension of a truncated space, never of nonexistence.

The constant block is excluded from the linear system (it is always a
solution) and re-added to the reported basis.

`promote_parameter` turns a bound parameter into a variable with a zero
equation by re-reading the field's equations; promotions compose.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .darboux import operator_kernel
from .exactcore import (Poly, RatMatrix, coefficient_matrix, grlex_key,
                        monomials_upto, parse_poly)
from .field import VectorField

# cells of the exact matrix: the 3-D reference field needs 4,071,000 at
# --order 20, the largest order admitted, and peaks at 144 MB RSS there
_FORMAL_CELLS_LIMIT = 5_000_000


class SeriesSpace(NamedTuple):
    """Basis of truncated formal first integrals (constants included)."""

    order: int
    margin: int
    basis: tuple[Poly, ...]

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def contains(self, f: Poly) -> bool:
        """Exact membership of f (degree <= order) in the spanned space."""
        monos = sorted({m for b in self.basis for m in b.terms} | set(f.terms),
                       key=grlex_key)
        augmented = coefficient_matrix(self.basis + (f,), monos)
        return (RatMatrix(augmented).rank()
                == RatMatrix(coefficient_matrix(self.basis, monos)).rank())

    def depends_only_on(self, name: str) -> bool:
        """Whether every basis element is a polynomial in `name` alone."""
        return all(set(b.variables_used()) <= {name} for b in self.basis)

    def record(self) -> dict:
        return {
            "N": self.order,
            "margin": self.margin,
            "dimension": self.dimension,
            "basis": [str(b) for b in self.basis],
            "depends_only_on": [
                list(b.variables_used()) for b in self.basis],
        }


def formal_integral_space(X: VectorField, N: int, m: int = 2) -> SeriesSpace:
    """Exact kernel of the graded components of X(f) through degree N+m.

    Unknowns are the coefficients of f in degrees 1..N; every homogeneous
    component of X(f) of total degree <= N+m must vanish.  Raises
    ValueError when the matrix would pass `_FORMAL_CELLS_LIMIT` cells,
    before it is built.
    """
    if N < 1 or m < 0:
        raise ValueError("need N >= 1 and margin >= 0")
    nv = len(X.variables)
    cells = (math.comb(nv + N, nv) - 1) * math.comb(nv + N + m, nv)
    if cells > _FORMAL_CELLS_LIMIT:
        raise ValueError(
            f"{cells} matrix cells exceed the formal-series limit "
            f"({_FORMAL_CELLS_LIMIT}); lower --order or --margin")
    basis = (Poly.constant(X.variables, 1), *operator_kernel(
        X, Poly.zero(X.variables), monomials_upto(nv, N)[1:],
        monomials_upto(nv, N + m)))
    return SeriesSpace(N, m, basis)


def promote_parameter(X: VectorField, name: str) -> VectorField:
    """Re-read the field's equations with `name` as a variable whose equation
    is zero; promotions compose, each adding one last variable.

    Solve the result with `formal_integral_space`; `SeriesSpace.depends_only_on`
    then says whether every basis element is a polynomial in `name` alone.
    """
    if X.equations is None:
        raise ValueError("field carries no equations to re-read")
    if name not in X.source_params:
        raise ValueError(f"unknown parameter {name!r}; "
                         f"bound parameters: {sorted(X.source_params)}")
    variables = X.variables + (name,)
    params = {p: v for p, v in X.source_params.items() if p != name}
    equations = X.equations + ("0",)
    return VectorField(variables, tuple(parse_poly(e, variables, params)
                                        for e in equations),
                       source_params=params, equations=equations)
