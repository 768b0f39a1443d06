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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exactcore import Poly, RatMatrix, grlex_key, monomials_of_degree
from .field import VectorField, lie_derivative, parse_field


@dataclass(frozen=True)
class SeriesSpace:
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
        rows = [[b.coefficient(m) for b in self.basis] for m in monos]
        target = [f.coefficient(m) for m in monos]
        augmented = RatMatrix([row + [t] for row, t in zip(rows, target)])
        return augmented.rank() == RatMatrix(rows).rank()

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


def _block_columns(nvars: int, degrees: Sequence[int]) -> list[tuple]:
    cols = []
    for d in degrees:
        cols.extend(monomials_of_degree(nvars, d))
    return cols


def formal_integral_space(X: VectorField, N: int, m: int = 2) -> SeriesSpace:
    """Exact kernel of the graded components of X(f) through degree N+m.

    Unknowns are the coefficients of f in degrees 1..N; every homogeneous
    component of X(f) of total degree <= N+m must vanish.
    """
    if N < 1 or m < 0:
        raise ValueError("need N >= 1 and margin >= 0")
    nv = len(X.variables)
    columns = _block_columns(nv, range(1, N + 1))
    row_monos = _block_columns(nv, range(0, N + m + 1))
    row_index = {mono: i for i, mono in enumerate(row_monos)}
    matrix = [[Fraction(0)] * len(columns) for _ in row_monos]
    for j, mono in enumerate(columns):
        image = lie_derivative(X, Poly.from_monomial(X.variables, mono))
        for im_mono, coeff in image.terms.items():
            i = row_index.get(im_mono)
            if i is not None:
                matrix[i][j] = coeff

    basis: list[Poly] = [Poly.constant(X.variables, 1)]
    for vec in RatMatrix(matrix).nullspace():
        poly = Poly(X.variables, {columns[j]: vec[j]
                                  for j in range(len(columns))})
        if not poly.is_zero():
            basis.append(poly.monic())
    return SeriesSpace(N, m, tuple(basis))


def promote_parameter(X: VectorField, name: str) -> VectorField:
    """Re-parse the field with `name` as a variable whose equation is zero.

    Solve the result with `formal_integral_space`; `SeriesSpace.depends_only_on`
    then says whether every basis element is a polynomial in `name` alone.
    """
    if X.source_text is None:
        raise ValueError("field carries no source text to re-parse")
    if name not in X.source_params:
        raise ValueError(f"unknown parameter {name!r}; "
                         f"bound parameters: {sorted(X.source_params)}")
    return parse_field(X.source_text, promote=name)
