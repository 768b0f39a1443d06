"""Polynomial vector fields with exactly bound rational parameters.

A field is described by a small text file (one statement per line, ``#``
comments)::

    vars: x y z
    param a = 29851/10000
    dx/dt = x*(1 - y + c*x - a*x*z)

Parameters are substituted at parse time, so every downstream computation is
plain exact rational arithmetic; no symbolic parameters survive parsing.  The
right-hand sides are kept as written, so that a parameter's promotion to a
variable (in `series`) re-reads them; promotions compose.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cached_property
from pathlib import Path
from typing import Mapping, Sequence

from .exactcore import (Poly, PolyParseError, VariableMismatchError,
                        parse_poly, poly_divmod)


class FieldParseError(ValueError):
    """Field-file error carrying 1-based line and column positions."""

    def __init__(self, kind: str, message: str, line: int, col: int = 1):
        super().__init__(f"{kind}: {message} (line {line}, column {col})")
        self.kind = kind
        self.detail = message
        self.line = line
        self.col = col


class NotInvariantError(ValueError):
    """Raised when a coordinate plane is not invariant for the field."""


class VectorField:
    """Named variables, one polynomial component per variable; immutable.

    ``source_params`` keeps the exact parameter bindings for reporting;
    ``equations`` keeps each component's right-hand side as written, in
    variable order (None for a field not parsed from text), for a later
    promotion of a parameter to a variable.  Equality ignores the equations.
    """

    def __init__(self, variables: tuple[str, ...],
                 components: tuple[Poly, ...],
                 source_params: Mapping[str, Fraction] | None = None,
                 equations: tuple[str, ...] | None = None):
        if len(variables) != len(components):
            raise ValueError("one component per variable required")
        for comp in components:
            if comp.variables != variables:
                raise VariableMismatchError(
                    "components must live over the declared variables")
        # the instance dict also holds the cached properties
        self.__dict__.update(
            variables=variables, components=components,
            source_params={} if source_params is None else source_params,
            equations=equations)

    def __setattr__(self, *_):
        raise AttributeError("VectorField is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.variables, self.components, self.source_params)
                == (other.variables, other.components, other.source_params))

    def __hash__(self) -> int:
        # source_params is a dict; equal fields have equal equations
        return hash((self.variables, self.components))

    def __repr__(self) -> str:
        return (f"VectorField({self.variables!r}, {self.components!r}, "
                f"{self.source_params!r})")

    @property
    def degree(self) -> int:
        return max((c.total_degree() for c in self.components), default=0)

    def component(self, name: str) -> Poly:
        return self.components[self.variables.index(name)]

    @cached_property
    def coordinate_cofactors(self) -> tuple[Poly | None, ...]:
        """X_v / v for each variable v, or None where v does not divide X_v
        (then {v = 0} is not invariant); computed once per field."""
        cofactors = []
        for v, comp in zip(self.variables, self.components):
            quotient, rem = poly_divmod(comp, Poly.variable(self.variables, v))
            cofactors.append(quotient if rem.is_zero() else None)
        return tuple(cofactors)

    def is_kolmogorov(self, name: str) -> bool:
        """Whether component `name` is divisible by `name`, so that
        {name = 0} is invariant."""
        return self.coordinate_cofactors[self.variables.index(name)] is not None

    def coordinate_cofactor(self, name: str) -> Poly:
        """The cofactor of the coordinate Darboux polynomial ``name``."""
        cofactor = self.coordinate_cofactors[self.variables.index(name)]
        if cofactor is None:
            raise NotInvariantError(f"component of {name} is not divisible by {name}")
        return cofactor

    def monomial_cofactor(self, e: Sequence[int]) -> Poly | None:
        """The cofactor sum_v e_v*K_v of the monomial x^e, or None when some
        e_v > 0 has {v = 0} not invariant."""
        total = Poly.zero(self.variables)
        for k, K_v in zip(e, self.coordinate_cofactors):
            if k:
                if K_v is None:
                    return None
                total = total + K_v * k
        return total

    @cached_property
    def _monomial_images(self) -> dict[tuple[int, ...], Poly]:
        return {}

    def monomial_image(self, mono: tuple[int, ...]) -> Poly:
        """X(x^mono), computed once per field and monomial."""
        images = self._monomial_images
        if mono not in images:
            images[mono] = lie_derivative(
                self, Poly.from_monomial(self.variables, mono))
        return images[mono]

    def to_text(self) -> str:
        lines = [f"vars: {' '.join(self.variables)}"]
        for pname, pval in self.source_params.items():
            lines.append(f"param {pname} = {pval}")
        for v, comp in zip(self.variables, self.components):
            lines.append(f"d{v}/dt = {comp}")
        return "\n".join(lines) + "\n"

    def __str__(self) -> str:
        return self.to_text()


_VARS_RE = re.compile(r"^vars\s*:\s*(.*)$")
_PARAM_RE = re.compile(r"^param\s+([A-Za-z_]\w*)\s*=\s*(.*)$")
_EQ_RE = re.compile(r"^d([A-Za-z_]\w*)/dt\s*=\s*(.*)$")
_RAT_RE = re.compile(r"^([+-]?\d+)\s*(?:/\s*(\d+))?$")


def parse_field(text: str) -> "VectorField":
    """Parse a field description."""
    variables: list[str] | None = None
    params: dict[str, Fraction] = {}
    param_lines: dict[str, int] = {}
    raw_equations: dict[str, tuple[str, int]] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _VARS_RE.match(line)
        if m:
            if variables is not None:
                raise FieldParseError("DuplicateVars", "second vars: line", lineno)
            variables = m.group(1).split()
            if not variables:
                raise FieldParseError("SyntaxError", "empty variable list", lineno)
            if len(set(variables)) != len(variables):
                raise FieldParseError("SyntaxError", "repeated variable name", lineno)
            continue
        m = _PARAM_RE.match(line)
        if m:
            pname, value_text = m.group(1), m.group(2).strip()
            if pname in params:
                raise FieldParseError("DuplicateParam", pname, lineno)
            rv = _RAT_RE.match(value_text)
            if not rv:
                raise FieldParseError(
                    "NonRationalLiteral",
                    f"param {pname} must be bound to an exact rational such as "
                    f"29851/10000, got {value_text!r}", lineno)
            num = int(rv.group(1))
            den = int(rv.group(2)) if rv.group(2) else 1
            if den == 0:
                raise FieldParseError("NonRationalLiteral",
                                      f"param {pname} has zero denominator", lineno)
            params[pname] = Fraction(num, den)
            param_lines[pname] = lineno
            continue
        m = _EQ_RE.match(line)
        if m:
            vname, expr = m.group(1), m.group(2)
            if vname in raw_equations:
                raise FieldParseError("DuplicateEquation", vname, lineno)
            raw_equations[vname] = (expr, lineno)
            continue
        raise FieldParseError("SyntaxError", f"unrecognized statement {line!r}", lineno)

    if variables is None:
        raise FieldParseError("SyntaxError", "missing vars: line", 1)
    for pname, lineno in param_lines.items():
        if pname in variables:
            raise FieldParseError("SyntaxError",
                                  f"param {pname!r} is already a variable",
                                  lineno)

    equations = []
    components = []
    for v in variables:
        if v not in raw_equations:
            raise FieldParseError("MissingEquation", v, 1)
        expr, lineno = raw_equations.pop(v)
        equations.append(expr)
        try:
            components.append(parse_poly(expr, variables, params))
        except PolyParseError as exc:
            kind = "UnboundParameter" if exc.message.startswith("unbound") else "SyntaxError"
            raise FieldParseError(kind, exc.message, lineno, exc.pos + 1) from exc
    if raw_equations:
        extra = next(iter(raw_equations))
        raise FieldParseError("UnknownVariable",
                              f"equation for undeclared variable {extra}",
                              raw_equations[extra][1])

    return VectorField(tuple(variables), tuple(components),
                       source_params=params, equations=tuple(equations))


def load_field(path: str | Path) -> VectorField:
    return parse_field(Path(path).read_text(encoding="utf-8"))


def lie_derivative(X: VectorField, f: Poly) -> Poly:
    """Directional derivative of f along the field, exactly."""
    if f.variables != X.variables:
        raise VariableMismatchError(
            f"polynomial over {f.variables}, field over {X.variables}")
    total = Poly.zero(X.variables)
    for v, comp in zip(X.variables, X.components):
        total = total + comp * f.diff(v)
    return total


def restrict_to_plane(X: VectorField, name: str) -> VectorField:
    """Restrict to the invariant plane {name = 0}; result has one variable fewer."""
    if name not in X.variables:
        raise ValueError(f"unknown variable {name!r}")
    if not X.is_kolmogorov(name):
        raise NotInvariantError(
            f"{{{name} = 0}} is not invariant: component of {name} is not "
            f"divisible by {name}")
    new_vars = []
    new_comps = []
    for v, comp in zip(X.variables, X.components):
        if v == name:
            continue
        new_vars.append(v)
        new_comps.append(comp.set_zero(name).drop_variable(name))
    return VectorField(tuple(new_vars), tuple(new_comps),
                       source_params=X.source_params)
