"""Polynomial vector fields with exactly bound rational parameters.

A field is described by a small text file (one statement per line, ``#``
comments)::

    vars: x y z
    param a = 29851/10000
    dx/dt = x*(1 - y + c*x - a*x*z)

Parameters are substituted at parse time, so every downstream computation is
plain exact rational arithmetic; no symbolic parameters survive parsing.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from pathlib import Path
from typing import Mapping

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


@dataclass(frozen=True)
class VectorField:
    """Named variables, one polynomial component per variable.

    ``source_params`` keeps the exact parameter bindings for reporting;
    ``source_text`` keeps the original file so a parameter can later be
    promoted to a variable by re-parsing.
    """

    variables: tuple[str, ...]
    components: tuple[Poly, ...]
    source_params: Mapping[str, Fraction] = dc_field(default_factory=dict)
    source_text: str | None = dc_field(default=None, compare=False)

    def __post_init__(self):
        if len(self.variables) != len(self.components):
            raise ValueError("one component per variable required")
        for comp in self.components:
            if comp.variables != self.variables:
                raise VariableMismatchError(
                    "components must live over the declared variables")

    def __hash__(self) -> int:
        # source_params is a dict; equal fields have equal equations
        return hash((self.variables, self.components))

    @property
    def degree(self) -> int:
        return max((c.total_degree() for c in self.components), default=0)

    def component(self, name: str) -> Poly:
        return self.components[self.variables.index(name)]

    def is_kolmogorov(self, name: str | None = None) -> bool:
        """Whether component i is divisible by variable i (so {x_i=0} is invariant)."""
        names = [name] if name else list(self.variables)
        for v in names:
            var = Poly.variable(self.variables, v)
            if not poly_divmod(self.component(v), var)[1].is_zero():
                return False
        return True

    def coordinate_cofactor(self, name: str) -> Poly:
        """The cofactor of the coordinate Darboux polynomial ``name``."""
        var = Poly.variable(self.variables, name)
        quotient, rem = poly_divmod(self.component(name), var)
        if not rem.is_zero():
            raise NotInvariantError(f"component of {name} is not divisible by {name}")
        return quotient

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


def parse_field(text: str, *, promote: str | None = None) -> "VectorField":
    """Parse a field description; optionally promote one parameter to a variable.

    A promoted parameter keeps no binding: it becomes the last variable and
    receives the zero equation.
    """
    variables: list[str] | None = None
    params: dict[str, Fraction] = {}
    param_lines: dict[str, int] = {}
    raw_equations: dict[str, tuple[str, int]] = {}
    promoted_seen = False

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
            if pname in params or (promote == pname and promoted_seen):
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
            if promote == pname:
                promoted_seen = True
                continue
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
    if promote is not None:
        if not promoted_seen:
            raise FieldParseError("UnknownParameter",
                                  f"no param named {promote!r} to promote", 1)
        if promote in variables:
            raise FieldParseError("SyntaxError",
                                  f"{promote!r} is already a variable", 1)
        variables = variables + [promote]

    components = []
    for v in variables:
        if promote == v:
            components.append(Poly.zero(variables))
            continue
        if v not in raw_equations:
            raise FieldParseError("MissingEquation", v, 1)
        expr, lineno = raw_equations.pop(v)
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
                       source_params=dict(params), source_text=text)


def load_field(path: str | Path, *, promote: str | None = None) -> VectorField:
    return parse_field(Path(path).read_text(encoding="utf-8"), promote=promote)


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
    var = Poly.variable(X.variables, name)
    if not poly_divmod(X.component(name), var)[1].is_zero():
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
