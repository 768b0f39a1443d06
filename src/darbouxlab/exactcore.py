"""Exact rational arithmetic: sparse multivariate polynomials and linear algebra.

Coefficients are `fractions.Fraction` throughout (always in lowest terms,
positive denominator, no rounding anywhere).  Monomials are exponent tuples,
one slot per variable of the ambient variable set, ordered graded-lex:
compare total degree first, then the exponent tuple lexicographically.

The canonical printed form of a polynomial (descending graded-lex, normalized
rationals, explicit ``*``) is unique, so string equality of printed forms is
mathematical equality.  Nothing here computes in floats: `numerics`
evaluates polynomials in float64.

Every exact linear system of the package is built by one function,
`coefficient_matrix`: column j holds the coefficients of the j-th polynomial
on a list of monomials.  Gauss-Jordan elimination runs on integer rows (each
row scaled to a primitive integer vector), not on Fraction objects; its
results are still Fractions, formed once per entry at the end, and equal the
unique RREF over Q.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import Mapping, Sequence

_ZERO = Fraction(0)
Monomial = tuple  # exponent tuple, one entry per ambient variable


class VariableMismatchError(ValueError):
    """Raised when two polynomials over different variable sets are combined."""


def grlex_key(mono: Sequence[int]) -> tuple:
    """Sort key realizing the graded-lexicographic order."""
    return (sum(mono), tuple(mono))


@functools.cache
def _monomials_of_degree(nvars: int, degree: int) -> tuple[tuple[int, ...], ...]:
    # stars and bars: bar positions in lex order give exponents in lex order
    if degree < 0 or nvars == 0:
        return ((),) if degree == nvars == 0 else ()
    slots = degree + nvars - 1
    return tuple(tuple(b - a - 1 for a, b in zip((-1,) + bars, bars + (slots,)))
                 for bars in itertools.combinations(range(slots), nvars - 1))


def monomials_of_degree(nvars: int, degree: int) -> list[tuple[int, ...]]:
    """All exponent tuples of the given total degree, graded-lex ascending."""
    return list(_monomials_of_degree(nvars, degree))   # a copy of the memo


def monomials_upto(nvars: int, degree: int) -> list[tuple[int, ...]]:
    """All exponent tuples of total degree <= degree, graded-lex ascending."""
    return [m for d in range(degree + 1) for m in _monomials_of_degree(nvars, d)]


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


class Poly:
    """Sparse exact-rational polynomial over a fixed ordered variable set.

    Zero coefficients are never stored; the zero polynomial has an empty term
    map.  Instances are immutable: all arithmetic returns new objects, so
    values can be shared freely between threads.
    """

    __slots__ = ("variables", "terms", "_hash")

    def __init__(self, variables: Sequence[str], terms: Mapping[tuple, Fraction] | None = None):
        object.__setattr__(self, "variables", tuple(variables))
        clean: dict[tuple, Fraction] = {}
        if terms:
            nv = len(self.variables)
            for mono, coeff in terms.items():
                coeff = _as_fraction(coeff)
                if coeff == 0:
                    continue
                mono = tuple(mono)
                if len(mono) != nv or any(e < 0 for e in mono):
                    raise ValueError(f"bad exponent tuple {mono} for {nv} variables")
                clean[mono] = coeff
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *_):
        raise AttributeError("Poly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "Poly":
        return cls(variables, {})

    @classmethod
    def constant(cls, variables: Sequence[str], value) -> "Poly":
        value = _as_fraction(value)
        if value == 0:
            return cls.zero(variables)
        return cls(variables, {(0,) * len(variables): value})

    @classmethod
    def variable(cls, variables: Sequence[str], name: str) -> "Poly":
        variables = tuple(variables)
        idx = variables.index(name)
        mono = tuple(1 if i == idx else 0 for i in range(len(variables)))
        return cls(variables, {mono: Fraction(1)})

    @classmethod
    def from_monomial(cls, variables: Sequence[str], mono: Sequence[int], coeff=1) -> "Poly":
        return cls(variables, {tuple(mono): _as_fraction(coeff)})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(m) == 0 for m in self.terms)

    def total_degree(self) -> int:
        """Total degree; the zero polynomial has degree 0 by convention here."""
        if not self.terms:
            return 0
        return max(sum(m) for m in self.terms)

    def coefficient(self, mono: Sequence[int]) -> Fraction:
        return self.terms.get(tuple(mono), Fraction(0))

    def leading_monomial(self) -> tuple:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=grlex_key)

    def leading_coefficient(self) -> Fraction:
        return self.terms[self.leading_monomial()]

    def monic(self) -> "Poly":
        """Scale so the graded-lex leading coefficient is 1."""
        if not self.terms:
            return self
        return self * (Fraction(1) / self.leading_coefficient())

    def variables_used(self) -> tuple[str, ...]:
        used = [False] * len(self.variables)
        for mono in self.terms:
            for i, e in enumerate(mono):
                if e:
                    used[i] = True
        return tuple(v for v, u in zip(self.variables, used) if u)

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "Poly") -> None:
        if self.variables != other.variables:
            raise VariableMismatchError(
                f"variable sets differ: {self.variables} vs {other.variables}")

    def __add__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            other = Poly.constant(self.variables, other)
        self._check(other)
        terms = dict(self.terms)
        for mono, coeff in other.terms.items():
            new = terms.get(mono, Fraction(0)) + coeff
            if new == 0:
                terms.pop(mono, None)
            else:
                terms[mono] = new
        return Poly(self.variables, terms)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly(self.variables, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            other = Poly.constant(self.variables, other)
        return self + (-other)

    def __rsub__(self, other) -> "Poly":
        return (-self) + other

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            c = _as_fraction(other)
            if c == 0:
                return Poly.zero(self.variables)
            return Poly(self.variables, {m: coeff * c for m, coeff in self.terms.items()})
        self._check(other)
        terms: dict[tuple, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = tuple(a + b for a, b in zip(m1, m2))
                new = terms.get(mono, Fraction(0)) + c1 * c2
                if new == 0:
                    terms.pop(mono, None)
                else:
                    terms[mono] = new
        return Poly(self.variables, terms)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Poly":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers must be non-negative integers")
        result = Poly.constant(self.variables, 1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- calculus and substitution ------------------------------------------

    def diff(self, name: str) -> "Poly":
        idx = self.variables.index(name)
        terms: dict[tuple, Fraction] = {}
        for mono, coeff in self.terms.items():
            e = mono[idx]
            if e == 0:
                continue
            new_mono = mono[:idx] + (e - 1,) + mono[idx + 1:]
            terms[new_mono] = terms.get(new_mono, Fraction(0)) + coeff * e
        return Poly(self.variables, terms)

    def set_zero(self, name: str) -> "Poly":
        """Substitute ``name = 0`` (result keeps the same variable set)."""
        idx = self.variables.index(name)
        return Poly(self.variables,
                    {m: c for m, c in self.terms.items() if m[idx] == 0})

    def drop_variable(self, name: str) -> "Poly":
        """Remove a variable slot; every exponent of it must already be 0."""
        idx = self.variables.index(name)
        terms = {}
        for mono, coeff in self.terms.items():
            if mono[idx] != 0:
                raise ValueError(f"polynomial still involves {name}")
            terms[mono[:idx] + mono[idx + 1:]] = coeff
        new_vars = self.variables[:idx] + self.variables[idx + 1:]
        return Poly(new_vars, terms)

    def homogeneous_part(self, degree: int) -> "Poly":
        return Poly(self.variables,
                    {m: c for m, c in self.terms.items() if sum(m) == degree})

    # -- comparison, hashing, printing ---------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            if isinstance(other, (int, Fraction)):
                return self == Poly.constant(self.variables, other)
            return NotImplemented
        return self.variables == other.variables and self.terms == other.terms

    def __hash__(self) -> int:
        if self._hash is None:
            h = hash((self.variables, frozenset(self.terms.items())))
            object.__setattr__(self, "_hash", h)
        return self._hash

    def sort_key(self) -> tuple:
        """Deterministic total order: degree, then graded-lex term signature."""
        sig = tuple(sorted(((m, (c.numerator, c.denominator))
                            for m, c in self.terms.items()),
                           key=lambda t: grlex_key(t[0]), reverse=True))
        return (self.total_degree(), sig)

    def _mono_str(self, mono: tuple) -> str:
        parts = []
        for var, e in zip(self.variables, mono):
            if e == 1:
                parts.append(var)
            elif e > 1:
                parts.append(f"{var}^{e}")
        return "*".join(parts)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        ordered = sorted(self.terms, key=grlex_key, reverse=True)
        chunks = []
        for i, mono in enumerate(ordered):
            coeff = self.terms[mono]
            mono_s = self._mono_str(mono)
            mag = abs(coeff)
            if mono_s and mag == 1:
                body = mono_s
            elif mono_s:
                body = f"{mag}*{mono_s}"
            else:
                body = str(mag)
            if i == 0:
                chunks.append(body if coeff > 0 else f"-{body}")
            else:
                chunks.append(f" + {body}" if coeff > 0 else f" - {body}")
        return "".join(chunks)

    def __repr__(self) -> str:
        return f"Poly({'.'.join(self.variables)}: {self})"


# -- polynomial division ----------------------------------------------------

def _mono_divides(d: tuple, m: tuple) -> bool:
    return all(a <= b for a, b in zip(d, m))


def poly_divmod(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    """Multivariate division by graded-lex leading-term reduction.

    Returns (quotient, remainder) with ``num = quotient*den + remainder`` and
    no remainder term divisible by the leading term of ``den``.  When ``num``
    is a true multiple of ``den`` the remainder is exactly zero.
    """
    num._check(den)
    if den.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    lead = den.leading_monomial()
    lead_c = den.terms[lead]
    quotient: dict[tuple, Fraction] = {}
    remainder: dict[tuple, Fraction] = {}
    work = dict(num.terms)
    while work:
        mono = max(work, key=grlex_key)
        coeff = work.pop(mono)
        if _mono_divides(lead, mono):
            q_mono = tuple(a - b for a, b in zip(mono, lead))
            q_coeff = coeff / lead_c
            quotient[q_mono] = quotient.get(q_mono, Fraction(0)) + q_coeff
            for m2, c2 in den.terms.items():
                if m2 == lead:
                    continue
                t = tuple(a + b for a, b in zip(q_mono, m2))
                new = work.get(t, Fraction(0)) - q_coeff * c2
                if new == 0:
                    work.pop(t, None)
                else:
                    work[t] = new
        else:
            remainder[mono] = coeff
    return Poly(num.variables, quotient), Poly(num.variables, remainder)


def divides(den: Poly, num: Poly) -> bool:
    return poly_divmod(num, den)[1].is_zero()


# -- canonical text form -----------------------------------------------------

class PolyParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (column {pos + 1})")
        self.message = message
        self.pos = pos


_TOKEN_SYMBOLS = "+-*/^()"


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _TOKEN_SYMBOLS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == ".":
                raise PolyParseError(
                    "floating-point literals are not allowed; write an exact "
                    "ratio such as 1/2", i)
            tokens.append(("int", int(text[i:j]), i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        raise PolyParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, n))
    return tokens


class _ExprParser:
    """Recursive descent over: rational | name | unary - | + - * ^ | ( ).

    ``/`` is only the rational-literal separator: its left operand must be a
    constant and its right operand a positive integer literal.
    """

    def __init__(self, tokens, variables: Sequence[str],
                 bindings: Mapping[str, Fraction] | None):
        self.tokens = tokens
        self.k = 0
        self.variables = tuple(variables)
        self.bindings = dict(bindings or {})

    def peek(self):
        return self.tokens[self.k]

    def next(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect(self, kind: str):
        tok = self.next()
        if tok[0] != kind:
            raise PolyParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok

    def parse(self) -> Poly:
        p = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise PolyParseError(f"unexpected trailing {tok[1]!r}", tok[2])
        return p

    def expr(self) -> Poly:
        p = self.term()
        while self.peek()[0] in "+-":
            op = self.next()[0]
            q = self.term()
            p = p + q if op == "+" else p - q
        return p

    def term(self) -> Poly:
        p = self.factor()
        while self.peek()[0] in "*/":
            op, _, pos = self.next()
            if op == "*":
                p = p * self.factor()
            else:
                if not p.is_constant():
                    raise PolyParseError(
                        "'/' only separates rational literals; denominators of "
                        "polynomials are not in the grammar", pos)
                kind, value, dpos = self.next()
                if kind != "int" or value <= 0:
                    raise PolyParseError("denominator must be a positive integer", dpos)
                p = p * Fraction(1, value)
        return p

    def factor(self) -> Poly:
        p = self.atom()
        if self.peek()[0] == "^":
            _, _, pos = self.next()
            kind, value, epos = self.next()
            if kind != "int" or value < 0:
                raise PolyParseError("exponent must be a non-negative integer", epos)
            p = p ** value
        return p

    def atom(self) -> Poly:
        kind, value, pos = self.next()
        if kind == "int":
            return Poly.constant(self.variables, value)
        if kind == "name":
            if value in self.variables:
                return Poly.variable(self.variables, value)
            if value in self.bindings:
                return Poly.constant(self.variables, self.bindings[value])
            raise PolyParseError(f"unbound symbol {value!r}", pos)
        if kind == "(":
            p = self.expr()
            self.expect(")")
            return p
        if kind == "-":
            return -self.factor()
        if kind == "+":
            return self.factor()
        raise PolyParseError(f"unexpected {value!r}", pos)


def parse_poly(text: str, variables: Sequence[str],
               bindings: Mapping[str, Fraction] | None = None) -> Poly:
    """Parse the canonical text form (and ordinary expressions) into a Poly."""
    return _ExprParser(_tokenize(text), variables, bindings).parse()


# -- exact dense linear algebra ----------------------------------------------

def coefficient_matrix(polys: Sequence[Poly],
                       monos: Sequence[tuple]) -> list[list[Fraction]]:
    """One row per monomial of `monos`, column j the coefficients of polys[j].

    Terms outside `monos` are not represented, so passing only the monomials
    of a degree window imposes exactly that window's equations.
    """
    row_index = {m: i for i, m in enumerate(monos)}
    rows = [[_ZERO] * len(polys) for _ in monos]
    for j, p in enumerate(polys):
        for mono, coeff in p.terms.items():
            i = row_index.get(mono)
            if i is not None:
                rows[i][j] = coeff
    return rows


class RatMatrix:
    """Dense matrix of Fractions with exact Gauss-Jordan elimination.

    Pivot order is fixed: columns left to right, pivot row = first row with a
    nonzero entry.  This makes RREF, rank and nullspace fully deterministic.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence[Fraction]]):
        self.entries = [[_as_fraction(x) for x in row] for row in entries]
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.rows else 0
        if any(len(row) != self.cols for row in self.entries):
            raise ValueError("ragged rows")

    def __eq__(self, other) -> bool:
        return (isinstance(other, RatMatrix)
                and self.entries == other.entries)

    def rref(self) -> tuple["RatMatrix", tuple[int, ...]]:
        """Reduced row echelon form and the pivot column indices.

        Each row is scaled to a primitive integer vector, which keeps its
        span, and elimination runs on those integer rows: an update is
        ``(a/g)*row - (b/g)*pivot_row`` over the pivot row's nonzero columns,
        followed by division by the row's content.  Every integer row stays a
        nonzero rational multiple of the row Fraction elimination would hold,
        so the pivots agree and dividing each pivot row by its pivot gives the
        unique RREF over Q.
        """
        m = [_primitive_row(row) for row in self.entries]
        pivots = []
        pr = 0
        for pc in range(self.cols):
            pivot_row = None
            for r in range(pr, self.rows):
                if m[r][pc]:
                    pivot_row = r
                    break
            if pivot_row is None:
                continue
            m[pr], m[pivot_row] = m[pivot_row], m[pr]
            prow = m[pr]
            a = prow[pc]
            # columns left of pc are zero in the pivot row
            support = [(j, prow[j]) for j in range(pc, self.cols) if prow[j]]
            for r in range(self.rows):
                b = m[r][pc]
                if r == pr or not b:
                    continue
                g = math.gcd(a, b)
                ka, kb = a // g, b // g
                row = m[r] if ka == 1 else [ka * x for x in m[r]]
                for j, v in support:
                    row[j] -= kb * v
                content = math.gcd(*row)
                m[r] = row if content <= 1 else [x // content for x in row]
            pivots.append(pc)
            pr += 1
            if pr == self.rows:
                break
        entries = [[Fraction(x, row[pc]) if x else _ZERO for x in row]
                   for row, pc in zip(m, pivots)]
        entries += [[_ZERO] * self.cols for _ in range(self.rows - len(pivots))]
        out = RatMatrix.__new__(RatMatrix)
        out.entries = entries
        out.rows = self.rows
        out.cols = self.cols
        return out, tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def nullspace(self) -> list[list[Fraction]]:
        """Exact kernel basis; one vector per free column, ascending order."""
        red, pivots = self.rref()
        pivot_set = set(pivots)
        free = [j for j in range(self.cols) if j not in pivot_set]
        basis = []
        for fc in free:
            vec = [Fraction(0)] * self.cols
            vec[fc] = Fraction(1)
            for r, pc in enumerate(pivots):
                vec[pc] = -red.entries[r][fc]
            basis.append(vec)
        return basis

    def __str__(self) -> str:
        return "\n".join(" ".join(str(x) for x in row) for row in self.entries)


def _primitive_row(row: Sequence[Fraction]) -> list[int]:
    """The row times the lcm of its denominators, divided by its content."""
    scale = math.lcm(*(x.denominator for x in row))
    ints = [x.numerator * (scale // x.denominator) for x in row]
    content = math.gcd(*ints)
    return ints if content <= 1 else [x // content for x in ints]


def normalize_kernel_vector(vec: Sequence[Fraction]) -> list[Fraction]:
    """Scale to a primitive integer vector with positive first nonzero entry."""
    if not any(vec):
        return list(vec)
    ints = _primitive_row(vec)
    sign = 1 if next(x for x in ints if x) > 0 else -1
    return [Fraction(sign * x) for x in ints]
