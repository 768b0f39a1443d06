"""Darboux polynomials, exponential factors, and Darboux first integrals.

A Darboux polynomial of the field X is a polynomial f with X(f) = K*f for a
polynomial cofactor K of degree at most deg(X) - 1; an exponential factor is
E = exp(g / prod x_i^{s_i}) with X(E) = L*E.  Every certificate stores the
exact cofactor and can re-verify itself by independent exact arithmetic.

Search strategy: the equation X(f) = K*f is bilinear in (f, K), so the search
enumerates K over a finite integer lattice of generator combinations and
solves the remaining linear problem exactly.  Results are complete relative
to the lattice.  Every lattice goes through a graded sieve that fixes K one
homogeneous layer at a time (top degree first) and discards whole families
whose layer equations already have no nonzero solution; the survivors then
pass one rank screen on the full operator.  All three rank screens (the
sieve's top level, its lower levels and the full operator) go through
`_rank_screen`, which rejects only on full rank modulo a prime, which is
sound, and keeps every value when the prime divides a denominator.  Each
surviving cofactor is solved exactly over the rationals once per command,
and the certificates and the rational obstruction are both read off those
kernels.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Sequence

import numpy as np

from . import _modp
from .exactcore import (Poly, RatMatrix, divides, grlex_key,
                        monomials_of_degree, monomials_upto,
                        normalize_kernel_vector, poly_divmod)
from .field import VectorField, degree_split, lie_derivative

_ZERO = Fraction(0)
_MATERIALIZE_LIMIT = 5_000_000
_SIEVE_BASES_LIMIT = 200_000
_PRESCREEN_CHUNK = 8192


class NotDarbouxError(ArithmeticError):
    """X(f) is not an exact polynomial multiple of f; carries the remainder."""

    def __init__(self, f: Poly, remainder: Poly):
        super().__init__(f"{f} is not a Darboux polynomial "
                         f"(remainder {remainder})")
        self.f = f
        self.remainder = remainder


class NotExpFactorError(ArithmeticError):
    def __init__(self, message: str, remainder: Poly | None = None):
        super().__init__(message)
        self.remainder = remainder


class EvalDomainError(ArithmeticError):
    """A value cannot be evaluated in floats: a Darboux function factor
    vanishes (or is negative) where forbidden, or a number is too large
    for a float64."""


class LatticeTooLargeError(ValueError):
    """The requested lattice is too large: it cannot be materialized element
    by element, or the sieve would expand too many combinations of its
    non-monomial generators."""


@dataclass(frozen=True)
class DarbouxCert:
    """Pair (f, K) with X(f) = K*f exactly."""

    f: Poly
    K: Poly

    def check(self, X: VectorField) -> bool:
        return (lie_derivative(X, self.f) - self.K * self.f).is_zero()

    def record(self) -> dict:
        return {"poly": str(self.f), "cofactor": str(self.K)}


@dataclass(frozen=True)
class ExpFactorCert:
    """Certificate for exp(g / prod x_i^{s_i}) with cofactor L.

    The defining identity is X(g) - g * sum_i s_i K_i = L * prod x_i^{s_i},
    where K_i is the cofactor of the coordinate Darboux polynomial x_i.
    """

    g: Poly
    s: tuple[int, ...]
    L: Poly

    def denominator(self, X: VectorField) -> Poly:
        denom = Poly.constant(X.variables, 1)
        for v, e in zip(X.variables, self.s):
            if e:
                denom = denom * Poly.variable(X.variables, v) ** e
        return denom

    def check(self, X: VectorField) -> bool:
        balance = Poly.zero(X.variables)
        for v, e in zip(X.variables, self.s):
            if e:
                balance = balance + X.coordinate_cofactor(v) * e
        lhs = lie_derivative(X, self.g) - self.g * balance
        return (lhs - self.L * self.denominator(X)).is_zero()

    def record(self) -> dict:
        return {"g": str(self.g), "s": list(self.s), "L": str(self.L)}


def verify_darboux(X: VectorField, f: Poly) -> DarbouxCert:
    """Divide X(f) by f exactly; raises :class:`NotDarbouxError` otherwise."""
    if f.is_zero() or f.is_constant():
        raise ValueError("a Darboux polynomial must be non-constant")
    derivative = lie_derivative(X, f)
    quotient, remainder = poly_divmod(derivative, f)
    if not remainder.is_zero():
        raise NotDarbouxError(f, remainder)
    return DarbouxCert(f, quotient)


# --------------------------------------------------------------------------
# cofactor lattices
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CofactorLattice:
    """Finite candidate set {sum_i n_i * generator_i : |n_i| <= bound}."""

    generators: tuple[Poly, ...]
    bound: int

    def __post_init__(self):
        if self.bound < 0:
            raise ValueError("bound must be non-negative")


def default_lattice(X: VectorField, bound: int) -> CofactorLattice:
    """Coordinate cofactors, 1, the variables, and the scaled top terms.

    The top-degree terms of the coordinate cofactors are included as
    individual monomial generators because the layer-by-layer structure of
    X(f) = K*f only admits integer multiples of them in the top layer of K.
    """
    gens: list[Poly] = []
    seen: set[Poly] = set()

    def add(p: Poly):
        if not p.is_zero() and p not in seen and (-p) not in seen:
            seen.add(p)
            gens.append(p)

    cofs = []
    for v in X.variables:
        if X.is_kolmogorov(v):
            cof = X.coordinate_cofactor(v)
            cofs.append(cof)
            add(cof)
    add(Poly.constant(X.variables, 1))
    for v in X.variables:
        add(Poly.variable(X.variables, v))
    for cof in cofs:
        top_deg = cof.total_degree()
        if top_deg < 1:
            continue
        for mono, coeff in cof.homogeneous_part(top_deg).terms.items():
            add(Poly.from_monomial(X.variables, mono, abs(coeff)))
    return CofactorLattice(tuple(gens), bound)


def _gen_support(generators: Sequence[Poly]) -> list[tuple]:
    monos = set()
    for g in generators:
        monos.update(g.terms)
    return sorted(monos, key=grlex_key)


def enumerate_cofactors(X: VectorField, lattice: CofactorLattice) -> list[Poly]:
    """Materialize the deduplicated candidate set in canonical order."""
    gens = [g for g in lattice.generators if not g.is_zero()]
    B = lattice.bound
    raw = (2 * B + 1) ** len(gens)
    if raw > _MATERIALIZE_LIMIT:
        raise LatticeTooLargeError(
            f"{raw} raw combinations exceed the materialization limit "
            f"({_MATERIALIZE_LIMIT}); search_darboux screens such lattices "
            f"without materializing them")
    support = _gen_support(gens)
    index = {m: i for i, m in enumerate(support)}
    scale = 1
    for g in gens:
        for c in g.terms.values():
            scale = scale * c.denominator // math.gcd(scale, c.denominator)
    gvecs = []
    for g in gens:
        vec = [0] * len(support)
        for m, c in g.terms.items():
            vec[index[m]] = int(c * scale)
        gvecs.append(tuple(vec))

    acc: set[tuple[int, ...]] = {(0,) * len(support)}
    for vec in gvecs:
        multiples = [tuple(n * v for v in vec) for n in range(-B, B + 1)]
        acc = {tuple(a + b for a, b in zip(base, mult))
               for base in acc for mult in multiples}

    variables = X.variables
    polys = [Poly(variables, {m: Fraction(t[i], scale)
                              for m, i in index.items() if t[i]})
             for t in acc]
    polys.sort(key=Poly.sort_key)
    return polys


# --------------------------------------------------------------------------
# linear solves for a fixed cofactor
# --------------------------------------------------------------------------

def _scatter_poly(p: Poly, row_index: Mapping[tuple, int],
                  column: int, rows: list[list[Fraction]]) -> None:
    for mono, coeff in p.terms.items():
        rows[row_index[mono]][column] = coeff


def _operator_matrix(X: VectorField, K: Poly, col_monos: Sequence[tuple],
                     row_monos: Sequence[tuple]) -> list[list[Fraction]]:
    """Matrix of f -> X(f) - K*f on the given monomial bases."""
    row_index = {m: i for i, m in enumerate(row_monos)}
    rows = [[_ZERO] * len(col_monos) for _ in row_monos]
    for j, mono in enumerate(col_monos):
        basis = Poly.from_monomial(X.variables, mono)
        image = lie_derivative(X, basis) - K * basis
        _scatter_poly(image, row_index, j, rows)
    return rows


def search_darboux_fixed_cofactor(X: VectorField, K: Poly, d: int) -> list[Poly]:
    """Exact basis of {f : deg f <= d, X(f) = K*f}, monic, deterministic order."""
    if isinstance(K, (int, Fraction)):
        K = Poly.constant(X.variables, K)
    if K.total_degree() > max(X.degree - 1, 0) and not K.is_zero():
        raise ValueError("cofactor degree exceeds deg(X) - 1")
    n = len(X.variables)
    cols = monomials_upto(n, d)
    row_bound = d + max(X.degree - 1, 0)
    rows = monomials_upto(n, row_bound)
    matrix = RatMatrix(_operator_matrix(X, K, cols, rows))
    basis = []
    for vec in matrix.nullspace():
        poly = Poly(X.variables, {cols[j]: vec[j] for j in range(len(cols))})
        basis.append(poly.monic())
    return basis


# --------------------------------------------------------------------------
# lattice screens
# --------------------------------------------------------------------------

def _mult_matrix(theta: Poly, cols: Sequence[tuple],
                 rows: Sequence[tuple]) -> list[list[Fraction]]:
    """Matrix of f -> theta*f from the span of cols to the span of rows."""
    row_index = {m: i for i, m in enumerate(rows)}
    out = [[_ZERO] * len(cols) for _ in rows]
    for c, mono in enumerate(cols):
        for tm, tc in theta.terms.items():
            out[row_index[tuple(a + b for a, b in zip(tm, mono))]][c] = tc
    return out


def _add_block(dst: list[list[Fraction]], row0: int, col0: int,
               block: Sequence[Sequence[Fraction]], sign: int) -> None:
    """dst[row0 + a][col0 + b] += sign * block[a][b], sign being +1 or -1."""
    for a, row in enumerate(block):
        out = dst[row0 + a]
        for b, v in enumerate(row):
            if v != 0:
                out[col0 + b] += v if sign > 0 else -v


def _rank_screen(values: Sequence, base: Sequence[Sequence[Fraction]],
                 directions: Sequence[Sequence[Sequence[Fraction]]],
                 residues: Callable[[Sequence], np.ndarray],
                 full_rank: int) -> list:
    """The values whose matrix is rank-deficient mod p, in their given order.

    The matrix of values[i] is base - sum_k c[i][k] * directions[k] with
    c = residues(values), an (N, len(directions)) array of residues mod p.
    A value is rejected only when that matrix has rank full_rank mod p,
    which proves its rational kernel trivial.  When p divides a denominator
    nothing is proved, and every value is kept.
    """
    if not values:
        return []
    try:
        base_p = _modp.fraction_rows_to_modp(base)
        dir_stack = np.zeros((len(directions),) + base_p.shape, dtype=np.int64)
        for k, direction in enumerate(directions):
            dir_stack[k] = _modp.fraction_rows_to_modp(direction)
        coeffs = residues(values)
    except _modp.ModPUnavailableError:
        return list(values)
    survivors = []
    for start in range(0, len(values), _PRESCREEN_CHUNK):
        chunk = slice(start, start + _PRESCREEN_CHUNK)
        ranks = _modp.batched_rank(
            _modp.batched_combination(base_p, dir_stack, coeffs[chunk]))
        survivors.extend(v for v, rank in zip(values[chunk], ranks)
                         if rank < full_rank)
    return survivors


def _full_operator_screen(X: VectorField, d: int,
                          candidates: list[Poly]) -> list[Poly]:
    """Keep candidates whose operator matrix is rank-deficient (mod-p screen)."""
    if not candidates:
        return []
    n = len(X.variables)
    cols = monomials_upto(n, d)
    rows = monomials_upto(n, d + max(X.degree - 1, 0))
    support = sorted({m for K in candidates for m in K.terms}, key=grlex_key)
    units = [_mult_matrix(Poly.from_monomial(X.variables, m), cols, rows)
             for m in support]

    def residues(Ks: Sequence[Poly]) -> np.ndarray:
        return np.array([[_modp.fraction_to_modp(K.coefficient(m))
                          for m in support] for K in Ks], dtype=np.int64)

    base = _operator_matrix(X, Poly.zero(X.variables), cols, rows)
    return _rank_screen(candidates, base, units, residues, len(cols))


# ---- graded sieve ------------------------------------------------------------

def _mask_indices(mask: int) -> list[int]:
    """Positions of the set bits of a non-negative int, ascending."""
    return [t for t, bit in enumerate(reversed(bin(mask))) if bit == "1"]


class _LatticeBoxes:
    """Candidates as {base + per-monomial box offsets}.

    Single-term generators become independent per-monomial offset ranges;
    every combination of the remaining generators is expanded into a "base".
    All coefficient bookkeeping is integer-scaled per monomial.  A set of
    bases is one int bitmask, bit t standing for base t.
    """

    def __init__(self, lattice: CofactorLattice):
        gens = [g for g in lattice.generators if not g.is_zero()]
        B = lattice.bound
        mono_gens: list[Poly] = [g for g in gens if len(g.terms) == 1]
        general: list[Poly] = [g for g in gens if len(g.terms) > 1]
        if (2 * B + 1) ** len(general) > _SIEVE_BASES_LIMIT:
            raise LatticeTooLargeError(
                "too many non-monomial generator combinations to sieve")
        support = _gen_support(gens)
        self.support = support
        self.scale: dict[tuple, int] = {}
        for m in support:
            s = 1
            for g in gens:
                c = g.terms.get(m)
                if c is not None:
                    s = s * c.denominator // math.gcd(s, c.denominator)
            self.scale[m] = s

        self.box: dict[tuple, tuple[int, ...]] = {}
        for g in mono_gens:
            (mono, coeff), = g.terms.items()
            step = int(coeff * self.scale[mono])
            offsets = set(self.box.get(mono, (0,)))
            offsets = {o + n * step for o in offsets for n in range(-B, B + 1)}
            self.box[mono] = tuple(sorted(offsets))

        self.bases: list[dict[tuple, int]] = []
        seen = set()
        combos = itertools.product(range(-B, B + 1), repeat=len(general))
        for combo in combos:
            vec: dict[tuple, int] = {}
            for n, g in zip(combo, general):
                if n == 0:
                    continue
                for m, c in g.terms.items():
                    vec[m] = vec.get(m, 0) + n * int(c * self.scale[m])
            key = tuple(sorted((m, v) for m, v in vec.items() if v))
            if key not in seen:
                seen.add(key)
                self.bases.append({m: v for m, v in vec.items() if v})

    def monos_of_degree(self, degree: int) -> list[tuple]:
        return [m for m in self.support if sum(m) == degree]

    def legal_bases(self, max_degree: int) -> int:
        """Bases whose parts of degree > max_degree can be cancelled to zero."""
        high = [(m, set(self.box.get(m, (0,))))
                for m in self.support if sum(m) > max_degree]
        mask = 0
        for t, base in enumerate(self.bases):
            if all(-base.get(m, 0) in offsets for m, offsets in high):
                mask |= 1 << t
        return mask

    def sections(self, compat: int, degree: int) -> dict[tuple[int, ...], int]:
        """Distinct degree-`degree` parts reachable from the compatible bases.

        Maps the integer-scaled coefficient tuple (over monos_of_degree) to
        the bitmask of the bases that can realize it; callers sort the keys.
        """
        monos = self.monos_of_degree(degree)
        out: dict[tuple[int, ...], int] = {}
        for t in _mask_indices(compat):
            base = self.bases[t]
            key = tuple(base.get(m, 0) for m in monos)
            out[key] = out.get(key, 0) | 1 << t
        # shift one coordinate at a time by its box offsets, merging the
        # base masks of keys that meet: far fewer merges than per full offset
        for j, m in enumerate(monos):
            offsets = self.box.get(m, (0,))
            shifted: dict[tuple[int, ...], int] = {}
            for key, members in out.items():
                head, k, tail = key[:j], key[j], key[j + 1:]
                for o in offsets:
                    val = head + (k + o,) + tail
                    shifted[val] = shifted.get(val, 0) | members
            out = shifted
        return out

    def section_poly(self, variables: Sequence[str], degree: int,
                     value: tuple[int, ...]) -> Poly:
        monos = self.monos_of_degree(degree)
        return Poly(variables, {m: Fraction(v, self.scale[m])
                                for m, v in zip(monos, value)})

    def section_residues(self, degree: int,
                         values: Sequence[tuple[int, ...]]) -> np.ndarray:
        """Section values as coefficient residues mod p, one row per value.

        Reduced in Python integers, so large scaled coefficients cannot
        overflow int64; raises ModPUnavailableError when p divides a scale.
        """
        p = _modp.PRIME
        inverses = [_modp.fraction_to_modp(Fraction(1, self.scale[m]))
                    for m in self.monos_of_degree(degree)]
        return np.array([[v * inv % p for v, inv in zip(val, inverses)]
                         for val in values], dtype=np.int64)


def _matmul(A: Sequence[Sequence[Fraction]],
            B: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    cols_b = len(B[0]) if B else 0
    out = []
    for row in A:
        acc = [_ZERO] * cols_b
        for k, a in enumerate(row):
            if a == 0:
                continue
            brow = B[k]
            for j in range(cols_b):
                if brow[j] != 0:
                    acc[j] += a * brow[j]
        out.append(acc)
    return out


class _GradedSieve:
    """Layer-by-layer elimination of cofactor candidates for one field.

    For f with top homogeneous part f_n, the graded components of
    X(f) - K*f = 0 couple the degree-l part of K only to blocks f_n .. f_{n-r}
    with l = deg(X)-1-r.  Fixing K from the top down, each level's equations
    are linear with only the new layer's coefficients varying, so whole
    sections of the lattice are rejected by one small rank test each.
    """

    def __init__(self, X: VectorField, d: int, lattice: CofactorLattice):
        self.X = X
        self.d = d
        self.M = X.degree
        self.nv = len(X.variables)
        self.boxes = _LatticeBoxes(lattice)
        self.layers: dict[int, VectorField] = dict(degree_split(X))
        self._layer_cache: dict[tuple[int, int], list[list[Fraction]]] = {}
        self.found: set[Poly] = set()

    # matrices between graded spaces ------------------------------------

    def _hdim(self, k: int) -> int:
        return math.comb(k + self.nv - 1, self.nv - 1)

    def _layer_matrix(self, j: int, k: int) -> list[list[Fraction]]:
        """Layer-j part of X as a map from homogeneous degree k to k+j-1."""
        key = (j, k)
        if key not in self._layer_cache:
            cols = monomials_of_degree(self.nv, k)
            rows = monomials_of_degree(self.nv, k + j - 1)
            row_index = {m: i for i, m in enumerate(rows)}
            out = [[_ZERO] * len(cols) for _ in rows]
            layer = self.layers.get(j)
            if layer is not None:
                for c, mono in enumerate(cols):
                    image = lie_derivative(layer, Poly.from_monomial(
                        self.X.variables, mono))
                    _scatter_poly(image, row_index, c, out)
            self._layer_cache[key] = out
        return self._layer_cache[key]

    def _homogeneous_mult(self, theta: Poly, k: int,
                          ell: int) -> list[list[Fraction]]:
        """Multiplication by the homogeneous degree-ell poly theta, from H_k."""
        return _mult_matrix(theta, monomials_of_degree(self.nv, k),
                            monomials_of_degree(self.nv, k + ell))

    def _unit_mults(self, k: int, ell: int) -> list[list[list[Fraction]]]:
        """Multiplication by each degree-ell lattice monomial, from H_k."""
        return [self._homogeneous_mult(Poly.from_monomial(self.X.variables, m),
                                       k, ell)
                for m in self.boxes.monos_of_degree(ell)]

    # the sieve proper ----------------------------------------------------

    def run(self) -> list[Poly]:
        compat0 = self.boxes.legal_bases(max(self.M - 1, 0))
        if not compat0:
            return []
        for n in range(1, self.d + 1):
            self._top_level(n, compat0)
        return sorted(self.found, key=Poly.sort_key)

    def _top_level(self, n: int, compat: int) -> None:
        top_deg = self.M - 1
        sections = self.boxes.sections(compat, top_deg)
        if not sections:
            return
        top_op = self._layer_matrix(self.M, n)
        screened = _rank_screen(
            sorted(sections), top_op, self._unit_mults(n, top_deg),
            functools.partial(self.boxes.section_residues, top_deg),
            self._hdim(n))

        for val in screened:
            tau = self.boxes.section_poly(self.X.variables, top_deg, val)
            op = [row[:] for row in top_op]
            _add_block(op, 0, 0, self._homogeneous_mult(tau, n, top_deg), -1)
            kernel = RatMatrix(op).nullspace()
            if not kernel:
                continue
            W = [list(vec) for vec in kernel]  # columns of the W basis
            self._descend(n, {top_deg: tau}, sections[val], 1, W)

    def _descend(self, n: int, parts: dict[int, Poly], compat: int, r: int,
                 W: list[list[Fraction]]) -> None:
        M = self.M
        variables = self.X.variables
        if r > M - 1:
            K = Poly.zero(variables)
            for part in parts.values():
                K = K + part
            self.found.add(K)
            return
        ell = M - 1 - r
        sections = self.boxes.sections(compat, ell)
        if not sections:
            return
        values = sorted(sections)

        w = len(W)
        wmat = [[W[c][i] for c in range(w)]
                for i in range(len(W[0]))]  # H_n x w

        # stacked equations i = 1..r; unknown blocks f_{n-1}..f_{n-r}.
        # parts holds the layers of K of degree M-1 .. M-r.
        row_blocks = [self._hdim(n + M - 1 - i) for i in range(1, r + 1)]
        row_offsets = [0]
        for rb in row_blocks:
            row_offsets.append(row_offsets[-1] + rb)
        total_rows = row_offsets[-1]

        f_blocks = [s for s in range(1, r + 1) if n - s >= 0]
        f_widths = [self._hdim(n - s) for s in f_blocks]
        total_f = sum(f_widths)
        F = [[_ZERO] * total_f for _ in range(total_rows)]
        col0 = 0
        for s, width in zip(f_blocks, f_widths):
            for i in range(1, r + 1):
                roff = row_offsets[i - 1]
                if s <= i:
                    _add_block(F, roff, col0,
                               self._layer_matrix(M - i + s, n - s), 1)
                ellp = M - 1 - i + s
                if ellp in parts and not parts[ellp].is_zero():
                    _add_block(F, roff, col0, self._homogeneous_mult(
                        parts[ellp], n - s, ellp), -1)
            col0 += width

        # cokernel of the fixed block
        if total_f and total_rows:
            P = RatMatrix(F).transpose().nullspace()
        else:
            P = [[_ZERO] * total_rows for _ in range(total_rows)]
            for i in range(total_rows):
                P[i][i] = Fraction(1)
        # with P empty every equation is absorbed by the free blocks, so
        # this level constrains nothing and every section value descends
        if P:
            # w-columns: fixed contributions for equations 1..r
            wcols_fixed = [[_ZERO] * w for _ in range(total_rows)]
            for i in range(1, r + 1):
                roff = row_offsets[i - 1]
                _add_block(wcols_fixed, roff, 0,
                           _matmul(self._layer_matrix(M - i, n), wmat), 1)
                ellp = M - 1 - i
                if ellp in parts and not parts[ellp].is_zero():
                    _add_block(wcols_fixed, roff, 0, _matmul(
                        self._homogeneous_mult(parts[ellp], n, ellp), wmat), -1)

            # the theta-part enters equation r only
            roff_r = row_offsets[r - 1]
            rows_r = self._hdim(n + M - 1 - r)
            P_r = [prow[roff_r:roff_r + rows_r] for prow in P]
            theta_dirs = [_matmul(P_r, _matmul(E, wmat))
                          for E in self._unit_mults(n, ell)]
            values = _rank_screen(
                values, _matmul(P, wcols_fixed), theta_dirs,
                functools.partial(self.boxes.section_residues, ell), w)

        for val in values:
            theta = self.boxes.section_poly(variables, ell, val)
            new_parts = dict(parts)
            new_parts[ell] = theta
            self._descend(n, new_parts, sections[val], r + 1, W)


def _candidate_cofactors(X: VectorField, d: int,
                         lattice: CofactorLattice) -> list[Poly]:
    """Screened cofactor candidates, complete relative to the lattice.

    The zero cofactor comes first, then the coordinate cofactors, then the
    remaining sieve survivors that also pass the full-operator screen.
    """
    priority = [Poly.zero(X.variables)]
    for v in X.variables:
        if X.is_kolmogorov(v):
            priority.append(X.coordinate_cofactor(v))
    survivors = _full_operator_screen(X, d, _GradedSieve(X, d, lattice).run())

    out = []
    seen = set()
    for K in priority + survivors:
        if K not in seen:
            seen.add(K)
            out.append(K)
    return out


CofactorKernels = list[tuple[Poly, list[Poly]]]


def cofactor_kernels(X: VectorField, d: int,
                     lattice: CofactorLattice) -> CofactorKernels:
    """[(K, exact basis of {f : deg f <= d, X(f) = K*f})] per screened cofactor.

    This is the one exact pass of a command: the Darboux certificates and the
    rational obstruction are both derived from its result.
    """
    return [(K, search_darboux_fixed_cofactor(X, K, d))
            for K in _candidate_cofactors(X, d, lattice)]


def certificates_from_kernels(X: VectorField,
                              kernels: CofactorKernels) -> list[DarbouxCert]:
    """Darboux certificates in canonical order, products filtered out."""
    # strip monomial content; the content variables are certificates
    # themselves (every irreducible factor of a Darboux polynomial is one)
    prepared: dict[Poly, Poly] = {}
    for K, basis in kernels:
        for f in basis:
            if f.is_constant():
                continue
            stripped, content_cof, content_vars = _strip_monomial_content(X, f)
            for v in content_vars:
                prepared.setdefault(Poly.variable(X.variables, v),
                                    X.coordinate_cofactor(v))
            if not stripped.is_constant():
                prepared.setdefault(stripped, K - content_cof)

    certs: list[DarbouxCert] = []
    found: list[Poly] = []
    for f in sorted(prepared, key=Poly.sort_key):
        if any(divides(h, f) for h in found):
            continue
        cert = DarbouxCert(f, prepared[f])
        if not cert.check(X):
            raise AssertionError(f"internal certificate check failed for {f}")
        certs.append(cert)
        found.append(f)
    return certs


def search_darboux(X: VectorField, d: int,
                   lattice: CofactorLattice | None = None) -> list[DarbouxCert]:
    """All Darboux certificates of degree <= d, complete relative to the lattice.

    Products of previously found certificates are filtered out (after
    stripping monomial content), so the returned list contains only
    certificates that are new relative to everything already reported.
    """
    if lattice is None:
        lattice = default_lattice(X, d)
    return certificates_from_kernels(X, cofactor_kernels(X, d, lattice))


def _strip_monomial_content(X: VectorField, f: Poly
                            ) -> tuple[Poly, Poly, tuple[str, ...]]:
    """Divide out the monomial content.

    Returns (stripped monic part, cofactor of the content, content variables).
    """
    mins = [min(m[i] for m in f.terms) for i in range(len(X.variables))]
    if not any(mins):
        return f.monic(), Poly.zero(X.variables), ()
    content_cof = Poly.zero(X.variables)
    terms = {}
    for mono, coeff in f.terms.items():
        terms[tuple(a - b for a, b in zip(mono, mins))] = coeff
    content_vars = []
    for v, e in zip(X.variables, mins):
        if e:
            content_cof = content_cof + X.coordinate_cofactor(v) * e
            content_vars.append(v)
    return Poly(X.variables, terms).monic(), content_cof, tuple(content_vars)


# --------------------------------------------------------------------------
# exponential factors
# --------------------------------------------------------------------------

def verify_exp_factor(X: VectorField, g: Poly,
                      s: Sequence[int] | None = None) -> ExpFactorCert:
    """Check exp(g / prod x_i^{s_i}) and compute its cofactor exactly."""
    s = tuple(s) if s is not None else (0,) * len(X.variables)
    if len(s) != len(X.variables) or any(e < 0 for e in s):
        raise ValueError("s must give one non-negative exponent per variable")
    if g.is_zero() or (g.is_constant() and not any(s)):
        raise ValueError("the numerator must be non-constant")
    balance = Poly.zero(X.variables)
    denom = Poly.constant(X.variables, 1)
    for v, e in zip(X.variables, s):
        if e == 0:
            continue
        cof = X.coordinate_cofactor(v)  # raises NotInvariantError when invalid
        balance = balance + cof * e
        var = Poly.variable(X.variables, v)
        if divides(var, g):
            raise NotExpFactorError(
                f"numerator must be coprime with {v} (s_{v} > 0)")
        denom = denom * var ** e
    lhs = lie_derivative(X, g) - g * balance
    quotient, remainder = poly_divmod(lhs, denom)
    if not remainder.is_zero():
        raise NotExpFactorError("defining identity has a nonzero remainder",
                                remainder)
    if quotient.total_degree() > max(X.degree - 1, 0) and not quotient.is_zero():
        raise NotExpFactorError(
            f"cofactor degree {quotient.total_degree()} exceeds deg(X)-1")
    return ExpFactorCert(g, s, quotient)


def search_exp_factors(X: VectorField, deg_g: int,
                       s_bound: int = 0) -> list[ExpFactorCert]:
    """Complete joint linear search over g (deg <= deg_g) and L (deg <= deg X - 1).

    For each denominator exponent vector s the defining identity is linear in
    (g, L); the kernel is computed exactly and row-reduced so the reported
    certificates are the canonical sparse representatives.  Two kinds of
    kernel directions are not reported: the trivial exp(constant), and pairs
    with L = 0, which are exponentials of first integrals and belong to the
    first-integral reports instead.
    """
    nv = len(X.variables)
    variables = X.variables
    max_L = max(X.degree - 1, 0)
    results: list[ExpFactorCert] = []
    for s in itertools.product(range(s_bound + 1), repeat=nv):
        balance = Poly.zero(variables)
        denom = Poly.constant(variables, 1)
        invalid = False
        for v, e in zip(variables, s):
            if e == 0:
                continue
            if not X.is_kolmogorov(v):
                invalid = True  # {v=0} not invariant: not a Darboux denominator
                break
            balance = balance + X.coordinate_cofactor(v) * e
            denom = denom * Poly.variable(variables, v) ** e
        if invalid:
            continue
        g_monos = monomials_upto(nv, deg_g)
        L_monos = monomials_upto(nv, max_L)
        row_bound = max(deg_g + max(X.degree - 1, 0), max_L + sum(s), 0)
        rows = monomials_upto(nv, row_bound)
        row_index = {m: i for i, m in enumerate(rows)}
        mat = [[_ZERO] * (len(g_monos) + len(L_monos)) for _ in rows]
        for j, mono in enumerate(g_monos):
            basis = Poly.from_monomial(variables, mono)
            image = lie_derivative(X, basis) - basis * balance
            _scatter_poly(image, row_index, j, mat)
        for j, mono in enumerate(L_monos):
            image = -(Poly.from_monomial(variables, mono) * denom)
            _scatter_poly(image, row_index, len(g_monos) + j, mat)
        kernel = RatMatrix(mat).nullspace()
        if not kernel:
            continue
        reduced, _ = RatMatrix(kernel).rref()
        for vec in reduced.entries:
            g = Poly(variables, {g_monos[j]: vec[j]
                                 for j in range(len(g_monos))})
            L = Poly(variables, {L_monos[j]: vec[len(g_monos) + j]
                                 for j in range(len(L_monos))})
            if g.is_zero() or (g.is_constant() and not any(s)):
                continue  # exp(constant) is trivial; exp(c/denominator) is not
            if L.is_zero():
                continue  # exp of a first integral, not an exponential factor
            scale = Fraction(1) / g.leading_coefficient()
            g, L = g * scale, L * scale
            if any(e and divides(Poly.variable(variables, v), g)
                   for v, e in zip(variables, s)):
                continue  # not coprime with the denominator
            cert = ExpFactorCert(g, s, L)
            if not cert.check(X):
                raise AssertionError("internal exponential-factor check failed")
            results.append(cert)
    return results


# --------------------------------------------------------------------------
# Darboux functions and first integrals
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class DarbouxFunction:
    """prod f_i^{lambda_i} * prod E_j^{mu_j} with vanishing cofactor balance."""

    darboux_terms: tuple[tuple[DarbouxCert, Fraction], ...]
    exp_terms: tuple[tuple[ExpFactorCert, Fraction], ...]

    def __post_init__(self):
        balance = self.cofactor_balance()
        if not balance.is_zero():
            raise ValueError(f"cofactor balance is {balance}, not zero")

    def cofactor_balance(self) -> Poly:
        terms = [(c.K, lam) for c, lam in self.darboux_terms]
        terms += [(c.L, mu) for c, mu in self.exp_terms]
        if not terms:
            raise ValueError("empty Darboux function")
        total = Poly.zero(terms[0][0].variables)
        for cof, exponent in terms:
            total = total + cof * exponent
        return total

    def evaluate_float(self, point: Sequence[float]) -> float:
        value = 1.0
        for cert, lam in self.darboux_terms:
            base = cert.f.evaluate_float(point)
            exponent = float(lam)
            if base == 0.0:
                if exponent < 0:
                    raise EvalDomainError(f"factor {cert.f} vanishes")
                value *= 0.0 ** exponent
                continue
            if base < 0.0 and lam.denominator != 1:
                raise EvalDomainError(
                    f"factor {cert.f} negative with non-integer exponent {lam}")
            if lam.denominator == 1:
                value *= base ** int(lam)
            else:
                value *= base ** exponent
        for cert, mu in self.exp_terms:
            g_val = cert.g.evaluate_float(point)
            denom_val = 1.0
            for e, coord in zip(cert.s, point):
                if e:
                    denom_val *= float(coord) ** e
            if denom_val == 0.0:
                raise EvalDomainError("exponential-factor denominator vanishes")
            value *= math.exp(float(mu) * g_val / denom_val)
        return value

    def text(self) -> str:
        chunks = []
        for cert, lam in self.darboux_terms:
            if lam == 0:
                continue
            chunks.append(f"({cert.f})^{lam}")
        for cert, mu in self.exp_terms:
            if mu == 0:
                continue
            if any(cert.s):
                denom = "*".join(f"{v}^{e}" if e > 1 else v
                                 for v, e in zip(cert.g.variables, cert.s) if e)
                chunks.append(f"exp(({cert.g})/({denom}))^{mu}")
            else:
                chunks.append(f"exp({cert.g})^{mu}")
        return " * ".join(chunks) if chunks else "1"

    def record(self) -> dict:
        return {
            "darboux_terms": [{"poly": str(c.f), "cofactor": str(c.K),
                               "exponent": str(lam)}
                              for c, lam in self.darboux_terms],
            "exp_terms": [{"g": str(c.g), "s": list(c.s), "L": str(c.L),
                           "exponent": str(mu)}
                          for c, mu in self.exp_terms],
            "text": self.text(),
        }


def assemble_darboux_integrals(certs: Sequence[DarbouxCert],
                               efacts: Sequence[ExpFactorCert] = ()
                               ) -> list[DarbouxFunction]:
    """One Darboux function per kernel vector of the stacked cofactor matrix."""
    cofactors = [c.K for c in certs] + [c.L for c in efacts]
    if not cofactors:
        return []
    variables = cofactors[0].variables
    support = sorted({m for cof in cofactors for m in cof.terms},
                     key=grlex_key)
    if not support:
        support = [(0,) * len(variables)]
    rows = [[cof.coefficient(m) for cof in cofactors] for m in support]
    kernel = RatMatrix(rows).nullspace()
    out = []
    for vec in kernel:
        vec = normalize_kernel_vector(vec)
        d_terms = tuple((c, lam) for c, lam in zip(certs, vec[:len(certs)])
                        if lam != 0)
        e_terms = tuple((c, mu) for c, mu in zip(efacts, vec[len(certs):])
                        if mu != 0)
        if not d_terms and not e_terms:
            continue
        out.append(DarbouxFunction(d_terms, e_terms))
    return out


# --------------------------------------------------------------------------
# rational first-integral obstruction
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ObstructionReport:
    degree: int
    polynomial_space_trivial: bool
    polynomial_witnesses: tuple[Poly, ...]
    same_cofactor_pairs: tuple[tuple[Poly, Poly, Poly], ...]  # (K, f1, f2)

    @property
    def holds(self) -> bool:
        return self.polynomial_space_trivial and not self.same_cofactor_pairs

    def record(self) -> dict:
        return {
            "degree": self.degree,
            "polynomial_space_trivial": self.polynomial_space_trivial,
            "polynomial_witnesses": [str(p) for p in self.polynomial_witnesses],
            "same_cofactor_pairs": [
                {"cofactor": str(K), "pair": [str(f1), str(f2)]}
                for K, f1, f2 in self.same_cofactor_pairs],
            "holds": self.holds,
        }


def obstruction_from_kernels(d: int,
                             kernels: CofactorKernels) -> ObstructionReport:
    """The obstruction report read off the kernels of one exact pass."""
    witnesses = tuple(f for K, basis in kernels if K.is_zero()
                      for f in basis if not f.is_constant())
    pairs = tuple((K, basis[0], basis[1]) for K, basis in kernels
                  if not K.is_zero() and len(basis) >= 2)
    return ObstructionReport(d, not witnesses, witnesses, pairs)


def rational_obstruction(X: VectorField, d: int,
                         lattice: CofactorLattice | None = None
                         ) -> ObstructionReport:
    """Obstruction to a rational first integral, relative to the lattice.

    A rational first integral forces either a polynomial first integral or
    two Darboux polynomials sharing one nonzero cofactor.  The report states
    whether both routes are excluded at degree <= d over the lattice.
    """
    if lattice is None:
        lattice = default_lattice(X, d)
    return obstruction_from_kernels(d, cofactor_kernels(X, d, lattice))
