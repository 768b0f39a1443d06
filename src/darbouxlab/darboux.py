"""Darboux polynomials, exponential factors, and Darboux first integrals.

A Darboux polynomial of the field X is a polynomial f with X(f) = K*f for a
polynomial cofactor K of degree at most deg(X) - 1; an exponential factor is
E = exp(g / prod x_i^{s_i}) with X(E) = L*E.  Every certificate stores the
exact cofactor and can re-verify itself by independent exact arithmetic.

Search strategy: the equation X(f) = K*f is bilinear in (f, K), so the search
enumerates K over a finite integer lattice of generator combinations and
solves the remaining linear problem exactly.  Results are complete relative
to the lattice.  Every lattice goes through a graded sieve that fixes K one
homogeneous layer at a time (top degree first), in one traversal for every
f-degree run level by level, and discards whole families whose layer
equations already have no nonzero solution; the survivors then pass one
rank screen on the full operator.  The sections a sieve node screens are
filtered from one table per degree of every reachable layer value, built
and reduced mod p once per lattice.

The sieve and the full operator work on residues modulo a prime p, gathered
from one table of the residues of X(m) per (field, degree, p)
(`_image_residues`); multiplication by a monomial is a gather, not a
product.  p is the largest prime below 2^31 that divides no denominator of
X's coefficients and no lattice scale (`_modp.screening_prime`): every
coefficient of X(m), of a candidate K and of a section value has a
denominator dividing one of those, so every residue a screen needs exists.
Every screen rejects only on full rank mod p, which proves a trivial
rational kernel.  The sieve's top level takes the kernel W of each
top layer mod p; a lower level projects its equations onto the cokernel P
mod p of the block A of the free unknowns, which is sound once
rank_Q(A) = rank_p(A) is proved (see `_GradedSieve`): at no cost when A has
full column rank mod p, and otherwise by lifting A's kernel basis by
rational reconstruction and checking each lift exactly.  Where that
fails, the sieve falls back to exact elimination for that matrix alone.
The sieve levels only reject, through `_rank_screen`, which first
ranks their tall matrices M compressed to G*M, for a fixed G with two more
rows than M has columns: rank(G*M) <= rank(M), so full rank there proves
the rejection, and only the few values it leaves open are ranked on M.
The full operator's ranks stay uncompressed (`_ranks` alone): they also
bound kernel dimensions, and nearly all of its candidates are
rank-deficient, so a prescreen would only add work there.
The kernel of each candidate K is computed once per command, and the
certificates and the rational obstruction are both read off those kernels.
Where K's known monomial solutions x^e (X(x^e) = K*x^e) are as many as the
kernel dimension mod p, they are the kernel: they lie in the rational kernel,
whose dimension is at most the one mod p.  Every other candidate is solved
exactly over the rationals.

Every exact matrix here is `coefficient_matrix` of a basis, or of its images
under X(f) - K*f, on a window of monomials; no other code scatters
polynomial terms into a matrix.
"""

from __future__ import annotations

import functools
import itertools
import math
import types
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Mapping, NamedTuple, Sequence

from . import _modp
from .exactcore import (Poly, RatMatrix, coefficient_matrix, divides,
                        grlex_key, monomials_of_degree, monomials_upto,
                        normalize_kernel_vector)
from .field import VectorField, lie_derivative

if TYPE_CHECKING:
    import numpy as np

_ZERO = Fraction(0)
_MATERIALIZE_LIMIT = 5_000_000
_SIEVE_BASES_LIMIT = 200_000
_PRESCREEN_CHUNK = 8192
_EXP_FACTOR_CELLS_LIMIT = 20_000_000


class EvalDomainError(ArithmeticError):
    """A value cannot be evaluated in floats: a Darboux function factor
    vanishes (or is negative) where forbidden, or a number is too large
    for a float64."""


class InternalCheckError(RuntimeError):
    """A certificate failed its independent re-verification."""


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

def _operator_image(Xf: Poly, K: Poly, f: Poly) -> Poly:
    """X(f) - K*f from the image X(f), accumulated in one term dict."""
    if not K.terms:
        return Xf
    terms = dict(Xf.terms)
    for km, kc in K.terms.items():
        for fm, fc in f.terms.items():
            t = tuple(a + b for a, b in zip(km, fm))
            terms[t] = terms.get(t, _ZERO) - kc * fc
    return Poly(Xf.variables, terms)


def _monomial_basis(X: VectorField, monos: Sequence[tuple]) -> list[Poly]:
    return [Poly.from_monomial(X.variables, m) for m in monos]


@functools.lru_cache(maxsize=1)
def _monomial_images(X: VectorField, d: int) -> Mapping[tuple, Poly]:
    """Read-only {m: X(m)} for every monomial of degree <= d, graded-lex.

    Kept for the last (field, degree) only, so the sieve, the full-operator
    screen and every exact solve of one command share one X(m) per column.
    """
    cols = monomials_upto(len(X.variables), d)
    return types.MappingProxyType(
        {m: lie_derivative(X, b) for m, b in zip(cols, _monomial_basis(X, cols))})


def search_darboux_fixed_cofactor(X: VectorField, K: Poly, d: int) -> list[Poly]:
    """Exact basis of {f : deg f <= d, X(f) = K*f}, monic, deterministic order."""
    if isinstance(K, (int, Fraction)):
        K = Poly.constant(X.variables, K)
    if K.total_degree() > max(X.degree - 1, 0) and not K.is_zero():
        raise ValueError("cofactor degree exceeds deg(X) - 1")
    n = len(X.variables)
    cols = monomials_upto(n, d)
    rows = monomials_upto(n, d + max(X.degree - 1, 0))
    images = _monomial_images(X, d)
    matrix = RatMatrix(coefficient_matrix(
        [_operator_image(images[m], K, b)
         for m, b in zip(cols, _monomial_basis(X, cols))], rows))
    basis = []
    for vec in matrix.nullspace():
        poly = Poly(X.variables, {cols[j]: vec[j] for j in range(len(cols))})
        basis.append(poly.monic())
    return basis


# --------------------------------------------------------------------------
# lattice screens
# --------------------------------------------------------------------------

@functools.lru_cache(maxsize=1)
def _image_residues(X: VectorField, d: int, p: int) -> np.ndarray:
    """Read-only residues mod p of X(m) for every monomial m of degree <= d.

    Column j is X(m_j) for the j-th monomial of degree <= d and row i the
    i-th monomial of degree <= d + deg(X) - 1, both graded-lex: the one
    table from which the full operator and every sieve block are gathered.
    Kept for the last (field, degree, prime).
    """
    rows = monomials_upto(len(X.variables), d + max(X.degree - 1, 0))
    table = _modp.fraction_rows_to_modp(coefficient_matrix(
        list(_monomial_images(X, d).values()), rows), p)
    table.setflags(write=False)
    return table


def _ranks(base: np.ndarray, directions: np.ndarray,
           coefficients: np.ndarray, p: int) -> np.ndarray:
    """Mod-p rank of base - sum_k coefficients[i][k] * directions[k] for
    each row i of coefficients, in `_PRESCREEN_CHUNK` batches.

    base is an (R, C) and directions an (S, R, C) array of residues mod p.
    Each rank bounds the rank over Q of the rational matrix from below.
    """
    import numpy as np
    return np.concatenate([np.zeros(0, dtype=np.int64)] + [
        _modp.batched_rank(_modp.batched_combination(
            base, directions, coefficients[start:start + _PRESCREEN_CHUNK],
            p), p)
        for start in range(0, len(coefficients), _PRESCREEN_CHUNK)])


def _rank_screen(values: Sequence, coeffs: np.ndarray, base: np.ndarray,
                 directions: np.ndarray, p: int) -> list:
    """The values whose matrix is rank-deficient mod p, in their given order.

    The matrix of values[i] is base - sum_k coeffs[i][k] * directions[k]
    (residue arrays, see `_ranks`).  A value is rejected only when its
    matrix has full column rank mod p, which proves its rational kernel
    trivial.  Tall matrices are first ranked compressed to G*M
    (`_modp.compressor`): full rank there proves full rank of M, and only
    the other values are ranked on M itself.
    """
    import numpy as np
    if not values:
        return []
    full_rank = base.shape[1]
    kept = np.arange(len(values))
    G = _modp.compressor(*base.shape, p)
    if G is not None:
        kept = np.flatnonzero(_ranks(_modp.matmul(G, base, p),
                                     _modp.matmul(G, directions, p),
                                     coeffs, p) < full_rank)
        coeffs = coeffs[kept]
    kept = kept[_ranks(base, directions, coeffs, p) < full_rank]
    return [values[i] for i in kept.tolist()]


def _full_operator(X: VectorField, d: int, candidates: Sequence[Poly],
                   p: int) -> np.ndarray:
    """Mod-p ranks of the matrices X(m) - K*m over the monomials m of degree
    <= d, one per candidate K."""
    n = len(X.variables)
    support = sorted({m for K in candidates for m in K.terms}, key=grlex_key)
    directions = _modp.shift_matrices(
        monomials_upto(n, d), support,
        monomials_upto(n, d + max(X.degree - 1, 0)))
    coefficients = _modp.fraction_rows_to_modp(
        [[K.coefficient(m) for m in support] for K in candidates], p)
    return _ranks(_image_residues(X, d, p), directions, coefficients, p)


# ---- graded sieve ------------------------------------------------------------

class _LatticeBoxes:
    """Candidates as {base + per-monomial box offsets}.

    Single-term generators become independent per-monomial offset ranges;
    every combination of the remaining generators is expanded into a "base".
    All coefficient bookkeeping is integer-scaled per monomial.  A set of
    bases is one int bitmask, bit t standing for base t.  Whether a base can
    reach a value does not depend on the other bases, so each degree has one
    table of every reachable part, built on first use, and sieve sections
    filter it by their compatible bases.
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
        self._tables: dict[int, dict[tuple[int, ...], int]] = {}
        self._residues: dict[tuple[int, int], tuple[dict, np.ndarray]] = {}

    def monos_of_degree(self, degree: int) -> list[tuple]:
        return [m for m in self.support if sum(m) == degree]

    def _table(self, degree: int) -> dict[tuple[int, ...], int]:
        """`_reachable(degree)` in sorted key order, built once."""
        if degree not in self._tables:
            reachable = self._reachable(degree)
            self._tables[degree] = {key: reachable[key]
                                    for key in sorted(reachable)}
        return self._tables[degree]

    def _reachable(self, degree: int) -> dict[tuple[int, ...], int]:
        """Every degree-`degree` part of a candidate -> bitmask of all the
        bases that can realize it."""
        monos = self.monos_of_degree(degree)
        out: dict[tuple[int, ...], int] = {}
        for t, base in enumerate(self.bases):
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

    def legal_bases(self, max_degree: int) -> int:
        """Bases whose parts of degree > max_degree can be cancelled to zero."""
        mask = (1 << len(self.bases)) - 1
        for degree in {sum(m) for m in self.support if sum(m) > max_degree}:
            zero = (0,) * len(self.monos_of_degree(degree))
            mask &= self._table(degree).get(zero, 0)
        return mask

    def sections(self, compat: int, degree: int) -> dict[tuple[int, ...], int]:
        """Distinct degree-`degree` parts reachable from the compatible bases.

        Maps the integer-scaled coefficient tuple (over monos_of_degree) to
        the bitmask of the bases that can realize it, in sorted key order.
        """
        return {key: mask & compat for key, mask in self._table(degree).items()
                if mask & compat}

    def section_poly(self, variables: Sequence[str], degree: int,
                     value: tuple[int, ...]) -> Poly:
        monos = self.monos_of_degree(degree)
        return Poly(variables, {m: Fraction(v, self.scale[m])
                                for m, v in zip(monos, value)})

    def section_residues(self, degree: int, p: int
                         ) -> tuple[dict[tuple[int, ...], int], np.ndarray]:
        """(row of each reachable degree-`degree` part, the residues mod p
        of all of them, one row each in sorted key order), converted once
        per lattice and prime; p divides no scale."""
        if (degree, p) not in self._residues:
            keys = list(self._table(degree))
            self._residues[degree, p] = (
                {key: i for i, key in enumerate(keys)},
                _modp.scaled_rows_to_modp(keys, [
                    self.scale[m] for m in self.monos_of_degree(degree)], p))
        return self._residues[degree, p]


def _residues(rows: Sequence[Sequence[Fraction]], p: int
              ) -> np.ndarray | None:
    """The residues of an exact kernel basis, None when p divides one of
    its denominators (a kernel's entries need not share the input's)."""
    try:
        return _modp.fraction_rows_to_modp(rows, p)
    except _modp.ModPUnavailableError:
        return None


@dataclass(frozen=True)
class _Block:
    """Where the equations of sieve level r for f-degree n live.

    The unknowns are f_n (the `top` columns, the first `split` of `cols`)
    and the free blocks f_{n-1} .. f_{n-r} (the rest); `rows` are the
    graded parts of X(f) - K*f of degrees n+M-2 down to n+M-1-r.  `window`
    is X on these columns and rows, cut from the image table; `cofactor`
    gathers the coefficient of K in K*m (row, column) from K's residue
    vector; `shift` gathers u*f_n on `rows` for each unit u of the level.
    """

    rows: list
    cols: list
    split: int
    window: np.ndarray
    cofactor: np.ndarray
    shift: np.ndarray


class _Node(NamedTuple):
    """A sieve node: K fixed down to the current layer, K's residue vector
    over the lattice support (then a zero pad), the bases still compatible,
    and the branches (n, W) alive, W the residues of a basis of the
    admissible f_n, one column per vector (None when p divides a
    denominator of the exact basis)."""

    K: Poly
    residues: np.ndarray
    compat: int
    branches: list[tuple[int, np.ndarray | None]]


class _GradedSieve:
    """Layer-by-layer elimination of cofactor candidates for one field.

    For f with top homogeneous part f_n, the graded components of
    X(f) - K*f = 0 couple the degree-l part of K only to blocks f_n .. f_{n-r}
    with l = deg(X)-1-r.  Fixing K from the top down, each level's equations
    are linear with only the new layer's coefficients varying, so whole
    sections of the lattice are rejected by one small rank test each.

    One traversal serves every f-degree n = 1..d: a node carries the
    branches (n, W) still alive there, so its sections are computed once
    however many degrees reach it.  The traversal runs level by level: every
    block of one level with the same f-degree n and the same |W| has the
    same shape, so their eliminations are one batched call
    (`_modp.batched_kernels`), and each degree's section residues are read
    from one table per lattice.

    Every level works on residues mod p.  A node carries K exactly and as
    its residue vector over the lattice support, and gathers the matrices
    of X - K from one residue table of X(m) per (field, degree).  The top
    level keeps a value when (X - tau) has a nonzero kernel on f_n mod p; W
    is a basis of that kernel.  A lower level writes its equations as
    A*g + F(theta)*c = 0, with g the free blocks, A = (X - K) on them and
    f_n = W*c, and rejects theta when P*F(theta) has full column rank mod p,
    for a left-kernel basis P of A mod p.  This is sound once
    rank_Q(A) = rank_p(A):

    - Scale a rational solution f with f_n != 0 so that f_n is a primitive
      integer vector.  Its reduction is nonzero and solves the top level
      mod p, so it is W*c for some c != 0.  A minor of A of size rank_Q(A)
      that is a p-unit (one exists as rank_p(A) = rank_Q(A)) gives the free
      blocks a p-integral solution g by Cramer's rule; reducing
      A*g + F(theta)*f_n = 0 mod p and multiplying by P gives
      P*F(theta)*W*c = 0, so P*F(theta) (on W) is rank-deficient mod p.
    - The equality is free when A has full column rank mod p.  Otherwise
      A's kernel basis mod p is lifted by rational reconstruction and each
      lift is checked exactly ((X - K)(g) vanishes on the block's rows):
      the lifts are independent, so rank_Q(A) <= rank_p(A) <= rank_Q(A).

    p divides no denominator of X or of a lattice scale
    (`_modp.screening_prime`), so every matrix ranked reduces a p-integral
    rational one and the argument above applies to it.  W is certified the
    same way, so it is the reduction of the rational kernel.  Where a lift
    fails (p divides a numerator, or a minor by chance), the sieve falls
    back to exact elimination for that matrix alone: the exact kernel of
    the top level, the residues of the exact cokernel of A.  A level keeps
    every value when p divides a denominator of that exact basis.
    Otherwise the sieve runs no exact elimination.
    """

    def __init__(self, X: VectorField, d: int, lattice: CofactorLattice):
        self.X = X
        self.d = d
        self.M = X.degree
        self.nv = len(X.variables)
        self.boxes = _LatticeBoxes(lattice)
        self.p = _modp.screening_prime(
            [c.denominator for f in X.components for c in f.terms.values()]
            + list(self.boxes.scale.values()))
        support = self.boxes.support
        self._positions = {m: i for i, m in enumerate(support)}
        self._width = len(support) + 1   # K's residues, then a zero pad
        self._rows_at = {m: i for i, m in enumerate(
            monomials_upto(self.nv, d + max(self.M - 1, 0)))}
        self._cols_at = {m: i for i, m in enumerate(
            monomials_upto(self.nv, d))}
        self._blocks: dict[tuple[int, int], _Block] = {}
        self._layer_tables: dict[int, np.ndarray] = {}

    def run(self) -> list[Poly]:
        compat = self.boxes.legal_bases(max(self.M - 1, 0))
        nodes = self._top_level(compat) if compat else []
        for r in range(1, self.M):
            nodes = self._level(nodes, r)
        return sorted((node.K for node in nodes), key=Poly.sort_key)

    def _sections(self, compat: int, degree: int):
        """(values, their base masks, their rows in the degree's residue
        tables, their coefficient residues) of the compatible
        degree-`degree` sections, in sorted order."""
        sections = self.boxes.sections(compat, degree)
        positions, residues = self.boxes.section_residues(degree, self.p)
        rows = [positions[value] for value in sections]
        return list(sections), list(sections.values()), rows, residues[rows]

    def _layers(self, degree: int) -> np.ndarray:
        """Every row of the degree's section residues as a layer of K's
        residue vector, built once."""
        if degree not in self._layer_tables:
            _, residues = self.boxes.section_residues(degree, self.p)
            self._layer_tables[degree] = _modp.embed(
                residues, [self._positions[m]
                           for m in self.boxes.monos_of_degree(degree)],
                self._width)
        return self._layer_tables[degree]

    def _window(self, rows: Sequence[tuple], cols: Sequence[tuple]
                ) -> np.ndarray:
        """The residues of X(m) for m in cols, on rows."""
        return _image_residues(self.X, self.d, self.p)[
            [self._rows_at[m] for m in rows]][
            :, [self._cols_at[m] for m in cols]]

    def _top_level(self, compat: int) -> list[_Node]:
        """Fix the top layer of K, screening it once per f-degree n."""
        top_deg = self.M - 1
        values, masks, table_rows, coeffs = self._sections(compat, top_deg)
        if not values:
            return []
        variables = self.X.variables
        taus = [self.boxes.section_poly(variables, top_deg, val)
                for val in values]
        units = self.boxes.monos_of_degree(top_deg)
        alive: dict[int, list] = {}   # value index -> branches (n, W) alive
        for n in range(1, self.d + 1):
            cols = monomials_of_degree(self.nv, n)
            rows = monomials_of_degree(self.nv, n + top_deg)
            base = self._window(rows, cols)
            directions = _modp.shift_matrices(cols, units, rows)
            screened = _rank_screen(range(len(values)), coeffs, base,
                                    directions, self.p)
            if not screened:
                continue
            mats = _modp.batched_combination(base, directions,
                                             coeffs[screened], self.p)
            kernels = _modp.batched_kernels(mats, mats[:, :, :0], self.p)
            for (W, _), i in zip(kernels, screened):
                if self._lifts_exactly(taus[i], cols, rows, W):
                    alive.setdefault(i, []).append((n, W.T))
                    continue
                kernel = RatMatrix(
                    self._exact_operator(taus[i], cols, rows)).nullspace()
                if kernel:
                    W = _residues(kernel, self.p)
                    alive.setdefault(i, []).append(
                        (n, None if W is None else W.T))
        layers = self._layers(top_deg)
        return [_Node(taus[i], layers[table_rows[i]], masks[i], alive[i])
                for i in sorted(alive)]

    def _exact_operator(self, K: Poly, cols: list, rows: list) -> list:
        """The rational matrix of f -> X(f) - K*f from cols to rows."""
        variables = self.X.variables
        images = _monomial_images(self.X, self.d)
        return coefficient_matrix(
            [_operator_image(images[m], K, Poly.from_monomial(variables, m))
             for m in cols], rows)

    def _exact_cokernel(self, K: Poly, cols: list, rows: list
                        ) -> np.ndarray | None:
        """The residues of the exact left kernel of (X - K) from cols to
        rows, one row per vector; None when it is trivial or p divides one
        of its denominators."""
        A = self._exact_operator(K, cols, rows)
        P = RatMatrix([list(col) for col in zip(*A)]).nullspace()
        return _residues(P, self.p) if P else None

    def _block(self, n: int, r: int) -> _Block:
        key = (n, r)
        if key not in self._blocks:
            M = self.M
            rows = [m for i in range(1, r + 1)
                    for m in monomials_of_degree(self.nv, n + M - 1 - i)]
            top = monomials_of_degree(self.nv, n)
            cols = top + [m for s in range(1, min(r, n) + 1)
                          for m in monomials_of_degree(self.nv, n - s)]
            self._blocks[key] = _Block(
                rows, cols, len(top), self._window(rows, cols),
                _modp.shift_index(self.boxes.support, cols, rows).T,
                _modp.shift_index(top, self.boxes.monos_of_degree(M - 1 - r),
                                  rows))
        return self._blocks[key]

    def _lifts_exactly(self, K: Poly, cols: list, rows: list,
                       kernel: np.ndarray) -> bool:
        """Whether every vector of a kernel basis mod p of (X - K) from cols
        to rows lifts, by rational reconstruction, to a rational g with
        (X - K)(g) zero on rows: then the rational kernel is as large."""
        images = _monomial_images(self.X, self.d)
        variables = self.X.variables
        for vec in kernel:
            coeffs = [_modp.rational_reconstruction(int(x), self.p)
                      for x in vec]
            if None in coeffs:
                return False
            g = Poly(variables, dict(zip(cols, coeffs)))
            Xg = Poly.zero(variables)
            for m, c in g.terms.items():
                Xg = Xg + images[m] * c
            image = _operator_image(Xg, K, g)
            if any(image.coefficient(m) for m in rows):
                return False
        return True

    def _projected(self, nodes: Sequence[_Node], n: int, r: int,
                   W: np.ndarray) -> list:
        """P*F and the stack P*(u*W) of level r for f-degree n, one pair
        per node, all of whose branch n has a basis W of the same width
        (the stack of them); None where the level constrains nothing.

        P is the cokernel of A mod p when rank_Q(A) = rank_p(A) is proved,
        and otherwise (a lift fails) the residues of A's exact cokernel.
        The blocks A share one shape, so they are eliminated together.
        """
        import numpy as np
        p = self.p
        block = self._block(n, r)
        split, k = block.split, W.shape[2]
        cofactor = np.stack([node.residues for node in nodes])[
            :, block.cofactor]
        operator = (block.window - cofactor) % p
        fixed = _modp.matmul(operator[:, :, :split], W, p)
        # u*W on the block's rows, (N, R, S, k) for the S units u
        shifted = _modp.gather(W.transpose(1, 0, 2), block.shift
                               ).transpose(2, 1, 0, 3)
        S = shifted.shape[2]
        carried = np.concatenate([fixed, shifted.reshape(
            len(nodes), len(block.rows), S * k)], axis=2)
        eliminated = _modp.batched_kernels(operator[:, :, split:], carried, p)
        lower = block.cols[split:]
        out = []
        for i, (node, (kernel, projected)) in enumerate(zip(nodes,
                                                            eliminated)):
            if not len(kernel) or self._lifts_exactly(
                    node.K, lower, block.rows, kernel):
                # with P empty every equation is absorbed by the free blocks
                out.append((projected[:, :k], projected[:, k:].reshape(
                    len(projected), S, k).transpose(1, 0, 2))
                    if len(projected) else None)
                continue
            P = self._exact_cokernel(node.K, lower, block.rows)
            out.append(None if P is None else (
                _modp.matmul(P, fixed[i], p),
                _modp.matmul(P, shifted[i].transpose(1, 0, 2), p)))
        return out

    def _level(self, nodes: Sequence[_Node], r: int) -> list[_Node]:
        """Fix the degree-(M-1-r) layer of K at every node of level r, the
        layers above summing to each node's K."""
        import numpy as np
        if not nodes:
            return []
        ell = self.M - 1 - r
        # the branches (n, W) to project, grouped by (n, |W|); sections are
        # filtered one node at a time below, so that a level never holds
        # all of its sections (a node with compatible bases has some)
        groups: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for i, node in enumerate(nodes):
            for b, (n, W) in enumerate(node.branches):
                if W is not None:
                    groups.setdefault((n, W.shape[1]), []).append((i, b))
        projections = {}
        for (n, _), members in groups.items():
            projections.update(zip(members, self._projected(
                [nodes[i] for i, _ in members], n, r, np.stack(
                    [nodes[i].branches[b][1] for i, b in members]))))

        variables = self.X.variables
        layers = self._layers(ell)
        children = []
        for i, node in enumerate(nodes):
            values, masks, table_rows, coeffs = self._sections(node.compat,
                                                               ell)
            everything = range(len(values))
            alive: dict[int, list] = {}   # value index -> branches alive
            for b, (n, W) in enumerate(node.branches):
                projected = projections.get((i, b))
                kept = (everything if projected is None else
                        _rank_screen(everything, coeffs, *projected, self.p))
                for j in kept:
                    alive.setdefault(j, []).append((n, W))
            for j in sorted(alive):
                theta = self.boxes.section_poly(variables, ell, values[j])
                children.append(_Node(node.K + theta,
                                      node.residues + layers[table_rows[j]],
                                      masks[j], alive[j]))
        return children


def _candidate_cofactors(X: VectorField, d: int, lattice: CofactorLattice
                         ) -> dict[Poly, int]:
    """Screened cofactor candidates, complete relative to the lattice, each
    mapped to the kernel dimension mod p of its full operator matrix, which
    bounds the rational one from above.

    The zero cofactor comes first, then the coordinate cofactors, then the
    remaining sieve survivors that also pass the full-operator screen.
    """
    priority = [Poly.zero(X.variables)]
    for v in X.variables:
        if X.is_kolmogorov(v):
            priority.append(X.coordinate_cofactor(v))
    priority = list(dict.fromkeys(priority))
    sieve = _GradedSieve(X, d, lattice)
    values = priority + [K for K in sieve.run() if K not in priority]
    ranks = _full_operator(X, d, values, sieve.p)
    dims = (len(monomials_upto(len(X.variables), d)) - ranks).tolist()
    return {K: dim for K, dim in zip(values, dims) if K in priority or dim}


def _monomial_solutions(X: VectorField, d: int) -> dict[Poly, list[tuple]]:
    """{K: the monomials x^e with X(x^e) = K*x^e}, in column order.

    Only Kolmogorov variables (X_v = x_v*K_v) enter e, |e| <= d, and the
    cofactor of x^e is sum_v e_v*K_v.
    """
    cofactors = [X.coordinate_cofactor(v) if X.is_kolmogorov(v) else None
                 for v in X.variables]
    out: dict[Poly, list[tuple]] = {}
    for mono in monomials_upto(len(X.variables), d):
        if any(e and K_v is None for e, K_v in zip(mono, cofactors)):
            continue
        K = Poly.zero(X.variables)
        for e, K_v in zip(mono, cofactors):
            if e:
                K = K + K_v * e
        out.setdefault(K, []).append(mono)
    return out


CofactorKernels = list[tuple[Poly, list[Poly]]]


def cofactor_kernels(X: VectorField, d: int,
                     lattice: CofactorLattice) -> CofactorKernels:
    """[(K, exact basis of {f : deg f <= d, X(f) = K*f})] per screened cofactor.

    This is the one exact pass of a command: the Darboux certificates and the
    rational obstruction are both derived from its result.  Where the known
    monomial solutions of K are as many as the kernel dimension mod p allows,
    they are the basis: they lie in the rational kernel, whose dimension is at
    most the one mod p.  Every other cofactor is solved exactly.
    """
    if d < 0:
        raise ValueError(f"degree must be non-negative, got {d}")
    known = _monomial_solutions(X, d)
    out = []
    for K, kernel_dim in _candidate_cofactors(X, d, lattice).items():
        monos = known.get(K, [])
        if kernel_dim == len(monos):
            out.append((K, _monomial_basis(X, monos)))
        else:
            out.append((K, search_darboux_fixed_cofactor(X, K, d)))
    return out


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
            raise InternalCheckError(f"certificate check failed for {f}")
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

def search_exp_factors(X: VectorField, deg_g: int,
                       s_bound: int = 0) -> list[ExpFactorCert]:
    """Complete joint linear search over g (deg <= deg_g) and L (deg <= deg X - 1).

    For each denominator exponent vector s the defining identity is linear in
    (g, L); the kernel is computed exactly and row-reduced so the reported
    certificates are the canonical sparse representatives.  Two kinds of
    kernel directions are not reported: the trivial exp(constant), and pairs
    with L = 0, which are exponentials of first integrals and belong to the
    first-integral reports instead.

    Raises ValueError when the denominator vectors times the cells of the
    largest matrix exceed `_EXP_FACTOR_CELLS_LIMIT`, before anything is
    built.
    """
    if deg_g < 0 or s_bound < 0:
        raise ValueError("the numerator degree and the denominator exponent "
                         "bound must be non-negative")
    nv = len(X.variables)
    variables = X.variables
    max_L = max(X.degree - 1, 0)
    cells = ((s_bound + 1) ** nv
             * math.comb(nv + max(deg_g + max_L, max_L + nv * s_bound), nv)
             * (math.comb(nv + deg_g, nv) + math.comb(nv + max_L, nv)))
    if cells > _EXP_FACTOR_CELLS_LIMIT:
        raise ValueError(
            f"{cells} denominator vectors times matrix cells exceed the "
            f"exponential-factor search limit ({_EXP_FACTOR_CELLS_LIMIT}); "
            f"lower --g-degree or --s-bound")
    g_monos = monomials_upto(nv, deg_g)
    L_monos = monomials_upto(nv, max_L)
    g_basis = _monomial_basis(X, g_monos)
    g_images = [lie_derivative(X, g) for g in g_basis]
    L_basis = _monomial_basis(X, L_monos)
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
        rows = monomials_upto(nv, max(deg_g + max_L, max_L + sum(s)))
        images = [_operator_image(Xg, balance, g)
                  for g, Xg in zip(g_basis, g_images)]
        images += [-(L * denom) for L in L_basis]
        kernel = RatMatrix(coefficient_matrix(images, rows)).nullspace()
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
                raise InternalCheckError(
                    f"exponential-factor check failed for {cert.record()}")
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
    """One Darboux function per kernel vector of the stacked cofactor matrix;
    raises InternalCheckError when a vector's cofactor balance is nonzero."""
    cofactors = [c.K for c in certs] + [c.L for c in efacts]
    if not cofactors:
        return []
    variables = cofactors[0].variables
    support = sorted({m for cof in cofactors for m in cof.terms},
                     key=grlex_key)
    if not support:
        support = [(0,) * len(variables)]
    kernel = RatMatrix(coefficient_matrix(cofactors, support)).nullspace()
    out = []
    for vec in kernel:
        vec = normalize_kernel_vector(vec)
        d_terms = tuple((c, lam) for c, lam in zip(certs, vec[:len(certs)])
                        if lam != 0)
        e_terms = tuple((c, mu) for c, mu in zip(efacts, vec[len(certs):])
                        if mu != 0)
        if not d_terms and not e_terms:
            continue
        try:
            out.append(DarbouxFunction(d_terms, e_terms))
        except ValueError as exc:
            raise InternalCheckError(str(exc)) from exc
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
