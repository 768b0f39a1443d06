"""Darboux polynomials, exponential factors, and Darboux first integrals.

A Darboux polynomial of the field X is a polynomial f with X(f) = K*f for a
polynomial cofactor K of degree at most deg(X) - 1; an exponential factor is
E = exp(g / prod x_i^{s_i}) with X(E) = L*E.  Every certificate stores the
exact cofactor and can re-verify itself by independent exact arithmetic.
Nothing here computes in floats: `numerics` evaluates a DarbouxFunction.

Search strategy: the equation X(f) = K*f is bilinear in (f, K), so the search
enumerates K over a finite integer lattice of generator combinations and
solves the remaining linear problem exactly.  Results are complete relative
to the lattice.  Every lattice goes through a graded sieve that fixes K one
homogeneous layer at a time (top degree first), in one traversal for every
f-degree run level by level, and discards whole families whose layer
equations already have no nonzero solution; the survivors then pass one
kernel screen on the full operator.  Each sieve level builds one exact
table of every reachable layer value of its degree, reduces it mod p, screens
it whole at every node and keeps a value at a node only where the node's
bases reach it.

The sieve owns its search's state: it picks a prime p, reduces each level's
table mod p, and holds X(m) mod p for every monomial m of degree <= d
(the field holds it exactly: `VectorField.monomial_image`); every block of
the sieve and the full operator is cut from that residue table, and
multiplication by a monomial is a gather, not a product.  p is the largest
prime below 2^31 that divides no numerator and no denominator of X's
coefficients or of the lattice generators (`_modp.screening_prime`): every
coefficient of X(m), of a candidate K and of a section value has a
denominator dividing a product of those, so every residue a screen needs
exists, and no coefficient of X vanishes mod p.
Every screen rejects only on full rank mod p, which proves a trivial
rational kernel.  Every sieve level runs one routine: it projects its
equations onto the cokernel P mod p of the block A of the free unknowns,
which is sound once rank_Q(A) = rank_p(A) is proved (see `_GradedSieve`):
at no cost when A has full column rank mod p, as at level 0, where A has
no columns; otherwise by A's exact kernel (`_GradedSieve._kernel`) being
as large as its kernel mod p.  Where the ranks differ, that node's level
keeps every value.
The sieve levels only reject, through `_rank_screen`, which first
compresses their tall matrices M to the square G*M, for a fixed G with as
many rows as M has columns: rank(G*M) <= rank(M), so a nonsingular G*M
proves the rejection.  A pivot-free elimination proves it for nearly every
value, and only the few values it leaves open are ranked on M.
The kernel of each candidate K is computed once per command, and the
certificates and the rational obstruction are both read off those kernels.
Each survivor's full operator is compressed by the same G and eliminated
mod p; an empty kernel proves the rational one trivial.  The sieve reads
every exact kernel through `_kernel`: it lifts a kernel basis mod p by
rational reconstruction and checks each lift exactly, and where one fails
it solves K exactly over the rationals.

Every exact matrix here is `coefficient_matrix` of a basis, or of its images
under X(f) - K*f, on a window of monomials; no other code scatters
polynomial terms into a matrix; `_operator_image` is the one exact
evaluation of (X - K)(f) (only the certificates' re-checks differentiate
on their own).  `operator_kernel` is the one exact kernel of X - K: the
fixed-cofactor solve, `_kernel` after a failed lift, the exponential
factors (for g alone, L being read off (X - K)(g)) and the formal series
(K = 0) all read it.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

from . import _modp
from .exactcore import (Poly, RatMatrix, coefficient_matrix, divides,
                        grlex_key, monomials_of_degree, monomials_upto,
                        normalize_kernel_vector)
from .field import NotInvariantError, VectorField, lie_derivative

if TYPE_CHECKING:
    import numpy as np

_MATERIALIZE_LIMIT = 5_000_000
_SIEVE_BASES_LIMIT = 200_000
# mask bits (entries x offsets x bases) a reachable table may reach while
# one coordinate is shifted: the reference search at degree 8 needs 1.52e9,
# the 5-D cyclic Lotka-Volterra field at degree 2 1.05e9 and at degree 4
# 6.22e9 (out of memory in 500,000 KiB)
_TABLE_BITS_LIMIT = 2_000_000_000
_SCREEN_CELLS = 1 << 21
_EXP_FACTOR_CELLS_LIMIT = 20_000_000
# residues of the sieve's image table and full-operator stack: 3,403,400 for
# the degree-12 reference search, 19,311,600 (232 MB RSS) at degree 17
_SIEVE_CELLS_LIMIT = 20_000_000


class InternalCheckError(RuntimeError):
    """A certificate failed its independent re-verification."""


class LatticeTooLargeError(ValueError):
    """The requested lattice is too large: it cannot be materialized element
    by element, or the sieve would expand too many combinations of its
    non-monomial generators or build too large a table of reachable parts."""


class DarbouxCert(NamedTuple):
    """Pair (f, K) with X(f) = K*f exactly."""

    f: Poly
    K: Poly

    def check(self, X: VectorField) -> bool:
        return (lie_derivative(X, self.f) - self.K * self.f).is_zero()

    def record(self) -> dict:
        return {"poly": str(self.f), "cofactor": str(self.K)}


class ExpFactorCert(NamedTuple):
    """Certificate for exp(g / prod x_i^{s_i}) with cofactor L.

    The defining identity is X(g) - g * sum_i s_i K_i = L * prod x_i^{s_i},
    where K_i is the cofactor of the coordinate Darboux polynomial x_i.
    """

    g: Poly
    s: tuple[int, ...]
    L: Poly

    def check(self, X: VectorField) -> bool:
        balance = X.monomial_cofactor(self.s)
        if balance is None:
            raise NotInvariantError(
                f"denominator exponents {list(self.s)} meet a plane that is "
                f"not invariant")
        lhs = lie_derivative(X, self.g) - self.g * balance
        return (lhs - self.L * Poly.from_monomial(X.variables, self.s)
                ).is_zero()

    def record(self) -> dict:
        return {"g": str(self.g), "s": list(self.s), "L": str(self.L)}


# --------------------------------------------------------------------------
# cofactor lattices
# --------------------------------------------------------------------------

class CofactorLattice:
    """Finite candidate set {sum_i n_i * generator_i : |n_i| <= bound};
    immutable."""

    __slots__ = ("generators", "bound")

    def __init__(self, generators: tuple[Poly, ...], bound: int):
        if bound < 0:
            raise ValueError("bound must be non-negative")
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "bound", bound)

    def __setattr__(self, *_):
        raise AttributeError("CofactorLattice is immutable")

    __delattr__ = __setattr__


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

    cofs = [cof for cof in X.coordinate_cofactors if cof is not None]
    for cof in cofs:
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

def _operator_image(X: VectorField, K: Poly, f: Poly) -> Poly:
    """X(f) - K*f, summed in one term dict from the field's cached images
    X(m) of f's monomials."""
    terms: dict[tuple, Fraction] = {}
    for fm, fc in f.terms.items():
        for m, c in X.monomial_image(fm).terms.items():
            c = c if fc == 1 else c * fc
            terms[m] = terms[m] + c if m in terms else c
        for km, kc in K.terms.items():
            m = tuple(a + b for a, b in zip(km, fm))
            c = kc if fc == 1 else kc * fc
            terms[m] = terms[m] - c if m in terms else -c
    return Poly(X.variables, terms)


def _monomial_basis(X: VectorField, monos: Sequence[tuple]) -> list[Poly]:
    return [Poly.from_monomial(X.variables, m) for m in monos]


def _operator_matrix(X: VectorField, K: Poly, cols: Sequence[tuple],
                     rows: Sequence[tuple]) -> list:
    """The rational matrix of f -> X(f) - K*f from cols to rows: the one
    exact builder of X - K."""
    return coefficient_matrix(
        [_operator_image(X, K, b) for b in _monomial_basis(X, cols)], rows)


def operator_kernel(X: VectorField, K: Poly, cols: Sequence[tuple],
                    rows: Sequence[tuple]) -> list[Poly]:
    """Exact basis of {f on cols : X(f) - K*f vanishes on rows}: the one
    exact kernel of X - K, monic, one polynomial per free column in
    ascending order (every column, with no rows)."""
    if not rows:
        return _monomial_basis(X, cols)
    return [Poly(X.variables, dict(zip(cols, vec))).monic() for vec in
            RatMatrix(_operator_matrix(X, K, cols, rows)).nullspace()]


def search_darboux_fixed_cofactor(X: VectorField, K: Poly, d: int) -> list[Poly]:
    """Exact basis of {f : deg f <= d, X(f) = K*f}, monic, deterministic order."""
    if K.total_degree() > max(X.degree - 1, 0):
        raise ValueError("cofactor degree exceeds deg(X) - 1")
    n = len(X.variables)
    return operator_kernel(X, K, monomials_upto(n, d),
                           monomials_upto(n, d + max(X.degree - 1, 0)))


# --------------------------------------------------------------------------
# lattice screens
# --------------------------------------------------------------------------

def _by_stack(kernel: Callable[[np.ndarray, int], np.ndarray],
              base: np.ndarray, directions: np.ndarray,
              coefficients: np.ndarray, p: int) -> list[np.ndarray]:
    """kernel(stack, p) for the matrices base - sum_k coefficients[i][k] *
    directions[k], one per row i of coefficients, combined in stacks of
    at most `_SCREEN_CELLS` cells (one matrix where a single one is
    larger), so that one stack at a time is held.

    base is an (R, C) and directions an (S, R, C) array of residues mod p.
    """
    chunk = max(1, _SCREEN_CELLS // base.size)
    return [kernel(_modp.batched_combination(
        base, directions, coefficients[start:start + chunk], p), p)
        for start in range(0, len(coefficients), chunk)]


def _ranks(base: np.ndarray, directions: np.ndarray,
           coefficients: np.ndarray, p: int) -> np.ndarray:
    """Mod-p rank of base - sum_k coefficients[i][k] * directions[k] for
    each row i of coefficients (see `_by_stack`).

    Each rank bounds the rank over Q of the rational matrix from below.
    """
    import numpy as np
    return np.concatenate([np.zeros(0, dtype=np.int64)] + _by_stack(
        _modp.batched_rank, base, directions, coefficients, p))


def _rank_screen(coeffs: np.ndarray, base: np.ndarray,
                 directions: np.ndarray, p: int) -> list[int]:
    """The indices i, ascending, whose matrix is rank-deficient mod p.

    The matrix of index i is base - sum_k coeffs[i][k] * directions[k]
    (residue arrays, see `_by_stack`).  An index is rejected only when its
    matrix has full column rank mod p, which proves its rational kernel
    trivial.  A tall matrix M is first compressed to the square G*M
    (`_modp.compressor`), and `_modp.proves_full_rank` rejects the values
    whose G*M it proves nonsingular; only the other indices are ranked on
    M itself.
    """
    import numpy as np
    if not len(coeffs):
        return []
    full_rank = base.shape[1]
    kept = np.arange(len(coeffs))
    G = _modp.compressor(*base.shape, p)
    if G is not None:
        kept = np.flatnonzero(~np.concatenate(_by_stack(
            _modp.proves_full_rank, _modp.matmul(G, base, p),
            _modp.matmul(G, directions, p), coeffs, p)))
        coeffs = coeffs[kept]
    return kept[_ranks(base, directions, coeffs, p) < full_rank].tolist()


# ---- graded sieve ------------------------------------------------------------

class _LatticeBoxes:
    """Candidates as {base + per-monomial box offsets}.

    Single-term generators become independent per-monomial offset ranges;
    every combination of the remaining generators is expanded into a "base".
    All coefficient bookkeeping is integer-scaled per monomial.  A set of
    bases is one int bitmask, bit t standing for base t.  Whether a base can
    reach a value does not depend on the other bases, so each degree has one
    exact table of every reachable part, which the sieve reduces mod p and
    every sieve node of that degree screens whole.  It holds no prime; the
    sieve's prime divides no scale, as it divides no generator denominator.
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

        # scaled to integers once: no combination computes with a Fraction
        scaled = [[(m, int(c * self.scale[m])) for m, c in g.terms.items()]
                  for g in general]
        self.bases: list[dict[tuple, int]] = []
        seen = set()
        combos = itertools.product(range(-B, B + 1), repeat=len(general))
        for combo in combos:
            vec: dict[tuple, int] = {}
            for n, terms in zip(combo, scaled):
                if n == 0:
                    continue
                for m, v in terms:
                    vec[m] = vec.get(m, 0) + n * v
            key = tuple(sorted((m, v) for m, v in vec.items() if v))
            if key not in seen:
                seen.add(key)
                self.bases.append({m: v for m, v in vec.items() if v})

    def monos_of_degree(self, degree: int) -> list[tuple]:
        return [m for m in self.support if sum(m) == degree]

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
            if len(out) * len(offsets) * len(self.bases) > _TABLE_BITS_LIMIT:
                raise LatticeTooLargeError(
                    f"the sieve's degree-{degree} table may outgrow "
                    f"{_TABLE_BITS_LIMIT} mask bits; lower --degree or "
                    f"--lattice-bound")
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
            mask &= self._reachable(degree).get(zero, 0)
        return mask

    def sections(self, degree: int
                 ) -> tuple[list[tuple[int, ...]], list[int]]:
        """Every reachable degree-`degree` part in sorted order, as its
        integer-scaled coefficients over monos_of_degree, and the bitmask of
        all the bases that can realize each."""
        reachable = self._reachable(degree)
        values = sorted(reachable)
        return values, [reachable[value] for value in values]

    def section_poly(self, variables: Sequence[str], degree: int,
                     value: tuple[int, ...]) -> Poly:
        monos = self.monos_of_degree(degree)
        return Poly(variables, {m: Fraction(v, self.scale[m])
                                for m, v in zip(monos, value)})


class _Block(NamedTuple):
    """Where the equations of sieve level r for f-degree n live.

    The unknowns are f_n (the `top` columns, the first `split` of `cols`)
    and the free blocks f_{n-1} .. f_{n-r} (the rest); `rows` are the
    graded parts of X(f) - K*f of degrees n+M-2 down to n+M-1-r (n+M-1
    at level 0).  `window` is X on these columns and rows; `cofactor`
    gathers the coefficient of K in K*m (row, column) from K's residues
    over the lattice support followed by a zero; `shift` gathers u*f_n on
    `rows` for each unit u of the level.
    """

    rows: list
    cols: list
    split: int
    window: np.ndarray
    cofactor: np.ndarray
    shift: np.ndarray


class _Node(NamedTuple):
    """A sieve node: K fixed down to the current layer, the bases still
    compatible, and the branches (n, W) alive, W a basis mod p of the
    kernel of the top layer X_M - tau on f_n, one column per vector (I
    at the root, where K = 0)."""

    K: Poly
    compat: int
    branches: list[tuple[int, np.ndarray]]


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
    (`_modp.batched_kernels`), and every branch screens its degree's whole
    table: the level reads the exact table once (`_LatticeBoxes.sections`)
    and reduces it mod p; a child keeps the bases that both its value and
    its parent allow, and a value with none is dropped.

    The sieve owns its search's state: the prime p, each level's table mod
    p, and X(m) mod p for every monomial m of degree <= d
    (`image_residues`, from which every block and the full operator are
    cut; `_kernel` reads X(m) exactly off the field).  Every level works on
    residues mod p.  A node carries K exactly; a block reads K's residues
    off it and gathers the matrices of X - K from `image_residues`.  Every
    level writes its equations as A*g + F(theta)*W*c = 0, with g the free
    blocks, A = (X - K) on them, F = X - K - theta on f_n = W*c, and
    rejects theta when P*F(theta)*W has full column rank mod p, for a
    left-kernel basis P of A mod p.  Level 0 starts from the root, K = 0
    and W = I: its A has no columns, so P = I, and each value it keeps
    narrows W to the kernel of X_M - tau mod p for the levels below.  This
    is sound once rank_Q(A) = rank_p(A):

    - Scale a rational solution f with f_n != 0 so that f_n is a primitive
      integer vector.  Its reduction is nonzero and solves the top layer
      mod p, so it is W*c for some c != 0.  That needs only that W spans
      the kernel of X_M - tau mod p, which holds by construction: the
      kernel mod p exceeds the reduction of the rational one only when p
      divides a minor of X_M - tau, and then the level prunes less, never
      wrongly.  A minor of A of size rank_Q(A) that is a p-unit (one
      exists as rank_p(A) = rank_Q(A)) gives the free blocks a p-integral
      solution g by Cramer's rule; reducing
      A*g + F(theta)*f_n = 0 mod p and multiplying by P gives
      P*F(theta)*W*c = 0, so P*F(theta) (on W) is rank-deficient mod p.
    - The equality is free when A has full column rank mod p.  Otherwise
      `_kernel` lifts A's kernel basis mod p and checks each lift exactly:
      the lifts are independent, so rank_Q(A) <= rank_p(A) <= rank_Q(A).
      Where a lift fails (an entry beyond the reconstruction bound, or p
      dividing a minor), it returns A's exact kernel, whose size decides;
      where rank_p(A) is below rank_Q(A), the node's level keeps every
      value, which is sound.

    p divides no numerator or denominator of X or of a lattice generator
    (`_modp.screening_prime`), so every matrix ranked reduces a p-integral
    rational one and the argument above applies to it, and no term of X
    vanishes mod p (a vanishing term changes the field mod p and makes
    lifts fail throughout).  The only exact eliminations the sieve runs
    are `_kernel`'s after a failed lift.  A degree whose tables would pass
    `_SIEVE_CELLS_LIMIT` residues is refused before they are built.
    """

    def __init__(self, X: VectorField, d: int, lattice: CofactorLattice):
        self.X = X
        self.d = d
        self.M = X.degree
        nv = self.nv = len(X.variables)
        # X(m) on rows by columns, and one such matrix per cofactor monomial
        top = max(self.M - 1, 0)
        cells = (math.comb(nv + d, nv) * math.comb(nv + d + top, nv)
                 * (1 + math.comb(nv + top, nv)))
        if cells > _SIEVE_CELLS_LIMIT:
            raise ValueError(
                f"{cells} residues of the sieve's tables exceed its limit "
                f"({_SIEVE_CELLS_LIMIT}); lower --degree")
        coefficients = [c for f in itertools.chain(X.components,
                                                    lattice.generators)
                        for c in f.terms.values()]
        self.p = _modp.screening_prime(
            [c.numerator for c in coefficients]
            + [c.denominator for c in coefficients])
        self.boxes = _LatticeBoxes(lattice)
        # column j is X(m_j) for the j-th monomial of degree <= d, row i the
        # i-th monomial of degree <= d + M - 1, both graded-lex
        self.cols = monomials_upto(self.nv, d)
        self.rows = monomials_upto(self.nv, d + max(self.M - 1, 0))
        self.image_residues = _modp.fraction_rows_to_modp(coefficient_matrix(
            [X.monomial_image(m) for m in self.cols], self.rows), self.p)
        self._rows_at = {m: i for i, m in enumerate(self.rows)}
        self._cols_at = {m: i for i, m in enumerate(self.cols)}
        self._blocks: dict[tuple[int, int], _Block] = {}

    def run(self) -> list[Poly]:
        import numpy as np
        compat = self.boxes.legal_bases(max(self.M - 1, 0))
        # the root; a field of degree 0 still screens its zero layer
        nodes = [_Node(Poly.zero(self.X.variables), compat, [
            (n, np.eye(len(monomials_of_degree(self.nv, n)), dtype=np.int64))
            for n in range(1, self.d + 1)])] if compat else []
        for r in range(max(self.M, 1)):
            nodes = self._level(nodes, r)
        return sorted((node.K for node in nodes), key=Poly.sort_key)

    def full_operator_kernels(self, candidates: Sequence[Poly]
                              ) -> list[np.ndarray]:
        """A kernel basis mod p of G*(X - K) on the monomials of degree <= d,
        one row per free column (`_modp.batched_kernels`), for each
        candidate K, with G the screens' compressor (none where X - K is
        not tall): rank(G*M) <= rank(M), so an empty kernel proves the
        rational one trivial, and one larger than M's only fails to lift."""
        import numpy as np
        p = self.p
        support = sorted({m for K in candidates for m in K.terms},
                         key=grlex_key)
        base = self.image_residues
        G = _modp.compressor(*base.shape, p)
        if G is None:
            G = np.eye(len(self.rows), dtype=np.int64)
        else:
            base = _modp.matmul(G, base, p)
        # G*(u*m_c) is the column of G at the row u*m_c, or zero
        directions = _modp.gather(G.T, _modp.shift_index(
            self.rows, [tuple(-e for e in u) for u in support], self.cols)
        ).transpose(0, 2, 1)
        coefficients = _modp.fraction_rows_to_modp(
            [[K.coefficient(m) for m in support] for K in candidates], p)
        return [kernel for stack in _by_stack(
            lambda mats, p: _modp.batched_kernels(mats, mats[:, :, :0], p),
            base, directions, coefficients, p) for kernel, _ in stack]

    def _block(self, n: int, r: int) -> _Block:
        key = (n, r)
        if key not in self._blocks:
            M = self.M
            rows = [m for i in range(min(r, 1), r + 1)
                    for m in monomials_of_degree(self.nv, n + M - 1 - i)]
            top = monomials_of_degree(self.nv, n)
            cols = top + [m for s in range(1, min(r, n) + 1)
                          for m in monomials_of_degree(self.nv, n - s)]
            self._blocks[key] = _Block(
                rows, cols, len(top), self.image_residues[
                    [self._rows_at[m] for m in rows]][
                        :, [self._cols_at[m] for m in cols]],
                _modp.shift_index(self.boxes.support, cols, rows).T,
                _modp.shift_index(top, self.boxes.monos_of_degree(M - 1 - r),
                                  rows))
        return self._blocks[key]

    def _kernel(self, K: Poly, cols: list, rows: list, kernel: np.ndarray
                ) -> list[Poly]:
        """The exact basis of {g on cols : (X - K)(g) vanishes on rows},
        monic, from a basis of the kernel mod p there (never smaller): each
        vector lifted by rational reconstruction and checked exactly (the
        lifts are independent), or `operator_kernel` as soon as one fails."""
        window = set(rows)
        lifts = []
        for vec in kernel:
            coeffs = {m: _modp.rational_reconstruction(int(x), self.p)
                      for m, x in zip(cols, vec) if x}
            if None in coeffs.values():
                return operator_kernel(self.X, K, cols, rows)
            g = Poly(self.X.variables, coeffs)
            if not window.isdisjoint(_operator_image(self.X, K, g).terms):
                return operator_kernel(self.X, K, cols, rows)
            lifts.append(g.monic())
        return lifts

    def _projected(self, nodes: Sequence[_Node], n: int, r: int,
                   W: np.ndarray) -> list:
        """P*F and the stack P*(u*W) of level r for f-degree n, one pair
        per node, all of whose branch n has a basis W of the same width
        (the stack of them); None where the level constrains nothing.

        P is the cokernel of A mod p, used only once rank_Q(A) = rank_p(A)
        is proved: A's exact kernel (`_kernel`, which lifts the kernel mod
        p where it can) is as large as its kernel mod p, as it is at no
        cost when A has full column rank mod p.  Where it is smaller, p
        divides a minor of A and the pair is None.  The blocks A share one
        shape, so they are eliminated together.
        """
        import numpy as np
        p = self.p
        block = self._block(n, r)
        split, k = block.split, W.shape[2]
        # K's residues over the lattice support, then the zero that
        # `block.cofactor` gathers for monomials outside it
        cofactor = _modp.fraction_rows_to_modp(
            [[node.K.coefficient(m) for m in self.boxes.support] + [0]
             for node in nodes], p)[:, block.cofactor]
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
        for node, (kernel, projected) in zip(nodes, eliminated):
            # with P empty every equation is absorbed by the free blocks
            proved = len(projected) and len(self._kernel(
                node.K, lower, block.rows, kernel)) == len(kernel)
            out.append((projected[:, :k], projected[:, k:].reshape(
                len(projected), S, k).transpose(1, 0, 2)) if proved else None)
        return out

    def _level(self, nodes: Sequence[_Node], r: int) -> list[_Node]:
        """Fix the degree-(M-1-r) layer of K at every node of level r, the
        layers above summing to each node's K; level 0 also narrows each
        kept branch's W from I to the kernel of X_M - tau."""
        import numpy as np
        if not nodes:
            return []
        ell = self.M - 1 - r
        # the branches (n, W) to project, grouped by (n, |W|)
        groups: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for i, node in enumerate(nodes):
            for b, (n, W) in enumerate(node.branches):
                groups.setdefault((n, W.shape[1]), []).append((i, b))
        projections = {}
        for (n, _), members in groups.items():
            projections.update(zip(members, self._projected(
                [nodes[i] for i, _ in members], n, r, np.stack(
                    [nodes[i].branches[b][1] for i, b in members]))))

        variables = self.X.variables
        # every branch screens the whole table; a value survives where one
        # of the node's bases reaches it, and its child keeps those bases
        values, masks = self.boxes.sections(ell)
        coeffs = _modp.scaled_rows_to_modp(values, [
            self.boxes.scale[m] for m in self.boxes.monos_of_degree(ell)],
            self.p)
        everything = range(len(values))
        children = []
        for i, node in enumerate(nodes):
            alive: dict[int, list] = {}   # value index -> branches alive
            for b, (n, W) in enumerate(node.branches):
                projected = projections.get((i, b))
                kept = [j for j in (everything if projected is None else
                                    _rank_screen(coeffs, *projected, self.p))
                        if masks[j] & node.compat]
                kernels = itertools.repeat(W)
                if not r and kept:   # narrow W = I to ker(X_M - tau)
                    mats = _modp.batched_combination(*projected, coeffs[kept],
                                                     self.p)
                    kernels = [basis.T for basis, _ in _modp.batched_kernels(
                        mats, mats[:, :, :0], self.p)]
                for j, kernel in zip(kept, kernels):
                    alive.setdefault(j, []).append((n, kernel))
            for j in sorted(alive):
                theta = self.boxes.section_poly(variables, ell, values[j])
                children.append(_Node(node.K + theta, masks[j] & node.compat,
                                      alive[j]))
        return children


def _candidate_cofactors(X: VectorField, d: int, lattice: CofactorLattice
                         ) -> dict[Poly, list[Poly]]:
    """Screened cofactor candidates, complete relative to the lattice, each
    mapped to its exact basis of {f : deg f <= d, X(f) = K*f}, monic, one
    polynomial per free column as `search_darboux_fixed_cofactor` returns it.

    The zero cofactor comes first, then the coordinate cofactors, then the
    remaining sieve survivors whose full operator has a kernel mod p
    (`_GradedSieve.full_operator_kernels`).  That kernel basis is 1 on its
    free column j, 0 on the other free columns and nonzero only on pivot
    columns before j.  Where every vector lifts to a checked rational one
    (`_GradedSieve._kernel`), each free column mod p is free over Q, and
    dim_Q >= dim_p >= dim_Q, so the free columns agree and the lifts are
    the unique reduced echelon basis that the exact solve returns.  Where
    a lift fails, `_kernel` solves K exactly.
    """
    priority = list(dict.fromkeys([Poly.zero(X.variables), *(
        cof for cof in X.coordinate_cofactors if cof is not None)]))
    sieve = _GradedSieve(X, d, lattice)
    values = priority + [K for K in sieve.run() if K not in priority]
    out = {}
    for K, kernel in zip(values, sieve.full_operator_kernels(values)):
        if K in priority or len(kernel):
            out[K] = sieve._kernel(K, sieve.cols, sieve.rows, kernel)
    return out


CofactorKernels = list[tuple[Poly, list[Poly]]]


def cofactor_kernels(X: VectorField, d: int,
                     lattice: CofactorLattice) -> CofactorKernels:
    """[(K, exact basis of {f : deg f <= d, X(f) = K*f})] per screened cofactor.

    This is the one exact pass of a command: the Darboux certificates and the
    rational obstruction are both derived from its result.
    """
    if d < 0:
        raise ValueError(f"degree must be non-negative, got {d}")
    return list(_candidate_cofactors(X, d, lattice).items())


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
                            ) -> tuple[Poly, Poly | None, tuple[str, ...]]:
    """Divide out the monomial content.

    Returns (stripped monic part, cofactor of the content, content variables);
    the cofactor is None where a content variable's plane is not invariant.
    """
    mins = [min(m[i] for m in f.terms) for i in range(len(X.variables))]
    terms = {tuple(a - b for a, b in zip(mono, mins)): coeff
             for mono, coeff in f.terms.items()}
    content_vars = tuple(v for v, e in zip(X.variables, mins) if e)
    return (Poly(X.variables, terms).monic(), X.monomial_cofactor(mins),
            content_vars)


# --------------------------------------------------------------------------
# exponential factors
# --------------------------------------------------------------------------

def search_exp_factors(X: VectorField, deg_g: int,
                       s_bound: int = 0) -> list[ExpFactorCert]:
    """Complete search over g (deg <= deg_g); g fixes L (deg <= deg X - 1).

    For each denominator exponent vector s whose planes are all invariant,
    K = `VectorField.monomial_cofactor(s)` and X(g) - K*g = L*x^s: (X - K)(g)
    vanishes off the monomials x^s*t with deg t <= deg X - 1, and L is its
    quotient by x^s.  So g ranges over `operator_kernel` of X - K on the g
    monomials alone.  Taken on columns in descending graded-lex order and
    reversed, its basis is the reduced echelon one, so the reported g are
    the canonical sparse representatives.  Pairs with L = 0 are not
    reported: the trivial exp(constant), and the exponentials of first
    integrals, which belong to the first-integral reports.

    Raises ValueError when the admissible denominator vectors times the
    cells of the largest matrix exceed `_EXP_FACTOR_CELLS_LIMIT`, before
    anything is built.
    """
    if deg_g < 0 or s_bound < 0:
        raise ValueError("the numerator degree and the denominator exponent "
                         "bound must be non-negative")
    nv = len(X.variables)
    max_L = max(X.degree - 1, 0)
    ranges = [range(s_bound + 1) if K_v is not None else (0,)
              for K_v in X.coordinate_cofactors]
    cells = (math.prod(map(len, ranges)) * math.comb(nv + deg_g + max_L, nv)
             * math.comb(nv + deg_g, nv))
    if cells > _EXP_FACTOR_CELLS_LIMIT:
        raise ValueError(
            f"{cells} denominator vectors times matrix cells exceed the "
            f"exponential-factor search limit ({_EXP_FACTOR_CELLS_LIMIT}); "
            f"lower --g-degree or --s-bound")
    g_monos = monomials_upto(nv, deg_g)
    window = monomials_upto(nv, deg_g + max_L)
    results: list[ExpFactorCert] = []
    for s in itertools.product(*ranges):
        K = X.monomial_cofactor(s)
        rows = [m for m in window if sum(m) - sum(s) > max_L
                or any(a < b for a, b in zip(m, s))]
        for g in reversed(operator_kernel(X, K, g_monos[::-1], rows)):
            image = _operator_image(X, K, g)
            if image.is_zero():
                continue  # exp(constant) or exp of a first integral
            if any(e and all(m[i] for m in g.terms)
                   for i, e in enumerate(s)):
                continue  # x_i divides g: not coprime with the denominator
            L = Poly(X.variables, {tuple(a - b for a, b in zip(m, s)): c
                                   for m, c in image.terms.items()})
            cert = ExpFactorCert(g, s, L)
            if not cert.check(X):
                raise InternalCheckError(
                    f"exponential-factor check failed for {cert.record()}")
            results.append(cert)
    return results


# --------------------------------------------------------------------------
# Darboux functions and first integrals
# --------------------------------------------------------------------------

class DarbouxFunction:
    """prod f_i^{lambda_i} * prod E_j^{mu_j} with vanishing cofactor
    balance; immutable."""

    __slots__ = ("darboux_terms", "exp_terms")

    def __init__(self, darboux_terms: tuple[tuple[DarbouxCert, Fraction], ...],
                 exp_terms: tuple[tuple[ExpFactorCert, Fraction], ...]):
        object.__setattr__(self, "darboux_terms", darboux_terms)
        object.__setattr__(self, "exp_terms", exp_terms)
        balance = self.cofactor_balance()
        if not balance.is_zero():
            raise ValueError(f"cofactor balance is {balance}, not zero")

    def __setattr__(self, *_):
        raise AttributeError("DarbouxFunction is immutable")

    __delattr__ = __setattr__

    def cofactor_balance(self) -> Poly:
        terms = [(c.K, lam) for c, lam in self.darboux_terms]
        terms += [(c.L, mu) for c, mu in self.exp_terms]
        if not terms:
            raise ValueError("empty Darboux function")
        total = Poly.zero(terms[0][0].variables)
        for cof, exponent in terms:
            total = total + cof * exponent
        return total

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

class ObstructionReport(NamedTuple):
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
