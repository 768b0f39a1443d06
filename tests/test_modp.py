"""The mod-p prescreen must never overestimate rank (sound rejections)."""

import math
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from darbouxlab import _modp
from darbouxlab.exactcore import (Poly, RatMatrix, coefficient_matrix,
                                  monomials_of_degree, monomials_upto,
                                  parse_poly)

P = _modp.PRIME


def test_batched_rank_matches_exact_rank():
    rng = random.Random(3)
    mats = []
    exact_ranks = []
    for _ in range(60):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        entries = [[Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                    for _ in range(cols)] for _ in range(rows)]
        # pad to a common shape with explicit zeros
        padded = [[entries[i][j] if i < rows and j < cols else Fraction(0)
                   for j in range(6)] for i in range(6)]
        mats.append(_modp.fraction_rows_to_modp(padded, P))
        exact_ranks.append(RatMatrix(padded).rank())
    ranks = _modp.batched_rank(np.stack(mats), P)
    assert list(ranks) == exact_ranks


def test_rank_deficient_stack():
    singular = np.array([[1, 2], [2, 4]], dtype=np.int64)
    full = np.array([[1, 0], [0, 1]], dtype=np.int64)
    ranks = _modp.batched_rank(np.stack([singular, full]), P)
    assert list(ranks) == [1, 2]


def test_linear_combination_stack():
    base = np.array([[1, 0], [0, 1]], dtype=np.int64)
    direction = np.array([[1, 0], [0, 0]], dtype=np.int64)
    coeffs = np.array([[0], [1]], dtype=np.int64)
    stack = _modp.batched_combination(base, direction[None], coeffs, P)
    assert list(_modp.batched_rank(stack, P)) == [2, 1]


def test_combination_without_directions():
    # S = 0, as a field of degree 0 reaches it: every matrix is base mod p
    base = np.array([[P + 1, -1, 0], [2, 0, P]], dtype=np.int64)
    stack = _modp.batched_combination(base, np.zeros((0, 2, 3), np.int64),
                                      np.zeros((4, 0), np.int64), P)
    assert stack.shape == (4, 2, 3) and stack.dtype == np.int64
    assert stack.tolist() == [[[1, P - 1, 0], [2, 0, 0]]] * 4
    assert _modp.batched_combination(base, np.zeros((0, 2, 3), np.int64),
                                     np.zeros((0, 0), np.int64), P
                                     ).shape == (0, 2, 3)


def _ranks_agree(matrices):
    """batched_rank of one same-shape stack against exact rational ranks."""
    stack = np.array(matrices, dtype=object) % _modp.PRIME
    ranks = _modp.batched_rank(stack.astype(np.int64), P)
    exact = [RatMatrix([[Fraction(int(x)) for x in row] for row in m]).rank()
             for m in matrices]
    assert ranks.tolist() == exact


@pytest.mark.parametrize("shape", [(2, 5), (3, 7), (5, 2), (11, 3), (20, 1),
                                   (6, 1), (1, 6), (1, 1), (4, 4)])
def test_batched_rank_rectangular_stacks(shape):
    R, C = shape
    rng = random.Random(R * 31 + C)
    p1 = _modp.PRIME - 1

    def product(rank):
        U = [[rng.randint(-4, 4) for _ in range(rank)] for _ in range(R)]
        V = [[rng.randint(-4, 4) for _ in range(C)] for _ in range(rank)]
        return [[sum(row[t] * V[t][j] for t in range(rank)) for j in range(C)]
                for row in U]

    mats = [[[0] * C for _ in range(R)],
            [[p1] * C for _ in range(R)],
            [[rng.choice((0, p1)) for _ in range(C)] for _ in range(R)]]
    mats += [product(rank) for rank in range(min(R, C) + 1) for _ in range(3)]
    mats += [[[rng.randint(-3, 3) for _ in range(C)] for _ in range(R)]
             for _ in range(6)]
    # a zero leading vector on the short side: its step must change nothing
    for m in [product(min(R, C)) for _ in range(4)]:
        if C <= R:
            for row in m:
                row[0] = 0
        else:
            m[0] = [0] * C
        mats.append(m)
    _ranks_agree(mats)


def test_batched_rank_zero_vector_between_pivots():
    # the middle column is zero in some matrices and a combination of the
    # first in others; the third column is independent in all of them
    mats = [[[1, 0, 0], [0, 0, 1], [2, 0, 3], [0, 0, 0]],
            [[1, 2, 0], [0, 0, 1], [2, 4, 3], [0, 0, 0]],
            [[0, 0, 0], [0, 0, 0], [0, 0, 0], [5, 0, 0]],
            [[3, 0, 0], [1, 0, 0], [0, 0, 0], [0, 0, 0]]]
    _ranks_agree(mats)


def _short_side_rank(mats, p):
    """Reference ranks over Z/p of a stack (N, R, C): elimination along the
    short side.  The C columns (C <= R) or else the R rows are the vectors;
    step i takes the first nonzero entry of vector i as pivot and clears it
    from every later vector by v*pivot - factor*vector_i.  The vectors that
    are nonzero when their step comes are independent and span the rest,
    so their count is the rank."""
    A = np.asarray(mats, dtype=np.int64)
    N, R, C = A.shape
    if N == 0 or R == 0 or C == 0:
        return np.zeros(N, dtype=np.int64)
    V = np.array(A.transpose(0, 2, 1) if C <= R else A) % p
    k = V.shape[1]
    mat_idx = np.arange(N)
    rank = np.zeros(N, dtype=np.int64)
    for i in range(k):
        vec = V[:, i, :]
        nonzero = vec != 0
        piv = nonzero.argmax(axis=1)
        has = nonzero[mat_idx, piv]
        rank += has
        rest = V[:, i + 1:, :]
        factors = rest[mat_idx, :, piv]
        rest *= np.where(has, vec[mat_idx, piv], 1)[:, None, None]
        rest -= factors[:, :, None] * vec[:, None, :]
        rest %= p
    return rank


@st.composite
def _rank_stacks(draw):
    """(p, stack): N <= 8 matrices R x C with R, C <= 7, entries 0, 1,
    p - 1, small or any residue, and some rows and columns replaced by
    integer multiples of others (planted dependencies)."""
    p = draw(st.sampled_from([_modp.PRIME, 2147483629, 13]))
    N, R, C = (draw(st.integers(0, 8)), draw(st.integers(0, 7)),
               draw(st.integers(0, 7)))
    entry = (st.sampled_from([0, 1, p - 1]) | st.integers(2, 9)
             | st.integers(0, p - 1))
    stack = np.zeros((N, R, C), dtype=object)
    for m in stack:
        m[:] = np.array(draw(st.lists(entry, min_size=R * C,
                                      max_size=R * C)),
                        dtype=object).reshape(R, C)
        for axis, size in ((0, R), (1, C)):
            if size < 2:
                continue
            for target, source, factor in draw(st.lists(st.tuples(
                    st.integers(0, size - 1), st.integers(0, size - 1),
                    st.sampled_from([0, 1, 2, p - 1])), max_size=3)):
                if axis:
                    m[:, target] = m[:, source] * factor
                else:
                    m[target] = m[source] * factor
    return p, stack


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_rank_stacks())
def test_batched_rank_matches_the_short_side_reference(case):
    # zero, wide, tall and square stacks: the pivot count of the
    # Gauss-Jordan elimination is the short-side rank, and the rational
    # rank where every entry is a small integer and p = 2^31 - 1
    p, stack = case
    residues = (stack % p).astype(np.int64)
    ranks = _modp.batched_rank(residues, p)
    assert ranks.dtype == np.int64
    assert ranks.tolist() == _short_side_rank(residues, p).tolist()
    if p == _modp.PRIME:
        for m, rank in zip(stack, ranks):
            if (m < 10).all():
                assert RatMatrix(m.tolist()).rank() == rank


def _eliminate_every_column(M, C, p):
    """Reference: `_modp._eliminate` as it was when every step multiplied
    and reduced every column of the stack, cleared pivot columns included."""
    N, R, _ = M.shape
    mat_idx = np.arange(N)
    unused = np.ones((N, R), dtype=bool)
    pivot_row = np.full((N, C), -1)
    for j in range(C):
        column = M[:, :, j]
        candidates = (column != 0) & unused
        has = candidates.any(axis=1)
        if not has.any():
            continue
        row = candidates.argmax(axis=1)
        pivot = M[mat_idx, row]
        factors = np.where(has[:, None], column, 0)
        factors[mat_idx, row] = 0
        M *= np.where(has, pivot[:, j], 1)[:, None, None]
        M -= factors[:, :, None] * pivot[:, None, :]
        _modp._reduce(M, p)
        unused[mat_idx[has], row[has]] = False
        pivot_row[has, j] = row[has]
    return pivot_row, unused


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_rank_stacks(), st.integers(0, 3), st.randoms(use_true_random=False))
def test_elimination_matches_the_every_column_reference(case, k, rng):
    # zero, wide, tall, square and rank-deficient stacks with k carried
    # columns: the same pivot rows, unused rows and final matrix, so the
    # same kernels and cokernels
    p, stack = case
    N, R, C = stack.shape
    A = (stack % p).astype(np.int64)
    B = np.array([rng.randrange(p) for _ in range(N * R * k)],
                 dtype=np.int64).reshape(N, R, k)
    M = np.concatenate([A, B], axis=2)
    want_M = M.copy()
    got = _modp._eliminate(M, C, p)
    want = _eliminate_every_column(want_M, C, p)
    for got_part, want_part in zip(got, want):
        assert got_part.tolist() == want_part.tolist()
    assert M.tolist() == want_M.tolist()
    batched = _modp.batched_kernels(A, B, p)
    with mock.patch.object(_modp, "_eliminate", _eliminate_every_column):
        reference = _modp.batched_kernels(A, B, p)
    for (kernel, cokernel), (want_kernel, want_cokernel) in zip(
            batched, reference, strict=True):
        assert kernel.tolist() == want_kernel.tolist()
        assert cokernel.tolist() == want_cokernel.tolist()


def test_matmul_matches_python_ints():
    p1 = _modp.PRIME - 1
    rng = random.Random(7)
    inner = 301
    A = np.full((3, inner), p1, dtype=np.int64)
    A[2] = [rng.randrange(_modp.PRIME) for _ in range(inner)]
    B = np.full((2, inner, 4), p1, dtype=np.int64)
    B[1] = [[rng.randrange(_modp.PRIME) for _ in range(4)]
            for _ in range(inner)]
    got = _modp.matmul(A, B, P)
    assert got.shape == (2, 3, 4)
    for s in range(2):
        for i in range(3):
            for j in range(4):
                want = sum(int(A[i, k]) * int(B[s, k, j])
                           for k in range(inner)) % _modp.PRIME
                assert int(got[s, i, j]) == want


def test_compressor_is_a_fixed_vandermonde_matrix():
    # square: as many rows as the screened matrix has columns
    assert _modp.compressor(3, 3, P) is None
    assert _modp.compressor(2, 3, P) is None
    G = _modp.compressor(9, 3, P)
    assert G.tolist() == [[pow(a, r, _modp.PRIME) for r in range(9)]
                          for a in range(2, 5)]
    # built once per shape and prime, and shared read-only
    assert _modp.compressor(9, 3, P) is G
    assert not G.flags.writeable


def _leading_minors_nonzero(mats):
    """Whether every leading principal minor of each square matrix is
    nonzero mod P, from the ranks of its leading blocks."""
    C = mats.shape[1]
    return np.all([_modp.batched_rank(mats[:, :k, :k], P) == k
                   for k in range(1, C + 1)], axis=0)


@st.composite
def _square_stacks(draw):
    N, C = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    entry = st.integers(-2, 2) | st.sampled_from([P - 1, (P + 1) // 2])
    return np.array(draw(st.lists(entry, min_size=N * C * C,
                                  max_size=N * C * C)),
                    dtype=np.int64).reshape(N, C, C)


@settings(max_examples=150, deadline=None)
@given(_square_stacks())
def test_full_rank_proof_property(mats):
    # True is a proof (never where the rank is below C), and the proof
    # holds exactly where every leading minor is nonzero: there it equals
    # batched_rank == C
    C = mats.shape[1]
    proved = _modp.proves_full_rank(mats, P)
    full = _modp.batched_rank(mats, P) == C
    assert not (proved & ~full).any()
    assert proved.tolist() == _leading_minors_nonzero(mats).tolist()


def test_full_rank_proof_defers_a_zero_pivot():
    # full rank, but (0, 0) is zero: the pivot-free elimination proves
    # nothing for it, while the same matrix with its rows swapped is proved
    swap = np.array([[[0, 1, 2], [1, 0, 0], [3, 0, 1]]], dtype=np.int64)
    assert _modp.batched_rank(swap, P).tolist() == [3]
    assert _modp.proves_full_rank(swap, P).tolist() == [False]
    assert _modp.proves_full_rank(swap[:, [1, 0, 2]], P).tolist() == [True]


def test_full_rank_proof_checks_every_pivot():
    # rank C - 1 with every proper leading minor nonzero, so only the last
    # pivot is zero; and a zero pivot in the middle of a singular matrix
    rng = random.Random(11)
    mats = []
    for C in (2, 3, 4, 5):
        while True:
            U = [[rng.randint(-3, 3) for _ in range(C - 1)] for _ in range(C)]
            V = [[rng.randint(-3, 3) for _ in range(C)] for _ in range(C - 1)]
            m = np.array(U, dtype=np.int64) @ np.array(V, dtype=np.int64)
            if _leading_minors_nonzero(m[None, :C - 1, :C - 1] % P)[0]:
                break
        mats.append(np.pad(m, ((0, 5 - C), (0, 5 - C))))
    mats.append([[1, 2, 0, 0, 0], [1, 2, 1, 0, 0], [0, 0, 0, 1, 0],
                 [0, 0, 0, 0, 1], [2, 4, 1, 0, 0]])
    stack = np.array(mats, dtype=np.int64) % P
    for m, C in zip(stack[:4], (2, 3, 4, 5)):
        assert _modp.batched_rank(m[None, :C, :C], P).tolist() == [C - 1]
        assert _modp.proves_full_rank(m[None, :C, :C], P).tolist() == [False]
    assert _modp.batched_rank(stack[4:], P).tolist() == [4]
    assert _modp.proves_full_rank(stack, P).tolist() == [False] * 5


@pytest.mark.parametrize("p", [_modp.PRIME, 2147483629, 7])
def test_reduction_matches_remainder(p):
    # in place, on a view, over the whole int64 range
    big = 2**63 - 1
    values = np.array([[-big - 1, -big, -p - 1, -p, -1, 0],
                       [1, p - 1, p, p + 1, big - 1, big]], dtype=np.int64)
    want = (values % p).tolist()
    view = values[:, ::-1]
    assert _modp._reduce(view, p) is view
    assert values.tolist() == want
    assert _modp._centred(np.array([0, 1, p // 2, p // 2 + 1, p - 1]),
                          p).tolist() == [0, 1, p // 2, -(p // 2), -1]


def _combination_by_terms(base, directions, coefficients, p):
    """The per-term reference: reduce mod p after every direction."""
    coefficients = np.asarray(coefficients, dtype=np.int64) % p
    acc = np.zeros((coefficients.shape[0],) + base.shape, dtype=np.int64)
    for k in range(directions.shape[0]):
        acc = (acc + coefficients[:, k, None, None]
               * (directions[k] % p)) % p
    return (base % p - acc) % p


@pytest.mark.parametrize("p", [_modp.PRIME, 2147483629])
@pytest.mark.parametrize("S", [0, 1, 7, 8, 15, 22])
def test_combination_matches_per_term_reduction(p, S):
    # the extreme residues, and the stacks whose products all share the
    # largest magnitude and one sign, reach the int64 bound of a group
    edges = [0, 1, (p - 1) // 2, (p + 1) // 2, p - 1]
    rng = random.Random(S * 7 + p % 97)
    R, C, N = 3, 4, 2 * len(edges) + 12
    base = np.array([[rng.choice(edges) for _ in range(C)]
                     for _ in range(R)], dtype=np.int64)
    directions = np.array([[[rng.choice(edges) for _ in range(C)]
                            for _ in range(R)] for _ in range(S)],
                          dtype=np.int64).reshape(S, R, C)
    coefficients = np.array([[rng.choice(edges) for _ in range(S)]
                             for _ in range(N)], dtype=np.int64).reshape(N, S)
    coefficients[:len(edges)] = np.array(edges)[:, None]
    for value in edges:
        for top in ((p - 1) // 2, (p + 1) // 2):
            flat = np.full_like(directions, value)
            stacked = np.full((1, S), top, dtype=np.int64)
            for b in (np.full_like(base, (p - 1) // 2),
                      np.full_like(base, (p + 1) // 2)):
                assert (_modp.batched_combination(b, flat, stacked, p)
                        .tolist() == _combination_by_terms(
                            b, flat, stacked, p).tolist())
    got = _modp.batched_combination(base, directions, coefficients, p)
    assert got.dtype == np.int64 and got.shape == (N, R, C)
    assert got.tolist() == _combination_by_terms(
        base, directions, coefficients, p).tolist()
    # unreduced inputs: negative and above p
    shifted = _modp.batched_combination(base - p, directions + p,
                                        coefficients - 3 * p, p)
    assert shifted.tolist() == got.tolist()


def test_residue_conversion_of_large_and_negative_integers():
    p = _modp.PRIME
    assert _modp.fraction_to_modp(Fraction(-3), p) == p - 3
    assert _modp.fraction_to_modp(Fraction(10**30), p) == 10**30 % p
    big = [(10**30, -7), (3, 2 * p)]
    inv3 = pow(3, p - 2, p)
    got = _modp.scaled_rows_to_modp(big, [1, 3], p)
    assert got.tolist() == [[10**30 % p, -7 * inv3 % p], [3, 2 * p * inv3 % p]]
    small = _modp.scaled_rows_to_modp([(4, -9)], [1, 3], p)
    assert small.tolist() == [[4, p - 3]]
    with pytest.raises(_modp.ModPUnavailableError):
        _modp.fraction_to_modp(Fraction(1, p), p)


def _polys(texts, variables):
    return [parse_poly(t, variables) for t in texts]


XY = ("x", "y")
XYZ = ("x", "y", "z")


@pytest.mark.parametrize("basis, monos, units, rows", [
    # monomial basis
    ([Poly.from_monomial(XY, m) for m in monomials_upto(2, 2)],
     monomials_upto(2, 2), [(1, 0), (0, 1)], monomials_upto(2, 3)),
    # non-monomial homogeneous basis, as the sieve's W
    (_polys(["x^2 - 3/2*x*y", "y^2 + 5*x*y", "1/7*x*z - z^2"], XYZ),
     monomials_of_degree(3, 2), monomials_of_degree(3, 1),
     monomials_of_degree(3, 3)),
    # rows spanning several degrees, units of two degrees
    (_polys(["1 + x", "x*y - 2/7*y^2", "3 - 1/1000003*y^2"], XY),
     monomials_upto(2, 2), [(1, 0), (0, 2), (1, 1)], monomials_upto(2, 4)),
    # no units
    (_polys(["x + y", "x*y"], XY), monomials_upto(2, 2), [],
     monomials_upto(2, 3)),
    # rows[r] - u with negative exponents on every row of low degree
    (_polys(["x - y", "y^2"], XY), monomials_upto(2, 2), [(2, 0), (0, 3)],
     monomials_upto(2, 2)),
])
def test_shifted_stack_matches_products(basis, monos, units, rows):
    variables = basis[0].variables
    got = _modp.gather(
        _modp.fraction_rows_to_modp(coefficient_matrix(basis, monos), P),
        _modp.shift_index(monos, units, rows))
    assert got.shape == (len(units), len(rows), len(basis))
    want = [_modp.fraction_rows_to_modp(coefficient_matrix(
        [Poly.from_monomial(variables, u) * b for b in basis], rows),
        P).tolist()
        for u in units]
    assert got.tolist() == want


def _residues(matrix):
    return (np.array(matrix, dtype=object) % _modp.PRIME).astype(np.int64)


def _elimination_cases():
    """Small-integer matrices: tall, wide, 1x1, zero, rank-deficient, and
    entries p - 1 (which are -1 mod p but large rationals)."""
    rng = random.Random(11)
    p1 = _modp.PRIME - 1

    def product(R, C, rank):
        U = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(R)]
        V = [[rng.randint(-3, 3) for _ in range(C)] for _ in range(rank)]
        return [[sum(u[t] * V[t][j] for t in range(rank)) for j in range(C)]
                for u in U]

    cases = [[[0]], [[5]], [[p1]], [[0] * 4 for _ in range(3)],
             [[0] * 2 for _ in range(5)], [[p1] * 3 for _ in range(4)],
             [[p1, 1], [2, p1]], [[1, 2, 3], [2, 4, 6]],
             [[0, 1, 0, 2], [0, 0, 0, 0], [0, 2, 1, 4]]]
    for R, C in [(7, 3), (3, 7), (6, 6), (9, 4), (2, 5), (1, 4), (4, 1)]:
        for rank in range(min(R, C) + 1):
            cases.append(product(R, C, rank))
        cases.append([[rng.choice((0, 1, p1, rng.randint(-5, 5)))
                       for _ in range(C)] for _ in range(R)])
    # the comparisons need equal ranks over Q and Z/p (a rank drop mod p is
    # `test_rank_can_drop_mod_p`)
    return [m for m in cases if RatMatrix(m).rank()
            == _modp.batched_rank(_residues(m)[None], P)[0]]


def gauss_jordan(A, width=None):
    """Reference: reduced row echelon form of A over Z/p and its pivot
    columns, one matrix at a time, swapping the pivot row into place.

    Pivots are taken in the first `width` columns only (all by default),
    left to right, the pivot row being the first row with a nonzero entry:
    the order of `RatMatrix.rref`.
    """
    p = _modp.PRIME
    M = np.array(A, dtype=np.int64) % p
    height = M.shape[0]
    pivots = []
    for col in range(M.shape[1] if width is None else width):
        top = len(pivots)
        if top == height:
            break
        nonzero = M[top:, col].nonzero()[0]
        if not nonzero.size:
            continue
        if nonzero[0]:
            M[[top, top + nonzero[0]]] = M[[top + nonzero[0], top]]
        row = M[top]
        row *= pow(int(row[col]), -1, p)
        row %= p
        factors = p - M[:, col]
        factors[top] = 0
        M += np.multiply.outer(factors, row)
        M %= p
        pivots.append(col)
    return M, tuple(pivots)


def kernels(A, B):
    """Reference: (kernel basis of A, P*B) from one row-swapping elimination
    of [A | B] pivoting in A, P the rows of the transform that send A to
    zero rows; the kernel basis is 1 on its free column, 0 on the others."""
    cols = A.shape[1]
    reduced, pivots = gauss_jordan(np.hstack([A, B]), cols)
    rank = len(pivots)
    free = [j for j in range(cols) if j not in pivots]
    kernel = np.zeros((len(free), cols), dtype=np.int64)
    kernel[range(len(free)), free] = 1
    kernel[:, list(pivots)] = -reduced[:rank, free].T % _modp.PRIME
    return kernel, reduced[rank:, cols:]


def _rank(matrix):
    return int(_modp.batched_rank(np.asarray(matrix, dtype=np.int64)[None],
                                  P)[0])


def _column_profile(A):
    """The columns of A independent of the columns before them, mod p."""
    return tuple(j for j in range(A.shape[1])
                 if _rank(A[:, :j + 1]) > _rank(A[:, :j]))


def _agree_with_reference(stack, carried):
    """batched_kernels of a stack against the row-swapping reference, one
    matrix at a time: equal rank and pivots, equal kernel basis, and
    projections with equal row spaces (each carried block starts with an
    identity, so the projection holds the left-kernel basis P itself)."""
    got = _modp.batched_kernels(stack, carried, P)
    assert len(got) == len(stack)
    for A, B, (kernel, projected) in zip(stack, carried, got):
        R = A.shape[0]
        want_kernel, want_projected = kernels(A, B)
        pivots = gauss_jordan(A)[1]
        # the reference pivots are the column rank profile, and the batched
        # kernel basis is 1 and 0 on the free columns they leave
        assert pivots == _column_profile(A)
        assert len(kernel) == A.shape[1] - len(pivots)
        assert kernel.tolist() == want_kernel.tolist()
        assert projected.shape == want_projected.shape
        assert not _modp.matmul(projected[:, :R], A, P).any()
        assert (_rank(np.vstack([projected, want_projected]))
                == _rank(projected) == R - len(pivots))


def _with_identity(carried):
    """[I | carried[i]] for each (R, k) block of a stack."""
    N, R, _ = carried.shape
    eye = np.broadcast_to(np.eye(R, dtype=np.int64), (N, R, R))
    return np.concatenate([eye, carried], axis=2)


def test_rank_can_drop_mod_p():
    # det = (p-1)^2 - 1 = p*(p-2): rank 2 over Q, 1 mod p, which is why a
    # cokernel mod p needs its rank equality certified
    p1 = _modp.PRIME - 1
    matrix = [[p1, 1], [1, p1]]
    assert RatMatrix(matrix).rank() == 2
    (kernel, left), = _modp.batched_kernels(
        _residues([matrix]), np.eye(2, dtype=np.int64)[None], P)
    assert kernel.tolist() == [[1, 1]] and len(left) == 1


def _modp_rows(rows):
    return [[_modp.fraction_to_modp(Fraction(x), P) for x in row]
            for row in rows]


@pytest.mark.parametrize("matrix", _elimination_cases())
def test_gauss_jordan_matches_exact_rref(matrix):
    # the reference elimination is RatMatrix.rref mod p
    exact, pivots = RatMatrix(matrix).rref()
    reduced, got = gauss_jordan(_residues(matrix))
    assert got == pivots
    assert reduced.tolist() == _modp_rows(exact.entries)
    # pivots restricted to a leading block of columns: the rest is carried
    width = len(matrix[0]) // 2
    _, head = gauss_jordan(_residues(matrix), width)
    assert head == RatMatrix([row[:width] for row in matrix]).rref()[1]


@pytest.mark.parametrize("matrix", _elimination_cases())
def test_kernels_match_exact_nullspaces(matrix):
    A = _residues(matrix)
    R, C = A.shape
    (kernel, left), = _modp.batched_kernels(
        A[None], np.eye(R, dtype=np.int64)[None], P)
    # the kernel basis is the one RatMatrix.nullspace gives, mod p
    assert kernel.shape == (C - len(RatMatrix(matrix).rref()[1]), C)
    assert kernel.tolist() == _modp_rows(RatMatrix(matrix).nullspace())
    # the left kernel is a basis of {y : y*A = 0 mod p}, as large as the
    # exact one, and spans its images wherever they exist mod p
    exact_left = RatMatrix([list(col) for col in zip(*matrix)]).nullspace()
    assert left.shape == (len(exact_left), R)
    assert not _modp.matmul(left, A, P).any()
    if len(exact_left):
        assert _rank(left) == len(exact_left)
        try:
            images = _residues(_modp_rows(exact_left))
        except _modp.ModPUnavailableError:
            images = left   # a denominator of that basis is divisible by p
        assert _rank(np.vstack([left, images])) == len(exact_left)
    # projecting carried columns onto the cokernel is the left kernel times
    # them: the carried columns do not change the row operations
    rng = random.Random(R * 10 + C)
    carried = _residues([[rng.randint(-9, 9) for _ in range(7)]
                         for _ in range(R)])
    (same, projected), = _modp.batched_kernels(A[None], carried[None], P)
    assert same.tolist() == kernel.tolist()
    assert projected.tolist() == _modp.matmul(left, carried, P).tolist()
    _agree_with_reference(A[None], _with_identity(carried[None]))


@pytest.mark.parametrize("shape", [(1, 1), (1, 4), (4, 1), (7, 3), (3, 7),
                                   (6, 6), (9, 4), (2, 5)])
def test_batched_kernels_on_mixed_stacks(shape):
    # one stack of full-rank, rank-deficient and zero matrices, entries
    # p - 1 among them, each eliminated as the reference does it alone
    R, C = shape
    rng = random.Random(R * 13 + C)
    p1 = _modp.PRIME - 1

    def product(rank):
        U = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(R)]
        V = [[rng.randint(-3, 3) for _ in range(C)] for _ in range(rank)]
        return [[sum(u[t] * V[t][j] for t in range(rank)) for j in range(C)]
                for u in U]

    mats = [[[0] * C for _ in range(R)], [[p1] * C for _ in range(R)],
            [[rng.choice((0, 1, p1)) for _ in range(C)] for _ in range(R)]]
    mats += [product(rank) for rank in range(min(R, C) + 1) for _ in range(2)]
    mats += [[[rng.choice((0, p1, rng.randint(-5, 5))) for _ in range(C)]
              for _ in range(R)] for _ in range(3)]
    rng.shuffle(mats)
    carried = _residues([[[rng.randint(-9, 9) for _ in range(3)]
                          for _ in range(R)] for _ in mats])
    _agree_with_reference(_residues(mats), _with_identity(carried))


@st.composite
def _integer_stacks(draw):
    N, R, C, k = (draw(st.integers(1, 4)), draw(st.integers(1, 5)),
                  draw(st.integers(1, 5)), draw(st.integers(0, 2)))

    def stack(cols):
        row = st.lists(st.integers(-2, 2), min_size=cols, max_size=cols)
        return st.lists(st.lists(row, min_size=R, max_size=R),
                        min_size=N, max_size=N)

    return (_residues(draw(stack(C))).reshape(N, R, C),
            _residues(draw(stack(k))).reshape(N, R, k))


@settings(max_examples=80, deadline=None)
@given(_integer_stacks())
def test_batched_kernels_small_integer_property(stacks):
    A, carried = stacks
    _agree_with_reference(A, _with_identity(carried))


def _small_preimage(residue):
    """Brute force: the n/d with |n|, d <= floor(sqrt(p/2)) and
    n = residue*d mod p, or None."""
    p = _modp.PRIME
    bound = math.isqrt(p // 2)
    for d in range(1, bound + 1):
        n = residue * d % p
        if n > p // 2:
            n -= p
        if abs(n) <= bound:
            return Fraction(n, d)
    return None


def test_rational_reconstruction_round_trips_within_the_bound():
    p = _modp.PRIME
    bound = math.isqrt(p // 2)
    assert bound == 32767
    rng = random.Random(13)
    values = [Fraction(0), Fraction(1), Fraction(-1), Fraction(bound),
              Fraction(-bound, bound - 2), Fraction(1, bound),
              Fraction(bound - 1, bound)]
    values += [Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
               for _ in range(200)]
    for value in values:
        assert _modp.rational_reconstruction(
            _modp.fraction_to_modp(value, p), p) == value
    assert _modp.rational_reconstruction(p - 1, p) == -1


def test_rational_reconstruction_without_a_small_preimage():
    p = _modp.PRIME
    bound = math.isqrt(p // 2)
    # bound + 1 = 2^15: no n/d within the bound is congruent to it
    assert _modp.rational_reconstruction(bound + 1, p) is None
    assert _small_preimage(bound + 1) is None
    rng = random.Random(17)
    for residue in [rng.randrange(p) for _ in range(12)]:
        assert _modp.rational_reconstruction(residue, p) == _small_preimage(
            residue)


def test_screening_prime_avoids_the_denominators():
    p = _modp.PRIME
    assert _modp.screening_prime([]) == p
    assert _modp.screening_prime([1, 10000, 1000003, 2 * (p - 2)]) == p
    assert _modp.screening_prime([3, 7 * p]) == 2147483629
    assert _modp.screening_prime([p, 2147483629 * 5]) == 2147483587
    assert _modp.screening_prime([p * 2147483629]) == 2147483587
    # numerators are passed too: b = 3*p over 1
    assert _modp.screening_prime([3 * p, 1]) == 2147483629


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(
    st.integers(1, 10**30),
    st.sampled_from([2147483647, 2147483629, 2147483587, 2147483579,
                     2147483563]).flatmap(
        lambda q: st.integers(1, 10**6).map(lambda k: k * q))),
    max_size=6))
def test_screening_prime_property(denominators):
    sympy = pytest.importorskip("sympy")
    p = _modp.screening_prime(denominators)
    assert sympy.isprime(p) and p < 2**31
    assert all(d % p for d in denominators)
    # no larger prime below 2^31 divides none of them
    assert all(any(d % q == 0 for d in denominators)
               for q in sympy.primerange(p + 1, 2**31))
