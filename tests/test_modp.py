"""The mod-p prescreen must never overestimate rank (sound rejections)."""

import random
from fractions import Fraction

import numpy as np
import pytest

from darbouxlab import _modp
from darbouxlab.exactcore import (Poly, RatMatrix, coefficient_matrix,
                                  monomials_of_degree, monomials_upto,
                                  parse_poly)


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
        mats.append(_modp.fraction_rows_to_modp(padded))
        exact_ranks.append(RatMatrix(padded).rank())
    ranks = _modp.batched_rank(np.stack(mats))
    assert list(ranks) == exact_ranks


def test_rank_deficient_stack():
    singular = np.array([[1, 2], [2, 4]], dtype=np.int64)
    full = np.array([[1, 0], [0, 1]], dtype=np.int64)
    ranks = _modp.batched_rank(np.stack([singular, full]))
    assert list(ranks) == [1, 2]


def test_linear_combination_stack():
    base = np.array([[1, 0], [0, 1]], dtype=np.int64)
    direction = np.array([[1, 0], [0, 0]], dtype=np.int64)
    coeffs = np.array([[0], [1]], dtype=np.int64)
    stack = _modp.batched_combination(base, direction[None], coeffs)
    assert list(_modp.batched_rank(stack)) == [2, 1]


def _ranks_agree(matrices):
    """batched_rank of one same-shape stack against exact rational ranks."""
    stack = np.array(matrices, dtype=object) % _modp.PRIME
    ranks = _modp.batched_rank(stack.astype(np.int64))
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


def test_matmul_matches_python_ints():
    p1 = _modp.PRIME - 1
    rng = random.Random(7)
    inner = 301
    A = np.full((3, inner), p1, dtype=np.int64)
    A[2] = [rng.randrange(_modp.PRIME) for _ in range(inner)]
    B = np.full((2, inner, 4), p1, dtype=np.int64)
    B[1] = [[rng.randrange(_modp.PRIME) for _ in range(4)]
            for _ in range(inner)]
    got = _modp.matmul(A, B)
    assert got.shape == (2, 3, 4)
    for s in range(2):
        for i in range(3):
            for j in range(4):
                want = sum(int(A[i, k]) * int(B[s, k, j])
                           for k in range(inner)) % _modp.PRIME
                assert int(got[s, i, j]) == want


def test_compressor_is_a_fixed_vandermonde_matrix():
    assert _modp.compressor(5, 3) is None
    G = _modp.compressor(9, 3)
    assert G.tolist() == [[pow(a, r, _modp.PRIME) for r in range(9)]
                          for a in range(2, 7)]


def test_residue_conversion_fast_paths():
    p = _modp.PRIME
    assert _modp.fraction_to_modp(Fraction(-3)) == p - 3
    assert _modp.fraction_to_modp(Fraction(10**30)) == 10**30 % p
    big = [(10**30, -7), (3, 2 * p)]
    got = _modp.scaled_rows_to_modp(big, [1, 3])
    inv3 = pow(3, p - 2, p)
    assert got.tolist() == [[10**30 % p, -7 * inv3 % p], [3, 2 * p * inv3 % p]]
    small = _modp.scaled_rows_to_modp([(4, -9)], [1, 3])
    assert small.tolist() == [[4, p - 3]]
    with pytest.raises(_modp.ModPUnavailableError):
        _modp.scaled_rows_to_modp([(1,)], [p])


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
    got = _modp.shifted_stack(
        _modp.fraction_rows_to_modp(coefficient_matrix(basis, monos)),
        monos, units, rows)
    assert got.shape == (len(units), len(rows), len(basis))
    want = [_modp.fraction_rows_to_modp(coefficient_matrix(
        [Poly.from_monomial(variables, u) * b for b in basis], rows)).tolist()
        for u in units]
    assert got.tolist() == want
