"""Batched rank computations modulo a fixed prime: screens and kernel bounds.

Rank over Z/p never exceeds rank over Q, so "full column rank mod p" is a
sound proof of a trivial rational kernel, and the kernel dimension mod p is
an upper bound on the rational one.  A candidate that is rank-deficient mod p
is either solved by exact rational elimination or, when as many independent
rational solutions as its kernel dimension mod p are already known, has those
as its kernel.  Either way a chance rank drop mod p costs time but never
correctness.  Everything here is deterministic: no randomness, fixed prime,
fixed pivot order.

The screens' matrices are tall and thin (many more rows than columns), so
`batched_rank` eliminates along the short side: it takes the vectors of the
shorter dimension and clears each one's pivot entry from the vectors after
it.  A reject-only screen may first rank the compressed matrices G*M, for a
fixed matrix G with fewer rows than M: rank(G*M) <= rank(M) over Z/p, so full
column rank of G*M proves the rejection, and only the values it does not
reject need their full matrix ranked (`compressor`).  Only the full-operator
screen ranks without compressing, since its ranks also bound kernel
dimensions and nearly all of its matrices are rank-deficient.

Every screen builds its arrays the same way: the residues of a basis on its
monomials, and from them the stack of f -> u*f for each monomial u, which
`shifted_stack` gathers without forming a product.

This is the only module that uses numpy, and it imports numpy inside the
functions that build arrays, so a command that runs no rank screen never
loads it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    import numpy as np

PRIME = 2**31 - 1  # products of two residues stay inside int64
_HALF = 16         # `matmul` splits its left factor into 16-bit halves
_MARGIN = 2        # rows of a compressed screen matrix beyond its columns


class ModPUnavailableError(ArithmeticError):
    """A denominator is divisible by the prime; caller must use exact arithmetic."""


def fraction_to_modp(value: Fraction) -> int:
    if value.denominator == 1:
        return value.numerator % PRIME
    den = value.denominator % PRIME
    if den == 0:
        raise ModPUnavailableError(f"denominator divisible by {PRIME}")
    return (value.numerator % PRIME) * pow(den, PRIME - 2, PRIME) % PRIME


def fraction_rows_to_modp(rows: Sequence[Sequence[Fraction]]) -> np.ndarray:
    import numpy as np
    # most entries of the screens' matrices are zero
    return np.array([[fraction_to_modp(x) if x else 0 for x in row]
                     for row in rows], dtype=np.int64)


def shifted_stack(residues: np.ndarray, monos: Sequence[tuple],
                  units: Sequence[tuple], rows: Sequence[tuple]) -> np.ndarray:
    """Residues of f -> u*f on a basis, one (len(rows), C) matrix per unit u.

    residues[i, j] is the residue of the coefficient of monos[i] in basis
    element j, (len(monos), C).  The coefficient of rows[r] in u*b_j is the
    coefficient of rows[r] - u in b_j, zero when that monomial is not in
    monos, so the stack is a gather of residue rows: no product is formed.
    """
    import numpy as np
    index = {m: i for i, m in enumerate(monos)}
    zero = len(monos)   # the index of an appended zero row
    gather = np.array([[index.get(tuple(a - b for a, b in zip(row, u)), zero)
                        for row in rows] for u in units], dtype=np.intp)
    padded = np.vstack([residues,
                        np.zeros((1, residues.shape[1]), dtype=np.int64)])
    return padded[gather.reshape(len(units), len(rows))]


def scaled_rows_to_modp(rows: Sequence[Sequence[int]],
                        scales: Sequence[int]) -> np.ndarray:
    """Residues of rows[i][j] / scales[j], one row per entry of rows.

    Rows that fit int64 are reduced in numpy; otherwise each integer is
    reduced mod p as a Python integer first, so large numerators cannot
    overflow (two residues multiply below 2^62).  Raises
    ModPUnavailableError when p divides a scale.
    """
    import numpy as np
    inverses = np.array([fraction_to_modp(Fraction(1, s)) for s in scales],
                        dtype=np.int64)
    try:
        reduced = np.array(rows, dtype=np.int64) % PRIME
    except OverflowError:
        reduced = (np.array(rows, dtype=object) % PRIME).astype(np.int64)
    return reduced.reshape(len(rows), len(inverses)) * inverses % PRIME


def matmul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A @ B over Z/p for residue arrays; B may be a stack (..., K, C).

    A is split as hi * 2^16 + lo, so each product of a half and a residue
    stays below 2^47 and a sum over K < 2^16 terms below 2^63.
    """
    import numpy as np
    if A.shape[-1] >= 1 << _HALF:
        raise ValueError("inner dimension too large for an exact int64 product")
    hi, lo = A >> _HALF, A & ((1 << _HALF) - 1)
    return ((hi @ B % PRIME << _HALF) + lo @ B) % PRIME


def compressor(rows: int, cols: int) -> np.ndarray | None:
    """The fixed (cols+2) x rows compression matrix of a reject-only screen.

    A Vandermonde matrix on the nodes 2 .. cols+3, whose row a is
    (a+2)^0, (a+2)^1, ... mod p; None when rows <= cols + 2, where
    compressing would save nothing.  Soundness needs nothing of G, since
    rank(G*M) <= rank(M) for every G; a Vandermonde G keeps the rank of a
    generic full-rank M, so few values need their full matrix ranked.
    """
    import numpy as np
    height = cols + _MARGIN
    if rows <= height:
        return None
    G = np.ones((height, rows), dtype=np.int64)
    nodes = np.arange(2, height + 2, dtype=np.int64)
    for r in range(1, rows):
        G[:, r] = G[:, r - 1] * nodes % PRIME
    return G


def batched_rank(mats: np.ndarray) -> np.ndarray:
    """Ranks of a stack of matrices (N, R, C) over Z/p, vectorized over N.

    Elimination runs along the short side: an (R, C) stack with C <= R is
    transposed to its C column vectors of length R, otherwise its R rows are
    the vectors.  Step i takes the first nonzero entry of vector i as pivot
    and clears that entry from every later vector with the fraction-free
    update v*pivot - factor*vector_i, which keeps every value in [0, p).  A
    matrix whose vector i is zero gets pivot 1 and subtracts multiples of a
    zero vector, so its step changes nothing: no matrix needs a gather,
    scatter or row swap.  The vectors that are nonzero when their step comes
    are independent (each is zero on the earlier pivots) and span the
    others, so their count is the rank: exact mod p, and independent of
    batch order.  The reject-only screens call it on compressed stacks G*M
    first; rank(G*M) <= rank(M), so a full rank there is a full rank of M.
    """
    import numpy as np
    A = np.asarray(mats, dtype=np.int64)
    if A.ndim != 3:
        raise ValueError("expected a (N, R, C) stack")
    N, R, C = A.shape
    if N == 0 or R == 0 or C == 0:
        return np.zeros(N, dtype=np.int64)
    V = A.transpose(0, 2, 1) if C <= R else A
    V = np.ascontiguousarray(V % PRIME)
    k = V.shape[1]
    mat_idx = np.arange(N)
    rank = np.zeros(N, dtype=np.int64)
    for i in range(k):
        vec = V[:, i, :]
        nonzero = vec != 0
        piv = nonzero.argmax(axis=1)
        has = nonzero[mat_idx, piv]
        rank += has
        if i == k - 1:
            break
        rest = V[:, i + 1:, :]
        factors = rest[mat_idx, :, piv]
        rest *= np.where(has, vec[mat_idx, piv], 1)[:, None, None]
        rest -= factors[:, :, None] * vec[:, None, :]
        rest %= PRIME
    return rank


def batched_combination(base: np.ndarray, directions: np.ndarray,
                        coefficients: np.ndarray) -> np.ndarray:
    """Stack base - sum_k coefficients[:, k] * directions[k] over Z/p.

    base: (R, C); directions: (S, R, C); coefficients: (N, S) residues.
    Returns (N, R, C).
    """
    import numpy as np
    coefficients = np.asarray(coefficients, dtype=np.int64) % PRIME
    if directions.shape[0] == 0:
        out = np.broadcast_to(base % PRIME,
                              (coefficients.shape[0],) + base.shape)
        return np.ascontiguousarray(out)
    acc = np.zeros((coefficients.shape[0],) + base.shape, dtype=np.int64)
    for k in range(directions.shape[0]):
        acc = (acc + coefficients[:, k, None, None]
               * (directions[k] % PRIME)) % PRIME
    return (base % PRIME - acc) % PRIME
