"""Rank computations modulo a prime: screens, kernel bounds, sieve blocks.

Rank over Z/p never exceeds rank over Q, so "full column rank mod p" is a
sound proof of a trivial rational kernel, and the kernel dimension mod p is
an upper bound on the rational one.  A candidate that is rank-deficient mod p
is either solved by exact rational elimination or, when as many independent
rational solutions as its kernel dimension mod p are already known, has those
as its kernel.  Either way a chance rank drop mod p costs time but never
correctness.  Everything here is deterministic: no randomness, fixed pivot
order, and one prime p per search, chosen from its input by
`screening_prime` and passed to every function that computes mod p.

The screens' matrices are tall and thin (many more rows than columns), so
`batched_rank` eliminates along the short side: it takes the vectors of the
shorter dimension and clears each one's pivot entry from the vectors after
it.  A reject-only screen may first rank the compressed matrices G*M, for a
fixed matrix G with fewer rows than M: rank(G*M) <= rank(M) over Z/p, so full
column rank of G*M proves the rejection, and only the values it does not
reject need their full matrix ranked (`compressor`).  Only the full-operator
screen ranks without compressing, since its ranks also bound kernel
dimensions and nearly all of its matrices are rank-deficient.

Multiplication by a monomial u is a gather: the coefficient of rows[r] in
u*b is that of rows[r] - u in b (`shift_index`, `gather`), so neither the
screens' direction stacks nor the sieve's cofactor blocks form a product.

The sieve's kernels and cokernels come from one Gauss-Jordan elimination
per stack of same-shaped blocks (`batched_kernels`), which pivots without
row swaps.  Its pivot columns are the column rank profile of A (column j
is a pivot exactly when it is independent of the columns before it), so
they are the pivots of any Gauss-Jordan order, `RatMatrix.rref`'s
included wherever every leading block of columns has the same rank over Q
and Z/p; given the pivots, the kernel basis that is 1 on its free column
and 0 on the other free columns is unique.  Each step is invertible (it
scales every row by the nonzero pivot and subtracts multiples of the
pivot row from the others), so the R - rank rows that never become pivot
rows are independent, and they vanish on A: a basis P of A's left kernel.
Any other basis P' of that space, such as the one a row-swapping
elimination leaves, is T*P for an invertible T, so P'*F = T*(P*F) for
every F and each projected matrix has the same rank whichever basis is
used.  A cokernel P mod p of a block A may stand in for the rational one
only when rank_Q(A) = rank_p(A) is proved: free when A has full column
rank mod p, and otherwise by lifting A's kernel basis mod p with
`rational_reconstruction` and checking each lift exactly (the lifts are
independent, being 1 and 0 on the free columns, so rank_Q(A) <= rank_p(A),
and rank_p never exceeds rank_Q).

Only this module and the screens' array bookkeeping in `darboux` use
numpy, and both import it inside the functions that build arrays, so a
command that runs no rank screen never loads it.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:
    import numpy as np

PRIME = 2**31 - 1  # the largest screening prime: two residues multiply in int64
_HALF = 16         # `matmul` splits its left factor into 16-bit halves
_MARGIN = 2        # rows of a compressed screen matrix beyond its columns


class ModPUnavailableError(ArithmeticError):
    """A denominator is divisible by the prime; caller must use exact arithmetic."""


def _is_prime(n: int) -> bool:
    """Miller-Rabin with bases 2, 3, 5, 7, for odd n > 7: deterministic
    below 3.2e9."""
    twos = ((n - 1) & (1 - n)).bit_length() - 1
    for a in (2, 3, 5, 7):
        x = pow(a, (n - 1) >> twos, n)
        if x == 1:
            continue
        for _ in range(twos):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


def screening_prime(denominators: Iterable[int]) -> int:
    """The largest prime p <= PRIME that divides none of the denominators:
    every rational whose denominator divides their product has a residue,
    and p < 2^31 keeps the int64 bounds of `matmul`, `batched_rank` and
    `batched_kernels`."""
    common = math.lcm(*denominators)
    p = PRIME
    while not _is_prime(p) or common % p == 0:
        p -= 2
    return p


def fraction_to_modp(value: Fraction, p: int) -> int:
    if value.denominator == 1:
        return value.numerator % p
    den = value.denominator % p
    if den == 0:
        raise ModPUnavailableError(f"denominator divisible by {p}")
    return (value.numerator % p) * pow(den, -1, p) % p


def fraction_rows_to_modp(rows: Sequence[Sequence[Fraction]], p: int
                          ) -> np.ndarray:
    """Residues of a rational matrix; raises ModPUnavailableError when p
    divides a denominator."""
    import numpy as np
    # most entries of the screens' matrices are zero
    return np.array([[fraction_to_modp(x, p) if x else 0 for x in row]
                     for row in rows], dtype=np.int64)


def shift_index(monos: Sequence[tuple], units: Sequence[tuple],
                rows: Sequence[tuple]) -> np.ndarray:
    """Gather index of f -> u*f, (len(units), len(rows)).

    Entry [s, r] is the position in monos of rows[r] - units[s], or
    len(monos) when that monomial is not in monos: the coefficient of
    rows[r] in u*b is the coefficient of rows[r] - u in b.
    """
    import numpy as np
    index = {m: i for i, m in enumerate(monos)}
    absent = len(monos)
    return np.array([[index.get(tuple(a - b for a, b in zip(row, u)), absent)
                      for row in rows] for u in units],
                    dtype=np.intp).reshape(len(units), len(rows))


def gather(residues: np.ndarray, index: np.ndarray) -> np.ndarray:
    """residues[index], where index len(residues) selects a zero row."""
    import numpy as np
    padded = np.vstack([residues,
                        np.zeros((1,) + residues.shape[1:], dtype=np.int64)])
    return padded[index]


def shifted_stack(residues: np.ndarray, monos: Sequence[tuple],
                  units: Sequence[tuple], rows: Sequence[tuple]) -> np.ndarray:
    """Residues of f -> u*f on a basis, one (len(rows), C) matrix per unit u.

    residues[i, j] is the residue of the coefficient of monos[i] in basis
    element j, (len(monos), C); the stack is a gather of its rows.
    """
    return gather(residues, shift_index(monos, units, rows))


def shift_matrices(monos: Sequence[tuple], units: Sequence[tuple],
                   rows: Sequence[tuple]) -> np.ndarray:
    """The 0/1 matrices of f -> u*f on the monomial basis `monos`."""
    import numpy as np
    return shifted_stack(np.eye(len(monos), dtype=np.int64), monos, units, rows)


def embed(rows: np.ndarray, positions: Sequence[int], width: int) -> np.ndarray:
    """The residue rows (N, k) written into columns `positions` of an
    (N, width) array of zeros."""
    import numpy as np
    out = np.zeros((len(rows), width), dtype=np.int64)
    out[:, positions] = rows
    return out


def scaled_rows_to_modp(rows: Sequence[Sequence[int]], scales: Sequence[int],
                        p: int) -> np.ndarray:
    """Residues of rows[i][j] / scales[j], one row per entry of rows, for
    scales that p does not divide.

    Rows that fit int64 are reduced in numpy; otherwise each integer is
    reduced mod p as a Python integer first, so large numerators cannot
    overflow (two residues multiply below 2^62).
    """
    import numpy as np
    inverses = np.array([pow(s, -1, p) for s in scales], dtype=np.int64)
    try:
        reduced = np.array(rows, dtype=np.int64) % p
    except OverflowError:
        reduced = (np.array(rows, dtype=object) % p).astype(np.int64)
    return reduced.reshape(len(rows), len(inverses)) * inverses % p


def matmul(A: np.ndarray, B: np.ndarray, p: int) -> np.ndarray:
    """A @ B over Z/p for residue arrays; B may be a stack (..., K, C).

    A is split as hi * 2^16 + lo, so each product of a half and a residue
    stays below 2^47 and a sum over K < 2^16 terms below 2^63.
    """
    import numpy as np
    if A.shape[-1] >= 1 << _HALF:
        raise ValueError("inner dimension too large for an exact int64 product")
    hi, lo = A >> _HALF, A & ((1 << _HALF) - 1)
    return ((hi @ B % p << _HALF) + lo @ B) % p


@functools.lru_cache(maxsize=None)
def compressor(rows: int, cols: int, p: int) -> np.ndarray | None:
    """The fixed (cols+2) x rows compression matrix of a reject-only screen,
    built once per shape and prime and read-only.

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
        G[:, r] = G[:, r - 1] * nodes % p
    G.setflags(write=False)
    return G


def batched_kernels(A: np.ndarray, B: np.ndarray, p: int
                    ) -> list[tuple[np.ndarray, np.ndarray]]:
    """(kernel basis of A[i], P_i*B[i]) over Z/p for each matrix of a stack,
    P_i a basis of the left kernel of A[i]; A is (N, R, C), B (N, R, k).

    One fraction-free Gauss-Jordan elimination of the stack [A | B],
    vectorized over N and pivoting in A only, with no row swaps: at column
    j the pivot row of each matrix is its first row not yet a pivot row
    with a nonzero entry there, and every other row becomes
    row*pivot - factor*pivot_row, each product below 2^62 (a matrix
    without one gets pivot 1 and factor 0, so its step changes nothing).
    The pivot row keeps its place, scaled by the pivot.  The kernel basis
    is one row per free column, ascending, 1 there and 0 on the other free
    columns; the rows that never became pivot rows are zero on A, and their
    B part is P_i*B[i] (B = I gives P_i itself).
    """
    import numpy as np
    N, R, C = A.shape
    M = np.concatenate([A, B], axis=2) % p
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
        M %= p
        unused[mat_idx[has], row[has]] = False
        pivot_row[has, j] = row[has]
    out = []
    for i in range(N):
        pivots = (pivot_row[i] >= 0).nonzero()[0]
        free = (pivot_row[i] < 0).nonzero()[0]
        kernel = np.zeros((len(free), C), dtype=np.int64)
        if len(free):
            rows = pivot_row[i, pivots]
            inverses = np.array([pow(int(v), -1, p)
                                 for v in M[i, rows, pivots]], dtype=np.int64)
            kernel[range(len(free)), free] = 1
            kernel[:, pivots] = ((p - M[i][np.ix_(rows, free)].T)
                                 * inverses % p)
        out.append((kernel, M[i, unused[i], C:]))
    return out


def rational_reconstruction(residue: int, p: int) -> Fraction | None:
    """The n/d with |n|, d <= floor(sqrt(p/2)) and n = residue*d mod p, or
    None when there is none (Wang 1981: the extended Euclidean algorithm on
    p and the residue, stopped at the first remainder within the bound,
    which makes n/d unique as 2*|n|*d < p)."""
    bound = math.isqrt(p // 2)
    r0, r1 = p, residue % p
    t0, t1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if abs(t1) > bound or math.gcd(r1, t1) != 1:
        return None
    return Fraction(r1, t1)


def batched_rank(mats: np.ndarray, p: int) -> np.ndarray:
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
    V = np.ascontiguousarray(V % p)
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
        rest %= p
    return rank


def batched_combination(base: np.ndarray, directions: np.ndarray,
                        coefficients: np.ndarray, p: int) -> np.ndarray:
    """Stack base - sum_k coefficients[:, k] * directions[k] over Z/p.

    base: (R, C); directions: (S, R, C); coefficients: (N, S) residues.
    Returns (N, R, C).
    """
    import numpy as np
    coefficients = np.asarray(coefficients, dtype=np.int64) % p
    if directions.shape[0] == 0:
        out = np.broadcast_to(base % p,
                              (coefficients.shape[0],) + base.shape)
        return np.ascontiguousarray(out)
    acc = np.zeros((coefficients.shape[0],) + base.shape, dtype=np.int64)
    for k in range(directions.shape[0]):
        acc = (acc + coefficients[:, k, None, None]
               * (directions[k] % p)) % p
    return (base % p - acc) % p
