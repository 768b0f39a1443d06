"""Rank computations modulo a prime: screens, kernel bounds, sieve blocks.

Rank over Z/p never exceeds rank over Q, so "full column rank mod p" is a
sound proof of a trivial rational kernel, and the kernel dimension mod p is
an upper bound on the rational one.  A candidate that is rank-deficient mod p
has its kernel basis mod p lifted by `rational_reconstruction` and checked
exactly, or is solved by exact rational elimination where a lift fails, so
a chance rank drop mod p costs time but never correctness.  Everything
here is deterministic: no randomness, fixed pivot order, and one prime p
per search, chosen by `screening_prime` to divide no numerator and no
denominator of its input's coefficients.  The graded sieve that picks it
owns every table reduced mod p and passes p to every function here that
computes mod p.

Every rank and kernel mod p comes from one fraction-free Gauss-Jordan
elimination (`_eliminate`): `batched_rank` counts its pivot columns and
`batched_kernels` reads its kernels and cokernels off it.  The screens'
matrices are tall and thin (many more rows than columns), so a
reject-only screen first compresses each (R, C) matrix M with R > C to
the square G*M, for a fixed C x R matrix G (`compressor`):
rank(G*M) <= rank(M) over Z/p, so a nonsingular G*M proves the rejection.
`proves_full_rank` tries that proof without a pivot search, and only the
values it leaves open need their full matrix ranked.  The full operator's
kernels are taken on G*M too: one larger than M's only makes a lift fail.

The screens' matrices are combinations base - sum_k c_k * D_k of residue
arrays (`batched_combination`).  Centred residues, in (-p/2, p/2], multiply
below 2^60 for p < 2^31, so seven products and a base sum below 2^63 and
the stack is reduced mod p once per seven terms, however large the
rationals behind the residues.  The screens reduce their int64 stacks as
a - (a // p) * p (`_reduce`), which numpy computes faster than a % p.

Multiplication by a monomial u is a gather: the coefficient of rows[r] in
u*b is that of rows[r] - u in b (`shift_index`, `gather`), so neither the
screens' direction stacks nor the sieve's cofactor blocks form a product.
The full operator's directions G*(u*m) are gathered the same way, as the
column of G at the row of u*m, or zero when u*m is not a row.

The sieve's kernels and cokernels come from one elimination per stack of
same-shaped blocks (`batched_kernels`), which pivots without row swaps.
Its pivot columns are the column rank profile of A (column j is a pivot
exactly when it is independent of the columns before it), so
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
rank mod p (as a block with no columns has, at the sieve's level 0, where
P is the identity), otherwise by `darboux._GradedSieve._kernel`, which
lifts A's kernel basis mod p with `rational_reconstruction` and checks
each lift exactly (the lifts are independent, being 1 and 0 on the free
columns, so rank_Q(A) <= rank_p(A), and rank_p never exceeds rank_Q),
and failing that returns A's exact kernel (`darboux.operator_kernel`),
whose size decides.  A kernel mod p that only has
to contain the reductions of the rational solutions, such as the kernel
of X_M - tau to which the sieve's level 0 narrows each W, needs no such
proof.

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
_TERMS = 7         # centred products `batched_combination` sums per reduction


class ModPUnavailableError(ArithmeticError):
    """A denominator is divisible by the prime; `screening_prime` avoids it."""


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


def screening_prime(integers: Iterable[int]) -> int:
    """The largest prime p <= PRIME that divides none of the (nonzero)
    integers.  Given every numerator and denominator of a problem's
    coefficients, every rational whose denominator divides a product of
    them has a residue and no coefficient vanishes mod p, so the problem
    mod p has the same terms; p < 2^31 keeps the int64 bounds of `matmul`,
    `batched_combination`, `proves_full_rank` and `_eliminate`."""
    common = math.lcm(*integers)
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


def scaled_rows_to_modp(rows: Sequence[Sequence[int]], scales: Sequence[int],
                        p: int) -> np.ndarray:
    """Residues of rows[i][j] / scales[j], one row per entry of rows, for
    scales that p does not divide.

    Each integer is reduced mod p as a Python integer first, so large
    numerators cannot overflow (two residues multiply below 2^62).
    """
    import numpy as np
    inverses = np.array([pow(s, -1, p) for s in scales], dtype=np.int64)
    reduced = (np.array(rows, dtype=object) % p).astype(np.int64)
    return reduced.reshape(len(rows), len(inverses)) * inverses % p


def _reduce(a: np.ndarray, p: int, scratch: np.ndarray | None = None
            ) -> np.ndarray:
    """a %= p in place, for an int64 array a, using scratch (a's shape)
    for the quotients when given.  numpy divides by a scalar without a
    hardware division, so a - (a // p) * p takes about half the time of
    a % p."""
    import numpy as np
    q = np.floor_divide(a, p, out=scratch)
    q *= p
    a -= q
    return a


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
    """The fixed cols x rows compression matrix of a reject-only screen,
    built once per shape and prime and read-only.

    A Vandermonde matrix on the nodes 2 .. cols+1, whose row a is
    (a+2)^0, (a+2)^1, ... mod p; None when rows <= cols, where compressing
    would save nothing.  Soundness needs nothing of G, since
    rank(G*M) <= rank(M) for every G; a Vandermonde G keeps the rank of a
    generic full-rank M, so few values need their full matrix ranked.
    """
    import numpy as np
    if rows <= cols:
        return None
    G = np.ones((cols, rows), dtype=np.int64)
    nodes = np.arange(2, cols + 2, dtype=np.int64)
    for r in range(1, rows):
        G[:, r] = G[:, r - 1] * nodes % p
    G.setflags(write=False)
    return G


def proves_full_rank(mats: np.ndarray, p: int) -> np.ndarray:
    """For each square matrix of a stack (N, C, C) of residues, whether its
    elimination proves it nonsingular over Z/p.

    Fraction-free elimination with no row exchanges: step i takes (i, i) as
    the pivot and updates only the trailing block, each entry becoming
    entry*pivot - (its row's entry in column i)*(pivot row's entry in its
    column), a product below 2^62.  With every pivot nonzero each step is
    invertible and leaves a triangular matrix with a nonzero diagonal, so
    True is a proof.  A zero pivot (a singular leading block) proves
    nothing: False, whatever the matrix's rank, so the caller ranks it
    another way.
    """
    import numpy as np
    A = _reduce(np.array(mats, dtype=np.int64), p)
    N, C, _ = A.shape
    proved = np.ones(N, dtype=bool)
    for i in range(C):
        pivot = A[:, i, i]
        proved &= pivot != 0
        if i == C - 1:
            break
        trailing = A[:, i + 1:, i + 1:]
        trailing *= pivot[:, None, None]
        trailing -= A[:, i + 1:, i, None] * A[:, i, None, i + 1:]
        _reduce(trailing, p)
    return proved


def _eliminate(M: np.ndarray, C: int, p: int
               ) -> tuple[np.ndarray, np.ndarray]:
    """Fraction-free Gauss-Jordan elimination of a stack M (N, R, C + k) of
    residues in place, pivoting in its first C columns only, with no row
    swaps: at column j the pivot row of each matrix is its first row not
    yet a pivot row with a nonzero entry there, and every other row becomes
    row*pivot - factor*pivot_row, each product below 2^62 (a matrix
    without one gets pivot 1 and factor 0, so its step changes nothing).
    The pivot row keeps its place, scaled by the pivot.

    The pivot row of step j is zero left of column j (cleared there, or
    unused where a column had no pivot), so the step would only scale those
    columns by the pivot.  It updates columns j onwards alone, and each
    column left of C is scaled once at the end by the pivots of the steps
    after it, which leaves M as steps over every column would, so the
    kernel read-out may divide a row by its pivot entry.

    Returns pivot_row (N, C), the pivot row of each column or -1 where the
    column is free, and unused (N, R), the rows that never became pivot
    rows.  A wide matrix needs no special case: once its rows are used up,
    each remaining column finds no candidate, so its step changes nothing.
    """
    import numpy as np
    N, R, _ = M.shape
    mat_idx = np.arange(N)
    unused = np.ones((N, R), dtype=bool)
    pivot_row = np.full((N, C), -1)
    scale = np.ones((C, N), dtype=np.int64)   # each step's pivot, or 1
    # columns outermost, so that the columns from j on are one block; M's
    # own memory is the scratch space until T is copied back
    T = M.transpose(2, 0, 1).copy()
    scratch = M.reshape(T.shape)
    for j in range(C):
        column = T[j]
        candidates = (column != 0) & unused
        has = candidates.any(axis=1)
        if not has.any():
            continue
        row = candidates.argmax(axis=1)
        right = T[j:]
        pivot = right[:, mat_idx, row]
        factors = np.where(has[:, None], column, 0)
        factors[mat_idx, row] = 0
        scale[j] = np.where(has, pivot[0], 1)
        right *= scale[j, :, None]
        product = np.multiply(pivot[:, :, None], factors, out=scratch[j:])
        right -= product
        _reduce(right, p, product)
        unused[mat_idx[has], row[has]] = False
        pivot_row[has, j] = row[has]
    # column c still lacks the pivots of steps c+1 .. C-1
    for c in range(C - 2, -1, -1):
        scale[c] = scale[c + 1] * scale[c] % p
    left = T[:max(C - 1, 0)]
    left *= scale[1:, :, None]
    _reduce(left, p)
    M[...] = T.transpose(1, 2, 0)
    return pivot_row, unused


def batched_kernels(A: np.ndarray, B: np.ndarray, p: int
                    ) -> list[tuple[np.ndarray, np.ndarray]]:
    """(kernel basis of A[i], P_i*B[i]) over Z/p for each matrix of a stack,
    P_i a basis of the left kernel of A[i]; A is (N, R, C), B (N, R, k).

    One elimination of the stack [A | B] pivoting in A (`_eliminate`).
    The kernel basis is one row per free column, ascending, 1 there and 0
    on the other free columns; the rows that never became pivot rows are
    zero on A, and their B part is P_i*B[i] (B = I gives P_i itself).
    """
    import numpy as np
    N, R, C = A.shape
    M = np.concatenate([A, B], axis=2) % p
    pivot_row, unused = _eliminate(M, C, p)
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
    """Ranks of a stack of matrices (N, R, C) over Z/p, vectorized over N:
    the number of pivot columns `_eliminate` finds.  Without column swaps
    a column is a pivot exactly when it is independent of the columns
    before it, so the count is the rank, exact mod p and independent of
    batch order.  The reject-only screens call it only on the values that
    `proves_full_rank` leaves open and on matrices with no more rows than
    columns, which they do not compress.
    """
    import numpy as np
    A = np.asarray(mats, dtype=np.int64)
    if A.ndim != 3:
        raise ValueError("expected a (N, R, C) stack")
    pivot_row, _ = _eliminate(A % p, A.shape[2], p)
    return (pivot_row >= 0).sum(axis=1, dtype=np.int64)


def _centred(residues: np.ndarray, p: int) -> np.ndarray:
    """The residues of an int64 array below 2^62 in magnitude, as integers
    in (-p/2, p/2]: one new array, reduced in place by a % p, where
    `_reduce` would hold a second one."""
    import numpy as np
    half = p // 2
    centred = residues + half
    np.remainder(centred, p, out=centred)
    centred -= half
    return centred


def batched_combination(base: np.ndarray, directions: np.ndarray,
                        coefficients: np.ndarray, p: int) -> np.ndarray:
    """Stack base - sum_k coefficients[:, k] * directions[k] over Z/p.

    base: (R, C); directions: (S, R, C); coefficients: (N, S) residues.
    Returns (N, R, C), each entry in [0, p).  Every factor is centred, so
    each product is below 2^60 in magnitude, and `_TERMS` of them added
    to an entry in (-p, p) stay below 2^63: the stack is reduced once per
    `_TERMS` directions (and once when there are none).
    """
    import numpy as np
    coefficients = _centred(np.asarray(coefficients, dtype=np.int64), p)
    directions = np.asarray(directions, dtype=np.int64)
    acc = np.empty((coefficients.shape[0],) + base.shape, dtype=np.int64)
    acc[:] = _centred(np.asarray(base, dtype=np.int64), p)
    term = np.empty_like(acc)
    S = directions.shape[0]
    for start in range(0, max(S, 1), _TERMS):
        for k in range(start, min(start + _TERMS, S)):
            np.multiply(coefficients[:, k, None, None],
                        _centred(directions[k], p), out=term)
            acc -= term
        _reduce(acc, p, term)
    return acc
