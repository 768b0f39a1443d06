"""Batched rank computations modulo a fixed prime: screens and kernel bounds.

Rank over Z/p never exceeds rank over Q, so "full column rank mod p" is a
sound proof of a trivial rational kernel, and the kernel dimension mod p is
an upper bound on the rational one.  A candidate that is rank-deficient mod p
is either solved by exact rational elimination or, when as many independent
rational solutions as its kernel dimension mod p are already known, has those
as its kernel.  Either way a chance rank drop mod p costs time but never
correctness.  Everything here is deterministic: no randomness, fixed prime,
fixed pivot order.

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


class ModPUnavailableError(ArithmeticError):
    """A denominator is divisible by the prime; caller must use exact arithmetic."""


def fraction_to_modp(value: Fraction) -> int:
    den = value.denominator % PRIME
    if den == 0:
        raise ModPUnavailableError(f"denominator divisible by {PRIME}")
    return (value.numerator % PRIME) * pow(den, PRIME - 2, PRIME) % PRIME


def fraction_rows_to_modp(rows: Sequence[Sequence[Fraction]]) -> np.ndarray:
    import numpy as np
    return np.array([[fraction_to_modp(x) for x in row] for row in rows],
                    dtype=np.int64)


def fraction_stack_to_modp(matrices: Sequence[Sequence[Sequence[Fraction]]],
                           shape: tuple[int, ...]) -> np.ndarray:
    """Residues of a stack of `shape` matrices, (len(matrices),) + shape."""
    import numpy as np
    stack = np.zeros((len(matrices),) + shape, dtype=np.int64)
    for k, matrix in enumerate(matrices):
        stack[k] = fraction_rows_to_modp(matrix)
    return stack


def scaled_rows_to_modp(rows: Sequence[Sequence[int]],
                        scales: Sequence[int]) -> np.ndarray:
    """Residues of rows[i][j] / scales[j], one row per entry of rows.

    Each integer is reduced mod p as a Python integer first, so large
    numerators cannot overflow int64 (two residues multiply below 2^62);
    raises ModPUnavailableError when p divides a scale.
    """
    import numpy as np
    inverses = np.array([fraction_to_modp(Fraction(1, s)) for s in scales],
                        dtype=np.int64)
    reduced = np.array(rows, dtype=object).reshape(
        len(rows), len(inverses)) % PRIME
    return reduced.astype(np.int64) * inverses % PRIME


def batched_rank(mats: np.ndarray) -> np.ndarray:
    """Ranks of a stack of matrices (N, R, C) over Z/p, vectorized over N.

    Fraction-free row updates (row*pivot - factor*pivot_row) keep every value
    in [0, p); pivots are chosen as the first eligible nonzero row, so the
    result does not depend on batch order.
    """
    import numpy as np
    A = np.ascontiguousarray(np.asarray(mats, dtype=np.int64) % PRIME)
    if A.ndim != 3:
        raise ValueError("expected a (N, R, C) stack")
    N, R, C = A.shape
    if N == 0 or R == 0 or C == 0:
        return np.zeros(N, dtype=np.int64)
    lead = np.zeros(N, dtype=np.int64)
    rows_idx = np.arange(R)
    mat_idx = np.arange(N)
    for col in range(C):
        if (lead >= R).all():
            break
        colv = A[:, :, col]
        eligible = (rows_idx[None, :] >= lead[:, None]) & (colv != 0)
        has = eligible.any(axis=1)
        if not has.any():
            continue
        piv = eligible.argmax(axis=1)
        sel = mat_idx[has]
        r0 = lead[sel]
        p0 = piv[sel]
        tmp = A[sel, r0, :].copy()
        A[sel, r0, :] = A[sel, p0, :]
        A[sel, p0, :] = tmp
        sub = A[sel]
        k = len(sel)
        krange = np.arange(k)
        pivrow = sub[krange, r0, :]
        pivval = pivrow[:, col]
        factors = sub[:, :, col].copy()
        factors[krange, r0] = 0
        updated = (sub * pivval[:, None, None]
                   - factors[:, :, None] * pivrow[:, None, :]) % PRIME
        keep = rows_idx[None, :] <= r0[:, None]
        A[sel] = np.where(keep[:, :, None], sub, updated)
        lead[sel] = r0 + 1
    return lead


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
