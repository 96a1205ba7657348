"""Exact linear algebra over the rationals.

Matrices are tuples of tuples of Fraction; vectors are tuples of Fraction.
Everything is computed by exact Gaussian elimination, never floats.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

FracMatrix = tuple
FracVector = tuple


def to_matrix(rows: Iterable[Iterable]) -> FracMatrix:
    return tuple(tuple(Fraction(entry) for entry in row) for row in rows)


def identity(n: int) -> FracMatrix:
    return tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)
    )


def zero_matrix(rows: int, cols: int) -> FracMatrix:
    return tuple(tuple(Fraction(0) for _ in range(cols)) for _ in range(rows))


def mat_mul(a: FracMatrix, b: FracMatrix, cols: int | None = None) -> FracMatrix:
    """a b.  A matrix with no rows does not record its width, so when b has
    none its width must be given as cols."""
    if b:
        cols = len(b[0])
    elif cols is None:
        raise ValueError("b has no rows: pass its width as cols")
    if a and len(a[0]) != len(b):
        raise ValueError(f"shape mismatch: {len(a)}x{len(a[0])} @ {len(b)}x{cols}")
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0)) for j in range(cols))
        for i in range(len(a))
    )


def kronecker(a: FracMatrix, b: FracMatrix) -> FracMatrix:
    """The Kronecker product, over any ring (forms passes TrigPoly entries)."""
    rows = []
    for ra in a:
        for rb in b:
            rows.append(tuple(x * y for x in ra for y in rb))
    return tuple(rows)


def _echelon(rows: list) -> list:
    """In-place reduction to row echelon form; returns the pivot columns."""
    pivots = []
    r = 0
    cols = len(rows[0]) if rows else 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = Fraction(1) / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def rank(a: FracMatrix) -> int:
    if not a or not a[0]:
        return 0
    rows = [list(row) for row in a]
    return len(_echelon(rows))


def solve_combination(columns: Sequence[FracVector], target: FracVector):
    """Coefficients expressing target as a linear combination of the given
    column vectors, or None when target is outside their span.  Free
    coefficients are set to zero."""
    m = len(target)
    if any(len(col) != m for col in columns):
        raise ValueError("vector length mismatch")
    rows = [[Fraction(col[i]) for col in columns] + [Fraction(target[i])] for i in range(m)]
    if not rows:
        return [Fraction(0)] * len(columns)
    pivots = _echelon(rows)
    n = len(columns)
    if n in pivots:
        return None
    coeffs = [Fraction(0)] * n
    for r, c in enumerate(pivots):
        coeffs[c] = rows[r][n]
    return coeffs


def in_span(columns: Sequence[FracVector], target: FracVector) -> bool:
    return solve_combination(columns, target) is not None
