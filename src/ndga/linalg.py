"""Exact linear algebra over the rationals.

Matrices are tuples of tuples of exact rationals; vectors are tuples of
them.  An integral entry is held as an int and only a true fraction as a
Fraction, so the many all-integer matrices multiply at int speed.  Rank and
solving use one fraction-free elimination over the integers, never floats.
Inside scalar.work_budget() each entry product and entry update is charged
as one term product.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from . import scalar

FracMatrix = tuple
FracVector = tuple


def _exact(value):
    """An exact rational as an int when it is integral, else as a Fraction."""
    value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def to_matrix(rows: Iterable[Iterable]) -> FracMatrix:
    return tuple(tuple(_exact(entry) for entry in row) for row in rows)


def identity(n: int) -> FracMatrix:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def zero_matrix(rows: int, cols: int) -> FracMatrix:
    return tuple((0,) * cols for _ in range(rows))


def mat_mul(a: FracMatrix, b: FracMatrix, cols: int | None = None) -> FracMatrix:
    """a b.  A matrix with no rows does not record its width, so when b has
    none its width must be given as cols."""
    if b:
        cols = len(b[0])
    elif cols is None:
        raise ValueError("b has no rows: pass its width as cols")
    if a and len(a[0]) != len(b):
        raise ValueError(f"shape mismatch: {len(a)}x{len(a[0])} @ {len(b)}x{cols}")
    scalar.charge(len(a) * len(b) * cols)
    columns = tuple(zip(*b)) or ((),) * cols
    return tuple(tuple(sum(x * y for x, y in zip(row, column)) for column in columns)
                 for row in a)


def kronecker(a: FracMatrix, b: FracMatrix) -> FracMatrix:
    """The Kronecker product."""
    rows = []
    for ra in a:
        for rb in b:
            rows.append(tuple(x * y for x in ra for y in rb))
    return tuple(rows)


def _eliminate(rows: list) -> list:
    """Fraction-free Gauss-Jordan elimination in place; returns the pivot
    columns.  Each row is first cleared of denominators, which changes
    neither the rank nor the span.  Each update (p*x - f*y) // prev divides
    exactly, since every entry stays a minor of the cleared matrix (Bareiss,
    Math. Comp. 22, 1968).  Row r ends nonzero at the r-th pivot column
    and zero at every other pivot column."""
    for i, row in enumerate(rows):
        den = math.lcm(*(x.denominator for x in row))
        rows[i] = [x.numerator * (den // x.denominator) for x in row]
    pivots = []
    prev = 1
    cols = len(rows[0]) if rows else 0
    for c in range(cols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        scalar.charge((len(rows) - 1) * cols)
        rows[r], rows[pivot] = rows[pivot], rows[r]
        top = rows[r]
        p = top[c]
        for i, row in enumerate(rows):
            if i != r:
                f = row[c]
                rows[i] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        prev = p
        pivots.append(c)
        if len(pivots) == len(rows):
            break
    return pivots


def rank(a: FracMatrix) -> int:
    return len(_eliminate([list(row) for row in a]))


def solve_combination(columns: Sequence[FracVector], target: FracVector):
    """Coefficients expressing target as a linear combination of the given
    column vectors, or None when target is outside their span.  Free
    coefficients are set to zero."""
    m = len(target)
    if any(len(col) != m for col in columns):
        raise ValueError("vector length mismatch")
    rows = [[col[i] for col in columns] + [target[i]] for i in range(m)]
    n = len(columns)
    pivots = _eliminate(rows)
    if n in pivots:
        return None
    coeffs = [Fraction(0)] * n
    for row, c in zip(rows, pivots):
        coeffs[c] = Fraction(row[n], row[c])
    return coeffs


def in_span(columns: Sequence[FracVector], target: FracVector) -> bool:
    return solve_combination(columns, target) is not None
