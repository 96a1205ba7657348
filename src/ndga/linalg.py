"""Exact linear algebra over the rationals, on sparse rows.

A matrix is held as its nonzero rows, {row: {col: value}}, the shape of
forms' row index; its shape is its caller's to know, and {} is the zero
matrix of any shape.  Entries are ints where the input is integral, so the
many all-integer matrices multiply at int speed.

A product is formed from the nonzero entries alone (Gustavson, ACM TOMS
4(3), 1978).  Rank and solving share one fraction-free elimination over the
integers: rows are cleared of denominators, each step pivots on the row
with the fewest entries (Markowitz, Management Sci. 3, 1957) at its least
column, and only the rows holding that column are updated, each as
(p row - f top) // gcd, so that every row stays primitive.

Inside scalar.work_budget() a product is charged one term product per pair
of nonzero entries it multiplies, before it forms any, and each pivot the
entries its updates write, before it makes them: for each updated row, the
union of its support and the pivot row's.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from . import scalar

Rows = dict  # {row: {col: value}}, the nonzero entries of a matrix by row


def _exact(value):
    """An exact rational as an int when it is integral, else as a Fraction."""
    value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def to_rows(matrix: Iterable[Iterable]) -> Rows:
    """The nonzero entries of a dense matrix, each an exact rational."""
    rows = {r: {c: x for c, x in enumerate(map(_exact, row)) if x} for r, row in enumerate(matrix)}
    return {r: cells for r, cells in rows.items() if cells}


def mat_mul(a: Rows, b: Rows) -> Rows:
    """The product a b."""
    scalar.charge(sum(len(b[k]) for row in a.values() for k in row if k in b))
    product = {}
    for r, row in a.items():
        cells = {}
        for k, x in row.items():
            if k in b:
                for c, y in b[k].items():
                    cells[c] = cells.get(c, 0) + x * y
        if not all(cells.values()):
            cells = {c: value for c, value in cells.items() if value}
        if cells:
            product[r] = cells
    return product


def _primitive(row: dict) -> dict:
    """An integer row divided by the gcd of its entries."""
    g = math.gcd(*row.values())
    return row if g == 1 else {c: x // g for c, x in row.items()}


def _eliminate(rows: Iterable[Mapping]) -> list:
    """The pivots of a row echelon form of the given rows, in order, as
    (pivot column, primitive integer row) pairs; the rows are not changed.
    A pivot row holds no column of an earlier pivot, and the rank of the
    rows is the number of pivots.  Rows are numbered as they enter; a heap
    of (length, number) picks the pivot row, ties going to the oldest, and
    a list of the numbers of the rows holding each column, read once when
    the column is pivoted, finds the rows to update, so a pivot costs its
    updates and not a scan of every row."""
    active = {}
    for key, row in enumerate(rows):
        if not all(type(x) is int for x in row.values()):
            den = math.lcm(*(x.denominator for x in row.values()))
            row = {c: x.numerator * (den // x.denominator) for c, x in row.items()}
        active[key] = _primitive(row)
    holders = {}
    for key, row in active.items():
        for col in row:
            holders.setdefault(col, []).append(key)
    queue = [(len(row), key) for key, row in active.items()]
    heapq.heapify(queue)
    fresh = len(active)
    pivots = []
    while queue:
        top = active.pop(heapq.heappop(queue)[1], None)
        if top is None:
            continue  # a row updated away; its entry stayed in the heap
        c = min(top)
        p = top[c]
        # a pivoted column is in no later row; rows that left stay listed
        held = [active.pop(key) for key in holders.pop(c) if key in active]
        extra = [top.keys() - row.keys() for row in held]
        scalar.charge(sum(map(len, held)) + sum(map(len, extra)))
        for row, more in zip(held, extra):
            g = math.gcd(p, row[c])
            a, f = p // g, row[c] // g
            cells = {col: a * x - f * top.get(col, 0) for col, x in row.items()}
            for col in more:
                cells[col] = -f * top[col]
            if not all(cells.values()):
                cells = {col: x for col, x in cells.items() if x}
            if cells:
                cells = active[fresh] = _primitive(cells)
                for col in cells:
                    holders[col].append(fresh)
                heapq.heappush(queue, (len(cells), fresh))
                fresh += 1
        pivots.append((c, top))
    return pivots


def rank(a: Rows) -> int:
    return len(_eliminate(a.values()))


def solve_combination(vectors: Sequence[Mapping], target: Mapping):
    """Coefficients expressing target as a linear combination of the given
    vectors, or None when target is outside their span.  A vector is held
    as its nonzero entries {index: value}, indices of any hashable kind.
    Free coefficients are set to zero."""
    n = len(vectors)
    equations = {}
    for j, vector in enumerate([*vectors, target]):
        for index, value in vector.items():
            if value:
                equations.setdefault(index, {})[j] = _exact(value)
    pivots = _eliminate(equations.values())
    # a pivot is its row's least column, so column n is one only in a row
    # that reads 0 = (nonzero)
    if any(c == n for c, _ in pivots):
        return None
    # a pivot row holds no earlier pivot's column: solve from the last
    coeffs = [Fraction(0)] * n
    for c, row in reversed(pivots):
        scalar.charge(len(row))
        rest = row.get(n, 0) - sum(x * coeffs[j] for j, x in row.items() if j not in (c, n))
        coeffs[c] = Fraction(rest, row[c])
    return coeffs


def in_span(vectors: Sequence[Mapping], target: Mapping) -> bool:
    return solve_combination(vectors, target) is not None
