"""Finite-dimensional N-complexes over exact rationals.

A complex is a finite sequence of rational matrices d_i: V^i -> V^(i+1)
whose every N-fold composition vanishes.  Each map is held as linalg holds
a matrix, as its nonzero rows {row: {col: value}}, each entry an int when
integral, else a Fraction; its shape comes from the complex's dims.
Generalized cohomology in the window 1 <= p <= N-1:

    H(p, i) = Ker(d^p : V^i -> V^(i+p)) / Im(d^(N-p) : V^(i-N+p) -> V^i)

with out-of-range degrees read as zero spaces.  Every answer here is read
from one rank table per complex, r(i, j) = rank(d^(j-i): V^i -> V^j) for
0 < j - i <= N, built once from linalg's sparse products and its
fraction-free elimination:

    valid            no entry of length N
    dim H(p, i)      dim V^i - r(i, i+p) - r(i-N+p, i)
    nilpotency       1 + the longest entry

The tensor product with the Koszul sign of factors of nilpotency a and b
has nilpotency exactly a + b - 1, or a + b - 2 when a and b are both even;
so N + M - 1 bounds it for factors of orders N and M, and N + M - 2 when
N and M are both even.

The table charges the current scalar.work_budget() scope what linalg does:
the nonzero pairs each product multiplies and the entries each elimination
step writes, so a sparse complex of large dimension costs only its work.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Tuple

from . import linalg, scalar, textfile


# Largest order or dimension a complex file may declare, and most lines of
# a cohomology table.  The budget bounds the work on the maps, charging
# nonzero entries alone, but a file still writes n^2 cells for a map of
# dimension n.  A tensor product is not capped: its nilpotency is read from
# the factors, and it is never built.
MAX_SIZE = 4096


class ComplexError(Exception):
    pass


@dataclass(frozen=True)
class FiniteNComplex:
    """order: the nilpotency exponent N; degrees lo..lo+len(dims)-1 with
    maps[t] sending degree lo+t to lo+t+1 (so len(maps) = len(dims) - 1),
    each as its nonzero rows: rows below dims[t+1], columns below
    dims[t]."""

    order: int
    lo: int
    dims: tuple
    maps: tuple = field(hash=False)  # dicts, so the hash reads the other fields

    def __post_init__(self):
        if self.order < 2:
            raise ComplexError("order must be at least 2")
        if not self.dims:
            raise ComplexError("a complex needs at least one degree")
        if len(self.maps) != len(self.dims) - 1:
            raise ComplexError("need exactly one map per consecutive degree pair")
        for t, rows in enumerate(self.maps):
            height, width = self.dims[t + 1], self.dims[t]
            if rows and not (0 <= min(rows) <= max(rows) < height and all(
                    row and all(row.values()) and 0 <= min(row) <= max(row) < width
                    for row in rows.values())):
                raise ComplexError(f"the map out of degree {self.lo + t} holds a zero entry "
                                   f"or a cell outside its {height}x{width} shape")

    @property
    def hi(self) -> int:
        return self.lo + len(self.dims) - 1

    def dim(self, degree: int) -> int:
        if self.lo <= degree <= self.hi:
            return self.dims[degree - self.lo]
        return 0

    def map_at(self, degree: int) -> linalg.Rows:
        """d: V^degree -> V^(degree+1), zero outside the stored range."""
        t = degree - self.lo
        return self.maps[t] if 0 <= t < len(self.maps) else {}

    @functools.cached_property
    def ranks(self) -> dict:
        """The rank table {(i, j): rank of d^(j-i): V^i -> V^j} over stored
        degrees with 0 < j - i <= order, nonzero ranks only, at one product
        and one rank per entry.  A row stops at its first zero composition,
        since every longer one is zero too; a map into a zero-dimensional
        degree is zero."""
        table = {}
        for i in range(self.lo, self.hi + 1):
            power = None
            for j in range(i + 1, min(i + self.order, self.hi) + 1):
                step = self.maps[j - 1 - self.lo]
                power = step if power is None else linalg.mat_mul(step, power)
                if not power:
                    break
                table[(i, j)] = linalg.rank(power)
        return table


def complex_from(order: int, lo: int, dims, maps) -> FiniteNComplex:
    """The complex of the given dense matrices, one per consecutive degree
    pair; a matrix with no rows stands for any map out of or into a zero
    space."""
    dims = tuple(int(n) for n in dims)
    for t, (matrix, width, height) in enumerate(zip(maps, dims, dims[1:])):
        if not matrix and 0 in (width, height):
            continue
        if len(matrix) != height or any(len(row) != width for row in matrix):
            raise ComplexError(
                f"dimension mismatch between consecutive matrices at degree {lo + t}: "
                f"got {len(matrix)}x{len(matrix[0]) if matrix else 0}, expected {height}x{width}"
            )
    return FiniteNComplex(order, lo, dims, tuple(linalg.to_rows(m) for m in maps))


def validate(c: FiniteNComplex) -> bool:
    """True iff every order-fold composition is exactly zero."""
    return all(j - i < c.order for i, j in c.ranks)


def p_cohomology_dim(c: FiniteNComplex, p: int, degree: int) -> int:
    """dim Ker(d^p at degree) - rank(d^(order-p) into degree).  The
    containment Im subset Ker, d^order = 0 through degree, is certified
    first; its failure means the input is not a valid complex of this
    order."""
    if not 1 <= p <= c.order - 1:
        raise ComplexError(f"p must satisfy 1 <= p <= {c.order - 1}")
    source = degree - (c.order - p)
    if (source, degree + p) in c.ranks:
        raise ComplexError(
            f"image is not contained in the kernel at degree {degree} (p={p}); "
            "the differential does not satisfy the declared nilpotency order"
        )
    return (c.dim(degree) - c.ranks.get((degree, degree + p), 0)
            - c.ranks.get((source, degree), 0))


def total_cohomology_dims(c: FiniteNComplex, m: int) -> Tuple[int, List[Tuple[int, int, int]]]:
    """Total dimension at diagonal m = 2i - p, with the (i, p, dim)
    breakdown over 1 <= p <= order-1 and stored degrees i."""
    breakdown = []
    total = 0
    for i in range(c.lo, c.hi + 1):
        p = 2 * i - m
        if 1 <= p <= c.order - 1:
            d = p_cohomology_dim(c, p, i)
            breakdown.append((i, p, d))
            total += d
    return total, breakdown


def total_diagonals(c: FiniteNComplex) -> List[int]:
    values = set()
    for i in range(c.lo, c.hi + 1):
        for p in range(1, c.order):
            values.add(2 * i - p)
    return sorted(values)


# ------------------------------------------------------------------
# tensor product
# ------------------------------------------------------------------

def tensor_complex(c1: FiniteNComplex, c2: FiniteNComplex) -> FiniteNComplex:
    """Tensor product with differential d1 (x) Id + (-1)^deg1 Id (x) d2
    (Koszul sign on the second summand), of order N + M - 1 for factors of
    orders N and M: the bound of koszul_nilpotency.  Blocks within each
    total degree are ordered by the first factor's degree.  Each nonzero
    cell of either Koszul term is placed once: the two terms of a block
    land in different blocks."""
    lo = c1.lo + c2.lo
    hi = c1.hi + c2.hi
    offsets = {}  # (i, j): the first index of V1^i (x) V2^j in degree i + j
    dims = [0] * (hi - lo + 1)
    for i in range(c1.lo, c1.hi + 1):
        for j in range(c2.lo, c2.hi + 1):
            if c1.dim(i) * c2.dim(j):
                offsets[(i, j)] = dims[i + j - lo]
                dims[i + j - lo] += c1.dim(i) * c2.dim(j)
    maps = [{} for _ in range(hi - lo)]
    for (i, j), col_offset in offsets.items():
        if i + j == hi:
            continue
        rows = maps[i + j - lo]
        n1, n2 = c1.dim(i), c2.dim(j)
        # the two Koszul terms, left (x) right with right of the given height
        # and n2 wide: d1 (x) Id lands in block (i+1, j) and (-1)^i Id (x) d2
        # in block (i, j+1)
        koszul = (((i + 1, j), 1, c1.map_at(i), {k: {k: 1} for k in range(n2)}, n2),
                  ((i, j + 1), -1 if i % 2 else 1, {k: {k: 1} for k in range(n1)},
                   c2.map_at(j), c2.dim(j + 1)))
        for block, sign, left, right, height in koszul:
            if block in offsets:
                r0 = offsets[block]
                for ra, left_row in left.items():
                    for ca, x in left_row.items():
                        for rb, right_row in right.items():
                            cells = rows.setdefault(r0 + ra * height + rb, {})
                            for cb, y in right_row.items():
                                cells[col_offset + ca * n2 + cb] = sign * x * y
    return FiniteNComplex(c1.order + c2.order - 1, lo, tuple(dims), tuple(maps))


def measured_nilpotency(c: FiniteNComplex) -> int:
    """Least t with every t-fold composition zero: one more than the
    longest entry of the rank table, which ends at the order."""
    longest = max((j - i for i, j in c.ranks), default=0)
    if longest == c.order:
        raise ComplexError(f"nilpotency exceeds {c.order}")
    return longest + 1


def koszul_nilpotency(a: int, b: int) -> int:
    """Nilpotency of the Koszul-signed tensor product of differentials of
    nilpotency a and b (each at least 1): a + b - 1, or a + b - 2 when a
    and b are both even.  The summands d1 (x) 1 and sigma (x) d2
    anticommute, so d^2 = d1^2 (x) 1 + 1 (x) d2^2 is a sum of commuting
    nilpotents of orders ceil(a/2) and ceil(b/2), and the binomial theorem
    gives the order (Dubois-Violette, "d^N = 0: generalized homology",
    K-Theory 14, 1998)."""
    return a + b - 1 - (a % 2 == 0 and b % 2 == 0)


def tensor_nilpotency(c1: FiniteNComplex, c2: FiniteNComplex) -> int:
    """Exact nilpotency of tensor_complex(c1, c2), read from the factors'
    nilpotencies without building it (koszul_nilpotency).  A factor of
    total dimension 0 makes the zero space, of nilpotency 1.  Both factors
    must be valid."""
    for k, c in enumerate((c1, c2), 1):
        if not validate(c):
            raise ComplexError(f"factor {k}: d^{c.order} is not zero; "
                               f"not a valid {c.order}-complex")
    if not sum(c1.dims) * sum(c2.dims):
        return 1
    return koszul_nilpotency(measured_nilpotency(c1), measured_nilpotency(c2))


# ------------------------------------------------------------------
# complex files
# ------------------------------------------------------------------
#
#   N <order>
#   deg <i> dim <n_i>
#   <rows of the matrix out of degree i, whitespace-separated rationals
#    written [+-]digits[/digits]>
#   deg <i+1> dim <n_{i+1}>
#   ...
#
# The rows between two degree headers form the map out of the earlier
# degree; the final degree block has no rows.

ComplexFileError = textfile.InputFileError


_RATIONAL = re.compile(r"([+-]?)([0-9]+)(?:/([0-9]+))?")


def _rational(cell: str):
    """A cell [+-]digits[/digits] as an int when it is integral, else as a
    Fraction, each integer at most scalar.MAX_DIGITS digits long and the
    denominator nonzero; else None."""
    match = _RATIONAL.fullmatch(cell)
    if match is None:
        return None
    sign, numerator, denominator = match.groups("1")
    if max(len(numerator), len(denominator)) > scalar.MAX_DIGITS or not int(denominator):
        return None
    if denominator == "1":
        return int(sign + numerator)
    value = Fraction(int(sign + numerator), int(denominator))
    return value.numerator if value.denominator == 1 else value


def parse_complex(text: str) -> FiniteNComplex:
    lines = textfile.Lines(text)
    order = None
    headers: List[Tuple[int, int, int]] = []  # (degree, dim, line)
    row_groups: List[List[Tuple[dict, int, int]]] = []  # (nonzero cells, width, line)
    for content in lines:
        keyword = content.split()[0]
        if keyword == "N":
            if order is not None:
                raise lines.error("duplicate N header")
            order = lines.header("N", content=content)
            if order < 2:
                raise lines.error("order must be at least 2")
            if order > MAX_SIZE:
                raise lines.error(f"order {order} is above {MAX_SIZE}")
        elif keyword == "deg":
            if order is None:
                raise lines.error("'N <order>' must come first")
            degree, dim = lines.header("deg", "dim", content=content)
            if dim < 0:
                raise lines.error("dimensions must be non-negative")
            if dim > MAX_SIZE:
                raise lines.error(f"dimension {dim} is above {MAX_SIZE}")
            if headers and degree != headers[-1][0] + 1:
                raise lines.error(
                    f"degrees must be consecutive; got {degree} after {headers[-1][0]}"
                )
            headers.append((degree, dim, lines.line))
            row_groups.append([])
        else:
            if not row_groups:
                raise lines.error("matrix rows before any degree header")
            cells = content.split()
            row = {}
            for c, cell in enumerate(cells):
                value = 0 if cell == "0" else _rational(cell)  # the common zero, no regex
                if value is None:
                    raise lines.error(f"bad rational entry in {textfile.quote(content)}: "
                                      f"{textfile.quote(cell)}")
                if value:
                    row[c] = value
            row_groups[-1].append((row, len(cells), lines.line))
    if order is None:
        raise ComplexFileError("missing 'N <order>' header", 1)
    if not headers:
        raise ComplexFileError("no degrees declared", 1)
    if row_groups[-1]:
        raise ComplexFileError("rows after the final degree header", row_groups[-1][0][2])
    maps = []
    for t in range(len(headers) - 1):
        degree, source_dim, _ = headers[t]
        _, target_dim, next_header = headers[t + 1]
        rows = row_groups[t]
        # a map out of a zero-dimensional degree has rows of no entries,
        # which a file cannot hold, so it is given by no rows
        if len(rows) != target_dim and (rows or source_dim):
            raise ComplexFileError(
                f"map out of degree {degree} needs {target_dim} rows, got {len(rows)}",
                rows[0][2] if rows else next_header,
            )
        for _, width, line_no in rows:
            if width != source_dim:
                raise ComplexFileError(f"expected {source_dim} entries per row", line_no)
        maps.append({r: row for r, (row, _, _) in enumerate(rows) if row})
    return FiniteNComplex(order, headers[0][0], tuple(dim for _, dim, _ in headers), tuple(maps))


def load_complex(path) -> FiniteNComplex:
    return parse_complex(textfile.read(path))
