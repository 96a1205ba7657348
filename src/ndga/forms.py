"""Matrix-valued differential forms on a coordinate patch.

A form is a finite map from strictly increasing coordinate multi-indices to
matrices.  Square shapes model endomorphism-valued forms; m x 1 shapes
model vector-valued forms.  The module provides the wedge product, the
exterior derivative, connections d + omega, curvature, N-flatness
certificates via ordered-pairing expansions of curvature powers, and
tensor products of connections.

Flatness orders are decided three ways: from curvature powers
(minimal_flatness_order), through the pairing certificates, and by brute
force, iterating nabla = d + omega on probe columns until they vanish.
nabla raises form degree by one, so on an n-dimensional base a k-form is
zero after n + 1 - k steps whatever the connection, and every connection
is (n + 1)-flat; the brute force skips a probe block once that bound
cannot raise the order it has found.

These forms and the depth forms of ndga.depth share one Koszul sign,
_shuffle_sign.  tests/test_depth.py checks the all-twos depth forms
against wedge and exterior_d.

Matrix entries are scalar.TrigPoly values, the package's one scalar
ring; an int or Fraction entry is taken as a constant.  A component is
held as its nonzero cells, {(row, col): entry}, and component() and
components() give the dense view.  Every sum of matrices -- wedge,
exterior_d, +, nabla_apply, the pairing sums and tensor_connection -- is
one call of scalar's kernel, TrigPoly.matrix_sum, per component.  It sums
each cell in one term dict from the nonzero cells alone: a product with a
zero factor is never formed, so it costs neither time nor the work
budget, and a derivative is lowered into its cell without being built.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Iterable, Mapping

from . import scalar, textfile
from .scalar import TrigPoly

MultiIndex = tuple  # strictly increasing tuple of coordinate indices
Matrix = tuple      # tuple of tuple of TrigPoly: the dense view
Cells = dict        # {(row, col): TrigPoly}, the nonzero entries of a matrix
Rows = dict         # {row: [(col, TrigPoly)]}, the same entries by row

# entries are never mutated, so every zero and unit entry is one object
_ZERO = TrigPoly.zero()
_ONE = TrigPoly.one()


class FormError(Exception):
    pass


# ------------------------------------------------------------------
# sparse matrices of polynomial entries
# ------------------------------------------------------------------

def _cells(rows: Iterable[Iterable]) -> Cells:
    """The nonzero cells of a dense matrix."""
    cells = {}
    for r, row in enumerate(rows):
        for c, e in enumerate(row):
            e = scalar.as_poly(e)
            if e.terms:
                cells[r, c] = e
    return cells


def _dense(cells: Cells, shape) -> Matrix:
    rows, cols = shape
    return tuple(tuple(cells.get((r, c), _ZERO) for c in range(cols)) for r in range(rows))


def _rows(cells: Cells) -> Rows:
    """The cells by row."""
    rows = defaultdict(list)
    for (r, c), e in cells.items():
        rows[r].append((c, e))
    return rows


def _negated(cells: Cells) -> Cells:
    return {rc: -e for rc, e in cells.items()}


def _is_zero(cells: Cells) -> bool:
    """Exact for polynomial entries: a nonempty entry with no trig atom is
    not zero.  Entries with trig atoms go to the sampled branch of
    scalar.is_zero."""
    return all(map(scalar.is_zero, cells.values()))


def _combine(base_dim: int, shape, pairs: Mapping, addends: Mapping,
             derivatives: Mapping) -> "MatrixForm":
    """The form whose component I is TrigPoly.matrix_sum of pairs[I],
    addends[I] and derivatives[I]; one memo serves every component, so an
    entry with a trig atom is differentiated once by each coordinate."""
    derived: dict = {}
    return _form(base_dim, shape, {
        index: TrigPoly.matrix_sum(pairs.get(index, ()), addends.get(index, ()),
                                   derivatives.get(index, ()), derived)
        for index in sorted(pairs.keys() | addends.keys() | derivatives.keys())})


# ------------------------------------------------------------------
# forms
# ------------------------------------------------------------------

def _shuffle_sign(left, right) -> int:
    """The sign of the shuffle that sorts left + right, for two increasing
    sequences with no common entry: (-1) to the number of cross pairs
    i in left, j in right with i > j.  The one graded sign of forms and
    depth forms, private so that a traced benchmark run does not wrap it."""
    return -1 if sum(bisect_left(right, i) for i in left) % 2 else 1


def _form(base_dim: int, shape, components: dict) -> "MatrixForm":
    """A form from valid components given as cells, empty ones dropped."""
    form = object.__new__(MatrixForm)
    form.base_dim = base_dim
    form.shape = shape
    form._components = {index: cells for index, cells in components.items() if cells}
    form._views = {}
    return form


def _view(form: "MatrixForm", index, sign: int) -> dict:
    """Component index of the form as TrigPoly.matrix_sum reads it, built
    once per form: its cells times a sign 1 or -1, or by row for sign 0."""
    if sign > 0:
        return form._components[index]
    if (index, sign) not in form._views:
        cells = form._components[index]
        form._views[index, sign] = _negated(cells) if sign else _rows(cells)
    return form._views[index, sign]


class MatrixForm:
    """Immutable graded form with polynomial matrix coefficients.

    components: {multi-index: matrix}, each matrix given dense; it is held
    as its nonzero cells, and all-zero matrices are dropped.  Entries are
    canonical polynomials, so `==` is equality of forms up to the
    identities TrigPoly reduces (sin^2 = 1 - cos^2).
    """

    __slots__ = ("base_dim", "shape", "_components", "_views")

    def __init__(self, base_dim: int, shape, components: Mapping[MultiIndex, Matrix]):
        rows, cols = shape
        comp = {}
        for index, entries in components.items():
            index = tuple(index)
            if any(not 1 <= i <= base_dim for i in index):
                raise FormError(f"index {index} outside base dimension {base_dim}")
            if list(index) != sorted(set(index)):
                raise FormError(f"multi-index {index} is not strictly increasing")
            entries = [list(row) for row in entries]
            if len(entries) != rows or any(len(r) != cols for r in entries):
                raise FormError("component has the wrong matrix shape")
            cells = _cells(entries)
            if cells:
                comp[index] = cells
        self.base_dim = base_dim
        self.shape = (rows, cols)
        self._components = comp
        self._views = {}

    # -- inspection ------------------------------------------------

    def components(self):
        """Sorted (multi-index, matrix) pairs of the nonzero part."""
        return sorted((index, _dense(cells, self.shape))
                      for index, cells in self._components.items())

    def component(self, index) -> Matrix:
        """The matrix at a multi-index."""
        return _dense(self._components.get(tuple(index), {}), self.shape)

    def is_structurally_zero(self) -> bool:
        return not self._components

    def is_zero(self) -> bool:
        """Semantic zero test (exact for polynomial entries, seeded
        sampling for trigonometric ones)."""
        return all(map(_is_zero, self._components.values()))

    def __eq__(self, other):
        if not isinstance(other, MatrixForm):
            return NotImplemented
        return (
            self.base_dim == other.base_dim
            and self.shape == other.shape
            and self._components == other._components
        )

    def __hash__(self):
        return hash((self.base_dim, self.shape, frozenset(
            (index, frozenset(cells.items())) for index, cells in self._components.items())))

    def __repr__(self):
        if not self._components:
            return f"MatrixForm({self.base_dim}, {self.shape}, 0)"
        bits = []
        for index, entries in self.components():
            label = "".join(f"dx{i}" for i in index) or "1"
            bits.append(f"{label}: {[[scalar.render(e) for e in row] for row in entries]}")
        return "MatrixForm(" + "; ".join(bits) + ")"

    # -- algebra ---------------------------------------------------

    def _check_compatible(self, other: "MatrixForm"):
        if self.base_dim != other.base_dim:
            raise FormError("base dimension mismatch")

    def __add__(self, other: "MatrixForm") -> "MatrixForm":
        self._check_compatible(other)
        if self.shape != other.shape:
            raise FormError("shape mismatch")
        addends = defaultdict(list)
        for form in (self, other):
            for index, cells in form._components.items():
                addends[index].append(cells)
        return _combine(self.base_dim, self.shape, {}, addends, {})

    def __sub__(self, other: "MatrixForm") -> "MatrixForm":
        return self + -other

    def scale(self, c) -> "MatrixForm":
        """c times the form for a scalar c: a rational or a TrigPoly."""
        factor = scalar.as_poly(c)
        if not factor.terms:
            return zero_form(self.base_dim, self.shape)
        return _form(self.base_dim, self.shape, {
            index: {rc: factor * e for rc, e in cells.items()}
            for index, cells in self._components.items()})

    def __neg__(self) -> "MatrixForm":
        return _form(self.base_dim, self.shape, {
            index: {rc: -e for rc, e in cells.items()}
            for index, cells in self._components.items()})


def zero_form(base_dim: int, shape) -> MatrixForm:
    return _form(base_dim, tuple(shape), {})


def _identity(n: int) -> Cells:
    return {(r, r): _ONE for r in range(n)}


def identity_form(base_dim: int, fiber_dim: int) -> MatrixForm:
    return _form(base_dim, (fiber_dim, fiber_dim), {(): _identity(fiber_dim)})


def scalar_form(base_dim: int, components: Mapping[MultiIndex, object]) -> MatrixForm:
    return MatrixForm(base_dim, (1, 1), {tuple(i): ((e,),) for i, e in components.items()})


def basis_one_form(base_dim: int, index: int, fiber_dim: int = 1) -> MatrixForm:
    """dx_index times the identity on the fiber."""
    return _form(base_dim, (fiber_dim, fiber_dim), {(index,): _identity(fiber_dim)})


def _wedge_pairs(a: MatrixForm, b: MatrixForm) -> dict:
    """{multi-index: [(a's cells, b's rows)]}: the pairs whose products
    sum to each component of a ^ b, the shuffle sign on a's cells."""
    a._check_compatible(b)
    if a.shape[1] != b.shape[0]:
        raise FormError(f"fiber shape mismatch: {a.shape} then {b.shape}")
    pairs = defaultdict(list)
    for ia in a._components:
        held = set(ia)
        for ib in b._components:
            if held.isdisjoint(ib):
                pairs[tuple(sorted(ia + ib))].append(
                    (_view(a, ia, _shuffle_sign(ia, ib)), _view(b, ib, 0)))
    return pairs


def wedge(a: MatrixForm, b: MatrixForm) -> MatrixForm:
    """Graded product: basis forms shuffle with a sign, matrices multiply
    in order, repeated coordinate indices kill the term."""
    return _combine(a.base_dim, (a.shape[0], b.shape[1]), _wedge_pairs(a, b), {}, {})


def wedge_power(a: MatrixForm, k: int) -> MatrixForm:
    """k-fold wedge power, multiplied left to right."""
    if k < 1:
        raise FormError("wedge power needs k >= 1")
    result = a
    for _ in range(k - 1):
        result = wedge(result, a)
    return result


def _d_addends(a: MatrixForm) -> dict:
    """{multi-index: [(cells, j, sign)]}: d a, as the components A_I of a
    whose d_j A_I, times the shuffle sign s of dx_j past dx^I, sum to each
    component I u {j}.  TrigPoly.matrix_sum lowers each entry into its cell
    with s folded in, so no derivative matrix is built."""
    addends = defaultdict(list)
    for index, cells in a._components.items():
        for j in range(1, a.base_dim + 1):
            if j not in index:
                addends[tuple(sorted(index + (j,)))].append((cells, j, _shuffle_sign((j,), index)))
    return addends


def exterior_d(a: MatrixForm) -> MatrixForm:
    """Componentwise exterior derivative d(A dx^I) = sum_j (d_j A) dx^j ^ dx^I."""
    return _combine(a.base_dim, a.shape, {}, {}, _d_addends(a))


# ------------------------------------------------------------------
# connections
# ------------------------------------------------------------------

@dataclass(frozen=True)
class Connection:
    """A connection one-form: square-fibered, homogeneous of degree 1."""

    form: MatrixForm

    def __post_init__(self):
        rows, cols = self.form.shape
        if rows != cols:
            raise FormError("connection fibers must be square")
        if any(len(i) != 1 for i in self.form._components):
            raise FormError("connection form must have pure degree 1")

    @property
    def base_dim(self) -> int:
        return self.form.base_dim

    @property
    def fiber_dim(self) -> int:
        return self.form.shape[0]

    def coefficient(self, i: int) -> Matrix:
        """omega_i as a matrix."""
        return self.form.component((i,))


def connection_from_coefficients(base_dim: int, coefficients: Mapping[int, Matrix]) -> Connection:
    mats = {(i,): m for i, m in coefficients.items()}
    some = next(iter(coefficients.values()), ((0,),))
    fiber = len(some)
    return Connection(MatrixForm(base_dim, (fiber, fiber), mats))


def curvature(conn: Connection) -> MatrixForm:
    """F = nabla(omega) = d(omega) + omega ^ omega: the covariant
    derivative applied to the connection form itself."""
    return nabla_apply(conn, conn.form)


def nabla_apply(conn: Connection, alpha: MatrixForm) -> MatrixForm:
    """Covariant derivative (d + omega)(alpha) on vector- or
    endomorphism-valued forms; it acts column by column.  Each component
    alpha_I adds s (d_i alpha_I + omega_i alpha_I) to component I u {i}
    for every i not in I, s the shuffle sign of dx_i past dx^I: the
    addends of exterior_d and the pairs of wedge(omega, alpha), summed
    together by one TrigPoly.matrix_sum per component."""
    if conn.fiber_dim != alpha.shape[0]:
        raise FormError("fiber dimension mismatch")
    return _combine(alpha.base_dim, alpha.shape, _wedge_pairs(conn.form, alpha), {},
                    _d_addends(alpha))


def nabla_power(conn: Connection, alpha: MatrixForm, n: int) -> MatrixForm:
    result = alpha
    for _ in range(n):
        result = nabla_apply(conn, result)
    return result


# ------------------------------------------------------------------
# flatness of order N
# ------------------------------------------------------------------

def n_flat_from_curvature(F: MatrixForm, omega_form: MatrixForm, n: int) -> bool:
    """Order-n flatness decided from a curvature form and connection form.

    Even n = 2K: F^K vanishes.  Odd n = 2K+1: the operator F^K (d + omega)
    vanishes, which unrolls to F^K ^ dx_i = 0 for every coordinate and
    F^K ^ omega = 0.
    """
    if n < 2:
        raise FormError("flatness order must be at least 2")
    half, odd = divmod(n, 2)
    power = wedge_power(F, half)
    if not odd:
        return power.is_zero()
    for i in range(1, F.base_dim + 1):
        dxi = basis_one_form(F.base_dim, i, F.shape[1])
        if not wedge(power, dxi).is_zero():
            return False
    return wedge(power, omega_form).is_zero()


def is_n_flat(conn: Connection, n: int) -> bool:
    """True iff (d + omega)^n = 0."""
    return n_flat_from_curvature(curvature(conn), conn.form, n)


def minimal_order_from_curvature(F: MatrixForm, omega_form: MatrixForm, max_n: int):
    """Least n <= max_n that n_flat_from_curvature accepts, or None.
    Flatness of order n implies flatness of every higher order, so the
    scan is exact.  F^K takes one more wedge at each even n = 2K.  At odd n
    the test F^K ^ dx_i = 0 for all i is read from F^K: distinct A not
    holding i give distinct A u {i}, so it holds exactly when every
    component of F^K below the base dimension is zero."""
    for n in range(2, max_n + 1):
        if n % 2 == 0:
            power = F if n == 2 else wedge(power, F)
            if power.is_zero():
                return n
        elif all(_is_zero(cells) for index, cells in power._components.items()
                 if len(index) < F.base_dim) and wedge(power, omega_form).is_zero():
            return n
    return None


def minimal_flatness_order(conn: Connection, max_n: int = 8):
    """Least n <= max_n with (d + omega)^n = 0, or None."""
    return minimal_order_from_curvature(curvature(conn), conn.form, max_n)


def probe_forms(conn: Connection):
    """The vector-valued probes that measure flatness by direct iteration,
    as the columns of three forms, cheapest first: the constants e_j, the
    0-form [I]; the coordinate functions x_i e_j, the 0-form
    [x_1 I | ... | x_n I]; and dx_i e_j, the 1-form with dx_i I at column
    block i.  The coordinate functions make every F^K ^ dx_i direction
    visible through F^K ^ df.  nabla raises form degree by one, so on an
    n-dimensional base a k-form probe is zero after n + 1 - k steps,
    whatever the connection."""
    n, m = conn.base_dim, conn.fiber_dim
    functions = {(r, (i - 1) * m + r): TrigPoly.var(i) for i in range(1, n + 1) for r in range(m)}
    one_forms = {(i,): {(r, (i - 1) * m + r): _ONE for r in range(m)} for i in range(1, n + 1)}
    return [_form(n, (m, m), {(): _identity(m)}), _form(n, (m, n * m), {(): functions}),
            _form(n, (m, n * m), one_forms)]


def _nonzero_columns(a: MatrixForm) -> MatrixForm:
    """The columns of a that the zero test does not read as zero, as a form."""
    live = set()
    for cells in a._components.values():
        for (_, c), e in cells.items():
            if c not in live and not scalar.is_zero(e):
                live.add(c)
    if len(live) == a.shape[1]:
        return a
    kept = {c: k for k, c in enumerate(sorted(live))}
    return _form(a.base_dim, (a.shape[0], len(kept)),
                 {index: {(r, kept[c]): e for (r, c), e in cells.items() if c in kept}
                  for index, cells in a._components.items()})


def brute_force_flatness_order(conn: Connection, max_n: int = 8):
    """Least n <= max_n with nabla^n annihilating every probe, measured by
    actually iterating the covariant derivative on the probe columns; no
    curvature is read.  nabla acts column by column, and a column that has
    become the zero function stays zero under nabla, so after each step the
    columns that the zero test reads as zero drop out, and each block of
    probe_forms dies at its own order.  The answer is the largest of those
    orders, and at least 2.  A k-form block is zero after base_dim + 1 - k
    steps (nabla raises degree by one), so a block whose bound is no more
    than the order found so far cannot raise it and is skipped; a generic
    connection reaches base_dim + 1 on the constants alone.  None as soon
    as a block outlives max_n steps, and for max_n below 2."""
    order = 2  # orders below 2 are not meaningful flatness orders
    for block in probe_forms(conn):
        if order >= conn.base_dim + 1 - min(map(len, block._components)):
            continue
        steps = 0
        while block.shape[1]:
            if steps == max_n:
                return None
            block = _nonzero_columns(nabla_apply(conn, block))
            steps += 1
        order = max(order, steps)
    return order if order <= max_n else None


# ------------------------------------------------------------------
# ordered pairings and the expansion of curvature powers
# ------------------------------------------------------------------

@dataclass(frozen=True)
class OrderedPairing:
    """Partition of an even index set into pairs (a_i, b_i) with a_i < b_i,
    listed with a_1 < a_2 < ..., and the permutation sign of
    (s_1, ..., s_2k) -> (a_1, b_1, ..., a_k, b_k): the product of the
    shuffle signs met as the pairs are wedged in order."""

    pairs: tuple
    sign: int


def ordered_pairings(index_set: Iterable[int]):
    """All pairings of an even-cardinality index set; (2k)!/(2^k k!) of them."""
    elements = sorted(index_set)
    if len(elements) % 2:
        raise FormError("ordered pairings need an even-cardinality set")

    def rec(remaining):
        if not remaining:
            yield ()
            return
        first = remaining[0]
        for idx in range(1, len(remaining)):
            partner = remaining[idx]
            rest = remaining[1:idx] + remaining[idx + 1:]
            for tail in rec(rest):
                yield ((first, partner),) + tail

    result = []
    for pairs in rec(tuple(elements)):
        sign, merged = 1, ()
        for pair in pairs:
            sign *= _shuffle_sign(merged, pair)
            merged = tuple(sorted(merged + pair))
        result.append(OrderedPairing(pairs, sign))
    return result


def _curvature_cells(F: MatrixForm) -> dict:
    """The cells of F_ij for i < j from a degree-2 form."""
    if any(len(index) != 2 for index in F._components):
        raise FormError("curvature component extraction needs a 2-form")
    return F._components


def _pairing_cells(components: Mapping, elements: list, fiber_dim: int) -> Cells:
    """pairing_sum over sorted elements, on components given as cells."""
    if len(elements) < 4:
        # the empty product, or the one pairing's single factor
        return components.get(tuple(elements), {}) if elements else _identity(fiber_dim)
    rows = {pair: _rows(components.get(pair, {})) for pair in combinations(elements, 2)}
    pairs = []
    for pairing in ordered_pairings(elements):
        for order in permutations(pairing.pairs):
            prefix = components.get(order[0], {})
            for pair in order[1:-1]:
                prefix = TrigPoly.matrix_sum([(prefix, rows[pair])], (), (), {})
            pairs.append((prefix if pairing.sign > 0 else _negated(prefix), rows[order[-1]]))
    return TrigPoly.matrix_sum(pairs, (), (), {})


def pairing_sum(components: Mapping, index_set: Iterable[int], fiber_dim: int) -> Matrix:
    """Signed sum over pairings, over every ordering of each pairing's
    pairs, of the ordered matrix products of paired components.  This is
    exactly the dx^A coefficient of the corresponding power of
    sum_{i<j} F_ij dx^i ^ dx^j.  Entries may be rationals.  Each entry is
    summed in one term dict, from the signed prefix products against the
    last factors."""
    cells = {pair: _cells(m) for pair, m in components.items()}
    return _dense(_pairing_cells(cells, sorted(index_set), fiber_dim), (fiber_dim, fiber_dim))


def pairing_power_form(F: MatrixForm, k: int) -> MatrixForm:
    """Reassembles sum_A pairing_sum(A) dx^A; equals wedge_power(F, k)."""
    comps = _curvature_cells(F)
    return _form(F.base_dim, F.shape, {
        A: _pairing_cells(comps, list(A), F.shape[0])
        for A in combinations(range(1, F.base_dim + 1), 2 * k)})


def pairing_flatness_certificate(conn: Connection, k: int):
    """Certificate that (d + omega)^{2k} = 0, checked through the pairing
    expansion: the signed pairing sum must vanish for every 2k-subset of
    coordinates.  Returns (verdict, failing subsets)."""
    if k < 1:
        raise FormError("k must be at least 1")
    comps = _curvature_cells(curvature(conn))
    failures = [A for A in combinations(range(1, conn.base_dim + 1), 2 * k)
                if not _is_zero(_pairing_cells(comps, list(A), conn.fiber_dim))]
    return not failures, failures


# ------------------------------------------------------------------
# tensor product of connections
# ------------------------------------------------------------------

def tensor_connection(c1: Connection, c2: Connection) -> Connection:
    """Connection omega_1 (x) I + I (x) omega_2 on the tensor fiber.

    The cross terms of omega_t ^ omega_t cancel, so the curvature is
    F_t = F_1 (x) I + I (x) F_2, and its two terms commute (2-forms are
    even and the Kronecker factors act on separate slots).  Hence
    F_t^K = sum_i C(K, i) F_1^i (x) F_2^(K-i).  If c1 is N-flat and c2 is
    M-flat, the product is (N+M-1)-flat in general, and (N+M-2)-flat when
    N and M are both even: every term of F_t^(N/2 + M/2 - 1) then holds
    F_1^(N/2) or F_2^(M/2).  The bound is sharp (two rotations in disjoint
    planes of a 5-dimensional base are 4-flat, their product exactly
    6-flat).  This bound is derived here from the formula for F_t; the
    paper's abstract does not state it.
    """
    if c1.base_dim != c2.base_dim:
        raise FormError("base dimension mismatch")
    m1, m2 = c1.fiber_dim, c2.fiber_dim
    addends = defaultdict(list)
    # omega_1 (x) I and I (x) omega_2, placed cell by cell
    for (i,), cells in c1.form._components.items():
        addends[i,].append({(r * m2 + s, c * m2 + s): e
                            for (r, c), e in cells.items() for s in range(m2)})
    for (i,), cells in c2.form._components.items():
        addends[i,].append({(s * m2 + r, s * m2 + c): e
                            for (r, c), e in cells.items() for s in range(m1)})
    return Connection(_combine(c1.base_dim, (m1 * m2, m1 * m2), {}, addends, {}))


# ------------------------------------------------------------------
# connection files
# ------------------------------------------------------------------
#
#   base <n>
#   fiber <m>
#   omega <i>
#   <m rows of m entries separated by ';'>
#
# Blocks for coordinates with omega_i = 0 may be omitted.

ConnectionFileError = textfile.InputFileError


def parse_connection(text: str) -> Connection:
    lines = textfile.Lines(text)
    base = lines.header("base")
    fiber = lines.header("fiber")
    if base < 1 or fiber < 1:
        raise lines.error("base and fiber dimensions must be positive")
    coefficients = {}
    for content in lines:
        i = lines.header("omega", content=content)
        if not 1 <= i <= base:
            raise lines.error(f"coordinate index {i} out of range")
        if i in coefficients:
            raise lines.error(f"duplicate block for omega {i}")
        coefficients[i] = lines.matrix(fiber)
    comps = {(i,): m for i, m in coefficients.items()}
    return Connection(MatrixForm(base, (fiber, fiber), comps))


def load_connection(path) -> Connection:
    return parse_connection(textfile.read(path))
