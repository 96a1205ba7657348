"""Matrix-valued differential forms on a coordinate patch.

A form is a finite map from strictly increasing coordinate multi-indices to
matrices.  Square shapes model endomorphism-valued forms; m x 1 shapes
model vector-valued forms.  The module provides the wedge product, the
exterior derivative, connections d + omega, curvature, N-flatness
certificates via ordered-pairing expansions of curvature powers, and
tensor products of connections.

These forms and the depth forms of ndga.depth share one Koszul sign,
_shuffle_sign, and sum each entry of a product or derivative once
(TrigPoly.dot, TrigPoly.sum).  tests/test_depth.py checks the all-twos
depth forms against wedge and exterior_d.

Matrix entries are scalar.TrigPoly values, the package's one scalar
ring; an int or Fraction entry is taken as a constant.  Wedge, d, nabla,
curvature and the certificates run on polynomial arithmetic alone, a
structurally zero entry is an empty polynomial, and every accessor returns
polynomial entries.

nabla_apply is the one kernel of the covariant derivative, and curvature
and the brute-force flatness oracle run on it.  It visits only the
omega-alpha pairs whose two factors are nonzero; each zero-factor pair is
counted and charged one term product, as TrigPoly.dot charges it, without
being visited.  wedge still visits every pair.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import reduce
from itertools import chain, combinations, permutations
from typing import Iterable, Mapping

from . import linalg, scalar, textfile
from .scalar import TrigPoly

MultiIndex = tuple  # strictly increasing tuple of coordinate indices
Matrix = tuple      # tuple of tuple of TrigPoly

# entries are never mutated, so every zero and unit entry is one object
_ZERO = TrigPoly.zero()
_ONE = TrigPoly.one()


class FormError(Exception):
    pass


# ------------------------------------------------------------------
# matrices of polynomial entries
# ------------------------------------------------------------------

def _poly_entries(rows: Iterable[Iterable]) -> Matrix:
    return tuple(tuple(scalar.as_poly(e) for e in row) for row in rows)


def zero_entries(rows: int, cols: int) -> Matrix:
    return tuple(tuple(_ZERO for _ in range(cols)) for _ in range(rows))


def identity_entries(n: int) -> Matrix:
    return tuple(tuple(_ONE if i == j else _ZERO for j in range(n)) for i in range(n))


def entries_scale(c, a: Matrix) -> Matrix:
    """c times a for a scalar c: a rational or a TrigPoly.  Zero entries
    stay as they are."""
    factor = scalar.as_poly(c)
    return tuple(tuple(factor * x if x.terms else x for x in row) for row in a)


def entries_neg(a: Matrix) -> Matrix:
    return tuple(tuple(-x if x.terms else x for x in row) for row in a)


def entries_mul(a: Matrix, b: Matrix) -> Matrix:
    if len(a[0]) != len(b):
        raise FormError("matrix shape mismatch")
    columns = list(zip(*b))
    return tuple(tuple(TrigPoly.dot(zip(row, column)) for column in columns) for row in a)


def _entries_dot(pairs: list) -> Matrix:
    """The sum of the products a b over the (a, b) matrix pairs, all of one
    shape, each entry accumulated by one TrigPoly.dot; a lone pair goes
    through entries_mul, which is quicker to set up."""
    if len(pairs) == 1:
        return entries_mul(*pairs[0])
    columns = [tuple(zip(*b)) for _, b in pairs]
    return tuple(tuple(TrigPoly.dot(chain.from_iterable(map(zip, rows, cols)))
                       for cols in zip(*columns))
                 for rows in zip(*(a for a, _ in pairs)))


def _entries_sum(matrices: list) -> Matrix:
    """The sum of matrices of one shape, each entry by one TrigPoly.sum."""
    if len(matrices) == 1:
        return matrices[0]
    return tuple(tuple(map(TrigPoly.sum, zip(*rows))) for rows in zip(*matrices))


def entries_is_zero(a: Matrix) -> bool:
    """Exact for polynomial entries: an empty entry is zero and, with no
    trig atom, a nonempty one is not.  Entries with trig atoms go to the
    sampled branch of scalar.is_zero."""
    return all(scalar.is_zero(e) for row in a for e in row if e.terms)


def _entries_nonzero_structurally(a: Matrix) -> bool:
    return any(e.terms for row in a for e in row)


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
    """A form from valid polynomial components, all-zero matrices dropped."""
    form = object.__new__(MatrixForm)
    form.base_dim = base_dim
    form.shape = shape
    form._components = {
        index: m for index, m in components.items() if _entries_nonzero_structurally(m)
    }
    return form


class MatrixForm:
    """Immutable graded form with polynomial matrix coefficients.

    components: {multi-index: matrix}; all-zero matrices are dropped and
    entries are canonical polynomials, so `==` is equality of forms up to
    the identities TrigPoly reduces (sin^2 = 1 - cos^2).
    """

    __slots__ = ("base_dim", "shape", "_components")

    def __init__(self, base_dim: int, shape, components: Mapping[MultiIndex, Matrix]):
        rows, cols = shape
        comp = {}
        for index, entries in components.items():
            index = tuple(index)
            if any(not 1 <= i <= base_dim for i in index):
                raise FormError(f"index {index} outside base dimension {base_dim}")
            if list(index) != sorted(set(index)):
                raise FormError(f"multi-index {index} is not strictly increasing")
            entries = _poly_entries(entries)
            if len(entries) != rows or any(len(r) != cols for r in entries):
                raise FormError("component has the wrong matrix shape")
            if _entries_nonzero_structurally(entries):
                comp[index] = entries
        self.base_dim = base_dim
        self.shape = (rows, cols)
        self._components = comp

    # -- inspection ------------------------------------------------

    def components(self):
        """Sorted (multi-index, matrix) pairs of the nonzero part."""
        return sorted(self._components.items())

    def component(self, index) -> Matrix:
        """The matrix at a multi-index."""
        return self._components.get(tuple(index)) or zero_entries(*self.shape)

    def is_structurally_zero(self) -> bool:
        return not self._components

    def is_zero(self) -> bool:
        """Semantic zero test (exact for polynomial entries, seeded
        sampling for trigonometric ones)."""
        return all(entries_is_zero(m) for m in self._components.values())

    def __eq__(self, other):
        if not isinstance(other, MatrixForm):
            return NotImplemented
        return (
            self.base_dim == other.base_dim
            and self.shape == other.shape
            and self._components == other._components
        )

    def __hash__(self):
        return hash(
            (self.base_dim, self.shape, tuple(sorted(self._components.items())))
        )

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
        comp = dict(self._components)
        for index, entries in other._components.items():
            if index in comp:
                comp[index] = _entries_sum([comp[index], entries])
            else:
                comp[index] = entries
        return _form(self.base_dim, self.shape, comp)

    def __sub__(self, other: "MatrixForm") -> "MatrixForm":
        return self + -other

    def scale(self, c) -> "MatrixForm":
        """c times the form for a scalar c: a rational or a TrigPoly."""
        return _form(
            self.base_dim,
            self.shape,
            {i: entries_scale(c, m) for i, m in self._components.items()},
        )

    def __neg__(self) -> "MatrixForm":
        return _form(
            self.base_dim,
            self.shape,
            {i: entries_neg(m) for i, m in self._components.items()},
        )


def zero_form(base_dim: int, shape) -> MatrixForm:
    return _form(base_dim, tuple(shape), {})


def identity_form(base_dim: int, fiber_dim: int) -> MatrixForm:
    return _form(base_dim, (fiber_dim, fiber_dim), {(): identity_entries(fiber_dim)})


def scalar_form(base_dim: int, components: Mapping[MultiIndex, object]) -> MatrixForm:
    return MatrixForm(base_dim, (1, 1), {tuple(i): ((e,),) for i, e in components.items()})


def basis_one_form(base_dim: int, index: int, fiber_dim: int = 1) -> MatrixForm:
    """dx_index times the identity on the fiber."""
    return _form(base_dim, (fiber_dim, fiber_dim), {(index,): identity_entries(fiber_dim)})


def _wedge_pairs(a: MatrixForm, b: MatrixForm) -> dict:
    """{multi-index: [(ma, signed mb)]}: the matrix pairs whose products
    sum to each component of a ^ b."""
    a._check_compatible(b)
    if a.shape[1] != b.shape[0]:
        raise FormError(f"fiber shape mismatch: {a.shape} then {b.shape}")
    pairs: dict = {}
    for ia, ma in a._components.items():
        held = set(ia)
        for ib, mb in b._components.items():
            if held.isdisjoint(ib):
                signed = mb if _shuffle_sign(ia, ib) > 0 else entries_neg(mb)
                pairs.setdefault(tuple(sorted(ia + ib)), []).append((ma, signed))
    return pairs


def wedge(a: MatrixForm, b: MatrixForm) -> MatrixForm:
    """Graded product: basis forms shuffle with a sign, matrices multiply
    in order, repeated coordinate indices kill the term."""
    pairs = _wedge_pairs(a, b)
    return _form(a.base_dim, (a.shape[0], b.shape[1]),
                 {index: _entries_dot(p) for index, p in pairs.items()})


def wedge_power(a: MatrixForm, k: int) -> MatrixForm:
    """k-fold wedge power, multiplied left to right."""
    if k < 1:
        raise FormError("wedge power needs k >= 1")
    result = a
    for _ in range(k - 1):
        result = wedge(result, a)
    return result


def _d_addends(a: MatrixForm) -> dict:
    """{multi-index: [matrices]}: the signed derivative matrices that sum
    to each component of d a; an entry held in several places is
    differentiated once by each coordinate."""
    addends: dict = {}
    derivatives: dict = {}  # (id(e), j) -> d_j e, for the entries e that a holds

    def diff(e, j):
        if (id(e), j) not in derivatives:
            derivatives[id(e), j] = e.diff(j)
        return derivatives[id(e), j]

    for index, entries in a._components.items():
        for j in range(1, a.base_dim + 1):
            if j in index:
                continue
            derived = tuple(tuple(diff(e, j) if e.terms else e for e in row) for row in entries)
            if _entries_nonzero_structurally(derived):
                if _shuffle_sign((j,), index) < 0:
                    derived = entries_neg(derived)
                addends.setdefault(tuple(sorted(index + (j,))), []).append(derived)
    return addends


def exterior_d(a: MatrixForm) -> MatrixForm:
    """Componentwise exterior derivative d(A dx^I) = sum_j (d_j A) dx^j ^ dx^I."""
    return _form(a.base_dim, a.shape, {i: _entries_sum(m) for i, m in _d_addends(a).items()})


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
    for every i not in I, s the shuffle sign of dx_i past dx^I.  The sign
    goes on d_i alpha_I and on omega_i, and -omega_i is built at most once
    per call.  Each entry is one TrigPoly.dot over its derivative addends
    and the pairs whose two factors are both nonzero.  The zero-factor
    pairs are counted, not visited, and charged one term product each
    before the component's products, as TrigPoly.dot charges them."""
    if conn.fiber_dim != alpha.shape[0]:
        raise FormError("fiber dimension mismatch")
    omega = conn.form
    omega._check_compatible(alpha)
    m, cols = alpha.shape
    # the nonzero entries of alpha_I as (row, column, entry), column by column
    nonzero = {index: [(k, c, e) for c, column in enumerate(zip(*a))
                       for k, e in enumerate(column) if e.terms]
               for index, a in alpha._components.items()}
    # per component of the result, each entry's addends and pairs
    cells: dict = {}

    def cells_of(index):
        if index not in cells:
            cells[index] = [[([], []) for _ in range(cols)] for _ in range(m)]
        return cells[index]

    for index, a in nonzero.items():
        for i in range(1, alpha.base_dim + 1):
            if i in index:
                continue
            negative = _shuffle_sign((i,), index) < 0
            table = None
            for k, c, e in a:
                derived = e.diff(i)
                if derived.terms:
                    if table is None:
                        table = cells_of(tuple(sorted(index + (i,))))
                    table[k][c][0].append(-derived if negative else derived)
    # omega_i and -omega_i column by column, as (row, entry) over the nonzero entries
    zeros: dict = {}
    for (i,), w in omega._components.items():
        plus = [[(r, e) for r, e in enumerate(column) if e.terms] for column in zip(*w)]
        minus = None
        for index, a in nonzero.items():
            if i in index:
                continue
            if _shuffle_sign((i,), index) > 0:
                signed = plus
            else:
                if minus is None:
                    minus = [[(r, -e) for r, e in column] for column in plus]
                signed = minus
            target = tuple(sorted(index + (i,)))
            zeros[target] = zeros.get(target, 0) + m * m * cols
            table = cells_of(target)
            for k, c, x in a:
                for r, e in signed[k]:
                    table[r][c][1].append((e, x))
    components = {}
    for index, table in cells.items():
        visited = sum(len(pairs) for row in table for _, pairs in row)
        scalar.charge(zeros.get(index, 0) - visited)
        components[index] = tuple(tuple(TrigPoly.dot(pairs, addends) if pairs or addends else _ZERO
                                        for addends, pairs in row)
                                  for row in table)
    return _form(alpha.base_dim, alpha.shape, components)


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
        elif all(entries_is_zero(m) for index, m in power._components.items()
                 if len(index) < F.base_dim) and wedge(power, omega_form).is_zero():
            return n
    return None


def minimal_flatness_order(conn: Connection, max_n: int = 8):
    """Least n <= max_n with (d + omega)^n = 0, or None."""
    return minimal_order_from_curvature(curvature(conn), conn.form, max_n)


def probe_forms(conn: Connection):
    """The vector-valued probes that measure flatness by direct iteration,
    as the columns of two forms: f e_j for f in {1, x_1, ..., x_n}, the
    0-form [1 I | x_1 I | ... | x_n I], and dx_i e_j, the 1-form with
    dx_i I at column block i.  The coordinate functions make every
    F^K ^ dx_i direction visible through F^K ^ df."""
    n, m = conn.base_dim, conn.fiber_dim
    fs = [_ONE] + [TrigPoly.var(i) for i in range(1, n + 1)]
    functions = tuple(tuple(f if j == r else _ZERO for f in fs for j in range(m))
                      for r in range(m))
    one_forms = {(i,): tuple(tuple(_ONE if b == i and j == r else _ZERO
                                   for b in range(1, n + 1) for j in range(m))
                             for r in range(m))
                 for i in range(1, n + 1)}
    return [_form(n, (m, (n + 1) * m), {(): functions}), _form(n, (m, n * m), one_forms)]


def _nonzero_columns(a: MatrixForm) -> MatrixForm:
    """The columns of a that the zero test does not read as zero, as a form."""
    live = set()
    for entries in a._components.values():
        for c, column in enumerate(zip(*entries)):
            if c not in live and not all(scalar.is_zero(e) for e in column if e.terms):
                live.add(c)
    if len(live) == a.shape[1]:
        return a
    keep = sorted(live)
    return _form(a.base_dim, (a.shape[0], len(keep)),
                 {index: tuple(tuple(row[c] for c in keep) for row in entries)
                  for index, entries in a._components.items()})


def brute_force_flatness_order(conn: Connection, max_n: int = 8):
    """Least n <= max_n with nabla^n annihilating every probe, measured by
    actually iterating the covariant derivative on the probe columns.
    nabla acts column by column, and a column that has become the zero
    function stays zero under nabla, so after each step the columns that
    the zero test reads as zero drop out."""
    current = probe_forms(conn)
    for n in range(1, max_n + 1):
        current = [_nonzero_columns(nabla_apply(conn, a)) for a in current]
        current = [a for a in current if a.shape[1]]
        if not current:
            # orders below 2 are not meaningful flatness orders
            return max(n, 2)
    return None


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


def curvature_components(F: MatrixForm) -> dict:
    """The matrices F_ij for i < j from a degree-2 form."""
    comp = {}
    for index, entries in F._components.items():
        if len(index) != 2:
            raise FormError("curvature component extraction needs a 2-form")
        comp[index] = entries
    return comp


def pairing_sum(components: Mapping, index_set: Iterable[int], fiber_dim: int) -> Matrix:
    """Signed sum over pairings, over every ordering of each pairing's
    pairs, of the ordered matrix products of paired components.  This is
    exactly the dx^A coefficient of the corresponding power of
    sum_{i<j} F_ij dx^i ^ dx^j.  Entries may be rationals.  Each entry is
    one TrigPoly.dot of the signed prefix products against the last
    factors."""
    elements = sorted(index_set)
    pairings = ordered_pairings(elements)
    zero = zero_entries(fiber_dim, fiber_dim)
    polys = {pair: _poly_entries(components.get(pair, zero)) for pair in combinations(elements, 2)}
    if len(elements) < 4:
        # the empty product, or the one pairing's single factor
        return polys[tuple(elements)] if elements else identity_entries(fiber_dim)
    pairs = []
    for pairing in pairings:
        for order in permutations(pairing.pairs):
            factors = [polys[pair] for pair in order]
            prefix = reduce(entries_mul, factors[:-1])
            pairs.append((prefix if pairing.sign > 0 else entries_neg(prefix), factors[-1]))
    return _entries_dot(pairs)


def pairing_power_form(F: MatrixForm, k: int) -> MatrixForm:
    """Reassembles sum_A pairing_sum(A) dx^A; equals wedge_power(F, k)."""
    comps = curvature_components(F)
    m = F.shape[0]
    out = {}
    for A in combinations(range(1, F.base_dim + 1), 2 * k):
        out[A] = pairing_sum(comps, A, m)
    return _form(F.base_dim, F.shape, out)


def pairing_flatness_certificate(conn: Connection, k: int):
    """Certificate that (d + omega)^{2k} = 0, checked through the pairing
    expansion: the signed pairing sum must vanish for every 2k-subset of
    coordinates.  Returns (verdict, failing subsets)."""
    if k < 1:
        raise FormError("k must be at least 1")
    F = curvature(conn)
    comps = curvature_components(F)
    failures = []
    for A in combinations(range(1, conn.base_dim + 1), 2 * k):
        total = pairing_sum(comps, A, conn.fiber_dim)
        if not entries_is_zero(total):
            failures.append(A)
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
    id1, id2 = identity_entries(m1), identity_entries(m2)
    zero1, zero2 = zero_entries(m1, m1), zero_entries(m2, m2)
    comps = {}
    for i in range(1, c1.base_dim + 1):
        left = linalg.kronecker(c1.form._components.get((i,), zero1), id2)
        right = linalg.kronecker(id1, c2.form._components.get((i,), zero2))
        comps[(i,)] = _entries_sum([left, right])
    return Connection(_form(c1.base_dim, (m1 * m2, m1 * m2), comps))


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
