import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, strategies as st

from ndga import forms, scalar
from ndga.forms import (
    Connection, FormError, MatrixForm,
    basis_one_form, brute_force_flatness_order, connection_from_coefficients,
    curvature, exterior_d, identity_form, is_n_flat, minimal_flatness_order,
    nabla_apply, nabla_power, ordered_pairings, pairing_flatness_certificate,
    pairing_power_form, pairing_sum, scalar_form, tensor_connection, wedge,
    wedge_power, zero_form,
)
from ndga.scalar import TrigPoly

from conftest import least_accepted_order, sympy_of_text, sympy_reduced

var = TrigPoly.var
x1, x2 = var(1), var(2)
ZERO, ONE = TrigPoly.zero(), TrigPoly.one()

E11 = ((1, 0), (0, 0))
E12 = ((0, 1), (0, 0))


def rotation_connection():
    return connection_from_coefficients(4, {1: ((x2,),), 2: ((-x1,),)})


def triangular_connection():
    return connection_from_coefficients(4, {1: E11, 2: E12})


def random_polynomial_connection(rng, base_dim=4, fiber_dim=2, max_terms=2):
    def poly():
        terms = []
        for _ in range(max_terms):
            c = rng.randint(-2, 2)
            if c:
                terms.append(c * var(rng.randint(1, base_dim)))
        return sum(terms, ZERO)

    coefficients = {
        i: tuple(tuple(poly() for _ in range(fiber_dim)) for _ in range(fiber_dim))
        for i in range(1, base_dim + 1)
    }
    return connection_from_coefficients(base_dim, coefficients)


def poly_matrix(rows):
    return tuple(tuple(scalar.as_poly(e) for e in row) for row in rows)


# ------------------------------------------------------------------
# wedge
# ------------------------------------------------------------------

def test_wedge_antisymmetry_of_basis_forms():
    a, b = basis_one_form(3, 1), basis_one_form(3, 2)
    assert (wedge(a, b) + wedge(b, a)).is_structurally_zero()
    assert wedge(a, a).is_structurally_zero()


def test_wedge_matrix_product():
    # (E11 dx1) ^ (E12 dx2) = E12 dx1^dx2 because E11 E12 = E12
    a = MatrixForm(2, (2, 2), {(1,): E11})
    b = MatrixForm(2, (2, 2), {(2,): E12})
    product = wedge(a, b)
    assert product.components() == [((1, 2), poly_matrix(E12))]


def test_identity_is_a_two_sided_unit():
    one = identity_form(3, 2)
    a = MatrixForm(3, (2, 2), {(1,): E11, (2, 3): ((x1, 0), (0, x2))})
    assert wedge(one, a) == a
    assert wedge(a, one) == a


@given(st.data())
def test_wedge_graded_commutativity_scalar_fiber(data):
    rng = random.Random(data.draw(st.integers(min_value=0, max_value=10**6)))
    n = 3

    def random_scalar_form(degree):
        comps = {}
        for index in combinations(range(1, n + 1), degree):
            c = rng.randint(-2, 2)
            if c:
                comps[index] = c * var(rng.randint(1, n))
        return MatrixForm(n, (1, 1), {i: ((e,),) for i, e in comps.items()})

    p = data.draw(st.integers(min_value=0, max_value=2))
    q = data.draw(st.integers(min_value=0, max_value=2))
    a, b = random_scalar_form(p), random_scalar_form(q)
    sign = -1 if (p * q) % 2 else 1
    assert (wedge(a, b) - wedge(b, a).scale(sign)).is_structurally_zero()


def test_wedge_associativity():
    rng = random.Random(5)
    conn = random_polynomial_connection(rng)
    F = curvature(conn)
    left = wedge(wedge(F, conn.form), F)
    right = wedge(F, wedge(conn.form, F))
    assert (left - right).is_zero()


# ------------------------------------------------------------------
# exterior derivative
# ------------------------------------------------------------------

def test_exterior_d_of_scalar_one_form():
    a = scalar_form(2, {(1,): x2})
    d = exterior_d(a)
    assert d.components() == [((1, 2), ((TrigPoly.const(-1),),))]


def test_d_squared_is_zero():
    rng = random.Random(9)
    for _ in range(5):
        f = sum((rng.randint(-3, 3) * var(rng.randint(1, 3)) * var(rng.randint(1, 3))
                 for _ in range(3)), ZERO)
        form = scalar_form(3, {(): f})
        assert exterior_d(exterior_d(form)).is_structurally_zero()


def test_graded_leibniz():
    rng = random.Random(13)
    n = 3
    for _ in range(5):
        deg_a = rng.randint(0, 2)
        comps_a = {i: ((rng.randint(-2, 2) * var(rng.randint(1, n)),),)
                   for i in combinations(range(1, n + 1), deg_a)}
        comps_b = {i: ((rng.randint(-2, 2) * var(rng.randint(1, n)),),)
                   for i in combinations(range(1, n + 1), rng.randint(0, 2))}
        a = MatrixForm(n, (1, 1), comps_a)
        b = MatrixForm(n, (1, 1), comps_b)
        lhs = exterior_d(wedge(a, b))
        sign = -1 if deg_a % 2 else 1
        rhs = wedge(exterior_d(a), b) + wedge(a, exterior_d(b)).scale(sign)
        assert (lhs - rhs).is_zero()


def test_d_convention_on_rotation_field():
    # d(x2 dx1 - x1 dx2) = -2 dx1^dx2 under the dx^j ^ dx^i component rule
    conn = rotation_connection()
    d = exterior_d(conn.form)
    assert d.component((1, 2)) == ((TrigPoly.const(-2),),)


# ------------------------------------------------------------------
# curvature, covariant powers, flatness
# ------------------------------------------------------------------

def test_zero_connection_curvature():
    conn = connection_from_coefficients(3, {})
    assert curvature(conn).is_structurally_zero()


def test_rotation_curvature_magnitude():
    F = curvature(rotation_connection())
    entry = F.component((1, 2))[0][0]
    assert entry in (TrigPoly.const(2), TrigPoly.const(-2))
    assert wedge_power(F, 2).is_zero()


def test_triangular_curvature_is_e12():
    F = curvature(triangular_connection())
    assert F.components() == [((1, 2), poly_matrix(E12))]


def test_nabla_is_d_for_zero_connection():
    conn = connection_from_coefficients(3, {}, )
    alpha = MatrixForm(3, (1, 1), {(1,): ((x1 * x2,),)})
    assert nabla_apply(conn, alpha) == exterior_d(alpha)


def test_nabla_squared_equals_curvature_action():
    rng = random.Random(21)
    conn = random_polynomial_connection(rng)
    F = curvature(conn)
    alpha = MatrixForm(4, (2, 1), {
        (): ((x1,), (x2 * var(3),)),
        (3,): ((ONE,), (ZERO,)),
    })
    assert (nabla_power(conn, alpha, 2) - wedge(F, alpha)).is_zero()


def test_triangular_annihilates_dx1_section():
    conn = triangular_connection()
    alpha = MatrixForm(4, (2, 1), {(1,): ((ONE,), (ZERO,))})
    assert nabla_power(conn, alpha, 2).is_zero()


@pytest.mark.parametrize("n,expected", [(2, False), (3, False), (4, True), (5, True)])
def test_rotation_flatness_orders(n, expected):
    assert is_n_flat(rotation_connection(), n) is expected


@pytest.mark.parametrize("n,expected", [(2, False), (3, False), (4, True)])
def test_triangular_flatness_orders(n, expected):
    assert is_n_flat(triangular_connection(), n) is expected


def test_zero_connection_flat_for_all_orders():
    conn = connection_from_coefficients(4, {})
    assert all(is_n_flat(conn, n) for n in range(2, 9))


def test_minimal_orders():
    assert minimal_flatness_order(rotation_connection()) == 4
    assert minimal_flatness_order(triangular_connection()) == 4


def test_small_trig_coefficient_is_not_flat():
    # F = -1/10^12 cos(x2) dx1^dx2 is nonzero and a top form on base 2, so
    # the order is 3 however small the coefficient
    for text in ("1/10^12*sin(x2)", "sin(x2)"):
        conn = connection_from_coefficients(2, {1: ((scalar.expand(text),),)})
        assert minimal_flatness_order(conn, 8) == 3
        assert brute_force_flatness_order(conn, 8) == 3


def test_brute_force_agrees_with_certificates():
    rng = random.Random(2024)
    for _ in range(4):
        conn = random_polynomial_connection(rng)
        assert brute_force_flatness_order(conn, 8) == minimal_flatness_order(conn, 8)


def test_polynomial_forms_never_sample(monkeypatch):
    def no_sampling(e, point):
        raise AssertionError("a polynomial zero test sampled")

    conn = random_polynomial_connection(random.Random(2024))
    monkeypatch.setattr(scalar, "evaluate", no_sampling)
    assert brute_force_flatness_order(conn, 8) == minimal_flatness_order(conn, 8)


def _scan_connections():
    """Seeded, structured and trig connections of this file, the rotation
    connection first."""
    connections = [rotation_connection(), triangular_connection(),
                   connection_from_coefficients(4, {})]
    for seed in (5, 31, 77, 2024):
        rng = random.Random(seed)
        connections += [random_polynomial_connection(rng) for _ in range(3)]
    connections.append(trig_connection())
    connections.append(connection_from_coefficients(6, {
        1: ((x2, ZERO), (ZERO, x1)),
        2: ((x1 * x2, x1), (ZERO, x2)),
    }))
    return connections


def test_flatness_scan_matches_the_order_oracle():
    for conn in _scan_connections():
        F = curvature(conn)
        for max_n in (3, 8):
            assert forms.minimal_order_from_curvature(F, conn.form, max_n) == \
                least_accepted_order(F, conn.form, max_n)


def test_flatness_scan_takes_at_most_one_wedge_per_order(monkeypatch):
    # F^K grows by one wedge at each even order and F^K ^ dx_i is read from
    # F^K, so an odd order costs at most the wedge with omega
    cases = [(curvature(conn), conn.form) for conn in _scan_connections()]
    calls = []

    def counting(a, b):
        calls.append((a, b))
        return original(a, b)

    original = forms.wedge
    monkeypatch.setattr(forms, "wedge", counting)
    for F, omega_form in cases:
        del calls[:]
        order = forms.minimal_order_from_curvature(F, omega_form, 8)
        assert len(calls) <= (8 if order is None else order) - 2
    # the rotation connection, order 4 on a 4-dimensional base: F ^ dx3 != 0
    # is read from F, then F ^ F is the one wedge
    del calls[:]
    assert forms.minimal_order_from_curvature(*cases[0], 8) == 4
    assert len(calls) == 1


def test_scale_takes_any_scalar():
    # a rational or a TrigPoly scales each entry as TrigPoly's * would
    form = MatrixForm(2, (2, 2), {
        (1,): ((x2, ZERO), (x1, 1)),
        (1, 2): ((scalar.expand("cos(x1)"), 3), (ZERO, x1)),
    })
    for c in (Fraction(-3, 2), x1, scalar.expand("sin(x2) + 1"), TrigPoly.var(2)):
        expected = MatrixForm(2, (2, 2), {
            index: tuple(tuple(c * e for e in row) for row in m)
            for index, m in form.components()
        })
        assert form.scale(c) == expected
    assert form.scale(0).is_structurally_zero()
    assert -form == form.scale(-1)


def trig_connection():
    return connection_from_coefficients(2, {
        1: ((scalar.expand("sin(x2)"), ZERO), (x1, scalar.expand("cos(x1 + x2)"))),
        2: ((ZERO, scalar.expand("x1*sin(x2)^2")), (ZERO, x2)),
    })


def test_form_arithmetic_builds_no_expressions(monkeypatch):
    # entries are expanded when they are read; after that wedge, d, nabla,
    # the flatness scans and the certificates run on TrigPoly arithmetic
    connections = [random_polynomial_connection(random.Random(5)), trig_connection()]

    def refuse(*args):
        raise AssertionError("expression trees inside form arithmetic")

    for name in ("normalize", "parse"):
        monkeypatch.setattr(scalar, name, refuse)
    for conn in connections:
        F = curvature(conn)
        wedge(F, conn.form).is_zero()
        exterior_d(F).is_zero()
        for probe in forms.probe_forms(conn):
            nabla_apply(conn, probe).is_zero()
        minimal_flatness_order(conn, 8)
        brute_force_flatness_order(conn, 8)
        pairing_flatness_certificate(conn, 1)
        tensor_connection(conn, conn)


# ------------------------------------------------------------------
# oracle: the same objects built in sympy
# ------------------------------------------------------------------
#
# The forms below are dicts {multi-index: matrix of sympy expressions}
# combined with sympy's arithmetic and sympy.diff: a route independent of
# the polynomial one that forms uses.  Entries are compared after sympy
# expands them and rewrites sin^2 u as 1 - cos^2 u, the reduction that
# makes TrigPoly canonical.

def oracle_shuffle(left, right):
    """(sign, merged index) of dx^left ^ dx^right, or None on a repeated
    index; the sign is counted on the concatenation, not taken from forms."""
    if set(left) & set(right):
        return None
    return _oracle_permutation_sign(left + right), tuple(sorted(left + right))


def oracle_wedge(a, b):
    out = {}
    for ia, ma in a.items():
        for ib, mb in b.items():
            merged = oracle_shuffle(ia, ib)
            if merged is None:
                continue
            sign, index = merged
            product = [
                [sign * sum(ma[i][k] * mb[k][j] for k in range(len(mb)))
                 for j in range(len(mb[0]))]
                for i in range(len(ma))
            ]
            out[index] = oracle_add(out.get(index), product)
    return out


def oracle_d(a, base_dim):
    sympy = pytest.importorskip("sympy")
    out = {}
    for index, m in a.items():
        for j in range(1, base_dim + 1):
            if j in index:
                continue
            sign, merged = oracle_shuffle((j,), index)
            derived = [[sign * sympy.diff(e, sympy.Symbol(f"x{j}")) for e in row] for row in m]
            out[merged] = oracle_add(out.get(merged), derived)
    return out


def oracle_add(a, b):
    if a is None:
        return b
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def oracle_sum(a, b):
    out = dict(a)
    for index, m in b.items():
        out[index] = oracle_add(out.get(index), m)
    return out


def assert_matches(form, oracle):
    """form equals the oracle's dict, entry by entry."""
    rows, cols = form.shape
    for index in {i for i, _ in form.components()} | set(oracle):
        expected = oracle.get(index, [[0] * cols for _ in range(rows)])
        got = form.component(index)
        for i in range(rows):
            for j in range(cols):
                assert sympy_reduced(sympy_of_text(scalar.render(got[i][j])) - expected[i][j]) == 0


TRIG_FACTORS = ("sin(x{})", "cos(x{})", "sin(x{} + x1)", "cos(2*x{})")


@given(st.data())
def test_form_arithmetic_matches_the_expression_oracle(data):
    pytest.importorskip("sympy")
    rng = random.Random(data.draw(st.integers(min_value=0, max_value=10**6)))
    base = data.draw(st.integers(min_value=1, max_value=3))
    fiber = data.draw(st.integers(min_value=1, max_value=2))
    trig = data.draw(st.booleans())

    def entry():
        """The same entry as text, for sympy, and as a TrigPoly."""
        terms = []
        for _ in range(rng.randint(0, 2)):
            factors = [f"{rng.randint(-3, 3)}/{rng.choice((1, 2))}"]
            factors += [f"x{rng.randint(1, base)}" for _ in range(rng.randint(0, 2))]
            if trig and rng.random() < 0.5:
                factors.append(rng.choice(TRIG_FACTORS).format(rng.randint(1, base)))
            terms.append("(" + "*".join(factors) + ")")
        text = " + ".join(terms) or "0"
        return sympy_of_text(text), scalar.expand(text)

    def split(matrix):
        return ([[e for e, _ in row] for row in matrix],
                tuple(tuple(p for _, p in row) for row in matrix))

    omega, coefficients = {}, {}
    for i in range(1, base + 1):
        omega[(i,)], coefficients[i] = split(
            [[entry() for _ in range(fiber)] for _ in range(fiber)])
    conn = connection_from_coefficients(base, coefficients)
    degree = rng.randint(0, base)
    index = tuple(sorted(rng.sample(range(1, base + 1), degree)))
    column, entries = split([[entry()] for _ in range(fiber)])
    probe = {index: column}
    alpha = MatrixForm(base, (fiber, 1), {index: entries})

    F = oracle_sum(oracle_d(omega, base), oracle_wedge(omega, omega))
    assert_matches(curvature(conn), F)
    assert_matches(nabla_apply(conn, alpha),
                   oracle_sum(oracle_d(probe, base), oracle_wedge(omega, probe)))
    assert_matches(wedge(curvature(conn), alpha), oracle_wedge(F, probe))


def test_block_connections_are_flat_beyond_the_block():
    # curvature supported on the first two coordinates: 2N-flat for N > 2
    conn = connection_from_coefficients(6, {
        1: ((x2, ZERO), (ZERO, x1)),
        2: ((x1 * x2, x1), (ZERO, x2)),
    })
    F = curvature(conn)
    for index, _ in F.components():
        assert set(index) <= {1, 2}
    assert is_n_flat(conn, 6)
    assert is_n_flat(conn, 8)


# ------------------------------------------------------------------
# ordered pairings and the expansion of curvature powers
# ------------------------------------------------------------------

def _oracle_permutation_sign(seq):
    sign = 1
    items = list(seq)
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            if items[i] > items[j]:
                sign = -sign
    return sign


def test_pairing_of_two_elements():
    [p] = ordered_pairings({1, 2})
    assert p.pairs == ((1, 2),) and p.sign == 1


def test_pairings_of_four_elements():
    got = {(p.pairs, p.sign) for p in ordered_pairings({1, 2, 3, 4})}
    assert got == {
        (((1, 2), (3, 4)), 1),
        (((1, 3), (2, 4)), -1),
        (((1, 4), (2, 3)), 1),
    }
    for p in ordered_pairings({1, 2, 3, 4}):
        flattened = [x for pair in p.pairs for x in pair]
        assert p.sign == _oracle_permutation_sign(flattened)


def test_pairing_count_for_six():
    assert len(ordered_pairings(range(1, 7))) == 15


def test_pairing_sum_zero_components():
    total = pairing_sum({}, (1, 2, 3, 4), 2)
    assert all(e == ZERO for row in total for e in row)


def test_pairing_sum_single_component_vanishes_at_k2():
    # only F_12 nonzero: every pairing of {1,2,3,4} uses a zero factor
    comps = {(1, 2): ((-2,),)}
    total = pairing_sum(comps, (1, 2, 3, 4), 1)
    assert total == ((ZERO,),)


def test_pairing_power_form_matches_wedge_power():
    rng = random.Random(77)
    conn = random_polynomial_connection(rng)
    F = curvature(conn)
    for k in (1, 2):
        assert (pairing_power_form(F, k) - wedge_power(F, k)).is_zero()


def test_certificate_on_rotation_connection():
    ok, failures = pairing_flatness_certificate(rotation_connection(), 2)
    assert ok and not failures
    ok1, failures1 = pairing_flatness_certificate(rotation_connection(), 1)
    assert not ok1 and failures1 == [(1, 2)]


def test_certificate_for_flat_connection():
    ok, failures = pairing_flatness_certificate(connection_from_coefficients(4, {}), 1)
    assert ok and not failures


def test_certificate_matches_is_n_flat_on_random_connections():
    rng = random.Random(31)
    for _ in range(3):
        conn = random_polynomial_connection(rng)
        for k in (1, 2):
            ok, _ = pairing_flatness_certificate(conn, k)
            assert ok == is_n_flat(conn, 2 * k)


# ------------------------------------------------------------------
# tensor connections
# ------------------------------------------------------------------

def test_tensor_of_zero_connections():
    z = connection_from_coefficients(3, {})
    t = tensor_connection(z, z)
    assert t.form.is_structurally_zero()
    assert t.fiber_dim == 1


def test_tensor_of_flat_connections_is_flat():
    flat = connection_from_coefficients(4, {1: ((ONE,),)})
    assert minimal_flatness_order(flat) == 2
    t = tensor_connection(flat, flat)
    assert is_n_flat(t, 2)
    assert is_n_flat(t, 3)


def test_tensor_of_rotation_with_itself():
    # the curvature doubles and its square still vanishes: the measured
    # order is 4, inside the general bound 4 + 4 - 1 = 7 and the even-order
    # bound 4 + 4 - 2 = 6
    t = tensor_connection(rotation_connection(), rotation_connection())
    F = curvature(t)
    assert F.component((1, 2))[0][0] in (TrigPoly.const(4), TrigPoly.const(-4))
    assert minimal_flatness_order(t, 8) == 4
    assert is_n_flat(t, 7)


def test_tensor_fiber_dimensions_multiply():
    t = tensor_connection(triangular_connection(), triangular_connection())
    assert t.fiber_dim == 4
    assert minimal_flatness_order(t, 8) == brute_force_flatness_order(t, 8)


def test_tensor_base_mismatch():
    with pytest.raises(FormError):
        tensor_connection(
            connection_from_coefficients(3, {}),
            connection_from_coefficients(4, {}),
        )


# ------------------------------------------------------------------
# connection files
# ------------------------------------------------------------------

def test_parse_connection_round_trip(data_path):
    conn = forms.load_connection(data_path("rotation.conn"))
    assert conn.base_dim == 4 and conn.fiber_dim == 1
    assert conn.coefficient(1) == ((x2,),)
    assert conn.coefficient(2) == ((-x1,),)
    assert conn.coefficient(3) == ((ZERO,),)


def test_parse_connection_errors():
    with pytest.raises(forms.ConnectionFileError, match="line 1"):
        forms.parse_connection("fiber 2\nbase 4\n")
    with pytest.raises(forms.ConnectionFileError, match="line 4"):
        forms.parse_connection("base 2\nfiber 1\nomega 1\nsin(\n")
    with pytest.raises(forms.ConnectionFileError, match="out of range"):
        forms.parse_connection("base 2\nfiber 1\nomega 5\n0\n")


def test_connection_requires_degree_one():
    with pytest.raises(FormError):
        Connection(MatrixForm(2, (1, 1), {(1, 2): ((x1,),)}))
