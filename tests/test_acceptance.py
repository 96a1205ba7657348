"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line.  Run with `pytest -s tests/test_acceptance.py` to see every line.

All numeric expectations are exact (Fraction equality or the library's
zero test); the only tolerances are the stated wall-clock budgets.
"""

import random
import time
from fractions import Fraction as Fr

import pytest

from ndga import chern_simons as cs
from ndga import depth, forms, knflat, linalg, ncomplex, riemann, scalar
from ndga.scalar import TrigPoly

var = TrigPoly.var
ZERO, ONE = TrigPoly.zero(), TrigPoly.one()

from conftest import least_accepted_order


def report(number, slug, ok):
    print(f"ACCEPT {number:02d} {slug}: {'PASS' if ok else 'FAIL'}")


def seeded_polynomial_connection(rng, base_dim=4, fiber_dim=2):
    def poly():
        terms = []
        for _ in range(2):
            c = rng.randint(-2, 2)
            if c:
                terms.append(c * var(rng.randint(1, base_dim)))
        return sum(terms, ZERO)

    coefficients = {
        i: tuple(tuple(poly() for _ in range(fiber_dim)) for _ in range(fiber_dim))
        for i in range(1, base_dim + 1)
    }
    return forms.connection_from_coefficients(base_dim, coefficients)


# ------------------------------------------------------------------

def test_c01_chern_simons_tables():
    expected = {
        2: {("a", "da", "da"): Fr(4, 3),
            ("a", "a", "a", "da"): Fr(2),
            ("a",) * 5: Fr(4, 5)},
        3: {("a", "da", "da", "da"): Fr(3, 2),
            ("a", "a", "a", "da", "da"): Fr(18, 5),
            ("a", "a", "a", "a", "a", "da"): Fr(3),
            ("a",) * 7: Fr(6, 7)},
        4: {("a",) + ("da",) * 4: Fr(8, 5),
            ("a",) * 3 + ("da",) * 3: Fr(16, 3),
            ("a",) * 5 + ("da",) * 2: Fr(48, 7),
            ("a",) * 7 + ("da",): Fr(4),
            ("a",) * 9: Fr(8, 9)},
    }
    ok = True
    for k, table in expected.items():
        start = time.perf_counter()
        computed = cs.chern_simons_lagrangian(k)
        elapsed = time.perf_counter() - start
        ok = ok and computed == table and elapsed < 1.0
    report(1, "chern-simons-tables", ok)
    for k, table in expected.items():
        assert cs.chern_simons_lagrangian(k) == table
    assert ok


def test_c02_worked_cubic_expansion():
    start = time.perf_counter()
    expansion = dict(knflat.nabla_power_expansion(3, 3))
    path_checks = [
        ((2,), {((), (0,), (1,), (2,)): 1}),
        ((1, 0), {((), (0,), (0, 0), (1, 0)): 1}),
        ((0, 1), {((), (0,), (0, 0), (0, 1)): -1,
                  ((), (0,), (1,), (0, 1)): 1}),
        ((0, 0, 0), {((), (0,), (0, 0), (0, 0, 0)): 1}),
        ((1,), {((), (), (0,), (1,)): 1,
                ((), (0,), (0,), (1,)): -1,
                ((), (0,), (1,), (1,)): 1}),
        ((0, 0), {((), (), (0,), (0, 0)): 1,
                  ((), (0,), (0,), (0, 0)): -1,
                  ((), (0,), (0, 0), (0, 0)): 1}),
        ((0,), {((), (), (), (0,)): 1,
                ((), (), (0,), (0,)): -1,
                ((), (0,), (0,), (0,)): 1}),
    ]
    elapsed = time.perf_counter() - start
    ok = (
        expansion[0] == {(2,): 1, (1, 0): 1, (0, 0, 0): 1}
        and expansion[1] == {(1,): 1, (0, 0): 1}
        and expansion[2] == {(0,): 1}
        and knflat.c_coefficient((0, 1), 3) == 0
        and all(dict(knflat.enumerate_paths(3, s)) == weights for s, weights in path_checks)
        and elapsed < 1.0
    )
    report(2, "worked-cubic-expansion", ok)
    assert ok


def test_c03_oracle_equivalence():
    start = time.perf_counter()
    ok = all(
        knflat.nabla_power_expansion(n, k) == knflat.oracle_expansion(n, k)
        for n in range(1, 7)
        for k in range(2, 5)
    )
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    report(3, "path-oracle-equivalence", ok)
    assert ok


def test_c04_rotation_connection(data_path):
    conn = forms.load_connection(data_path("rotation.conn"))
    F = forms.curvature(conn)
    coefficient = F.component((1, 2))[0][0]
    magnitude_ok = scalar.is_zero(coefficient * coefficient - 4)
    square = forms.wedge_power(F, 2)
    square_ok = all(
        scalar.is_zero(e) for _, m in square.components() for row in m for e in row
    ) and square.is_zero()
    order = forms.minimal_flatness_order(conn, 8)
    ok = magnitude_ok and square_ok and order == 4
    report(4, "rotation-connection", ok)
    assert ok


def test_c05_triangular_connection(data_path):
    conn = forms.load_connection(data_path("triangular_pair.conn"))
    E12 = forms.MatrixForm(4, (2, 2), {(1, 2): ((0, 1), (0, 0))})
    F = forms.curvature(conn)
    exact = F == E12
    order = forms.minimal_flatness_order(conn, 8)
    section = forms.MatrixForm(4, (2, 1), {(1,): ((ONE,), (ZERO,))})
    kernel = forms.nabla_power(conn, section, 2).is_zero()
    ok = exact and order == 4 and kernel
    report(5, "triangular-connection", ok)
    assert ok


def test_c06_product_metric(data_path):
    g = riemann.load_metric(data_path("sphere_torus.metric"))
    form = riemann.riemann_form(g)
    components = form.components()
    single_block = [index for index, _ in components] == [(1, 2)]
    sin2 = scalar.expand("sin(x2)^2")
    expected = [
        [ZERO, ONE, ZERO, ZERO],
        [-sin2, ZERO, ZERO, ZERO],
        [ZERO] * 4,
        [ZERO] * 4,
    ]
    block = components[0][1] if single_block else None
    entries_ok = single_block and all(
        scalar.is_zero(entry - expected_entry)
        for row, expected_row in zip(block, expected)
        for entry, expected_entry in zip(row, expected_row)
    )
    flat4 = riemann.levi_civita_n_flat(g, 4)
    flat2 = riemann.levi_civita_n_flat(g, 2)
    ok = entries_ok and flat4 and not flat2
    report(6, "product-metric-curvature", ok)
    assert ok


def test_c07_pairing_certificates():
    rng = random.Random(20260101)
    ok = True
    for _ in range(20):
        conn = seeded_polynomial_connection(rng)
        F = forms.curvature(conn)
        for k in (1, 2):
            certified, _ = forms.pairing_flatness_certificate(conn, k)
            direct = forms.wedge_power(F, k).is_zero()
            ok = ok and certified == direct
            reassembled = forms.pairing_power_form(F, k)
            ok = ok and (reassembled - forms.wedge_power(F, k)).is_zero()
    report(7, "pairing-expansion-agreement", ok)
    assert ok


def test_c08_operator_order_agreement():
    rng = random.Random(77001)
    ok = True
    for _ in range(10):
        conn = seeded_polynomial_connection(rng)
        brute = forms.brute_force_flatness_order(conn, 8)
        certified = forms.minimal_flatness_order(conn, 8)
        ok = ok and brute == certified and brute is not None
    report(8, "operator-vs-certificate-order", ok)
    assert ok


def test_flatness_scan_matches_the_order_oracle_on_seeded_connections():
    # the c07 and c08 connections: the incremental scan of
    # minimal_flatness_order against n_flat_from_curvature order by order
    for seed, count in ((20260101, 20), (77001, 10)):
        rng = random.Random(seed)
        for _ in range(count):
            conn = seeded_polynomial_connection(rng)
            F = forms.curvature(conn)
            assert forms.minimal_order_from_curvature(F, conn.form, 8) == \
                least_accepted_order(F, conn.form, 8)


def test_c09_tensor_order_bound(data_path):
    # omega_t = omega_1 (x) I + I (x) omega_2 gives F_t = F_1 (x) I + I (x) F_2
    # with commuting terms (2-forms are even, the Kronecker factors act on
    # separate slots), so F_t^K = sum_i C(K, i) F_1^i (x) F_2^(K-i).  For
    # orders N = 2a and M = 2b every term of F_t^(a+b-1) holds F_1^a or F_2^b,
    # so the product is (N+M-2)-flat on a base of any dimension.  The old
    # expectation "7-flat and not 6-flat" for rotation (x) rotation was
    # therefore false; its exact order is 4 (F_t = -4 dx1^dx2, F_t^2 = 0).
    conn = forms.load_connection(data_path("rotation.conn"))
    t = forms.tensor_connection(conn, conn)
    seven_flat = forms.is_n_flat(t, 7)
    square_orders = (forms.minimal_flatness_order(t, 8),
                     forms.brute_force_flatness_order(t, 8))

    # sharpness of N + M - 2 = 6: two exactly 4-flat rotations in disjoint
    # planes of a 5-dimensional base have F_t^2 = 2 F_a F_b != 0 and
    # F_t^2 ^ dx5 != 0.  On a 4-dimensional base F_t^2 would be a top form
    # and the product only 5-flat.
    a = forms.connection_from_coefficients(
        5, {1: ((var(2),),), 2: ((-var(1),),)})
    b = forms.connection_from_coefficients(
        5, {3: ((var(4),),), 4: ((-var(3),),)})
    factor_orders = [order(c, 8) for c in (a, b)
                     for order in (forms.minimal_flatness_order,
                                   forms.brute_force_flatness_order)]
    ab = forms.tensor_connection(a, b)
    product_orders = (forms.minimal_flatness_order(ab, 8),
                      forms.brute_force_flatness_order(ab, 8))
    sharp = not forms.is_n_flat(ab, 5) and forms.is_n_flat(ab, 6)

    ok = (seven_flat and square_orders == (4, 4) and factor_orders == [4] * 4
          and product_orders == (6, 6) and sharp)
    report(9, "tensor-order-bound", ok)
    assert seven_flat
    assert square_orders == (4, 4)
    assert factor_orders == [4] * 4
    assert product_orders == (6, 6)
    assert sharp


def test_c10_depth_nilpotency():
    measured = {profile: depth.minimal_nilpotency(profile)
                for profile in [(2,), (3,), (4,), (5,), (2, 2), (3, 2)]}
    expected = {(2,): 2, (3,): 3, (4,): 4, (5,): 5, (2, 2): 2}
    ok = all(measured[p] == v for p, v in expected.items())
    mixed = measured[(3, 2)]
    ok = ok and mixed <= depth.nilpotency_bound((3, 2))
    print(f"  note: profile (3,2) measured nilpotency {mixed}, "
          f"exact Koszul order {depth.nilpotency((3, 2))} "
          f"(additive-minus-count value would be 3; tensor bound 4)")
    report(10, "depth-nilpotency", ok)
    assert ok


def test_c11_depth_algebra_laws():
    rng = random.Random(55005)
    profiles = [(2,), (3,), (5,), (2, 2), (3, 2), (2, 2, 2), (3, 3, 3)]

    def random_monomial(profile):
        depths = {}
        for position in range(1, len(profile) + 1):
            if rng.random() < 0.7:
                depths[position] = rng.randint(1, profile[position - 1] - 1)
        coefficient = TrigPoly.const(rng.choice([1, 2, -1, Fr(1, 2)]))
        for i in range(len(profile)):
            coefficient = coefficient * var(i + 1).power(rng.randint(0, 2))
        return depth.monomial(profile, coefficient, depths)

    ok = True
    for profile in profiles:
        assert sum(profile) <= 9
        for _ in range(200):
            a, b, c = (random_monomial(profile) for _ in range(3))
            assoc = (depth.multiply(depth.multiply(a, b), c)
                     - depth.multiply(a, depth.multiply(b, c))).is_zero()
            deg = sum(d for _, d in next(iter(a._terms)))
            sign = -1 if deg % 2 else 1
            leibniz = (
                depth.differential(depth.multiply(a, b))
                - depth.multiply(depth.differential(a), b)
                - depth.multiply(a, depth.differential(b)).scale(sign)
            ).is_zero()
            ok = ok and assoc and leibniz

    def random_invertible(k):
        while True:
            matrix = tuple(
                tuple(Fr(rng.randint(-2, 2)) for _ in range(k)) for _ in range(k)
            )
            if linalg.rank(linalg.to_rows(matrix)) == k:
                return matrix

    def random_monomial_matrix(k):
        permutation = list(range(k))
        rng.shuffle(permutation)
        matrix = [[Fr(0)] * k for _ in range(k)]
        for i in range(k):
            matrix[i][permutation[i]] = Fr(rng.choice([-3, -2, -1, 1, 2, 3]))
        return tuple(tuple(row) for row in matrix)

    # pullback laws on their valid structure groups: any invertible matrix
    # on the all-twos profile, monomial matrices on deeper profiles (the
    # same-variable relations are not GL-invariant beyond depth 2)
    for case in range(50):
        deep = case % 2 == 1
        profile = (3, 3) if deep else (2, 2)
        k = 2
        matrix_factory = random_monomial_matrix if deep else random_invertible
        f = depth.AffineMap(matrix_factory(k), tuple(Fr(rng.randint(-2, 2)) for _ in range(k)))
        g = depth.AffineMap(matrix_factory(k), tuple(Fr(rng.randint(-2, 2)) for _ in range(k)))
        form = random_monomial(profile) + random_monomial(profile)
        commutes = (depth.differential(depth.affine_pullback(f, form))
                    - depth.affine_pullback(f, depth.differential(form))).is_zero()
        functorial = (depth.affine_pullback(g.compose(f), form)
                      - depth.affine_pullback(f, depth.affine_pullback(g, form))).is_zero()
        ok = ok and commutes and functorial
    report(11, "depth-algebra-laws", ok)
    assert ok


def test_c12_ncomplex_suite():
    ok = True
    zero_two = ncomplex.complex_from(3, 0, (2, 2), [((0, 0), (0, 0))])
    ok = ok and ncomplex.validate(zero_two)
    ok = ok and all(
        ncomplex.p_cohomology_dim(zero_two, p, i) == 2
        for p in (1, 2) for i in (0, 1)
    )
    chain = ncomplex.complex_from(3, 0, (1, 1, 1), [((1,),), ((1,),)])
    ok = ok and ncomplex.validate(chain)
    ok = ok and ncomplex.p_cohomology_dim(chain, 1, 1) == 0
    ok = ok and ncomplex.p_cohomology_dim(chain, 2, 1) == 0
    short = ncomplex.complex_from(3, 0, (1, 1), [((1,),)])
    ok = ok and ncomplex.p_cohomology_dim(short, 2, 0) == 1

    rng = random.Random(808)
    for _ in range(20):
        def random_valid(order):
            length = rng.randint(1, order)
            dims = [rng.randint(1, 2) for _ in range(length)]
            maps = [
                tuple(
                    tuple(Fr(rng.randint(-2, 2)) for _ in range(dims[t]))
                    for _ in range(dims[t + 1])
                )
                for t in range(length - 1)
            ]
            return ncomplex.complex_from(order, 0, dims, maps)

        c1 = random_valid(rng.choice([2, 3]))
        c2 = random_valid(rng.choice([2, 3]))
        ok = ok and ncomplex.validate(c1) and ncomplex.validate(c2)
        # containment certificates run inside every dimension computation
        for i in range(c1.lo, c1.hi + 1):
            for p in range(1, c1.order):
                ncomplex.p_cohomology_dim(c1, p, i)
        measured = ncomplex.tensor_nilpotency(c1, c2)
        ok = ok and measured <= c1.order + c2.order - 1
    report(12, "ncomplex-suite", ok)
    assert ok


def test_c13_formal_variation():
    ok = True
    for k in (1, 2):
        result = cs.formal_variation(k)
        ok = ok and result.proportional and result.constant not in (None, 0)
        print(f"  note: variation of the order-{2 * k} Lagrangian is "
              f"{result.constant} times the class of e (dw + w^2)^{k}")
    report(13, "formal-variation", ok)
    assert ok
