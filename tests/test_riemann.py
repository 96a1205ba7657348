import random
from fractions import Fraction

import pytest

from ndga import riemann, scalar
from ndga.riemann import (
    DetFraction, GrammarError, Metric, MetricError, MetricFileError, TrigPoly,
    christoffel, exact_divide, levi_civita_n_flat, minimal_lc_flatness_order,
    parse_metric, riemann_components, riemann_form,
)
from ndga.scalar import var

x1, x2 = var(1), var(2)
SIN2 = scalar.pow_(scalar.sin(x2), 2)


def sphere_torus_metric():
    return Metric([
        [SIN2, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 1, 0],
        [0, 0, 0, 1],
    ])


# ------------------------------------------------------------------
# trig polynomials
# ------------------------------------------------------------------

def test_trig_poly_pythagorean_reduction():
    p = TrigPoly.from_expr(scalar.parse("sin(x2)^2 + cos(x2)^2 - 1"))
    assert p.is_zero()


def test_trig_poly_round_trip():
    e = scalar.parse("2*x1*sin(x2) - cos(x1)^2")
    assert scalar.is_zero(TrigPoly.from_expr(e).to_expr() - e)


def test_trig_poly_diff_chain_rule():
    p = TrigPoly.from_expr(scalar.parse("sin(x1*x2)"))
    d = p.diff(1)
    expected = TrigPoly.from_expr(scalar.parse("x2*cos(x1*x2)"))
    assert (d - expected).is_zero()


def test_exact_divide_polynomials():
    num = TrigPoly.from_expr(scalar.parse("x1^2 - x2^2"))
    den = TrigPoly.from_expr(scalar.parse("x1 - x2"))
    quotient = exact_divide(num, den)
    assert quotient is not None
    assert (quotient - TrigPoly.from_expr(scalar.parse("x1 + x2"))).is_zero()


def test_exact_divide_failure():
    num = TrigPoly.from_expr(scalar.parse("x1"))
    den = TrigPoly.from_expr(scalar.parse("x2"))
    assert exact_divide(num, den) is None


def test_exact_divide_through_sine_denominator():
    # (sin^2 x2) / (sin x2) rationalizes to sin x2
    num = TrigPoly.from_expr(SIN2)
    den = TrigPoly.from_expr(scalar.sin(x2))
    quotient = exact_divide(num, den)
    assert quotient is not None
    assert (quotient - TrigPoly.from_expr(scalar.sin(x2))).is_zero()


def test_det_fraction_quotient_rule():
    det = TrigPoly.from_expr(SIN2)
    f = DetFraction(TrigPoly.from_expr(scalar.cos(x2) * scalar.sin(x2)), 1, det)
    # d/dx2 of cot = -1/sin^2 = -det^(p-1)/det^p
    d = f.diff(2)
    expected = -det.power(d.power - 1)
    assert (d.num - expected).is_zero()


# ------------------------------------------------------------------
# metrics
# ------------------------------------------------------------------

def test_metric_symmetry_enforced():
    with pytest.raises(MetricError, match="not symmetric"):
        Metric([[1, x1], [0, 1]])


def test_degenerate_metric_rejected():
    with pytest.raises(MetricError, match="degenerate"):
        Metric([[1, 1], [1, 1]])


def test_supplied_inverse_is_certified():
    Metric([[2, 0], [0, 4]], inverse=[[Fraction(1, 2), 0], [0, Fraction(1, 4)]])
    with pytest.raises(MetricError, match="fails"):
        Metric([[2, 0], [0, 4]], inverse=[[1, 0], [0, 1]])


def test_supplied_inverse_is_certified_on_polynomials(monkeypatch):
    def refuse(*args):
        raise AssertionError("expression arithmetic in the certificate")

    s = scalar.sin(x1)
    g = [[1, s], [s, 1 + s**2]]
    inverse, wrong = [[1 + s**2, -s], [-s, 1]], [[1 + s**2, s], [s, 1]]
    for name in ("add", "mul", "negate"):
        monkeypatch.setattr(scalar, name, refuse)
    Metric(g, inverse=inverse)
    with pytest.raises(MetricError, match=r"fails g g\^-1 = I at \(1,1\)"):
        Metric(g, inverse=wrong)


def test_cofactor_inverse_of_sphere_metric():
    g = sphere_torus_metric()
    assert g.inverse_expr(1, 1) is None  # 1/sin^2 is outside the grammar
    num, den = g.inverse_fraction(1, 1).as_pair()
    assert scalar.is_zero(num - scalar.ONE)
    assert scalar.is_zero(den - SIN2)
    assert scalar.is_zero(g.inverse_fraction(2, 2).as_expr() - scalar.ONE)


def test_rational_inverse_is_polynomial():
    g = Metric([[2, 1], [1, 1]])
    assert scalar.is_zero(g.inverse_expr(1, 1) - scalar.ONE)
    assert scalar.is_zero(g.inverse_expr(1, 2) - scalar.rational(-1))


# ------------------------------------------------------------------
# Christoffel symbols
# ------------------------------------------------------------------

def test_identity_metric_has_zero_symbols():
    gamma = christoffel(Metric([[1, 0], [0, 1]]))
    assert all(
        gamma.entry(i, j, k).is_zero()
        for i in (1, 2) for j in (1, 2) for k in (1, 2)
    )


def test_constant_metric_has_zero_symbols():
    gamma = christoffel(Metric([[3, 1], [1, 2]]))
    assert all(
        gamma.entry(i, j, k).is_zero()
        for i in (1, 2) for j in (1, 2) for k in (1, 2)
    )


def test_sphere_torus_symbols():
    gamma = christoffel(sphere_torus_metric())
    # Gamma^2_11 = -sin x2 cos x2, in the grammar
    value = gamma.entry_expr(2, 1, 1)
    assert value is not None
    assert scalar.is_zero(value + scalar.mul(scalar.sin(x2), scalar.cos(x2)))
    # Gamma^1_12 = cos/sin: quotient only
    fraction = gamma.entry(1, 1, 2)
    assert fraction.as_expr() is None
    num, den = fraction.as_pair()
    assert scalar.is_zero(
        scalar.mul(num, SIN2) - scalar.mul(den, scalar.sin(x2), scalar.cos(x2))
    )
    # symmetry in the lower pair
    assert (gamma.entry(1, 1, 2) - gamma.entry(1, 2, 1)).is_zero()
    # everything else vanishes
    nonzero = {
        (i, j, k)
        for i in range(1, 5) for j in range(1, 5) for k in range(1, 5)
        if not gamma.entry(i, j, k).is_zero()
    }
    assert nonzero == {(1, 1, 2), (1, 2, 1), (2, 1, 1)}


# ------------------------------------------------------------------
# curvature
# ------------------------------------------------------------------

def test_flat_metric_curvature_vanishes():
    form = riemann_form(Metric([[1, 0], [0, 1]]))
    assert form.is_structurally_zero()


def test_sphere_torus_curvature_block():
    form = riemann_form(sphere_torus_metric())
    components = form.components()
    assert [index for index, _ in components] == [(1, 2)]
    block = components[0][1]
    expected = [
        [scalar.ZERO, scalar.ONE, scalar.ZERO, scalar.ZERO],
        [scalar.negate(SIN2), scalar.ZERO, scalar.ZERO, scalar.ZERO],
        [scalar.ZERO] * 4,
        [scalar.ZERO] * 4,
    ]
    for row, expected_row in zip(block, expected):
        for entry, expected_entry in zip(row, expected_row):
            assert scalar.is_zero(entry - expected_entry)


def test_bianchi_and_antisymmetry_on_random_diagonal_metrics():
    rng = random.Random(99)
    for _ in range(3):
        n = 3
        entries = [[scalar.ZERO] * n for _ in range(n)]
        for i in range(n):
            c = rng.randint(1, 2)
            entries[i][i] = scalar.add(
                c, scalar.pow_(var(rng.randint(1, n)), 2)
            )
        g = Metric(entries)
        R = riemann_components(g)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    for l in range(n):
                        assert (R[i][j][k][l] + R[i][j][l][k]).is_zero()
                        cyclic = R[i][j][k][l] + R[i][k][l][j] + R[i][l][j][k]
                        assert cyclic.is_zero()


# ------------------------------------------------------------------
# flatness of the Levi-Civita connection
# ------------------------------------------------------------------

def test_sphere_torus_flatness():
    g = sphere_torus_metric()
    assert not levi_civita_n_flat(g, 2)
    assert not levi_civita_n_flat(g, 3)
    assert levi_civita_n_flat(g, 4)
    assert minimal_lc_flatness_order(g) == 4


def test_flat_metric_is_two_flat():
    assert levi_civita_n_flat(Metric([[1, 0], [0, 1]]), 2)


def test_two_dimensional_sphere_factor():
    g = Metric([[SIN2, 0], [0, 1]])
    assert not levi_civita_n_flat(g, 2)
    assert levi_civita_n_flat(g, 4)


def test_block_metric_split():
    # curvature lives in the first two coordinates; flat directions added
    g = Metric([
        [SIN2, 0, 0],
        [0, 1, 0],
        [0, 0, 1],
    ])
    assert levi_civita_n_flat(g, 4)
    assert levi_civita_n_flat(g, 6)


# ------------------------------------------------------------------
# metric files
# ------------------------------------------------------------------

def test_parse_metric_file(data_path):
    g = riemann.load_metric(data_path("sphere_torus.metric"))
    assert g.dim == 4
    assert scalar.is_zero(g.entry(1, 1) - SIN2)


def test_parse_metric_with_inverse_block():
    text = "dim 2\n2;0\n0;4\ninverse\n1/2;0\n0;1/4\n"
    g = parse_metric(text)
    assert g.inverse_supplied


def test_parse_metric_errors():
    with pytest.raises(MetricFileError, match="dim"):
        parse_metric("2;0\n0;1\n")
    with pytest.raises(MetricFileError, match="not symmetric"):
        parse_metric("dim 2\n1;x1\n0;1\n")
    with pytest.raises(MetricFileError, match="entries"):
        parse_metric("dim 2\n1;0;0\n0;1\n")
    with pytest.raises(MetricFileError, match="line 1: dimension 7 is above 6"):
        parse_metric("dim 7\n")


def test_largest_metric_dimension_is_read():
    n = riemann.MAX_DIM
    rows = "".join(";".join("1" if i == j else "0" for j in range(n)) + "\n" for i in range(n))
    assert parse_metric(f"dim {n}\n{rows}").dim == n
