import dataclasses
import gc
import io
import math
import os
import random
import re
import subprocess
import sys
import time
import weakref
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from ndga import cli, forms, riemann, scalar
from ndga.riemann import (
    GrammarError, Metric, MetricError, MetricFileError, TrigPoly,
    christoffel, levi_civita_n_flat, minimal_lc_flatness_order,
    parse_metric, riemann_components, riemann_form,
)
from ndga.scalar import exact_divide
from conftest import DATA_DIR, least_accepted_order, split_quotient, sympy_reduced

x1, x2 = TrigPoly.var(1), TrigPoly.var(2)
SIN, COS = scalar.expand("sin(x2)"), scalar.expand("cos(x2)")
SIN2 = SIN.power(2)
ZERO, ONE = TrigPoly.zero(), TrigPoly.one()


def sphere_torus_metric():
    return Metric([
        [SIN2, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 1, 0],
        [0, 0, 0, 1],
    ])


# ------------------------------------------------------------------
# reference formula: the n^4 Christoffel and Riemann sums, each term an
# exact DetFraction lifted to a common power of det(g) before it is added
# ------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class DetFraction:
    """num / det^power over one shared determinant polynomial."""

    num: TrigPoly
    power: int
    det: TrigPoly

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def as_poly(self):
        """The exact quotient num / det^power, or None when it is not
        polynomial."""
        return exact_divide(self.num, self.det.power(self.power))


def global_det(metric):
    """det(g) of the metric as given, from one Laplace expansion."""
    every = tuple(range(metric.dim))
    return riemann._minors(metric.g)(every, every)


def inverse_numerators(metric):
    """The numerators of g^-1 over det(g)^p: the supplied rows, read from
    the metric's one block, with p = 0, or the adjugate of g with p = 1."""
    n = metric.dim
    if metric.inverse_power == 0:
        (block,) = metric.blocks
        return [[block.numerators.get((i, l), ZERO).scale(block.scale) for l in range(n)]
                for i in range(n)]
    minor, every = riemann._minors(metric.g), tuple(range(n))
    return [[minor(every[:j] + every[j + 1:], every[:i] + every[i + 1:]).scale((-1) ** (i + j))
             for j in range(n)] for i in range(n)]


def inverse_fraction(metric, i, j):
    """g^ij (0-based) as a DetFraction."""
    return DetFraction(inverse_numerators(metric)[i][j], metric.inverse_power, global_det(metric))


def _align(a, b):
    power = max(a.power, b.power)
    return (a.num * a.det.power(power - a.power),
            b.num * b.det.power(power - b.power), power)


def _add(a, b):
    left, right, power = _align(a, b)
    return DetFraction(left + right, power, a.det)


def _sub(a, b):
    left, right, power = _align(a, b)
    return DetFraction(left - right, power, a.det)


def _mul(a, b):
    return DetFraction(a.num * b.num, a.power + b.power, a.det)


def _diff(a, index):
    if a.power == 0:
        return DetFraction(a.num.diff(index), 0, a.det)
    num = a.num.diff(index) * a.det - a.num.scale(a.power) * a.det.diff(index)
    return DetFraction(num, a.power + 1, a.det)


def _reference_christoffel(metric):
    """G[i][j][k] = 1/2 sum_l g^il (d_k g_lj + d_j g_lk - d_l g_jk)."""
    n, det = metric.dim, global_det(metric)
    inverse = [[DetFraction(e, metric.inverse_power, det) for e in row]
               for row in inverse_numerators(metric)]
    g = [[DetFraction(metric.g[i][j], 0, det) for j in range(n)] for i in range(n)]
    G = [[[None] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                total = DetFraction(TrigPoly.zero(), 0, det)
                for l in range(n):
                    bracket = _sub(_add(_diff(g[l][j], k + 1), _diff(g[l][k], j + 1)),
                                   _diff(g[j][k], l + 1))
                    total = _add(total, _mul(inverse[i][l], bracket))
                G[i][j][k] = DetFraction(total.num.scale(Fraction(1, 2)), total.power, det)
    return G


def _reference_riemann(metric):
    """R[i][j][k][l] = d_k G^i_jl - d_l G^i_jk + G^h_jl G^i_hk - G^h_jk G^i_hl,
    every entry computed, with its antisymmetry in (k, l) checked."""
    n = metric.dim
    G = _reference_christoffel(metric)
    R = [[[[None] * n for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    value = _sub(_diff(G[i][j][l], k + 1), _diff(G[i][j][k], l + 1))
                    for h in range(n):
                        value = _add(value, _mul(G[h][j][l], G[i][h][k]))
                        value = _sub(value, _mul(G[h][j][k], G[i][h][l]))
                    R[i][j][k][l] = value
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    assert _add(R[i][j][k][l], R[i][j][l][k]).is_zero()
    return G, R


def curvature_entry(S, i, j, k, l):
    """The numerator of R^i_jkl (0-based) read from the curvature form S,
    which holds k < l: R^i_jlk is the negation and R^i_jkk zero."""
    if k == l:
        return ZERO
    if k < l:
        return S.component((k + 1, l + 1))[i][j]
    return -S.component((l + 1, k + 1))[i][j]


def symbol_quotient(gamma, i, j, k):
    """Gamma^i_jk (0-based) as (numerator, denominator): tau over the
    symbol of i's block."""
    return gamma.numerator(i + 1, j + 1, k + 1), gamma.denominators[gamma.blocks[i]]


def curvature_quotient(curvature, i, j, k, l):
    """R^i_jkl (0-based) as (numerator, denominator), read from the cells
    of the curvature, which hold k < l: R^i_jlk is the negation and R^i_jkk
    zero."""
    if k == l:
        return ZERO, ONE
    num, exps = curvature.cells.get((min(k, l) + 1, max(k, l) + 1), {}).get((i, j), (ZERO, None))
    den = curvature.gamma.power(exps) if exps is not None else ONE
    return (num, den) if k < l else (-num, den)


# ------------------------------------------------------------------
# the global-q oracle: the pipeline before the metric split into blocks,
# with one q = 2 lambda u det(g)^p under every entry
# ------------------------------------------------------------------

def global_q(metric):
    """(tau, q, S): Gamma = tau / q and R = S / q^2 for q = 2 lambda u
    det(g)^p, lambda the lcm of all of g's denominators, u that of g^-1's
    numerators over det(g)^p, tau = sum_l u g^il det(g)^p (d_k g'_lj +
    d_j g'_lk - d_l g'_jk) over g' = lambda g, and S = q dtau + (tau -
    dq I) ^ tau, the forms curvature of tau under the quotient rule."""
    n = metric.dim
    lam = math.lcm(*(e.denominator() for row in metric.g for e in row))
    g = [[e.scale(lam) for e in row] for row in metric.g]
    inverse = inverse_numerators(metric)
    u = math.lcm(*(e.denominator() for row in inverse for e in row))
    q = global_det(metric).power(metric.inverse_power).scale(2 * lam * u)
    tau = {}
    for k in range(n):
        tau[k + 1,] = [[TrigPoly.sum(inverse[i][l].scale(u) * (
            g[l][j].diff(k + 1) + g[l][k].diff(j + 1) - g[j][k].diff(l + 1)) for l in range(n))
            for j in range(n)] for i in range(n)]
    tau = forms.MatrixForm(n, (n, n), tau)
    dq = forms.exterior_d(forms.MatrixForm(n, (n, n), {(): [[q if i == j else 0 for j in range(n)]
                                                          for i in range(n)]}))
    return tau, q, forms.exterior_d(tau).scale(q) + forms.wedge(tau - dq, tau)


def assert_agrees_with_global_q(metric):
    """Every Gamma and R entry equal to the global-q oracle's by
    cross-multiplication, and the same flatness verdict."""
    n = metric.dim
    tau, q, S = global_q(metric)
    gamma, curvature = christoffel(metric), riemann_components(metric)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                num, den = symbol_quotient(gamma, i, j, k)
                assert num * q == tau.component((k + 1,))[i][j] * den, (i, j, k)
                for l in range(n):
                    num, den = curvature_quotient(curvature, i, j, k, l)
                    assert num * q.power(2) == curvature_entry(S, i, j, k, l) * den, (i, j, k, l)
    assert minimal_lc_flatness_order(metric) == forms.minimal_order_from_curvature(S, tau, 8)


def _metric_text(rows, inverse=None):
    lines = [f"dim {len(rows)}"] + [";".join(row) for row in rows]
    if inverse is not None:
        lines += ["inverse"] + [";".join(row) for row in inverse]
    return "\n".join(lines) + "\n"


def _coefficient(rng):
    return Fraction(rng.randint(1, 4), rng.choice((1, 2, 3)))


def _product_surfaces(rng, dim):
    """Diagonal c da^2 + c' f(x_a)^2 db^2 blocks in shuffled coordinates,
    f a sine, cosine, polynomial or linear factor; a constant in an odd
    dimension's last coordinate."""
    coords = rng.sample(range(1, dim + 1), dim)
    diag = {}
    for a, b in zip(coords[0::2], coords[1::2]):
        f = rng.choice((f"sin(x{a})", f"cos(x{a})", f"(1 + x{a}^2)", f"(x{a}^2 + 2)", f"x{a}"))
        diag[a], diag[b] = str(_coefficient(rng)), f"{_coefficient(rng)}*{f}^2"
    if dim % 2:
        diag[coords[-1]] = str(_coefficient(rng))
    return _metric_text([[diag[i] if i == j else "0" for j in range(1, dim + 1)]
                         for i in range(1, dim + 1)])


def _warped_sphere(rng):
    p, q, r = rng.sample((1, 2, 3), 3)
    c = _coefficient(rng)
    diag = {p: str(c), q: f"{c}*sin(x{p})^2", r: f"{c}*sin(x{p})^2*sin(x{q})^2"}
    return _metric_text([[diag[i] if i == j else "0" for j in (1, 2, 3)] for i in (1, 2, 3)])


def _polynomial_metric(rng, dim):
    """Constant positive diagonal plus linear symmetric perturbations,
    off the diagonal too."""
    g = [[TrigPoly.const(rng.randint(1, 3) if i == j else 0) for j in range(dim)]
         for i in range(dim)]
    for _ in range(dim):
        i, j = rng.randrange(dim), rng.randrange(dim)
        term = TrigPoly.var(rng.randint(1, dim)).scale(rng.choice((-2, -1, 1, 2)))
        g[i][j] = g[i][j] + term
        if i != j:
            g[j][i] = g[j][i] + term
    return _metric_text([[scalar.render(e) for e in row] for row in g])


def _flat_change(rng, dim, supply_inverse):
    """g = J^T J for the Jacobian J = I + N of x_i -> x_i + p_i(x_{i+1}, ...),
    with the polynomial inverse J^-1 J^-T supplied or left to cofactors."""
    def mat_mul(a, b):
        out = []
        for i in range(dim):
            row = []
            for j in range(dim):
                total = TrigPoly.zero()
                for k in range(dim):
                    total = total + a[i][k] * b[k][j]
                row.append(total)
            out.append(row)
        return out

    def transpose(a):
        return [[a[j][i] for j in range(dim)] for i in range(dim)]

    identity = [[TrigPoly.const(int(i == j)) for j in range(dim)] for i in range(dim)]
    N = [[TrigPoly.zero()] * dim for _ in range(dim)]
    for i in range(dim - 1):
        p = TrigPoly.zero()
        for _ in range(rng.randint(1, 2)):
            mono = TrigPoly.const(rng.choice((-1, 1, 2)))
            for _ in range(rng.randint(1, 2)):
                mono = mono * TrigPoly.var(rng.randint(i + 2, dim))
            p = p + mono
        for j in range(i + 1, dim):
            N[i][j] = p.diff(j + 1)
    J = [[identity[i][j] + N[i][j] for j in range(dim)] for i in range(dim)]
    inverse = None
    if supply_inverse:
        j_inv, power = identity, identity
        for k in range(1, dim):
            power = mat_mul(power, N)
            sign = -1 if k % 2 else 1
            j_inv = [[j_inv[a][b] + power[a][b].scale(sign) for b in range(dim)]
                     for a in range(dim)]
        inverse = [[scalar.render(e) for e in row] for row in mat_mul(j_inv, transpose(j_inv))]
    g = mat_mul(transpose(J), J)
    return _metric_text([[scalar.render(e) for e in row] for row in g], inverse)


def _oracle_metrics():
    """Seeded metrics of every lc-metric family, dims 2-4."""
    rng = random.Random(2005)
    texts = []
    for dim in (2, 2, 3, 3, 3, 4, 4, 4):
        texts.append(_product_surfaces(rng, dim))
    texts += [_warped_sphere(rng) for _ in range(4)]
    texts += [_polynomial_metric(rng, dim) for dim in (2, 2, 3, 3, 3, 4, 4)]
    for dim in (2, 2, 3, 3, 4, 4):
        texts.append(_flat_change(rng, dim, supply_inverse=True))
        texts.append(_flat_change(rng, dim, supply_inverse=False))
    return texts


ORACLE_METRICS = _oracle_metrics()


def _assert_same_quotient(num, den, r):
    """num / den == r.num / det^r.power, by exact cross-multiplication."""
    assert num * r.det.power(r.power) == r.num * den


def _assert_kernel_equals_reference(metric):
    """The same quotient for every Gamma and R entry, R in both orders of
    (k, l): Gamma = tau / q_B and R = num / prod q_B^e."""
    n = metric.dim
    G, R = _reference_riemann(metric)
    gamma, curvature = christoffel(metric), riemann_components(metric)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                _assert_same_quotient(*symbol_quotient(gamma, i, j, k), G[i][j][k])
                for l in range(n):
                    _assert_same_quotient(*curvature_quotient(curvature, i, j, k, l), R[i][j][k][l])


@pytest.mark.parametrize("index", range(len(ORACLE_METRICS)))
def test_kernel_equals_the_reference_formula(index):
    _assert_kernel_equals_reference(parse_metric(ORACLE_METRICS[index]))


@pytest.mark.parametrize("name", ["sphere_torus.metric", "round_sphere3.metric"])
def test_kernel_equals_the_reference_formula_on_shipped_files(data_path, name):
    _assert_kernel_equals_reference(riemann.load_metric(data_path(name)))


@pytest.mark.parametrize("source", [f"oracle {i}" for i in range(len(ORACLE_METRICS))]
                         + sorted(name for name in os.listdir(DATA_DIR) if name.endswith(".metric")))
def test_blocks_agree_with_the_global_q_oracle(source):
    if source.startswith("oracle"):
        metric = parse_metric(ORACLE_METRICS[int(source.split()[1])])
    else:
        metric = riemann.load_metric(os.path.join(DATA_DIR, source))
    assert_agrees_with_global_q(metric)


def test_oracle_covers_every_family():
    metrics = [parse_metric(text) for text in ORACLE_METRICS]
    assert len(metrics) >= 30
    assert {m.dim for m in metrics} == {2, 3, 4}
    assert {m.inverse_power for m in metrics} == {0, 1}
    assert any(block.det.atoms() - {(scalar.VAR, i) for i in range(1, 5)}
               for m in metrics for block in m.blocks)
    assert {len(m.blocks) > 1 for m in metrics} == {True, False}
    assert any(any(m.g[i][j] != ZERO for i in range(m.dim)
                   for j in range(m.dim) if i != j) for m in metrics)


# Random block-diagonal metrics of 1 x 1 and 2 x 2 blocks, each block over
# its own denominator, whose cells may hold the coordinates of other
# blocks, as g_33 = 1/5 x1^2 does: the warping term g^il d_l g_jk then
# meets a cell of another block's denominator.  Gamma, R and the verdict
# must equal the global-q oracle's.

CELL_TERMS = ("x{v}", "x{v}^2", "sin(x{v})^2", "cos(x{v})", "x{v}*x{w}")


@st.composite
def block_metrics(draw):
    sizes = draw(st.lists(st.sampled_from((1, 2)), min_size=1, max_size=3)
                 .filter(lambda sizes: sum(sizes) <= 4))
    n, start = sum(sizes), 0
    cells = [["0"] * n for _ in range(n)]
    for size in sizes:
        den = draw(st.sampled_from((1, 2, 3, 5)))
        for a in range(start, start + size):
            for b in range(a, start + size):
                v, w = (draw(st.integers(1, n)) for _ in range(2))
                term = draw(st.sampled_from(CELL_TERMS)).format(v=v, w=w)
                c, k = draw(st.integers(0 if a == b else -1, 2)), draw(st.integers(-1, 2))
                cells[a][b] = cells[b][a] = f"1/{den}*({c} + {k}*{term})"
        start += size
    return sizes, _metric_text(cells)


@settings(max_examples=40)
@given(block_metrics())
def test_random_block_metrics_agree_with_the_global_q_oracle(case):
    sizes, text = case
    try:
        metric = parse_metric(text)
    except MetricFileError as err:
        assume("degenerate" not in str(err))
        raise
    assert len(metric.blocks) >= len(sizes)
    assert_agrees_with_global_q(metric)


# the Levi-Civita connection of lam g is that of g: a homothety changes no
# Christoffel symbol, no curvature entry and no verdict, while it changes
# the denominators the metric clears
SHIPPED_METRICS = sorted(name for name in os.listdir(DATA_DIR) if name.endswith(".metric"))


def _homothetic(metric, lam):
    """lam g, with a supplied inverse divided by lam."""
    g = [[e.scale(lam) for e in row] for row in metric.g]
    if metric.inverse_power:
        return Metric(g)
    return Metric(g, [[e.scale(1 / lam) for e in row] for row in inverse_numerators(metric)])


def _curvature_or_refusal(metric):
    try:
        return riemann_form(metric)
    except GrammarError as err:
        return str(err)


@pytest.mark.parametrize("lam", [2, Fraction(1, 3)])
@pytest.mark.parametrize("source", [f"oracle {i}" for i in range(len(ORACLE_METRICS))]
                         + SHIPPED_METRICS)
def test_homothety_keeps_symbols_curvature_and_verdict(source, lam):
    if source.startswith("oracle"):
        metric = parse_metric(ORACLE_METRICS[int(source.split()[1])])
    else:
        metric = riemann.load_metric(os.path.join(DATA_DIR, source))
    scaled = _homothetic(metric, lam)
    gamma, other = christoffel(metric), christoffel(scaled)
    n = metric.dim
    for i in range(n):
        for j in range(n):
            for k in range(n):
                tau, q = symbol_quotient(gamma, i, j, k)
                scaled_tau, scaled_q = symbol_quotient(other, i, j, k)
                assert tau * scaled_q == scaled_tau * q
    assert _curvature_or_refusal(scaled) == _curvature_or_refusal(metric)
    assert minimal_lc_flatness_order(scaled) == minimal_lc_flatness_order(metric)


@pytest.mark.parametrize("name", ["sphere_torus.metric", "round_sphere3.metric",
                                  "warped_sphere3.metric"])
def test_kernels_keep_integer_coefficients(data_path, name):
    # each block's denominators are cleared, rho_B clears those of the
    # brackets and the brackets are held unhalved, so tau and the symbols
    # are integral, with 3/2 coefficients in warped_sphere3 too; curvature
    # numerators start from the reduced symbols, and those over a constant
    # symbol are divided by it
    metric = riemann.load_metric(data_path(name))
    gamma = christoffel(metric)
    polys = [p for _, rows in gamma.form.components() for row in rows for p in row]
    polys += list(gamma.denominators)
    assert {type(c) for p in polys for c in p.terms.values()} == {int}


def test_kernels_multiply_few_polynomials(monkeypatch, data_path):
    # sums over one power of det(g): Gamma and the forms operations that
    # build S multiply in TrigPoly.dot, and only the scaling of dtau and I
    # by q = det calls __mul__, 0 and 32 times here, where lifting every term
    # to a common power takes 1962 and 9930
    metric = riemann.load_metric(data_path("sphere_torus.metric"))
    calls = []
    multiply = TrigPoly.__mul__

    def counted(self, other):
        calls.append(None)
        return multiply(self, other)

    monkeypatch.setattr(TrigPoly, "__mul__", counted)
    gamma = christoffel(metric)
    assert len(calls) <= 50
    del calls[:]
    riemann_components(metric)
    assert len(calls) <= 200
    assert len(gamma.denominators) == len(metric.blocks)


# sympy as an independent oracle: its own inverse of g, its own
# derivatives, and a zero test on the numerator of each difference with
# sin^2 u = 1 - cos^2 u applied (conftest.sympy_reduced), so that trig
# metrics are checked too

DIAGONAL_TRIG = _metric_text([["1+x1^2", "0", "0", "0"], ["0", "2+sin(x1)", "0", "0"],
                              ["0", "0", "1+x3^2", "0"], ["0", "0", "0", "2+sin(x3)"]])


def _sympy_cases():
    rng = random.Random(511242)
    cases = [_polynomial_metric(rng, dim) for dim in (2, 3, 3)]
    for dim, supplied in ((2, True), (3, True), (2, False), (3, False)):
        text = _flat_change(rng, dim, supplied)
        while "x" not in "".join(text.splitlines()[1:dim + 1]):  # skip constant g
            text = _flat_change(rng, dim, supplied)
        cases.append(text)
    # lc-metric's trig families: sin/cos surface blocks, warped spheres
    trig = []
    while len(trig) < 4:
        text = _product_surfaces(rng, 2 + len(trig) % 3)
        if "sin" in text or "cos" in text:
            trig.append(text)
    return cases + trig + [_warped_sphere(rng), _warped_sphere(rng), DIAGONAL_TRIG]


SYMPY_CASES = _sympy_cases()


@pytest.mark.parametrize("index", range(len(SYMPY_CASES)))
def test_kernel_agrees_with_sympy(index):
    text = SYMPY_CASES[index]
    sympy = pytest.importorskip("sympy")
    metric = parse_metric(text)
    n = metric.dim
    x = sympy.symbols(f"x1:{n + 1}")
    names = {f"x{i + 1}": x[i] for i in range(n)}

    def to_sympy(e):
        return sympy.sympify(scalar.render(e).replace("^", "**"), locals=names)

    def assert_equal(num, den, expected):
        # num / den - expected over one denominator: its numerator is the
        # cross-multiplied difference
        difference = sympy.together(to_sympy(num) / to_sympy(den) - expected)
        assert sympy_reduced(sympy.numer(difference)) == 0

    g = sympy.Matrix(n, n, lambda i, j: to_sympy(metric.g[i][j]))
    g_inv = g.inv()
    G = [[[sympy.together(sum(
        g_inv[i, l] * (g[l, j].diff(x[k]) + g[l, k].diff(x[j]) - g[j, k].diff(x[l]))
        for l in range(n)) / 2) for k in range(n)] for j in range(n)] for i in range(n)]
    gamma, curvature = christoffel(metric), riemann_components(metric)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                assert_equal(*symbol_quotient(gamma, i, j, k), G[i][j][k])
                for l in range(n):  # both orders of (k, l), R read with its sign
                    if l == k:
                        continue
                    expected = G[i][j][l].diff(x[k]) - G[i][j][k].diff(x[l]) + sum(
                        G[h][j][l] * G[i][h][k] - G[h][j][k] * G[i][h][l] for h in range(n))
                    assert_equal(*curvature_quotient(curvature, i, j, k, l), expected)


def test_sympy_oracle_covers_the_trig_families():
    metrics = [parse_metric(text) for text in SYMPY_CASES]
    trig = [m for m in metrics
            if any(tag != scalar.VAR for block in m.blocks for tag, _ in block.det.atoms())]
    assert {m.dim for m in trig} == {2, 3, 4}
    assert any("cos" in text for text in SYMPY_CASES) and DIAGONAL_TRIG in SYMPY_CASES


# ------------------------------------------------------------------
# det(g) and adj(g) from the shared minors
# ------------------------------------------------------------------

MINOR_ENTRIES = ("0", "0", "0", "1", "-2", "1/2", "x1", "x2", "x3", "x4",
                 "sin(x1)", "cos(x2)", "x1*cos(x2)", "1 + x3^2", "x4 - sin(x1)")


def _random_symmetric_metric(rng, dim):
    """A nondegenerate symmetric metric with about a third of its cells
    zero."""
    while True:
        cells = {}
        for i in range(dim):
            for j in range(i, dim):
                cells[i, j] = cells[j, i] = scalar.expand(rng.choice(MINOR_ENTRIES))
        try:
            return Metric([[cells[i, j] for j in range(dim)] for i in range(dim)])
        except MetricError as err:
            if "degenerate" not in str(err):
                raise


def _in_ring(ring, p):
    """The TrigPoly p, read from its rendered text into a sympy ring whose
    generators are s1 = sin(x1), c1 = cos(x1), c2 = cos(x2) and x1..x4."""
    text = scalar.render(p)
    for atom, name in (("sin(x1)", "s1"), ("cos(x1)", "c1"), ("cos(x2)", "c2")):
        text = text.replace(atom, name)
    text = re.sub(r"(?<![\w^])(\d+)", r"Q(\1)", text).replace("^", "**")
    names = {str(symbol): gen for symbol, gen in zip(ring.symbols, ring.gens)}
    return ring(eval(text, {"Q": ring.domain.convert, **names}))


MINOR_CASES = [(dim, seed) for dim in range(1, 7) for seed in range(8)]


@pytest.mark.parametrize("dim, seed", MINOR_CASES)
def test_det_and_adjugate_agree_with_sympy(dim, seed):
    # sympy's determinants over Q[s1, c1, c2, x1..x4], with adj(g)_ij the
    # signed det of g without row j and column i; then sin^2 = 1 - cos^2
    # as the remainder by s1^2 + c1^2 - 1.  (Matrix.det() on sympified
    # expressions takes up to 22 s on one dim-6 case.)
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix
    metric = _random_symmetric_metric(random.Random(f"minors:{dim}:{seed}"), dim)
    domain = sympy.QQ[sympy.symbols("s1 c1 c2 x1:5")]
    ring = domain.ring
    s1, c1 = ring.gens[:2]
    pythagoras = s1**2 + c1**2 - 1
    assert metric.inverse_power == 1
    # the blocks partition the coordinates, and g vanishes across them
    assert sorted(i for block in metric.blocks for i in block.indices) == list(range(dim))
    for a in metric.blocks:
        for b in metric.blocks:
            if a is not b:
                assert all(not metric.g[i][j].terms for i in a.indices for j in b.indices)
    # each block is delta_B and the adjugate of its cleared cells lambda_B g_B
    for block in metric.blocks:
        size, lam = len(block.indices), block.scale
        g = DomainMatrix([[_in_ring(ring, metric.g[i][j].scale(lam)) for j in block.indices]
                          for i in block.indices], (size, size), domain)
        assert (_in_ring(ring, block.det) - g.det()) % pythagoras == 0
        for a, i in enumerate(block.indices):
            for b, j in enumerate(block.indices):
                rest = [[k for k in range(size) if k != skip] for skip in (b, a)]
                cofactor = g.extract(*rest).det() * (-1) ** (a + b) if size > 1 else ring.one
                entry = block.numerators.get((i, j), ZERO)
                assert (_in_ring(ring, entry) - cofactor) % pythagoras == 0


def test_minor_cases_have_zero_and_trig_entries():
    metrics = [_random_symmetric_metric(random.Random(f"minors:{dim}:{seed}"), dim)
               for dim, seed in MINOR_CASES]
    cells = [e for m in metrics if m.dim > 2 for row in m.g for e in row]
    assert any(not e.terms for e in cells)
    assert {tag for e in cells for tag, _ in e.atoms()} >= {scalar.VAR, scalar.SIN, scalar.COS}


def _work(build):
    """Term products charged to the work budget by build()."""
    with scalar.work_budget() as scope:
        build()
        return scope.limit - scope.left


def test_minors_skip_zero_entries():
    # the cofactor expansion, which multiplied zero entries too, was charged
    # 381,516 term products here; the certificate g N = det I alone is 512
    identity = [[int(i == j) for j in range(8)] for i in range(8)]
    assert _work(lambda: Metric(identity)) < 2000


# g = I + u u^T with u = (1, ..., 7), every cell nonzero, and its inverse
# I - u u^T / (1 + |u|^2) by Sherman-Morrison
DENSE = [[int(i == j) + (i + 1) * (j + 1) for j in range(7)] for i in range(7)]
DENSE_INVERSE = [[int(i == j) - Fraction((i + 1) * (j + 1), 141) for j in range(7)]
                 for i in range(7)]


def test_each_minor_is_expanded_once():
    # 2,002 term products with the table of minors, and 43,610 when each
    # minor is expanded afresh wherever it is needed
    assert _work(lambda: Metric(DENSE)) < 4000


def test_a_supplied_inverse_pays_for_det_alone():
    # det(g) from the minors, and the n^3 products of the certificate g N
    assert [block.det for block in Metric(DENSE).blocks] == [TrigPoly.const(141)]
    g, every = tuple(tuple(map(TrigPoly.const, row)) for row in DENSE), tuple(range(7))
    det = _work(lambda: riemann._minors(g)(every, every))
    assert _work(lambda: Metric(DENSE, DENSE_INVERSE)) == det + 7 ** 3


def test_identity_metrics_up_to_the_bound_are_answered(tmp_path):
    for n in (9, riemann.MAX_DIM):
        path = tmp_path / f"identity{n}.metric"
        path.write_text(f"dim {n}\n" + "".join(
            ";".join("1" if i == j else "0" for j in range(n)) + "\n" for i in range(n)))
        out = io.StringIO()
        assert cli.main(["riemann", str(path)], out=out) == 0
        assert out.getvalue().splitlines()[-1] == "2-flat"


def _diagonal_text(cells):
    n = len(cells)
    return f"dim {n}\n" + "".join(";".join(cells[i] if i == j else "0" for j in range(n)) + "\n"
                                  for i in range(n))


@pytest.mark.parametrize("n", [8, 10, 12])
@pytest.mark.parametrize("denominators", [False, True], ids=["plain", "denominators"])
def test_flat_diagonal_metrics_are_answered(tmp_path, n, denominators):
    # diag(2 + x_i^2 / D_i), D_i = 1 or 7 + i: each cell its own block, so
    # no denominator is the product of the cells; over one det(g) these
    # were refused from n = 8 as work above the budget
    cells = [f"2 + 1/{7 + i}*x{i}^2" if denominators else f"2 + x{i}^2" for i in range(1, n + 1)]
    path = tmp_path / f"diagonal{n}.metric"
    path.write_text(_diagonal_text(cells))
    src = os.path.join(os.path.dirname(DATA_DIR), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "ndga.cli", "riemann", str(path)], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60)
    assert time.perf_counter() - start < 1
    assert proc.returncode == 0, proc.stderr
    # Gamma^i_ii = x_i / (2 + x_i^2 / D_i), cleared by D_i
    constants = [2 * (7 + i) if denominators else 2 for i in range(1, n + 1)]
    assert proc.stdout.splitlines() == [f"Gamma^{i}_{i}{i} = x{i}/({c} + x{i}^2)"
                                        for i, c in enumerate(constants, 1)] + ["2-flat"]


def _assert_one_common_factor(entries):
    """Each (lifted, num, den) has lifted = M num / den for one M: zero
    exactly where num is, and lifted den num_0 = lifted_0 den_0 num."""
    nonzero = [(e, num, den) for e, num, den in entries if num.terms]
    assert nonzero and all(bool(e.terms) == bool(num.terms) for e, num, _ in entries)
    e0, num0, den0 = nonzero[0]
    for e, num, den in nonzero:
        assert e * den * num0 == e0 * den0 * num


@pytest.mark.parametrize("name", ["warped_sphere3", "diag_trig", "product8", "supplied_inverse"])
def test_lifted_forms_are_the_quotients_times_one_factor(data_path, name):
    # the flatness scan reads Gamma's lifted cells, built on first read,
    # and the curvature lifted, here over several monomials for diag_trig,
    # whose curvature is not polynomial: each is its quotients times one
    # common factor
    metric = riemann.load_metric(data_path(f"{name}.metric"))
    gamma, curvature = christoffel(metric), riemann_components(metric)
    n = metric.dim
    _assert_one_common_factor([
        (gamma.lifted.component((k + 1,))[i][j], *symbol_quotient(gamma, i, j, k))
        for i in range(n) for j in range(n) for k in range(n)])
    _assert_one_common_factor([
        (curvature.lifted.component((k + 1, l + 1))[i][j],
         *curvature_quotient(curvature, i, j, k, l))
        for i in range(n) for j in range(n) for k in range(n) for l in range(k + 1, n)])


# ------------------------------------------------------------------
# each derived object computed once, and kept on what it derives from
# ------------------------------------------------------------------

def test_one_riemann_report_builds_gamma_and_curvature_once(monkeypatch, data_path):
    calls = []
    for name in ("christoffel", "_christoffel_symbols", "_riemann_entries"):
        def counted(*args, name=name, original=getattr(riemann, name)):
            calls.append(name)
            return original(*args)
        monkeypatch.setattr(riemann, name, counted)
    assert cli.main(["riemann", data_path("round_sphere3.metric")], out=io.StringIO()) == 0
    # the report, riemann_form and the cleared forms each ask for Gamma
    assert sorted(calls) == ["_christoffel_symbols", "_riemann_entries"] + ["christoffel"] * 4


RIEMANN_GOLDEN_METRICS = ["sphere_torus", "round_sphere3", "supplied_inverse", "quotient",
                          "diag_trig", "warped_sphere3", "product8"]


@pytest.mark.parametrize("name", RIEMANN_GOLDEN_METRICS)
def test_gamma_is_held_once_in_tau(data_path, name):
    # Gamma^i_jk is entry (i, j) of component k and entry (i, k) of
    # component j of tau, one object in both places, and no other shape
    gamma = christoffel(riemann.load_metric(data_path(f"{name}.metric")))
    tau = [gamma.form.component((k,)) for k in range(1, gamma.form.base_dim + 1)]
    nonzero = [(i, j, k) for k, rows in enumerate(tau) for i, row in enumerate(rows)
               for j, p in enumerate(row) if p.terms]
    assert nonzero
    assert all(tau[k][i][j] is tau[j][i][k] for i, j, k in nonzero)
    assert [f.name for f in dataclasses.fields(gamma)] == ["form", "denominators", "blocks"]
    assert not hasattr(gamma, "symbols")


def test_cached_objects_belong_to_their_metric(data_path):
    with open(data_path("round_sphere3.metric")) as handle:
        text = handle.read()
    first, second = parse_metric(text), parse_metric(text)
    kept = []
    for metric in (first, second):
        gamma, S = christoffel(metric), riemann_components(metric)
        assert christoffel(metric) is gamma and riemann_components(metric) is S
        assert gamma.form is gamma.form
        entries = [p for _, rows in gamma.form.components() for row in rows for p in row if p.terms]
        entries += [num for cells in S.cells.values() for num, _ in cells.values()]
        kept.append({id(x) for x in [gamma, S, gamma.form, *entries]})
    assert christoffel(first) == christoffel(second)
    assert not kept[0] & kept[1]
    # the caches die with their metric
    ref = weakref.ref(first)
    del first
    gc.collect()
    assert ref() is None


# ------------------------------------------------------------------
# trig polynomials
# ------------------------------------------------------------------

def test_trig_poly_pythagorean_reduction():
    p = scalar.expand("sin(x2)^2 + cos(x2)^2 - 1")
    assert p.is_zero()


def test_trig_poly_round_trip():
    p = scalar.expand("2*x1*sin(x2) - cos(x1)^2")
    assert scalar.expand(scalar.render(p)) == p


def test_trig_poly_diff_chain_rule():
    p = scalar.expand("sin(x1*x2)")
    d = p.diff(1)
    expected = scalar.expand("x2*cos(x1*x2)")
    assert (d - expected).is_zero()


def test_exact_divide_polynomials():
    num = scalar.expand("x1^2 - x2^2")
    den = scalar.expand("x1 - x2")
    quotient = exact_divide(num, den)
    assert quotient is not None
    assert (quotient - scalar.expand("x1 + x2")).is_zero()


def test_exact_divide_failure():
    num = scalar.expand("x1")
    den = scalar.expand("x2")
    assert exact_divide(num, den) is None


def test_exact_divide_through_sine_denominator():
    # (sin^2 x2) / (sin x2) rationalizes to sin x2
    quotient = exact_divide(SIN2, SIN)
    assert quotient is not None
    assert (quotient - SIN).is_zero()


def test_det_fraction_quotient_rule():
    det = SIN2
    f = DetFraction(COS * SIN, 1, det)
    # d/dx2 of cot = -1/sin^2 = -det^(p-1)/det^p
    d = _diff(f, 2)
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


@pytest.mark.parametrize("rows", [
    [["sin(2*x1)", "2*sin(x1)*cos(x1)"], ["2*sin(x1)*cos(x1)", "sin(2*x1)"]],
    [["sin(2*x1) - 2*sin(x1)*cos(x1)", "0"], ["0", "1"]],
])
def test_metric_with_a_vanishing_trig_determinant_is_degenerate(rows):
    # det(g) is a nonempty polynomial that the zero test finds zero
    (a, b), (_, d) = rows
    det = scalar.expand(f"({a})*({d}) - ({b})^2")
    assert det.terms and scalar.is_zero(det)
    with pytest.raises(MetricFileError, match="line 3: metric is degenerate: det"):
        parse_metric(_metric_text(rows))


def test_supplied_inverse_is_certified():
    Metric([[2, 0], [0, 4]], inverse=[[Fraction(1, 2), 0], [0, Fraction(1, 4)]])
    with pytest.raises(MetricError, match="fails"):
        Metric([[2, 0], [0, 4]], inverse=[[1, 0], [0, 1]])


def test_supplied_inverse_is_certified_on_polynomials(monkeypatch):
    def refuse(*args):
        raise AssertionError("expression trees in the certificate")

    s = scalar.expand("sin(x1)")
    g = [[1, s], [s, 1 + s.power(2)]]
    inverse, wrong = [[1 + s.power(2), -s], [-s, 1]], [[1 + s.power(2), s], [s, 1]]
    for name in ("normalize", "parse"):
        monkeypatch.setattr(scalar, name, refuse)
    Metric(g, inverse=inverse)
    with pytest.raises(MetricError, match=r"fails g g\^-1 = I at \(1,1\)"):
        Metric(g, inverse=wrong)


def test_cofactor_inverse_of_sphere_metric():
    g = sphere_torus_metric()
    fraction = inverse_fraction(g, 0, 0)
    assert fraction.as_poly() is None  # 1/sin^2 is outside the ring
    assert scalar.is_zero(fraction.num - ONE)
    assert scalar.is_zero(fraction.det.power(fraction.power) - SIN2)
    assert scalar.is_zero(inverse_fraction(g, 1, 1).as_poly() - ONE)
    # the metric's own blocks: four 1 x 1 blocks, sin^2 x2 over itself first
    assert [(b.indices, b.det, b.scale, b.numerators) for b in g.blocks] == [
        ((0,), SIN2, 1, {(0, 0): ONE})] + [((i,), ONE, 1, {(i, i): ONE}) for i in (1, 2, 3)]


def test_rational_inverse_is_polynomial():
    g = Metric([[2, 1], [1, 1]])
    assert scalar.is_zero(inverse_fraction(g, 0, 0).as_poly() - ONE)
    assert scalar.is_zero(inverse_fraction(g, 0, 1).as_poly() - TrigPoly.const(-1))


# ------------------------------------------------------------------
# Christoffel symbols
# ------------------------------------------------------------------

def test_identity_metric_has_zero_symbols():
    gamma = christoffel(Metric([[1, 0], [0, 1]]))
    assert all(
        gamma.numerator(i, j, k) == ZERO
        for i in (1, 2) for j in (1, 2) for k in (1, 2)
    )


def test_constant_metric_has_zero_symbols():
    gamma = christoffel(Metric([[3, 1], [1, 2]]))
    assert all(
        gamma.numerator(i, j, k) == ZERO
        for i in (1, 2) for j in (1, 2) for k in (1, 2)
    )


def test_sphere_torus_symbols():
    gamma = christoffel(sphere_torus_metric())
    # Gamma^2_11 = -sin x2 cos x2, in the grammar
    value, den = gamma.symbol(2, 1, 1)
    assert den is None
    assert scalar.is_zero(value + SIN * COS)
    # Gamma^1_12 = cos/sin: a quotient, in lowest terms
    assert gamma.symbol(1, 1, 2) == (COS, SIN)
    num = gamma.numerator(1, 1, 2)
    assert scalar.is_zero(num * SIN2 - gamma.denominators[0] * SIN * COS)
    # symmetry in the lower pair: one object in both components
    assert gamma.numerator(1, 2, 1) is num
    # everything else vanishes
    nonzero = {
        (i, j, k)
        for i in range(1, 5) for j in range(1, 5) for k in range(1, 5)
        if gamma.numerator(i, j, k).terms
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
        [ZERO, ONE, ZERO, ZERO],
        [-SIN2, ZERO, ZERO, ZERO],
        [ZERO] * 4,
        [ZERO] * 4,
    ]
    for row, expected_row in zip(block, expected):
        for entry, expected_entry in zip(row, expected_row):
            assert scalar.is_zero(entry - expected_entry)


def test_bianchi_and_antisymmetry_on_random_diagonal_metrics():
    rng = random.Random(99)
    for _ in range(3):
        n = 3
        entries = [[ZERO] * n for _ in range(n)]
        for i in range(n):
            c = rng.randint(1, 2)
            entries[i][i] = c + TrigPoly.var(rng.randint(1, n)).power(2)
        g = Metric(entries)
        S = riemann_components(g).lifted  # every entry over one monomial

        def R(i, j, k, l):
            return curvature_entry(S, i, j, k, l)

        for i in range(n):
            for j in range(n):
                for k in range(n):
                    for l in range(n):
                        assert (R(i, j, k, l) + R(i, k, l, j) + R(i, l, j, k)).is_zero()


# ------------------------------------------------------------------
# flatness of the Levi-Civita connection
# ------------------------------------------------------------------

def test_sphere_torus_flatness():
    g = sphere_torus_metric()
    assert not levi_civita_n_flat(g, 2)
    assert not levi_civita_n_flat(g, 3)
    assert levi_civita_n_flat(g, 4)
    assert minimal_lc_flatness_order(g) == 4


def test_flatness_scan_matches_the_order_oracle_on_cleared_forms(data_path):
    metrics = [parse_metric(text) for text in ORACLE_METRICS]
    metrics += [riemann.load_metric(data_path(name))
                for name in ("sphere_torus.metric", "round_sphere3.metric")]
    for metric in metrics:
        S, tau = riemann_components(metric).lifted, christoffel(metric).lifted
        assert forms.minimal_order_from_curvature(S, tau, 8) == \
            least_accepted_order(S, tau, 8) == minimal_lc_flatness_order(metric)


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
# the printed Christoffel symbols
# ------------------------------------------------------------------

SYMBOL_LINE = re.compile(r"Gamma\^(\d)_(\d)(\d) = (.*)")


def test_quotient_text_is_split_at_its_slash():
    assert split_quotient("1/x5") == ("1", "x5")
    assert split_quotient("(1/2*cos(x1))/(2 + sin(x1))") == ("(1/2*cos(x1))", "(2 + sin(x1))")
    assert split_quotient("-1/2*x5") is None
    assert split_quotient("sin(1/2*x1)/cos(1/2*x1)") == ("sin(1/2*x1)", "cos(1/2*x1)")


def test_printed_symbols_are_the_quotients_of_tau():
    # a symbol printed as A/B is tau / q_B, and any other is tau divided
    # out exactly
    forms_seen = set()
    for name in SHIPPED_METRICS:
        path = os.path.join(DATA_DIR, name)
        out = io.StringIO()
        assert cli.main(["riemann", path], out=out) == 0, name
        gamma = christoffel(riemann.load_metric(path))
        for line in out.getvalue().splitlines():
            symbol = SYMBOL_LINE.fullmatch(line)
            if not symbol:
                continue
            i, j, k, text = symbol.groups()
            num, den = symbol_quotient(gamma, int(i) - 1, int(j) - 1, int(k) - 1)
            pair = split_quotient(text)
            if pair:
                a, b = map(scalar.expand, pair)
                assert a * den == b * num, (name, line)
            else:
                assert scalar.expand(text) == exact_divide(num, den), (name, line)
            forms_seen.add(bool(pair))
    assert forms_seen == {True, False}


# ------------------------------------------------------------------
# metric files
# ------------------------------------------------------------------

def test_parse_metric_file(data_path):
    g = riemann.load_metric(data_path("sphere_torus.metric"))
    assert g.dim == 4
    assert scalar.is_zero(g.g[0][0] - SIN2)


def test_unexpanded_entries_give_the_report_of_their_expansion(tmp_path):
    # entries are compared as expanded polynomials, so (x1+1)^2 is the
    # symmetric partner of x1^2+2*x1+1
    reports = []
    for g12, g21 in (("(x1+1)^2", "x1^2+2*x1+1"), ("x1^2+2*x1+1", "x1^2+2*x1+1")):
        path = tmp_path / "twin.metric"
        path.write_text(f"dim 2\n1;{g12}\n{g21};2*(x1+1)^4 + 1\n")
        out = io.StringIO()
        assert cli.main(["riemann", str(path)], out=out) == 0
        reports.append(out.getvalue())
    assert reports[0] == reports[1]
    assert "Gamma^" in reports[0]


def test_supplied_inverse_and_cofactors_give_one_report(data_path, tmp_path):
    # det(g) = 1, so the adjugate is the inverse: the numerators over det^0
    # and over det^1 must print the same report
    supplied = data_path("supplied_inverse.metric")
    with open(supplied) as handle:
        text = handle.read()
    cofactor = tmp_path / "cofactor.metric"
    cofactor.write_text(text[:text.index("\ninverse")])
    reports = []
    for path, power in ((supplied, 0), (str(cofactor), 1)):
        assert riemann.load_metric(path).inverse_power == power
        out = io.StringIO()
        assert cli.main(["riemann", path], out=out) == 0
        reports.append(out.getvalue())
    assert reports[0] == reports[1]
    assert "R[dx1^dx2]:" in reports[0]


def test_parse_metric_with_inverse_block():
    text = "dim 2\n2;0\n0;4\ninverse\n1/2;0\n0;1/4\n"
    g = parse_metric(text)
    assert g.inverse_power == 0


def test_parse_metric_errors():
    with pytest.raises(MetricFileError, match="dim"):
        parse_metric("2;0\n0;1\n")
    with pytest.raises(MetricFileError, match="not symmetric"):
        parse_metric("dim 2\n1;x1\n0;1\n")
    with pytest.raises(MetricFileError, match="entries"):
        parse_metric("dim 2\n1;0;0\n0;1\n")
    wide = riemann.MAX_DIM + 1
    with pytest.raises(MetricFileError, match=f"line 1: dimension {wide} is above {riemann.MAX_DIM}"):
        parse_metric(f"dim {wide}\n")


def test_largest_metric_dimension_is_read():
    n = riemann.MAX_DIM
    rows = "".join(";".join("1" if i == j else "0" for j in range(n)) + "\n" for i in range(n))
    assert parse_metric(f"dim {n}\n{rows}").dim == n
