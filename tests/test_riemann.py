import dataclasses
import gc
import io
import os
import random
import re
import weakref
from fractions import Fraction

import pytest

from ndga import cli, forms, riemann, scalar
from ndga.riemann import (
    GrammarError, Metric, MetricError, MetricFileError, TrigPoly,
    christoffel, levi_civita_n_flat, minimal_lc_flatness_order,
    parse_metric, riemann_components, riemann_form,
)
from ndga.scalar import exact_divide
from conftest import DATA_DIR, least_accepted_order, sympy_reduced

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


def inverse_numerators(metric):
    """The numerators of g^-1 over det(g)^p: the metric's integral
    numerators divided by their scale u."""
    return [[e.scale(Fraction(1, metric._u)) for e in row] for row in metric._numerators]


def inverse_fraction(metric, i, j):
    """g^ij (0-based) as a DetFraction."""
    return DetFraction(inverse_numerators(metric)[i][j], metric.inverse_power, metric.det_poly())


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
    n, det = metric.dim, metric.det_poly()
    g = [[DetFraction(metric.g[i][j], 0, det) for j in range(n)] for i in range(n)]
    G = [[[None] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                total = DetFraction(TrigPoly.zero(), 0, det)
                for l in range(n):
                    bracket = _sub(_add(_diff(g[l][j], k + 1), _diff(g[l][k], j + 1)),
                                   _diff(g[j][k], l + 1))
                    total = _add(total, _mul(inverse_fraction(metric, i, l), bracket))
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
    """Same power of det(g) and the same quotient for every Gamma and R
    entry, R in both orders of (k, l): Gamma = tau / q and R = S / q^2, q
    the content times det^p."""
    n = metric.dim
    G, R = _reference_riemann(metric)
    gamma = christoffel(metric)
    S = riemann_components(metric)
    q, q2 = gamma.q, gamma.q.power(2)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                r = G[i][j][k]
                assert gamma.power == r.power
                _assert_same_quotient(gamma.form.component((k + 1,))[i][j], q, r)
                for l in range(n):
                    r = R[i][j][k][l]
                    assert 2 * gamma.power == r.power
                    _assert_same_quotient(curvature_entry(S, i, j, k, l), q2, r)


@pytest.mark.parametrize("index", range(len(ORACLE_METRICS)))
def test_kernel_equals_the_reference_formula(index):
    _assert_kernel_equals_reference(parse_metric(ORACLE_METRICS[index]))


@pytest.mark.parametrize("name", ["sphere_torus.metric", "round_sphere3.metric"])
def test_kernel_equals_the_reference_formula_on_shipped_files(data_path, name):
    _assert_kernel_equals_reference(riemann.load_metric(data_path(name)))


def test_oracle_covers_every_family():
    metrics = [parse_metric(text) for text in ORACLE_METRICS]
    assert len(metrics) >= 30
    assert {m.dim for m in metrics} == {2, 3, 4}
    assert {m.inverse_power for m in metrics} == {0, 1}
    assert any(m.det_poly().atoms() - {(scalar.VAR, i) for i in range(1, 5)} for m in metrics)
    assert any(any(m.g[i][j] != ZERO for i in range(m.dim)
                   for j in range(m.dim) if i != j) for m in metrics)


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
    for k in range(1, metric.dim + 1):
        for row, scaled_row in zip(gamma.form.component((k,)), other.form.component((k,))):
            for tau, scaled_tau in zip(row, scaled_row):
                assert tau * other.q == scaled_tau * gamma.q
    assert _curvature_or_refusal(scaled) == _curvature_or_refusal(metric)
    assert minimal_lc_flatness_order(scaled) == minimal_lc_flatness_order(metric)


@pytest.mark.parametrize("name", ["sphere_torus.metric", "round_sphere3.metric",
                                  "warped_sphere3.metric"])
def test_kernels_keep_integer_coefficients(data_path, name):
    # the metric's denominators are cleared and the brackets held unhalved,
    # so tau and S are integral, with 3/2 coefficients in warped_sphere3 too
    metric = riemann.load_metric(data_path(name))
    polys = [p for _, rows in christoffel(metric).form.components() for row in rows for p in row]
    polys += [p for _, rows in riemann_components(metric).components() for row in rows for p in row]
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
    assert gamma.power == metric.inverse_power


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
    gamma = christoffel(metric)
    S = riemann_components(metric)
    q, q2 = gamma.q, gamma.q.power(2)  # Gamma = tau / q and R = S / q^2
    for i in range(n):
        for j in range(n):
            for k in range(n):
                assert_equal(gamma.form.component((k + 1,))[i][j], q, G[i][j][k])
                for l in range(n):  # both orders of (k, l), S read with its sign
                    if l == k:
                        continue
                    expected = G[i][j][l].diff(x[k]) - G[i][j][k].diff(x[l]) + sum(
                        G[h][j][l] * G[i][h][k] - G[h][j][k] * G[i][h][l] for h in range(n))
                    assert_equal(curvature_entry(S, i, j, k, l), q2, expected)


def test_sympy_oracle_covers_the_trig_families():
    metrics = [parse_metric(text) for text in SYMPY_CASES]
    trig = [m for m in metrics if any(tag != scalar.VAR for tag, _ in m.det_poly().atoms())]
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
    g = DomainMatrix([[_in_ring(ring, e) for e in row] for row in metric.g], (dim, dim), domain)
    assert metric.inverse_power == 1
    assert (_in_ring(ring, metric.det_poly()) - g.det()) % pythagoras == 0
    for i in range(dim):
        for j in range(dim):
            rest = [[k for k in range(dim) if k != skip] for skip in (j, i)]
            cofactor = g.extract(*rest).det() * (-1) ** (i + j)
            assert (_in_ring(ring, inverse_numerators(metric)[i][j]) - cofactor) % pythagoras == 0


def test_minor_cases_have_zero_and_trig_entries():
    metrics = [_random_symmetric_metric(random.Random(f"minors:{dim}:{seed}"), dim)
               for dim, seed in MINOR_CASES]
    cells = [e for m in metrics if m.dim > 2 for row in m.g for e in row]
    assert any(not e.terms for e in cells)
    assert {tag for e in cells for tag, _ in e.atoms()} >= {scalar.VAR, scalar.SIN, scalar.COS}


def _work(build):
    """Term products charged to the work budget by build()."""
    with scalar.work_budget():
        build()
        return scalar.WORK_BUDGET - scalar._work_left


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
    assert Metric(DENSE).det_poly() == TrigPoly.const(141)
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
    assert [f.name for f in dataclasses.fields(gamma)] == ["form", "det", "power", "content"]
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
        entries += [p for _, rows in S.components() for row in rows for p in row if p.terms]
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
    value = gamma.quotient(gamma.numerator(2, 1, 1))
    assert value is not None
    assert scalar.is_zero(value + SIN * COS)
    # Gamma^1_12 = cos/sin: quotient only
    num = gamma.numerator(1, 1, 2)
    assert gamma.quotient(num) is None
    assert scalar.is_zero(num * SIN2 - gamma.q * SIN * COS)
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
        S = riemann_components(g)

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
        S, tau = riemann_components(metric), christoffel(metric).form
        assert forms.minimal_order_from_curvature(S, tau, 8) == \
            least_accepted_order(S, tau, 8)


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
QUOTIENT_TEXT = re.compile(r"\((.*)\) / \((.*)\)")


def test_printed_symbols_are_the_quotients_of_tau():
    # a symbol printed as (A) / (B) is tau / q with the content moved into
    # A, and any other is what Christoffel.quotient gives
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
            num = gamma.numerator(int(i), int(j), int(k))
            pair = QUOTIENT_TEXT.fullmatch(text)
            if pair:
                a, b = map(scalar.expand, pair.groups())
                assert a * gamma.q == b * num, (name, line)
            else:
                assert scalar.expand(text) == gamma.quotient(num), (name, line)
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
