"""Levi-Civita connection and curvature of a coordinate metric.

Metric entries are scalar.TrigPoly values, the package's one scalar ring:
polynomials over coordinates, sin(u) and cos(u) with sin^2 = 1 - cos^2
applied.  Canonical entries make the symmetry check an equality test.  A
metric clears its denominators once, as g' = lambda g, which has the
connection of g.  The inverse metric's entries are quotients that the
ring cannot hold, so this module keeps integral numerators over det(g')^p
(the supplied rows with p = 0, or the adjugate with p = 1) and the
brackets unhalved: every Christoffel symbol is tau / q and every
curvature entry S / q^2, for q = c det(g)^p with one integer content c,
and no sum lifts a term to a common denominator.  Christoffel.quotient
is the one exact division by q, with one scalar.Divisor prepared per
Christoffel object, and runs only where a value is printed; a symbol that
is not polynomial is printed as its numerator over det^p.  det and the
cofactors are minors of g', read from one memoized Laplace expansion.
Flatness certificates run on tau and S, which leaves every verdict
unchanged because q vanishes nowhere on the metric's domain.  S is the
curvature d tau + tau ^ tau of the forms module under the quotient rule
for q, so the package computes curvature with one kernel.

Each derived object is computed once and kept in one shape on the object
it derives from: a Metric, immutable once built, keeps tau, the
Christoffel symbols with one numerator per unordered pair of lower
indices, and tau keeps S, computed for k < l only, and its divisor.  All
live exactly as long as the metric, so nothing carries over from one
metric to the next.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import forms, scalar, textfile
from .forms import MatrixForm
from .scalar import TrigPoly


class MetricError(Exception):
    pass


class GrammarError(MetricError):
    """A requested value has no representation in the scalar grammar."""


# ------------------------------------------------------------------
# metrics
# ------------------------------------------------------------------

def _minors(g):
    """minor(rows, cols), the determinant of g on those rows and columns,
    by Laplace expansion along its first row, skipping zero entries.  Each
    minor is computed once and kept while the closure lives."""

    @functools.cache
    def minor(rows: tuple, cols: tuple) -> TrigPoly:
        if len(rows) < 2:
            return g[rows[0]][cols[0]] if rows else TrigPoly.one()
        row, rest = g[rows[0]], rows[1:]
        return TrigPoly.dot((row[c] if k % 2 == 0 else -row[c],
                             minor(rest, cols[:k] + cols[k + 1:]))
                            for k, c in enumerate(cols) if row[c].terms)

    return minor


class Metric:
    """Symmetric coordinate metric with an exact inverse.

    Entries are TrigPoly values, or ints and Fractions taken as constants.
    g' = lambda g, lambda the lcm of the coefficient denominators, and its
    inverse are held integral, as numerators N = u g^-1 det(g)^p: the
    supplied rows, u the lcm of their denominators, with inverse_power
    p = 0, or the adjugate of g', u = lambda^(n-1), with p = 1.  det(g')
    and the cofactors come from one table of minors (_minors) that lives
    only while the metric is built.  One certificate checks g' N =
    det(g')^p I, or lambda u I, with the zero test; for the adjugate it is
    exact.  g and det_poly() are the metric and its determinant as
    given."""

    def __init__(self, entries, inverse=None):
        rows = [list(r) for r in entries]
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise MetricError("metric matrix must be square")
        self.dim = n
        self.g = g = tuple(tuple(scalar.as_poly(e) for e in row) for row in rows)
        for i in range(n):
            for j in range(i + 1, n):
                if g[i][j] != g[j][i]:
                    raise MetricError(
                        f"metric is not symmetric at ({i + 1},{j + 1}): "
                        f"{scalar.render(g[i][j])} vs {scalar.render(g[j][i])}"
                    )
        lam = math.lcm(*(e.denominator() for row in g for e in row))
        self._g = g = tuple(tuple(e.scale(lam) for e in row) for row in g) if lam > 1 else g
        minor, every = _minors(g), tuple(range(n))
        det = minor(every, every)
        if scalar.is_zero(det):
            raise MetricError("metric is degenerate: det(g) = 0 identically")
        self._det = det.scale(Fraction(1, lam ** n)) if lam > 1 else det
        if inverse is None:
            # g is symmetric, so is its adjugate: cofactor C_ij for i <= j, mirrored
            numerators, self.inverse_power, u = [[None] * n for _ in range(n)], 1, lam ** (n - 1)
            for i in range(n):
                for j in range(i, n):
                    cof = minor(every[:i] + every[i + 1:], every[:j] + every[j + 1:])
                    numerators[i][j] = numerators[j][i] = cof if (i + j) % 2 == 0 else -cof
        else:
            numerators = [[scalar.as_poly(e) for e in row] for row in inverse]
            if len(numerators) != n or any(len(r) != n for r in numerators):
                raise MetricError("inverse matrix must match the metric's shape")
            u = math.lcm(*(e.denominator() for row in numerators for e in row))
            numerators = [[e.scale(u) for e in row] for row in numerators] if u > 1 else numerators
            self.inverse_power = 0
        scale = det if self.inverse_power else TrigPoly.const(lam * u)
        for i, row in enumerate([[TrigPoly.dot(zip(r, c)) for c in zip(*numerators)] for r in g]):
            for j, total in enumerate(row):
                if not scalar.is_zero(total - scale if i == j else total):
                    raise MetricError(
                        "cofactor inversion failed its certificate" if inverse is None
                        else f"supplied inverse fails g g^-1 = I at ({i + 1},{j + 1})"
                    )
        self._numerators = tuple(map(tuple, numerators))
        self._u, self._content = u, 2 * lam * u  # Gamma = tau / (content det^p)

    def det_poly(self) -> TrigPoly:
        return self._det

    @functools.cached_property
    def _christoffel(self) -> "Christoffel":
        return _christoffel_symbols(self)


# ------------------------------------------------------------------
# Christoffel symbols and curvature
# ------------------------------------------------------------------

@dataclass(frozen=True)
class Christoffel:
    """The integral connection form tau of Gamma = tau / q, q = content
    det^power: component dx^k carries the matrix (num Gamma^i_jk)_ij, and
    entry (i, j) of component k and entry (i, k) of component j hold one
    object.  numerator reads one symbol's cell of tau, and quotient divides
    by q; tau keeps the curvature S, and q as a scalar.Divisor."""

    form: MatrixForm
    det: TrigPoly
    power: int
    content: int

    def numerator(self, i: int, j: int, k: int) -> TrigPoly:
        """tau's entry for Gamma^i_jk: the symbol times q."""
        return self.form._components.get((k,), {}).get((i - 1, j - 1)) or TrigPoly.zero()

    def quotient(self, num: TrigPoly, k: int = 1) -> Optional[TrigPoly]:
        """num / q^k, or None when it is not polynomial."""
        for _ in range(k):
            num = scalar.exact_divide(num, self._divisor)
            if num is None:
                return None
        return num

    @functools.cached_property
    def q(self) -> TrigPoly:
        return self.det.power(self.power).scale(self.content)

    @functools.cached_property
    def _divisor(self) -> scalar.Divisor:
        return scalar.Divisor(self.q)

    @functools.cached_property
    def _curvature(self) -> MatrixForm:
        return _riemann_entries(self)


def christoffel(metric: Metric) -> Christoffel:
    """The Christoffel symbols of the metric, built on first use and kept
    on it."""
    return metric._christoffel


def _christoffel_symbols(metric: Metric) -> Christoffel:
    """Gamma^i_jk = sum_l g^il [jk,l] with the first-kind brackets
    [jk,l] = 1/2 (d_k g_lj + d_j g_lk - d_l g_jk), held unhalved over g',
    as 2 lambda [jk,l], and N = u g^-1 det^p: so Gamma = tau / (2 lambda u
    det^p).  g is symmetric: d g_ab is taken for a <= b, and each symbol
    for j <= k, put in both components of tau as [jk,l] = [kj,l]."""
    n, g, inverse = metric.dim, metric._g, metric._numerators
    d = {(a, b, c): g[a][b].diff(c + 1) for a in range(n) for b in range(a, n) for c in range(n)}
    dg = [[[d[min(a, b), max(a, b), c] for b in range(n)] for a in range(n)] for c in range(n)]
    tau = [[[None] * n for _ in range(n)] for _ in range(n)]  # tau[k][i][j] = Gamma^i_jk
    for j in range(n):
        for k in range(j, n):
            bracket = [dg[k][l][j] + dg[j][l][k] - dg[l][j][k] for l in range(n)]
            for i in range(n):
                tau[k][i][j] = tau[j][i][k] = TrigPoly.dot(zip(inverse[i], bracket))
    form = MatrixForm(n, (n, n), {(k + 1,): tau[k] for k in range(n)})
    return Christoffel(form, metric.det_poly(), metric.inverse_power, metric._content)


def riemann_components(metric: Metric) -> MatrixForm:
    """The curvature numerator 2-form S of the metric, over q^2:
    component dx^k ^ dx^l (k < l) carries the matrix (num R^i_jkl)_ij.
    Built on first use and kept on its Christoffel symbols."""
    return christoffel(metric)._curvature


def _riemann_entries(gamma: Christoffel) -> MatrixForm:
    """S, the forms curvature of tau under the quotient rule.  With
    Gamma = tau / q and q = content det^p, R = dGamma + Gamma ^ Gamma is
    S / q^2 for S = q dtau + (tau - dq I) ^ tau, integral as tau and q
    are.  Component dx^k ^ dx^l (k < l) holds (num R^i_jkl)_ij with
    R^i_jkl = d_k G^i_jl - d_l G^i_jk + G^i_hk G^h_jl - G^i_hl G^h_jk."""
    tau, n, q = gamma.form, gamma.form.base_dim, gamma.q
    # one q object on the diagonal, so that exterior_d takes each d_j q once
    dq = forms.exterior_d(MatrixForm(n, (n, n), {(): [[q if i == j else 0 for j in range(n)]
                                                      for i in range(n)]}))
    return forms.exterior_d(tau).scale(q) + forms.wedge(tau - dq, tau)


def riemann_form(metric: Metric) -> MatrixForm:
    """Curvature as an End(TM)-valued 2-form: component dx^k ^ dx^l (k < l)
    carries the matrix (R^i_jkl)_ij, the entries of S divided by q^2.
    Raises GrammarError at the first entry that is not polynomial."""
    S, gamma = riemann_components(metric), metric._christoffel

    def quotient(num, i, j, k, l):
        value = gamma.quotient(num, 2) if num.terms else num
        if value is None:
            raise GrammarError(f"curvature entry R^{i}_{j}{k}{l} "
                               "is not expressible in the scalar grammar")
        return value

    return MatrixForm(metric.dim, (metric.dim, metric.dim), {
        (k, l): [[quotient(num, i, j, k, l) for j, num in enumerate(row, 1)]
                 for i, row in enumerate(entries, 1)]
        for (k, l), entries in S.components()})


def levi_civita_n_flat(metric: Metric, n: int) -> bool:
    """Order-n flatness of the Levi-Civita connection, decided on the
    denominator-cleared curvature and connection forms S and tau: the
    numerators of R over q^2 and of Gamma over q are polynomial and vanish
    where R and Gamma do."""
    return forms.n_flat_from_curvature(riemann_components(metric), christoffel(metric).form, n)


def minimal_lc_flatness_order(metric: Metric, max_n: int = 8):
    return forms.minimal_order_from_curvature(riemann_components(metric),
                                              christoffel(metric).form, max_n)


# ------------------------------------------------------------------
# metric files
# ------------------------------------------------------------------
#
#   dim <n>
#   <n rows of n entries separated by ';'>
#   inverse            (optional)
#   <n rows of n entries separated by ';'>

MetricFileError = textfile.InputFileError

# largest dimension a metric file may declare.  Det and adjugate read each
# minor of g once, and on a dense metric of constants that costs 155,984
# term products at dim 12 (0.6 s in process on a 2-vCPU machine), 360,616
# at dim 13, and 823,139, more than scalar.WORK_BUDGET, at dim 14.  So a
# dense metric above 12 leaves no budget for the curvature, and the header
# refuses it at once.  Sparse metrics stay cheap: the report on the dim-12
# identity is charged 88 term products and takes 0.01 s.
MAX_DIM = 12


def parse_metric(text: str) -> Metric:
    lines = textfile.Lines(text)
    n = lines.header("dim")
    if n < 1:
        raise lines.error("dimension must be positive")
    if n > MAX_DIM:
        raise lines.error(f"dimension {n} is above {MAX_DIM}")
    g = lines.matrix(n)
    inverse = None
    content = lines.next()
    if content is not None:
        if content.split() != ["inverse"]:
            raise lines.error("expected 'inverse' or end of file")
        inverse = lines.matrix(n)
        if lines.next() is not None:
            raise lines.error("unexpected content after the inverse block")
    try:
        return Metric(g, inverse)
    except MetricError as err:
        raise lines.error(str(err))


def load_metric(path) -> Metric:
    return parse_metric(textfile.read(path))
