"""Levi-Civita connection and curvature of a coordinate metric.

Metric entries are scalar.TrigPoly values, the package's one scalar ring:
polynomials over coordinates, sin(u) and cos(u) with sin^2 = 1 - cos^2
applied.  Canonical entries make the symmetry check an equality test.
Christoffel symbols involve the inverse metric, whose entries are
quotients that the ring cannot hold, so this module computes with
numerators over powers of det(g) and divides, with scalar.exact_divide,
only where a quotient is printed.  A metric holds its inverse as
numerators over one power det^p: the supplied rows with p = 0, or the
adjugate with p = 1.  So every Christoffel symbol sits over det^p and
every curvature entry over det^2p, and no sum lifts a term to a common
denominator.  det(g) and the cofactors are minors of g, read from one
memoized Laplace expansion that needs no division, so each minor is
computed once per metric.  Flatness certificates run on the
numerators, the connection form tau and the curvature form S, which
leaves every verdict unchanged because det(g) vanishes nowhere on the
metric's domain.  S is the curvature d tau + tau ^ tau of the forms
module under the quotient rule for the one power of det(g) under tau, so
the package computes curvature with one kernel.

Each derived object is computed once and kept in one shape on the object
it derives from: a Metric, immutable once built, keeps tau, the
Christoffel symbols with one numerator per unordered pair of lower
indices, and tau keeps S, computed for k < l only.  Both live exactly as
long as the metric, so nothing carries over from one metric to the next.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

from . import forms, scalar, textfile
from .forms import MatrixForm
from .scalar import TrigPoly


class MetricError(Exception):
    pass


class GrammarError(MetricError):
    """A requested value has no representation in the scalar grammar."""


# ------------------------------------------------------------------
# quotients over powers of the metric determinant
# ------------------------------------------------------------------

@dataclass(frozen=True)
class DetFraction:
    """num / det^power with a shared determinant polynomial."""

    num: TrigPoly
    power: int
    det: TrigPoly

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def as_poly(self) -> Optional[TrigPoly]:
        """The exact quotient num / det^power, or None when it is not
        polynomial."""
        value = self.num
        for _ in range(self.power):
            value = scalar.exact_divide(value, self.det)
            if value is None:
                return None
        return value

    def as_pair(self) -> Tuple[TrigPoly, TrigPoly]:
        """(numerator, denominator) as polynomials."""
        return self.num, self.det.power(self.power)


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
    The inverse is held as numerators N over det(g)^p: the supplied rows
    with inverse_power p = 0, or the adjugate with p = 1.  det(g) and the
    adjugate's cofactors come from one table of minors (_minors) that
    lives only while the metric is built; a supplied inverse pays for det
    alone.  One certificate checks g N = det^p I with the zero test; for
    the adjugate the residue is the zero polynomial, so the check is
    exact."""

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
        minor, every = _minors(g), tuple(range(n))
        self._det = minor(every, every)
        if scalar.is_zero(self._det):
            raise MetricError("metric is degenerate: det(g) = 0 identically")
        if inverse is None:
            # g is symmetric, so is its adjugate: cofactor C_ij for i <= j, mirrored
            numerators, self.inverse_power = [[None] * n for _ in range(n)], 1
            for i in range(n):
                for j in range(i, n):
                    cof = minor(every[:i] + every[i + 1:], every[:j] + every[j + 1:])
                    numerators[i][j] = numerators[j][i] = cof if (i + j) % 2 == 0 else -cof
        else:
            numerators = [[scalar.as_poly(e) for e in row] for row in inverse]
            if len(numerators) != n or any(len(r) != n for r in numerators):
                raise MetricError("inverse matrix must match the metric's shape")
            self.inverse_power = 0
        scale = self._det.power(self.inverse_power)
        for i, row in enumerate(forms.entries_mul(g, numerators)):
            for j, total in enumerate(row):
                if not scalar.is_zero(total - scale if i == j else total):
                    raise MetricError(
                        "cofactor inversion failed its certificate" if inverse is None
                        else f"supplied inverse fails g g^-1 = I at ({i + 1},{j + 1})"
                    )
        self.inverse_numerators = tuple(tuple(row) for row in numerators)

    def entry(self, i: int, j: int) -> TrigPoly:
        return self.g[i - 1][j - 1]

    def inverse_fraction(self, i: int, j: int) -> DetFraction:
        return DetFraction(self.inverse_numerators[i - 1][j - 1], self.inverse_power, self._det)

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
    """The numerator connection form tau of Gamma over det^power, power
    the metric's inverse power: component dx^k carries the matrix
    (num Gamma^i_jk)_ij, and entry (i, j) of component k and entry (i, k)
    of component j hold one object.  tau keeps the curvature S."""

    form: MatrixForm
    det: TrigPoly
    power: int

    def entry(self, i: int, j: int, k: int) -> DetFraction:
        return DetFraction(self.form.component((k,))[i - 1][j - 1], self.power, self.det)

    @functools.cached_property
    def _curvature(self) -> MatrixForm:
        return _riemann_entries(self)


def christoffel(metric: Metric) -> Christoffel:
    """The Christoffel symbols of the metric, built on first use and kept
    on it."""
    return metric._christoffel


# a sum of products is one dot over the pairs whose two factors are both
# nonzero, so no zero product is charged; with no such pair it is this zero
_ZERO = TrigPoly.zero()


def _dot(pairs) -> TrigPoly:
    pairs = [(a, b) for a, b in pairs if a.terms and b.terms]
    return TrigPoly.dot(pairs) if pairs else _ZERO


def _christoffel_symbols(metric: Metric) -> Christoffel:
    """Gamma^i_jk = sum_l g^il [jk,l] with the first-kind brackets
    [jk,l] = 1/2 (d_k g_lj + d_j g_lk - d_l g_jk), every symbol over the
    one power of det(g) that the inverse numerators share.  g is
    symmetric, so [jk,l] = [kj,l]: each symbol is computed for j <= k and
    put in both components of tau."""
    n, g, inverse = metric.dim, metric.g, metric.inverse_numerators
    dg = [[[g[a][b].diff(c + 1) for b in range(n)] for a in range(n)] for c in range(n)]
    half = Fraction(1, 2)
    tau = [[[None] * n for _ in range(n)] for _ in range(n)]  # tau[k][i][j] = Gamma^i_jk
    for j in range(n):
        for k in range(j, n):
            bracket = [(dg[k][l][j] + dg[j][l][k] - dg[l][j][k]).scale(half) for l in range(n)]
            for i in range(n):
                tau[k][i][j] = tau[j][i][k] = _dot(zip(inverse[i], bracket))
    form = MatrixForm(n, (n, n), {(k + 1,): tau[k] for k in range(n)})
    return Christoffel(form, metric.det_poly(), metric.inverse_power)


def riemann_components(metric: Metric) -> MatrixForm:
    """The curvature numerator 2-form S of the metric, over det^2p:
    component dx^k ^ dx^l (k < l) carries the matrix (num R^i_jkl)_ij.
    Built on first use and kept on its Christoffel symbols."""
    return christoffel(metric)._curvature


def _riemann_entries(gamma: Christoffel) -> MatrixForm:
    """S, the forms curvature of tau under the quotient rule.  With
    Gamma = tau / q and q = det^p, R = dGamma + Gamma ^ Gamma is S / q^2
    for S = q dtau + (tau - dq I) ^ tau; a supplied inverse has q = 1 and
    S = dtau + tau ^ tau, the curvature of the connection tau.  Component
    dx^k ^ dx^l (k < l) holds (num R^i_jkl)_ij with R^i_jkl = d_k G^i_jl -
    d_l G^i_jk + G^i_hk G^h_jl - G^i_hl G^h_jk."""
    tau, n = gamma.form, gamma.form.base_dim
    q = gamma.det.power(gamma.power)
    dq = forms.exterior_d(forms.identity_form(n, n).scale(q))
    return forms.exterior_d(tau).scale(q) + forms.wedge(tau - dq, tau)


def riemann_form(metric: Metric) -> MatrixForm:
    """Curvature as an End(TM)-valued 2-form: component dx^k ^ dx^l (k < l)
    carries the matrix (R^i_jkl)_ij, the entries of S divided by det^2p.
    Raises GrammarError when an entry is not polynomial over the atoms."""
    power, det = 2 * metric.inverse_power, metric.det_poly()
    components = {}
    for (k, l), entries in riemann_components(metric).components():
        rows = []
        for i, row in enumerate(entries, 1):
            quotients = []
            for j, num in enumerate(row, 1):
                value = DetFraction(num, power, det).as_poly() if num.terms else num
                if value is None:
                    raise GrammarError(
                        f"curvature entry R^{i}_{j}{k}{l} "
                        "is not expressible in the scalar grammar"
                    )
                quotients.append(value)
            rows.append(tuple(quotients))
        components[(k, l)] = tuple(rows)
    return MatrixForm(metric.dim, (metric.dim, metric.dim), components)


def _cleared_forms(metric: Metric) -> Tuple[MatrixForm, MatrixForm]:
    """Denominator-cleared curvature and connection forms S and tau: the
    numerators of R over det^2p and of Gamma over det^p are polynomial and
    vanish where R and Gamma do."""
    return riemann_components(metric), christoffel(metric).form


def levi_civita_n_flat(metric: Metric, n: int) -> bool:
    """Order-n flatness of the Levi-Civita connection, decided on the
    denominator-cleared curvature and connection forms."""
    S, tau = _cleared_forms(metric)
    return forms.n_flat_from_curvature(S, tau, n)


def minimal_lc_flatness_order(metric: Metric, max_n: int = 8):
    S, tau = _cleared_forms(metric)
    return forms.minimal_order_from_curvature(S, tau, max_n)


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
# minor of g once, and on a dense metric of constants that costs 157,366
# term products at dim 12 (0.3 s on a 2-vCPU machine), 366,730 at dim 13,
# and more than scalar.WORK_BUDGET at dim 14.  So a dense metric above 12
# leaves no budget for the curvature, and the header refuses it at once.
# Sparse metrics stay cheap: the report on the dim-12 identity takes 0.1 s.
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
