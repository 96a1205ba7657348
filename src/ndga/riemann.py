"""Levi-Civita connection and curvature of a coordinate metric.

Metric entries are scalar.TrigPoly values, the package's one scalar ring:
polynomials over coordinates, sin(u) and cos(u) with sin^2 = 1 - cos^2
applied.  Canonical entries make the symmetry check an equality test.

g splits into blocks, the connected components of its nonzero pattern, and
g^-1 is block diagonal on the same blocks.  Each block B clears its own
denominators, as g'_B = lambda_B g_B, and takes delta_B = det(g'_B) and the
adjugate from one memoized Laplace expansion of g'_B; a supplied inverse is
one block of every coordinate.  The ring cannot hold 1/delta_B, so every
Christoffel symbol and curvature entry is a numerator over a monomial
prod q_B^e_B in the block denominators q_B = 2 rho_B delta_B, each a
polynomial known to be nonzero and held as a formal symbol.  Gamma^i_jk =
tau / q_B for the block B of i, with tau integral: the integer rho_B clears
the denominators of the brackets, those of another block's cells
differentiated along B (the warping term g^il d_l g_jk) included.  Two
entries add over the exponent-wise maximum of their monomials and multiply
by adding exponents, so a diagonal metric never forms the product of its
cells.

The curvature R = dGamma + Gamma ^ Gamma is summed over the nonzero
symbols alone, each first reduced: divided by the q_B of its monomial while
that division is exact, through one scalar.Divisor per block, or by a
scaling where q_B is a constant.  The quotient rule brings d_k q_B, which
is built once per metric, as is every power and product of the q_B.  R is
printed when each entry reduces to a polynomial; a Christoffel symbol that
stays a quotient is printed in the lowest terms scalar.cancel finds.
Flatness is decided by the forms scan on R and on Gamma, each lifted to one
common monomial: that scales a form by a scalar that vanishes nowhere on the
metric's domain, which changes no verdict.

Each derived object is computed once and kept in one shape on the object it
derives from: a Metric, immutable once built, keeps the Christoffel symbols,
with one numerator per unordered pair of lower indices, and they keep the
curvature, computed for k < l only, the reduced symbols, and the powers and
divisors of the q_B.  All live exactly as long as the metric, so nothing
carries over from one metric to the next.
"""

from __future__ import annotations

import functools
import math
from collections import defaultdict
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

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


def _components(g) -> list:
    """The coordinates (0-based) of each connected component of the graph
    whose edges are g's nonzero cells, each increasing, by least member."""
    n, seen, blocks = len(g), set(), []
    for start in range(n):
        if start in seen:
            continue
        block, stack = {start}, [start]
        while stack:
            i = stack.pop()
            for j in range(n):
                if j not in block and g[i][j].terms:
                    block.add(j)
                    stack.append(j)
        seen |= block
        blocks.append(tuple(sorted(block)))
    return blocks


def _cleared(rows):
    """(lambda, lambda rows) for lambda the lcm of the denominators."""
    lam = math.lcm(*(e.denominator() for row in rows for e in row))
    return lam, tuple(tuple(e.scale(lam) for e in row) for row in rows) if lam > 1 else rows


def _certify(g, numerators, scale, failure) -> None:
    """Check g N = scale I with the zero test, or raise MetricError with
    failure(i, j) at the first cell (0-based) that fails."""
    for i, r in enumerate(g):
        for j, c in enumerate(zip(*numerators)):
            total = TrigPoly.dot(zip(r, c))
            if not scalar.is_zero(total - scale if i == j else total):
                raise MetricError(failure(i, j))


def _degenerate_if_zero(det: TrigPoly) -> None:
    if scalar.is_zero(det):
        raise MetricError("metric is degenerate: det(g) = 0 identically")


class Block(NamedTuple):
    """g^-1 on one diagonal block: on the coordinates indices (0-based,
    increasing) it is scale * N / det, with N integral and its nonzero
    entries held as numerators {(i, l): N_il}, keyed by coordinate.  A
    cofactor block has det = delta_B = det(lambda_B g_B), N its adjugate
    and scale = lambda_B; a supplied inverse u g^-1 = N has det 1 and
    scale 1/u."""

    indices: tuple
    det: TrigPoly
    scale: int | Fraction
    numerators: dict


def _cofactor_block(g, indices) -> Block:
    """delta_B and the adjugate of g'_B = lambda_B g_B, from one table of
    minors (_minors) that lives only while the block is built, and the
    certificate g'_B adj = delta_B I, which is exact."""
    lam, sub = _cleared([[g[i][j] for j in indices] for i in indices])
    if len(indices) == 1:  # delta = g'_ii, the adjugate 1, and g' 1 = delta
        _degenerate_if_zero(sub[0][0])
        return Block(indices, sub[0][0], lam, {(indices[0], indices[0]): TrigPoly.one()})
    minor, every = _minors(sub), tuple(range(len(indices)))
    det = minor(every, every)
    _degenerate_if_zero(det)
    # g' is symmetric, so is its adjugate: cofactor C_ab for a <= b, mirrored
    adjugate = [[None] * len(indices) for _ in indices]
    for a in every:
        for b in every[a:]:
            cof = minor(every[:a] + every[a + 1:], every[:b] + every[b + 1:])
            adjugate[a][b] = adjugate[b][a] = cof if (a + b) % 2 == 0 else -cof
    _certify(sub, adjugate, det, lambda i, j: "cofactor inversion failed its certificate")
    return Block(indices, det, lam, {
        (indices[a], indices[b]): adjugate[a][b]
        for a in every for b in every if adjugate[a][b].terms})


def _supplied_block(g, inverse) -> Block:
    """The one block of a supplied inverse: its rows cleared by u, the lcm
    of their denominators, over det 1 and scale 1/u, certified by
    g' N = lambda u I with the zero test."""
    n = len(g)
    lam, cleared = _cleared(g)
    every = tuple(range(n))
    _degenerate_if_zero(_minors(cleared)(every, every))
    rows = [[scalar.as_poly(e) for e in row] for row in inverse]
    if len(rows) != n or any(len(r) != n for r in rows):
        raise MetricError("inverse matrix must match the metric's shape")
    u, numerators = _cleared(rows)
    _certify(cleared, numerators, TrigPoly.const(lam * u),
             lambda i, j: f"supplied inverse fails g g^-1 = I at ({i + 1},{j + 1})")
    return Block(every, TrigPoly.one(), Fraction(1, u) if u > 1 else 1, {
        (i, l): e for i, row in enumerate(numerators) for l, e in enumerate(row) if e.terms})


class Metric:
    """Symmetric coordinate metric with an exact inverse, held per block.

    Entries are TrigPoly values, or ints and Fractions taken as constants;
    g is the metric as given.  blocks holds g^-1 per connected component of
    g's nonzero pattern, as a Block: with inverse_power 1, the adjugate of
    the component's cells, cleared of their own denominators, over its
    determinant delta_B, certified exactly, so that det(g) itself, the
    product of the delta_B, is never formed; with inverse_power 0, the
    supplied rows as one block, after det(g) is found nonzero, certified by
    the zero test."""

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
        if inverse is None:
            self.inverse_power = 1
            self.blocks = tuple(_cofactor_block(g, indices) for indices in _components(g))
        else:
            self.inverse_power = 0
            self.blocks = (_supplied_block(g, inverse),)

    @functools.cached_property
    def _christoffel(self) -> "Christoffel":
        return _christoffel_symbols(self)


# ------------------------------------------------------------------
# Christoffel symbols and curvature
# ------------------------------------------------------------------

def _unit(size: int, b: int) -> tuple:
    return tuple(int(s == b) for s in range(size))


def _derivatives(p: TrigPoly, n: int) -> dict:
    """{c: d_(c+1) p} over the coordinates c < n that p holds, 0-based,
    nonzero ones only."""
    return {c - 1: d for c in sorted(p.variables()) if c <= n if (d := p.diff(c)).terms}


@dataclass(frozen=True)
class Christoffel:
    """Gamma^i_jk = tau^i_jk / q_B for B = blocks[i - 1] and q_B =
    denominators[B], a formal symbol: component dx^k of the integral form
    tau carries the matrix (tau^i_jk)_ij, and entry (i, j) of component k
    and entry (i, k) of component j hold one object.  A quotient over the
    q_B is a pair (num, exps), num / prod q_B^exps_B.  The object keeps the
    curvature, and each reduced symbol, power of the q_B and divisor,
    built once."""

    form: MatrixForm
    denominators: tuple
    blocks: tuple

    def numerator(self, i: int, j: int, k: int) -> TrigPoly:
        """tau's entry for Gamma^i_jk: the symbol times q_B."""
        return self.form._components.get((k,), {}).get((i - 1, j - 1)) or TrigPoly.zero()

    def symbol(self, i: int, j: int, k: int) -> tuple:
        """Gamma^i_jk as (value, None) when it is polynomial, else as the
        (numerator, denominator) pair scalar.cancel leaves."""
        num, exps = self._reduced(i - 1, min(j, k) - 1, max(j, k) - 1)
        return (num, None) if not any(exps) else scalar.cancel(num, self.power(exps))

    def reduce(self, num: TrigPoly, exps: tuple) -> tuple:
        """(num', exps') with num' / q^exps' = num / q^exps, each q_B
        divided out of num while it divides exactly."""
        left = list(exps)
        for b in range(len(left)):
            if left[b] and b in self._constants:
                num, left[b] = num.scale(Fraction(1, self._constants[b] ** left[b])), 0
            while left[b]:
                quotient = scalar.exact_divide(num, self._divisor(b))
                if quotient is None:
                    break
                num, left[b] = quotient, left[b] - 1
        return num, tuple(left)

    def power(self, exps: tuple) -> TrigPoly:
        """prod q_B^exps_B, kept for the life of the symbols."""
        powers = self._powers
        if exps not in powers:
            b = max(s for s, e in enumerate(exps) if e)
            rest = exps[:b] + (exps[b] - 1,) + exps[b + 1:]
            powers[exps] = self.power(rest) * self.denominators[b] if any(rest) else self.denominators[b]
        return powers[exps]

    def lift(self, cells: dict) -> dict:
        """{I: {(i, j): num * q^(top - exps)}} for the quotients
        {I: {(i, j): (num, exps)}}, top the exponent-wise maximum of every
        exps: the quotients times q^top."""
        every = {exps for entries in cells.values() for _, exps in entries.values()}
        top = tuple(map(max, *every)) if len(every) > 1 else next(iter(every), ())
        return {index: {rc: num if exps == top else
                        num * self.power(tuple(t - e for t, e in zip(top, exps)))
                        for rc, (num, exps) in entries.items()}
                for index, entries in cells.items()}

    @functools.cached_property
    def lifted(self) -> MatrixForm:
        """Gamma over one common monomial, the connection form the flatness
        scan reads, with each component's cells built on the first read of
        any (_Deferred): the scan reads them only where a power of the
        curvature meets them in disjoint indices."""
        n = len(self.blocks)
        return forms._form(n, (n, n), {index: _Deferred(self, index)
                                       for index in self.form._components})

    @functools.cached_property
    def _lifted_cells(self) -> dict:
        units = [_unit(len(self.denominators), b) for b in self.blocks]
        return self.lift({index: {(i, j): (num, units[i]) for (i, j), num in cells.items()}
                          for index, cells in self.form._components.items()})

    def _reduced(self, i: int, j: int, k: int) -> tuple:
        """reduce of Gamma^i_jk (0-based, j <= k), kept."""
        kept = self._reductions
        if (i, j, k) not in kept:
            size = len(self.denominators)
            kept[i, j, k] = self.reduce(self.numerator(i + 1, j + 1, k + 1),
                                        _unit(size, self.blocks[i]))
        return kept[i, j, k]

    @functools.cached_property
    def _constants(self) -> dict:
        """{B: q_B} for the symbols that are constants, which divide by a
        scaling."""
        return {b: scalar.evaluate(q, {}) for b, q in enumerate(self.denominators) if not q.atoms()}

    @functools.cached_property
    def _reductions(self) -> dict:
        return {}

    @functools.cached_property
    def _powers(self) -> dict:
        return {(0,) * len(self.denominators): TrigPoly.one()}

    @functools.cached_property
    def _divisors(self) -> dict:
        return {}

    def _divisor(self, b: int) -> scalar.Divisor:
        if b not in self._divisors:
            self._divisors[b] = scalar.Divisor(self.denominators[b])
        return self._divisors[b]

    @functools.cached_property
    def _curvature(self) -> "Curvature":
        return _riemann_entries(self)


class _Deferred(Mapping):
    """The cells of one component of Christoffel.lifted, built with all the
    others on the first read of any."""

    __slots__ = ("_gamma", "_index")

    def __init__(self, gamma: Christoffel, index: tuple):
        self._gamma, self._index = gamma, index

    def __getitem__(self, cell):
        return self._gamma._lifted_cells[self._index][cell]

    def __iter__(self):
        return iter(self._gamma._lifted_cells[self._index])

    def __len__(self):
        return len(self._gamma._lifted_cells[self._index])

    def __bool__(self):
        return True  # the lift of a nonzero component is nonzero


def christoffel(metric: Metric) -> Christoffel:
    """The Christoffel symbols of the metric, built on first use and kept
    on it."""
    return metric._christoffel


def _christoffel_symbols(metric: Metric) -> Christoffel:
    """Gamma^i_jk = sum_l g^il [jk,l] with the first-kind brackets
    [jk,l] = 1/2 (d_k g_lj + d_j g_lk - d_l g_jk), held unhalved, l in the
    block B of i, where g^-1 = scale N / det.  rho_B clears the
    denominators of scale times every bracket of an l in B, so that
    tau = sum_l N_il rho_B scale [jk,l] is integral and Gamma = tau / q_B,
    q_B = 2 rho_B det.  g is symmetric: d g_ab is taken for a <= b, and
    each symbol for j <= k, put in both components of tau as
    [jk,l] = [kj,l], from the nonzero derivatives of g's cells alone."""
    n, g, blocks = metric.dim, metric.g, metric.blocks
    block_of = [0] * n
    for b, block in enumerate(blocks):
        for i in block.indices:
            block_of[i] = b
    # d_c g_ab enters [jk,l] as d_k g_lj and d_j g_lk, for {l, j} or {l, k} =
    # {a, b} and c the other lower index, and as -d_l g_jk for {j, k} = {a, b}
    terms = defaultdict(list)  # (j, k, l), j <= k -> addends of [jk,l]
    for a in range(n):
        for b in range(a, n):
            if not g[a][b].terms:
                continue
            for c, d in _derivatives(g[a][b], n).items():
                for l, x in ((a, b), (b, a)) if a != b else ((a, a),):
                    terms[min(x, c), max(x, c), l] += [d, d] if x == c else [d]
                terms[a, b, c].append(-d)
    brackets = defaultdict(dict)  # (j, k) -> {l: [jk,l]}
    rho = [1] * len(blocks)
    for (j, k, l), addends in sorted(terms.items()):
        bracket = TrigPoly.sum(addends)
        if bracket.terms:
            brackets[j, k][l] = bracket
            b = block_of[l]
            rho[b] = math.lcm(rho[b], bracket.scale(blocks[b].scale).denominator())
    tau = defaultdict(dict)  # (k,) -> {(i, j): tau^i_jk}, 1-based k
    for (j, k), row in brackets.items():
        pairs = defaultdict(list)
        for l, bracket in row.items():
            block = blocks[block_of[l]]
            cleared = bracket.scale(block.scale * rho[block_of[l]])
            for i in block.indices:
                if (i, l) in block.numerators:
                    pairs[i].append((block.numerators[i, l], cleared))
        for i, products in sorted(pairs.items()):
            total = TrigPoly.dot(products)
            if total.terms:
                tau[k + 1,][i, j] = tau[j + 1,][i, k] = total
    return Christoffel(forms._form(n, (n, n), dict(tau)),
                       tuple(block.det.scale(2 * r) for block, r in zip(blocks, rho)),
                       tuple(block_of))


class Curvature:
    """R = dGamma + Gamma ^ Gamma over the denominators of gamma: component
    (k, l), k < l, of cells holds {(i, j): (num, exps)} (0-based i, j),
    R^i_jkl = num / prod q_B^exps_B, for the nonzero numerators."""

    def __init__(self, gamma: Christoffel, cells: dict):
        self.gamma, self.cells = gamma, cells

    @functools.cached_property
    def reduced(self) -> tuple:
        """(R, None) with R the polynomial form when each entry, reduced by
        Christoffel.reduce, is a polynomial, else (None, (i, j, k, l)) for
        the first entry that is not."""
        components = {}
        for (k, l), cells in self.cells.items():
            for (i, j), entry in cells.items():
                value, left = self.gamma.reduce(*entry)
                if any(left):
                    return None, (i + 1, j + 1, k, l)
                components.setdefault((k, l), {})[i, j] = value
        n = len(self.gamma.blocks)
        return forms._form(n, (n, n), components), None

    @functools.cached_property
    def lifted(self) -> MatrixForm:
        """The curvature over one common monomial: R itself when it is
        polynomial, else the numerators times the monomial over theirs."""
        form, _ = self.reduced
        if form is None:
            n = len(self.gamma.blocks)
            form = forms._form(n, (n, n), self.gamma.lift(self.cells))
        return form


def riemann_components(metric: Metric) -> Curvature:
    """The curvature of the metric over the block symbols.  Built on first
    use and kept on its Christoffel symbols."""
    return christoffel(metric)._curvature


def _riemann_entries(gamma: Christoffel) -> Curvature:
    """R^i_jkl = d_k G^i_jl - d_l G^i_jk + G^i_hk G^h_jl - G^i_hl G^h_jk
    over the nonzero symbols only, each reduced first: G = r / q^e, e zero
    or the unit at the block B of its row.  By the quotient rule d_k (r /
    q_B) is d_k r / q_B - r d_k q_B / q_B^2; the second term joins the
    products with h = i over q_B, as in (tau - dq_B I) ^ tau over q_B^2.
    Each cell sums its products in one TrigPoly.dot per monomial, and its
    monomials over their exponent-wise maximum (_common)."""
    n, size, blocks = len(gamma.blocks), len(gamma.denominators), gamma.blocks
    zero = (0,) * size
    rows = defaultdict(list)  # i -> [(j, k, r, e)], 0-based, both orders of j, k
    for (k,), cells in gamma.form._components.items():
        for i, j in cells:
            rows[i].append((j, k - 1) + gamma._reduced(i, min(j, k - 1), max(j, k - 1)))
    # (component, i, j, exps) -> (pairs, addends) of the cell's part over q^exps
    sums, diffs, plus, dq = defaultdict(lambda: ([], [])), {}, {}, {}
    index = [[(k + 1, l + 1) if k < l else (l + 1, k + 1) for l in range(n)] for k in range(n)]
    for i in sorted(rows):
        b = blocks[i]
        twice = tuple(2 * e for e in _unit(size, b))
        over_q = [(j, l, u) for j, l, u, e in rows[i] if e != zero]
        # -d_k q_B / q_B dx^k, to be paired with the symbols of row i over q_B
        if over_q and b not in dq:
            dq[b] = {k: -d for k, d in _derivatives(gamma.denominators[b], n).items()}
        pending = dict(dq[b]) if over_q else {}
        for j, m, r, e in rows[i]:
            # d_k r dx^k ^ dx^m
            if id(r) not in diffs:
                diffs[id(r)] = _derivatives(r, n)
            for k, dr in diffs[id(r)].items():
                if k != m:
                    sums[index[k][m], i, j, e][1].append(dr if k < m else -dr)
        factors = []  # (k, a, [(j, l, u, exps)]): a dx^k meets each u dx^l over q^exps
        for h, k, a, e in rows[i]:
            targets = rows.get(h, ())
            if h == i and e != zero and k in pending:
                # (r^i_ik - d_k q_B) over q_B meets the symbols over q_B
                factors.append((k, a + pending.pop(k), [(j, l, u, twice) for j, l, u in over_q]))
                targets = [t for t in targets if t[3] == zero]
            for _, _, _, f in targets:
                if (e, f) not in plus:
                    plus[e, f] = tuple(x + y for x, y in zip(e, f))
            factors.append((k, a, [(j, l, u, plus[e, f]) for j, l, u, f in targets]))
        factors += [(k, d, [(j, l, u, twice) for j, l, u in over_q]) for k, d in pending.items()]
        for k, a, targets in factors:
            negated = None
            for j, l, u, exps in targets:
                if l > k:
                    sums[index[k][l], i, j, exps][0].append((a, u))
                elif l < k:
                    if negated is None:
                        negated = -a
                    sums[index[k][l], i, j, exps][0].append((negated, u))
    cells = defaultdict(list)
    for (index, i, j, exps), (products, addends) in sorted(sums.items()):
        cells[index, i, j].append((exps, products, addends))
    curvature = defaultdict(dict)
    for (index, i, j), terms in cells.items():
        num, exps = _common(gamma, terms)
        if num.terms:
            curvature[index][i, j] = (num, exps)
    return Curvature(gamma, dict(curvature))


def _common(gamma: Christoffel, parts: list) -> tuple:
    """(num, top) with num / q^top the sum over the (exps, products,
    addends) parts of their sums over q^exps, top the exponent-wise
    maximum: each part below top summed alone, and lifted as one more
    product of the top part's dot."""
    if len(parts) == 1:
        exps, products, addends = parts[0]
        return TrigPoly.dot(products, addends), exps
    top = tuple(map(max, *(exps for exps, _, _ in parts)))
    products, addends = [], []
    for exps, own, more in parts:
        if exps == top:
            products += own
            addends += more
        else:
            products.append((TrigPoly.dot(own, more),
                             gamma.power(tuple(t - e for t, e in zip(top, exps)))))
    return TrigPoly.dot(products, addends), top


def riemann_form(metric: Metric) -> MatrixForm:
    """Curvature as an End(TM)-valued 2-form: component dx^k ^ dx^l (k < l)
    carries the matrix (R^i_jkl)_ij, each entry reduced.  Raises
    GrammarError at the first entry that is not polynomial."""
    form, failed = riemann_components(metric).reduced
    if form is None:
        raise GrammarError("curvature entry R^{}_{}{}{} is not expressible in the "
                           "scalar grammar".format(*failed))
    return form


def levi_civita_n_flat(metric: Metric, n: int) -> bool:
    """Order-n flatness of the Levi-Civita connection, decided on the
    curvature and connection forms each lifted to one common monomial in
    the block symbols, which vanishes nowhere on the metric's domain."""
    return forms.n_flat_from_curvature(riemann_components(metric).lifted,
                                       christoffel(metric).lifted, n)


def minimal_lc_flatness_order(metric: Metric, max_n: int = 8):
    return forms.minimal_order_from_curvature(riemann_components(metric).lifted,
                                              christoffel(metric).lifted, max_n)


# ------------------------------------------------------------------
# metric files
# ------------------------------------------------------------------
#
#   dim <n>
#   <n rows of n entries separated by ';'>
#   inverse            (optional)
#   <n rows of n entries separated by ';'>

MetricFileError = textfile.InputFileError

# largest dimension a metric file may declare.  A block's det and adjugate
# read each minor of the block once.  On a dense metric, one block of
# random integer constants, that costs 157,238 term products at dim 12
# (0.40 s in process on a 2-vCPU x86-64 machine), 366,588 at dim 13, and
# 846,175, more than scalar.WORK_BUDGET, at dim 14.  So a dense metric above
# 12 leaves no budget for the curvature, and the header refuses it at once.
# Blocks keep sparse metrics cheap: at dim 12 the report on the identity is
# charged no term product and takes 1.3 ms, and the one on the flat
# diag(2 + x_i^2), which prints twelve quotients, is charged 36 and takes
# 3.4 ms.
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
