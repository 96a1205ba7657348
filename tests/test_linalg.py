"""Independent oracles for the exact linear algebra: sympy's rank, a
Fraction Gauss-Jordan elimination that normalises each pivot to one, and
the dense Bareiss elimination that linalg ran before its matrices went
sparse."""

import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ndga import linalg, ncomplex, scalar

entries = st.one_of(
    st.just(0),
    st.integers(min_value=-9, max_value=9),
    st.builds(Fraction, st.integers(min_value=-9, max_value=9), st.integers(min_value=1, max_value=6)),
)


@st.composite
def dense_matrices(draw, max_side=6):
    """Empty, wide, tall and square matrices, some of them products through
    a narrow middle (so rank deficient), some with a zero row or column."""
    m = draw(st.integers(min_value=0, max_value=max_side))
    n = draw(st.integers(min_value=0, max_value=max_side))
    rows = [[draw(entries) for _ in range(n)] for _ in range(m)]
    if m and n and draw(st.booleans()):
        k = draw(st.integers(min_value=1, max_value=min(m, n)))
        left = [[draw(entries) for _ in range(k)] for _ in range(m)]
        right = [[draw(entries) for _ in range(n)] for _ in range(k)]
        rows = [[sum(left[i][t] * right[t][j] for t in range(k)) for j in range(n)]
                for i in range(m)]
    if m and n and draw(st.booleans()):
        rows[draw(st.integers(min_value=0, max_value=m - 1))] = [0] * n
        column = draw(st.integers(min_value=0, max_value=n - 1))
        for row in rows:
            row[column] = 0
    return rows


@st.composite
def sparse_matrices(draw, max_side=12):
    """Matrices of up to max_side rows and columns with about two nonzero
    entries per row, as dense lists."""
    m = draw(st.integers(min_value=1, max_value=max_side))
    n = draw(st.integers(min_value=1, max_value=max_side))
    cells = draw(st.dictionaries(st.tuples(st.integers(0, m - 1), st.integers(0, n - 1)),
                                 entries, max_size=2 * m))
    return [[cells.get((i, j), 0) for j in range(n)] for i in range(m)]


matrices = st.one_of(dense_matrices(), sparse_matrices())


def vector(values):
    """A dense vector as linalg reads one: its nonzero entries by index."""
    return {i: x for i, x in enumerate(values) if x}


def fraction_echelon(rows):
    """Reduced row echelon form in place, each pivot scaled to one; returns
    the pivot columns."""
    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inverse = Fraction(1) / rows[r][c]
        rows[r] = [x * inverse for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return pivots


def fraction_rank(matrix):
    return len(fraction_echelon([[Fraction(x) for x in row] for row in matrix]))


def bareiss(rows: list) -> list:
    """Fraction-free Gauss-Jordan elimination in place; returns the pivot
    columns.  Each row is first cleared of denominators, which changes
    neither the rank nor the span.  Each update (p*x - f*y) // prev divides
    exactly, since every entry stays a minor of the cleared matrix (Bareiss,
    Math. Comp. 22, 1968).  Row r ends nonzero at the r-th pivot column
    and zero at every other pivot column."""
    for i, row in enumerate(rows):
        row = [Fraction(x) for x in row]
        den = math.lcm(*(x.denominator for x in row))
        rows[i] = [x.numerator * (den // x.denominator) for x in row]
    pivots = []
    prev = 1
    cols = len(rows[0]) if rows else 0
    for c in range(cols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        top = rows[r]
        p = top[c]
        for i, row in enumerate(rows):
            if i != r:
                f = row[c]
                rows[i] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        prev = p
        pivots.append(c)
        if len(pivots) == len(rows):
            break
    return pivots


def bareiss_rank(matrix):
    return len(bareiss([list(row) for row in matrix]))


def bareiss_solve(columns, target):
    """The coefficients of target in the dense columns, free ones zero, or
    None when target is outside their span."""
    rows = [[col[i] for col in columns] + [target[i]] for i in range(len(target))]
    n = len(columns)
    pivots = bareiss(rows)
    if n in pivots:
        return None
    coeffs = [Fraction(0)] * n
    for row, c in zip(rows, pivots):
        coeffs[c] = Fraction(row[n], row[c])
    return coeffs


def combination(coeffs, columns, length):
    return tuple(sum((c * col[i] for c, col in zip(coeffs, columns)), 0) for i in range(length))


def is_exact(value):
    return type(value) is int or type(value) is Fraction


@given(matrices)
def test_rank_matches_sympy(matrix):
    sympy = pytest.importorskip("sympy")
    cols = len(matrix[0]) if matrix else 0
    flat = [sympy.Rational(x.numerator, x.denominator) for row in matrix for x in row]
    assert linalg.rank(linalg.to_rows(matrix)) == sympy.Matrix(len(matrix), cols, flat).rank()


@given(matrices)
def test_rank_matches_fraction_elimination(matrix):
    assert linalg.rank(linalg.to_rows(matrix)) == fraction_rank(matrix)


@given(matrices, st.data())
def test_rank_and_solving_match_the_bareiss_oracle(matrix, data):
    assert linalg.rank(linalg.to_rows(matrix)) == bareiss_rank(matrix)
    columns = matrix  # the rows of matrix, read as column vectors
    length = len(columns[0]) if columns else 0
    if data.draw(st.booleans()):
        target = combination([data.draw(entries) for _ in columns], columns, length)
    else:
        target = tuple(data.draw(entries) for _ in range(length))
    expected = bareiss_solve(columns, target)
    coeffs = linalg.solve_combination([vector(col) for col in columns], vector(target))
    assert linalg.in_span([vector(col) for col in columns], vector(target)) == (
        expected is not None)
    assert (coeffs is None) == (expected is None)
    if coeffs is not None:
        assert combination(coeffs, columns, length) == target
        if bareiss_rank(columns) == len(columns):
            assert coeffs == expected  # independent columns: one solution


def scanning_pivots(rows):
    """The pivots and the charge of linalg's sparse elimination as it first
    ran, rescanning every remaining row at each pivot: the first row in
    entry order with the fewest entries is the pivot row, and the rows
    holding its least column are updated in entry order and re-enter last."""
    active = []
    for row in rows:
        den = math.lcm(*(Fraction(x).denominator for x in row.values()))
        row = {c: int(x * den) for c, x in row.items()}
        g = math.gcd(*row.values())
        active.append({c: x // g for c, x in row.items()})
    pivots, charge = [], 0
    while active:
        top = min(active, key=len)
        c = min(top)
        held = [row for row in active if c in row and row is not top]
        active = [row for row in active if c not in row]
        charge += sum(len(row.keys() | top.keys()) for row in held)
        for row in held:
            g = math.gcd(top[c], row[c])
            a, f = top[c] // g, row[c] // g
            cells = {col: a * row.get(col, 0) - f * top.get(col, 0)
                     for col in row.keys() | top.keys()}
            cells = {col: x for col, x in cells.items() if x}
            if cells:
                g = math.gcd(*cells.values())
                active.append({col: x // g for col, x in cells.items()})
        pivots.append((c, top))
    return pivots, charge


@given(matrices)
def test_pivots_and_charges_match_the_scanning_elimination(matrix):
    # the heap and the column index change the time a pivot takes, and
    # nothing it picks, writes or is charged
    rows = linalg.to_rows(matrix)
    with scalar.work_budget():
        before = scalar._work_left
        pivots = linalg._eliminate(rows.values())
        spent = before - scalar._work_left
    assert (pivots, spent) == scanning_pivots(rows.values())


def test_an_identity_chain_rank_table_costs_its_products():
    # an N 4 chain of four n x n identities: three products of n pairs
    # each, and six ranks that update no row; rescanning every remaining
    # row at each pivot took 1.0-1.1 s at n = 2000 on a 2-vCPU machine
    n = 2000
    identity = {k: {k: 1} for k in range(n)}
    chain = ncomplex.FiniteNComplex(4, 0, (n,) * 4, (identity,) * 3)
    with scalar.work_budget():
        before = scalar._work_left
        start = time.perf_counter()
        table = chain.ranks
        elapsed = time.perf_counter() - start
        spent = before - scalar._work_left
    assert table == {(i, j): n for i in range(4) for j in range(i + 1, 4)}
    assert spent == 3 * n
    assert elapsed < 0.5


@given(matrices)
def test_elimination_is_charged_no_more_than_the_dense_one(matrix):
    # the dense elimination charged (rows - 1) * cols at each pivot
    spent = []
    with scalar.work_budget():
        before = scalar._work_left
        rank = linalg.rank(linalg.to_rows(matrix))
        spent.append(before - scalar._work_left)
    cols = len(matrix[0]) if matrix else 0
    assert spent[0] <= rank * max(len(matrix) - 1, 0) * cols


def test_rank_of_small_cases():
    assert linalg.rank({}) == 0
    assert linalg.to_rows(((), ())) == {} == linalg.to_rows([[0] * 4] * 3)
    assert linalg.rank({k: {k: 1} for k in range(4)}) == 4
    assert linalg.rank(linalg.to_rows([[Fraction(1, 2), Fraction(1, 3)], [3, 2]])) == 1
    assert linalg.rank(linalg.to_rows([[0, 0, 1], [0, 0, 2]])) == 1


@given(matrices, st.data())
def test_solve_combination_rebuilds_its_target(matrix, data):
    columns = matrix  # the rows of matrix, read as column vectors
    length = len(columns[0]) if columns else data.draw(st.integers(min_value=0, max_value=3))
    target = combination([data.draw(entries) for _ in columns], columns, length)
    coeffs = linalg.solve_combination([vector(col) for col in columns], vector(target))
    assert coeffs is not None
    assert all(is_exact(c) for c in coeffs)
    assert combination(coeffs, columns, length) == target


@given(matrices, st.data())
def test_solve_combination_refuses_a_target_outside_the_span(matrix, data):
    columns = matrix
    length = len(columns[0]) if columns else 0
    target = tuple(data.draw(entries) for _ in range(length))
    spanned = fraction_rank(columns + [target]) == fraction_rank(columns)
    sparse_columns = [vector(col) for col in columns]
    assert (linalg.solve_combination(sparse_columns, vector(target)) is not None) == spanned
    assert linalg.in_span(sparse_columns, vector(target)) == spanned


def test_solve_combination_of_a_known_system():
    columns = [{0: 1, 2: 1}, {1: 2, 2: 2}]
    assert linalg.solve_combination(columns, {0: Fraction(1, 2), 1: 3, 2: Fraction(7, 2)}) == [
        Fraction(1, 2), Fraction(3, 2)]
    assert linalg.solve_combination(columns, {0: 1}) is None
    assert linalg.solve_combination([], {}) == []
    assert linalg.solve_combination([{}], {}) == [0]
    # indices of any hashable kind, such as the words of chern_simons
    assert linalg.solve_combination([{("a",): 2}, {("b",): 1}], {("a",): 1}) == [Fraction(1, 2), 0]


@given(matrices, st.data())
def test_products_hold_ints_and_fractions(a, data):
    inner = len(a[0]) if a else 0
    cols = data.draw(st.integers(min_value=0, max_value=4))
    b = [[data.draw(entries) for _ in range(cols)] for _ in range(inner)]
    product = linalg.mat_mul(linalg.to_rows(a), linalg.to_rows(b))
    assert product == linalg.to_rows(
        [[sum((Fraction(row[k]) * b[k][j] for k in range(inner)), Fraction(0))
          for j in range(cols)] for row in a])
    assert all(is_exact(x) for row in product.values() for x in row.values())


def test_products_are_charged_by_their_nonzero_pairs():
    spent = []
    with scalar.work_budget():
        before = scalar._work_left
        # rows 0 and 2 of a meet row 1 of b, which holds two entries
        linalg.mat_mul({0: {1: 2}, 2: {1: 1, 3: 5}}, {1: {0: 1, 4: 1}, 2: {0: 7}})
        spent.append(before - scalar._work_left)
    assert spent == [4]


def test_integral_entries_are_ints():
    matrix = linalg.to_rows([[Fraction(4, 2), "3", 0.5, Fraction(1, 3), 0]])
    assert [type(x) for x in matrix[0].values()] == [int, int, Fraction, Fraction]
    assert matrix == {0: {0: 2, 1: 3, 2: Fraction(1, 2), 3: Fraction(1, 3)}}


def test_rank_table_products_hold_ints_and_fractions(monkeypatch):
    text = ("N 3\ndeg 0 dim 2\n1 0\n2/4 0\ndeg 1 dim 2\n0 1\n0 3\n"
            "deg 2 dim 2\n1 -1/3\n0 0\ndeg 3 dim 2\n")
    c = ncomplex.parse_complex(text)
    assert c.maps[0] == {0: {0: 1}, 1: {0: Fraction(1, 2)}}
    assert [type(row[0]) for row in c.maps[0].values()] == [int, Fraction]
    seen = []
    rank = linalg.rank
    monkeypatch.setattr(linalg, "rank", lambda m: (seen.append(m), rank(m))[1])
    assert c.ranks
    assert len(seen) > len(c.maps)
    assert all(is_exact(x) for m in seen for row in m.values() for x in row.values())
