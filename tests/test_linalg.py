"""Independent oracles for the exact linear algebra: sympy's rank, and a
Fraction Gauss-Jordan elimination that normalises each pivot to one."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ndga import linalg, ncomplex

entries = st.one_of(
    st.just(0),
    st.integers(min_value=-9, max_value=9),
    st.builds(Fraction, st.integers(min_value=-9, max_value=9), st.integers(min_value=1, max_value=6)),
)


@st.composite
def matrices(draw, max_side=6):
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
    return linalg.to_matrix(rows)


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


def is_exact(value):
    return type(value) is int or type(value) is Fraction


@given(matrices())
def test_rank_matches_sympy(matrix):
    sympy = pytest.importorskip("sympy")
    cols = len(matrix[0]) if matrix else 0
    flat = [sympy.Rational(x.numerator, x.denominator) for row in matrix for x in row]
    assert linalg.rank(matrix) == sympy.Matrix(len(matrix), cols, flat).rank()


@given(matrices())
def test_rank_matches_fraction_elimination(matrix):
    assert linalg.rank(matrix) == fraction_rank(matrix)


def test_rank_of_small_cases():
    assert linalg.rank(()) == 0
    assert linalg.rank(((), ())) == 0
    assert linalg.rank(linalg.zero_matrix(3, 4)) == 0
    assert linalg.rank(linalg.identity(4)) == 4
    assert linalg.rank(linalg.to_matrix([[Fraction(1, 2), Fraction(1, 3)], [3, 2]])) == 1
    assert linalg.rank(linalg.to_matrix([[0, 0, 1], [0, 0, 2]])) == 1


@given(matrices(), st.data())
def test_solve_combination_rebuilds_its_target(matrix, data):
    columns = list(matrix)  # the rows of matrix, read as column vectors
    length = len(columns[0]) if columns else data.draw(st.integers(min_value=0, max_value=3))
    weights = [data.draw(entries) for _ in columns]
    target = tuple(sum((w * col[i] for w, col in zip(weights, columns)), 0)
                   for i in range(length))
    coeffs = linalg.solve_combination(columns, target)
    assert coeffs is not None
    assert all(is_exact(c) for c in coeffs)
    assert tuple(sum((c * col[i] for c, col in zip(coeffs, columns)), 0)
                 for i in range(length)) == target


@given(matrices(), st.data())
def test_solve_combination_refuses_a_target_outside_the_span(matrix, data):
    columns = list(matrix)
    length = len(columns[0]) if columns else 0
    target = tuple(data.draw(entries) for _ in range(length))
    spanned = fraction_rank(columns + [target]) == fraction_rank(columns)
    assert (linalg.solve_combination(columns, target) is not None) == spanned
    assert linalg.in_span(columns, target) == spanned


def test_solve_combination_of_a_known_system():
    columns = [(1, 0, 1), (0, 2, 2)]
    assert linalg.solve_combination(columns, (Fraction(1, 2), 3, Fraction(7, 2))) == [
        Fraction(1, 2), Fraction(3, 2)]
    assert linalg.solve_combination(columns, (1, 0, 0)) is None
    assert linalg.solve_combination([], ()) == []
    assert linalg.solve_combination([(0, 0)], (0, 0)) == [0]


@given(matrices(), st.data())
def test_products_hold_ints_and_fractions(a, data):
    inner = len(a[0]) if a else 0
    cols = data.draw(st.integers(min_value=0, max_value=4))
    b = linalg.to_matrix([[data.draw(entries) for _ in range(cols)] for _ in range(inner)])
    product = linalg.mat_mul(a, b, cols=cols)
    assert product == tuple(
        tuple(sum((Fraction(row[k]) * b[k][j] for k in range(inner)), Fraction(0))
              for j in range(cols))
        for row in a)
    assert all(is_exact(x) for row in product for x in row)


def test_integral_entries_are_ints():
    matrix = linalg.to_matrix([[Fraction(4, 2), "3", 0.5, Fraction(1, 3)]])
    assert [type(x) for x in matrix[0]] == [int, int, Fraction, Fraction]
    assert matrix == ((2, 3, Fraction(1, 2), Fraction(1, 3)),)
    assert {type(x) for row in linalg.identity(3) + linalg.zero_matrix(2, 3) for x in row} == {int}


def test_rank_table_products_hold_ints_and_fractions(monkeypatch):
    text = ("N 3\ndeg 0 dim 2\n1 0\n2/4 0\ndeg 1 dim 2\n0 1\n0 3\n"
            "deg 2 dim 2\n1 -1/3\n0 0\ndeg 3 dim 2\n")
    c = ncomplex.parse_complex(text)
    assert [type(x) for x in c.maps[0][1]] == [Fraction, int]
    seen = []
    rank = linalg.rank
    monkeypatch.setattr(linalg, "rank", lambda m: (seen.append(m), rank(m))[1])
    assert c.ranks
    assert len(seen) > len(c.maps)
    assert all(is_exact(x) for m in seen for row in m for x in row)
