import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ndga import linalg, ncomplex
from test_linalg import bareiss_rank
from ndga.ncomplex import (
    ComplexError, ComplexFileError, FiniteNComplex, complex_from,
    measured_nilpotency, p_cohomology_dim, parse_complex, tensor_complex,
    tensor_nilpotency, total_cohomology_dims, validate,
)


def chain_of_identities(order):
    return complex_from(order, 0, (1, 1, 1), [((1,),), ((1,),)])


def zero_two_dims(order=3):
    return complex_from(order, 0, (2, 2), [((0, 0), (0, 0))])


def random_valid_complex(rng, order):
    # short degree ranges are valid for any maps: every order-fold
    # composition leaves the stored window
    length = rng.randint(1, order)
    dims = [rng.randint(1, 2) for _ in range(length)]
    maps = []
    for t in range(length - 1):
        maps.append(tuple(
            tuple(Fraction(rng.randint(-2, 2)) for _ in range(dims[t]))
            for _ in range(dims[t + 1])
        ))
    return complex_from(order, rng.randint(-1, 1), dims, maps)


# ------------------------------------------------------------------
# validation
# ------------------------------------------------------------------

def test_zero_differential_is_valid_for_any_order():
    for order in (2, 3, 4):
        assert validate(zero_two_dims(order))


def test_identity_chain_orders():
    assert validate(chain_of_identities(3))
    assert not validate(chain_of_identities(2))


def test_two_complexes_are_n_complexes():
    c = complex_from(2, 0, (1, 1), [((0,),)])
    for order in (2, 3, 4, 5):
        shifted = FiniteNComplex(order, c.lo, c.dims, c.maps)
        assert validate(shifted)


def test_dimension_mismatch_raises():
    with pytest.raises(ComplexError, match="dimension mismatch"):
        complex_from(2, 0, (2, 2), [((1, 0),)])
    # a map out of or into a zero space holds no entries
    with pytest.raises(ComplexError, match="got 1x1, expected 0x1"):
        complex_from(2, 0, (1, 0), [((5,),)])
    with pytest.raises(ComplexError, match="at degree 1: got 1x1, expected 1x0"):
        complex_from(3, 0, (1, 0, 1), [(), ((7,),)])
    complex_from(3, 0, (1, 0, 1), [(), ()])
    # sparse maps are checked against the dims
    with pytest.raises(ComplexError, match="degree 0 holds .* outside its 1x1 shape"):
        FiniteNComplex(2, 0, (1, 1), ({0: {1: 5}},))
    with pytest.raises(ComplexError, match="a zero entry"):
        FiniteNComplex(2, 0, (1, 1), ({0: {0: 0}},))


# ------------------------------------------------------------------
# generalized cohomology
# ------------------------------------------------------------------

def test_zero_differential_cohomology():
    c = zero_two_dims()
    for p in (1, 2):
        for i in (0, 1):
            assert p_cohomology_dim(c, p, i) == 2


def test_identity_chain_cohomology():
    c = chain_of_identities(3)
    assert p_cohomology_dim(c, 1, 1) == 0
    assert p_cohomology_dim(c, 2, 1) == 0


def test_short_map_cohomology():
    c = complex_from(3, 0, (1, 1), [((1,),)])
    assert p_cohomology_dim(c, 2, 0) == 1


def test_containment_certificate_failure():
    c = chain_of_identities(2)
    with pytest.raises(ComplexError, match="image is not contained"):
        p_cohomology_dim(c, 1, 1)


def test_p_range_validation():
    c = chain_of_identities(3)
    with pytest.raises(ComplexError):
        p_cohomology_dim(c, 3, 0)


def test_total_dims_of_single_degree():
    c = complex_from(3, 0, (1,), [])
    assert total_cohomology_dims(c, -1) == (1, [(0, 1, 1)])
    assert total_cohomology_dims(c, -2) == (1, [(0, 2, 1)])
    assert total_cohomology_dims(c, 0) == (0, [])


def test_total_partition():
    c = chain_of_identities(3)
    by_diagonal = sum(
        total_cohomology_dims(c, m)[0] for m in ncomplex.total_diagonals(c)
    )
    direct = sum(
        p_cohomology_dim(c, p, i) for i in range(0, 3) for p in (1, 2)
    )
    assert by_diagonal == direct


def test_well_definedness_bound():
    rng = random.Random(12)
    for _ in range(10):
        c = random_valid_complex(rng, rng.choice([2, 3]))
        assert validate(c)
        for i in range(c.lo, c.hi + 1):
            for p in range(1, c.order):
                outgoing = linalg.to_rows(oracle_power(c, i, p))
                incoming = linalg.to_rows(oracle_power(c, i - (c.order - p), c.order - p))
                assert linalg.rank(incoming) <= c.dim(i) - linalg.rank(outgoing)


def test_appending_a_zero_degree_changes_nothing():
    rng = random.Random(7)
    c = random_valid_complex(rng, 3)
    extended = FiniteNComplex(
        c.order, c.lo, c.dims + (0,), c.maps + ({},),
    )
    for i in range(c.lo, c.hi + 1):
        for p in range(1, c.order):
            assert p_cohomology_dim(c, p, i) == p_cohomology_dim(extended, p, i)


def test_classical_case_matches_direct_computation():
    # order 2 reduces to ordinary kernel/image dimensions
    rng = random.Random(15)
    for _ in range(8):
        dims = [rng.randint(1, 3) for _ in range(2)]
        maps = [tuple(
            tuple(Fraction(rng.randint(-1, 1)) for _ in range(dims[0]))
            for _ in range(dims[1])
        )]
        c = complex_from(2, 0, dims, maps)
        assert validate(c)
        expected = dims[0] - linalg.rank(linalg.to_rows(maps[0]))
        assert p_cohomology_dim(c, 1, 0) == expected


# ------------------------------------------------------------------
# tensor products
# ------------------------------------------------------------------

def test_tensor_of_two_complexes_bound():
    c = complex_from(2, 0, (1, 1), [((1,),)])
    assert tensor_nilpotency(c, c) <= 3


def test_zero_tensor_keeps_the_other_order():
    z = complex_from(2, 0, (1, 1), [((0,),)])
    c = chain_of_identities(3)
    assert tensor_nilpotency(z, c) == 3


def test_identity_chain_tensor_square():
    c = chain_of_identities(3)
    t = tensor_complex(c, c)
    assert t.dims == (1, 2, 3, 2, 1)
    assert validate(t)
    assert measured_nilpotency(t) == 5


def test_tensor_is_a_valid_complex_with_koszul_sign():
    rng = random.Random(3)
    for _ in range(10):
        c1 = random_valid_complex(rng, rng.choice([2, 3]))
        c2 = random_valid_complex(rng, rng.choice([2, 3]))
        measured = tensor_nilpotency(c1, c2)
        assert measured <= c1.order + c2.order - 1


def test_invalid_factor_is_refused():
    with pytest.raises(ComplexError, match="factor 2: d\\^2 is not zero"):
        tensor_nilpotency(zero_two_dims(4), chain_of_identities(2))


# ------------------------------------------------------------------
# the rank table against the per-(p, i) route
# ------------------------------------------------------------------
#
# The oracle composes d^p densely from the identity and takes ranks degree
# by degree with the dense Bareiss elimination of tests/test_linalg.py.

def dense_product(a, b, cols):
    """a b, for b with cols columns: a matrix with no rows does not record
    its width."""
    return [[sum(x * row_b[j] for x, row_b in zip(row, b)) for j in range(cols)] for row in a]


def dense_identity(n):
    return [[int(r == s) for s in range(n)] for r in range(n)]


def dense_map(c, degree):
    """d: V^degree -> V^(degree+1) as a dense matrix."""
    rows = c.map_at(degree)
    return [[rows.get(r, {}).get(s, 0) for s in range(c.dim(degree))]
            for r in range(c.dim(degree + 1))]


def oracle_power(c, degree, p):
    """d^p: V^degree -> V^(degree+p) as a dense matrix, for p >= 1."""
    result = dense_identity(c.dim(degree))
    for step in range(p):
        result = dense_product(dense_map(c, degree + step), result, c.dim(degree))
    return result


def oracle_rank(m):
    return bareiss_rank(m)


def oracle_is_zero(m):
    return not any(any(row) for row in m)


def oracle_validate(c):
    return all(oracle_is_zero(oracle_power(c, i, c.order)) for i in range(c.lo, c.hi + 1))


def oracle_cohomology(c, p, degree):
    """dim H(p, degree), or None when the image is not in the kernel."""
    outgoing = oracle_power(c, degree, p)
    incoming = oracle_power(c, degree - (c.order - p), c.order - p)
    if not oracle_is_zero(dense_product(outgoing, incoming, c.dim(degree - (c.order - p)))):
        return None
    return c.dim(degree) - oracle_rank(outgoing) - oracle_rank(incoming)


def oracle_nilpotency(c):
    """Least t <= order with every t-fold composition zero, or None."""
    for t in range(1, c.order + 1):
        if all(oracle_is_zero(oracle_power(c, i, t)) for i in range(c.lo, c.hi + 1)):
            return t
    return None


def assert_matches_oracle(c):
    assert validate(c) == oracle_validate(c)
    for degree in range(c.lo - c.order, c.hi + c.order + 1):
        for p in range(1, c.order):
            expected = oracle_cohomology(c, p, degree)
            if expected is None:
                with pytest.raises(ComplexError, match="image is not contained"):
                    p_cohomology_dim(c, p, degree)
            else:
                assert p_cohomology_dim(c, p, degree) == expected
    expected = oracle_nilpotency(c)
    if expected is None:
        with pytest.raises(ComplexError, match="nilpotency exceeds"):
            measured_nilpotency(c)
    else:
        assert measured_nilpotency(c) == expected


@st.composite
def sparse_complexes(draw):
    """Random sparse maps between degrees of dimension 0 to 2, valid or
    not."""
    dims = draw(st.lists(st.integers(0, 2), min_size=1, max_size=7))
    entry = st.sampled_from([0, 0, 1, -1, 2])
    maps = [
        draw(st.lists(st.lists(entry, min_size=dims[t], max_size=dims[t]),
                      min_size=dims[t + 1], max_size=dims[t + 1]))
        for t in range(len(dims) - 1)
    ]
    return complex_from(draw(st.integers(2, 4)), draw(st.integers(-1, 1)), dims, maps)


def unimodular(rng, n):
    """A random integer matrix of determinant 1 and its inverse, as lists."""
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    q = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n if n > 1 else 0):
        s, r = rng.sample(range(n), 2)
        k = rng.choice((-2, -1, 1, 2))
        p[s] = [x + k * y for x, y in zip(p[s], p[r])]
        for row in q:
            row[r] -= k * row[s]
    return p, q


def segment_complex(rng, order, degrees, count):
    """A direct sum of `count` random segments e_a -> ... -> e_b of length
    at most order, each degree in a scrambled basis, and the segments.
    Degrees that no segment covers are zero-dimensional."""
    segments = []
    for _ in range(count):
        a = rng.randrange(degrees)
        segments.append((a, min(degrees - 1, a + rng.randint(1, order) - 1)))
    dims = [0] * degrees
    slot = {}  # (segment, degree): index of the segment's vector in the degree
    for s, (a, b) in enumerate(segments):
        for t in range(a, b + 1):
            slot[(s, t)] = dims[t]
            dims[t] += 1
    changes = [unimodular(rng, n) for n in dims]
    maps = []
    for t in range(degrees - 1):
        shift = [[0] * dims[t] for _ in range(dims[t + 1])]
        for s, (a, b) in enumerate(segments):
            if a <= t < b:
                shift[slot[(s, t + 1)]][slot[(s, t)]] = 1
        if dims[t] and dims[t + 1]:
            shift = dense_product(changes[t + 1][0],
                                  dense_product(shift, changes[t][1], dims[t]), dims[t])
        maps.append(shift)
    lo = rng.randint(-1, 1)
    c = complex_from(order, lo, dims, maps)
    return c, [(a + lo, b + lo) for a, b in segments]


def segment_cohomology(c, segments, p, degree):
    """The segments [a, b] holding e_degree in Ker d^p but not in
    Im d^(N-p)."""
    return sum(1 for a, b in segments
               if a <= degree <= b and degree + p > b and degree - (c.order - p) < a)


@given(sparse_complexes())
def test_rank_table_matches_the_oracle_on_random_maps(c):
    assert_matches_oracle(c)


@given(st.integers(2, 5), st.integers(1, 7), st.integers(0, 6), st.randoms(use_true_random=False))
def test_rank_table_matches_the_oracle_on_segment_sums(order, degrees, count, rng):
    c, segments = segment_complex(rng, order, degrees, count)
    assert validate(c)
    assert_matches_oracle(c)
    assert measured_nilpotency(c) == max((b - a + 1 for a, b in segments), default=1)
    for degree in range(c.lo, c.hi + 1):
        for p in range(1, order):
            assert p_cohomology_dim(c, p, degree) == segment_cohomology(c, segments, p, degree)


def test_zero_dimensional_degree_in_the_middle():
    # composing through the empty degree 1 once raised a shape mismatch
    c = complex_from(3, 0, [1, 0, 1], [(), ((),)])
    assert validate(c)
    assert p_cohomology_dim(c, 2, 0) == 1
    assert c.ranks == {}


def koszul_order(a, b):
    return 1 + 2 * ((a - 1) // 2) + 2 * ((b - 1) // 2) + (a % 2 == 0 or b % 2 == 0)


@given(st.integers(2, 4), st.integers(2, 4), st.randoms(use_true_random=False))
def test_tensor_formula_matches_the_tensor_complex(n1, n2, rng):
    c1, _ = segment_complex(rng, n1, rng.randint(1, 4), rng.randint(0, 3))
    c2, _ = segment_complex(rng, n2, rng.randint(1, 4), rng.randint(0, 3))
    assert tensor_nilpotency(c1, c2) == measured_nilpotency(tensor_complex(c1, c2))


def dense_tensor_maps(c1, c2):
    """The maps of tensor_complex(c1, c2) as dense matrices, each Koszul
    term a Kronecker product added into its block."""
    def blocks(total):
        return [(i, total - i) for i in range(c1.lo, c1.hi + 1) if c1.dim(i) * c2.dim(total - i)]

    def kronecker(a, b):
        return [[x * y for x in row_a for y in row_b] for row_a in a for row_b in b]

    maps = []
    for total in range(c1.lo + c2.lo, c1.hi + c2.hi):
        starts, height = {}, 0
        for i, j in blocks(total + 1):
            starts[(i, j)] = height
            height += c1.dim(i) * c2.dim(j)
        width = sum(c1.dim(i) * c2.dim(j) for i, j in blocks(total))
        matrix = [[0] * width for _ in range(height)]
        col = 0
        for i, j in blocks(total):
            terms = (((i + 1, j), 1, dense_map(c1, i), dense_identity(c2.dim(j))),
                     ((i, j + 1), -1 if i % 2 else 1, dense_identity(c1.dim(i)), dense_map(c2, j)))
            for block, sign, left, right in terms:
                if block in starts:
                    for r, row in enumerate(kronecker(left, right)):
                        for s, value in enumerate(row):
                            matrix[starts[block] + r][col + s] += sign * value
            col += c1.dim(i) * c2.dim(j)
        maps.append(matrix)
    return maps


@given(st.integers(2, 4), st.integers(2, 4), st.randoms(use_true_random=False))
def test_tensor_cells_match_the_dense_kronecker_blocks(n1, n2, rng):
    c1, _ = segment_complex(rng, n1, rng.randint(1, 4), rng.randint(0, 3))
    c2, _ = segment_complex(rng, n2, rng.randint(1, 4), rng.randint(0, 3))
    t = tensor_complex(c1, c2)
    assert [linalg.to_rows(m) for m in dense_tensor_maps(c1, c2)] == list(t.maps)
    assert t.dims == tuple(sum(c1.dim(i) * c2.dim(d - i) for i in range(c1.lo, c1.hi + 1))
                           for d in range(t.lo, t.hi + 1))


def test_tensor_formula_on_even_and_empty_factors():
    def segment(length, order):
        return complex_from(order, 0, [1] * length, [((1,),)] * (length - 1))

    empty = complex_from(3, 0, (0, 0), [()])
    cases = [(segment(a, 4), segment(b, 4)) for a in (2, 4) for b in (2, 4)]
    cases += [(segment(2, 2), segment(3, 3)), (empty, segment(2, 2)), (segment(4, 4), empty)]
    for c1, c2 in cases:
        measured = measured_nilpotency(tensor_complex(c1, c2))
        assert tensor_nilpotency(c1, c2) == measured
    assert koszul_order(2, 2) == 2 and koszul_order(4, 2) == 4 and koszul_order(4, 4) == 6
    assert tensor_nilpotency(empty, segment(2, 2)) == 1


def test_queries_read_one_rank_table(monkeypatch):
    calls = {"rank": 0, "mat_mul": 0}

    def counted(name, original):
        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        return wrapper

    def refuse(*args, **kwargs):
        raise AssertionError("built without the rank table")

    c, _ = segment_complex(random.Random(4), 4, 9, 8)
    monkeypatch.setattr(linalg, "rank", counted("rank", linalg.rank))
    monkeypatch.setattr(linalg, "mat_mul", counted("mat_mul", linalg.mat_mul))
    monkeypatch.setattr(ncomplex, "tensor_complex", refuse)
    # the queries of `ndga ncomplex cohomology`
    assert validate(c)
    for i in range(c.lo, c.hi + 1):
        for p in range(1, c.order):
            p_cohomology_dim(c, p, i)
    for m in ncomplex.total_diagonals(c):
        total_cohomology_dims(c, m)
    assert calls["rank"] == len(c.ranks) > 0
    assert calls["mat_mul"] <= len(c.ranks)
    assert tensor_nilpotency(c, chain_of_identities(3)) == koszul_order(measured_nilpotency(c), 3)


# ------------------------------------------------------------------
# complex files
# ------------------------------------------------------------------

def test_parse_round_trip(data_path):
    c = ncomplex.load_complex(data_path("chain_identity.ncx"))
    assert c == chain_of_identities(3)
    assert hash(c) == hash(chain_of_identities(3))


def test_parse_fraction_entries():
    text = "N 2\ndeg 0 dim 2\n1/2 -3\ndeg 1 dim 1\n"
    c = parse_complex(text)
    assert c.maps[0] == {0: {0: Fraction(1, 2), 1: -3}}


def test_declared_sizes_are_bounded():
    with pytest.raises(ComplexFileError, match="line 2: order 4097 is above 4096"):
        parse_complex("# order\nN 4097\ndeg 0 dim 1\n")
    with pytest.raises(ComplexFileError, match="line 3: dimension 4097 is above 4096"):
        parse_complex("N 2\ndeg 0 dim 1\ndeg 1 dim 4097\n")
    c = parse_complex(f"N {ncomplex.MAX_SIZE}\ndeg 0 dim {ncomplex.MAX_SIZE}\ndeg 1 dim 0\n")
    assert (c.order, c.dims) == (4096, (4096, 0))


def test_sparse_powers_match_the_composition_from_the_identity():
    rng = random.Random(5)
    for _ in range(20):
        dims = [rng.randint(0, 2) for _ in range(rng.randint(1, 4))]
        maps = [
            tuple(tuple(Fraction(rng.randint(-2, 2)) for _ in range(dims[t]))
                  for _ in range(dims[t + 1]))
            for t in range(len(dims) - 1)
        ]
        c = complex_from(2, rng.randint(-1, 1), dims, maps)
        for degree in range(c.lo - 3, c.hi + 2):
            for p in range(1, 5):
                power = c.map_at(degree)
                for step in range(1, p):
                    power = linalg.mat_mul(c.map_at(degree + step), power)
                assert power == linalg.to_rows(oracle_power(c, degree, p))


def test_power_at_keeps_its_shape_through_a_zero_dimensional_degree():
    # d^2: V^0 -> V^2 through the zero-dimensional V^1 is the zero map, {}
    # as sparse rows and the 1x1 zero matrix in the dense oracle
    c = complex_from(3, 0, [1, 0, 1], [(), ((),)])
    assert c.maps == ({}, {})
    assert linalg.mat_mul(c.map_at(1), c.map_at(0)) == {}
    assert oracle_power(c, 0, 2) == [[0]]
    assert linalg.to_rows(oracle_power(c, 0, 2)) == {}
    assert linalg.to_rows(oracle_power(c, 0, 1)) == {}
    assert c.ranks == {}


def test_mat_mul_through_a_zero_dimensional_space_keeps_the_width():
    # sparse rows hold no shape, so a product through a zero-dimensional
    # space needs no width passed: a 1x0 map times a 0x1 map is {}, the
    # zero map, and so is any product with a zero factor
    assert linalg.mat_mul({}, {}) == {}
    assert linalg.mat_mul({0: {0: 1}}, {}) == {}
    assert linalg.mat_mul({}, {0: {0: 1}}) == {}
    assert linalg.to_rows([[0, 0, 0], [0, 0, 0]]) == {}


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ComplexFileError, match="line 1"):
        parse_complex("deg 0 dim 1\n")
    with pytest.raises(ComplexFileError, match="rows"):
        parse_complex("N 2\ndeg 0 dim 1\ndeg 1 dim 1\n")
    with pytest.raises(ComplexFileError, match="bad rational"):
        parse_complex("N 2\ndeg 0 dim 1\nx\ndeg 1 dim 1\n")
