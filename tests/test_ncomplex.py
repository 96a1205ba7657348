import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ndga import linalg, ncomplex
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
                outgoing = c.power_at(i, p)
                incoming = c.power_at(i - (c.order - p), c.order - p)
                from ndga import linalg
                assert linalg.rank(incoming) <= c.dim(i) - linalg.rank(outgoing)


def test_appending_a_zero_degree_changes_nothing():
    rng = random.Random(7)
    c = random_valid_complex(rng, 3)
    extended = FiniteNComplex(
        c.order, c.lo, c.dims + (0,), c.maps + (tuple(),),
    )
    for i in range(c.lo, c.hi + 1):
        for p in range(1, c.order):
            assert p_cohomology_dim(c, p, i) == p_cohomology_dim(extended, p, i)


def test_classical_case_matches_direct_computation():
    # order 2 reduces to ordinary kernel/image dimensions
    rng = random.Random(15)
    from ndga import linalg
    for _ in range(8):
        dims = [rng.randint(1, 3) for _ in range(2)]
        maps = [tuple(
            tuple(Fraction(rng.randint(-1, 1)) for _ in range(dims[0]))
            for _ in range(dims[1])
        )]
        c = complex_from(2, 0, dims, maps)
        assert validate(c)
        expected = dims[0] - linalg.rank(maps[0])
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
    assert measured_nilpotency(t, 5) == 5


def test_tensor_is_a_valid_complex_with_koszul_sign():
    rng = random.Random(3)
    for _ in range(10):
        c1 = random_valid_complex(rng, rng.choice([2, 3]))
        c2 = random_valid_complex(rng, rng.choice([2, 3]))
        measured = tensor_nilpotency(c1, c2)
        assert measured <= c1.order + c2.order - 1


# ------------------------------------------------------------------
# complex files
# ------------------------------------------------------------------

def test_parse_round_trip(data_path):
    c = ncomplex.load_complex(data_path("chain_identity.ncx"))
    assert c == chain_of_identities(3)


def test_parse_fraction_entries():
    text = "N 2\ndeg 0 dim 2\n1/2 -3\ndeg 1 dim 1\n"
    c = parse_complex(text)
    assert c.maps[0] == ((Fraction(1, 2), Fraction(-3)),)


def test_declared_sizes_are_bounded():
    with pytest.raises(ComplexFileError, match="line 2: order 4097 is above 4096"):
        parse_complex("# order\nN 4097\ndeg 0 dim 1\n")
    with pytest.raises(ComplexFileError, match="line 3: dimension 4097 is above 4096"):
        parse_complex("N 2\ndeg 0 dim 1\ndeg 1 dim 4097\n")
    c = parse_complex(f"N {ncomplex.MAX_SIZE}\ndeg 0 dim {ncomplex.MAX_SIZE}\ndeg 1 dim 0\n")
    assert (c.order, c.dims) == (4096, (4096, 0))


def test_power_at_matches_the_composition_from_the_identity():
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
                expected = linalg.identity(c.dim(degree))
                for step in range(p):
                    expected = linalg.mat_mul(c.map_at(degree + step), expected)
                assert c.power_at(degree, p) == expected


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ComplexFileError, match="line 1"):
        parse_complex("deg 0 dim 1\n")
    with pytest.raises(ComplexFileError, match="rows"):
        parse_complex("N 2\ndeg 0 dim 1\ndeg 1 dim 1\n")
    with pytest.raises(ComplexFileError, match="bad rational"):
        parse_complex("N 2\ndeg 0 dim 1\nx\ndeg 1 dim 1\n")
