import functools
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ndga import depth, forms, linalg, scalar
from ndga.depth import (
    AffineMap, DepthForm, DepthFormError, affine_pullback, chart_compatible,
    d_power, differential, function, generator, identity_map,
    minimal_nilpotency, monomial, multiply, nilpotency, nilpotency_bound, parse_form,
    render_form, sign_table, zero,
)
from ndga.scalar import TrigPoly

var = TrigPoly.var
x1, x2 = var(1), var(2)
ONE = TrigPoly.one()


# ------------------------------------------------------------------
# products
# ------------------------------------------------------------------

def test_depth_one_generators_anticommute():
    profile = (2, 2)
    a, b = generator(profile, 1), generator(profile, 2)
    assert multiply(a, b).terms() == [(((1, 1), (2, 1)), ONE)]
    assert (multiply(b, a) + multiply(a, b)).is_structurally_zero()


def test_even_depth_commutes():
    profile = (3, 2)
    a, b = generator(profile, 1, 2), generator(profile, 2)
    assert multiply(a, b) == multiply(b, a)


def test_same_variable_products_vanish():
    profile = (4,)
    assert multiply(generator(profile, 1), generator(profile, 1, 2)).is_structurally_zero()
    assert multiply(generator(profile, 1), generator(profile, 1)).is_structurally_zero()


def test_profile_mismatch():
    with pytest.raises(DepthFormError):
        multiply(generator((2,), 1), generator((3,), 1))


def test_merge_sign_formula():
    # positions inverted: sign = (-1)^(product of depths)
    profile = (3, 2)
    assert multiply(generator(profile, 2, 1), generator(profile, 1, 1)).terms() == \
        [(((1, 1), (2, 1)), -ONE)]
    assert multiply(generator(profile, 2, 1), generator(profile, 1, 2)).terms() == \
        [(((1, 2), (2, 1)), ONE)]
    assert multiply(generator(profile, 1, 1), generator(profile, 1, 2)).is_structurally_zero()


def _random_monomial(rng, profile):
    depths = {}
    for position in range(1, len(profile) + 1):
        if rng.random() < 0.7:
            depths[position] = rng.randint(1, profile[position - 1] - 1)
    exponents = [rng.randint(0, 2) for _ in profile]
    coefficient = TrigPoly.const(rng.choice([1, 2, -1, Fraction(1, 2)]))
    for i, e in enumerate(exponents):
        coefficient = coefficient * var(i + 1).power(e)
    return monomial(profile, coefficient, depths)


PROFILES = [(2,), (4,), (2, 2), (3, 2), (2, 2, 2), (3, 3), (4, 3), (3, 2, 2)]


@pytest.mark.parametrize("profile", PROFILES)
def test_associativity_on_random_monomials(profile):
    rng = random.Random(hash(profile) & 0xFFFF)
    for _ in range(30):
        a, b, c = (_random_monomial(rng, profile) for _ in range(3))
        assert (multiply(multiply(a, b), c) - multiply(a, multiply(b, c))).is_zero()


@pytest.mark.parametrize("profile", PROFILES)
def test_graded_commutativity_on_random_monomials(profile):
    # a law that reads no sign routine: a b = (-1)^(|a| |b|) b a
    rng = random.Random(hash(profile) & 0xFFFFF)
    for _ in range(30):
        a, b = _random_monomial(rng, profile), _random_monomial(rng, profile)
        sign = -1 if (a.degrees()[0] * b.degrees()[0]) % 2 else 1
        assert multiply(a, b) == multiply(b, a).scale(sign)


@pytest.mark.parametrize("profile", PROFILES)
def test_graded_leibniz_on_random_monomials(profile):
    rng = random.Random(hash(profile) & 0xFFF)
    for _ in range(30):
        a, b = _random_monomial(rng, profile), _random_monomial(rng, profile)
        deg = sum(d for _, d in next(iter(a._terms)))
        sign = -1 if deg % 2 else 1
        lhs = differential(multiply(a, b))
        rhs = multiply(differential(a), b) + multiply(a, differential(b)).scale(sign)
        assert (lhs - rhs).is_zero()


# ------------------------------------------------------------------
# the differential
# ------------------------------------------------------------------

def test_differential_of_a_function():
    profile = (3, 3)
    form = function(profile, x1 * x2)
    expected = DepthForm(profile, {((1, 1),): x2, ((2, 1),): x1})
    assert differential(form) == expected


def test_depth_raise_swallows_the_derivative_term():
    # one variable, bound 4: d(f dx) = f d2x because dx^dx = 0
    profile = (4,)
    form = monomial(profile, var(1), {1: 1})
    assert differential(form) == monomial(profile, var(1), {1: 2})


def test_all_twos_profile_is_de_rham():
    profile = (2, 2)
    form = function(profile, x1 * x2)
    assert d_power(form, 2).is_zero()
    a, b = generator(profile, 1), generator(profile, 2)
    assert (multiply(a, b) + multiply(b, a)).is_structurally_zero()


def test_one_variable_depth_chain():
    profile = (3,)
    x = function(profile, var(1))
    assert d_power(x, 2) == monomial(profile, 1, {1: 2})
    assert d_power(x, 3).is_zero()
    profile5 = (5,)
    x5 = function(profile5, var(1))
    assert d_power(x5, 4) == monomial(profile5, 1, {1: 4})
    assert d_power(x5, 5).is_zero()


# ------------------------------------------------------------------
# the all-twos profile against the de Rham forms of ndga.forms
# ------------------------------------------------------------------

def _polynomials(k):
    """Sums of up to three c * x_i * x_j * ... with i, j <= k."""
    monomials = st.tuples(st.integers(min_value=-3, max_value=3),
                          st.lists(st.integers(min_value=1, max_value=k), max_size=3))
    return st.lists(monomials, max_size=3).map(lambda terms: functools.reduce(
        TrigPoly.__add__,
        (functools.reduce(TrigPoly.__mul__, map(var, vs), TrigPoly.const(c)) for c, vs in terms),
        TrigPoly.zero()))


def _scalar_forms(k):
    """{multi-index: coefficient} over coordinates 1..k."""
    indices = st.sets(st.integers(min_value=1, max_value=k)).map(lambda s: tuple(sorted(s)))
    return st.dictionaries(indices, _polynomials(k), max_size=4)


def _de_rham_pair(k, components):
    """The same form on the all-twos profile and as a 1x1 form of ndga.forms:
    the index (p, ...) is ((p, 1), ...)."""
    return (DepthForm((2,) * k, {tuple((p, 1) for p in i): c for i, c in components.items()}),
            forms.scalar_form(k, components))


def _as_depth_form(form):
    return DepthForm((2,) * form.base_dim,
                     {tuple((p, 1) for p in i): m[0][0] for i, m in form.components()})


@given(st.integers(min_value=1, max_value=4).flatmap(
    lambda k: st.tuples(st.just(k), _scalar_forms(k))))
def test_all_twos_differential_is_exterior_d(case):
    k, components = case
    a, alpha = _de_rham_pair(k, components)
    assert differential(a) == _as_depth_form(forms.exterior_d(alpha))


@given(st.integers(min_value=1, max_value=4).flatmap(
    lambda k: st.tuples(st.just(k), _scalar_forms(k), _scalar_forms(k))))
def test_all_twos_product_is_wedge(case):
    k, left, right = case
    a, alpha = _de_rham_pair(k, left)
    b, beta = _de_rham_pair(k, right)
    assert multiply(a, b) == _as_depth_form(forms.wedge(alpha, beta))


# ------------------------------------------------------------------
# nilpotency
# ------------------------------------------------------------------

@pytest.mark.parametrize("profile,expected", [
    ((2,), 2),
    ((3,), 3),
    ((4,), 4),
    ((5,), 5),
    ((2, 2), 2),
    ((3, 2), 4),
])
def test_minimal_nilpotency(profile, expected):
    measured = minimal_nilpotency(profile)
    assert measured == expected
    assert measured <= nilpotency_bound(profile)


def test_probe_budget():
    with pytest.raises(DepthFormError):
        minimal_nilpotency((7, 7))


def profiles_up_to(total):
    """Every profile, in every order, with entry sum at most total."""
    out = []
    for first in range(2, total + 1):
        out.append((first,))
        out += [(first,) + rest for rest in profiles_up_to(total - first)]
    return out


def test_exact_nilpotency_matches_the_probe_oracle():
    profiles = profiles_up_to(8)
    assert len(profiles) == 33
    for profile in profiles:
        assert nilpotency(profile) == minimal_nilpotency(profile), profile


@pytest.mark.parametrize("profile,expected", [
    ((7, 7), 13),
    ((8, 8, 8), 20),
    ((4, 4, 4), 8),
    ((2, 2, 2, 2, 2), 2),
    ((5, 4, 3), 10),
])
def test_exact_nilpotency_values(profile, expected):
    assert nilpotency(profile) == expected
    assert nilpotency(profile) <= nilpotency_bound(profile)


def test_sign_table_is_bounded():
    assert len(sign_table((101, 101))) == depth.MAX_GENERATORS ** 2
    with pytest.raises(DepthFormError, match="201 generators is above 200"):
        sign_table((101, 102))


@pytest.mark.parametrize("profile", [(2,), (3,), (2, 2), (3, 2), (2, 2, 2)])
def test_tensor_bound_holds_on_probes(profile):
    bound = nilpotency_bound(profile)
    for probe in depth.probe_set(profile):
        result = probe
        for _ in range(bound):
            result = differential(result)
        assert result.is_zero()


# ------------------------------------------------------------------
# affine pullbacks
# ------------------------------------------------------------------

def test_identity_pullback():
    profile = (3, 3)
    form = parse_form("x1*dx1*d2x2 + sin(x2)*dx2", profile)
    assert affine_pullback(identity_map(2), form) == form


def test_scaling_pullback_on_one_variable():
    f = AffineMap(((2,),), (0,))
    profile = (3,)
    assert affine_pullback(f, generator(profile, 1, 2)) == generator(profile, 1, 2).scale(2)
    a = function(profile, var(1).power(2))
    lhs = differential(affine_pullback(f, a))
    rhs = affine_pullback(f, differential(a))
    assert (lhs - rhs).is_zero()


def _random_invertible(rng, k):
    while True:
        matrix = tuple(
            tuple(Fraction(rng.randint(-2, 2)) for _ in range(k)) for _ in range(k)
        )
        if linalg.rank(linalg.to_rows(matrix)) == k:
            return matrix


def _random_monomial_matrix(rng, k):
    permutation = list(range(k))
    rng.shuffle(permutation)
    matrix = [[Fraction(0)] * k for _ in range(k)]
    for i in range(k):
        matrix[i][permutation[i]] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
    return tuple(tuple(row) for row in matrix)


def _random_map(rng, k, monomial_matrix):
    matrix = _random_monomial_matrix(rng, k) if monomial_matrix else _random_invertible(rng, k)
    offset = tuple(Fraction(rng.randint(-2, 2)) for _ in range(k))
    return AffineMap(matrix, offset)


def _random_uniform_form(rng, profile):
    out = zero(profile)
    for _ in range(2):
        out = out + _random_monomial(rng, profile)
    return out


def test_d_commutes_with_pullback_de_rham_general_matrices():
    rng = random.Random(42)
    profile = (2, 2, 2)
    for _ in range(15):
        f = _random_map(rng, 3, monomial_matrix=False)
        form = _random_uniform_form(rng, profile)
        assert (differential(affine_pullback(f, form))
                - affine_pullback(f, differential(form))).is_zero()


def test_d_commutes_with_pullback_deep_profiles_monomial_matrices():
    rng = random.Random(43)
    for profile in [(3, 3), (4, 4), (3, 3, 3)]:
        for _ in range(10):
            f = _random_map(rng, len(profile), monomial_matrix=True)
            form = _random_uniform_form(rng, profile)
            assert (differential(affine_pullback(f, form))
                    - affine_pullback(f, differential(form))).is_zero()


def test_functoriality():
    rng = random.Random(44)
    cases = [((2, 2), False), ((3, 3), True), ((4, 4, 4), True), ((2, 2, 2), False)]
    for profile, need_monomial in cases:
        for _ in range(8):
            g = _random_map(rng, len(profile), need_monomial)
            h = _random_map(rng, len(profile), need_monomial)
            form = _random_uniform_form(rng, profile)
            composed = affine_pullback(g.compose(h), form)
            sequential = affine_pullback(h, affine_pullback(g, form))
            assert (composed - sequential).is_zero()


def test_pullback_multiplicative_on_disjoint_monomials():
    rng = random.Random(45)
    profile = (3, 3)
    f = _random_map(rng, 2, monomial_matrix=True)
    a = monomial(profile, var(1), {1: 1})
    b = monomial(profile, 2, {2: 2})
    lhs = affine_pullback(f, multiply(a, b))
    rhs = multiply(affine_pullback(f, a), affine_pullback(f, b))
    assert (lhs - rhs).is_zero()


def test_mixing_matrices_break_deep_relations():
    # the recorded counterexample: d(x1 d2x1) = 0 but its pullback under a
    # coordinate-mixing map has nonzero differential
    profile = (3, 3)
    alpha = monomial(profile, var(1), {1: 2})
    assert differential(alpha).is_zero()
    f = AffineMap(((1, 1), (0, 1)), (0, 0))
    assert not differential(affine_pullback(f, alpha)).is_zero()


def test_pullback_requires_uniform_profile():
    with pytest.raises(DepthFormError):
        affine_pullback(identity_map(2), generator((3, 2), 1))


def test_singular_matrix_rejected():
    with pytest.raises(DepthFormError):
        AffineMap(((1, 1), (1, 1)), (0, 0))


# ------------------------------------------------------------------
# chart compatibility
# ------------------------------------------------------------------

def test_chart_compatible_identity():
    profile = (3, 3)
    form = parse_form("x2*dx1 + d2x2", profile)
    assert chart_compatible(form, form, identity_map(2))


def test_chart_compatible_up_to_trig_identities():
    # the coefficients differ as polynomials and agree as functions
    profile = (2, 2)
    a = parse_form("sin(2*x1)*dx1", profile)
    b = parse_form("2*sin(x1)*cos(x1)*dx1", profile)
    assert not (a - b).is_structurally_zero()
    assert chart_compatible(a, b, identity_map(2))


def test_chart_compatible_scaling():
    profile = (2, 2)
    transition = AffineMap(((2, 0), (0, 1)), (0, 0))
    alpha_v = generator(profile, 1)
    assert chart_compatible(alpha_v.scale(2), alpha_v, transition)
    assert not chart_compatible(alpha_v, alpha_v, transition)


# ------------------------------------------------------------------
# parsing and rendering
# ------------------------------------------------------------------

def test_parse_monomial_syntax():
    form = parse_form("d2x1*dx2", (3, 2))
    assert form == multiply(generator((3, 2), 1, 2), generator((3, 2), 2))


def test_parse_with_coefficients():
    form = parse_form("2*x1^2*dx1 - sin(x2)*dx2", (2, 2))
    expected = DepthForm((2, 2), {
        ((1, 1),): 2 * x1.power(2),
        ((2, 1),): -scalar.expand("sin(x2)"),
    })
    assert form == expected


def test_parse_rejects_bad_depth():
    with pytest.raises(DepthFormError):
        parse_form("d3x1", (3,))


def test_render_round_trip():
    profile = (3, 2)
    form = parse_form("d2x1*dx2 - 2*x1^2*dx1", profile)
    assert parse_form(render_form(form), profile) == form


def test_parse_leading_sign_on_generators():
    # a sign before a monomial of generators alone, as before one with a
    # scalar factor such as -x1*dx1
    profile = (3, 2)
    dx1, dx2, d2x1 = generator(profile, 1), generator(profile, 2), generator(profile, 1, 2)
    assert parse_form("-dx1", profile) == dx1.scale(-1)
    assert parse_form("x1 + -dx2", profile) == function(profile, x1) - dx2
    assert parse_form("- d2x1*dx2", profile) == multiply(d2x1, dx2).scale(-1)
    assert parse_form("x1 - -dx2", profile) == function(profile, x1) + dx2


@pytest.mark.parametrize("signed, unsigned", [
    ("+x1*dx2", "x1*dx2"), ("dx1 + +dx2", "dx1 + dx2"), ("dx1*+dx2", "dx1*dx2"),
    ("+ d2x1*dx2", "d2x1*dx2"), ("x1*+2*dx2", "x1*2*dx2"), ("x2 - +dx1", "x2 - dx1"),
])
def test_parse_reads_a_plus_sign_as_minus_is_read(signed, unsigned):
    # a '+' that opens a term or follows '*' is a sign, as in the scalar
    # grammar, which reads +x1 and x1*+2
    profile = (3, 2)
    assert parse_form(signed, profile) == parse_form(unsigned, profile)


def test_parse_sign_after_a_star():
    # as in the scalar grammar, where x1*-2 reads as -2*x1
    profile = (3, 2)
    dx1, dx2 = generator(profile, 1), generator(profile, 2)
    assert parse_form("x1*-2*dx2", profile) == multiply(function(profile, x1), dx2).scale(-2)
    assert parse_form("x1 * -dx1*-dx2", profile) == multiply(function(profile, x1),
                                                             multiply(dx1, dx2))
    assert parse_form("x2 - x1*-dx1", profile) == function(profile, x2) + multiply(
        function(profile, x1), dx1)


@pytest.mark.parametrize("text", ["dx" + "7" * 5000, "d" + "7" * 5000 + "x1",
                                  "dx" + "7" * 999, "d" + "7" * 999 + "x1"],
                         ids=["position", "depth", "wide_position", "wide_depth"])
def test_parse_refuses_a_generator_number_past_the_digit_limit(text):
    with pytest.raises(DepthFormError) as refused:
        parse_form(text, (3, 2))
    assert len(str(refused.value)) < 200


@pytest.mark.parametrize("text, message", [
    ("d0x1", "depth '0' at position 1 is outside 1..2"),
    ("d3x1", "depth '3' at position 1 is outside 1..2"),
    ("d2x2", "depth '2' at position 2 is outside 1..1"),
])
def test_a_depth_outside_the_profile_names_the_admissible_range(text, message):
    with pytest.raises(DepthFormError) as refused:
        parse_form(text, (3, 2))
    assert str(refused.value) == message


@st.composite
def monomial_sums(draw):
    """(profile, text, form): a sum of signed monomials whose factors, a
    coefficient and generators of any depth, come in any order, variables
    repeated or not, and the form built as the product of each monomial's
    factors in that order, summed."""
    profile = draw(st.sampled_from([(2, 2), (3, 2), (3, 3, 2), (4, 4, 4)]))
    generators = [(p, d) for p, n in enumerate(profile, start=1) for d in range(1, n)]
    terms, form = [], zero(profile)
    for _ in range(draw(st.integers(1, 4))):
        sign = draw(st.sampled_from([1, -1]))
        coefficient = draw(st.sampled_from(["1", "2", "x1", "1/2*x2", "(x1 - x2)", "sin(x1)"]))
        factors = draw(st.permutations(
            [coefficient] + draw(st.lists(st.sampled_from(generators), max_size=3))))
        term = function(profile, scalar.expand(coefficient))
        for factor in factors:
            if factor != coefficient:
                term = multiply(term, generator(profile, *factor))
        form = form + term.scale(sign)
        texts = [f if f == coefficient else f"d{f[1]}x{f[0]}" for f in factors]
        terms.append(("- " if sign < 0 else "+ ") + "*".join(texts))
    return profile, " ".join(terms), form


@given(monomial_sums())
def test_parse_sums_the_products_of_the_factors(case):
    profile, text, form = case
    assert parse_form(text, profile) == form


def test_parse_reports_a_bad_coefficient_before_a_bad_generator():
    with pytest.raises(DepthFormError, match="bad coefficient in 'd9x1\\*x1\\^\\^2'"):
        parse_form("d9x1*x1^^2", (3, 2))
    with pytest.raises(DepthFormError, match="depth '9' at position 1"):
        parse_form("x1 + d9x1*d7x2", (3, 2))


def test_render_writes_subtractions():
    profile = (2, 2)
    assert render_form(parse_form("-dx1 - x2*dx2", profile)) == "-dx1 - x2*dx2"
    assert render_form(parse_form("-x1", profile)) == "-x1"
    assert render_form(parse_form("x1 - 1/2*dx1*dx2", profile)) == "x1 - 1/2*dx1*dx2"
    assert render_form(parse_form("-(x1 - x2)*dx1", profile)) == "(-x1 + x2)*dx1"


_COEFFICIENTS = [scalar.expand(text) for text in (
    "1", "-1", "2", "-3", "1/2", "-2/3", "x1", "-x2", "x1 - x2", "-2*x1*x2",
    "-x1^2 - 1", "sin(x1)", "-cos(x2 - x1)", "-1/2*sin(2*x1)*x2")]


@given(st.sampled_from(PROFILES).flatmap(lambda profile: st.tuples(
    st.just(profile),
    st.dictionaries(st.sampled_from(depth.all_indices(profile)),
                    st.sampled_from(_COEFFICIENTS), max_size=5))))
def test_parse_inverts_render(case):
    profile, terms = case
    form = DepthForm(profile, terms)
    assert parse_form(render_form(form), profile) == form


def test_sign_table_entries():
    rows = dict(((g1, g2), v) for g1, g2, v in sign_table((2, 2)))
    assert rows[("dx1", "dx1")] == "0"
    assert rows[("dx1", "dx2")] == "+"
    assert rows[("dx2", "dx1")] == "-"


def test_equal_coefficients_give_equal_forms():
    # coefficients are expanded polynomials, so an unexpanded and an
    # expanded coefficient are one value
    profile = (2, 2)
    assert parse_form("(x1+1)^2*dx2", profile) == parse_form("(x1^2+2*x1+1)*dx2", profile)
    assert (parse_form("sin((x1+1)^2)*dx1", profile)
            - parse_form("sin(x1^2+2*x1+1)*dx1", profile)).is_structurally_zero()


def test_depth_arithmetic_builds_no_expressions(monkeypatch):
    # coefficients are expanded when they are parsed; after that products,
    # d, sums, pullbacks and the zero test run on TrigPoly arithmetic
    profile = (3, 3)
    a = parse_form("x1^2*sin(x2)*dx1 - 3*cos(x1 + x2)*dx2", profile)
    b = parse_form("(x1 - x2)*dx2 + 1/2*d2x1", profile)
    f = AffineMap(((0, 2), (-1, 0)), (1, Fraction(1, 2)))

    def refuse(*args):
        raise AssertionError("expression trees inside depth-form arithmetic")

    for name in ("normalize", "parse"):
        monkeypatch.setattr(scalar, name, refuse)
    product = multiply(a, b)
    assert not product.is_zero()
    # graded Leibniz rule for a of degree 1
    assert (differential(product) - multiply(differential(a), b)
            + multiply(a, differential(b))).is_zero()
    pulled = affine_pullback(f, product)
    assert (differential(pulled) - affine_pullback(f, differential(product))).is_zero()
    assert (a + b - b - a).is_zero()
    assert render_form(pulled)
