import functools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from ndga import scalar
from ndga.scalar import (
    EvalError, ParseError, Power, Product, Rat, ScalarError, Sin, Sum, TrigPoly, Var,
    evaluate, is_zero, normalize, parse, render,
)

from conftest import (
    expressions, polynomial_expressions, small_rationals, sympy_of_text, sympy_reduced,
)


x1, x2, x3 = TrigPoly.var(1), TrigPoly.var(2), TrigPoly.var(3)


def poly(text):
    return normalize(parse(text))


# ------------------------------------------------------------------
# parsing
# ------------------------------------------------------------------

def test_parse_variable():
    assert parse("x2") == Var(2)


def test_parse_trig_power():
    assert parse("sin(x2)^2") == Power(Sin(Var(2)), 2)


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        parse("sin(")
    assert err.value.position == 4


@pytest.mark.parametrize("text, position", [("x²", 1), ("x١", 1), ("3*x1^²", 5), ("٣*x1", 0)])
def test_parse_takes_only_ascii_digits(text, position):
    # str.isdigit passes each of these; int() refuses '²' and reads '١' as 1
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.position == position


def test_parse_unknown_identifier():
    with pytest.raises(ParseError, match="unknown identifier"):
        parse("tan(x1)")


def test_parse_nesting_limit():
    for opener in ("(", "sin("):
        depth = scalar.MAX_NESTING
        assert parse(opener * depth + "x1" + ")" * depth) is not None
        with pytest.raises(ParseError, match="nested deeper"):
            parse(opener * (depth + 1) + "x1" + ")" * (depth + 1))
    with pytest.raises(ParseError, match="nested deeper"):
        parse("(" * 3000 + "x1" + ")" * 3000)


def test_parse_bounds_exponents_and_digits():
    top = scalar.MAX_EXPONENT
    assert parse(f"x1^{top}") == Power(Var(1), top)
    assert poly("10^400") == TrigPoly.const(10**400)
    with pytest.raises(ParseError, match="exponent above"):
        parse(f"(x2+1)^{top + 1}")
    # powers of powers multiply their exponents, checked before the chain
    # is expanded, in the library and on input
    with pytest.raises(ScalarError, match=f"exponent {2 * top} is above {top}"):
        normalize(parse(f"(x1^{top})^2"))
    with pytest.raises(ScalarError, match=f"exponent {2 * top} is above {top}"):
        scalar.expand(f"(x1^{top})^2")
    # like factors add theirs: the exponent and term bounds hold input, and
    # TrigPoly arithmetic outside scalar.work_budget() is unbounded
    high = poly(f"x1^{top}")
    assert high * high == x1.power(2 * top)
    base = poly(f"(x2+1)^{top}")
    assert len((base * base).terms) == 2 * top + 1
    digits = scalar.MAX_DIGITS
    assert parse("9" * digits) == Rat(Fraction(10**digits - 1))
    assert parse("1/" + "9" * digits) == Rat(Fraction(1, 10**digits - 1))
    for text in ("9" * (digits + 1), "-" + "9" * (digits + 1), "1/" + "9" * (digits + 1),
                 "x1^" + "9" * 5000):
        with pytest.raises(ParseError, match=f"longer than {digits} digits"):
            parse(text)


def test_constant_powers_are_bounded_before_they_are_computed():
    limit = scalar.MAX_CONSTANT_DIGITS
    assert poly("(2^100)^100") == TrigPoly.const(2**10000)
    # 10^5000 and a number of about 10^8 digits: neither could be printed
    for text in ("(10^100)^50", "((10^512)^512)^64", "(1/10^100)^50"):
        with pytest.raises(ScalarError, match=f"constant power above {limit} digits"):
            normalize(parse(text))
    assert render(TrigPoly.const(10**limit - 1)) == "9" * limit
    with pytest.raises(ScalarError, match=f"constant above {limit} digits"):
        render(TrigPoly.const(Fraction(1, 10**limit)))


def test_expansion_is_bounded_in_terms():
    for text in ("(x2+1)^512", "x1^300*x1^300", "(x1+x2+1)^43", "sin(x1)^500 + x3"):
        assert len(scalar.expand(text).terms) <= scalar.MAX_TERMS
    for text in ("(x1+1)^100*(x2+1)^100*(x3+1)^100", "(x1+x2+1)^44",
                 "(x1+1)^500*(x1+1)^501", "cos(x1) + sin((x1+x2+x3+1)^40)",
                 "sin(x1)^512*sin(x2)^512*sin(x3)^512", "(sin(x1)*sin(x1))^512*sin(x2)^4"):
        with pytest.raises(ScalarError, match=f"more than {scalar.MAX_TERMS} terms"):
            scalar.expand(text)


def test_expansion_counts_the_sin_square_rewrite():
    # sin^2 u = 1 - cos^2 u turns sin(u)^e into e div 2 + 1 terms, and
    # sin(x1+1), sin(1+x1) are one atom; each expansion is refused once
    # MAX_TERMS is one below its size
    for text, terms in [("sin(x1)^2", 2), ("sin(x1)^512", 257), ("(sin(x1)*sin(x1))^512", 513),
                        ("sin(x1+1)*sin(1+x1)", 2), ("(sin(x1)+1)^100", 101)]:
        assert len(poly(text).terms) == terms
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(scalar, "MAX_TERMS", terms - 1)
            normalize.cache_clear()
            with pytest.raises(ScalarError, match=f"more than {terms - 1} terms"):
                scalar.expand(text)


# cells accepted before expansion was bounded by the ring's own work; each
# stays within one CLI call's budget
@pytest.mark.parametrize("text", ["(x1+1)^400*(x1+1)^400", "(x2+1)^512",
                                  "(sin(x1)*sin(x1))^512", "sin(x1)^500 + x3"])
def test_large_cells_are_accepted_under_the_work_budget(text):
    with scalar.work_budget():
        assert len(scalar.expand(text).terms) <= scalar.MAX_TERMS


def test_work_budget_refuses_before_the_work_and_ends_with_its_scope():
    big = poly("(x1+x2+1)^43")
    with scalar.work_budget():
        with pytest.raises(ScalarError, match=f"budget of {scalar.WORK_BUDGET} term products"):
            big * big
    # each scope starts a fresh count: a square of 250,000 term products fits
    # in each of two scopes; outside a scope the ring is unbounded
    half = poly(" + ".join(f"x2^{i}" for i in range(1, 501)))
    for _ in range(2):
        with scalar.work_budget():
            assert len((half * half).terms) == 999
    scalar._charge(10 * scalar.WORK_BUDGET)


def test_an_inner_budget_holds_what_the_outer_one_has_left():
    with scalar.work_budget():
        scalar._charge(scalar.WORK_BUDGET - 10)
        with scalar.work_budget():
            assert scalar._work_left == 10
            scalar._charge(4)
            with pytest.raises(ScalarError):
                scalar._charge(7)
        assert scalar._work_left == 6
    assert scalar._work_left == math.inf


@given(expressions)
@example(Power(Sin(Var(1)), 2))
@example(Product((Sin(Var(1)), Sin(Var(1)))))
@example(Product((Sin(Sum((Var(1), Rat(Fraction(1))))), Sin(Sum((Rat(Fraction(1)), Var(1)))))))
def test_expansion_never_exceeds_max_terms(e):
    size = len(normalize(e).terms)
    assert size <= scalar.MAX_TERMS
    if size > 1:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(scalar, "MAX_TERMS", size - 1)
            normalize.cache_clear()
            with pytest.raises(ScalarError, match=f"more than {size - 1} terms"):
                normalize(e)


def test_parse_rationals_and_signs():
    assert parse("-3/4") == Rat(Fraction(-3, 4))
    # an integral literal is held as an int, not as a Fraction
    for text, value in (("7", 7), ("-2", -2), ("6/3", 2)):
        assert type(parse(text).value) is int and parse(text) == Rat(value)
    assert poly("-x1") == -x1
    assert poly("x1 - x2") == x1 - x2


@given(expressions)
def test_render_parse_round_trip_normalized(e):
    n = normalize(e)
    assert poly(render(n)) == n


def test_render_parse_round_trip_raw_examples():
    for text, rendered in [("x1 - x2", "x1 - x2"),
                           ("(x1+x2)^3", "x1^3 + x2^3 + 3*x1*x2^2 + 3*x1^2*x2"),
                           ("-1/2*cos(x1*x2)", "-1/2*cos(x1*x2)"), ("x1*(-2)", "-2*x1"),
                           ("(x1+x2)+x3", "x1 + x2 + x3")]:
        assert render(poly(text)) == rendered
        assert poly(rendered) == poly(text)


# ------------------------------------------------------------------
# differentiation
# ------------------------------------------------------------------

def test_diff_variable():
    assert x2.diff(2) == TrigPoly.one()
    assert x2.diff(1) == TrigPoly.zero()


def test_curl_of_rotation_field():
    # omega_1 = x2, omega_2 = -x1: d_2 omega_1 - d_1 omega_2 = 2
    w1, w2 = x2, -x1
    assert w1.diff(2) - w2.diff(1) == TrigPoly.const(2)


def test_diff_chain_rule():
    assert poly("sin(x1*x2)").diff(1) == x2 * poly("cos(x1*x2)")


@given(small_rationals, small_rationals, polynomial_expressions, polynomial_expressions,
       st.integers(min_value=1, max_value=3))
def test_diff_linearity(a, b, e1, e2, i):
    p1, p2 = normalize(e1), normalize(e2)
    assert (a * p1 + b * p2).diff(i) == a * p1.diff(i) + b * p2.diff(i)


@given(expressions, st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=3))
def test_commuting_partials(e, i, j):
    p = normalize(e)
    assert p.diff(i).diff(j) == p.diff(j).diff(i)


@given(expressions, st.integers(min_value=1, max_value=3))
def test_diff_matches_finite_differences(e, i):
    p = normalize(e)
    point = {1: 0.3, 2: -0.4, 3: 0.55}
    h = 1e-4
    up = {**point, i: point[i] + h}
    down = {**point, i: point[i] - h}
    try:
        numeric = (float(evaluate(p, up)) - float(evaluate(p, down))) / (2 * h)
        symbolic = float(evaluate(p.diff(i), point))
    except OverflowError:
        return
    scale = max(1.0, abs(symbolic))
    assert abs(numeric - symbolic) <= 1e-6 * scale


# ------------------------------------------------------------------
# evaluation
# ------------------------------------------------------------------

def test_evaluate_exact_product():
    assert evaluate(x1 * x2, {1: 2, 2: 3}) == Fraction(6)


def test_evaluate_pythagorean():
    # sin^2 is stored as 1 - cos^2 and still evaluates to sin^2
    value = evaluate(poly("sin(x2)^2"), {2: 0.7})
    assert abs(value - math.sin(0.7) ** 2) < 1e-12
    assert evaluate(poly("sin(x2)^2 + cos(x2)^2"), {2: 0.7}) == 1


def test_evaluate_missing_assignment():
    with pytest.raises(EvalError, match="x1"):
        evaluate(2 * x1, {2: 1})


def test_evaluate_overflow_is_an_eval_error():
    with pytest.raises(EvalError, match="float range"):
        evaluate(poly("sin(10^400*x2)"), {2: 0.5})


def test_evaluate_rational_point_stays_exact():
    p = poly("1/3*x1^2 + x2")
    assert evaluate(p, {1: Fraction(3, 2), 2: Fraction(1, 4)}) == Fraction(1, 1)


# ------------------------------------------------------------------
# zero test
# ------------------------------------------------------------------

def test_is_zero_pythagorean_identity():
    assert is_zero(poly("sin(x2)^2 + cos(x2)^2 - 1"))


def test_is_zero_variable():
    assert not is_zero(x1)


def test_is_zero_polynomial_is_exact():
    assert is_zero(poly("(x1+x2)^2 - x1^2 - 2*x1*x2 - x2^2"))
    assert not is_zero(poly("(x1+x2)^2 - x1^2 - x2^2"))


def test_is_zero_double_angle():
    assert is_zero(poly("sin(x1)*cos(x1) - 1/2*sin(2*x1)"))


def test_is_zero_tolerance_is_relative():
    # the tolerance is relative, so a small coefficient does not pass for zero
    assert not is_zero(poly("1/10^12*sin(x1)"))
    # rounding error relative to the sampled terms still counts as zero
    assert is_zero(poly("sin(2*x1) - 2*sin(x1)*cos(x1)"))
    assert is_zero(poly("x3*(sin(2*x1) - 2*sin(x1)*cos(x1))"))


def test_is_zero_samples_huge_coefficients():
    assert not is_zero(poly("10^400*sin(x1)"))
    assert is_zero(poly("10^400*(sin(2*x1) - 2*sin(x1)*cos(x1))"))


# x1^10240 sin(x1) and an identity times x1^1120, written as products of
# powers within MAX_EXPONENT: at most sample points every term of the first
# underflows to 0.0, and the terms of the second are subnormal
UNDERFLOWING_NONZERO = "*".join(["x1^512"] * 20) + "*sin(x1)"
SUBNORMAL_IDENTITY = "x1^512*x1^512*x1^96*(sin(2*x1) - 2*sin(x1)*cos(x1))"


def test_is_zero_sees_a_function_whose_terms_underflow():
    assert not is_zero(poly(UNDERFLOWING_NONZERO))
    assert not is_zero(poly(SUBNORMAL_IDENTITY.replace("- 2*", "- 3*")))
    assert not is_zero(poly("x1^512*x1^512*sin(x1) - 1/10^400*x2*cos(x1)"))
    # sin(x1) is the largest term, though its coefficient is 10^-400 of the
    # largest coefficient
    assert not is_zero(poly("10^400*" + "*".join(["x1^512"] * 8)
                            + "*(sin(2*x1) - 2*sin(x1)*cos(x1)) + sin(x1)"))


@pytest.mark.parametrize("exponent", [1100, 1120, 1130, 1140, 1160, 10240])
def test_is_zero_keeps_identities_whose_terms_are_subnormal(exponent):
    factors = ["x1^512"] * (exponent // 512) + [f"x1^{exponent % 512}"]
    assert is_zero(poly("*".join(factors) + "*(sin(2*x1) - 2*sin(x1)*cos(x1))"))
    assert is_zero(poly("10^400*" + "*".join(factors) + "*(sin(x1+x2) - sin(x1)*cos(x2)"
                        " - cos(x1)*sin(x2))"))


def test_is_zero_sampled_marker_holds_below_the_float_range(monkeypatch):
    # each trig atom is still valued through evaluate at every point
    calls = []
    original = scalar.evaluate

    def counting(p, point):
        calls.append(p)
        return original(p, point)

    monkeypatch.setattr(scalar, "evaluate", counting)
    assert is_zero(poly(SUBNORMAL_IDENTITY))
    atoms = [render(p) for p in calls if render(p).startswith(("sin", "cos"))]
    assert sorted(set(atoms)) == ["cos(x1)", "sin(2*x1)", "sin(x1)"]
    assert len(atoms) == 3 * scalar.ZERO_SAMPLES


def test_is_zero_decides_pythagorean_identities_exactly(monkeypatch):
    def no_sampling(p, point):
        raise AssertionError("is_zero sampled a polynomial it can decide exactly")

    monkeypatch.setattr(scalar, "evaluate", no_sampling)
    for text in PYTHAGOREAN_IDENTITIES:
        assert is_zero(poly(text))


PYTHAGOREAN_IDENTITIES = (
    "sin(x1)^2 + cos(x1)^2 - 1",
    "x2*(sin(x1)^2 + cos(x1)^2) - x2",
    "sin(x1)^4 - cos(x1)^4 - sin(x1)^2 + cos(x1)^2",
)


def test_is_zero_gives_a_polynomial_the_verdict_of_its_expression(monkeypatch):
    calls = []

    def counting(p, point):
        calls.append(p)
        return original(p, point)

    original = scalar.evaluate
    monkeypatch.setattr(scalar, "evaluate", counting)
    for text, expected in (("sin(2*x1) - 2*sin(x1)*cos(x1)", True), ("1/10^12*sin(x1)", False)):
        del calls[:]
        assert is_zero(poly(text)) is expected
        assert calls, "a trig polynomial that does not reduce to 0 is sampled"

    def no_sampling(p, point):
        raise AssertionError("is_zero sampled a polynomial it can decide exactly")

    monkeypatch.setattr(scalar, "evaluate", no_sampling)
    for text in PYTHAGOREAN_IDENTITIES:
        assert is_zero(poly(text))
    assert not is_zero(poly("x1*x2 - x2*x1 + 1/10^12*x3"))
    assert is_zero(TrigPoly.zero())


def test_sample_points_cover_the_variables_inside_trig_arguments():
    assert poly("x3*sin(x1 + x2)^2 + cos(x4)").variables() == {1, 2, 3, 4}


def test_trig_atoms_are_keyed_by_their_expanded_argument(monkeypatch):
    def no_sampling(p, point):
        raise AssertionError("is_zero sampled a polynomial it can decide exactly")

    monkeypatch.setattr(scalar, "evaluate", no_sampling)
    assert is_zero(poly("sin((x1+1)^2) - sin(x1^2+2*x1+1)"))
    assert poly("cos(2*(x1 + x2))") == poly("cos(2*x2 + x1 + x1)")
    assert render(poly("sin((x1+1)^2)")) == "sin(1 + 2*x1 + x1^2)"


# ------------------------------------------------------------------
# normalization
# ------------------------------------------------------------------

@given(expressions)
def test_normalize_idempotent(e):
    # the polynomial is its own canonical form, and the tree of its text
    # expands back to it
    n = normalize(e)
    assert TrigPoly(n.terms) == n
    assert poly(render(n)) == n


def test_normalize_merges_constants_and_like_terms():
    assert poly("x2 + x1 + x1 + 2 - 2") == poly("2*x1 + x2")


def test_substitute_affine():
    assignment = {1: poly("2*x2 + 1")}
    assert poly("x1^2").substitute(assignment) == poly("(2*x2+1)^2")
    assert poly("x3*sin(x1)^2").substitute(assignment) == poly("x3*sin(2*x2 + 1)^2")
    assert poly("cos(x1 - 2*x2 - 1)").substitute(assignment) == TrigPoly.one()


# ------------------------------------------------------------------
# cached hashes and shared coefficients
# ------------------------------------------------------------------

def rebuilt(e):
    """A copy of e that shares no node, and no Fraction, with e."""
    if isinstance(e, Rat):
        return Rat(Fraction(e.value.numerator, e.value.denominator))
    if isinstance(e, Var):
        return Var(e.index)
    if isinstance(e, scalar.Sum):
        return scalar.Sum(tuple(rebuilt(t) for t in e.terms))
    if isinstance(e, scalar.Product):
        return scalar.Product(tuple(rebuilt(f) for f in e.factors))
    if isinstance(e, Power):
        return Power(rebuilt(e.base), e.exponent)
    return type(e)(rebuilt(e.argument))


@given(expressions)
def test_equal_trees_have_equal_hashes(e):
    copy = rebuilt(e)
    assert copy is not e
    assert copy == e and hash(copy) == hash(e)
    n = normalize(e)
    assert normalize(copy) == n and hash(normalize(copy)) == hash(n)
    round_trip = poly(render(n))
    assert round_trip == n and hash(round_trip) == hash(n)


def test_normalized_coefficients_are_shared():
    # equal trees share one cached polynomial, and so its coefficients
    three = poly("3*x1")
    assert poly("3*x1") is three
    assert normalize(Rat(Fraction(3))) is normalize(Rat(Fraction(6, 2)))
    assert poly("x1 - x1").terms == {}
    assert list(three.terms.values()) == [3]


def test_sum_reuses_terms_without_like_terms():
    kept = poly("3/2*x1*x2")
    total = kept + x3 + poly("2*x3")
    assert total == poly("3/2*x1*x2 + 3*x3")
    [(mono, coeff)] = kept.terms.items()
    assert total.terms[mono] is coeff
    assert kept + TrigPoly.zero() is kept


# render(normalize(text)): the order of terms and factors is that of the
# expression normal form recorded before every value was expanded; rows
# with a sum inside a product or power now print its expansion
NORMAL_FORMS = [
    ("x3 + x1 + x2 + x1", "2*x1 + x2 + x3"),
    ("3*x2*x1 - 2*x1*x2 + 5 - x2 + 1/2", "11/2 - x2 + x1*x2"),
    ("sin(x1)*x2 + x2*sin(x1) + cos(x1)^2 - x1^2 + 7*x1",
     "7*x1 - x1^2 + cos(x1)^2 + 2*x2*sin(x1)"),
    ("2*x1*x2^2*x1*3*sin(x2)", "6*x1^2*x2^2*sin(x2)"),
    ("x2^3*x1*x2*cos(x1+x2)*(x1+1)*(x1+1)",
     "x1*x2^4*cos(x1 + x2) + 2*x1^2*x2^4*cos(x1 + x2) + x1^3*x2^4*cos(x1 + x2)"),
    ("(x1+x2)*2*(x2+x1)^2", "2*x1^3 + 2*x2^3 + 6*x1*x2^2 + 6*x1^2*x2"),
    ("cos(x2)*sin(x1) - sin(x1)*cos(x2) + 4/3*x3*x1 - 1/3*x1*x3", "x1*x3"),
    ("-x1 - x2 - sin(x3) + 2*cos(2*x1) - 1/5*x1^2*x2 + x2*x1^2",
     "-x1 - x2 - sin(x3) + 2*cos(2*x1) + 4/5*x1^2*x2"),
    ("x1^2*x2 + x1*x2^2 + x1^3 + x2^3 + x1*x2 + 9",
     "9 + x1^3 + x2^3 + x1*x2 + x1*x2^2 + x1^2*x2"),
    ("3*(x1 + 2*x2) - 2*(x2 + x1) + x3*(x1+x2) + (x2+x1)*x3", "x1 + 4*x2 + 2*x1*x3 + 2*x2*x3"),
    ("sin(x1)^2 + cos(x1)^2 + sin(x2+x1) + sin(x1+x2)", "1 + 2*sin(x1 + x2)"),
    ("(2*x1)*(3*x2)*(1/6) + (-1)*x2*x1", "0"),
    ("x2*x1 + x1*x2*x1 + 3*x1*x1*x2 - 1/2*x2*x1^2 + sin(x1)*x1 - x1*sin(x1)",
     "x1*x2 + 7/2*x1^2*x2"),
    ("(x1 + 1)*(x2 - 1)*(x1 + 1)*x3^2*x3",
     "-x3^3 + 2*x1*x2*x3^3 - 2*x1*x3^3 + x2*x3^3 + x1^2*x2*x3^3 - x1^2*x3^3"),
]


@pytest.mark.parametrize("text, expected", NORMAL_FORMS)
def test_normal_form_order(text, expected):
    assert render(poly(text)) == expected


# ------------------------------------------------------------------
# polynomial coefficients and the monomial product
# ------------------------------------------------------------------

def test_integer_and_fraction_coefficients_give_one_value():
    # coefficients are ints when integral; a Fraction holding the same
    # rational is the same polynomial
    text = "3*x1^2*sin(x2) - 2*x1*cos(x2) + 5"
    built = poly(text)
    assert all(type(c) is int for c in built.terms.values())
    as_fractions = scalar._poly({m: Fraction(c) for m, c in built.terms.items()})
    assert built == as_fractions
    assert hash(built) == hash(as_fractions)
    assert render(built) == render(as_fractions) == "5 - 2*x1*cos(x2) + 3*x1^2*sin(x2)"
    assert repr(built) == repr(as_fractions)
    assert built * as_fractions == built * built
    [two] = TrigPoly.const(Fraction(4, 2)).terms.values()
    assert two == 2 and type(two) is int
    constant = next(iter(TrigPoly.one().terms))  # the key of the constant term
    assert type(built.scale(Fraction(1, 2)).terms[constant]) is Fraction


def test_scale_keeps_integral_coefficients_int():
    halved = poly("4*x1^2 - 2*sin(x2) + 6").scale(Fraction(1, 2))
    assert halved == poly("2*x1^2 - sin(x2) + 3")
    assert {type(c) for c in halved.terms.values()} == {int}
    assert {type(c) for c in poly("x1 + 3").scale(Fraction(1, 2)).terms.values()} == {Fraction}


def test_exact_divide_keeps_fractions_exact():
    quotient = scalar.exact_divide(TrigPoly.var(1), TrigPoly.const(2))
    [coeff] = quotient.terms.values()
    assert type(coeff) is Fraction and coeff == Fraction(1, 2)
    quotient = scalar.exact_divide(TrigPoly.var(1).scale(6), TrigPoly.const(3))
    assert quotient == TrigPoly.var(1).scale(2)
    assert [type(c) for c in quotient.terms.values()] == [int]


# divisors with no, one and two sin atoms, a sin^2 rewritten to 1 - cos^2,
# and a constant
DIVISORS = ["x1 - x2", "2 + sin(x1)", "sin(x2)", "x1*sin(x1) + cos(x1)",
            "2 + sin(x1) + x3*sin(x2)", "sin(x1)^2 + x2", "3/2"]


@given(expressions, st.sampled_from(DIVISORS))
@example(Var(1), "sin(x2)")
def test_exact_divide_inverts_multiplication(e, divisor):
    quotient, den = normalize(e), poly(divisor)
    assert scalar.exact_divide(quotient * den, den) == quotient
    # a unit added to a multiple of a nonconstant divisor leaves a remainder
    if den.atoms():
        assert scalar.exact_divide(quotient * den + 1, den) is None


def test_exact_divide_charges_each_scan_and_each_product(monkeypatch):
    num, den, quotient = poly("x1^2 - x2^2"), poly("x1 - x2"), poly("x1 + x2")
    charges = []
    monkeypatch.setattr(scalar, "_charge", charges.append)
    assert scalar.exact_divide(num, den) == quotient
    # per quotient term: a scan of the 2-term remainder, a 1 x 2 product
    assert charges == [2, 2, 2, 2]


def test_exact_divide_refuses_the_zero_divisor():
    with pytest.raises(ZeroDivisionError):
        scalar.exact_divide(x1, TrigPoly.zero())


@pytest.mark.parametrize("quotient, divisor", [
    ("3/2*x1 - 3/4", "1/3*x1 + 1/6"),
    ("2/5*x1 - 1/7*cos(x1)", "1/2 + 1/3*sin(x1)"),
    ("5/6*x2*sin(x1) + 1/4", "3/4*x1^2 - 2/9*cos(x2)"),
])
def test_exact_divide_with_fraction_coefficients_on_both_sides(quotient, divisor):
    q, d = poly(quotient), poly(divisor)
    assert {type(c) for p in (q, d) for c in p.terms.values()} >= {Fraction}
    assert scalar.exact_divide(q * d, d) == q
    assert scalar.exact_divide(q * d + Fraction(1, 3), d) is None
    # one divisor, prepared once, divides several numerators
    prepared = scalar.Divisor(d)
    assert [scalar.exact_divide(q * d, prepared), scalar.exact_divide(d, prepared)] == [q, TrigPoly.one()]


@given(polynomial_expressions, polynomial_expressions, st.booleans())
def test_exact_divide_agrees_with_sympy_div(a, b, multiply):
    sympy = pytest.importorskip("sympy")
    den = normalize(b)
    num = normalize(a) * den if multiply else normalize(a)
    if not den.terms:
        return
    gens = sympy.symbols("x1:4")
    quotient, remainder = sympy.div(sympy.Poly(sympy_of_text(render(num)), *gens, domain="QQ"),
                                    sympy.Poly(sympy_of_text(render(den)), *gens, domain="QQ"))
    result = scalar.exact_divide(num, den)
    if remainder.is_zero:
        assert sympy.expand(sympy_of_text(render(result)) - quotient.as_expr()) == 0
    else:
        assert result is None


def _charges(monkeypatch, num, den):
    """exact_divide(num, den) and its charges, den prepared beforehand."""
    num, den, charges = poly(num), scalar.Divisor(poly(den)), []
    monkeypatch.setattr(scalar, "_charge", charges.append)
    result = scalar.exact_divide(num, den)
    monkeypatch.undo()
    return result, charges


def test_a_division_that_degrees_refute_is_charged_nothing(monkeypatch):
    # top degree 1 < 2 in x1, bottom degree 0 < 1 in x2: refused before
    # the numerator is conjugated or scanned
    for num, den in (("x1*sin(x2) + 1", "x1^2 + sin(x2)"), ("x1 + x2^3", "x2 + x2^2")):
        assert _charges(monkeypatch, num, den) == (None, [])
    # 2 + sin(x1) conjugates to 3 + cos(x1)^2, of cos degree 2; cos(x1)
    # times the 2-term conjugate has cos degree 1, so only that product
    # is charged
    assert _charges(monkeypatch, "cos(x1)", "2 + sin(x1)") == (None, [2])
    # cos(x1)*(2 + sin(x1)) conjugates to 3*cos(x1)^2 + cos(x1)^4, of bottom
    # cos degree 2, and 1 + cos(x1)^3 times its conjugate has bottom degree
    # 1, though its leading term s*cos(x1)^4 would divide
    assert _charges(monkeypatch, "1 + cos(x1)^3", "cos(x1)*(2 + sin(x1))") == (None, [4])


def test_gauss_exit_refuses_a_coefficient_the_leading_one_does_not_divide(monkeypatch):
    # 2*x1 + 1 is primitive, so a quotient would be integral, and 1 is not
    # a multiple of 2: refused at the first leading term, before a scan
    assert _charges(monkeypatch, "x1 + 1", "2*x1 + 1") == (None, [])
    assert _charges(monkeypatch, "2*x1^2 + 3*x1 + 1", "2*x1 + 1")[0] == poly("x1 + 1")


def _rational_texts():
    leaves = st.one_of(small_rationals.map(lambda r: f"{r.numerator}/{r.denominator}"),
                       st.sampled_from(["x1", "x2", "sin(x1)", "cos(x2)"]))
    return st.recursive(leaves, lambda children: st.one_of(
        st.tuples(children, children).map(lambda ab: f"({ab[0]} + {ab[1]})"),
        st.tuples(children, children).map(lambda ab: f"{ab[0]}*{ab[1]}"),
        st.tuples(children, st.integers(min_value=0, max_value=3)).map(
            lambda bk: f"({bk[0]})^{bk[1]}")), max_leaves=8)


@given(_rational_texts())
@example("3/2*(2*x1)^2")
@example("1/2*x1 + 1/2*x1")
def test_expansion_holds_integral_coefficients_as_ints(text):
    for coeff in scalar.expand(text).terms.values():
        assert type(coeff) is int or coeff.denominator > 1


def test_brute_force_on_integer_data_keeps_integer_coefficients(data_path):
    from ndga import forms

    conn = forms.load_connection(data_path("generic_c08.conn"))
    assert forms.brute_force_flatness_order(conn, 8) is not None
    # the nonzero entries of the connection, the probes and every nabla
    # step of each probe until it is zero: every entry the brute force can
    # reach, with no column dropped
    reached = [conn.form]
    for probe in forms.probe_forms(conn):
        while not probe.is_zero():
            reached.append(probe)
            probe = forms.nabla_apply(conn, probe)
    entries = [e for form in reached for _, m in form.components()
               for row in m for e in row if e.terms]
    assert len(entries) >= 438
    types = {type(c) for e in entries for c in e.terms.values()}
    assert types == {int}


MONOMIAL_ATOMS = [
    next(iter(poly(text).atoms()))
    for text in ("x1", "x2", "sin(x1)", "cos(x1)", "sin(x1 + x2)", "cos(x1 + x2)")
]

# exponent vectors over MONOMIAL_ATOMS; a canonical monomial holds each sin
# atom at most once
monomials = st.lists(
    st.integers(min_value=0, max_value=3), min_size=len(MONOMIAL_ATOMS),
    max_size=len(MONOMIAL_ATOMS),
).map(lambda exps: tuple(min(exp, 1) if atom[0] == scalar.SIN else exp
                         for atom, exp in zip(MONOMIAL_ATOMS, exps)))


def monomial(exps) -> TrigPoly:
    """The monomial of an exponent vector, built from public constructors."""
    return functools.reduce(TrigPoly.__mul__, (TrigPoly.atom(atom).power(exp)
                                               for atom, exp in zip(MONOMIAL_ATOMS, exps)))


SIN_X1 = (0, 0, 1, 0, 0, 0)


@given(monomials, monomials)
@example(SIN_X1, SIN_X1)
@example((2, 0, 1, 0, 0, 0), (0, 0, 1, 1, 0, 0))
@example((1, 0, 1, 0, 1, 0), (0, 1, 1, 2, 1, 3))
def test_monomial_product_agrees_with_the_plain_merge(m1, m2):
    # the plain merge of exponent vectors, then each sin^2 u in it rewritten
    # as 1 - cos^2 u; a term of the expectation holds no sin^2, so building
    # it multiplies no two sines of one argument
    expected = {(): 1}
    for position, (atom, exp) in enumerate(zip(MONOMIAL_ATOMS, map(sum, zip(m1, m2)))):
        factors = {((position, exp),): 1}
        if atom[0] == scalar.SIN and exp == 2:
            factors = {(): 1, ((position + 1, 2),): -1}  # the cos atom follows its sin
        expected = {m + f: c * sign for m, c in expected.items() for f, sign in factors.items()}
    terms = []
    for fields, c in expected.items():
        exps = [0] * len(MONOMIAL_ATOMS)
        for position, exp in fields:
            exps[position] += exp
        terms.append(monomial(exps).scale(c))
    product = monomial(m1) * monomial(m2)
    assert product == TrigPoly.sum(terms)
    assert len(product.terms) == 2 ** sum(
        atom[0] == scalar.SIN and a + b == 2 for atom, a, b in zip(MONOMIAL_ATOMS, m1, m2))
    assert monomial(m1) * TrigPoly.one() == monomial(m1) == TrigPoly.one() * monomial(m1)


def test_exponent_past_the_field_is_refused():
    at_most = poly("x1^511").power(64) * poly("x1^63")  # x1^32767
    assert scalar.MAX_MONOMIAL_EXPONENT == 32767
    assert render(at_most) == "x1^32767"
    refused = f"exponent above {scalar.MAX_MONOMIAL_EXPONENT} in a product"
    with pytest.raises(ScalarError, match=refused):
        at_most * x1
    with pytest.raises(ScalarError, match=refused):
        poly("x1^512").power(64)
    # the sin^2 rewrite raises the cos exponent by 2
    cosine = poly("cos(x1)^511").power(64) * poly("cos(x1)^62") * poly("sin(x1)")
    assert render(cosine) == "sin(x1)*cos(x1)^32766"
    with pytest.raises(ScalarError, match=refused):
        cosine * poly("sin(x1)")
    # the fields beside a full one keep their exponents
    assert render(at_most * x2 * poly("x3^5")) == "x1^32767*x2*x3^5"


def test_atom_table_outlives_the_work_budget():
    # the table is never cleared: a polynomial made before a budget scope
    # multiplies and renders inside and after it
    made = poly("sin(x7 + 1/3)*x8 - cos(x7 + 1/3)")
    slots = len(scalar._ATOMS)
    with scalar.work_budget():
        assert render(made * made) == render(poly("(sin(x7 + 1/3)*x8 - cos(x7 + 1/3))^2"))
    assert len(scalar._ATOMS) == slots
    assert render(made) == "-cos(1/3 + x7) + x8*sin(1/3 + x7)"


# ------------------------------------------------------------------
# what the benchmark's tracer reads
# ------------------------------------------------------------------

def test_tracer_contract_cached_functions_and_sampling(monkeypatch):
    # perfbench/tracer.py reads the cache_info() of normalize and sort_key
    # by name, and marks an is_zero span as sampled when it calls the
    # module-level evaluate
    for name in ("normalize", "sort_key"):
        assert isinstance(getattr(scalar, name), functools._lru_cache_wrapper)
    calls = []
    original = scalar.evaluate

    def counting(p, point):
        calls.append(p)
        return original(p, point)

    monkeypatch.setattr(scalar, "evaluate", counting)
    assert is_zero(poly("sin(2*x1) - 2*sin(x1)*cos(x1)"))
    assert calls


# ------------------------------------------------------------------
# sympy as an independent oracle
# ------------------------------------------------------------------

def sympy_of_tree(e):
    """The sympy expression of a parse tree, built node by node."""
    sympy = pytest.importorskip("sympy")
    if isinstance(e, Rat):
        return sympy.Rational(e.value.numerator, e.value.denominator)
    if isinstance(e, Var):
        return sympy.Symbol(f"x{e.index}")
    if isinstance(e, scalar.Sum):
        return sympy.Add(*map(sympy_of_tree, e.terms))
    if isinstance(e, scalar.Product):
        return sympy.Mul(*map(sympy_of_tree, e.factors))
    if isinstance(e, Power):
        return sympy_of_tree(e.base) ** e.exponent
    return (sympy.sin if isinstance(e, Sin) else sympy.cos)(sympy_of_tree(e.argument))


@given(expressions)
def test_render_of_the_expansion_agrees_with_sympy(e):
    assert sympy_reduced(sympy_of_text(render(normalize(e))) - sympy_of_tree(e)) == 0


@given(expressions, st.integers(min_value=1, max_value=3))
def test_diff_agrees_with_sympy(e, i):
    sympy = pytest.importorskip("sympy")
    expected = sympy.diff(sympy_of_tree(e), sympy.Symbol(f"x{i}"))
    assert sympy_reduced(sympy_of_text(render(normalize(e).diff(i))) - expected) == 0
