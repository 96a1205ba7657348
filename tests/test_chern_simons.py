from fractions import Fraction as Fr

import pytest
from hypothesis import given, strategies as st

from ndga import chern_simons as cs


words = st.lists(
    st.sampled_from(["a", "da", "h", "dh"]), min_size=0, max_size=6
).map(tuple)

elements = st.dictionaries(words, st.fractions(), min_size=0, max_size=4)


# ------------------------------------------------------------------
# expansion and the letter-count inverse
# ------------------------------------------------------------------

def test_expand_k1():
    assert cs.expand_power(1) == {("a", "da"): Fr(1), ("a", "a", "a"): Fr(1)}


def test_expand_k2_words():
    expected = {
        ("a", "da", "da"): Fr(1),
        ("a", "da", "a", "a"): Fr(1),
        ("a", "a", "a", "da"): Fr(1),
        ("a",) * 5: Fr(1),
    }
    assert cs.expand_power(2) == expected


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_expand_degrees(k):
    for word in cs.expand_power(k):
        assert cs.degree(word) == 2 * k + 1


def test_sharp_inverse_divides_by_letter_count():
    element = {("a", "da", "da"): Fr(1), ("a",) * 5: Fr(1)}
    assert cs.sharp_inverse(element) == {("a", "da", "da"): Fr(1, 3), ("a",) * 5: Fr(1, 5)}


def test_sharp_inverse_of_an_int_coefficient_is_exact():
    # coeff / len(word) made the float 0.3333333333333333 of an int
    inverted = cs.sharp_inverse({("a", "a", "a"): 1})
    assert inverted == {("a", "a", "a"): Fr(1, 3)}
    assert type(inverted[("a", "a", "a")]) is Fr


def test_sharp_inverse_rejects_empty_word():
    with pytest.raises(cs.FreeAlgebraError):
        cs.sharp_inverse({(): Fr(1)})


@given(elements)
def test_sharp_inverse_is_a_right_inverse(element):
    element = {w: c for w, c in element.items() if w and c}
    inverted = cs.sharp_inverse(element)
    recovered = {w: c * len(w) for w, c in inverted.items()}
    assert recovered == element


# ------------------------------------------------------------------
# cyclic normal form
# ------------------------------------------------------------------

def test_cyclic_moves_a_da_past_a_squared():
    assert cs.cyclic_normal_form({("a", "da", "a", "a"): Fr(1)}) == {
        ("a", "a", "a", "da"): Fr(1)
    }


def test_cyclic_single_letter_fixed():
    assert cs.cyclic_normal_form({("a",): Fr(2)}) == {("a",): Fr(2)}


def test_cyclic_da_a_rotates_with_plus():
    assert cs.cyclic_normal_form({("da", "a"): Fr(1)}) == {("a", "da"): Fr(1)}


def test_cyclic_kills_odd_squares():
    assert cs.cyclic_normal_form({("a", "a"): Fr(1)}) == {}


@given(elements)
def test_cyclic_normal_form_idempotent(element):
    once = cs.cyclic_normal_form(element)
    assert cs.cyclic_normal_form(once) == once


@given(elements, elements)
def test_cyclic_normal_form_linear(e1, e2):
    combined = cs.add(e1, e2)
    assert cs.cyclic_normal_form(combined) == cs.add(
        cs.cyclic_normal_form(e1), cs.cyclic_normal_form(e2)
    )


# ------------------------------------------------------------------
# the Lagrangian tables
# ------------------------------------------------------------------

def test_lagrangian_k1():
    assert cs.chern_simons_lagrangian(1) == {
        ("a", "da"): Fr(1),
        ("a", "a", "a"): Fr(2, 3),
    }


def test_lagrangian_k2():
    assert cs.chern_simons_lagrangian(2) == {
        ("a", "da", "da"): Fr(4, 3),
        ("a", "a", "a", "da"): Fr(2),
        ("a",) * 5: Fr(4, 5),
    }


def test_lagrangian_k3():
    assert cs.chern_simons_lagrangian(3) == {
        ("a", "da", "da", "da"): Fr(3, 2),
        ("a", "a", "a", "da", "da"): Fr(18, 5),
        ("a", "a", "a", "a", "a", "da"): Fr(3),
        ("a",) * 7: Fr(6, 7),
    }


def test_lagrangian_k4():
    assert cs.chern_simons_lagrangian(4) == {
        ("a",) + ("da",) * 4: Fr(8, 5),
        ("a",) * 3 + ("da",) * 3: Fr(16, 3),
        ("a",) * 5 + ("da",) * 2: Fr(48, 7),
        ("a",) * 7 + ("da",): Fr(4),
        ("a",) * 9: Fr(8, 9),
    }


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_lagrangian_class_structure(k):
    element = cs.chern_simons_lagrangian(k)
    expected_words = {("a",) * (2 * j + 1) + ("da",) * (k - j) for j in range(k)}
    expected_words.add(("a",) * (2 * k + 1))
    assert set(element) == expected_words
    assert element[("a",) * (2 * k + 1)] == Fr(2 * k, 2 * k + 1)


def test_strict_lagrangian_splits_the_mixed_class():
    strict = cs.strict_lagrangian(3)
    assert strict[("a", "a", "a", "da", "da")] == Fr(12, 5)
    assert strict[("a", "a", "da", "a", "da")] == Fr(6, 5)
    assert cs.collect_central_differentials(strict) == cs.chern_simons_lagrangian(3)


# ------------------------------------------------------------------
# the letterwise differential
# ------------------------------------------------------------------

def test_free_d_single_letters():
    assert cs.free_d({("a",): Fr(1)}) == {("da",): Fr(1)}
    assert cs.free_d({("h",): Fr(1)}) == {("dh",): Fr(1)}
    assert cs.free_d({("da",): Fr(1)}) == {}


def test_free_d_leibniz_on_a_squared():
    assert cs.free_d({("a", "a"): Fr(1)}) == {
        ("da", "a"): Fr(1),
        ("a", "da"): Fr(-1),
    }


def test_free_d_squares_to_zero_on_a_cubed():
    assert cs.free_d(cs.free_d({("a", "a", "a"): Fr(1)})) == {}


@given(elements)
def test_free_d_squares_to_zero(element):
    assert cs.free_d(cs.free_d(element)) == {}


# ------------------------------------------------------------------
# the formal variation
# ------------------------------------------------------------------

def test_variation_of_h_free_element():
    assert cs.variation_linear_part({}) == {}
    part = cs.variation_linear_part({("a", "da"): Fr(1)})
    assert part == {("h", "da"): Fr(1), ("a", "dh"): Fr(1)}


@pytest.mark.parametrize("k,constant", [(1, Fr(2)), (2, Fr(4)), (3, Fr(6))])
def test_formal_variation_proportional(k, constant):
    report = cs.formal_variation(k)
    assert report.proportional
    # the computed constant is reported; 2k is the measured value, pinned
    # here as a regression guard rather than an external requirement
    assert report.constant == constant


def test_formal_variation_rejects_large_k():
    with pytest.raises(cs.FreeAlgebraError):
        cs.formal_variation(4)


# ------------------------------------------------------------------
# rendering
# ------------------------------------------------------------------

def test_render_element_sorted_by_differential_count():
    lines = cs.render_element(cs.chern_simons_lagrangian(2))
    assert lines == ["4/3 w*dw^2", "2 w^3*dw", "4/5 w^5"]


def test_render_k1():
    assert cs.render_element(cs.chern_simons_lagrangian(1)) == ["1 w*dw", "2/3 w^3"]
