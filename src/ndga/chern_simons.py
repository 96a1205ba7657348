"""Free-algebra machinery for generalized Chern-Simons Lagrangians.

Elements live in the free algebra on four graded letters:

    a  (degree 1)   the connection symbol
    da (degree 2)   its differential
    h  (degree 1)   a variation symbol
    dh (degree 2)   the variation's differential

A cyclic trace functional is modeled by the quotient under graded cyclic
rotation; exactness is modeled by the image of the letterwise differential.
All coefficients are exact rationals.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Tuple

from . import linalg

Word = Tuple[str, ...]
FreeElement = Dict[Word, Fraction]

LETTER_DEGREE = {"a": 1, "da": 2, "h": 1, "dh": 2}
LETTER_ORDER = {"a": 0, "da": 1, "h": 2, "dh": 3}
LETTER_D = {"a": "da", "h": "dh"}


class FreeAlgebraError(Exception):
    pass


def degree(word: Word) -> int:
    return sum(LETTER_DEGREE[letter] for letter in word)


def _add_term(element: FreeElement, word: Word, coefficient: Fraction) -> None:
    value = element.get(word, Fraction(0)) + coefficient
    if value == 0:
        element.pop(word, None)
    else:
        element[word] = value


def add(a: FreeElement, b: FreeElement) -> FreeElement:
    out = dict(a)
    for word, c in b.items():
        _add_term(out, word, c)
    return out


def scale(c, a: FreeElement) -> FreeElement:
    c = Fraction(c)
    if c == 0:
        return {}
    return {word: c * coeff for word, coeff in a.items()}


def multiply(a: FreeElement, b: FreeElement) -> FreeElement:
    out: FreeElement = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            _add_term(out, wa + wb, ca * cb)
    return out


def _curvature_power(k: int) -> FreeElement:
    """The fully expanded word sum of (da + a a)^k."""
    binomial = {("da",): Fraction(1), ("a", "a"): Fraction(1)}
    return functools.reduce(multiply, [binomial] * k, {(): Fraction(1)})


def expand_power(k: int) -> FreeElement:
    """The fully expanded word sum of a (da + a a)^k; every word has total
    degree 2k + 1."""
    if k < 1:
        raise FreeAlgebraError("k must be at least 1")
    return multiply({("a",): Fraction(1)}, _curvature_power(k))


def sharp_inverse(element: FreeElement) -> FreeElement:
    """Divide each word's coefficient by its letter count (the inverse of
    the letter-count-grading map)."""
    out: FreeElement = {}
    for word, coeff in element.items():
        if not word:
            raise FreeAlgebraError("the empty word has no letter-count inverse")
        out[word] = Fraction(coeff, len(word))
    return out


def _word_key(word: Word):
    return tuple(LETTER_ORDER[letter] for letter in word)


def _rotation_class(word: Word):
    """Least graded-cyclic rotation of a word with the sign carrying the
    original word onto it, or None when the class is killed by its own
    rotations (w = -w)."""
    if not word:
        return word, 1
    total = degree(word)
    seen = {}
    current = word
    sign = 1
    best_word, best_sign = word, 1
    for _ in range(len(word)):
        if current in seen:
            if seen[current] != sign:
                return None
            break
        seen[current] = sign
        if _word_key(current) < _word_key(best_word):
            best_word, best_sign = current, sign
        first = current[0]
        d = LETTER_DEGREE[first]
        sign *= -1 if (d * (total - d)) % 2 else 1
        current = current[1:] + (first,)
    return best_word, best_sign


def cyclic_normal_form(element: FreeElement) -> FreeElement:
    """Project onto canonical representatives of graded cyclic classes.
    Idempotent and linear; words equal to minus a rotation of themselves
    are sent to zero."""
    out: FreeElement = {}
    for word, coeff in element.items():
        cls = _rotation_class(word)
        if cls is None:
            continue
        representative, sign = cls
        _add_term(out, representative, coeff * sign)
    return out


def collect_central_differentials(element: FreeElement) -> FreeElement:
    """Collect words that differ only by the position of their degree-2
    letters.  Moving an even-degree letter past any letter carries Koszul
    sign +1, so each word maps with sign +1 to the word listing its odd
    letters first (in order) followed by its even letters (in order).
    This is the normal form used by the printed Lagrangian tables, where
    the trace treats even-degree factors as central."""
    out: FreeElement = {}
    for word, coeff in element.items():
        odd = tuple(letter for letter in word if LETTER_DEGREE[letter] % 2)
        even = tuple(letter for letter in word if not LETTER_DEGREE[letter] % 2)
        _add_term(out, odd + even, coeff)
    return out


def strict_lagrangian(k: int) -> FreeElement:
    """2k * cyclic(#^-1(a (da + a^2)^k)) in the free graded-cyclic
    quotient, with no further collection."""
    return scale(2 * k, cyclic_normal_form(sharp_inverse(expand_power(k))))


def chern_simons_lagrangian(k: int) -> FreeElement:
    """The degree-(2k+1) Lagrangian with exact rational coefficients,
    presented on the k+1 collected classes a^(2j+1) (da)^(k-j)."""
    return collect_central_differentials(strict_lagrangian(k))


def free_d(element: FreeElement) -> FreeElement:
    """Letterwise graded differential: d(a) = da, d(h) = dh, d(da) = d(dh) = 0,
    extended by the graded Leibniz rule.  Squares to zero."""
    out: FreeElement = {}
    for word, coeff in element.items():
        sign = 1
        for position, letter in enumerate(word):
            image = LETTER_D.get(letter)
            if image is not None:
                new_word = word[:position] + (image,) + word[position + 1:]
                _add_term(out, new_word, coeff * sign)
            sign *= -1 if LETTER_DEGREE[letter] % 2 else 1
    return out


def variation_linear_part(element: FreeElement) -> FreeElement:
    """Substitute a -> a + h, da -> da + dh and keep the part linear in the
    variation letters."""
    out: FreeElement = {}
    substitution = {"a": "h", "da": "dh"}
    for word, coeff in element.items():
        for position, letter in enumerate(word):
            image = substitution.get(letter)
            if image is not None:
                new_word = word[:position] + (image,) + word[position + 1:]
                _add_term(out, new_word, coeff)
    return out


def _h_linear_words(total_degree: int):
    """All words with exactly one variation letter and the given degree."""
    letters = ("a", "da", "h", "dh")
    results = []

    def extend(word, deg, h_count):
        if deg == total_degree:
            if h_count == 1:
                results.append(word)
            return
        for letter in letters:
            d = LETTER_DEGREE[letter]
            nh = h_count + (1 if letter in ("h", "dh") else 0)
            if deg + d <= total_degree and nh <= 1:
                extend(word + (letter,), deg + d, nh)

    extend((), 0, 0)
    return results


@dataclass(frozen=True)
class VariationReport:
    variation: FreeElement
    target: FreeElement
    proportional: bool
    constant: Fraction | None


def formal_variation(k: int) -> VariationReport:
    """Variation of the degree-(2k+1) Lagrangian: substitute a -> a + t h,
    take the t-linear part, and reduce modulo graded cyclic relations and
    the differentials of degree-2k words.  Reports whether the residue is a
    nonzero rational multiple of the class of h (da + a^2)^k, and which."""
    if k < 1 or k > 3:
        raise FreeAlgebraError("formal variation supported for k in {1, 2, 3}")
    lagrangian = strict_lagrangian(k)
    variation = cyclic_normal_form(variation_linear_part(lagrangian))
    target = cyclic_normal_form(multiply({("h",): Fraction(1)}, _curvature_power(k)))

    relations = []
    for word in _h_linear_words(2 * k):
        relation = cyclic_normal_form(free_d({word: Fraction(1)}))
        if relation:
            relations.append(relation)

    # each element is a sparse vector over the words, as linalg reads one
    if linalg.in_span(relations, target):
        return VariationReport(variation, target, False, None)
    coeffs = linalg.solve_combination(relations + [target], variation)
    if coeffs is None:
        return VariationReport(variation, target, False, None)
    constant = coeffs[-1]
    if constant == 0:
        return VariationReport(variation, target, False, None)
    return VariationReport(variation, target, True, constant)


# ------------------------------------------------------------------
# rendering
# ------------------------------------------------------------------

_PRINT = {"a": "w", "da": "dw", "h": "e", "dh": "de"}


def render_word(word: Word) -> str:
    if not word:
        return "1"
    groups = []
    for letter in word:
        if groups and groups[-1][0] == letter:
            groups[-1][1] += 1
        else:
            groups.append([letter, 1])
    return "*".join(
        _PRINT[letter] if count == 1 else f"{_PRINT[letter]}^{count}"
        for letter, count in groups
    )


def render_element(element: FreeElement) -> list:
    """One line per word: '<coefficient> <word>', sorted by number of
    differential letters descending, then by word order."""
    def sort_key(item):
        word, _ = item
        d_count = sum(1 for letter in word if letter in ("da", "dh"))
        return (-d_count, _word_key(word))

    return [
        f"{coeff} {render_word(word)}"
        for word, coeff in sorted(element.items(), key=sort_key)
    ]
