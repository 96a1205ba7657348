"""Differential forms of bounded depth.

For a profile (N_1, ..., N_k) with every N_i >= 2, the algebra is generated
over the scalar ring by higher differentials d^a x_i of degree a,
1 <= a <= N_i - 1, subject to: any two generators of the same variable
multiply to zero, and generators of distinct variables commute up to the
sign (-1)^(a b) of their degrees.  The differential raises depth by one and
kills d^(N_i - 1) x_i; it restricts to the de Rham differential on the
all-twos profile.

The algebra is the Koszul-signed tensor product of its one-variable
factors, whose differentials are exactly N_i-nilpotent, so d has the exact
order obtained by folding the two-factor rule a + b - 1 (a + b - 2 when a
and b are both even) over the profile: (3, 2) -> 4, (4, 4, 4) -> 6 -> 8.
That is the tensor bound sum(N_i) - len(profile) + 1 less 1 for each even
N_i after the first even one.  nilpotency reads it off; minimal_nilpotency
measures it by brute force on a probe set.

The sign (-1)^(sum of d_i d_j over inverted pairs) is the shuffle sign of
the odd-depth positions, from forms._shuffle_sign, which signs de Rham
forms too; tests/test_depth.py checks the all-twos profile against
forms.exterior_d and forms.wedge.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Dict, Iterable, Mapping, Tuple

from . import forms, linalg, ncomplex, scalar, textfile
from .scalar import TrigPoly

Profile = Tuple[int, ...]
DepthIndex = Tuple[Tuple[int, int], ...]  # ((position, depth), ...) by position

# largest generator count sum(N_i - 1) a sign table is printed for: 200
# generators make 40,000 rows
MAX_GENERATORS = 200


class DepthFormError(Exception):
    pass


def check_profile(profile: Iterable[int]) -> Profile:
    profile = tuple(int(n) for n in profile)
    if not profile or any(n < 2 for n in profile):
        raise DepthFormError("profile entries must be integers >= 2")
    return profile


def make_index(depths: Mapping[int, int], profile: Profile) -> DepthIndex:
    index = tuple(sorted(depths.items()))
    validate_index(index, profile)
    return index


def validate_index(index: DepthIndex, profile: Profile) -> None:
    positions = [p for p, _ in index]
    if positions != sorted(set(positions)):
        raise DepthFormError(f"index positions must be strictly increasing: {index}")
    for position, depth in index:
        if not 1 <= position <= len(profile):
            raise DepthFormError(f"position {textfile.quote(str(position))} "
                                 f"outside profile of length {len(profile)}")
        if not 1 <= depth <= profile[position - 1] - 1:
            raise DepthFormError(
                f"depth {textfile.quote(str(depth))} at position {position} "
                f"is outside 1..{profile[position - 1] - 1}"
            )


def index_degree(index: DepthIndex) -> int:
    return sum(depth for _, depth in index)


def _positions(index: DepthIndex):
    """The set of positions of an index, and the list of those of odd depth."""
    return {p for p, _ in index}, [p for p, d in index if d % 2]


class DepthForm:
    """Finite sum of coefficient * basis monomial, coefficients in the
    scalar ring (TrigPoly; an int or Fraction is taken as a constant).
    Coefficients are canonical, so a form with polynomial coefficients is
    zero exactly when it holds no term.  Immutable by convention."""

    __slots__ = ("profile", "_terms")

    def __init__(self, profile, terms: Mapping[DepthIndex, object]):
        self.profile = check_profile(profile)
        collected: Dict[DepthIndex, TrigPoly] = {}
        for index, coefficient in terms.items():
            index = tuple(tuple(pair) for pair in index)
            validate_index(index, self.profile)
            value = scalar.as_poly(coefficient)
            if value.terms:
                collected[index] = value
        self._terms = collected

    def terms(self):
        return sorted(self._terms.items())

    def degrees(self):
        return sorted({index_degree(i) for i in self._terms})

    def is_structurally_zero(self) -> bool:
        return not self._terms

    def is_zero(self) -> bool:
        """No term, or only coefficients that scalar.is_zero finds zero:
        exact on polynomials, sampled on identities across related trig
        arguments such as sin(2u) = 2 sin(u) cos(u)."""
        return all(scalar.is_zero(c) for c in self._terms.values())

    def __eq__(self, other):
        if not isinstance(other, DepthForm):
            return NotImplemented
        return self.profile == other.profile and self._terms == other._terms

    def __hash__(self):
        return hash((self.profile, tuple(sorted(self._terms.items(), key=lambda t: t[0]))))

    def __repr__(self):
        return f"DepthForm({render_form(self)!r})"

    def _check(self, other: "DepthForm"):
        if self.profile != other.profile:
            raise DepthFormError("profile mismatch")

    def __add__(self, other: "DepthForm") -> "DepthForm":
        self._check(other)
        terms = dict(self._terms)
        for index, coefficient in other._terms.items():
            terms[index] = terms[index] + coefficient if index in terms else coefficient
        return DepthForm(self.profile, terms)

    def __sub__(self, other: "DepthForm") -> "DepthForm":
        return self + other.scale(-1)

    def scale(self, value) -> "DepthForm":
        value = scalar.as_poly(value)
        return DepthForm(self.profile, {i: value * c for i, c in self._terms.items()})

    def __neg__(self) -> "DepthForm":
        return self.scale(-1)


def zero(profile) -> DepthForm:
    return DepthForm(profile, {})


def function(profile, coefficient) -> DepthForm:
    return DepthForm(profile, {(): coefficient})


def generator(profile, position: int, depth: int = 1) -> DepthForm:
    return DepthForm(profile, {((position, depth),): 1})


def monomial(profile, coefficient, depths: Mapping[int, int]) -> DepthForm:
    profile = check_profile(profile)
    return DepthForm(profile, {make_index(depths, profile): coefficient})


def multiply(a: DepthForm, b: DepthForm) -> DepthForm:
    """Bilinear product; monomials with a shared variable vanish, disjoint
    ones merge with the shuffle sign of their odd-depth positions."""
    a._check(b)
    right = [(ib, cb, *_positions(ib)) for ib, cb in b._terms.items()]
    pairs: Dict[DepthIndex, list] = {}
    for ia, ca in a._terms.items():
        held, odd = _positions(ia)
        for ib, cb, held_right, odd_right in right:
            if held.isdisjoint(held_right):
                signed = ca if forms._shuffle_sign(odd, odd_right) > 0 else -ca
                pairs.setdefault(tuple(sorted(ia + ib)), []).append((signed, cb))
    return DepthForm(a.profile, {index: TrigPoly.dot(p) for index, p in pairs.items()})


def differential(a: DepthForm) -> DepthForm:
    """d(c dx^I) = sum_s dc/dx_s dx_s ^ dx^I
    + sum_{s in D(I)} (-1)^(depth before s) c dx^(I + e_s),
    with raises beyond the depth bound dropped.  Both terms at s carry the
    shuffle sign of s past the odd depths before it."""
    profile = a.profile
    addends: Dict[DepthIndex, list] = {}
    for index, coefficient in a._terms.items():
        depths = dict(index)
        odd = [p for p, d in index if d % 2]
        for s, bound in enumerate(profile, start=1):
            depth = depths.get(s)
            if depth is None:
                value = coefficient.diff(s)
                if not value.terms:
                    continue
                new_index = tuple(sorted(index + ((s, 1),)))
            elif depth + 1 < bound:
                value = coefficient
                new_index = tuple((p, d + 1 if p == s else d) for p, d in index)
            else:
                continue
            signed = value if forms._shuffle_sign((s,), odd) > 0 else -value
            addends.setdefault(new_index, []).append(signed)
    return DepthForm(profile, {i: TrigPoly.sum(v) for i, v in addends.items()})


def d_power(a: DepthForm, m: int) -> DepthForm:
    if m < 1:
        raise DepthFormError("power must be at least 1")
    out = a
    for _ in range(m):
        out = differential(out)
    return out


def all_indices(profile) -> list:
    """Every admissible basis monomial index for the profile."""
    profile = check_profile(profile)
    choices = []
    for position, bound in enumerate(profile, start=1):
        choices.append([None] + [(position, depth) for depth in range(1, bound)])
    indices = []
    for combo in product(*choices):
        indices.append(tuple(pair for pair in combo if pair is not None))
    return indices


def probe_set(profile) -> list:
    """Monomials x^e dx^I with exponents up to 2 per variable and every
    admissible index; d is coefficient-linear and degree-homogeneous, so
    nilpotency on this set is nilpotency everywhere."""
    profile = check_profile(profile)
    k = len(profile)
    probes = []
    for exponents in product(range(3), repeat=k):
        coefficient = TrigPoly.one()
        for i, e in enumerate(exponents):
            coefficient = coefficient * TrigPoly.var(i + 1).power(e)
        for index in all_indices(profile):
            probes.append(DepthForm(profile, {index: coefficient}))
    return probes


def nilpotency_bound(profile) -> int:
    """Tensor bound sum(N_i) - len(profile) + 1: one-variable factors are
    exactly N_i-nilpotent and the graded tensor of an a-nilpotent and a
    b-nilpotent differential is (a + b - 1)-nilpotent.  The exact order,
    nilpotency(profile), is 1 lower for each even N_i after the first even
    one."""
    profile = check_profile(profile)
    return sum(profile) - len(profile) + 1


def nilpotency(profile) -> int:
    """The exact nilpotency of d: ncomplex.koszul_nilpotency folded over
    the one-variable orders, e.g. (4, 4, 4) -> 6 -> 8."""
    return functools.reduce(ncomplex.koszul_nilpotency, check_profile(profile))


def minimal_nilpotency(profile) -> int:
    """Least m with d^m = 0 on the probe set; certified <= the tensor bound.
    The brute-force oracle for nilpotency(profile)."""
    profile = check_profile(profile)
    if sum(profile) > 12:
        raise DepthFormError("profile budget exceeded (sum of depths at most 12)")
    bound = nilpotency_bound(profile)
    forms = [p for p in probe_set(profile) if not p.is_structurally_zero()]
    m = 0
    while forms:
        if m >= bound:
            raise DepthFormError(
                f"nilpotency exceeded the tensor bound {bound} on profile {profile}"
            )
        forms = [differential(f) for f in forms]
        forms = [f for f in forms if not f.is_zero()]
        m += 1
    return max(m, 1)


# ------------------------------------------------------------------
# affine pullbacks
# ------------------------------------------------------------------

@dataclass(frozen=True)
class AffineMap:
    """x -> A x + b with A an invertible rational matrix, held dense."""

    matrix: tuple
    offset: tuple

    def __post_init__(self):
        matrix = tuple(tuple(Fraction(x) for x in row) for row in self.matrix)
        k = len(matrix)
        if any(len(row) != k for row in matrix):
            raise DepthFormError("affine matrix must be square")
        offset = tuple(Fraction(b) for b in self.offset)
        if len(offset) != k:
            raise DepthFormError("offset length must match the matrix")
        if linalg.rank(linalg.to_rows(matrix)) < k:
            raise DepthFormError("affine map must be invertible")
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "offset", offset)

    @property
    def dim(self) -> int:
        return len(self.matrix)

    def component(self, i: int) -> TrigPoly:
        """The polynomial of coordinate i of A x + b."""
        total = TrigPoly.const(self.offset[i - 1])
        for j in range(1, self.dim + 1):
            total = total + TrigPoly.var(j).scale(self.matrix[i - 1][j - 1])
        return total

    def compose(self, inner: "AffineMap") -> "AffineMap":
        """The map x -> self(inner(x))."""
        if self.dim != inner.dim:
            raise DepthFormError("dimension mismatch in composition")
        columns = tuple(zip(*inner.matrix))
        matrix = tuple(tuple(sum(x * y for x, y in zip(row, column)) for column in columns)
                       for row in self.matrix)
        offset = tuple(
            sum((self.matrix[i][j] * inner.offset[j] for j in range(self.dim)), Fraction(0))
            + self.offset[i]
            for i in range(self.dim)
        )
        return AffineMap(matrix, offset)


def identity_map(k: int) -> AffineMap:
    return AffineMap(tuple(tuple(int(i == j) for j in range(k)) for i in range(k)), (0,) * k)


def affine_pullback(f: AffineMap, a: DepthForm) -> DepthForm:
    """Pullback along an affine map on a uniform profile: coefficients are
    composed with the map and generators transform linearly,
    d^m x_i -> sum_j A_ij d^m x_j.

    On the all-twos profile this is an algebra map commuting with d for
    every invertible matrix.  For depth >= 3 the same-variable relations
    d^a x_i d^b x_i = 0 are preserved only by monomial matrices (one
    nonzero entry per row), so multiplicativity, d-commutation, and
    functoriality require the matrix to be monomial; witness
    d(x_1 d^2 x_1) = 0 while its pullback under a coordinate-mixing map
    has nonzero differential.  The linear map itself is well defined for
    any invertible matrix."""
    profile = a.profile
    if len(set(profile)) > 1:
        raise DepthFormError("pullback requires a uniform profile")
    if f.dim != len(profile):
        raise DepthFormError("map dimension must match the profile length")
    substitution = {i: f.component(i) for i in range(1, f.dim + 1)}
    out = zero(profile)
    for index, coefficient in a._terms.items():
        pulled = function(profile, coefficient.substitute(substitution))
        for position, depth in index:
            row = f.matrix[position - 1]
            spread = DepthForm(
                profile, {((j + 1, depth),): row[j] for j in range(f.dim) if row[j] != 0}
            )
            pulled = multiply(pulled, spread)
        out = out + pulled
    return out


def chart_compatible(alpha_u: DepthForm, alpha_v: DepthForm, transition: AffineMap) -> bool:
    """True iff pulling alpha_v back along the transition map gives
    alpha_u, coefficientwise up to the zero test."""
    alpha_u._check(alpha_v)
    return (affine_pullback(transition, alpha_v) - alpha_u).is_zero()


# ------------------------------------------------------------------
# parsing and rendering
# ------------------------------------------------------------------

_GENERATOR = re.compile(r"^d([0-9]*)x([0-9]+)$")


def _split_top_level(text: str, separators: str) -> list:
    """(piece, separator) pairs of text split at separators outside
    parentheses; a '+' or '-' that opens a term or follows '*' is a sign,
    kept with the piece it opens."""
    parts = []
    depth = 0
    current = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if depth == 0 and ch in separators and (
                ch not in "+-" or "".join(current).strip()[-1:] not in ("", "*")):
            parts.append(("".join(current), ch))
            current = []
        else:
            current.append(ch)
    parts.append(("".join(current), ""))
    return parts


def parse_form(text: str, profile) -> DepthForm:
    """Parse sums of monomials like '-dx1*d2x2 + 2*x1^2*dx2', each factor
    with an optional leading sign; factors matching d<j>x<i> are
    generators, everything else goes through the scalar grammar.  The
    terms are summed in one dict, by index."""
    profile = check_profile(profile)
    terms: Dict[DepthIndex, list] = {}
    sign = 1
    for chunk, separator in _split_top_level(text, "+-"):
        chunk = chunk.strip()
        if not chunk:
            raise DepthFormError("empty term")
        index, coefficient = _parse_monomial(chunk, profile, sign)
        if index is not None:
            terms.setdefault(index, []).append(coefficient)
        sign = -1 if separator == "-" else 1
    return DepthForm(profile, {index: TrigPoly.sum(c) for index, c in terms.items()})


def _parse_monomial(text: str, profile: Profile, sign: int):
    """(index, signed coefficient) of one monomial, or (None, None) when two
    of its generators share a variable, so that it is zero.  Each generator
    is validated, in order, after the coefficient is read.  The Koszul sign
    is -1 to the number of inverted pairs of odd-depth generators."""
    scalar_parts = []
    generators = []
    for piece, _ in _split_top_level(text, "*"):
        piece = piece.strip()
        if piece.startswith(("+", "-")):
            sign, piece = -sign if piece[0] == "-" else sign, piece[1:].strip()
        if not piece:
            raise DepthFormError(f"empty factor in {textfile.quote(text)}")
        match = _GENERATOR.match(piece)
        if match:
            if max(map(len, match.groups())) > scalar.MAX_DIGITS:
                raise DepthFormError(f"bad generator {textfile.quote(piece)}: "
                                     f"integer longer than {scalar.MAX_DIGITS} digits")
            depth = int(match.group(1)) if match.group(1) else 1
            position = int(match.group(2))
            generators.append((position, depth))
        else:
            scalar_parts.append(piece)
    coefficient = TrigPoly.one()
    if scalar_parts:
        try:
            coefficient = scalar.expand("*".join(scalar_parts))
        except scalar.ScalarError as err:
            raise DepthFormError(f"bad coefficient in {textfile.quote(text)}: {err}")
    for generator_index in generators:
        validate_index((generator_index,), profile)
    if len({position for position, _ in generators}) < len(generators):
        return None, None
    odd = [position for position, depth in generators if depth % 2]
    if sum(a > b for a, b in combinations(odd, 2)) % 2:
        sign = -sign
    return tuple(sorted(generators)), coefficient.scale(sign)


def render_index(index: DepthIndex) -> str:
    if not index:
        return "1"
    return "*".join(
        f"dx{position}" if depth == 1 else f"d{depth}x{position}"
        for position, depth in index
    )


def render_form(form: DepthForm) -> str:
    """Text that parse_form reads back as the form; as in scalar.render, a
    later term that starts with '-' is written as a subtraction."""
    pieces = []
    for index, coefficient in form.terms():
        text = scalar.render(coefficient)
        if len(coefficient.terms) > 1:
            text = f"({text})"
        if index:
            body = render_index(index)
            text = {"1": body, "-1": "-" + body}.get(text, f"{text}*{body}")
        if pieces:
            text = f" - {text[1:]}" if text.startswith("-") else f" + {text}"
        pieces.append(text)
    return "".join(pieces) or "0"


def sign_table(profile) -> list:
    """Rows (g, g', 'value') for every ordered generator pair: '0' on a
    shared variable, else the sign of their product."""
    profile = check_profile(profile)
    count = sum(bound - 1 for bound in profile)
    if count > MAX_GENERATORS:
        raise DepthFormError(f"sign table of {count} generators is above {MAX_GENERATORS}")
    generators = [((position, depth),) for position, bound in enumerate(profile, start=1)
                  for depth in range(1, bound)]
    shapes = [(render_index(g), *_positions(g)) for g in generators]
    rows = []
    for label1, held1, odd1 in shapes:
        for label2, held2, odd2 in shapes:
            value = ("0" if not held1.isdisjoint(held2)
                     else "+" if forms._shuffle_sign(odd1, odd2) > 0 else "-")
            rows.append((label1, label2, value))
    return rows
