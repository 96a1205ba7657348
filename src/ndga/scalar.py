"""Exact symbolic scalars: one ring of expanded trigonometric polynomials.

TrigPoly is the package's only scalar value: a polynomial over coordinates
x1, x2, ... and atoms sin(u), cos(u), each keyed by the polynomial of its
argument u, with sin^2 u = 1 - cos^2 u applied.  An expanded sparse
polynomial is canonical, so == decides equality in the ring, and forms,
depth forms, metrics and curvature all compute on it.

Expressions exist only as parse trees: parse reads the grammar below into
Rat, Var, Sum, Product, Power, Sin and Cos nodes, and normalize expands a
tree, once, into its TrigPoly, refusing any step that holds more than
MAX_TERMS terms.  The module's two functools.lru_cache functions are
normalize and sort_key, the key that orders monomials in rendered text and
trig atoms by their arguments.  render writes a TrigPoly back in the
grammar.  Values are immutable, and every function here is pure, except
that inside work_budget() the ring counts its term products and refuses
work past WORK_BUDGET.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

# Seed for the randomized zero test on trigonometric expressions.  Exposed
# so the CLI can override it (--seed); identical seeds give identical runs.
DEFAULT_ZERO_SEED = 271828182845
ZERO_TOLERANCE = 1e-9
ZERO_SAMPLES = 8

_zero_seed = DEFAULT_ZERO_SEED


def set_zero_seed(seed: int) -> None:
    global _zero_seed
    _zero_seed = seed


class ScalarError(Exception):
    pass


class ParseError(ScalarError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at offset {position}")
        self.position = position


class EvalError(ScalarError):
    pass


# ------------------------------------------------------------------
# parse trees
# ------------------------------------------------------------------
#
# Nodes are frozen dataclasses, compared structurally.  Each computes its
# hash once, from its integer tag and fields, so normalize's cache looks a
# deep tree up in O(1).  The tags are ints, not strings, so hashes do not
# depend on PYTHONHASHSEED.

@dataclass(frozen=True, slots=True)
class Expr:
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        fields = tuple(getattr(self, name) for name in self.__match_args__)
        object.__setattr__(self, "_hash", hash((self._tag,) + fields))

    def __hash__(self):
        return self._hash


@dataclass(frozen=True, slots=True)
class Rat(Expr):
    value: Fraction
    _tag = 0


@dataclass(frozen=True, slots=True)
class Var(Expr):
    index: int
    _tag = 1


@dataclass(frozen=True, slots=True)
class Sin(Expr):
    argument: Expr
    _tag = 2


@dataclass(frozen=True, slots=True)
class Cos(Expr):
    argument: Expr
    _tag = 3


@dataclass(frozen=True, slots=True)
class Power(Expr):
    base: Expr
    exponent: int
    _tag = 4


@dataclass(frozen=True, slots=True)
class Product(Expr):
    factors: tuple
    _tag = 5


@dataclass(frozen=True, slots=True)
class Sum(Expr):
    terms: tuple
    _tag = 6


# a frozen dataclass gets a hash over its fields; the nodes use the cached one
for _node in (Rat, Var, Sin, Cos, Power, Product, Sum):
    _node.__hash__ = Expr.__hash__


# ------------------------------------------------------------------
# expanded polynomials over trigonometric atoms
# ------------------------------------------------------------------
#
# An atom is (VAR, i) for the coordinate x_i, or (SIN, a) or (COS, a) for
# an Arg a; a monomial is a tuple of (atom, exponent) pairs in atom order,
# which is render order: coordinates by index, then sines, then cosines,
# each by the sort key of its argument.  Every sin-exponent is kept at most
# one by rewriting sin^2 u = 1 - cos^2 u, so Pythagorean identities in one
# argument reduce to the zero polynomial.  Coefficients are ints when
# integral, else Fractions: equal values compare and hash alike.  Every
# product runs through one multiply-accumulate kernel, _mul_into, whose
# monomial products come from a memo of at most 8192 entries.  Factors are
# canonical, so a product's sin exponents are at most 2; the memo keeps a
# product that reaches sin^2 with the rewrite expanded, once per pair.

Mono = tuple
VAR, SIN, COS = 1, 2, 3


class Arg:
    """The argument of a trig atom: a nonzero TrigPoly, compared, ordered
    and hashed by its sort key, which is computed once."""

    __slots__ = ("poly", "key", "_hash")

    def __init__(self, poly: "TrigPoly"):
        self.poly = poly
        self.key = _poly_key(poly)
        self._hash = hash(self.key)

    def __eq__(self, other):
        return isinstance(other, Arg) and (self is other or self.key == other.key)

    def __lt__(self, other: "Arg"):
        return self.key < other.key

    def __hash__(self):
        return self._hash


def _coeff(value):
    """An exact rational as an int when it is integral, else as a Fraction."""
    if type(value) is int:
        return value
    value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def _poly(terms: dict) -> "TrigPoly":
    """Wrap a dict that already holds no zero coefficients."""
    p = object.__new__(TrigPoly)
    p.terms = terms
    return p


def _add_term(terms: dict, mono: Mono, coeff) -> None:
    """terms[mono] += coeff for a nonzero coeff, dropping a sum that is 0."""
    if mono not in terms:
        terms[mono] = coeff
        return
    value = terms[mono] + coeff
    if value:
        terms[mono] = value
    else:
        del terms[mono]


class _Rewritten(tuple):
    """The (monomial, +1 or -1) terms of a product with sin^2 u rewritten."""
    __slots__ = ()


@functools.lru_cache(maxsize=8192)
def _mono_product(m1: Mono, m2: Mono):
    """m1 * m2.  Both are canonical, so a sin exponent of the product is at
    most 2; when one reaches 2, the product with each such sin^2 u replaced
    by 1 - cos^2 u, expanded into _Rewritten terms."""
    if not m1 or not m2:
        return m1 or m2
    merged = dict(m1)
    squares = []
    for atom, exp in m2:
        total = merged.get(atom, 0) + exp
        merged[atom] = total
        if total == 2 and atom[0] == SIN:
            squares.append(atom)
            del merged[atom]
    if not squares:
        return tuple(sorted(merged.items()))
    terms = []
    for choice in itertools.product((False, True), repeat=len(squares)):
        exponents = dict(merged)
        for atom in itertools.compress(squares, choice):
            cos_atom = (COS, atom[1])
            exponents[cos_atom] = exponents.get(cos_atom, 0) + 2
        terms.append((tuple(sorted(exponents.items())), -1 if sum(choice) % 2 else 1))
    return _Rewritten(terms)


# Input bounds hold each cell, not the arithmetic on the cells.  Inside
# work_budget() the ring counts term products, len(a) * len(b) per _mul_into
# call (one when a factor is zero, so work on zero entries is not free) and
# one per remainder term riemann.exact_divide scans, and refuses
# with ScalarError, before the work, a call that would pass WORK_BUDGET.
# One term product costs 1-10 us.  Outside the scope work is unbounded.

WORK_BUDGET = 400_000
_work_left = math.inf


def _charge(work: int) -> None:
    """Spend work term products of the budget, or refuse them."""
    global _work_left
    if work > _work_left:
        raise ScalarError(f"work above the budget of {WORK_BUDGET} term products")
    _work_left -= work


@contextlib.contextmanager
def work_budget():
    """Hold the ring's work inside the block to WORK_BUDGET term products.
    normalize's cache is cleared on entry, so a cached expansion is never
    free and a refusal does not depend on earlier calls."""
    global _work_left
    normalize.cache_clear()
    _work_left = WORK_BUDGET
    try:
        yield
    finally:
        _work_left = math.inf


def _mul_into(terms: dict, a: dict, b: dict) -> None:
    """terms += a * b for two term dicts: the ring's one multiply-accumulate."""
    _charge(len(a) * len(b) or 1)
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            coeff = c1 * c2
            mono = _mono_product(m1, m2)
            if type(mono) is _Rewritten:
                for rewritten, sign in mono:
                    _add_term(terms, rewritten, coeff if sign > 0 else -coeff)
                continue
            # _add_term, inlined in the innermost loop of the ring
            value = terms.get(mono)
            if value is None:
                terms[mono] = coeff
            else:
                value += coeff
                if value:
                    terms[mono] = value
                else:
                    del terms[mono]


def as_poly(value) -> "TrigPoly":
    """A TrigPoly as it is, and an int or Fraction as a constant."""
    if isinstance(value, TrigPoly):
        return value
    if isinstance(value, (int, Fraction)):
        return TrigPoly.const(value)
    raise TypeError(f"cannot interpret {value!r} as a scalar")


class TrigPoly:
    """Polynomial over coordinate and sin/cos atoms, kept canonical with
    every sin-exponent at most one and no zero coefficient.  Operations
    return new polynomials and leave their operands unchanged, so equal
    values may share one object.  The arithmetic operators take an int or
    a Fraction on either side as a constant."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        self.terms = {m: _coeff(c) for m, c in terms.items() if c != 0}

    # construction ---------------------------------------------------

    @staticmethod
    def const(value) -> "TrigPoly":
        value = _coeff(value)
        return _poly({(): value} if value else {})

    @staticmethod
    def zero() -> "TrigPoly":
        return _poly({})

    @staticmethod
    def one() -> "TrigPoly":
        return _poly({(): 1})

    @staticmethod
    def atom(atom) -> "TrigPoly":
        return _poly({((atom, 1),): 1})

    @staticmethod
    def var(index: int) -> "TrigPoly":
        return TrigPoly.atom((VAR, index))

    # ring operations -------------------------------------------------

    def __add__(self, other) -> "TrigPoly":
        if type(other) is not TrigPoly:
            other = as_poly(other)
        if not other.terms:
            return self
        if not self.terms:
            return other
        terms = dict(self.terms)
        for mono, coeff in other.terms.items():
            _add_term(terms, mono, coeff)
        return _poly(terms)

    __radd__ = __add__

    def __sub__(self, other) -> "TrigPoly":
        return self + -as_poly(other)

    def __rsub__(self, other) -> "TrigPoly":
        return as_poly(other) + -self

    def scale(self, value) -> "TrigPoly":
        value = _coeff(value)
        if not value:
            return TrigPoly.zero()
        return _poly({m: _coeff(value * c) for m, c in self.terms.items()})

    def __neg__(self) -> "TrigPoly":
        return _poly({m: -c for m, c in self.terms.items()})

    def __mul__(self, other) -> "TrigPoly":
        if type(other) is not TrigPoly:
            other = as_poly(other)
        terms: dict = {}
        _mul_into(terms, self.terms, other.terms)
        return _poly(terms)

    __rmul__ = __mul__

    @staticmethod
    def sum(polys) -> "TrigPoly":
        """The sum of the polynomials, accumulated in one dict; with one
        nonzero addend, that addend."""
        first = terms = None
        for p in polys:
            if not p.terms:
                continue
            if first is None:
                first = p
                continue
            if terms is None:
                terms = dict(first.terms)
            for mono, coeff in p.terms.items():
                _add_term(terms, mono, coeff)
        if terms is None:
            return TrigPoly.zero() if first is None else first
        return _poly(terms)

    @staticmethod
    def dot(pairs) -> "TrigPoly":
        """The sum of a * b over the (a, b) pairs, accumulated in one dict."""
        terms: dict = {}
        for a, b in pairs:
            _mul_into(terms, a.terms, b.terms)
        return _poly(terms)

    def power(self, k: int) -> "TrigPoly":
        return functools.reduce(TrigPoly.__mul__, [self] * k) if k > 0 else TrigPoly.one()

    def is_zero(self) -> bool:
        return not self.terms

    def atoms(self) -> set:
        return {atom for mono in self.terms for atom, _ in mono}

    def variables(self) -> set:
        """Indices of the coordinates the polynomial holds, those inside
        trig arguments included."""
        return set().union(*({payload} if tag == VAR else payload.poly.variables()
                             for tag, payload in self.atoms()))

    def __eq__(self, other):
        if not isinstance(other, TrigPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(tuple(sorted(self.terms.items())))

    # calculus ---------------------------------------------------------

    def diff(self, index: int) -> "TrigPoly":
        """The partial derivative by x_index."""
        terms: dict = {}
        for mono, coeff in self.terms.items():
            for position, (atom, exp) in enumerate(mono):
                tag, payload = atom
                if tag == VAR and payload != index:
                    continue
                lowered = ((atom, exp - 1),) if exp > 1 else ()
                rest = mono[:position] + lowered + mono[position + 1:]
                if tag == VAR:
                    _add_term(terms, rest, coeff * exp)
                    continue
                inner = payload.poly.diff(index)
                if not inner.terms:
                    continue
                partner, sign = (COS, 1) if tag == SIN else (SIN, -1)
                outer = TrigPoly.atom((partner, payload)).scale(sign * coeff * exp)
                _mul_into(terms, {rest: 1}, (outer * inner).terms)
        return _poly(terms)

    def substitute(self, assignment: Mapping[int, "TrigPoly"]) -> "TrigPoly":
        """The polynomial with each coordinate x_i in the assignment
        replaced by its polynomial, inside trig arguments too."""
        images: dict = {}
        pieces = []
        for mono, coeff in self.terms.items():
            value = TrigPoly.const(coeff)
            for atom, exp in mono:
                if atom not in images:
                    tag, payload = atom
                    images[atom] = (assignment.get(payload, TrigPoly.atom(atom)) if tag == VAR
                                    else _trig(tag, payload.poly.substitute(assignment)))
                value = value * images[atom].power(exp)
            pieces.append(value)
        return TrigPoly.sum(pieces)

    def __repr__(self):
        return f"TrigPoly({render(self)})"


def _trig(tag: int, argument: TrigPoly) -> TrigPoly:
    """sin or cos (by tag) of a polynomial: sin(0) = 0 and cos(0) = 1."""
    if not argument.terms:
        return TrigPoly.zero() if tag == SIN else TrigPoly.one()
    return TrigPoly.atom((tag, Arg(argument)))


# ------------------------------------------------------------------
# expansion of parse trees
# ------------------------------------------------------------------

@functools.lru_cache(maxsize=65536)
def normalize(e: Expr) -> TrigPoly:
    """The expansion of a parse tree, computed once per distinct tree.
    Raises ScalarError when a node, a partial product or a partial power
    holds more than MAX_TERMS terms, on a power of a constant past
    MAX_CONSTANT_DIGITS and on a power of a power past MAX_EXPONENT."""
    if isinstance(e, Rat):
        return TrigPoly.const(e.value)
    if isinstance(e, Var):
        return TrigPoly.var(e.index)
    if isinstance(e, Sum):
        total = TrigPoly.sum(map(normalize, e.terms))
        _check_terms(len(total.terms))
        return total
    if isinstance(e, Product):
        return functools.reduce(_bounded_product, map(normalize, e.factors))
    if isinstance(e, Power):
        _check_merged_exponent(e)
        base = normalize(e.base)
        if set(base.terms) <= {()}:
            # a numerator or denominator of b bits raised to the exponent has
            # at least exponent * (b - 1) bits: see MAX_CONSTANT_DIGITS
            value = Fraction(base.terms.get((), 0))
            bits = max(value.numerator.bit_length(), value.denominator.bit_length())
            if e.exponent * (bits - 1) > _MAX_CONSTANT_BITS:
                raise ScalarError(f"constant power above {MAX_CONSTANT_DIGITS} digits")
            return TrigPoly.const(value ** e.exponent)
        return functools.reduce(_bounded_product, [base] * e.exponent, TrigPoly.one())
    if isinstance(e, (Sin, Cos)):
        return _trig(e._tag, normalize(e.argument))
    raise TypeError(type(e))


def _check_terms(count: int) -> None:
    if count > MAX_TERMS:
        raise ScalarError(f"expands to more than {MAX_TERMS} terms")


def _bounded_product(a: TrigPoly, b: TrigPoly) -> TrigPoly:
    """a * b, refused when it holds more than MAX_TERMS terms: before it is
    computed when a and b share no atom, as it then holds len(a) * len(b)."""
    if len(a.terms) * len(b.terms) > MAX_TERMS and a.atoms().isdisjoint(b.atoms()):
        _check_terms(len(a.terms) * len(b.terms))
    product = a * b
    _check_terms(len(product.terms))
    return product


def _check_merged_exponent(e: Power) -> None:
    """Raise when a chain of powers of powers of a non-constant multiplies
    past MAX_EXPONENT; checked before the chain is expanded."""
    merged, base = e.exponent, e.base
    while isinstance(base, Power):
        merged *= base.exponent
        base = base.base
    if merged > MAX_EXPONENT and not set(normalize(base).terms) <= {()}:
        raise ScalarError(f"exponent {merged} is above {MAX_EXPONENT}")


def expand(text: str) -> TrigPoly:
    """The polynomial of an input expression, parsed and expanded once."""
    return normalize(parse(text))


# ------------------------------------------------------------------
# order and rendering
# ------------------------------------------------------------------
#
# Text keeps the order of the expression normal form the package printed
# before it expanded every value: a factor x_i keys as (1, i), sin(u) as
# (2, key of u), cos(u) as (3, key of u), a factor raised to e > 1 as
# (4, its key, e), a product as (5, factor keys), a rational as
# (0, numerator, denominator), a term c*m with c != 1 as a product headed
# by c, and a sum of several terms as (6, term keys).

@functools.lru_cache(maxsize=65536)
def sort_key(mono: Mono) -> tuple:
    """The key that orders a monomial among the terms of a rendered
    polynomial, the constant monomial first as (0,); its factors, in
    atom order, are its rendered order."""
    if not mono:
        return (0,)
    keys = []
    for (tag, payload), exp in mono:
        base = (tag, payload if tag == VAR else payload.key)
        keys.append(base if exp == 1 else (4, base, exp))
    return keys[0] if len(keys) == 1 else (5, tuple(keys))


def _ordered(p: TrigPoly) -> list:
    return sorted(p.terms.items(), key=lambda item: sort_key(item[0]))


def _poly_key(p: TrigPoly) -> tuple:
    """The sort key of the text a nonzero polynomial renders as, the key
    that orders trig atoms by their arguments."""
    keys = []
    for mono, coeff in _ordered(p):
        value = Fraction(coeff)
        head = (0, value.numerator, value.denominator)
        if not mono:
            keys.append(head)
        elif coeff == 1:
            keys.append(sort_key(mono))
        else:
            factors = sort_key(mono)[1] if len(mono) > 1 else (sort_key(mono),)
            keys.append((5, (head,) + factors))
    return keys[0] if len(keys) == 1 else (6, tuple(keys))


def _render_coeff(coeff) -> str:
    try:
        return str(coeff)
    except ValueError:  # past the interpreter's int-to-string limit
        raise ScalarError(f"constant above {MAX_CONSTANT_DIGITS} digits") from None


def _render_term(mono: Mono, coeff) -> str:
    if not mono:
        return _render_coeff(coeff)
    factors = ["" if coeff == 1 else "-" if coeff == -1 else _render_coeff(coeff) + "*"]
    for (tag, payload), exp in mono:
        base = f"x{payload}" if tag == VAR else (
            f"{'sin' if tag == SIN else 'cos'}({render(payload.poly)})")
        factors.append(base if exp == 1 else f"{base}^{exp}")
    return factors[0] + "*".join(factors[1:])


def render(p: TrigPoly) -> str:
    """Text in the grammar that expands back to p: the constant term
    first, then the terms in sort_key order, each later negative term
    written as a subtraction."""
    pieces = []
    for mono, coeff in _ordered(p):
        if pieces:
            pieces.append(" - " if coeff < 0 else " + ")
            coeff = abs(coeff)
        pieces.append(_render_term(mono, coeff))
    return "".join(pieces) or "0"


# ------------------------------------------------------------------
# evaluation and the zero test
# ------------------------------------------------------------------

def evaluate(p: TrigPoly, point: Mapping[int, object]):
    """p at a point: exact for polynomial data at rational coordinates,
    float as soon as sin/cos or a float coordinate is involved.  Raises
    EvalError when a value leaves the float range."""
    total = 0
    try:
        for mono, coeff in p.terms.items():
            term = coeff
            for (tag, payload), exp in mono:
                if tag == VAR:
                    if payload not in point:
                        raise EvalError(f"coordinate x{payload} is unassigned")
                    value = point[payload]
                else:
                    angle = float(evaluate(payload.poly, point))
                    value = math.sin(angle) if tag == SIN else math.cos(angle)
                term = term * value ** exp
            total = total + term
    except OverflowError:
        raise EvalError(f"{render(p)} overflows the float range at a sample point") from None
    return total


# The zero polynomial certifies a zero function, and a nonzero one without
# trig atoms a nonzero function.  Anything else (identities across related
# arguments, such as sin(2u) = 2 sin(u) cos(u)) is sampled, seeded, at
# ZERO_SAMPLES points of [-1,1]^n, each trig atom valued through evaluate.
# A point shows a nonzero function when |sum_m c_m m(p)| >= ZERO_TOLERANCE *
# sum_m |c_m m(p)| over the monomials m; the bound is relative, so small
# coefficients do not pass for zero.

def is_zero(p: TrigPoly, seed: int | None = None) -> bool:
    """True iff p is identically zero.  Exact for polynomials and for trig
    polynomials that reduce to zero; otherwise probabilistic (seeded
    sampling)."""
    if not p.terms:
        return True
    atoms = p.atoms()
    if all(tag == VAR for tag, _ in atoms):
        return False
    # the test is scale-invariant; dividing by the largest coefficient keeps
    # huge rationals inside the float range
    largest = max(abs(c) for c in p.terms.values())
    weighted = [(mono, float(Fraction(c) / largest)) for mono, c in p.terms.items()]
    rng = random.Random(_zero_seed if seed is None else seed)
    names = sorted(p.variables())
    for _ in range(ZERO_SAMPLES):
        point = {i: rng.uniform(-1.0, 1.0) for i in names}
        values = {atom: point[atom[1]] if atom[0] == VAR
                  else float(evaluate(TrigPoly.atom(atom), point)) for atom in atoms}
        total = size = 0.0
        for mono, term in weighted:
            for atom, exp in mono:
                term *= values[atom] ** exp
            total += term
            size += abs(term)
        if size and abs(total) >= ZERO_TOLERANCE * size:
            return False
    return True


# ------------------------------------------------------------------
# parser
# ------------------------------------------------------------------
#
# expr   := ['+'|'-'] term (('+'|'-') term)*
# term   := factor ('*' factor)*
# factor := base ('^' nonneg-integer)?
# base   := rational | 'x' positive-integer | 'sin(' expr ')'
#         | 'cos(' expr ')' | '(' expr ')'
# rational := integer ('/' positive-integer)?
#
# The optional leading sign lets data files hold entries such as "-x1";
# whitespace is insignificant.  Parentheses, sin( and cos( nest at most
# MAX_NESTING deep, inside the recursion limit.  An integer literal has at
# most MAX_DIGITS digits, below the 4300-digit limit on int conversion.  A
# written exponent, and the one a power of a non-constant power merges, is
# at most MAX_EXPONENT: (x2 + 1)^512 already holds 513 terms, while
# constants such as 10^400 stay writable.  normalize holds every node,
# partial product and partial power of an expansion to MAX_TERMS terms.  A
# power of a constant surely past MAX_CONSTANT_DIGITS digits, the limit on
# int-to-string conversion, is refused before it is computed:
# ((10^512)^512)^64 has 16.8 million digits.

MAX_NESTING = 100
MAX_DIGITS = 1000
MAX_EXPONENT = 512
MAX_TERMS = 1000
MAX_CONSTANT_DIGITS = 4300
_MAX_CONSTANT_BITS = int(MAX_CONSTANT_DIGITS / math.log10(2))
_MINUS_ONE = Rat(Fraction(-1))


class _Parser:
    def __init__(self, text: str):
        self.text, self.pos, self.depth = text, 0, 0

    def error(self, message: str):
        raise ParseError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, char: str):
        if self.peek() != char:
            self.error(f"expected '{char}'")
        self.pos += 1

    def parse(self) -> Expr:
        e = self.parse_expr()
        if self.peek():
            self.error(f"unexpected character {self.text[self.pos]!r}")
        return e

    def parse_expr(self) -> Expr:
        terms, sign = [], "+"
        if self.peek() in ("+", "-"):
            # a sign followed by a digit belongs to the signed rational
            # literal in `base`
            save = self.pos
            self.pos += 1
            if self.peek().isdigit():
                self.pos = save
            else:
                sign = self.text[save]
        while True:
            term = self.parse_term()
            terms.append(Product((_MINUS_ONE, term)) if sign == "-" else term)
            sign = self.peek()
            if sign not in ("+", "-"):
                return terms[0] if len(terms) == 1 else Sum(tuple(terms))
            self.pos += 1

    def parse_term(self) -> Expr:
        factors = [self.parse_factor()]
        while self.peek() == "*":
            self.pos += 1
            factors.append(self.parse_factor())
        return factors[0] if len(factors) == 1 else Product(tuple(factors))

    def parse_factor(self) -> Expr:
        base = self.parse_base()
        if self.peek() == "^":
            self.pos += 1
            start = self.pos
            exponent = self.parse_integer(allow_sign=False)
            if exponent > MAX_EXPONENT:
                self.pos = start
                self.error(f"exponent above {MAX_EXPONENT}")
            return Power(base, exponent)
        return base

    def parse_nested(self) -> Expr:
        """The expression inside an opening parenthesis, and the ')'."""
        if self.depth == MAX_NESTING:
            self.error(f"parentheses nested deeper than {MAX_NESTING}")
        self.depth += 1
        inner = self.parse_expr()
        self.expect(")")
        self.depth -= 1
        return inner

    def parse_base(self) -> Expr:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            return self.parse_nested()
        if ch.isalpha():
            start = self.pos
            while self.pos < len(self.text) and self.text[self.pos].isalpha():
                self.pos += 1
            name = self.text[start:self.pos]
            if name == "x":
                index = self.parse_integer(allow_sign=False)
                if index < 1:
                    self.pos = start
                    self.error("coordinate index must be positive")
                return Var(index)
            if name in ("sin", "cos"):
                self.expect("(")
                inner = self.parse_nested()
                return Sin(inner) if name == "sin" else Cos(inner)
            self.pos = start
            self.error(f"unknown identifier '{name}'")
        if ch.isdigit() or ch in ("+", "-"):
            return self.parse_rational()
        self.error("expected an expression")

    def parse_integer(self, allow_sign: bool) -> int:
        self.skip_ws()
        start = self.pos
        if allow_sign and self.pos < len(self.text) and self.text[self.pos] in "+-":
            self.pos += 1
        if self.pos >= len(self.text) or not self.text[self.pos].isdigit():
            self.pos = start
            self.error("expected an integer")
        digits = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos - digits > MAX_DIGITS:
            self.pos = start
            self.error(f"integer longer than {MAX_DIGITS} digits")
        return int(self.text[start:self.pos])

    def parse_rational(self) -> Rat:
        numerator, denominator = self.parse_integer(allow_sign=True), 1
        if self.peek() == "/":
            self.pos += 1
            denominator = self.parse_integer(allow_sign=False)
            if denominator == 0:
                self.error("zero denominator")
        return Rat(Fraction(numerator, denominator))


def parse(text: str) -> Expr:
    """Parse an expression into its tree; normalize expands it."""
    return _Parser(text).parse()
