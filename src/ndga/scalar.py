"""Exact symbolic scalars: expressions and their expanded polynomials.

Expressions (Expr) are trees over rational constants, coordinates x1, x2,
..., sums, products, non-negative integer powers, sin and cos.  The
operator set is closed under partial differentiation, so derivatives never
leave the type.  Expressions are what the package parses and renders.

TrigPoly is the expanded form: a polynomial over coordinate and sin/cos
atoms with sin^2 = 1 - cos^2 applied.  It is the entry type of
forms.MatrixForm and the numerator type of the riemann quotients, so form
and curvature arithmetic runs on polynomial dicts; is_zero decides both
kinds of value with one test.

Values are immutable; every function here is pure.  Each expression node
computes its hash once, when it is built, so cache and dict lookups on
deep trees cost O(1).  normalize, diff and negate build rational nodes
through one bounded shared constructor, so equal coefficients are one
node, and a normalized sum reuses each term that has no like term.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, Union

Number = Union[int, Fraction, float]

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


class Expr:
    """Base node.  Subclasses are frozen dataclasses, hashable and compared
    structurally.  Each node computes its hash once, from its type tag and
    fields, and keeps it in the `_hash` slot, so hashing a tree costs O(1)
    however deep it is."""

    __slots__ = ()

    def __hash__(self):
        return self._hash

    def __add__(self, other):
        return add(self, as_expr(other))

    def __radd__(self, other):
        return add(as_expr(other), self)

    def __sub__(self, other):
        return add(self, negate(as_expr(other)))

    def __rsub__(self, other):
        return add(as_expr(other), negate(self))

    def __mul__(self, other):
        return mul(self, as_expr(other))

    def __rmul__(self, other):
        return mul(as_expr(other), self)

    def __pow__(self, exponent: int):
        return pow_(self, exponent)

    def __neg__(self):
        return negate(self)

    def __str__(self):
        return render(self)


# The integer tags in the cached hashes are the sort_key tags.  They are
# ints, not strings, so hashes and set orders do not depend on PYTHONHASHSEED.

@dataclass(frozen=True, slots=True)
class Rat(Expr):
    value: Fraction
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.value, Fraction):
            object.__setattr__(self, "value", Fraction(self.value))
        object.__setattr__(self, "_hash", hash((0, self.value)))

    __hash__ = Expr.__hash__


@dataclass(frozen=True, slots=True)
class Var(Expr):
    index: int
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((1, self.index)))

    __hash__ = Expr.__hash__


@dataclass(frozen=True, slots=True)
class Sum(Expr):
    terms: tuple
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((6, self.terms)))

    __hash__ = Expr.__hash__


@dataclass(frozen=True, slots=True)
class Product(Expr):
    factors: tuple
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((5, self.factors)))

    __hash__ = Expr.__hash__


@dataclass(frozen=True, slots=True)
class Power(Expr):
    base: Expr
    exponent: int
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((4, self.base, self.exponent)))

    __hash__ = Expr.__hash__


@dataclass(frozen=True, slots=True)
class Sin(Expr):
    argument: Expr
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((2, self.argument)))

    __hash__ = Expr.__hash__


@dataclass(frozen=True, slots=True)
class Cos(Expr):
    argument: Expr
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((3, self.argument)))

    __hash__ = Expr.__hash__


# One node per rational value: normalize, diff and negate build their Rat
# nodes here, so the few distinct coefficients of a computation are shared
# by every tree that holds them instead of being copied into each.
_rat = functools.lru_cache(maxsize=4096)(Rat)

ZERO = _rat(Fraction(0))
ONE = _rat(Fraction(1))
_MINUS_ONE = _rat(Fraction(-1))
_FRACTION_ONE = Fraction(1)


def as_expr(value) -> Expr:
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, Fraction)):
        return Rat(Fraction(value))
    raise TypeError(f"cannot interpret {value!r} as a scalar expression")


def rational(num, den=1) -> Rat:
    return Rat(Fraction(num, den))


def var(index: int) -> Var:
    if index < 1:
        raise ValueError("coordinate indices start at 1")
    return Var(index)


def sin(e) -> Expr:
    return normalize(Sin(as_expr(e)))


def cos(e) -> Expr:
    return normalize(Cos(as_expr(e)))


# ------------------------------------------------------------------
# ordering and normalization
# ------------------------------------------------------------------

@functools.lru_cache(maxsize=262144)
def sort_key(e: Expr):
    if isinstance(e, Rat):
        return (0, e.value.numerator, e.value.denominator)
    if isinstance(e, Var):
        return (1, e.index)
    if isinstance(e, Sin):
        return (2, sort_key(e.argument))
    if isinstance(e, Cos):
        return (3, sort_key(e.argument))
    if isinstance(e, Power):
        return (4, sort_key(e.base), e.exponent)
    if isinstance(e, Product):
        return (5, tuple(sort_key(f) for f in e.factors))
    if isinstance(e, Sum):
        return (6, tuple(sort_key(t) for t in e.terms))
    raise TypeError(type(e))


def _split_coefficient(e: Expr):
    """Split a normalized term into (rational coefficient, non-constant core)."""
    if isinstance(e, Rat):
        return e.value, None
    if isinstance(e, Product) and isinstance(e.factors[0], Rat):
        rest = e.factors[1:]
        core = rest[0] if len(rest) == 1 else Product(rest)
        return e.factors[0].value, core
    return _FRACTION_ONE, e


def _rebuild_term(coeff: Fraction, core) -> Expr:
    if core is None:
        return _rat(coeff)
    if coeff == 1:
        return core
    if isinstance(core, Product):
        return Product((_rat(coeff),) + core.factors)
    return Product((_rat(coeff), core))


@functools.lru_cache(maxsize=131072)
def normalize(e: Expr) -> Expr:
    """Canonical structural form: flattened sums/products, sorted factors,
    merged rational constants and like terms.  Idempotent; does not expand
    powers of sums or distribute products over sums."""
    if isinstance(e, Rat):
        return _rat(e.value)
    if isinstance(e, Var):
        return e
    if isinstance(e, Sin):
        arg = normalize(e.argument)
        if arg == ZERO:
            return ZERO
        return Sin(arg)
    if isinstance(e, Cos):
        arg = normalize(e.argument)
        if arg == ZERO:
            return ONE
        return Cos(arg)
    if isinstance(e, Power):
        return _normalize_power(normalize(e.base), e.exponent)
    if isinstance(e, Product):
        return _normalize_product([normalize(f) for f in e.factors])
    if isinstance(e, Sum):
        return _normalize_sum([normalize(t) for t in e.terms])
    raise TypeError(type(e))


def _normalize_power(base: Expr, exponent: int) -> Expr:
    if exponent < 0:
        raise ScalarError("negative exponents are outside the expression grammar")
    if exponent == 0:
        return ONE
    if exponent == 1:
        return base
    if isinstance(base, Rat):
        # a numerator or denominator of b bits raised to the exponent has at
        # least exponent * (b - 1) bits: see MAX_CONSTANT_DIGITS
        bits = max(base.value.numerator.bit_length(), base.value.denominator.bit_length())
        if exponent * (bits - 1) > _MAX_CONSTANT_BITS:
            raise ScalarError(f"constant power above {MAX_CONSTANT_DIGITS} digits")
        return _rat(base.value ** exponent)
    if isinstance(base, Power):
        # powers of powers multiply: see MAX_EXPONENT
        merged = base.exponent * exponent
        if merged > MAX_EXPONENT:
            raise ScalarError(f"exponent {merged} is above {MAX_EXPONENT}")
        return _normalize_power(base.base, merged)
    if isinstance(base, Product):
        return _normalize_product([_normalize_power(f, exponent) for f in base.factors])
    return Power(base, exponent)


def _normalize_product(factors) -> Expr:
    coeff = Fraction(1)
    flat = []
    stack = list(reversed(factors))
    while stack:
        f = stack.pop()
        if isinstance(f, Rat):
            coeff *= f.value
        elif isinstance(f, Product):
            stack.extend(reversed(f.factors))
        else:
            flat.append(f)
    if coeff == 0:
        return ZERO
    # like factors are keyed by the node itself (its hash is cached) and
    # put in sort_key order at the end
    exponents: dict = {}
    for f in flat:
        if isinstance(f, Power):
            base, exp = f.base, f.exponent
        else:
            base, exp = f, 1
        if base in exponents:
            exponents[base] += exp
        else:
            exponents[base] = exp
    rebuilt = []
    for base in sorted(exponents, key=sort_key):
        exp = exponents[base]
        rebuilt.append(base if exp == 1 else Power(base, exp))
    if not rebuilt:
        return _rat(coeff)
    if coeff == 1:
        return rebuilt[0] if len(rebuilt) == 1 else Product(tuple(rebuilt))
    head = _rat(coeff)
    if len(rebuilt) == 1 and isinstance(rebuilt[0], Sum):
        # constants distribute over a lone sum so that scaling is structural
        scaled = [_normalize_product([head, t]) for t in rebuilt[0].terms]
        return _normalize_sum(scaled)
    return Product((head,) + tuple(rebuilt))


def _normalize_sum(terms) -> Expr:
    constant = Fraction(0)
    collected: dict = {}
    stack = list(reversed(terms))
    while stack:
        t = stack.pop()
        if isinstance(t, Sum):
            stack.extend(reversed(t.terms))
            continue
        coeff, core = _split_coefficient(t)
        if core is None:
            constant += coeff
            continue
        # keyed by the node, whose hash is cached.  A core holds its term
        # until a like term arrives, so a term without like terms is reused
        # as it is; after that it holds the summed coefficient.
        prior = collected.get(core)
        if prior is None:
            collected[core] = t
        elif isinstance(prior, Expr):
            collected[core] = _split_coefficient(prior)[0] + coeff
        else:
            collected[core] = prior + coeff
    rebuilt = []
    if constant != 0:
        rebuilt.append(_rat(constant))
    for core in sorted(collected, key=sort_key):
        value = collected[core]
        if isinstance(value, Expr):
            rebuilt.append(value)
        elif value != 0:
            rebuilt.append(_rebuild_term(value, core))
    if not rebuilt:
        return ZERO
    if len(rebuilt) == 1:
        return rebuilt[0]
    return Sum(tuple(rebuilt))


def add(*terms) -> Expr:
    return _normalize_sum([normalize(as_expr(t)) for t in terms])


def mul(*factors) -> Expr:
    return _normalize_product([normalize(as_expr(f)) for f in factors])


def pow_(base, exponent: int) -> Expr:
    return _normalize_power(normalize(as_expr(base)), exponent)


def negate(e: Expr) -> Expr:
    """Structural negation: folds the sign into the rational head."""
    if isinstance(e, Rat):
        return _rat(-e.value)
    if isinstance(e, Sum):
        return Sum(tuple(negate(t) for t in e.terms))
    if isinstance(e, Product):
        head = e.factors[0]
        if isinstance(head, Rat):
            if head.value == -1:
                rest = e.factors[1:]
                return rest[0] if len(rest) == 1 else Product(rest)
            return Product((_rat(-head.value),) + e.factors[1:])
        return Product((_MINUS_ONE,) + e.factors)
    return Product((_MINUS_ONE, e))


# ------------------------------------------------------------------
# differentiation, substitution, evaluation
# ------------------------------------------------------------------

@functools.lru_cache(maxsize=131072)
def diff(e: Expr, index: int) -> Expr:
    """Partial derivative with respect to x_index; result is normalized."""
    if isinstance(e, Rat):
        return ZERO
    if isinstance(e, Var):
        return ONE if e.index == index else ZERO
    if isinstance(e, Sum):
        return add(*[diff(t, index) for t in e.terms])
    if isinstance(e, Product):
        parts = []
        for i, f in enumerate(e.factors):
            df = diff(f, index)
            if df == ZERO:
                continue
            parts.append(mul(*(e.factors[:i] + (df,) + e.factors[i + 1:])))
        return add(*parts) if parts else ZERO
    if isinstance(e, Power):
        if e.exponent == 0:
            return ZERO
        db = diff(e.base, index)
        if db == ZERO:
            return ZERO
        return mul(_rat(Fraction(e.exponent)), pow_(e.base, e.exponent - 1), db)
    if isinstance(e, Sin):
        da = diff(e.argument, index)
        return ZERO if da == ZERO else mul(Cos(e.argument), da)
    if isinstance(e, Cos):
        da = diff(e.argument, index)
        return ZERO if da == ZERO else mul(_MINUS_ONE, Sin(e.argument), da)
    raise TypeError(type(e))


def substitute(e: Expr, assignment: Mapping[int, Expr]) -> Expr:
    """Replace coordinates by expressions; result is normalized."""
    if isinstance(e, Rat):
        return e
    if isinstance(e, Var):
        return normalize(assignment.get(e.index, e))
    if isinstance(e, Sum):
        return add(*[substitute(t, assignment) for t in e.terms])
    if isinstance(e, Product):
        return mul(*[substitute(f, assignment) for f in e.factors])
    if isinstance(e, Power):
        return pow_(substitute(e.base, assignment), e.exponent)
    if isinstance(e, Sin):
        return normalize(Sin(substitute(e.argument, assignment)))
    if isinstance(e, Cos):
        return normalize(Cos(substitute(e.argument, assignment)))
    raise TypeError(type(e))


def variables(e: Expr) -> set:
    if isinstance(e, Rat):
        return set()
    if isinstance(e, Var):
        return {e.index}
    if isinstance(e, Sum):
        return set().union(*[variables(t) for t in e.terms])
    if isinstance(e, Product):
        return set().union(*[variables(f) for f in e.factors])
    if isinstance(e, Power):
        return variables(e.base)
    if isinstance(e, (Sin, Cos)):
        return variables(e.argument)
    raise TypeError(type(e))


Point = Mapping[int, Number]


def evaluate(e: Expr, point: Point) -> Number:
    """Evaluate at a point.  Exact Fraction result for polynomial data,
    float as soon as sin/cos or a float coordinate is involved.  Raises
    EvalError when a value leaves the float range."""
    try:
        return _evaluate(e, point)
    except OverflowError:
        raise EvalError(f"{render(e)} overflows the float range at a sample point") from None


def _evaluate(e: Expr, point: Point) -> Number:
    if isinstance(e, Rat):
        return e.value
    if isinstance(e, Var):
        if e.index not in point:
            raise EvalError(f"coordinate x{e.index} is unassigned")
        value = point[e.index]
        return Fraction(value) if isinstance(value, int) else value
    if isinstance(e, Sum):
        total = Fraction(0)
        for t in e.terms:
            total = total + _evaluate(t, point)
        return total
    if isinstance(e, Product):
        result = Fraction(1)
        for f in e.factors:
            result = result * _evaluate(f, point)
        return result
    if isinstance(e, Power):
        return _evaluate(e.base, point) ** e.exponent
    if isinstance(e, Sin):
        return math.sin(float(_evaluate(e.argument, point)))
    if isinstance(e, Cos):
        return math.cos(float(_evaluate(e.argument, point)))
    raise TypeError(type(e))


# ------------------------------------------------------------------
# expanded polynomials over trigonometric atoms
# ------------------------------------------------------------------
#
# The atoms are the coordinates ("x", i, None) and the trig subterms
# (kind, sort_key(u), u) for kind "sin" or "cos".  A monomial is a sorted
# tuple of (atom, exponent) pairs.  Every sin-exponent is kept at most one
# by rewriting sin^2 u = 1 - cos^2 u, so Pythagorean identities in a single
# argument reduce to the zero polynomial.
# Coefficients are ints when integral, else Fractions: equal values compare
# and hash alike, and a coefficient divides only as a Fraction.  Every product
# runs through one multiply-accumulate kernel, _mul_into, whose monomial
# products come from a memo of at most 8192 entries.

Mono = tuple


def _coeff(value):
    """An exact rational as an int when it is integral, else as a Fraction."""
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


def _add_reduced(terms: dict, exponents: dict, coeff) -> None:
    """terms += coeff * prod(atom^exp), rewriting each sin^e u with e >= 2
    as sin^(e mod 2) u * (1 - cos^2 u)^(e div 2)."""
    for atom, exp in exponents.items():
        if exp >= 2 and atom[0] == "sin":
            half, odd = divmod(exp, 2)
            cos_atom = ("cos",) + atom[1:]
            cos_exp = exponents.get(cos_atom, 0)
            rest = dict(exponents)
            if odd:
                rest[atom] = 1
            else:
                del rest[atom]
            for j in range(half + 1):
                if j:
                    rest[cos_atom] = cos_exp + 2 * j
                _add_reduced(terms, rest, coeff * ((-1) ** j * math.comb(half, j)))
            return
    _add_term(terms, tuple(sorted(exponents.items())), coeff)


@functools.lru_cache(maxsize=8192)
def _mono_product(m1: Mono, m2: Mono):
    """m1 * m2, or its exponents as a read-only mapping when a sin exponent
    reaches 2 and _add_reduced must run."""
    if not m1 or not m2:
        return m1 or m2
    merged = dict(m1)
    reduce = False
    for atom, exp in m2:
        total = merged.get(atom, 0) + exp
        merged[atom] = total
        if total >= 2 and atom[0] == "sin":
            reduce = True
    return MappingProxyType(merged) if reduce else tuple(sorted(merged.items()))


def _mul_into(terms: dict, a: dict, b: dict) -> None:
    """terms += a * b for two term dicts: the ring's one multiply-accumulate."""
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            coeff = c1 * c2
            mono = _mono_product(m1, m2)
            if type(mono) is MappingProxyType:
                _add_reduced(terms, mono, coeff)
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


class TrigPoly:
    """Polynomial over coordinate and sin/cos atoms, kept canonical with
    every sin-exponent at most one and no zero coefficient.  Operations
    return new polynomials and leave their operands unchanged, so equal
    values may share one object."""

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
        return TrigPoly.atom(("x", index, None))

    @staticmethod
    def from_expr(e: Expr) -> "TrigPoly":
        return _expanded(normalize(e))

    # ring operations -------------------------------------------------

    def __add__(self, other: "TrigPoly") -> "TrigPoly":
        if not other.terms:
            return self
        if not self.terms:
            return other
        terms = dict(self.terms)
        for mono, coeff in other.terms.items():
            _add_term(terms, mono, coeff)
        return _poly(terms)

    def __sub__(self, other: "TrigPoly") -> "TrigPoly":
        return self + -other

    def scale(self, value) -> "TrigPoly":
        value = _coeff(value)
        if not value:
            return TrigPoly.zero()
        return _poly({m: value * c for m, c in self.terms.items()})

    def __neg__(self) -> "TrigPoly":
        return _poly({m: -c for m, c in self.terms.items()})

    def __mul__(self, other: "TrigPoly") -> "TrigPoly":
        return TrigPoly.dot(((self, other),))

    @staticmethod
    def dot(pairs) -> "TrigPoly":
        """The sum of a * b over the (a, b) pairs, accumulated in one dict."""
        terms: dict = {}
        for a, b in pairs:
            _mul_into(terms, a.terms, b.terms)
        return _poly(terms)

    def power(self, k: int) -> "TrigPoly":
        if k < 1:
            return TrigPoly.one()
        out = self
        for _ in range(k - 1):
            out = out * self
        return out

    def is_zero(self) -> bool:
        return not self.terms

    def atoms(self) -> set:
        return {atom for mono in self.terms for atom, _ in mono}

    def variables(self) -> set:
        """Indices of the coordinates the polynomial holds, those inside
        trig arguments included."""
        found = set()
        for kind, key, payload in self.atoms():
            if kind == "x":
                found.add(key)
            else:
                found |= variables(payload)
        return found

    def __eq__(self, other):
        if not isinstance(other, TrigPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(tuple(sorted(self.terms.items())))

    # calculus ---------------------------------------------------------

    def diff(self, index: int) -> "TrigPoly":
        terms: dict = {}
        for mono, coeff in self.terms.items():
            for position, (atom, exp) in enumerate(mono):
                kind, key, payload = atom
                if kind == "x" and key != index:
                    continue
                lowered = ((atom, exp - 1),) if exp > 1 else ()
                rest = mono[:position] + lowered + mono[position + 1:]
                if kind == "x":
                    _add_term(terms, rest, coeff * exp)
                    continue
                # the argument is a normalized expression: expand it and
                # differentiate the expansion
                inner = _expanded(payload).diff(index)
                if inner.is_zero():
                    continue
                if kind == "sin":
                    outer = TrigPoly.atom(("cos", key, payload)).scale(coeff * exp)
                else:
                    outer = TrigPoly.atom(("sin", key, payload)).scale(-coeff * exp)
                _mul_into(terms, {rest: 1}, (outer * inner).terms)
        return _poly(terms)

    # conversion --------------------------------------------------------

    def to_expr(self) -> Expr:
        pieces = []
        for mono, coeff in sorted(self.terms.items()):
            factors = [Rat(coeff)]
            for (kind, key, payload), exp in mono:
                if kind == "x":
                    base: Expr = Var(key)
                elif kind == "sin":
                    base = Sin(payload)
                else:
                    base = Cos(payload)
                factors.append(pow_(base, exp))
            pieces.append(mul(*factors))
        return add(*pieces) if pieces else ZERO

    def __repr__(self):
        return f"TrigPoly({render(self.to_expr())})"


def _expanded(e: Expr) -> TrigPoly:
    """Expansion of a normalized expression."""
    if isinstance(e, Rat):
        return TrigPoly.const(e.value)
    if isinstance(e, Var):
        return TrigPoly.var(e.index)
    if isinstance(e, (Sin, Cos)):
        kind = "sin" if isinstance(e, Sin) else "cos"
        return TrigPoly.atom((kind, sort_key(e.argument), e.argument))
    if isinstance(e, Sum):
        terms: dict = {}
        for t in e.terms:
            for mono, coeff in _expanded(t).terms.items():
                _add_term(terms, mono, coeff)
        return _poly(terms)
    if isinstance(e, Product):
        out = _expanded(e.factors[0])
        for f in e.factors[1:]:
            out = out * _expanded(f)
        return out
    if isinstance(e, Power):
        return _expanded(e.base).power(e.exponent)
    raise TypeError(type(e))


# An expression read from a file must expand to a bounded polynomial, and
# exponents alone do not bound it: (x1+1)^100*(x2+1)^100*(x3+1)^100 holds
# 101^3 terms.  check_expansion bounds the expansion of every subexpression
# without expanding.  The bound of a node is the smaller of two counts: the
# sum (for sums) or product (for products and powers) of the bounds of its
# children, and the number of monomials of its degree or less in its atoms.
# Arguments of sin and cos are checked too, since differentiation expands
# them.  The bound covers the input; arithmetic on accepted entries, such
# as products of curvature entries, is not bounded.

def check_expansion(e: Expr) -> None:
    """Raise ScalarError unless every subexpression of the normalized
    expression e, trig arguments included, expands to at most MAX_TERMS
    terms."""
    _expansion_bound(e)


def _expansion_bound(e: Expr):
    """(bound on the number of terms, degree, atoms) of e's expansion."""
    if isinstance(e, Rat):
        return 1, 0, frozenset()
    if isinstance(e, (Sin, Cos)):
        _expansion_bound(e.argument)
        return 1, 1, frozenset([e])
    if isinstance(e, Var):
        return 1, 1, frozenset([e])
    over = MAX_TERMS + 1
    if isinstance(e, Power):
        base, degree, atoms = _expansion_bound(e.base)
        bound = 1
        if base > 1:
            for _ in range(e.exponent):
                bound = min(bound * base, over)
        degree *= e.exponent
    else:
        parts = [_expansion_bound(child) for child in
                 (e.terms if isinstance(e, Sum) else e.factors)]
        atoms = frozenset().union(*(part[2] for part in parts))
        if isinstance(e, Sum):
            bound = min(sum(part[0] for part in parts), over)
            degree = max(part[1] for part in parts)
        else:
            bound = 1
            for part in parts:
                bound = min(bound * part[0], over)
            degree = sum(part[1] for part in parts)
    # the number of monomials of degree <= degree in len(atoms) atoms,
    # C(len(atoms) + degree, degree), built up until it passes MAX_TERMS
    k = min(len(atoms), degree)
    monomials = 1
    for i in range(1, k + 1):
        if monomials >= bound:
            break
        monomials = monomials * (len(atoms) + degree - k + i) // i
    bound = min(bound, monomials)
    if bound > MAX_TERMS:
        raise ScalarError(f"expands to more than {MAX_TERMS} terms")
    return bound, degree, atoms


# ------------------------------------------------------------------
# zero test
# ------------------------------------------------------------------
#
# One test for expressions and polynomials: an expression is first
# expanded into a TrigPoly.  The zero polynomial certifies a zero function,
# Pythagorean identities in one argument included.  A nonzero polynomial
# without trig atoms certifies a nonzero function.  Anything else (trig
# identities across related arguments, such as sin(2u) = 2 sin(u) cos(u))
# falls back to seeded sampling at ZERO_SAMPLES points in [-1,1]^n, drawn
# over the sorted coordinates of the polynomial's atoms.  A point shows a
# nonzero function when |sum_m c_m m(p)| >= ZERO_TOLERANCE *
# sum_m |c_m m(p)| over the monomials m of the polynomial; the bound is
# relative, so small coefficients do not pass for zero.

def is_zero(e, seed: int | None = None) -> bool:
    """True iff e, an Expr or a TrigPoly, is identically zero.  Exact for
    polynomials and for trig expressions that reduce to zero; otherwise
    probabilistic (seeded sampling) once sin/cos atoms are involved."""
    seed = _zero_seed if seed is None else seed
    if isinstance(e, TrigPoly):
        return _poly_is_zero(e, seed)
    return _is_zero_cached(normalize(e), seed)


@functools.lru_cache(maxsize=65536)
def _is_zero_cached(e: Expr, seed: int) -> bool:
    return _poly_is_zero(TrigPoly.from_expr(e), seed)


def _poly_is_zero(poly: TrigPoly, seed: int) -> bool:
    if not poly.terms:
        return True
    atoms = poly.atoms()
    if all(kind == "x" for kind, _, _ in atoms):
        return False
    # the test is scale-invariant; dividing by the largest coefficient keeps
    # huge rationals inside the float range
    largest = max(abs(c) for c in poly.terms.values())
    weighted = [(mono, float(Fraction(c) / largest)) for mono, c in poly.terms.items()]
    rng = random.Random(seed)
    names = sorted(poly.variables())
    for _ in range(ZERO_SAMPLES):
        point = {i: rng.uniform(-1.0, 1.0) for i in names}
        values = {}
        for atom in atoms:
            kind, key, payload = atom
            if kind == "x":
                values[atom] = point[key]
            else:
                node = Sin(payload) if kind == "sin" else Cos(payload)
                values[atom] = float(evaluate(node, point))
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
# The optional leading sign is a convenience extension so that entries such
# as "-x1" are accepted in data files.  Whitespace is insignificant.
# Parentheses, sin( and cos( may nest at most MAX_NESTING deep, which keeps
# the parser and the recursive functions above inside the interpreter's
# recursion limit.  An integer literal has at most MAX_DIGITS digits, below
# the interpreter's 4300-digit limit on int conversion.  A written exponent,
# and one that normalize merges from a power of a power (the exponents
# multiply), is at most MAX_EXPONENT: an exponent is the degree of what the
# expansion builds, and (x2 + 1)^MAX_EXPONENT already holds 513 terms,
# while constants past the float range such as 10^400 stay writable.  An
# expression read from a file is also held to MAX_TERMS by check_expansion.
# A power of a constant that surely has more than MAX_CONSTANT_DIGITS
# digits, the interpreter's limit on int-to-string conversion, is refused
# before it is computed, since it could not be rendered: ((10^512)^512)^64
# would otherwise build a number of 16.8 million digits.

MAX_NESTING = 100
MAX_DIGITS = 1000
MAX_EXPONENT = 512
MAX_TERMS = 1000
MAX_CONSTANT_DIGITS = 4300
_MAX_CONSTANT_BITS = int(MAX_CONSTANT_DIGITS / math.log10(2))


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

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
        lead = self.peek()
        negative_head = False
        if lead in ("+", "-"):
            # leading sign only when followed by a non-digit (digits belong
            # to the signed rational literal in `base`)
            save = self.pos
            self.pos += 1
            if self.peek().isdigit():
                self.pos = save
            else:
                negative_head = lead == "-"
                if lead == "+":
                    negative_head = False
        term = self.parse_term()
        if negative_head:
            term = negate(term)
        terms = [term]
        while self.peek() in ("+", "-"):
            op = self.peek()
            self.pos += 1
            nxt = self.parse_term()
            terms.append(negate(nxt) if op == "-" else nxt)
        return terms[0] if len(terms) == 1 else Sum(tuple(terms))

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
        numerator = self.parse_integer(allow_sign=True)
        if self.peek() == "/":
            self.pos += 1
            denominator = self.parse_integer(allow_sign=False)
            if denominator == 0:
                self.error("zero denominator")
            return Rat(Fraction(numerator, denominator))
        return Rat(Fraction(numerator))


def parse(text: str) -> Expr:
    """Parse an expression.  The returned tree is unnormalized; apply
    normalize() for the canonical form."""
    return _Parser(text).parse()


# ------------------------------------------------------------------
# rendering
# ------------------------------------------------------------------

def _is_negative_headed(e: Expr) -> bool:
    if isinstance(e, Rat):
        return e.value < 0
    if isinstance(e, Product):
        return isinstance(e.factors[0], Rat) and e.factors[0].value < 0
    return False


def _render_factor(e: Expr) -> str:
    if isinstance(e, (Sum, Product)):
        return f"({render(e)})"
    if isinstance(e, Rat) and e.value < 0:
        return f"({render(e)})"
    return render(e)


def _render_power_base(e: Expr) -> str:
    if isinstance(e, (Var, Sin, Cos)):
        return render(e)
    if isinstance(e, Rat) and e.value >= 0:
        return render(e)
    return f"({render(e)})"


def render(e: Expr) -> str:
    """Text form that parses back to a structurally equal tree."""
    if isinstance(e, Rat):
        try:
            return str(e.value)
        except ValueError:  # past the interpreter's int-to-string limit
            raise ScalarError(f"constant above {MAX_CONSTANT_DIGITS} digits")
    if isinstance(e, Var):
        return f"x{e.index}"
    if isinstance(e, Sin):
        return f"sin({render(e.argument)})"
    if isinstance(e, Cos):
        return f"cos({render(e.argument)})"
    if isinstance(e, Power):
        return f"{_render_power_base(e.base)}^{e.exponent}"
    if isinstance(e, Product):
        head = e.factors[0]
        if isinstance(head, Rat) and head.value == -1 and len(e.factors) > 1:
            rest = e.factors[1:]
            body = "*".join(_render_factor(f) for f in rest)
            return f"-{body}"
        parts = [render(head) if isinstance(head, Rat) else _render_factor(head)]
        parts += [_render_factor(f) for f in e.factors[1:]]
        return "*".join(parts)
    if isinstance(e, Sum):
        pieces = []
        for i, t in enumerate(e.terms):
            body = f"({render(t)})" if isinstance(t, Sum) else None
            if i == 0:
                pieces.append(body or render(t))
            elif body is not None:
                pieces.append(f" + {body}")
            elif _is_negative_headed(t):
                pieces.append(f" - {render(negate(t))}")
            else:
                pieces.append(f" + {render(t)}")
        return "".join(pieces)
    raise TypeError(type(e))
