"""Exact symbolic scalars: one ring of expanded trigonometric polynomials.

TrigPoly is the package's only scalar value: a polynomial over coordinates
x1, x2, ... and atoms sin(u), cos(u), each keyed by the polynomial of its
argument u, with sin^2 u = 1 - cos^2 u applied.  An expanded sparse
polynomial is canonical, so == decides equality in the ring, and forms,
depth forms, metrics and curvature all compute on it.  A TrigPoly maps
monomials to exact rational coefficients; a monomial is one int that
packs the exponent of each atom into that atom's bit field, after Monagan
and Pearce's packed exponent vectors (CASC 2007), so a monomial product is
one addition and the sin^2 check one mask test.  The fields are slots of
one grow-only table of atoms, assigned in the order atoms are first met;
what the module prints or decides reads monomials in canonical atom order,
never in slot order.

Expressions exist only as parse trees: parse reads the grammar below into
Rat, Var, Sum, Product, Power, Sin and Cos nodes, and normalize expands a
tree, once, into its TrigPoly, refusing any step that holds more than
MAX_TERMS terms.  The module's functools.lru_cache functions are expand,
the polynomial of an input text, normalize, sort_key, the key that orders
monomials in rendered text and trig atoms by their arguments, and
_factors, a monomial's atoms in that order.  render writes a TrigPoly
back in the grammar, and exact_divide divides one TrigPoly by another, or
by a Divisor prepared from one, when the quotient is again a TrigPoly;
cancel takes a quotient of two toward lowest terms, and render_quotient
writes it.
TrigPoly.matrix_sum is the kernel of every matrix sum in ndga.forms: it
builds each cell of a product, exterior derivative or sum in one term
dict, and lowers a derivative into it without building it.
The monomial format is private to this module: other modules compute
through TrigPoly's methods and the functions here.  Values are immutable,
and every function here is pure, except that the atom table grows, and
that inside work_budget() the ring charges its term products to a Scope,
which refuses work past its limit and holds the zero test's seed.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import operator
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

# Seed for the randomized zero test outside every work_budget(seed) block
# (the CLI's --seed); identical seeds give identical runs.
DEFAULT_ZERO_SEED = 271828182845
ZERO_TOLERANCE = 1e-9
ZERO_SAMPLES = 8
# a sample point whose term sizes sum below this is summed again in a
# float mantissa and an int binary exponent per term (see is_zero)
_UNDERFLOW_SIZE = 1e-300

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
    value: int | Fraction
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
# an Arg a.  Its canonical order is render order: coordinates by index,
# then sines, then cosines, each by the sort key of its argument.  The
# first time an atom is met it takes the next slot of one module table,
# sin(u) and cos(u) together in neighbouring slots.  The table only grows
# and is never cleared, not even by work_budget(), since polynomials
# outlive the calls that made them.  Slot s owns the W bits of an int from
# bit s*W up: W - 1 bits of exponent under one guard bit.  A monomial is
# the int that holds each of its exponents in its atom's field; the
# constant monomial is 0.  Slots follow the order in which atoms were met,
# so nothing visible reads them: text, sort keys, evaluation and the lex
# order of exact_divide decode a monomial into canonical order first.
#
# Exponents below 2^(W-1) add without a carry between fields, so the
# product of two monomials is one addition, and a product exponent above
# MAX_MONOMIAL_EXPONENT sets its field's guard bit.  Every sin exponent is
# kept at most one by rewriting sin^2 u = 1 - cos^2 u, so Pythagorean
# identities in one argument reduce to the zero polynomial.  Factors are
# canonical, so a product's sin exponent is at most 2, and it is 2 exactly
# when bit 1 of the sin field is set.  Every product runs through one
# multiply-accumulate kernel, _mul_into (exact_divide keeps its own loop,
# over fields of its own), which sends a product to the slow path,
# _add_product, on one test against _CHECK, the guard bits and bit 1 of
# every sin field: there each sin^2 is rewritten, and an exponent past the
# field is refused with ScalarError.  Coefficients are exact rationals: the
# parser's expansion, scale and exact_divide hold an integral one as an int;
# a sum or product of Fractions may leave an integral Fraction, which
# compares and hashes as the int does.
#
# W = 16.  An exponent of up to 32767 is far beyond what the input bounds
# let a cell reach (a power is at most MAX_EXPONENT = 512, and a cell at
# most MAX_TERMS terms), so only a product of dozens of such powers, or a
# high power of a large determinant, passes it.  A monomial over four
# atoms still fits in 64 bits, three of CPython's 30-bit digits, where an
# addition and a hash are quick.

W = 16
MAX_MONOMIAL_EXPONENT = (1 << (W - 1)) - 1
_FIELD = MAX_MONOMIAL_EXPONENT
_GUARD = 1 << (W - 1)

Mono = int
VAR, SIN, COS = 1, 2, 3

_ATOMS: list = []   # slot -> atom
_SLOTS: dict = {}   # atom -> slot
_GUARDS = 0         # the guard bit of every field
_SQUARES = 0        # bit 1 of every sin field
_CHECK = 0          # _GUARDS | _SQUARES
_TRIG = 0           # every bit of every sin and cos field


def _slot(atom) -> int:
    """The slot of an atom, interned on first sight with its trig partner."""
    slot = _SLOTS.get(atom)
    if slot is not None:
        return slot
    global _GUARDS, _SQUARES, _CHECK, _TRIG
    tag, payload = atom
    for new in [atom] if tag == VAR else [(SIN, payload), (COS, payload)]:
        shift = len(_ATOMS) * W
        _SLOTS[new] = len(_ATOMS)
        _ATOMS.append(new)
        _GUARDS |= _GUARD << shift
        if new[0] != VAR:
            _TRIG |= ((1 << W) - 1) << shift
        if new[0] == SIN:
            _SQUARES |= 2 << shift
    _CHECK = _GUARDS | _SQUARES
    return _SLOTS[atom]


def _fields(mono: Mono) -> list:
    """The (slot, exponent) pairs of the nonzero fields of a monomial, in
    slot order; a run of empty fields is skipped in one step."""
    fields, slot = [], 0
    while mono:
        exp = mono & _FIELD
        if exp:
            fields.append((slot, exp))
            mono >>= W
            slot += 1
        else:
            skip = ((mono & -mono).bit_length() - 1) // W
            mono >>= skip * W
            slot += skip
    return fields


@functools.lru_cache(maxsize=65536)
def _factors(mono: Mono) -> tuple:
    """The (atom, exponent) pairs of a monomial in canonical atom order."""
    factors = [(_ATOMS[slot], exp) for slot, exp in _fields(mono)]
    factors.sort()
    return tuple(factors)


def _support(terms) -> Mono:
    """The bitwise or of the monomials: nonzero in the field of each atom
    that some monomial holds."""
    return functools.reduce(operator.or_, terms, 0)


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
    if type(value) is not Fraction:
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


def _overflow() -> ScalarError:
    return ScalarError(f"exponent above {MAX_MONOMIAL_EXPONENT} in a product")


def _add_product(terms: dict, mono: Mono, coeff) -> None:
    """_add_term for a product of canonical monomials, which may hold sin^2
    or pass a field: each sin^2 u becomes 1 - cos^2 u, lowest slot first,
    and an exponent past MAX_MONOMIAL_EXPONENT raises ScalarError."""
    if not mono & _CHECK:
        _add_term(terms, mono, coeff)
        return
    if mono & _GUARDS:
        raise _overflow()
    square = mono & _SQUARES
    square &= -square
    mono -= square
    _add_product(terms, mono, coeff)
    _add_product(terms, mono + (square << W), -coeff)


# Input bounds hold each cell, not the arithmetic on the cells.  Inside
# work_budget() the ring counts term products, len(a) * len(b) per _mul_into
# call and one per remainder term exact_divide scans, and refuses with
# ScalarError, before the work, a call that would pass its scope's limit.
# linalg charges one per entry product or entry update through charge, so
# that the ring's own loops call no public, and so traced, name.
# The budget counts term products, not time.  A product of word-sized
# coefficients costs 0.25-2.2 us on a 2-vCPU x86-64 machine, so a refusal
# comes within 1 s; long ones are the known escape (ROADMAP item 12: a
# dim-8 metric with 1000-digit denominators took 19 s for 5,140 products).

WORK_BUDGET = 400_000


@dataclass(slots=True)
class Scope:
    """A work_budget() block: its limit in term products, what is left of
    it, and the sampled zero test's seed."""
    limit: float
    left: float
    seed: int


_scope = Scope(math.inf, math.inf, DEFAULT_ZERO_SEED)  # outside every block


def _charge(work: int) -> None:
    """Spend work term products of the current scope, or refuse them."""
    scope = _scope
    if work > scope.left:
        raise ScalarError(f"work above the budget of {scope.limit} term products")
    scope.left -= work


def charge(work: int) -> None:
    """_charge for work outside the ring: linalg's entry products and updates."""
    _charge(work)


@contextlib.contextmanager
def work_budget(seed: int | None = None):
    """Yield a Scope that holds the ring's work in the block to WORK_BUDGET
    term products, or to what the enclosing scope has left if less, and
    seeds is_zero with seed, or else the enclosing seed.  On exit the
    enclosing scope is current again, less what the block spent.  expand's
    and normalize's caches are cleared on entry, so a cached expansion is
    never free and a refusal does not depend on earlier calls."""
    global _scope
    normalize.cache_clear()
    expand.cache_clear()
    outer = _scope
    limit = min(WORK_BUDGET, outer.left)
    _scope = scope = Scope(limit, limit, outer.seed if seed is None else seed)
    try:
        yield scope
    finally:
        _scope = outer
        outer.left -= scope.limit - scope.left


def _mul_into(terms: dict, a: dict, b: dict) -> None:
    """terms += a * b for two term dicts: the ring's one multiply-accumulate."""
    _charge(len(a) * len(b))
    check = _CHECK
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            coeff = c1 * c2
            mono = m1 + m2
            if mono & check:
                _add_product(terms, mono, coeff)
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
        return _poly({0: value} if value else {})

    @staticmethod
    def zero() -> "TrigPoly":
        return _poly({})

    @staticmethod
    def one() -> "TrigPoly":
        return _poly({0: 1})

    @staticmethod
    def atom(atom) -> "TrigPoly":
        return _poly({1 << _slot(atom) * W: 1})

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
        if value == 1:
            return self
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
    def dot(pairs, addends=()) -> "TrigPoly":
        """The sum of a * b over the (a, b) pairs and of the addends,
        accumulated in one dict.  A pair with a zero factor is skipped, and
        so costs no term product."""
        terms: dict = {}
        for a, b in pairs:
            if a.terms and b.terms:
                _mul_into(terms, a.terms, b.terms)
        for p in addends:
            for mono, coeff in p.terms.items():
                _add_term(terms, mono, coeff)
        return _poly(terms)

    @staticmethod
    def matrix_sum(pairs, addends, derivatives, derived: dict) -> dict:
        """The nonzero cells {(row, col): TrigPoly} of a sum of matrices:
        the addends, each given as its cells; sign * d_j e over the cells e
        of each (cells, j, sign) in derivatives; and a b over the (a, b)
        pairs, a given as cells and b by row, {k: [(col, entry)]}.  Each cell
        is summed in one term dict, in that order, and a cell that one
        addend alone holds is that addend's entry.  Each product is one
        _mul_into, charged as it is made.  A derivative is lowered into its
        cell term by term with its sign folded in, except that an entry with
        a trig atom goes through diff once per (entry, j), memoized in
        derived by id, so that its chain rule is charged once."""
        held, sums = {}, {}

        def owned(cell) -> dict:
            sums[cell] = dict(held.pop(cell).terms) if cell in held else {}
            return sums[cell]

        for cells in addends:
            for cell, e in cells.items():
                if cell not in sums and cell not in held:
                    held[cell] = e
                    continue
                terms = sums.get(cell) or owned(cell)
                for mono, coeff in e.terms.items():
                    _add_term(terms, mono, coeff)
        for cells, j, sign in derivatives:
            slot = _SLOTS.get((VAR, j))
            if slot is None:  # no polynomial holds x_j, in a trig argument or not
                continue
            shift, one = slot * W, 1 << slot * W
            for cell, e in cells.items():
                terms = sums.get(cell) or owned(cell)
                if _TRIG and _support(e.terms) & _TRIG:
                    if (id(e), j) not in derived:
                        derived[id(e), j] = e.diff(j)
                    for mono, coeff in derived[id(e), j].terms.items():
                        _add_term(terms, mono, coeff if sign > 0 else -coeff)
                    continue
                for mono, coeff in e.terms.items():
                    exp = mono >> shift & _FIELD
                    if exp:
                        _add_term(terms, mono - one, coeff * (exp if sign > 0 else -exp))
        for a, b in pairs:
            for (r, k), x in a.items():
                for c, y in b.get(k, ()):
                    _mul_into(sums.get((r, c)) or owned((r, c)), x.terms, y.terms)
        held.update((cell, _poly(terms)) for cell, terms in sums.items() if terms)
        return held

    def power(self, k: int) -> "TrigPoly":
        return functools.reduce(TrigPoly.__mul__, [self] * k) if k > 0 else TrigPoly.one()

    def is_zero(self) -> bool:
        return not self.terms

    def denominator(self) -> int:
        """The lcm of the coefficient denominators."""
        return math.lcm(*(c.denominator for c in self.terms.values() if type(c) is not int))

    def atoms(self) -> set:
        """The (tag, payload) atoms the monomials hold."""
        return {_ATOMS[slot] for slot, _ in _fields(_support(self.terms))}

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
        """The partial derivative by x_index.  Each term is lowered in the
        field of x_index, then in the field of each trig atom whose argument
        holds x_index, in canonical atom order, by the chain rule
        d sin(u) = cos(u) du and d cos(u) = -sin(u) du.  The partner atom
        times du is formed once per atom, and charged at each use as the
        product it stands for."""
        slot = _SLOTS.get((VAR, index))
        shift = -1 if slot is None else slot * W
        chains = []
        trig = _TRIG and _support(self.terms) & _TRIG
        if trig:
            for (tag, payload), _ in _factors(trig):
                du = payload.poly.diff(index)
                if du.terms:
                    partner = 1 << _SLOTS[(COS if tag == SIN else SIN, payload)] * W
                    chains.append((_SLOTS[(tag, payload)] * W, 1 if tag == SIN else -1,
                                   {partner + m: c for m, c in du.terms.items()}))
        if not chains:
            # lowering one field maps distinct monomials to distinct ones
            if shift < 0:
                return _poly({})
            one = 1 << shift
            return _poly({mono - one: coeff * exp for mono, coeff in self.terms.items()
                          if (exp := mono >> shift & _FIELD)})
        terms: dict = {}
        for mono, coeff in self.terms.items():
            if shift >= 0:
                exp = mono >> shift & _FIELD
                if exp:
                    _add_term(terms, mono - (1 << shift), coeff * exp)
            for field, sign, partner_du in chains:
                exp = mono >> field & _FIELD
                if exp:
                    _charge(len(partner_du))
                    _mul_into(terms, {mono - (1 << field): _coeff(sign * coeff * exp)}, partner_du)
        return _poly(terms)

    def substitute(self, assignment: Mapping[int, "TrigPoly"]) -> "TrigPoly":
        """The polynomial with each coordinate x_i in the assignment
        replaced by its polynomial, inside trig arguments too."""
        images: dict = {}
        pieces = []
        for mono, coeff in self.terms.items():
            value = TrigPoly.const(coeff)
            for atom, exp in _factors(mono):
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
# exact division
# ------------------------------------------------------------------

def _bounds(terms: dict, atoms) -> list:
    """(shift, top, bottom) of each atom: its field and its degrees."""
    return [(s, max(e), min(e)) for s in (_SLOTS[a] * W for a in atoms)
            for e in [[m >> s & _FIELD for m in terms]]]


def _refuted(terms: dict, bounds) -> bool:
    """Whether the terms have a top or bottom degree below the bounds."""
    return any(max(e) < top or min(e) < bottom for s, top, bottom in bounds
               for e in [[m >> s & _FIELD for m in terms]])


def _repack(terms: dict, pairs) -> dict:
    """The terms with each monomial's field at shift a moved to shift b."""
    return {sum((m >> a & _FIELD) << b for a, b in pairs): c for m, c in terms.items()}


class Divisor:
    """den prepared once for exact_divide: each sin atom s is cleared by the
    conjugate p - s*q of den = p + s*q (p, q free of s), and the product,
    p^2 - (1 - cos^2)*q^2, held as a content times a primitive integer
    polynomial packed over its atoms in lex order, the first highest."""

    def __init__(self, den: TrigPoly):
        if not den.terms:
            raise ZeroDivisionError("division by the zero polynomial")
        lcm = den.denominator()
        den, self.conjugates = _poly({m: (c * lcm).numerator for m, c in den.terms.items()}), []
        self.before = _bounds(den.terms, [a for a in den.atoms() if a[0] == VAR])
        for atom in sorted(a for a in den.atoms() if a[0] == SIN):
            if atom in den.atoms():  # an earlier conjugation may cancel it
                field = _FIELD << _SLOTS[atom] * W
                self.conjugates.append({m: -c if m & field else c for m, c in den.terms.items()})
                den = den * _poly(self.conjugates[-1])
        self.atoms = atoms = sorted(den.atoms())
        self.after = _bounds(den.terms, [a for a in atoms if a[0] == COS])
        self.shifts = [(_SLOTS[a] * W, (len(atoms) - 1 - i) * W) for i, a in enumerate(atoms)]
        self.guards = sum(_GUARD << local for _, local in self.shifts)
        packed = _repack(den.terms, self.shifts)
        self.lead = max(packed)
        gcd = math.gcd(*packed.values()) * (1 if packed[self.lead] > 0 else -1)
        self.terms, self.content = {m: c // gcd for m, c in packed.items()}, Fraction(gcd, lcm)


def exact_divide(num: TrigPoly, den: TrigPoly | Divisor) -> TrigPoly | None:
    """num / den when the quotient is again a polynomial, else None; den is
    a polynomial or its Divisor.  A top or bottom degree below den's, in a
    coordinate or after the conjugation in a cos atom, refutes it.  Else
    den divides num over the integers in lex order, den's atoms lowest; as
    den is primitive, a quotient is integral (Gauss's lemma), so a leading
    term or coefficient that den's does not divide means none."""
    den = den if isinstance(den, Divisor) else Divisor(den)
    if not num.terms:
        return num
    if _refuted(num.terms, den.before):
        return None
    lcm = num.denominator()
    terms = num.terms if lcm == 1 else {m: (c * lcm).numerator for m, c in num.terms.items()}
    for conjugate in den.conjugates:
        product: dict = {}
        _mul_into(product, terms, conjugate)
        terms = product
    if _refuted(terms, den.after):
        return None
    others = sorted(_poly(terms).atoms().difference(den.atoms))
    top = len(den.shifts) + len(others) - 1
    shifts = den.shifts + [(_SLOTS[a] * W, (top - i) * W) for i, a in enumerate(others)]
    divisor, lead, guards, lead_coeff = den.terms, den.lead, den.guards, den.terms[den.lead]
    remainder, quotient = _repack(terms, shifts), {}
    if not den.atoms:  # a constant divides term by term, as a scaling
        remainder, quotient = quotient, remainder
    while remainder:
        mono = max(remainder)
        # a field of mono below lead's borrows its guard bit, and only it;
        # lead is 0 in the fields of num's other atoms
        term = (mono | guards) - lead
        coeff, rest = divmod(remainder[mono], lead_coeff)
        if term & guards != guards or rest:
            return None
        term ^= guards
        quotient[term] = coeff
        # remainder -= coeff * term * den; den is free of sin, so no product
        # reaches sin^2
        _charge(len(remainder))
        _charge(len(divisor))
        for m, c in divisor.items():
            product = term + m
            if product & guards:
                raise _overflow()
            _add_term(remainder, product, -coeff * c)
    quotient = _repack(quotient, [(b, a) for a, b in shifts])
    n, d = lcm * den.content.numerator, den.content.denominator  # quotient = Q * d / n
    if n == d == 1:
        return _poly(quotient)
    return _poly({m: c * d // n if not c * d % n else Fraction(c * d, n) for m, c in quotient.items()})


def _common_monomial(terms) -> Mono:
    """The greatest monomial that divides every monomial of terms."""
    common = None
    for mono in terms:
        if not mono:
            return 0
        fields = dict(_fields(mono))
        common = fields if common is None else {
            slot: min(exp, fields[slot]) for slot, exp in common.items() if slot in fields}
        if not common:
            return 0
    return sum(exp << slot * W for slot, exp in common.items())


def _sine_quotient(p: TrigPoly, atom) -> TrigPoly | None:
    """p / sin(u) when it is a polynomial, else None, for the atom sin(u).
    p = A + sin(u) B with A and B free of sin(u); sin(u) divides p exactly
    when 1 - cos(u)^2 divides A, and then p / sin(u) = B + sin(u) A /
    (1 - cos(u)^2).  A is divided per monomial of its other atoms, as a
    polynomial in cos(u), from the top: each coefficient d_k of the
    quotient is a_(k+2) + d_(k+2), and a_1 = d_1, a_0 = d_0 must hold."""
    _charge(len(p.terms))
    sine, cosine = _SLOTS[atom] * W, _SLOTS[(COS, atom[1])] * W
    quotient, columns = {}, {}
    for mono, coeff in p.terms.items():
        if mono >> sine & _FIELD:
            quotient[mono - (1 << sine)] = coeff
        else:
            exp = mono >> cosine & _FIELD
            columns.setdefault(mono - (exp << cosine), {})[exp] = coeff
    for rest, column in columns.items():
        d = {}
        for k in range(max(column), 1, -1):
            value = d.get(k, 0) - column.get(k, 0)
            if value:
                d[k - 2] = value
        if column.get(1, 0) != d.get(1, 0) or column.get(0, 0) != d.get(0, 0):
            return None
        for k, coeff in d.items():
            quotient[rest + (k << cosine) + (1 << sine)] = coeff
    return _poly(quotient)


def cancel(num: TrigPoly, den: TrigPoly) -> tuple:
    """(a, b) with a / b = num / den for a nonzero den: the monomial common
    to every term of both, and each sin(u) of a trig argument u of den that
    divides both exactly, divided out of both until none is left, and den's
    content moved into a, so that b is a primitive integral polynomial whose
    first rendered term is positive.  No general gcd: what is left may
    still share a factor."""
    trig = _TRIG and _support(den.terms) & _TRIG
    sines = sorted({(SIN, arg) for tag, arg in den.atoms() if tag != VAR}) if trig else []
    while True:
        # a constant term, which renders first, leaves no common monomial
        common = 0 if 0 in den.terms else _common_monomial(itertools.chain(den.terms, num.terms))
        if common:
            num = _poly({m - common: c for m, c in num.terms.items()})
            den = _poly({m - common: c for m, c in den.terms.items()})
        for sine in sines:
            a = _sine_quotient(num, sine)
            b = _sine_quotient(den, sine) if a is not None else None
            if b is not None:
                num, den = a, b
                break
        else:
            break
    lcm = den.denominator()
    gcd = math.gcd(*(c if lcm == 1 else int(c * lcm) for c in den.terms.values()))
    if den.terms[0 if 0 in den.terms else min(den.terms, key=sort_key)] < 0:
        gcd = -gcd
    if gcd == lcm:
        return num, den
    content = Fraction(gcd, lcm)
    return _divided(num, content), _divided(den, content)


def _divided(p: TrigPoly, value: Fraction) -> TrigPoly:
    """p / value, exact, with an int coefficient divided by an int value
    kept an int where it divides."""
    if value.denominator == 1 and all(type(c) is int for c in p.terms.values()):
        d = value.numerator
        return _poly({m: c // d if not c % d else Fraction(c, d) for m, c in p.terms.items()})
    return p.scale(1 / value)


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
        return _ints(total)
    if isinstance(e, Product):
        return _ints(functools.reduce(_bounded_product, map(normalize, e.factors)))
    if isinstance(e, Power):
        _check_merged_exponent(e)
        base = normalize(e.base)
        if not any(base.terms):
            # a numerator or denominator of b bits raised to the exponent has
            # at least exponent * (b - 1) bits: see MAX_CONSTANT_DIGITS
            value = Fraction(base.terms.get(0, 0))
            bits = max(value.numerator.bit_length(), value.denominator.bit_length())
            if e.exponent * (bits - 1) > _MAX_CONSTANT_BITS:
                raise ScalarError(f"constant power above {MAX_CONSTANT_DIGITS} digits")
            return TrigPoly.const(value ** e.exponent)
        return _ints(functools.reduce(_bounded_product, [base] * e.exponent, TrigPoly.one()))
    if isinstance(e, (Sin, Cos)):
        return _trig(e._tag, normalize(e.argument))
    raise TypeError(type(e))


def _ints(p: TrigPoly) -> TrigPoly:
    """p with its integral Fraction coefficients held as ints."""
    if all(type(c) is int for c in p.terms.values()):
        return p
    return _poly({m: _coeff(c) for m, c in p.terms.items()})


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
    if merged > MAX_EXPONENT and any(normalize(base).terms):
        raise ScalarError(f"exponent {merged} is above {MAX_EXPONENT}")


@functools.lru_cache(maxsize=65536)
def expand(text: str) -> TrigPoly:
    """The polynomial of an input expression, parsed and expanded once per
    distinct text."""
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
    for (tag, payload), exp in _factors(mono):
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
            key = sort_key(mono)
            factors = key[1] if key[0] == 5 else (key,)  # (5, ...) keys a product
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
    for (tag, payload), exp in _factors(mono):
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


def _operand(p: TrigPoly, numerator: bool) -> str:
    """p's text on its side of a slash, in parentheses unless it reads as
    one operand there."""
    (mono, coeff), = p.terms.items() if len(p.terms) == 1 else [(None, None)]
    if numerator:
        bare = coeff in (1, -1) or mono == 0 and type(coeff) is int
    else:
        bare = coeff == 1 and len(_factors(mono)) == 1
    return render(p) if bare else f"({render(p)})"


def render_quotient(num: TrigPoly, den: TrigPoly) -> str:
    """num/den, each side in parentheses unless it reads as one operand
    there: num an integer or a term with coefficient 1 or -1, den one
    factor with coefficient 1.  So a slash between the sides is followed
    by a parenthesis or a letter, and one inside a rational by a digit."""
    return f"{_operand(num, True)}/{_operand(den, False)}"


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
            for (tag, payload), exp in _factors(mono):
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
# coefficients do not pass for zero.  Every atom's value lies in [-1, 1],
# so a term only shrinks as its factors multiply in, and once it leaves
# the normal float range its rounding error stays below a few 2^-1074.
# Against a size of _UNDERFLOW_SIZE or more that error is far below the
# tolerance.  A point of smaller size, where high powers underflow to
# subnormals or to 0.0, is summed again with each term carried as a float
# mantissa and an int binary exponent (_rescaled_sums), scaled by the
# largest term, and the same relative test read from that.

def is_zero(p: TrigPoly) -> bool:
    """True iff p is identically zero.  Exact for polynomials and for trig
    polynomials that reduce to zero; otherwise probabilistic, sampled from
    the seed of the current work_budget() scope."""
    if not p.terms:
        return True
    if not (_TRIG and _support(p.terms) & _TRIG):
        return False
    atoms = sorted(p.atoms())
    position = {atom: i for i, atom in enumerate(atoms)}
    # the test is scale-invariant; dividing by the largest coefficient keeps
    # huge rationals inside the float range
    largest = max(abs(c) for c in p.terms.values())
    weighted = [([(position[atom], exp) for atom, exp in _factors(mono)],
                 float(Fraction(c) / largest), c) for mono, c in p.terms.items()]
    rng = random.Random(_scope.seed)
    names = sorted(p.variables())
    for _ in range(ZERO_SAMPLES):
        point = {i: rng.uniform(-1.0, 1.0) for i in names}
        values = [point[atom[1]] if atom[0] == VAR
                  else float(evaluate(TrigPoly.atom(atom), point)) for atom in atoms]
        total = size = 0.0
        for factors, term, _ in weighted:
            for i, exp in factors:
                term *= values[i] ** exp
            total += term
            size += abs(term)
        if size < _UNDERFLOW_SIZE:
            total, size = _rescaled_sums(weighted, values)
        if size and abs(total) >= ZERO_TOLERANCE * size:
            return False
    return True


def _split(value) -> tuple:
    """A nonzero rational as (m, e) with value = m * 2^e and 1/2 <= |m| < 1,
    split before it is rounded to a float, so that it cannot underflow."""
    value = Fraction(value)
    shift = abs(value.numerator).bit_length() - value.denominator.bit_length()
    m, e = math.frexp(float(value / Fraction(2) ** shift))
    return m, e + shift


def _split_power(value: float, exp: int) -> tuple:
    """value^exp as _split gives it, powered in steps of at most 1000, each
    of which stays inside the normal float range (2^-1000 > 2^-1022)."""
    m, e = math.frexp(value)
    result, scale = 1.0, e * exp
    while exp:
        step = min(exp, 1000)
        result, shift = math.frexp(result * m ** step)
        scale += shift
        exp -= step
    return result, scale


def _rescaled_sums(weighted: list, values: list) -> tuple:
    """(sum of the terms, sum of their sizes) of is_zero at one sample
    point, each term carried as a mantissa and a binary exponent and scaled
    by the largest, so that no term underflows."""
    terms = []
    for factors, _, coeff in weighted:
        m, e = _split(coeff)
        for i, exp in factors:
            factor, scale = _split_power(values[i], exp)
            m, shift = math.frexp(m * factor)
            e += scale + shift
        if m:
            terms.append((m, e))
    if not terms:
        return 0.0, 0.0
    top = max(e for _, e in terms)
    scaled = [math.ldexp(m, e - top) for m, e in terms]
    return sum(scaled), sum(map(abs, scaled))


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
# integer  := ['+'|'-'] digit+, a digit one of the ASCII 0-9
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
_MINUS_ONE = Rat(-1)
# ASCII digits only: str.isdigit also takes '²', which int() refuses, and
# '١', which int() reads as 1
_DIGITS = frozenset("0123456789")


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
            if self.peek() in _DIGITS:
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
        if ch in _DIGITS or ch in ("+", "-"):
            return self.parse_rational()
        self.error("expected an expression")

    def parse_integer(self, allow_sign: bool) -> int:
        self.skip_ws()
        start = self.pos
        if allow_sign and self.pos < len(self.text) and self.text[self.pos] in "+-":
            self.pos += 1
        if self.pos >= len(self.text) or self.text[self.pos] not in _DIGITS:
            self.pos = start
            self.error("expected an integer")
        digits = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in _DIGITS:
            self.pos += 1
        if self.pos - digits > MAX_DIGITS:
            self.pos = start
            self.error(f"integer longer than {MAX_DIGITS} digits")
        return int(self.text[start:self.pos])

    def parse_rational(self) -> Rat:
        """A literal n or n/d, held as an int when it is integral."""
        numerator = self.parse_integer(allow_sign=True)
        if self.peek() != "/":
            return Rat(numerator)
        self.pos += 1
        denominator = self.parse_integer(allow_sign=False)
        if denominator == 0:
            self.error("zero denominator")
        return Rat(_coeff(Fraction(numerator, denominator)))


def parse(text: str) -> Expr:
    """Parse an expression into its tree; normalize expands it."""
    return _Parser(text).parse()
