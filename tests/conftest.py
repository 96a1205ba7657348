import os
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, settings, strategies as st

from ndga import forms, scalar

settings.register_profile(
    "deterministic",
    derandomize=True,
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "deterministic"))

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


@pytest.fixture
def data_path():
    def resolve(name):
        return os.path.join(DATA_DIR, name)
    return resolve


# ------------------------------------------------------------------
# expression strategies
# ------------------------------------------------------------------

small_rationals = st.builds(
    Fraction,
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=1, max_value=4),
)

coordinates = st.integers(min_value=1, max_value=3).map(scalar.Var)


def _combine(children):
    sums = st.lists(children, min_size=2, max_size=3).map(lambda ts: scalar.Sum(tuple(ts)))
    products = st.lists(children, min_size=2, max_size=2).map(lambda fs: scalar.Product(tuple(fs)))
    powers = st.tuples(children, st.integers(min_value=0, max_value=3)).map(
        lambda bk: scalar.Power(bk[0], bk[1])
    )
    trig = st.one_of(children.map(scalar.Sin), children.map(scalar.Cos))
    return st.one_of(sums, products, powers, trig)


def _combine_poly(children):
    sums = st.lists(children, min_size=2, max_size=3).map(lambda ts: scalar.Sum(tuple(ts)))
    products = st.lists(children, min_size=2, max_size=2).map(lambda fs: scalar.Product(tuple(fs)))
    powers = st.tuples(children, st.integers(min_value=0, max_value=3)).map(
        lambda bk: scalar.Power(bk[0], bk[1])
    )
    return st.one_of(sums, products, powers)


expressions = st.recursive(
    st.one_of(small_rationals.map(scalar.Rat), coordinates),
    _combine,
    max_leaves=10,
)

polynomial_expressions = st.recursive(
    st.one_of(small_rationals.map(scalar.Rat), coordinates),
    _combine_poly,
    max_leaves=10,
)


# ------------------------------------------------------------------
# sympy as a test-only oracle
# ------------------------------------------------------------------

def sympy_of_text(text):
    """A rendered scalar, read by sympy."""
    sympy = pytest.importorskip("sympy")
    return sympy.sympify(text.replace("^", "**"))


def sympy_reduced(e):
    """e expanded with every sin^k u, k >= 2, rewritten through
    sin^2 u = 1 - cos^2 u, so that a difference TrigPoly reduces to zero
    reduces to zero here too."""
    sympy = pytest.importorskip("sympy")
    e = sympy.expand(e)
    while True:
        powers = [p for p in e.atoms(sympy.Pow)
                  if isinstance(p.base, sympy.sin) and p.exp.is_Integer and p.exp >= 2]
        if not powers:
            return e
        e = sympy.expand(e.xreplace({
            p: p.base ** (p.exp - 2) * (1 - sympy.cos(p.base.args[0]) ** 2) for p in powers
        }))


# ------------------------------------------------------------------
# flatness-scan oracle
# ------------------------------------------------------------------

def least_accepted_order(F, omega_form, max_n):
    """The least n <= max_n that forms.n_flat_from_curvature accepts, each
    order decided from scratch: the oracle of the incremental scan in
    forms.minimal_order_from_curvature."""
    return next(
        (n for n in range(2, max_n + 1) if forms.n_flat_from_curvature(F, omega_form, n)),
        None,
    )
