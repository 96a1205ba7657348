import random

import pytest
from hypothesis import given, strategies as st

from ndga import forms, knflat
from ndga.knflat import (
    admissible_vertices, apply_expansion, c_coefficient, delta_power,
    enumerate_paths, infinitesimal_expansion, infinitesimal_from_full,
    instantiate_word, nabla_power_expansion, oracle_expansion, render_element,
    successors, vertices_by_delta_power,
)
from ndga.scalar import TrigPoly

var = TrigPoly.var


# ------------------------------------------------------------------
# the weighted edge system
# ------------------------------------------------------------------

def test_successors_of_empty_vertex():
    edges = successors(())
    assert [(e.target, e.weight) for e in edges] == [((0,), 1), ((), 1)]


def test_successor_counts():
    for s in [(), (0,), (0, 0), (1, 2, 0)]:
        assert len(successors(s)) == 2 + len(s)


def test_raise_weight_at_position_two():
    edges = {e.target: e.weight for e in successors((0, 0))}
    assert edges[(0, 1)] == -1
    assert edges[(1, 0)] == 1


def test_self_loop_weight():
    edges = {(e.target, e.weight) for e in successors((0,))}
    assert ((0,), -1) in edges


# ------------------------------------------------------------------
# path enumeration (the worked length-3 lists)
# ------------------------------------------------------------------

def test_single_path_to_twice_raised():
    paths = enumerate_paths(3, (2,))
    assert paths == [(((), (0,), (1,), (2,)), 1)]


def test_single_path_to_one_zero():
    paths = enumerate_paths(3, (1, 0))
    assert paths == [(((), (0,), (0, 0), (1, 0)), 1)]


def test_two_canceling_paths():
    paths = sorted(enumerate_paths(3, (0, 1)), key=lambda pw: pw[1])
    assert [w for _, w in paths] == [-1, 1]
    assert {p for p, _ in paths} == {
        ((), (0,), (0, 0), (0, 1)),
        ((), (0,), (1,), (0, 1)),
    }
    assert c_coefficient((0, 1), 3) == 0


def test_three_paths_to_single_one():
    paths = dict(enumerate_paths(3, (1,)))
    assert paths == {
        ((), (), (0,), (1,)): 1,
        ((), (0,), (0,), (1,)): -1,
        ((), (0,), (1,), (1,)): 1,
    }


def test_three_paths_to_double_zero():
    paths = dict(enumerate_paths(3, (0, 0)))
    assert paths == {
        ((), (), (0,), (0, 0)): 1,
        ((), (0,), (0,), (0, 0)): -1,
        ((), (0,), (0, 0), (0, 0)): 1,
    }


def test_coefficients_from_the_worked_expansion():
    assert c_coefficient((2,), 3) == 1
    assert c_coefficient((1, 0), 3) == 1
    assert c_coefficient((0, 0, 0), 3) == 1
    assert c_coefficient((1,), 3) == 1
    assert c_coefficient((0, 0), 3) == 1
    assert c_coefficient((0,), 3) == 1
    assert c_coefficient((0,), 2) == 0


@given(st.integers(min_value=1, max_value=5))
def test_coefficient_recurrence(n):
    # c(s, n) = sum over predecessor edges of weight * c(source, n-1)
    for s in admissible_vertices(n, n + 1):
        expected = 0
        for source in admissible_vertices(n - 1, n + 1) if n > 1 else [()]:
            for edge in successors(source):
                if edge.target == s:
                    expected += edge.weight * (
                        c_coefficient(source, n - 1) if n > 1 else (1 if source == () else 0)
                    )
        if n == 1:
            expected = sum(
                e.weight for e in successors(()) if e.target == s
            )
        assert c_coefficient(s, n) == expected


# ------------------------------------------------------------------
# admissible vertices
# ------------------------------------------------------------------

def test_level_three_vertices():
    assert set(admissible_vertices(3, 3)) == {
        (), (0,), (1,), (2,), (0, 0), (1, 0), (0, 1), (0, 0, 0)
    }


def test_level_three_filtered():
    assert set(admissible_vertices(3, 2)) == {
        (), (0,), (1,), (0, 0), (1, 0), (0, 1), (0, 0, 0)
    }


def test_level_one():
    assert set(admissible_vertices(1, 2)) == {(), (0,)}


def test_grouping_by_delta_power():
    grouped = vertices_by_delta_power(3, 3)
    assert set(grouped[0]) == {(2,), (1, 0), (0, 1), (0, 0, 0)}
    assert set(grouped[1]) == {(1,), (0, 0)}
    assert set(grouped[2]) == {(0,)}
    assert set(grouped[3]) == {()}


# ------------------------------------------------------------------
# the expansion and its oracle
# ------------------------------------------------------------------

def test_worked_cubic_expansion():
    expansion = dict(nabla_power_expansion(3, 3))
    assert expansion[0] == {(2,): 1, (1, 0): 1, (0, 0, 0): 1}
    assert expansion[1] == {(1,): 1, (0, 0): 1}
    assert expansion[2] == {(0,): 1}


def test_square_expansion():
    expansion = dict(nabla_power_expansion(2, 5))
    assert expansion[0] == {(1,): 1, (0, 0): 1}
    assert expansion[1] == {}


def test_cubic_with_low_nilpotency_drops_second_derivative():
    expansion = dict(nabla_power_expansion(3, 2))
    assert expansion[0] == {(1, 0): 1, (0, 0, 0): 1}


@pytest.mark.parametrize("n", range(1, 15))
@pytest.mark.parametrize("k", range(2, 7))
def test_oracle_equivalence(n, k):
    assert nabla_power_expansion(n, k) == oracle_expansion(n, k)


def test_expansion_visits_each_vertex_once_per_level(monkeypatch):
    # one call per vertex reached, over all levels: 223 here, where the
    # paths number 142,417
    calls = []

    def counted(s):
        calls.append(s)
        return successors(s)

    monkeypatch.setattr(knflat, "successors", counted)
    assert nabla_power_expansion(10, 4) == oracle_expansion(10, 4)
    assert len(calls) == len(set(calls)) == 223


def test_no_admissible_path_means_zero():
    # delta_power < 0 vertices are unreachable in n steps
    assert delta_power((1, 1), 3) < 0
    assert enumerate_paths(3, (1, 1, 1)) == []


def test_weights_are_signs():
    for s in admissible_vertices(4, 4):
        for _, w in enumerate_paths(4, s):
            assert w in (1, -1)


# ------------------------------------------------------------------
# infinitesimal deformations
# ------------------------------------------------------------------

def test_infinitesimal_worked_case():
    assert infinitesimal_expansion(3, 3) == [(0, {(2,): 1}), (1, {(1,): 1}), (2, {(0,): 1})]


def test_infinitesimal_square():
    assert infinitesimal_expansion(2, 2) == [(0, {(1,): 1}), (1, {})]


def test_infinitesimal_equals_filtered_full():
    for n in range(1, 13):
        for k in range(2, 7):
            assert infinitesimal_from_full(n, k) == infinitesimal_expansion(n, k)


# ------------------------------------------------------------------
# instantiation on concrete connections
# ------------------------------------------------------------------

def _random_connection(rng, base_dim=4, fiber_dim=2):
    def poly():
        c = rng.randint(-2, 2)
        return c * var(rng.randint(1, base_dim)) if c else TrigPoly.zero()

    coefficients = {
        i: tuple(tuple(poly() for _ in range(fiber_dim)) for _ in range(fiber_dim))
        for i in range(1, base_dim + 1)
    }
    return forms.connection_from_coefficients(base_dim, coefficients)


def test_instantiate_empty_word_is_identity():
    conn = _random_connection(random.Random(1))
    one = instantiate_word((), conn)
    assert one == forms.identity_form(4, 2)


def test_expansion_reproduces_covariant_powers():
    rng = random.Random(6)
    conn = _random_connection(rng)
    alpha = forms.MatrixForm(4, (2, 1), {
        (): ((var(1),), (var(2) * var(3),)),
    })
    for n in (2, 3):
        expansion = nabla_power_expansion(n, 6)
        assert (apply_expansion(expansion, conn, alpha) - forms.nabla_power(conn, alpha, n)).is_zero()


def test_zero_connection_reduces_to_d_powers():
    conn = forms.connection_from_coefficients(3, {})
    alpha = forms.MatrixForm(3, (1, 1), {(): ((var(1) * var(2),),)})
    expansion = nabla_power_expansion(2, 4)
    direct = forms.exterior_d(forms.exterior_d(alpha))
    assert (apply_expansion(expansion, conn, alpha) - direct).is_zero()


def test_rotation_connection_fourth_power_annihilates_probes():
    conn = forms.connection_from_coefficients(4, {1: ((var(2),),), 2: ((-var(1),),)})
    expansion = nabla_power_expansion(4, 6)
    for probe in forms.probe_forms(conn):
        assert apply_expansion(expansion, conn, probe).is_zero()


# ------------------------------------------------------------------
# rendering
# ------------------------------------------------------------------

def test_render_worked_lines():
    expansion = dict(nabla_power_expansion(3, 3))
    assert render_element(expansion[0]) == "d2(w) + d(w)*w + w^3"
    assert render_element(expansion[1]) == "d(w) + w^2"
    assert render_element(expansion[2]) == "w"
    assert render_element({}) == "0"
