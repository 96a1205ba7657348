"""Signed path expansion of covariant powers (delta + omega)^N.

The expansion coefficients are generated by a weighted directed graph on
vertices s = (s_1, ..., s_n) of non-negative integers (the empty vertex
included).  From s there are exactly 2 + len(s) edges:

    s -> (0, s)      weight 1                      (append a new letter)
    s -> s           weight (-1)^(|s| + len(s))    (commute past delta)
    s -> s + e_i     weight (-1)^(|s_{<i}| + i - 1) (differentiate letter i)

The vertex s stands for the word w^(s) = d^(s_1)(w) ... d^(s_n)(w) of
derivatives of the connection symbol; a length-N path from the empty
vertex contributes its weight to the coefficient of w^(s) delta^(N(s)),
where N(s) = N - |s| - len(s).  An independent normal-ordering expansion
of (delta + omega)^N over the same words cross-checks every coefficient.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List, Tuple

from . import forms
from .forms import Connection, MatrixForm

Vertex = Tuple[int, ...]

# largest path length the expansions are asked for: N = 16 takes 0.31 s
# at any K (best of 5 in process on a 2-vCPU machine; entries stay below
# N, so a K above N costs as K = N), and each further step roughly doubles
# the work
MAX_N = 16
FreeDeltaElement = Dict[Vertex, int]  # word s -> integer coefficient


class PathSystemError(Exception):
    pass


@dataclass(frozen=True)
class WeightedEdge:
    source: Vertex
    target: Vertex
    weight: int


def delta_power(s: Vertex, n: int) -> int:
    """N(s) = N - |s| - len(s): the delta power attached to s at level n."""
    return n - sum(s) - len(s)


def successors(s: Vertex) -> List[WeightedEdge]:
    """The 2 + len(s) outgoing edges of a vertex."""
    edges = [WeightedEdge(s, (0,) + s, 1)]
    loop_weight = -1 if (sum(s) + len(s)) % 2 else 1
    edges.append(WeightedEdge(s, s, loop_weight))
    prefix = 0
    for i in range(len(s)):
        weight = -1 if (prefix + i) % 2 else 1
        target = s[:i] + (s[i] + 1,) + s[i + 1:]
        edges.append(WeightedEdge(s, target, weight))
        prefix += s[i]
    return edges


def enumerate_paths(n: int, target: Vertex) -> List[Tuple[Tuple[Vertex, ...], int]]:
    """All length-n paths from the empty vertex to target, as (vertex
    sequence, weight) pairs, found by depth-first search."""
    if n < 1:
        raise PathSystemError("path length must be at least 1")
    goal_size = sum(target) + len(target)
    results = []

    def reachable(v: Vertex, remaining: int) -> bool:
        # the tail of target must dominate v and the size deficit must fit
        deficit = goal_size - (sum(v) + len(v))
        if deficit < 0 or deficit > remaining:
            return False
        offset = len(target) - len(v)
        if offset < 0:
            return False
        return all(target[offset + i] >= v[i] for i in range(len(v)))

    def walk(v: Vertex, steps: int, weight: int, trail):
        if steps == n:
            if v == target:
                results.append((tuple(trail), weight))
            return
        for edge in successors(v):
            if reachable(edge.target, n - steps - 1):
                trail.append(edge.target)
                walk(edge.target, steps + 1, weight * edge.weight, trail)
                trail.pop()

    walk((), 0, 1, [()])
    return results


def c_coefficient(s: Vertex, n: int) -> int:
    """Signed count of length-n paths from the empty vertex to s."""
    return sum(weight for _, weight in enumerate_paths(n, s))


def admissible_vertices(n: int, k: int) -> List[Vertex]:
    """All vertices with |s| + len(s) <= n and every entry < k, sorted by
    (delta power descending, vertex)."""
    if n < 1 or k < 1:
        raise PathSystemError("n and k must be at least 1")
    out = [()]
    frontier: List[Vertex] = [()]
    while frontier:
        nxt = []
        for v in frontier:
            base = sum(v) + len(v)
            if base < n and k > 0:
                extended = (0,) + v
                nxt.append(extended)
            for i in range(len(v)):
                if v[i] + 1 < k and base + 1 <= n:
                    raised = v[:i] + (v[i] + 1,) + v[i + 1:]
                    nxt.append(raised)
        frontier = sorted(set(nxt) - set(out))
        out.extend(frontier)
    uniq = sorted(set(out), key=lambda s: (-delta_power(s, n), s))
    return uniq


def vertices_by_delta_power(n: int, k: int) -> Dict[int, List[Vertex]]:
    grouped: Dict[int, List[Vertex]] = {}
    for s in admissible_vertices(n, k):
        grouped.setdefault(delta_power(s, n), []).append(s)
    return grouped


def _path_coefficients(n: int, k: int, max_length: int) -> List[Tuple[int, FreeDeltaElement]]:
    """(j, c_j) for j < n: c_j maps each endpoint s of delta power j, with
    all entries < k and length <= max_length, to the signed count of
    length-n paths from the empty vertex to s.  The counts are pushed level
    by level through the edges as a transfer matrix.  Entries and lengths
    never decrease along an edge, so a vertex outside these bounds never
    reaches one inside them and is dropped when reached; each vertex's kept
    edges are read from successors once, on its first level."""
    if n < 1 or k < 2:
        raise PathSystemError("need n >= 1 and k >= 2")
    kept: Dict[Vertex, List[Tuple[Vertex, int]]] = {}
    counts: Dict[Vertex, int] = {(): 1}
    for _ in range(n):
        nxt: Dict[Vertex, int] = {}
        for v, c in counts.items():
            if v not in kept:
                kept[v] = [(edge.target, edge.weight) for edge in successors(v)
                           if len(edge.target) <= max_length and max(edge.target, default=0) < k]
            for s, weight in kept[v]:
                nxt[s] = nxt.get(s, 0) + c * weight
        counts = {v: c for v, c in nxt.items() if c != 0}
    # every vertex but the empty one, whose count is delta^n's, has a power below n
    grouped: Dict[int, FreeDeltaElement] = {j: {} for j in range(n)}
    for s, c in counts.items():
        if s:
            grouped[delta_power(s, n)][s] = c
    return list(grouped.items())


def nabla_power_expansion(n: int, k: int) -> List[Tuple[int, FreeDeltaElement]]:
    """Coefficients c_0, ..., c_{n-1} with (delta + omega)^n =
    sum c_j delta^j + delta^n, assembled from signed path counts over
    vertices with all entries < k; a length-n path ends at length <= n."""
    return _path_coefficients(n, k, n)


# ------------------------------------------------------------------
# independent oracle: normal ordering in the free algebra
# ------------------------------------------------------------------

@functools.cache
def _push_delta(p: int, a: int) -> Dict[Tuple[int, int], int]:
    """Normal-order delta^p w^(a): outcomes {(order, trailing deltas):
    coeff} under the rewrite delta w^(a) = w^(a+1) + (-1)^(a+1) w^(a) delta,
    where deg w^(a) = a + 1.  Callers must not mutate the cached result."""
    if p == 0:
        return {(a, 0): 1}
    out: Dict[Tuple[int, int], int] = {}
    for (order, trailing), coeff in _push_delta(p - 1, a + 1).items():
        out[(order, trailing)] = out.get((order, trailing), 0) + coeff
    sign = -1 if (a + 1) % 2 else 1
    for (order, trailing), coeff in _push_delta(p - 1, a).items():
        k2 = (order, trailing + 1)
        out[k2] = out.get(k2, 0) + sign * coeff
    return {k2: c for k2, c in out.items() if c}


def oracle_expansion(n: int, k: int) -> List[Tuple[int, FreeDeltaElement]]:
    """Expand (delta + omega)^n in the free algebra with the rewrite rule
    delta w^(a) -> w^(a+1) + (-1)^(a+1) w^(a) delta and w^(a) -> 0 for
    a >= k, then collect by the rightmost delta power.  Independent of the
    path system; used to cross-check it."""
    if n < 1 or k < 2:
        raise PathSystemError("need n >= 1 and k >= 2")
    # state: (word of derivative orders, trailing delta power) -> coeff
    element: Dict[Tuple[Vertex, int], int] = {((), 0): 1}
    for _ in range(n):
        nxt: Dict[Tuple[Vertex, int], int] = {}

        def put(word: Vertex, power: int, coeff: int):
            key = (word, power)
            value = nxt.get(key, 0) + coeff
            if value:
                nxt[key] = value
            else:
                nxt.pop(key, None)

        for (word, power), coeff in element.items():
            # multiply by delta
            put(word, power + 1, coeff)
            # multiply by omega = w^(0): push the trailing deltas through
            for (order, trailing), sign in _push_delta(power, 0).items():
                if order < k:
                    put(word + (order,), trailing, coeff * sign)
        element = nxt
    coefficients: List[Tuple[int, FreeDeltaElement]] = []
    for j in range(n):
        collected: FreeDeltaElement = {}
        for (word, power), coeff in element.items():
            if power == j and word:
                collected[word] = coeff
        coefficients.append((j, collected))
    return coefficients


# ------------------------------------------------------------------
# infinitesimal deformation (t^2 = 0)
# ------------------------------------------------------------------

def infinitesimal_expansion(n: int, k: int) -> List[Tuple[int, FreeDeltaElement]]:
    """Expansion of (delta + t omega)^n with t^2 = 0, in the shape of
    nabla_power_expansion: only vertices of length <= 1 survive the
    t-filter, so c_j holds at most the word (m,), m = n - j - 1 < k, with
    its signed path count c((m,), n) when that is nonzero."""
    return _path_coefficients(n, k, 1)


def infinitesimal_from_full(n: int, k: int) -> List[Tuple[int, FreeDeltaElement]]:
    """The full expansion with every vertex of length >= 2 deleted; equals
    infinitesimal_expansion by definition of the t-filter."""
    out = []
    for j, element in nabla_power_expansion(n, k):
        filtered = {s: c for s, c in element.items() if len(s) <= 1}
        out.append((j, filtered))
    return out


# ------------------------------------------------------------------
# instantiation on concrete connections
# ------------------------------------------------------------------

def instantiate_word(s: Vertex, conn: Connection) -> MatrixForm:
    """Replace the vertex word by the wedge product of exterior derivatives
    of the connection form: w^(s) -> d^(s_1)(omega) ^ ... ^ d^(s_n)(omega)."""
    result = forms.identity_form(conn.base_dim, conn.fiber_dim)
    for order in s:
        factor = conn.form
        for _ in range(order):
            factor = forms.exterior_d(factor)
        result = forms.wedge(result, factor)
    return result


def apply_expansion(expansion: List[Tuple[int, FreeDeltaElement]], conn: Connection,
                    alpha: MatrixForm) -> MatrixForm:
    """Apply (d + omega)^n, expanded as sum_j c_j d^j + d^n with n the
    length of the expansion, to a vector-valued form alpha, reading delta
    as the exterior derivative d.  Equals forms.nabla_power(conn, alpha, n)."""
    n = len(expansion)
    result = forms.zero_form(alpha.base_dim, alpha.shape)
    powers = [alpha]
    for _ in range(n):
        powers.append(forms.exterior_d(powers[-1]))
    for j, element in expansion:
        for s, coeff in element.items():
            term = forms.wedge(instantiate_word(s, conn), powers[j])
            result = result + term.scale(coeff)
    return result + powers[n]


# ------------------------------------------------------------------
# rendering
# ------------------------------------------------------------------

def render_vertex_word(s: Vertex) -> str:
    """w^(s) printed with derivative tags and powers: (1,0) -> 'd(w)*w'."""
    if not s:
        return "1"
    def letter(order: int) -> str:
        if order == 0:
            return "w"
        if order == 1:
            return "d(w)"
        return f"d{order}(w)"
    groups: List[List[int]] = []
    for order in s:
        if groups and groups[-1][0] == order:
            groups[-1][1] += 1
        else:
            groups.append([order, 1])
    return "*".join(
        letter(order) if count == 1 else f"{letter(order)}^{count}"
        for order, count in groups
    )


def render_element(element: FreeDeltaElement) -> str:
    if not element:
        return "0"
    pieces = []
    for s in sorted(element, key=lambda v: (len(v), tuple(-x for x in v))):
        coeff = element[s]
        body = render_vertex_word(s)
        mag = abs(coeff)
        text = body if mag == 1 else f"{mag}*{body}"
        if not pieces:
            pieces.append(text if coeff > 0 else f"-{text}")
        else:
            pieces.append(f" + {text}" if coeff > 0 else f" - {text}")
    return "".join(pieces)
