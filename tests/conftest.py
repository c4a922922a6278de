"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the package's own search and kernel
code paths: transversal enumeration by brute force, a plain recursive
backtracking search over dicts and sets, triangle detection by triple scan,
and exact mass recomputation with fsum over shuffled orders.
"""

from __future__ import annotations

import itertools
import math

import pytest

from corrcolor import Cover, Graph, build_graph, random_cover
from corrcolor.rng import derive_int_seed, derive_rng


def brute_force_colorings(g: Graph, cover: Cover, allowed=None) -> list[dict]:
    """All valid transversals by full enumeration (tiny instances only)."""
    conflicts = set()
    for pairs in cover.matchings.values():
        for x, y in pairs:
            conflicts.add((x, y))
            conflicts.add((y, x))
    domains = []
    for v in range(g.n):
        dom = list(cover.lists[v])
        if allowed is not None:
            dom = [x for x in dom if x in allowed]
        domains.append(dom)
    out = []
    for combo in itertools.product(*domains):
        ok = True
        for u, v in g.edges:
            if (combo[u], combo[v]) in conflicts:
                ok = False
                break
        if ok:
            out.append({i: x for i, x in enumerate(combo)})
    return out


def reference_search(g: Graph, cover: Cover, restrict=None, vertices=None, count=False):
    """The exact search as a plain recursion: (status, coloring, count, nodes).

    Forward checking, minimum-remaining-values vertex choice with the lowest
    vertex id on ties, colors in ascending id order, and one node per color
    tried, reported the way `solve_report` reports them. The recursion is as
    deep as the vertex set, so this is for small instances only.
    """
    partner = {}  # (color, neighbor vertex) -> matched color there
    for (a, b), pairs in cover.matchings.items():
        for x, y in pairs:
            partner[x, b] = y
            partner[y, a] = x
    verts = sorted(set(vertices)) if vertices is not None else list(range(g.n))
    domains = {v: set(cover.lists[v]) for v in verts}
    for v, allowed in (restrict or {}).items():
        if v in domains and allowed is not None:
            domains[v] = set(allowed)
    if any(not dom for dom in domains.values()):
        return "not-colorable", None, 0, 0
    undecided = set(verts)
    chosen = {}
    first = None
    n_found = nodes = 0

    def recurse() -> bool:
        nonlocal first, n_found, nodes
        if not undecided:
            n_found += 1
            first = first or dict(chosen)
            return not count
        v = min(undecided, key=lambda u: (len(domains[u]), u))
        if not domains[v]:
            return False
        undecided.remove(v)
        done = False
        for x in sorted(domains[v]):
            nodes += 1
            chosen[v] = x
            removed = [
                (u, partner[x, u])
                for u in g.adjacency[v]
                if u in undecided and partner.get((x, u)) in domains[u]
            ]
            for u, y in removed:
                domains[u].remove(y)
            done = recurse()
            for u, y in removed:
                domains[u].add(y)
            del chosen[v]
            if done:
                break
        undecided.add(v)
        return done

    recurse()
    if n_found:
        return "colorable", first, n_found if count else None, nodes
    return "not-colorable", None, 0 if count else None, nodes


def brute_force_triangle_free(g: Graph) -> bool:
    for a, b, c in itertools.combinations(range(g.n), 3):
        if g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(a, c):
            return False
    return True


def random_graph(seed: int, n: int, p: float) -> Graph:
    rng = derive_rng(seed, "test-graph")
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return build_graph(n, edges)


def random_triangle_free_graph(seed: int, n: int, p: float) -> Graph:
    """Rejection sampling; fine for the small sparse cases tests use."""
    for attempt in range(10_000):
        g = random_graph(derive_int_seed(seed, "tf", attempt), n, p)
        if brute_force_triangle_free(g):
            return g
    raise AssertionError("could not sample a triangle-free graph")


def fsum_by_color(values, order_seed: int = 0) -> float:
    """Exact sum in a shuffled order: the independent summation oracle."""
    values = list(values)
    derive_rng(order_seed, "fsum-order").shuffle(values)
    return math.fsum(values)


def petersen() -> Graph:
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))
        edges.append((i, i + 5))
        edges.append((5 + i, 5 + (i + 2) % 5))
    return build_graph(10, edges)


@pytest.fixture
def c4_equal_lift():
    from corrcolor import gen_cycle, lift_from_lists

    g = gen_cycle(4)
    return g, lift_from_lists(g, [[1, 2]] * 4)


@pytest.fixture
def single_edge_cover():
    g = build_graph(2, [(0, 1)])
    return g, random_cover(g, 2, seed=7)
