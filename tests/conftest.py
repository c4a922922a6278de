"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the package's own search and kernel
code paths: transversal enumeration by brute force, a plain recursive
backtracking search over dicts and sets, a list-coloring backtracker over
labels, triangle detection by triple scan, exact mass recomputation with
fsum over shuffled orders, graph building, and the cover views, arrays,
validation and coloring check derived by plain Python loops from raw lists
and matchings, without `corrcolor.covers`. The oracles read a graph only as
its vertex count and `g.edges.tolist()`, and build their own edge sets and
adjacency lists from that.
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING

import pytest

from corrcolor import DomainError, Graph, build_graph
from corrcolor.rng import derive_int_seed, derive_rng

if TYPE_CHECKING:
    from corrcolor import Cover


def edge_set(g: Graph) -> set[tuple[int, int]]:
    """Every edge of g as (u, v) and as (v, u)."""
    edges = g.edges.tolist()
    return {(u, v) for u, v in edges} | {(v, u) for u, v in edges}


def adjacency(g: Graph) -> list[list[int]]:
    """Vertex -> ascending list of its neighbors."""
    nbrs: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.edges.tolist():
        nbrs[u].append(v)
        nbrs[v].append(u)
    return [sorted(a) for a in nbrs]


def reference_build_graph(n: int, edges) -> tuple[tuple[int, int], ...]:
    """The canonical edge rows of `build_graph(n, edges)`, by a plain loop.

    Raises DomainError with the message `build_graph` gives for the first
    bad edge in input order.
    """
    if n < 0:
        raise DomainError(f"vertex count must be nonnegative, got {n}")
    canon = set()
    for u, v in edges:
        u, v = int(u), int(v)
        if u == v:
            raise DomainError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise DomainError(f"edge ({u},{v}) out of range for n={n}")
        canon.add((u, v) if u < v else (v, u))
    return tuple(sorted(canon))


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
    edges = g.edges.tolist()
    for combo in itertools.product(*domains):
        ok = True
        for u, v in edges:
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
        return "not-colorable", None, 0 if count else None, 0
    nbrs = adjacency(g)
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
                for u in nbrs[v]
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


def solve_lists(g: Graph, label_lists) -> list | None:
    """Plain list-coloring backtracker over labels.

    Independent of the cover machinery on purpose: it serves as the oracle
    for the lift construction (same label on adjacent vertices conflicts).
    Returns a per-vertex label assignment or None. The recursion is as deep
    as the graph has vertices, so this is for small instances only.
    """
    if len(label_lists) != g.n:
        raise DomainError(f"expected {g.n} label lists, got {len(label_lists)}")
    lists = [sorted(set(lst)) for lst in label_lists]
    nbrs = adjacency(g)
    assignment: list = [None] * g.n

    def recurse(v: int) -> bool:
        if v == g.n:
            return True
        for lab in lists[v]:
            if any(assignment[u] == lab for u in nbrs[v] if u < v):
                continue
            assignment[v] = lab
            if recurse(v + 1):
                return True
            assignment[v] = None
        return False

    return list(assignment) if recurse(0) else None


def reference_cover_views(raw_lists, raw_matchings) -> dict:
    """Every view of the cover of raw lists and matchings, by plain loops.

    Lists are sorted; a matching key (v, u) with v > u is turned round, its
    pairs sorted, and of two keys naming the same vertex pair the later
    wins. `owner` maps each id 0..n_colors-1 to the first list holding it
    (-1 if none; negative ids have no owner). `color_neighbors`, `partners`
    and the adjacency arrays are None when a matched id is not in
    0..n_colors-1. The array fields are lists of ints in the layout of the
    cover's stored arrays, its `owner`, and `nbr_ptr`/`nbr_idx`, the pair
    that `Cover.arrays` holds.
    """
    lists = tuple(tuple(sorted(int(x) for x in lst)) for lst in raw_lists)
    matchings = {}
    for (u, v), pairs in raw_matchings.items():
        u, v = int(u), int(v)
        if u > v:
            u, v = v, u
            pairs = [(y, x) for x, y in pairs]
        matchings[(u, v)] = tuple(sorted((int(x), int(y)) for x, y in pairs))
    n_colors = max([x + 1 for lst in lists for x in lst] + [0])
    owner = [-1] * n_colors
    for v, lst in enumerate(lists):
        for x in lst:
            if x >= 0 and owner[x] < 0:
                owner[x] = v
    edge_keys = sorted(matchings)
    out = {
        "lists": lists,
        "matchings": matchings,
        "n_colors": n_colors,
        "owner": owner,
        "vlist_ptr": list(itertools.accumulate((len(lst) for lst in lists), initial=0)),
        "vlist_colors": [x for lst in lists for x in lst],
        "edge_keys": tuple(edge_keys),
        "edge_u": [u for u, _ in edge_keys],
        "edge_v": [v for _, v in edge_keys],
        "edge_ptr": list(
            itertools.accumulate((len(matchings[e]) for e in edge_keys), initial=0)
        ),
        "pair_x": [x for e in edge_keys for x, _ in matchings[e]],
        "pair_y": [y for e in edge_keys for _, y in matchings[e]],
        "color_neighbors": None,
        "partners": None,
        "nbr_ptr": None,
        "nbr_idx": None,
    }
    ids = [x for pairs in matchings.values() for pair in pairs for x in pair]
    if all(0 <= x < n_colors for x in ids):
        nbrs = [set() for _ in range(n_colors)]
        for pairs in matchings.values():
            for x, y in pairs:
                nbrs[x].add(y)
                nbrs[y].add(x)
        neighbors = tuple(tuple(sorted(s)) for s in nbrs)
        partners = []
        for x in range(n_colors):
            partners.append({})
            for y in neighbors[x]:
                partners[x][owner[y]] = y
        out["color_neighbors"] = neighbors
        out["partners"] = tuple(partners)
        out["nbr_ptr"] = list(itertools.accumulate(map(len, neighbors), initial=0))
        out["nbr_idx"] = [y for a in neighbors for y in a]
    return out


def reference_validate(g: Graph, lists, matchings) -> list[str]:
    """The cover conditions checked by plain loops over canonical views.

    Lists first, in list order; then each matching in (u, v) order.
    """
    problems = []
    if len(lists) != g.n:
        return [f"cover has {len(lists)} lists but graph has {g.n} vertices"]
    graph_edges = edge_set(g)
    seen: dict[int, int] = {}
    for v, lst in enumerate(lists):
        for x in lst:
            if x < 0:
                problems.append(f"negative color id {x} at vertex {v}")
            elif x in seen:
                problems.append(
                    f"lists not disjoint: color {x} in lists of {seen[x]} and {v}"
                )
            else:
                seen[x] = v
    for (u, v), pairs in sorted(matchings.items()):
        if not (0 <= u < g.n and 0 <= v < g.n and u != v):
            problems.append(f"matching key ({u},{v}) is not a vertex pair")
            continue
        if (u, v) not in graph_edges:
            problems.append(
                f"matched pair on ({u},{v}) but that is not an edge of the graph"
            )
        used_u: set[int] = set()
        used_v: set[int] = set()
        lu, lv = set(lists[u]), set(lists[v])
        for x, y in pairs:
            if x not in lu or y not in lv:
                problems.append(
                    f"pair ({x},{y}) on edge ({u},{v}) leaves the endpoint lists"
                )
            if x in used_u or y in used_v:
                problems.append(
                    f"matching condition violated on edge ({u},{v}):"
                    f" color reused by pair ({x},{y})"
                )
            used_u.add(x)
            used_v.add(y)
    return problems


def reference_check_coloring(g: Graph, lists, matchings, coloring, vertices=None):
    """First violated coloring condition by plain loops, or None.

    Returns "malformed" where `check_coloring` must raise MalformedInputError.
    """
    views = reference_cover_views(lists, matchings)
    owner, partners = views["owner"], views["partners"]
    verts = sorted(vertices) if vertices is not None else range(g.n)
    for v in verts:
        if v not in coloring:
            return f"vertex {v} has no color"
        x = coloring[v]
        if not (0 <= x < len(owner)) or owner[x] < 0:
            return "malformed"
        if x not in lists[v]:
            return f"color {x} at vertex {v} is not in that vertex's list"
    for v in verts:
        for u, y in partners[coloring[v]].items():
            if u in verts and coloring[u] == y:
                return f"matched colors chosen on edge ({min(u, v)},{max(u, v)})"
    return None


def brute_force_triangle_free(g: Graph) -> bool:
    edges = edge_set(g)
    for a, b, c in itertools.combinations(range(g.n), 3):
        if (a, b) in edges and (b, c) in edges and (a, c) in edges:
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
    from corrcolor import random_cover

    g = build_graph(2, [(0, 1)])
    return g, random_cover(g, 2, seed=7)
