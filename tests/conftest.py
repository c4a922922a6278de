"""Independent oracles and shared helpers for the test suite.

The oracles here deliberately avoid the package's own search and kernel
code paths: transversal enumeration by brute force, a plain recursive
backtracking search over dicts and sets, a list-coloring backtracker over
labels, triangle detection by triple scan, exact mass recomputation with
fsum over shuffled orders, graph building, and the cover views, arrays,
validation, coloring check, moderate masses and final rounding derived by
plain Python loops from raw lists and matchings, without `corrcolor.covers`
or `corrcolor.weights`; the nibble's per-step target check is a plain loop
over the arrays it is given. The oracles read a graph only as its vertex
count and `g.edges.tolist()`, and build their own edge sets and adjacency
lists from that. Of the package this module imports only `DomainError`,
`Graph`, `build_graph`, `Cover` (for type hints) and `corrcolor.rng`;
tests/test_oracles.py enforces that.
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING

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
    lists = cover.lists
    for v in range(g.n):
        dom = list(lists[v])
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
    lists = cover.lists
    domains = {v: set(lists[v]) for v in verts}
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


def reference_final_color(lists, matchings, alive, p, p_hat, delta, seed, max_retries):
    """The nibble's final rounding by plain loops: (coloring, attempts).

    Attempt a draws one uniform per color id from the stream
    ("final-color", a) and includes each moderate (0 < p < p_hat) color of a
    live vertex when its uniform is below 2 p / delta. Both ends of every
    jointly included matched pair drop out; the attempt succeeds when every
    live vertex keeps a color, and each takes its lowest. Returns
    (None, max_retries) when no attempt succeeds.
    """
    views = reference_cover_views(lists, matchings)
    prob = {}
    for v, lst in enumerate(views["lists"]):
        if alive[v]:
            for x in lst:
                if 0.0 < p[x] < p_hat:
                    prob[x] = 2.0 * p[x] / delta
    for attempt in range(1, max_retries + 1):
        u = derive_rng(seed, "final-color", attempt).random(views["n_colors"])
        included = {x for x, q in prob.items() if u[x] < q}
        dropped = set()
        for pairs in views["matchings"].values():
            for x, y in pairs:
                if x in included and y in included:
                    dropped.update((x, y))
        coloring = {}
        for v, lst in enumerate(views["lists"]):
            if alive[v]:
                kept = [x for x in lst if x in included and x not in dropped]
                if not kept:
                    break
                coloring[v] = min(kept)
        else:
            return coloring, attempt
    return None, max_retries


def reference_check_reduct_targets(old, stats, tol, k, ln_d, edge_u, edge_v):
    """The per-step target check by plain loops: its violations, in order.

    `old` holds the pre-step arrays "p_v", "q_v", "p_uv" and "deg"; `stats`
    the post-step post_alive, p_v, q_v, d_v and p_uv; `tol` the tolerances
    "vertex", "edge", "entropy" and "degree" and the "shrink". Every
    surviving vertex is checked for vertex mass, entropy and degree, in that
    order, then every edge with both ends surviving for edge mass.
    """
    violations = []
    for v in range(len(stats.post_alive)):
        if not stats.post_alive[v]:
            continue
        dv = abs(stats.p_v[v] - old["p_v"][v])
        if dv > tol["vertex"]:
            violations.append(("vertex-mass", v, float(dv), float(tol["vertex"])))
        q_floor = old["q_v"][v] - 2.0 * old["deg"][v] / (k * ln_d) - tol["entropy"]
        if stats.q_v[v] < q_floor:
            violations.append(("entropy", v, float(stats.q_v[v]), float(q_floor)))
        d_ceil = old["deg"][v] * (1.0 - tol["shrink"]) + tol["degree"]
        if stats.d_v[v] > d_ceil:
            violations.append(("degree", v, float(stats.d_v[v]), float(d_ceil)))
    for e, (u, v) in enumerate(zip(edge_u, edge_v)):
        if stats.post_alive[u] and stats.post_alive[v]:
            ceil_e = old["p_uv"][e] + tol["edge"]
            if stats.p_uv[e] > ceil_e:
                violations.append(("edge-mass", e, float(stats.p_uv[e]), float(ceil_e)))
    return violations


def reference_moderate_mass(lists, p, p_hat, v) -> float:
    """p_m(v) by fsum: the weights of v's list that lie strictly in (0, p_hat)."""
    return math.fsum(p[x] for x in lists[v] if 0.0 < p[x] < p_hat)


def reference_moderate_edge_mass(matchings, p, p_hat, u, v) -> float:
    """p_m(uv) by fsum over the pairs matched on {u, v}, both ends moderate.

    Matchings are keyed (a, b) with a < b; a vertex pair without a key has
    no matched pairs.
    """
    pairs = matchings.get((min(u, v), max(u, v)), ())
    return math.fsum(
        p[x] * p[y] for x, y in pairs if 0.0 < p[x] < p_hat and 0.0 < p[y] < p_hat
    )


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
