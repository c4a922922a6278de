"""Exact decision, counting, and greedy coloring over covers.

The backtracking search uses forward checking: assigning a color deletes its
matched partners from the domains of undecided neighbors, and the assignment
is refused as soon as one of those domains is wiped out (Haralick & Elliott
1980). All domains live in one Python int, the state, as fields of w bits, w
being the largest domain size plus one (Warren, Hacker's Delight, 2002, ch. 2
and 5). A vertex's field holds its colors as bits in ascending id order under
a guard bit that stays 0, and lower vertex ids sit in higher fields. An
assignment is one AND with a mask cached per color; the guard bits of the
undecided vertices then show, after one subtraction, whether any field is
empty. The next vertex is chosen by minimum remaining values, ties going to
the lowest vertex id: the lowest bit of every field is peeled until some
field empties, and the highest emptied field is the pick. Colors are tried in
ascending id order, so results are deterministic for a fixed instance. The
search keeps an explicit stack of frames, one per decided vertex, each
holding its vertex's untried colors as bits and the state it was picked in,
so undoing an assignment is taking that state again, and the vertex count is
not limited by Python's recursion limit. Each int operation is linear in the
state's n*w bits, n*(k+1) for lists of k colors, and so is a node's work; a
frame or a cached mask holds up to that many bits. A node budget separates
"no coloring" from "gave up".

Conflicts come from the cover's matched-color adjacency, the
(`nbr_ptr`, `nbr_idx`) pair in `Cover.arrays`, and domains from its list
arrays, not from the graph's edges, so the search and the greedy coloring
expect a cover that passes `validate_cover`. The search refuses a color that is
negative or listed at two vertices with DomainError. Every vertex id, restriction
key and entry, and order entry must pass `errors.is_integer`: a bool or a float
raises DomainError, and never stands for the number it equals. So does a
`vertices`, `order` or restriction entry that cannot be iterated, and a
`restrict` that is not a mapping; a coloring that is not a mapping, or has a
key that is not an integer, raises MalformedInputError. The node budget is an
integer of at least 0 by `errors.check_int`, the rule of every numeric
parameter.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import asdict, dataclass

import numpy as np

from ._arrays import _check_integers
from .covers import Cover
from .errors import (
    DomainError,
    MalformedInputError,
    SearchBudgetExceeded,
    check_int,
    integer_list,
    is_integer,
)
from .graphs import Graph

DEFAULT_NODE_BUDGET = 10**8

Coloring = dict[int, int]


def _vertex_ids(g: Graph, vertices, what: str = "vertex") -> list:
    """The ascending distinct ids of `vertices` (all if None), each checked."""
    if vertices is None:
        return list(range(g.n))
    try:
        vertices = list(vertices)
    except TypeError:
        msg = f"vertices must be a collection of ids, got {vertices!r}"
        raise DomainError(msg) from None
    for v in vertices:
        if not is_integer(v):
            raise DomainError(f"{what} {v!r} is not an integer")
        if not 0 <= v < g.n:
            raise DomainError(f"{what} {v} out of range")
    return sorted(set(vertices))


def check_coloring(
    g: Graph, cover: Cover, coloring: Coloring, vertices=None
) -> str | None:
    """First violated coloring condition, or None if the coloring is valid.

    Vertices are checked in ascending order, and the lowest one with a
    problem decides: a missing color, a chosen id that is not an integer or
    not a color of the cover (MalformedInputError), or a color off its list.
    Then every matched pair is checked, and the clash at the lowest vertex
    (then lowest partner color) is reported. The check reads the cover's
    arrays, so it is meant for covers that pass `validate_cover`.
    """
    verts = _vertex_ids(g, vertices)
    if not isinstance(coloring, Mapping):
        kind = type(coloring).__name__
        msg = f"a coloring must map vertices to color ids, got {kind}"
        raise MalformedInputError(msg)
    _check_integers(coloring.keys(), "the vertices of a coloring")
    owner, ptr = cover.owner, cover.vlist_ptr
    ids = []
    for v in verts:
        if v not in coloring:
            return f"vertex {v} has no color"
        x = coloring[v]
        if not is_integer(x):
            raise MalformedInputError(
                f"chosen id {x!r} at vertex {v} is not an integer color id"
            )
        own = owner[x] if 0 <= x < owner.size else -1
        if own < 0:
            raise MalformedInputError(f"chosen id {x} is not a color of the cover")
        # a color listed at several vertices (an invalid cover) is looked up
        if own != v and x not in cover.vlist_colors[ptr[v] : ptr[v + 1]]:
            return f"color {x} at vertex {v} is not in that vertex's list"
        ids.append(x)
    xs, vs = np.array(ids, dtype=np.int64), np.array(verts, dtype=np.int64)

    # chooser[x + 1] is the vertex that chose color x, -1 if none; ids
    # outside 0..n_colors-1 (only in invalid covers) read the -1 at either end.
    chooser = np.full(cover.n_colors + 2, -1, dtype=np.int64)
    chooser[xs + 1] = vs
    px, py = cover.pair_x, cover.pair_y
    at_x = chooser.take(px + 1, mode="clip")
    at_y = chooser.take(py + 1, mode="clip")
    clash = np.flatnonzero((at_x >= 0) & (at_y >= 0))
    if clash.size == 0:
        return None
    # Each clash is seen from both ends: (vertex, partner's color, partner).
    seen = [(int(at_x[j]), int(py[j]), int(at_y[j])) for j in clash.tolist()]
    seen += [(int(at_y[j]), int(px[j]), int(at_x[j])) for j in clash.tolist()]
    v, _, u = min(seen)
    return f"matched colors chosen on edge ({min(u, v)},{max(u, v)})"


def is_valid_coloring(g: Graph, cover: Cover, coloring: Coloring, vertices=None) -> bool:
    return check_coloring(g, cover, coloring, vertices) is None


def greedy_color(
    g: Graph, cover: Cover, order
) -> tuple[Coloring | None, int | None]:
    """First-fit over the given vertex order.

    At each vertex, picks the lowest color id not matched to an already
    chosen color. Returns (coloring, None) on success or (None, v) with the
    stuck vertex. Succeeds whenever every list beats the vertex degree,
    since each colored neighbor forbids at most one color.
    """
    order = integer_list(order)
    if order is None or sorted(order) != list(range(g.n)):
        raise DomainError("order must be a permutation of all vertices")
    ptr, colors = cover.vlist_ptr.tolist(), cover.vlist_colors.tolist()
    nbr_ptr, nbr_idx = (arr.tolist() for arr in cover.arrays)
    forbidden = [False] * cover.n_colors
    chosen: Coloring = {}
    for v in order:
        pick = next((x for x in colors[ptr[v] : ptr[v + 1]] if not forbidden[x]), None)
        if pick is None:
            return None, v
        chosen[v] = pick
        for y in nbr_idx[nbr_ptr[pick] : nbr_ptr[pick + 1]]:
            forbidden[y] = True
    return chosen, None


def coloring_to_json(coloring: Coloring | None) -> dict[str, int] | None:
    """A coloring as result JSON writes it: string vertex keys, ascending."""
    if coloring is None:
        return None
    return {str(v): x for v, x in sorted(coloring.items())}


@dataclass(frozen=True)
class SolveOutcome:
    status: str  # "colorable" or "not-colorable"
    coloring: Coloring | None
    count: int | None
    nodes_explored: int

    def to_json_dict(self) -> dict:
        return {**asdict(self), "coloring": coloring_to_json(self.coloring)}


def _prepared_domains(g: Graph, cover: Cover, restrict, vertices):
    """The checked, sorted vertex set and each vertex's sorted domain."""
    verts = _vertex_ids(g, vertices)
    restrict = {} if restrict is None else restrict
    if not isinstance(restrict, Mapping):
        kind = type(restrict).__name__
        msg = f"a restriction must map vertices to color ids, got {kind}"
        raise DomainError(msg)
    _vertex_ids(g, restrict, "restriction names vertex")
    ptr, colors = cover.vlist_ptr.tolist(), cover.vlist_colors.tolist()
    domains = []
    for v in verts:
        dom = set(colors[ptr[v] : ptr[v + 1]])
        if restrict.get(v) is not None:
            allowed = integer_list(restrict[v])
            if allowed is None:
                raise DomainError(f"restriction at vertex {v} must list integer ids")
            if not set(allowed) <= dom:
                raise DomainError(
                    f"restriction at vertex {v} contains non-list colors"
                )
            dom = set(allowed)
        domains.append(sorted(dom))
    return verts, domains


def _search(
    g: Graph,
    cover: Cover,
    restrict,
    vertices,
    node_budget: int,
    count_all: bool,
) -> SolveOutcome:
    check_int("node_budget", node_budget, 0)
    verts, domains = _prepared_domains(g, cover, restrict, vertices)
    if any(not dom for dom in domains):
        return SolveOutcome("not-colorable", None, 0 if count_all else None, 0)

    # Vertex i (a local index, in id order) owns a field of w bits at offset
    # (n-1-i)*w of one int, the state: bit a of the field is color a of its
    # sorted domain, and the top bit is a guard that stays 0. So the lowest id
    # sits highest. place[y] is the state bit of color y, -1 for a color in
    # no domain. keep[i][bit] is the state's mask without the bits that color
    # `bit` of vertex i rules out and without i's own field, built the first
    # time that color is tried.
    n = len(verts)
    w = max(map(len, domains), default=0) + 1
    field, full = (1 << w) - 1, (1 << n * w) - 1
    owner = cover.owner.tolist()
    place = [-1] * cover.n_colors
    for i, (v, dom) in enumerate(zip(verts, domains)):
        for a, x in enumerate(dom):
            # A color in two lists would need two bits; refuse such a cover
            # rather than miscount it.
            if x < 0 or owner[x] != v:
                raise DomainError(
                    f"invalid cover: color {x} at vertex {v} is negative or in"
                    " another list too"
                )
            place[x] = (n - 1 - i) * w + a
    nbr_ptr, nbr_idx = cover.arrays
    keep = [{} for _ in range(n)]

    # und holds the guard bits of the undecided vertices and one the lowest
    # bit of their fields. Subtracting one from s | und leaves a field's guard
    # set iff the field is not empty, and its colors with the lowest removed.
    # A frame [vertex, untried bits, state] holds the state its vertex was
    # picked in, so undoing an assignment is taking that state again.
    s = int("0" + "".join(f"{(1 << len(dom)) - 1:0{w}b}" for dom in domains), 2)
    one = full // field
    und = one << w - 1
    r = (s | und) - one
    nodes = 0
    count = 0
    first: Coloring | None = None
    stack = []

    while True:
        # Each pass first handles the node just reached: a leaf, or a new
        # frame for the MRV vertex.
        if len(stack) == n:
            count += 1
            if first is None:
                first = {}
                for i, rest, base in stack:
                    tried = (base >> (n - 1 - i) * w & field) ^ rest
                    first[verts[i]] = domains[i][tried.bit_length() - 1]
            if not count_all:
                break
        else:
            # No undecided field is empty here, and r is still the test's
            # (s | und) - one, so s & r is s with one color peeled from each
            # field. Peeling empties the fields of the smallest size first,
            # and the highest of them is the lowest id.
            t = s & r
            while (r := (t | und) - one) & und == und:
                t &= r
            v = n - (und ^ r & und).bit_length() // w
            off = (n - 1 - v) * w
            und ^= 1 << off + w - 1
            one ^= 1 << off
            stack.append([v, s >> off & field, s])
        # Then try the top frame's lowest untried color, popping exhausted
        # frames, until an assignment leaves no domain empty.
        while stack:
            frame = stack[-1]
            v, rest, base = frame
            if not rest:
                stack.pop()
                off = (n - 1 - v) * w
                und |= 1 << off + w - 1
                one |= 1 << off
                continue
            bit = rest & -rest
            frame[1] = rest ^ bit
            nodes += 1
            if nodes > node_budget:
                raise SearchBudgetExceeded(nodes, node_budget)
            k = keep[v].get(bit)
            if k is None:
                x = domains[v][bit.bit_length() - 1]
                ruled = field << (n - 1 - v) * w
                for y in nbr_idx[nbr_ptr[x] : nbr_ptr[x + 1]].tolist():
                    if place[y] >= 0:
                        ruled |= 1 << place[y]
                k = keep[v][bit] = full ^ ruled
            s = base & k
            if (r := (s | und) - one) & und == und:
                break
        else:
            break

    if count > 0:
        return SolveOutcome("colorable", first, count if count_all else None, nodes)
    return SolveOutcome("not-colorable", None, 0 if count_all else None, nodes)


def solve_exact(
    g: Graph,
    cover: Cover,
    restrict=None,
    vertices=None,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> Coloring | None:
    """One valid coloring, or None if provably none exists.

    `restrict` optionally narrows the allowed colors per vertex (must be
    subsets of the lists); `vertices` optionally solves the induced
    subproblem on that vertex set only. Vertices or restriction keys outside
    the graph, restrictions that leave the lists and a negative budget raise
    DomainError; running out of budget raises SearchBudgetExceeded.
    """
    out = _search(g, cover, restrict, vertices, node_budget, count_all=False)
    return out.coloring


def count_colorings(
    g: Graph,
    cover: Cover,
    restrict=None,
    vertices=None,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> int:
    """Number of valid colorings, by exhaustive backtracking (no early exit)."""
    out = _search(g, cover, restrict, vertices, node_budget, count_all=True)
    return out.count


def solve_report(
    g: Graph,
    cover: Cover,
    restrict=None,
    count: bool = False,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> SolveOutcome:
    """Decision or counting run with node accounting, for report emission."""
    return _search(g, cover, restrict, None, node_budget, count_all=count)

