"""Exact decision, counting, and greedy coloring over covers.

The backtracking search uses forward checking: assigning a color deletes its
matched partners from the domains of undecided neighbors, and the assignment
stops as soon as one of those domains is wiped out (Haralick & Elliott 1980).
The next vertex is chosen by minimum remaining values, ties going to the
lowest vertex id, read from buckets of undecided vertices keyed by domain
size; colors are tried in ascending id order, so results are deterministic
for a fixed instance. The search runs on an explicit stack, so the vertex
count is not limited by Python's recursion limit. A node budget separates
"no coloring" from "gave up".

Conflicts come from the cover's matched-color adjacency, the
(`nbr_ptr`, `nbr_idx`) pair in `Cover.arrays`, and domains from its list
arrays, not from the graph's edges, so the search and the greedy coloring
expect a cover that passes `validate_cover`. The search refuses a color that is
negative or listed at two vertices with DomainError.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .covers import Cover
from .errors import DomainError, MalformedInputError, SearchBudgetExceeded
from .graphs import Graph

DEFAULT_NODE_BUDGET = 10**8

Coloring = dict[int, int]


def check_coloring(
    g: Graph, cover: Cover, coloring: Coloring, vertices=None
) -> str | None:
    """First violated coloring condition, or None if the coloring is valid.

    Vertices are checked in ascending order for a missing color or a color
    off their list; then every matched pair is checked, and the clash at the
    lowest vertex (then lowest partner color) is reported. The check reads
    the cover's arrays, so it is meant for covers that pass `validate_cover`.
    Raises MalformedInputError when a chosen id is not a color of the cover.
    """
    verts = sorted(vertices) if vertices is not None else list(range(g.n))
    for v in verts[:1] + verts[-1:]:
        if not 0 <= v < g.n:
            raise DomainError(f"vertex {v} out of range")
    ids = []
    for v in verts:
        if v not in coloring:
            break
        ids.append(coloring[v])
    xs = np.array(ids) if ids else np.zeros(0, dtype=np.int64)
    if xs.dtype.kind not in "iu":
        raise MalformedInputError(f"chosen ids must be integer color ids, got {ids}")
    xs = xs.astype(np.int64)
    vs = np.array(verts[: len(ids)], dtype=np.int64)
    known = (xs >= 0) & (xs < cover.n_colors)
    own = np.append(cover.owner, -1)[np.where(known, xs, -1)]
    suspect = np.flatnonzero((own < 0) | (own != vs))
    for i in suspect.tolist():
        v, x = int(vs[i]), int(xs[i])
        if own[i] < 0:
            raise MalformedInputError(f"chosen id {x} is not a color of the cover")
        # a color listed at several vertices (an invalid cover) is looked up
        if x not in cover.vlist_colors[cover.vlist_ptr[v] : cover.vlist_ptr[v + 1]]:
            return f"color {x} at vertex {v} is not in that vertex's list"
    if len(ids) < len(verts):
        return f"vertex {verts[len(ids)]} has no color"

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
    order = list(order)
    if sorted(order) != list(range(g.n)):
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
    verts = sorted(set(vertices)) if vertices is not None else list(range(g.n))
    for v in verts:
        if v not in range(g.n):
            raise DomainError(f"vertex {v} out of range")
    restrict = restrict or {}
    for v in restrict:
        if v not in range(g.n):
            raise DomainError(f"restriction names vertex {v}, out of range")
    ptr, colors = cover.vlist_ptr.tolist(), cover.vlist_colors.tolist()
    domains = []
    for v in verts:
        dom = set(colors[ptr[v] : ptr[v + 1]])
        if restrict.get(v) is not None:
            allowed = set(restrict[v])
            if not allowed <= dom:
                raise DomainError(
                    f"restriction at vertex {v} contains non-list colors"
                )
            dom = allowed
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
    if node_budget < 0:
        raise DomainError(f"node budget must be non-negative, got {node_budget}")
    verts, domains = _prepared_domains(g, cover, restrict, vertices)
    if any(not dom for dom in domains):
        return SolveOutcome("not-colorable", None, 0 if count_all else None, 0)

    # Vertices become local indices 0..n-1 in id order, and colors become bit
    # positions in their vertex's domain, in ascending id order; color_bit[y]
    # is 0 for a color in no domain. conflicts[i][a] lists (j, bit) for each
    # neighbor color that color a of vertex i rules out. Only these lists
    # are built lazily, when vertex i is first picked. The rest of the set-up
    # reads the whole cover however few nodes are explored: the list arrays
    # in `_prepared_domains`, `cover.arrays`, `owner` and `color_bit`.
    nbr_ptr, nbr_idx = cover.arrays
    owner = cover.owner.tolist()
    local = [-1] * g.n
    color_bit = [0] * cover.n_colors
    for i, (v, dom) in enumerate(zip(verts, domains)):
        local[v] = i
        for a, x in enumerate(dom):
            # A color in two lists would need two bits; refuse such a cover
            # rather than miscount it.
            if x < 0 or owner[x] != v:
                raise DomainError(
                    f"invalid cover: color {x} at vertex {v} is negative or in"
                    " another list too"
                )
            color_bit[x] = 1 << a
    conflicts = [None] * len(verts)

    # A decided vertex's mask is 0 (saved in its frame), so assignments skip it.
    mask = [(1 << len(dom)) - 1 for dom in domains]
    size = [len(dom) for dom in domains]
    buckets = [set() for _ in range(max(size, default=0) + 1)]
    for i, s in enumerate(size):
        buckets[s].add(i)
    n_free = len(verts)
    nodes = 0
    count = 0
    first: Coloring | None = None
    stack = []  # frames [vertex, color positions, next index, removed, mask]

    while True:
        # Each pass first handles the node just reached: a leaf, or a new
        # frame for the MRV vertex.
        if n_free == 0:
            count += 1
            if first is None:
                first = {verts[i]: domains[i][cs[k - 1]] for i, cs, k, _, _ in stack}
            if not count_all:
                break
        else:
            # Bucket 0 stays empty here: an assignment that wipes out a
            # domain is undone before the search goes deeper.
            s = 1
            while not buckets[s]:
                s += 1
            v = min(buckets[s])
            buckets[s].remove(v)
            n_free -= 1
            if conflicts[v] is None:
                conflicts[v] = [
                    [
                        (local[owner[y]], color_bit[y])
                        for y in nbr_idx[nbr_ptr[x] : nbr_ptr[x + 1]].tolist()
                        if color_bit[y]
                    ]
                    for x in domains[v]
                ]
            m = mask[v]
            mask[v] = 0
            colors = [a for a in range(len(domains[v])) if m >> a & 1]
            stack.append([v, colors, 0, (), m])
        # Then undo the top frame's last color and try its next one, popping
        # exhausted frames, until an assignment leaves no domain empty.
        while stack:
            frame = stack[-1]
            v, colors, k, removed, m = frame
            for j, bit in removed:
                mask[j] |= bit
                s = size[j]
                buckets[s].remove(j)
                size[j] = s + 1
                buckets[s + 1].add(j)
            if k == len(colors):
                stack.pop()
                mask[v] = m
                buckets[size[v]].add(v)
                n_free += 1
                continue
            frame[2] = k + 1
            nodes += 1
            if nodes > node_budget:
                raise SearchBudgetExceeded(nodes, node_budget)
            removed = frame[3] = []
            for j, bit in conflicts[v][colors[k]]:
                mj = mask[j]
                if mj & bit:
                    mask[j] = mj ^ bit
                    s = size[j]
                    buckets[s].remove(j)
                    size[j] = s - 1
                    buckets[s - 1].add(j)
                    removed.append((j, bit))
                    if s == 1:
                        break
            else:
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

