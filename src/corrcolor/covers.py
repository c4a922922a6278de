"""Covers: per-vertex color lists plus matchings between lists of adjacent vertices.

A cover assigns every vertex a list of globally unique color ids and every
graph edge a matching between the two endpoint lists. Color ids are dense
integers 0..N-1, assigned vertex-block-contiguously by all generators here.

A `Cover` stores only flat int64 arrays, and they are the source of truth:
the color lists in CSR form over vertices, and the matched pairs in CSR form
over the matched vertex pairs. The library reads these arrays directly. Its
one derived structure is `arrays`, the matched-color adjacency in CSR form
over colors, as `Graph.csr` is a graph's; the color count and each color's
owner are cached beside it. Covers are immutable after construction;
generation is pure in (inputs, seed).

The tuple/dict views `lists`, `matchings`, `color_neighbors` and `partners`
are conversions for callers outside the library, built from the arrays on
every access and never stored. No library code reads them; they stay only
because the benchmark code under `corrbench/` does.

JSON documents of covers are read and written in `coverjson`.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import chain, islice
from numbers import Real

import numpy as np

from ._arrays import (
    _freeze,
    _int_array,
    _pair_array,
    _ptr,
    _ranges,
    _segment_ids,
    _sizes_of,
)
from .errors import (
    ARRAY_MAX,
    DomainError,
    MalformedInputError,
    check_int,
    check_real,
    integer_list,
)
from .graphs import MAX_VERTICES, Graph, gen_cycle
from .rng import derive_rng

# The bound on n_colors: max(MAX_SPARSE_COLORS, SPARSE_COLOR_FACTOR * entries).
MAX_SPARSE_COLORS = 1 << 20
SPARSE_COLOR_FACTOR = 64


def _split(flat: list, ptr: np.ndarray) -> tuple[tuple, ...]:
    """A flat list cut into tuples at the CSR pointer `ptr`."""
    it = iter(flat)
    return tuple(tuple(islice(it, size)) for size in _sizes_of(ptr).tolist())


@dataclass(frozen=True, eq=False)
class Cover:
    """A cover as read-only int64 arrays; `arrays` is its color adjacency.

    The colors of vertex v are vlist_colors[vlist_ptr[v]:vlist_ptr[v + 1]],
    ascending. edge_u/edge_v list the matched vertex pairs (u <= v), sorted
    and distinct; a pair with an empty matching is kept. The pairs (x, y) of
    edge e are pair_x/pair_y[edge_ptr[e]:edge_ptr[e + 1]], sorted, with x on
    u's side and y on v's. The constructors below produce this canonical
    form and do not validate; use `validate_cover` to check the cover
    conditions as data.

    The constructor takes one-dimensional int64 arrays and checks only that
    their lengths form consistent CSR segments. It does not check the
    canonical order: arrays out of order or with repeated vertex pairs give
    wrong views.

    The views `lists`, `matchings`, `color_neighbors` and `partners` are
    built on every access and never stored, so read one once, not in a
    loop; only `n_colors`, `owner` and `arrays` are cached.
    """

    vlist_ptr: np.ndarray
    vlist_colors: np.ndarray
    edge_u: np.ndarray
    edge_v: np.ndarray
    edge_ptr: np.ndarray
    pair_x: np.ndarray
    pair_y: np.ndarray

    def __post_init__(self):
        for name in _STORED:
            arr = getattr(self, name)
            if not (
                isinstance(arr, np.ndarray) and arr.dtype == np.int64 and arr.ndim == 1
            ):
                raise DomainError(f"cover array {name} must be a 1-D int64 array")
            if arr.flags.writeable:
                object.__setattr__(self, name, _freeze(arr.copy()))
        for ptr, n_entries in (
            (self.vlist_ptr, self.vlist_colors.size),
            (self.edge_ptr, self.pair_x.size),
        ):
            if (
                ptr.size == 0
                or ptr[0] != 0
                or ptr[-1] != n_entries
                or (_sizes_of(ptr) < 0).any()
            ):
                raise DomainError("cover arrays do not form consistent CSR segments")
        if not (
            self.edge_ptr.size == self.edge_u.size + 1 == self.edge_v.size + 1
            and self.pair_y.size == self.pair_x.size
        ):
            raise DomainError("cover arrays disagree in length")

    def __eq__(self, other):
        if not isinstance(other, Cover):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, name), getattr(other, name)) for name in _STORED
        )

    def __hash__(self):
        return hash(tuple(getattr(self, name).tobytes() for name in _STORED))

    @property
    def n_vertices(self) -> int:
        return self.vlist_ptr.size - 1

    @property
    def k_per_vertex(self) -> tuple[int, ...]:
        return tuple(_sizes_of(self.vlist_ptr).tolist())

    def uniform_list_size(self) -> int:
        """The common list size k, or raise if lists differ in size."""
        sizes = set(self.k_per_vertex)
        if len(sizes) != 1:
            raise DomainError(f"list sizes are not uniform: {sorted(sizes)}")
        return sizes.pop()

    @cached_property
    def n_colors(self) -> int:
        """One more than the largest color id in any list (0 if there is none).

        Every per-color array is this long, so ids may be sparse only up to a
        bound: n_colors above max(2**20, 64 * list entries) raises DomainError.
        """
        colors = self.vlist_colors
        if colors.size == 0:
            return 0
        n_colors = max(int(colors.max()) + 1, 0)
        bound = max(MAX_SPARSE_COLORS, SPARSE_COLOR_FACTOR * colors.size)
        if n_colors > bound:
            raise DomainError(
                f"color id {n_colors - 1} is too sparse: per-color arrays would"
                f" have {n_colors} entries for {colors.size} list entries"
                f" (at most {bound})"
            )
        return n_colors

    @cached_property
    def owner(self) -> np.ndarray:
        """Color id -> owner vertex (first list containing it wins, -1 if none)."""
        n = self.n_vertices
        own = np.full(self.n_colors, n, dtype=np.int64)
        listed = self.vlist_colors >= 0
        np.minimum.at(
            own, self.vlist_colors[listed], _segment_ids(self.vlist_ptr)[listed]
        )
        own[own == n] = -1
        return _freeze(own)

    def colors_of(self, vertex_mask: np.ndarray) -> np.ndarray:
        """Mask of the colors the masked vertices own; an id in no list counts for none."""
        return vertex_mask[self.owner] & (self.owner >= 0)

    @cached_property
    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The matched-color adjacency as read-only (nbr_ptr, nbr_idx) int64 arrays.

        The neighbors of color x are nbr_idx[nbr_ptr[x]:nbr_ptr[x + 1]]: every
        color matched with x on some edge, ascending and without repeats.
        """
        nc, x, y = self.n_colors, self.pair_x, self.pair_y
        key = np.concatenate([x, y])
        outside = (key < 0) | (key >= nc)
        if outside.any():
            raise DomainError(
                f"matched color {int(key[outside][0])} is not a list color id"
                f" in 0..{nc - 1}"
            )
        # each pair in both directions, packed in place as x * nc + y
        key *= nc
        key[: x.size] += y
        key[x.size :] += x
        key.sort()
        distinct = key[1:] != key[:-1]
        if not distinct.all():
            key = key[np.concatenate(([True], distinct))]
        # color x's keys are x * nc + y, so its run starts where x * nc would go
        base = np.arange(nc + 1, dtype=np.int64) * nc
        nbr_ptr = np.searchsorted(key, base)
        key -= np.repeat(base[:-1], _sizes_of(nbr_ptr))
        return _freeze(nbr_ptr), _freeze(key)

    @property
    def lists(self) -> tuple[tuple[int, ...], ...]:
        """Vertex -> sorted tuple of its color ids."""
        return _split(self.vlist_colors.tolist(), self.vlist_ptr)

    @property
    def matchings(self) -> dict[tuple[int, int], tuple[tuple[int, int], ...]]:
        """Canonical vertex pair (u, v) -> sorted matched pairs (x, y)."""
        pairs = zip(self.pair_x.tolist(), self.pair_y.tolist())
        keys = zip(self.edge_u.tolist(), self.edge_v.tolist())
        sizes = _sizes_of(self.edge_ptr).tolist()
        return {key: tuple(islice(pairs, size)) for key, size in zip(keys, sizes)}

    @property
    def color_neighbors(self) -> tuple[tuple[int, ...], ...]:
        """Color id -> sorted matched color ids, mirrored from all matchings."""
        nbr_ptr, nbr_idx = self.arrays
        return _split(nbr_idx.tolist(), nbr_ptr)

    @property
    def partners(self) -> tuple[dict[int, int], ...]:
        """Color id -> {neighbor vertex: matched color there}.

        Well-defined only for covers satisfying the matching condition.
        """
        nbr_ptr, nbr_idx = self.arrays
        it = zip(self.owner[nbr_idx].tolist(), nbr_idx.tolist())
        sizes = _sizes_of(nbr_ptr).tolist()
        return tuple(dict(islice(it, size)) for size in sizes)


# The arrays a Cover stores, in field order.
_STORED = tuple(f.name for f in fields(Cover))


# ---------------------------------------------------------------------------
# construction


def _sizes(groups: list, what: str) -> list[int]:
    """Lengths of list-like groups; strings and mappings are not lists."""
    try:
        if any(isinstance(gr, (str, bytes, dict)) for gr in groups):
            raise TypeError
        return [len(gr) for gr in groups]
    except TypeError:
        raise MalformedInputError(f"each {what} must be a list") from None


def _cover_from_raw(lists, key_u: list, key_v: list, groups: list) -> Cover:
    """The canonical Cover of raw lists, matching keys and their pair lists.

    Anything that is not integer data of the right shape raises
    MalformedInputError; `_cover_from_arrays` does the rest.
    """
    list_sizes = _sizes(lists, "color list")
    colors = _int_array(list(chain.from_iterable(lists)), "color ids")
    edge_u = _int_array(key_u, "matching keys")
    edge_v = _int_array(key_v, "matching keys")
    edge_ptr = _ptr(_sizes(groups, "matching"))
    pairs = list(chain.from_iterable(groups))
    x, y = _pair_array(pairs, "matched pair", "matched color ids").T
    return _cover_from_arrays(_ptr(list_sizes), colors, edge_u, edge_v, edge_ptr, x, y)


def _in_order(seg: np.ndarray, *keys: np.ndarray) -> bool:
    """True if entries with ascending segment ids `seg` are in (seg, *keys) order."""
    tied = seg[1:] == seg[:-1]
    for key in keys:
        before, after = key[:-1], key[1:]
        if (tied & (before > after)).any():
            return False
        tied &= before == after
    return True


def _cover_from_arrays(
    vlist_ptr: np.ndarray,
    colors: np.ndarray,
    edge_u: np.ndarray,
    edge_v: np.ndarray,
    edge_ptr: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
) -> Cover:
    """The canonical Cover of raw CSR lists and matchings.

    Sorts each list and each matching, swaps the sides of a key given as
    (v, u) with u < v, and keeps the last of several keys naming the same
    vertex pair. A list or matching already in order is not sorted again, so
    the Cover may take over `vlist_ptr` and `colors`: pass fresh arrays.
    """
    vid = _segment_ids(vlist_ptr)
    if not _in_order(vid, colors):
        colors = colors[np.lexsort((colors, vid))]

    flip = (edge_u > edge_v)[_segment_ids(edge_ptr)]
    edge_u, edge_v = np.minimum(edge_u, edge_v), np.maximum(edge_u, edge_v)
    x, y = np.where(flip, y, x), np.where(flip, x, y)
    order = np.lexsort((np.arange(edge_u.size), edge_v, edge_u))
    su, sv = edge_u[order], edge_v[order]
    last = np.ones(order.size, dtype=bool)
    last[:-1] = (su[1:] != su[:-1]) | (sv[1:] != sv[:-1])
    kept = order[last]
    sizes = _sizes_of(edge_ptr)[kept]
    take = _ranges(edge_ptr[kept], sizes)
    edge_u, edge_v, x, y = edge_u[kept], edge_v[kept], x[take], y[take]
    edge_ptr = _ptr(sizes)
    seg = _segment_ids(edge_ptr)
    if not _in_order(seg, x, y):
        order = np.lexsort((y, x, seg))
        x, y = x[order], y[order]
    return _frozen_cover(vlist_ptr, colors, edge_u, edge_v, edge_ptr, x, y)


def _frozen_cover(*arrays: np.ndarray) -> Cover:
    """A Cover that takes over freshly built int64 arrays without copying them."""
    return Cover(*map(_freeze, arrays))


def make_cover(lists, matchings) -> Cover:
    """Canonicalize raw lists/matchings into a Cover (no validation).

    `matchings` maps vertex pairs (u, v) to pairs (x, y) with x at u and y at
    v; a key (v, u) with v > u is turned round, and of several keys naming
    the same vertex pair the last one wins.
    """
    try:
        lists = list(lists)
    except TypeError:
        msg = f"lists must be a collection of color lists, got {type(lists).__name__}"
        raise MalformedInputError(msg) from None
    if not isinstance(matchings, Mapping):
        name = type(matchings).__name__
        msg = f"matchings must map vertex pairs to matched pairs, got {name}"
        raise MalformedInputError(msg)
    keys = list(matchings)
    try:
        key_u = [u for u, _ in keys]
        key_v = [v for _, v in keys]
    except (TypeError, ValueError):
        raise MalformedInputError("matching keys must be vertex pairs (u, v)") from None
    return _cover_from_raw(lists, key_u, key_v, list(matchings.values()))


def _in_sorted(ranked: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Whether each value occurs in the ascending array `ranked`."""
    pos = np.searchsorted(ranked, values)
    return (pos < ranked.size) & (np.append(ranked, 0)[pos] == values)


def _edge_of(edge_ptr: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """The edge of each pair index, given the CSR pointer of the matchings."""
    return np.searchsorted(edge_ptr, pairs, side="right") - 1


def _finder(ranked: np.ndarray, heads: np.ndarray):
    """A function giving where each value first occurs in the ascending `ranked`.

    `heads` holds the first position of each distinct id of `ranked`. A
    table with one entry per pattern of the low bits of an id, more than
    ranked.size of them, holds the first position of the one id with those
    bits, or ranked.size if there is none; values whose bits several ids
    share are found by binary search. A value that does not occur gets some
    position up to ranked.size, so the caller compares the id found.
    """
    bits = (1 << ranked.size.bit_length()) - 1
    low = ranked[heads] & bits
    table = np.full(bits + 1, ranked.size, dtype=np.int64)
    table[low] = np.where(np.bincount(low, minlength=bits + 1)[low] == 1, heads, -1)

    def find(values: np.ndarray) -> np.ndarray:
        pos = table[values & bits]
        several = np.flatnonzero(pos < 0)
        pos[several] = np.searchsorted(ranked, values[several])
        return pos

    return find


def validate_cover(g: Graph, cover: Cover) -> list[str]:
    """Check the two cover conditions plus list disjointness.

    Returns a list of human-readable violations; empty means the cover is
    valid. Violations are data, not exceptions. List problems come first, in
    list order; then the problems of each matching, in (u, v) order.

    It sorts the list entries only, and beyond that sort its cost is linear
    in the matched pairs. Each matched color is looked up among the sorted
    entries by a table of the ids' low bits (by binary search where several
    ids share those bits), and a color reused within a matching shows as a
    repeated slot of its list. Pairs that leave the lists or name a color
    held by several lists, which only an invalid cover has, and pairs of a
    matching much shorter than its lists whose slots collide are compared
    exactly, by sorting just those.
    """
    if cover.n_vertices != g.n:
        return [f"cover has {cover.n_vertices} lists but graph has {g.n} vertices"]
    problems = []
    colors = cover.vlist_colors
    vid = _segment_ids(cover.vlist_ptr)
    # Stable, so each run of equal ids in `ranked` starts at the first entry
    # holding that id.
    order = np.argsort(colors, kind="stable")
    ranked = colors[order]
    starts = np.ones(colors.size + 1, dtype=bool)
    starts[1:-1] = ranked[1:] != ranked[:-1]
    heads = np.flatnonzero(starts[:-1])
    first = np.empty_like(order)
    first[order] = order[heads[np.cumsum(starts[:-1]) - 1]]
    slot = np.arange(colors.size, dtype=np.int64)
    for i in np.flatnonzero((colors < 0) | (first != slot)).tolist():
        x, v = int(colors[i]), int(vid[i])
        if x < 0:
            problems.append(f"negative color id {x} at vertex {v}")
        else:
            problems.append(
                f"lists not disjoint: color {x} in lists of {int(vid[first[i]])}"
                f" and {v}"
            )

    eu, ev = cover.edge_u, cover.edge_v
    bad_key = (eu < 0) | (ev >= g.n) | (eu == ev)
    graph_keys = g.edges[:, 0] * g.n + g.edges[:, 1]
    non_edge = ~bad_key & ~_in_sorted(graph_keys, eu * g.n + ev)

    # By ranked position, with one more entry past the end: the id, the
    # vertex of the entry and its slot in that vertex's list.
    padded = np.append(ranked, 0)
    holder = np.append(vid[order], -1)
    local = np.append(order - cover.vlist_ptr[vid[order]], 0)
    # (vertex, id) for every id held by several lists
    shared = ~(starts[:-1] & starts[1:])
    held = set(zip(vid[order[shared]].tolist(), ranked[shared].tolist()))

    # Pairs on a key that is not a vertex pair may be flagged, but such a key
    # is reported alone.
    find = _finder(ranked, heads)
    sizes = _sizes_of(cover.edge_ptr)
    list_sizes = np.append(_sizes_of(cover.vlist_ptr), 0)
    px, py = cover.pair_x, cover.pair_y
    leaves = np.zeros(px.size, dtype=bool)
    reused = np.zeros(px.size, dtype=bool)
    for ends, xs in ((eu, px), (ev, py)):
        pos = find(xs)
        # A color that is not at the vertex on its side as its first holder
        # leaves the lists, unless it is held by several, one of them that
        # vertex's.
        stray = padded[pos] != xs
        stray |= holder[pos] != np.repeat(ends, sizes)
        strays = np.flatnonzero(stray)
        for j, e in zip(strays.tolist(), _edge_of(cover.edge_ptr, strays).tolist()):
            if (int(ends[e]), int(xs[j])) not in held:
                leaves[j] = True
        # A pair's bucket is the slot of its color in the color's first list,
        # folded into one block per matching: a block has a bucket for each
        # slot of the list on this side, or four per pair if fewer. Equal
        # colors on one matching share a bucket; other pairs do so only in a
        # matching much shorter than its lists, or off the lists. The pairs
        # in a shared bucket are compared exactly, by (edge, color).
        blocks = np.minimum(list_sizes[np.clip(ends, 0, g.n)], 4 * sizes)
        bucket = local[pos]
        bucket %= np.repeat(np.maximum(blocks, 1), sizes)
        bucket += np.repeat(_ptr(blocks)[:-1], sizes)
        ids = np.flatnonzero(np.bincount(bucket)[bucket] > 1)
        del bucket  # one array per pair fewer at the peak of the next side
        pe = _edge_of(cover.edge_ptr, ids)
        srt = np.lexsort((xs[ids], pe))
        ids, pe = ids[srt], pe[srt]
        again = (pe[1:] == pe[:-1]) & (xs[ids[1:]] == xs[ids[:-1]])
        reused[ids[1:][again]] = True
    flagged = np.flatnonzero(leaves | reused)
    flagged_edges = np.flatnonzero(
        bad_key
        | non_edge
        | (np.bincount(_edge_of(cover.edge_ptr, flagged), minlength=eu.size) > 0)
    )
    for e in flagged_edges.tolist():
        u, v = int(eu[e]), int(ev[e])
        if bad_key[e]:
            problems.append(f"matching key ({u},{v}) is not a vertex pair")
            continue
        if non_edge[e]:
            problems.append(
                f"matched pair on ({u},{v}) but that is not an edge of the graph"
            )
        lo, hi = np.searchsorted(flagged, cover.edge_ptr[e : e + 2])
        for j in flagged[lo:hi].tolist():
            x, y = int(px[j]), int(py[j])
            if leaves[j]:
                problems.append(
                    f"pair ({x},{y}) on edge ({u},{v}) leaves the endpoint lists"
                )
            if reused[j]:
                problems.append(
                    f"matching condition violated on edge ({u},{v}):"
                    f" color reused by pair ({x},{y})"
                )
    return problems


def _fresh_cover(g: Graph, k: int, sigma: np.ndarray, keep: np.ndarray) -> Cover:
    """Fresh k-lists (vertex v owns v*k .. v*k+k-1) with permutation matchings.

    On the e-th edge (u, v), color i of u is matched with color sigma[e, i]
    of v, for each i with keep[e, i].
    """
    edge_u, edge_v = g.edges.T.copy()
    pair_x = edge_u[:, None] * k + np.arange(k, dtype=np.int64)
    pair_y = edge_v[:, None] * k + sigma
    return _frozen_cover(
        np.arange(g.n + 1, dtype=np.int64) * k,
        np.arange(g.n * k, dtype=np.int64),
        edge_u,
        edge_v,
        _ptr(keep.sum(axis=1)),
        pair_x[keep],
        pair_y[keep],
    )


def lift_from_lists(g: Graph, label_lists) -> Cover:
    """Canonical cover of a list assignment: equal labels get matched.

    Label lists may repeat labels across vertices; per vertex they are
    deduplicated and sorted, and each (vertex, label) becomes a fresh color id.
    Each list must be a collection of strings or of numbers, not a string;
    a bool is not a number here, since True would equal the label 1.
    """
    try:
        n_lists = len(label_lists)
    except TypeError:
        name = type(label_lists).__name__
        msg = f"label_lists must be a collection of label lists, got {name}"
        raise MalformedInputError(msg) from None
    if n_lists != g.n:
        raise DomainError(f"expected {g.n} label lists, got {n_lists}")
    per_vertex = []
    for v, lst in enumerate(label_lists):
        try:
            if isinstance(lst, (str, dict)):
                raise TypeError
            # a set refuses unhashable labels, a sort mixed kinds
            labels = sorted(set(lst))
            if labels and not isinstance(labels[0], (str, Real)):
                raise TypeError
            if any(isinstance(lab, (bool, np.bool_)) for lab in lst):
                raise TypeError
            per_vertex.append(labels)
        except TypeError:
            raise MalformedInputError(
                f"label list of vertex {v} must be an array of strings or of numbers"
            ) from None
    if any(len(lst) == 0 for lst in per_vertex):
        raise DomainError("every vertex needs a nonempty label list")
    label_code: dict = {}
    codes = np.array(
        [label_code.setdefault(lab, len(label_code)) for lst in per_vertex for lab in lst],
        dtype=np.int64,
    )
    vlist_ptr = _ptr([len(lst) for lst in per_vertex])
    n_colors = int(vlist_ptr[-1])
    # Color c is the pair (vertex, label); look up the color of (v, label(x))
    # for every color x of u on every edge (u, v).
    color_key = _segment_ids(vlist_ptr) * len(label_code) + codes
    order = np.argsort(color_key)
    sorted_key = color_key[order]
    edge_u, edge_v = g.edges.T.copy()
    sizes = _sizes_of(vlist_ptr)[edge_u]
    pe = np.repeat(np.arange(g.m, dtype=np.int64), sizes)
    x = _ranges(vlist_ptr[edge_u], sizes)
    want = edge_v[pe] * len(label_code) + codes[x]
    pos = np.minimum(np.searchsorted(sorted_key, want), n_colors - 1)
    found = sorted_key[pos] == want
    return _frozen_cover(
        vlist_ptr,
        np.arange(n_colors, dtype=np.int64),
        edge_u,
        edge_v,
        _ptr(np.bincount(pe[found], minlength=g.m)),
        x[found],
        order[pos[found]],
    )


def random_cover(
    g: Graph, k: int, seed: int, mode: str = "perfect", q: float = 0.5
) -> Cover:
    """Fresh k-lists everywhere; per edge a uniformly random perfect matching.

    mode "perfect" keeps the whole matching; mode "bernoulli" keeps each pair
    of the drawn matching independently with probability q, yielding partial
    matchings (the general cover definition requires only matchings).
    """
    # The color list and permutation tables hold n * k and m * k entries.
    check_int("k", k, 1, ARRAY_MAX // max(g.n, g.m, 1))
    if mode not in ("perfect", "bernoulli"):
        raise DomainError(f"unknown cover mode {mode!r}")
    # Checked in every mode, since callers record q beside the cover.
    check_real("q", q, 0, 1)
    rng = derive_rng(seed, "random-cover", mode)
    # The stream that fixes every cover: one permutation per edge in edge
    # order (`permuted` shuffles row after row, drawing what one
    # `permutation(k)` per row would), then in bernoulli mode the keep table.
    sigma = rng.permuted(np.tile(np.arange(k, dtype=np.int64), (g.m, 1)), axis=1)
    keep = np.ones((g.m, k), dtype=bool)
    if mode == "bernoulli":
        keep = rng.random((g.m, k)) < q
    return _fresh_cover(g, k, sigma, keep)


def cover_from_permutations(g: Graph, k: int, perms) -> Cover:
    """Cover with fresh k-lists whose edge matchings are given permutations.

    `perms` maps edges (u, v) of g, u < v, to length-k sequences sigma,
    matching color i of u with color sigma[i] of v; every edge it does not
    name gets the identity. A key that is not such an edge (a pair turned
    round, a pair that is no edge, anything but a tuple of two integers)
    raises DomainError rather than being ignored.
    """
    check_int("k", k, 1, ARRAY_MAX // max(g.n, g.m, 1))
    if not isinstance(perms, Mapping):
        msg = f"perms must map edges to permutations, got {type(perms).__name__}"
        raise DomainError(msg)
    edge_index = {edge: e for e, edge in enumerate(map(tuple, g.edges.tolist()))}
    sigma = np.tile(np.arange(k, dtype=np.int64), (g.m, 1))
    for key, perm in perms.items():
        pair = integer_list(key) if isinstance(key, tuple) else None
        e = None if pair is None else edge_index.get(tuple(pair))
        if e is None:
            msg = f"perms key {key!r} is not an edge (u, v), u < v, of the graph"
            raise DomainError(msg)
        s = integer_list(perm)
        if s is None or sorted(s) != list(range(k)):
            msg = f"not a permutation of 0..{k-1} on edge ({pair[0]},{pair[1]}): {perm}"
            raise DomainError(msg)
        sigma[e] = s
    return _fresh_cover(g, k, sigma, np.ones((g.m, k), dtype=bool))


def shifted_cycle_cover(m: int, k: int = 2) -> Cover:
    """2-lists on an even cycle, identity matchings except one swapped edge.

    The swap makes the parity around the cycle unsatisfiable, so the cover
    admits no coloring; it witnesses that list size 2 is not enough for
    even cycles in the cover setting.
    """
    check_int("m", m, 4, MAX_VERTICES)
    check_int("k", k, 1)
    if m % 2 != 0:
        raise DomainError(f"cycle length must be even, got {m}")
    if k != 2:
        raise DomainError("the shifted construction is defined for k=2")
    return cover_from_permutations(gen_cycle(m), k, {(0, m - 1): (1, 0)})
