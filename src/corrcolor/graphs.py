"""Simple undirected graphs: representation, statistics, and generators.

Vertices are dense integer indices 0..n-1. A `Graph` stores one read-only
(m, 2) int64 array of canonical edges (u < v, rows sorted and distinct);
its CSR adjacency is derived from it on first use and cached. Graphs are
immutable after construction and safe for concurrent reads; generators are
pure functions of (parameters, seed).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._arrays import _freeze, _int_array, _pair_array, _ptr, _ranges
from .errors import ARRAY_MAX, DomainError, MalformedInputError, check_int
from .rng import derive_rng

SWITCH_REFUSAL_CAP = 10_000
# Edge keys u * n + v must fit in int64.
MAX_VERTICES = 2**31 - 1
# Most vertex pairs `is_triangle_free` looks up at once (8 bytes each per array).
TRIANGLE_PAIR_BLOCK = 1 << 15


@dataclass(frozen=True, eq=False)
class Graph:
    """A simple graph as an (m, 2) int64 array of canonical edges.

    Row e is the edge (u, v) with u < v, and the rows are sorted and
    distinct. `build_graph` and the generators produce this form. The
    constructor checks only that `edges` is an (m, 2) int64 array, and
    freezes a copy of it if it is writeable; it does not check the canonical
    order, and rows out of order, repeated or with u >= v give wrong
    degrees, adjacency and triangle checks.
    """

    n: int
    edges: np.ndarray

    def __post_init__(self):
        e = self.edges
        if not isinstance(e, np.ndarray) or e.dtype != np.int64 or e.shape[1:] != (2,):
            raise DomainError("graph edges must be an (m, 2) int64 array")
        if e.flags.writeable:
            object.__setattr__(self, "edges", _freeze(e.copy()))

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.edges, other.edges)

    def __hash__(self):
        return hash((self.n, self.edges.tobytes()))

    @cached_property
    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Adjacency as read-only (indptr, indices) int64 arrays, neighbors sorted."""
        src = self.edges.ravel()
        dst = self.edges[:, ::-1].ravel()
        ptr = _ptr(np.bincount(src, minlength=self.n))
        return _freeze(ptr), _freeze(dst[np.lexsort((dst, src))])

    def degree(self, v: int) -> int:
        check_int("v", v, 0, self.n - 1)
        ptr = self.csr[0]
        return int(ptr[v + 1] - ptr[v])

    @property
    def m(self) -> int:
        return self.edges.shape[0]


def _canonical(n: int, keys: np.ndarray) -> Graph:
    """The graph on n vertices of the edge keys u * n + v, u < v, all valid."""
    # Sorted distinct keys without np.unique, which imports numpy.ma.
    keys = np.sort(keys)
    keys = np.append(keys[:1], keys[1:][keys[1:] != keys[:-1]])
    return Graph(n=n, edges=_freeze(np.column_stack(np.divmod(keys, n))))


def _graph_of_pairs(n: int, pairs: np.ndarray) -> Graph:
    """The graph on n vertices of an (m, 2) int64 array of endpoint pairs.

    Self-loops and out-of-range endpoints raise DomainError, the first bad
    pair deciding the message; duplicate and reversed pairs merge.
    """
    u, v = pairs.T
    bad = (u == v) | (u < 0) | (u >= n) | (v < 0) | (v >= n)
    if bad.any():
        e = int(np.argmax(bad))
        a, b = int(u[e]), int(v[e])
        if a == b:
            raise DomainError(f"self-loop at vertex {a}")
        raise DomainError(f"edge ({a},{b}) out of range for n={n}")
    return _canonical(n, np.minimum(u, v) * n + np.maximum(u, v))


def build_graph(n: int, edges) -> Graph:
    """Validate, deduplicate, and canonicalize an edge list.

    Endpoints must pass `errors.is_integer`: floats (1.7, even 1.0), bools
    and strings ("1") are rejected, not converted. Self-loops and
    out-of-range endpoints are rejected, the first bad edge in input order
    deciding the message; duplicate and reversed edges are merged silently.
    At most MAX_VERTICES vertices.
    """
    check_int("n", n, 0, MAX_VERTICES)
    try:
        pairs = np.array(edges, dtype=np.int64)
    except OverflowError:
        raise DomainError(f"an edge endpoint is out of range for n={n}") from None
    except (TypeError, ValueError):
        raise DomainError("edges must be vertex pairs (u, v) of integers") from None
    if pairs.size == 0:
        pairs = pairs.reshape(0, 2)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise DomainError("edges must be vertex pairs (u, v)")
    # np.array above converts what it can; the entries themselves are checked.
    try:
        _int_array(np.asarray(edges, dtype=object).ravel().tolist(), "edge endpoints")
    except MalformedInputError:
        raise DomainError("edge endpoints must be integers") from None
    return _graph_of_pairs(n, pairs)


def average_degree(g: Graph) -> float:
    """2|E|/|V|."""
    if g.n < 1:
        raise DomainError("average degree needs at least one vertex")
    return 2.0 * g.m / g.n


def max_degree(g: Graph) -> int:
    return int(np.diff(g.csr[0]).max()) if g.n else 0


def is_triangle_free(g: Graph) -> bool:
    """True iff no three vertices are mutually adjacent.

    Each edge points from its endpoint of lower (degree, id) rank to the
    other. A triangle is then the edge between two out-neighbors of its
    lowest corner, and the out-neighbors of a vertex sit in one run of rows
    once the edges are stably sorted by tail; every pair of rows in a run is
    looked up as an edge key. The heads in a run ascend: first those below
    the tail, by u, then those above it, by v. Ranking by degree keeps every
    out-degree below sqrt(2m), so a hub adds no quadratic number of pairs,
    and the pairs are formed at most TRIANGLE_PAIR_BLOCK at a time.
    """
    n, (u, v) = g.n, g.edges.T
    deg = np.bincount(g.edges.ravel(), minlength=n)
    rank = np.empty(n, dtype=np.int64)
    rank[np.argsort(deg, kind="stable")] = np.arange(n)
    up = rank[u] < rank[v]
    tail = np.where(up, u, v)
    order = np.argsort(tail, kind="stable")
    tail, head = tail[order], np.where(up, v, u)[order]
    after = np.searchsorted(tail, tail, side="right") - np.arange(g.m) - 1
    keys = u * n + v
    step = max(1, TRIANGLE_PAIR_BLOCK // max(int(after.max(initial=0)), 1))
    for start in range(0, g.m, step):
        rows = np.arange(start, min(start + step, g.m))
        want = head[np.repeat(rows, after[rows])] * n
        want += head[_ranges(rows + 1, after[rows])]
        if (keys.take(np.searchsorted(keys, want), mode="clip") == want).any():
            return False
    return True


def gen_cycle(n: int) -> Graph:
    check_int("n", n, 3, MAX_VERTICES)
    i = np.arange(n, dtype=np.int64)
    return _graph_of_pairs(n, np.column_stack((i, (i + 1) % n)))


def gen_complete_bipartite(a: int, b: int) -> Graph:
    check_int("a", a, 1, MAX_VERTICES)
    check_int("b", b, 1, MAX_VERTICES)
    check_int("a + b", a + b, 2, MAX_VERTICES)
    check_int("2 * a * b", 2 * a * b, 2, ARRAY_MAX)
    u, v = np.divmod(np.arange(a * b, dtype=np.int64), b)
    return _canonical(a + b, u * (a + b) + a + v)


def _switch_repair(u, v, n: int, block: int, rng, triangle_free: bool = False):
    """Keys u * n + v of a simple graph repaired from the pairs (u[p], v[p]), u <= v.

    A pair is bad if it is a loop, one of several copies of an edge or, with
    `triangle_free`, on a triangle. The pairs are visited in position order
    (without `triangle_free` only the loops and the later copies that a
    stable sort finds), and each one still bad swaps its v with the v of a
    random pair of its block, the `block` positions from p - p % block. A
    switch is refused while a new pair is a loop or an edge present or, with
    `triangle_free`, closes a triangle, so it makes no pair bad, but two loops
    may become two copies of one edge whose later copy is still to visit.
    After McKay & Wormald; SWITCH_REFUSAL_CAP refusals in a row raise DomainError.
    """
    keys = u * n + v
    order = np.argsort(keys, kind="stable")
    later = order[1:][keys[order[1:]] == keys[order[:-1]]]
    loops = np.flatnonzero(u == v)
    if later.size == loops.size == 0 and not triangle_free:
        return keys
    kl = keys.tolist()
    count = dict.fromkeys(kl, 1)  # copies of each pair
    for key in keys[later].tolist():
        count[key] += 1
    if triangle_free:
        adj = [set() for _ in range(n)]  # the simple graph of the pairs

        def relink(drop, add):
            for pairs, op in ((drop, set.discard), (add, set.add)):
                for s, t in pairs:
                    if s != t:
                        op(adj[s], t), op(adj[t], s)

        relink((), zip(u.tolist(), v.tolist()))
    draw, get, refusals = rng.integers, count.get, range(SWITCH_REFUSAL_CAP)
    for p in range(len(kl)) if triangle_free else np.sort(np.append(later, loops)).tolist():
        key = kl[p]
        x, y = divmod(key, n)
        if count[key] == 1 and x != y and (not triangle_free or adj[x].isdisjoint(adj[y])):
            continue  # good, or mended by an earlier switch
        row = p - p % block
        for _ in refusals:
            q = row + int(draw(block))
            x2, y2 = divmod(kl[q], n)
            a = x * n + y2 if x < y2 else y2 * n + x
            b = x2 * n + y if x2 < y else y * n + x2
            if get(a) or get(b) or x == y2 or x2 == y:
                continue
            if not triangle_free:
                break
            gone = [divmod(k, n) for k in (key, kl[q]) if count[k] == 1]
            relink(gone, [(x, y2), (x2, y)])
            if adj[x].isdisjoint(adj[y2]) and adj[x2].isdisjoint(adj[y]):
                break
            relink([(x, y2), (x2, y)], gone)
        else:
            msg = f"switch repair refused {SWITCH_REFUSAL_CAP} switches in a row"
            raise DomainError(f"{msg} at the pair ({x}, {y}) (SWITCH_REFUSAL_CAP)")
        count[key] -= 1
        count[kl[q]] -= 1
        count[a] = 1
        count[b] = get(b, 0) + 1  # a == b where two loops meet
        kl[p], kl[q] = a, b
    return np.array(kl, dtype=np.int64)


def gen_random_regular(
    n: int, d: int, seed: int, triangle_free: bool = False
) -> Graph:
    """d-regular simple graph from one pairing of n * d shuffled stubs.

    Loops, repeated edges and, with `triangle_free`, triangle edges are
    repaired by switches between pairs (`_switch_repair`). Without
    `triangle_free`, 2d >= n builds the (n - 1 - d)-regular graph and returns
    its complement. With `triangle_free` and 5d > 2n the graph must be
    bipartite with equal sides, so it is `gen_random_bipartite_regular`'s
    graph of the same seed with its vertices relabelled at random. Gives
    valid (not exactly uniform) samples.
    """
    check_int("n", n, 0, MAX_VERTICES)
    check_int("d", d, 0)
    if d >= max(n, 1) or (n * d) % 2 != 0:
        raise DomainError(f"infeasible degree sequence: n={n}, d={d}")
    msg = f"no triangle-free graph on {n} vertices is {d}-regular"
    if triangle_free and 2 * d > n:
        raise DomainError(f"{msg}: by Mantel's bound it has at most n*n/4 edges")
    if triangle_free and n % 2 and 5 * d > 2 * n:
        raise DomainError(
            f"{msg}: by Andrásfai, Erdős and Sós it would be bipartite, as its"
            " degree passes 2n/5, and a regular bipartite graph has even n"
        )
    check_int("n * d", n * d, 0, ARRAY_MAX)
    if triangle_free and 5 * d > 2 * n:
        sides = gen_random_bipartite_regular(n // 2, d, seed).edges
        relabel = derive_rng(seed, "random-regular-relabel", n, d).permutation(n)
        return _graph_of_pairs(n, relabel[sides])
    rng = derive_rng(seed, "random-regular", n, d)
    k = n - 1 - d if 2 * d >= n > 0 and not triangle_free else d
    stubs = np.repeat(np.arange(n, dtype=np.int64), k)
    rng.shuffle(stubs)
    u, v = stubs.reshape(-1, 2).T
    keys = _switch_repair(np.minimum(u, v), np.maximum(u, v), n, u.size, rng, triangle_free)
    if k < d:
        absent = np.triu(np.ones((n, n), dtype=bool), 1).ravel()
        absent[keys] = False
        keys = np.flatnonzero(absent)
    return _canonical(n, keys)


def gen_random_bipartite_regular(n_side: int, d: int, seed: int) -> Graph:
    """d-regular bipartite graph on n_side + n_side vertices.

    Union of d random perfect matchings between the sides, repeated edges
    repaired by switches within their matching (`_switch_repair`); for
    2d > n_side it is the bipartite complement of such an
    (n_side - d)-regular graph. At most d - 1 partners give a pair's left
    end a neighbour it has and at most d - 1 its right end, the pair itself
    among both, so 2d - 3 < n_side refusals leave a switch. Valid, not
    exactly uniform, samples in O(n_side * d) expected time. Bipartite,
    hence triangle-free, at any degree.
    """
    check_int("n_side", n_side, 0, MAX_VERTICES // 2)
    check_int("d", d, 0)
    if d > n_side:
        raise DomainError(f"infeasible bipartite degree: n_side={n_side}, d={d}")
    check_int("2 * n_side * d", 2 * n_side * d, 0, ARRAY_MAX)
    rng = derive_rng(seed, "random-bipartite-regular", n_side, d)
    n, k = 2 * n_side, min(d, n_side - d)
    left = np.tile(np.arange(n_side, dtype=np.int64), k)
    right = rng.permuted(left.reshape(k, n_side), axis=1).ravel()
    keys = _switch_repair(left, n_side + right, n, n_side, rng)
    if k < d:
        absent = np.tile(np.arange(n) >= n_side, n_side)
        absent[keys] = False
        keys = np.flatnonzero(absent)
    return _canonical(n, keys)


def graph_to_json_dict(g: Graph) -> dict:
    return {"n": g.n, "edges": g.edges.tolist()}


# Edges filled by one %-format call of `canonical_graph_json`.
_EDGES_PER_CALL = 1024
_EDGE = b"    [\n      %d,\n      %d\n    ]"


def canonical_graph_json(g: Graph) -> bytes:
    """The graph document the CLI writes, rendered from the edge array as bytes.

    Equal to `json.dumps(graph_to_json_dict(g), indent=2, sort_keys=True)`
    plus a newline, encoded. Each run of `_EDGES_PER_CALL` edges is filled by
    one bytes %-format, and the pieces are joined once.
    """
    ends = g.edges.ravel()
    if ends.size == 0:
        return b'{\n  "edges": [],\n  "n": %d\n}\n' % g.n
    step = 2 * _EDGES_PER_CALL
    pieces = [b'{\n  "edges": [\n']
    for i in range(0, ends.size, step):
        run = ends[i : i + step].tolist()
        pieces += [b",\n".join([_EDGE] * (len(run) // 2)) % tuple(run), b",\n"]
    # the separator after the last run gives way to the tail
    pieces[-1] = b'\n  ],\n  "n": %d\n}\n' % g.n
    return b"".join(pieces)


def graph_from_json_dict(doc) -> Graph:
    """Read a graph document; ids must be JSON integers, as in cover documents."""
    if not isinstance(doc, dict) or "n" not in doc or "edges" not in doc:
        raise MalformedInputError('graph document needs keys "n" and "edges"')
    if not isinstance(doc["edges"], list):
        raise MalformedInputError('"edges" must be an array')
    n = int(_int_array([doc["n"]], "vertex count n")[0])
    check_int("n", n, 0, MAX_VERTICES)
    return _graph_of_pairs(n, _pair_array(doc["edges"], "edge", "edge endpoints"))


def _dimacs_int(field: str, lineno: int) -> int:
    try:
        return int(field)
    except ValueError:
        msg = f"line {lineno}: {field!r} is not an integer"
        raise MalformedInputError(msg) from None


def parse_dimacs(text: str) -> Graph:
    """Parse a DIMACS-like edge list: "p edge n m" header, "e u v" lines, 1-indexed.

    The header's format word may also be "col", and there is exactly one
    header. m must be a non-negative integer but is not compared with the
    edge lines, since duplicate edges merge.
    """
    n = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if len(parts) != 4:
                raise MalformedInputError(f'line {lineno}: expected "p edge n m"')
            if n is not None:
                raise MalformedInputError(f'line {lineno}: a second "p" header')
            if parts[1] not in ("edge", "col"):
                raise MalformedInputError(
                    f'line {lineno}: format {parts[1]!r} is not "edge" or "col"'
                )
            n, m = (_dimacs_int(part, lineno) for part in parts[2:])
            if n < 0 or m < 0:
                msg = f"line {lineno}: n and m must be non-negative"
                raise MalformedInputError(msg)
        elif parts[0] == "e":
            if len(parts) != 3:
                raise MalformedInputError(f'line {lineno}: expected "e u v"')
            u, v = (_dimacs_int(part, lineno) for part in parts[1:])
            edges.append((u - 1, v - 1))
        else:
            raise MalformedInputError(f"line {lineno}: unknown record {parts[0]!r}")
    if n is None:
        raise MalformedInputError('missing "p edge n m" header')
    return build_graph(n, edges)
