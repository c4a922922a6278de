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

PAIRING_ATTEMPT_CAP = 10_000
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


def _canonical(n: int, u: np.ndarray, v: np.ndarray) -> Graph:
    """The graph on n vertices of the edges (u[i], v[i]), all of them valid."""
    # Sorted distinct keys without np.unique, which imports numpy.ma.
    keys = np.sort(np.minimum(u, v) * n + np.maximum(u, v))
    keys = keys[np.diff(keys, prepend=-1) != 0]
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
    return _canonical(n, u, v)


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
    return _canonical(n, i, (i + 1) % n)


def gen_complete_bipartite(a: int, b: int) -> Graph:
    check_int("a", a, 1, MAX_VERTICES)
    check_int("b", b, 1, MAX_VERTICES)
    check_int("a + b", a + b, 2, MAX_VERTICES)
    check_int("2 * a * b", 2 * a * b, 2, ARRAY_MAX)
    u, v = np.divmod(np.arange(a * b, dtype=np.int64), b)
    return _canonical(a + b, u, a + v)


def _pairing_attempt(n: int, d: int, rng: np.random.Generator) -> Graph | None:
    """One pairing of n*d shuffled stubs, or None on a loop or a repeated edge."""
    stubs = np.repeat(np.arange(n, dtype=np.int64), d)
    rng.shuffle(stubs)
    u, v = stubs.reshape(-1, 2).T
    if (u == v).any():
        return None
    g = _canonical(n, u, v)
    return g if g.m == u.size else None


def gen_random_regular(
    n: int, d: int, seed: int, triangle_free: bool = False
) -> Graph:
    """d-regular simple graph via the pairing model.

    Resamples from scratch on any loop or repeated edge; with
    `triangle_free`, additionally resamples until the result has no
    triangle. Gives valid (not exactly uniform) samples.
    """
    check_int("n", n, 0, MAX_VERTICES)
    check_int("d", d, 0)
    if d >= n or (n * d) % 2 != 0:
        raise DomainError(f"infeasible degree sequence: n={n}, d={d}")
    check_int("n * d", n * d, 0, ARRAY_MAX)
    rng = derive_rng(seed, "random-regular", n, d)
    for _ in range(PAIRING_ATTEMPT_CAP):
        g = _pairing_attempt(n, d, rng)
        if g is None:
            continue
        if triangle_free and not is_triangle_free(g):
            continue
        return g
    raise DomainError(
        f"no admissible pairing found in {PAIRING_ATTEMPT_CAP} attempts (n={n}, d={d},"
        f" triangle_free={triangle_free})"
    )


def _matching_keys(n: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """Keys i * n + j of a simple d-regular bipartite graph, 2d <= n + 2.

    Row t of a table of d random permutations matches i with sigma_t(i).
    A stable sort of the keys finds every later copy of a repeated edge;
    each is repaired by swapping sigma_t(i) with the sigma_t(i2) of a
    random i2 whose two new edges are both absent. At most d - 1 values of
    i2 give i a neighbour it has and at most d - 1 give sigma_t(i) one,
    i2 = i among both, so 2d - 3 < n refusals leave a choice.
    """
    left = np.tile(np.arange(n, dtype=np.int64), d)
    right = rng.permuted(left.reshape(d, n), axis=1).ravel()
    keys = left * n + right
    order = np.argsort(keys, kind="stable")
    later = order[1:][keys[order[1:]] == keys[order[:-1]]]
    if later.size == 0:
        return keys
    count = dict.fromkeys(keys.tolist(), 1)  # copies of each edge
    for key in keys[later].tolist():
        count[key] += 1
    right = right.tolist()
    for p in np.sort(later).tolist():
        i, row = p % n, p - p % n  # row: where p's matching starts
        key = i * n + right[p]
        if count[key] == 1:
            continue  # an earlier swap took away a copy of this edge
        while True:
            q = row + int(rng.integers(n))
            a, b = i * n + right[q], (q - row) * n + right[p]
            if q != p and not count.get(a) and not count.get(b):
                break
        count[key] -= 1
        count[(q - row) * n + right[q]] -= 1
        count[a] = count[b] = 1
        right[p], right[q] = right[q], right[p]
    return left * n + np.array(right, dtype=np.int64)


def gen_random_bipartite_regular(n_side: int, d: int, seed: int) -> Graph:
    """d-regular bipartite graph on n_side + n_side vertices.

    Union of d random perfect matchings between the sides, repeated edges
    repaired by switches within their matching (`_matching_keys`, after
    McKay & Wormald's switchings); for 2d > n_side it is the bipartite
    complement of such an (n_side - d)-regular graph. Valid, not exactly
    uniform, samples in O(n_side * d) expected time. Bipartite, hence
    triangle-free, at any degree; this is the generator to use when
    rejection sampling for triangle-freeness cannot finish (expected
    triangle counts grow like d^3).
    """
    check_int("n_side", n_side, 0, MAX_VERTICES // 2)
    check_int("d", d, 0)
    if d > n_side:
        raise DomainError(f"infeasible bipartite degree: n_side={n_side}, d={d}")
    check_int("2 * n_side * d", 2 * n_side * d, 0, ARRAY_MAX)
    rng = derive_rng(seed, "random-bipartite-regular", n_side, d)
    if 2 * d <= n_side:
        keys = _matching_keys(n_side, d, rng)
    else:
        absent = np.ones(n_side * n_side, dtype=bool)
        absent[_matching_keys(n_side, n_side - d, rng)] = False
        keys = np.flatnonzero(absent)
    u, v = np.divmod(keys, n_side)
    return _canonical(2 * n_side, u, n_side + v)


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
