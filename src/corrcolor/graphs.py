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
from .errors import DomainError, MalformedInputError
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
        if not 0 <= v < self.n:
            raise DomainError(f"vertex {v} out of range for n={self.n}")
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


def build_graph(n: int, edges) -> Graph:
    """Validate, deduplicate, and canonicalize an edge list.

    Endpoints that are not integers (1.7, "1") are rejected, not converted.
    Self-loops and out-of-range endpoints are rejected, the first bad edge
    in input order deciding the message; duplicate and reversed edges are
    merged silently. At most MAX_VERTICES vertices.
    """
    if n < 0:
        raise DomainError(f"vertex count must be nonnegative, got {n}")
    if n > MAX_VERTICES:
        raise DomainError(f"vertex count {n} exceeds {MAX_VERTICES}")
    try:
        pairs = np.array(edges, dtype=np.int64)
    except OverflowError:
        raise DomainError(f"an edge endpoint is out of range for n={n}") from None
    except (TypeError, ValueError):
        raise DomainError("edges must be vertex pairs (u, v) of integers") from None
    if pairs.size and np.asarray(edges).dtype.kind not in "iub":
        raise DomainError("edge endpoints must be integers")
    if pairs.size == 0:
        pairs = pairs.reshape(0, 2)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise DomainError("edges must be vertex pairs (u, v)")
    u, v = pairs.T
    bad = (u == v) | (u < 0) | (u >= n) | (v < 0) | (v >= n)
    if bad.any():
        e = int(np.argmax(bad))
        a, b = int(u[e]), int(v[e])
        if a == b:
            raise DomainError(f"self-loop at vertex {a}")
        raise DomainError(f"edge ({a},{b}) out of range for n={n}")
    return _canonical(n, u, v)


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
    if n < 3:
        raise DomainError(f"cycle needs n >= 3, got {n}")
    i = np.arange(n, dtype=np.int64)
    return _canonical(n, i, (i + 1) % n)


def gen_complete_bipartite(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise DomainError("both sides of a complete bipartite graph must be nonempty")
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
    if d < 0 or d >= n or (n * d) % 2 != 0:
        raise DomainError(f"infeasible degree sequence: n={n}, d={d}")
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


def gen_random_bipartite_regular(n_side: int, d: int, seed: int) -> Graph:
    """d-regular bipartite graph on n_side + n_side vertices.

    Union of d perfect matchings between the sides, each built by a random
    greedy pass that avoids already-used edges (restarting just that
    matching when it gets stuck). Bipartite, hence triangle-free, at any
    degree; this is the generator to use when rejection sampling for
    triangle-freeness cannot finish (expected triangle counts grow like d^3).
    """
    if d < 0 or d > n_side:
        raise DomainError(f"infeasible bipartite degree: n_side={n_side}, d={d}")
    rng = derive_rng(seed, "random-bipartite-regular", n_side, d)
    nbrs: list[set[int]] = [set() for _ in range(n_side)]
    for _ in range(d):
        for _ in range(PAIRING_ATTEMPT_CAP):
            order = rng.permutation(n_side)
            free = set(range(n_side))
            match: list[tuple[int, int]] = []
            for i in order:
                i = int(i)
                options = sorted(free - nbrs[i])
                if not options:
                    break
                j = options[int(rng.integers(len(options)))]
                free.discard(j)
                match.append((i, j))
            if len(match) == n_side:
                for i, j in match:
                    nbrs[i].add(j)
                break
        else:
            raise DomainError(
                f"no admissible matching found in {PAIRING_ATTEMPT_CAP} attempts"
                f" (n_side={n_side}, d={d})"
            )
    u = np.repeat(np.arange(n_side, dtype=np.int64), d)
    v = np.fromiter((n_side + j for a in nbrs for j in sorted(a)), np.int64, u.size)
    return Graph(n=2 * n_side, edges=_freeze(np.column_stack([u, v])))


def graph_to_json_dict(g: Graph) -> dict:
    return {"n": g.n, "edges": g.edges.tolist()}


def graph_from_json_dict(doc) -> Graph:
    """Read a graph document; ids must be JSON integers, as in cover documents."""
    if not isinstance(doc, dict) or "n" not in doc or "edges" not in doc:
        raise MalformedInputError('graph document needs keys "n" and "edges"')
    if not isinstance(doc["edges"], list):
        raise MalformedInputError('"edges" must be an array')
    n = int(_int_array([doc["n"]], "vertex count n")[0])
    return build_graph(n, _pair_array(doc["edges"], "edge", "edge endpoints"))


def _dimacs_int(field: str, lineno: int) -> int:
    try:
        return int(field)
    except ValueError:
        msg = f"line {lineno}: {field!r} is not an integer"
        raise MalformedInputError(msg) from None


def parse_dimacs(text: str) -> Graph:
    """Parse a DIMACS-like edge list: "p edge n m" header, "e u v" lines, 1-indexed."""
    n = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if len(parts) < 4:
                raise MalformedInputError(f'line {lineno}: expected "p edge n m"')
            n = _dimacs_int(parts[2], lineno)
        elif parts[0] == "e":
            if len(parts) < 3:
                raise MalformedInputError(f'line {lineno}: expected "e u v"')
            u, v = (_dimacs_int(part, lineno) for part in parts[1:3])
            edges.append((u - 1, v - 1))
        else:
            raise MalformedInputError(f"line {lineno}: unknown record {parts[0]!r}")
    if n is None:
        raise MalformedInputError('missing "p edge n m" header')
    return build_graph(n, edges)
