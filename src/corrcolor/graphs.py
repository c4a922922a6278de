"""Simple undirected graphs: representation, statistics, and generators.

Vertices are dense integer indices 0..n-1. Graphs are immutable after
construction and safe for concurrent reads; generators are pure functions
of (parameters, seed).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, MalformedInputError
from .rng import derive_rng

PAIRING_ATTEMPT_CAP = 10_000


@dataclass(frozen=True, eq=True)
class Graph:
    """Simple graph with canonical edge list (u < v, sorted, deduplicated)."""

    n: int
    edges: tuple[tuple[int, int], ...]

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        nbrs: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        return tuple(tuple(sorted(a)) for a in nbrs)

    @cached_property
    def adjacency_sets(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(a) for a in self.adjacency)

    @cached_property
    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Adjacency as (indptr, indices) int64 arrays, neighbor lists sorted."""
        degs = np.array([len(a) for a in self.adjacency], dtype=np.int64)
        ptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(degs, out=ptr[1:])
        idx = np.fromiter(
            (v for a in self.adjacency for v in a), dtype=np.int64, count=int(ptr[-1])
        )
        return ptr, idx

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    @property
    def m(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adjacency_sets[u]


def build_graph(n: int, edges) -> Graph:
    """Validate, deduplicate, and canonicalize an edge list.

    Self-loops and out-of-range endpoints are rejected; duplicate edges are
    deduplicated silently.
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
    return Graph(n=n, edges=tuple(sorted(canon)))


def average_degree(g: Graph) -> float:
    """2|E|/|V|."""
    if g.n < 1:
        raise DomainError("average degree needs at least one vertex")
    return 2.0 * g.m / g.n


def max_degree(g: Graph) -> int:
    return max((len(a) for a in g.adjacency), default=0) if g.n else 0


def is_triangle_free(g: Graph) -> bool:
    """True iff no three vertices are mutually adjacent."""
    sets = g.adjacency_sets
    for u, v in g.edges:
        if sets[u] & sets[v]:
            return False
    return True


def gen_cycle(n: int) -> Graph:
    if n < 3:
        raise DomainError(f"cycle needs n >= 3, got {n}")
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def gen_complete_bipartite(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise DomainError("both sides of a complete bipartite graph must be nonempty")
    return build_graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def _pairing_attempt(n: int, d: int, rng: np.random.Generator):
    stubs = np.repeat(np.arange(n), d)
    rng.shuffle(stubs)
    edges = set()
    for i in range(0, len(stubs), 2):
        u, v = int(stubs[i]), int(stubs[i + 1])
        if u == v:
            return None
        e = (u, v) if u < v else (v, u)
        if e in edges:
            return None
        edges.add(e)
    return edges


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
        edges = _pairing_attempt(n, d, rng)
        if edges is None:
            continue
        g = Graph(n=n, edges=tuple(sorted(edges)))
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
    edges = [(i, n_side + j) for i in range(n_side) for j in sorted(nbrs[i])]
    return Graph(n=2 * n_side, edges=tuple(sorted(edges)))


def graph_to_json_dict(g: Graph) -> dict:
    return {"n": g.n, "edges": [[u, v] for u, v in g.edges]}


def graph_from_json_dict(doc) -> Graph:
    if not isinstance(doc, dict) or "n" not in doc or "edges" not in doc:
        raise MalformedInputError('graph document needs keys "n" and "edges"')
    try:
        return build_graph(int(doc["n"]), [(int(u), int(v)) for u, v in doc["edges"]])
    except (TypeError, ValueError) as exc:
        raise MalformedInputError(f"bad graph document: {exc}") from exc


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
            n = int(parts[2])
        elif parts[0] == "e":
            if len(parts) < 3:
                raise MalformedInputError(f'line {lineno}: expected "e u v"')
            edges.append((int(parts[1]) - 1, int(parts[2]) - 1))
        else:
            raise MalformedInputError(f"line {lineno}: unknown record {parts[0]!r}")
    if n is None:
        raise MalformedInputError('missing "p edge n m" header')
    return build_graph(n, edges)
