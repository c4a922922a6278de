"""Color weightings, masses, entropy, and the niceness check.

A weighting assigns every color a value in [0, p_hat]. Vertex mass is the
sum over the vertex's list; edge mass sums products over matched pairs.
"Moderate" colors are those strictly between 0 and the cap; the final
coloring stage only ever uses moderate colors, so the niceness check runs
on moderate masses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import _kernels as kernels
from .covers import Cover
from .errors import DomainError
from .graphs import Graph


@dataclass(frozen=True, eq=False)
class Weighting:
    """Per-color weights plus the cap p_hat.

    Capped weights are stored as exactly p_hat (assigned, never recomputed),
    so cap membership is a bit-exact equality test.
    """

    p: np.ndarray
    p_hat: float

    def __post_init__(self):
        object.__setattr__(self, "p", np.ascontiguousarray(self.p, dtype=np.float64))
        if not 0.0 < self.p_hat < math.inf:
            msg = f"weight cap must be positive and finite, got {self.p_hat}"
            raise DomainError(msg)
        if self.p.size and not (self.p.min() >= 0.0 and self.p.max() <= self.p_hat):
            raise DomainError("weights must lie in [0, p_hat]")

    @property
    def moderate(self) -> np.ndarray:
        return (self.p > 0.0) & (self.p < self.p_hat)

    @property
    def capped(self) -> np.ndarray:
        return self.p == self.p_hat

    @classmethod
    def uniform(cls, cover: Cover, value: float, p_hat: float) -> "Weighting":
        return cls(p=np.full(cover.n_colors, value, dtype=np.float64), p_hat=p_hat)

    @classmethod
    def zeros(cls, cover: Cover, p_hat: float) -> "Weighting":
        return cls(p=np.zeros(cover.n_colors, dtype=np.float64), p_hat=p_hat)


@dataclass(frozen=True)
class ReductRecord:
    """Vertices removed by one step, with the sampled colors that forced them.

    The forced sets are nonempty, pairwise unmatched (they sit inside an
    independent set of sampled colors), and strictly between 0 and the cap
    at recording time, which is what makes later extension valid.
    """

    removed: tuple[int, ...]
    forced: dict[int, tuple[int, ...]] = field(hash=False)


@dataclass(frozen=True, eq=False)
class ReductState:
    """Immutable snapshot: surviving vertices, current weights, removal history.

    The graph and cover are the originals; `alive` masks the surviving
    vertices and weights of removed colors are zeroed. `max_deg` is the
    degree bound parameter (at least the true maximum degree) and `k` the
    uniform list size; both may be None for states used only for masses.
    """

    graph: Graph
    cover: Cover
    weighting: Weighting
    alive: np.ndarray
    history: tuple[ReductRecord, ...] = ()
    max_deg: int | None = None
    k: int | None = None

    @classmethod
    def initial(
        cls,
        graph: Graph,
        cover: Cover,
        weighting: Weighting,
        max_deg: int | None = None,
        k: int | None = None,
    ) -> "ReductState":
        if cover.n_vertices != graph.n:
            raise DomainError("cover and graph disagree on vertex count")
        if weighting.p.size != cover.n_colors:
            raise DomainError("weighting length disagrees with the cover")
        return cls(
            graph=graph,
            cover=cover,
            weighting=weighting,
            alive=np.ones(graph.n, dtype=bool),
            history=(),
            max_deg=max_deg,
            k=k,
        )

    @property
    def n_alive(self) -> int:
        return int(self.alive.sum())

    def alive_vertices(self) -> np.ndarray:
        return np.flatnonzero(self.alive)

    def live_color_mask(self) -> np.ndarray:
        return self.alive[self.cover.owner]

    def live_edge_mask(self) -> np.ndarray:
        return self.alive[self.cover.edge_u] & self.alive[self.cover.edge_v]

    def current_degrees(self) -> np.ndarray:
        """Degree of each vertex within the surviving induced subgraph."""
        ptr, idx = self.graph.csr
        return kernels.mask_counts(ptr, idx, self.alive)

    def with_step(self, weighting, alive, record) -> "ReductState":
        return replace(
            self,
            weighting=weighting,
            alive=alive,
            history=self.history + (record,),
        )

    def _require_alive(self, v: int):
        if not (0 <= v < self.graph.n) or not self.alive[v]:
            raise DomainError(f"vertex {v} is not in the current graph")


# ---------------------------------------------------------------------------
# masses and entropy

def _list_colors(cover: Cover, v: int) -> list[int]:
    """The colors of vertex v, ascending."""
    ptr = cover.vlist_ptr
    return cover.vlist_colors[ptr[v] : ptr[v + 1]].tolist()


def _edge_pairs(cover: Cover, u: int, v: int) -> list[tuple[int, int]]:
    """The matched pairs (x, y) of the vertex pair, x on the lower vertex's side."""
    a, b = (u, v) if u < v else (v, u)
    lo, hi = np.searchsorted(cover.edge_u, [a, a + 1])
    e = lo + int(np.searchsorted(cover.edge_v[lo:hi], b))
    if e == hi or cover.edge_v[e] != b:
        raise DomainError(f"({u},{v}) carries no matching in this cover")
    s, t = cover.edge_ptr[e : e + 2]
    return list(zip(cover.pair_x[s:t].tolist(), cover.pair_y[s:t].tolist()))


def vertex_mass(state: ReductState, v: int) -> float:
    """Sum of weights over the vertex's list."""
    state._require_alive(v)
    p = state.weighting.p
    return float(sum(p[x] for x in _list_colors(state.cover, v)))


def edge_mass(state: ReductState, u: int, v: int) -> float:
    """Sum of weight products over the matched pairs of the edge."""
    state._require_alive(u)
    state._require_alive(v)
    p = state.weighting.p
    return float(sum(p[x] * p[y] for x, y in _edge_pairs(state.cover, u, v)))


def entropy(state: ReductState, v: int) -> float:
    """Sum of p(x) ln(1/p(x)) over the list, with 0 ln(1/0) taken as 0."""
    state._require_alive(v)
    p = state.weighting.p
    total = 0.0
    for x in _list_colors(state.cover, v):
        if p[x] > 0.0:
            total += -p[x] * math.log(p[x])
    return total


def moderate_mass(state: ReductState, v: int) -> float:
    state._require_alive(v)
    p = state.weighting.p
    mod = state.weighting.moderate
    return float(sum(p[x] for x in _list_colors(state.cover, v) if mod[x]))


def moderate_edge_mass(state: ReductState, u: int, v: int) -> float:
    state._require_alive(u)
    state._require_alive(v)
    p = state.weighting.p
    mod = state.weighting.moderate
    pairs = _edge_pairs(state.cover, u, v)
    return float(sum(p[x] * p[y] for x, y in pairs if mod[x] and mod[y]))


def entropy_terms(p: np.ndarray) -> np.ndarray:
    """Elementwise p ln(1/p) with the 0 -> 0 convention."""
    out = np.zeros_like(p)
    pos = p > 0.0
    out[pos] = -p[pos] * np.log(p[pos])
    return out


def vertex_mass_all(cover: Cover, values: np.ndarray) -> np.ndarray:
    """Per-vertex sums of arbitrary per-color values."""
    return kernels.segment_sum(values[cover.vlist_colors], cover.vlist_ptr)


def edge_mass_all(cover: Cover, values: np.ndarray) -> np.ndarray:
    """Per-edge sums of value products over matched pairs (cover edge order)."""
    products = values[cover.pair_x] * values[cover.pair_y]
    return kernels.segment_sum(products, cover.edge_ptr)


def moderate_values(w: Weighting) -> np.ndarray:
    return np.where(w.moderate, w.p, 0.0)


def incident_edge_mass_sums(cover: Cover, per_edge: np.ndarray, n: int) -> np.ndarray:
    """Per-vertex sums of a per-edge quantity over incident edges."""
    acc = np.zeros(n, dtype=np.float64)
    np.add.at(acc, cover.edge_u, per_edge)
    np.add.at(acc, cover.edge_v, per_edge)
    return acc


# ---------------------------------------------------------------------------
# niceness

@dataclass(frozen=True)
class NiceCheck:
    """Outcome of the niceness test.

    delta is the maximal admissible slack (the minimum moderate vertex mass)
    when the check passes, else None with the failing quantity spelled out.
    Passing guarantees, at every surviving vertex, the survival-expectation
    inequality 2 p_m(v)/delta >= 1 + (4/delta^2) * sum of incident moderate
    edge masses.
    """

    delta: float | None
    min_moderate_mass: float
    doubled_max_weight: float
    edge_term: float
    argmin_vertex: int | None
    reason: str | None

    @property
    def ok(self) -> bool:
        return self.delta is not None


def check_nice(state: ReductState) -> NiceCheck:
    """Test the three moderate-mass conditions and return the witness slack."""
    live = state.alive
    if not live.any():
        return NiceCheck(
            delta=None,
            min_moderate_mass=0.0,
            doubled_max_weight=0.0,
            edge_term=0.0,
            argmin_vertex=None,
            reason="no surviving vertices",
        )
    w = state.weighting
    pm = moderate_values(w)
    pm_v = vertex_mass_all(state.cover, pm)
    live_idx = np.flatnonzero(live)
    a_pos = live_idx[np.argmin(pm_v[live_idx])]
    a = float(pm_v[a_pos])

    mod_live = w.moderate & state.live_color_mask()
    b = 2.0 * float(w.p[mod_live].max()) if mod_live.any() else 0.0

    pm_uv = edge_mass_all(state.cover, pm)
    pm_uv = np.where(state.live_edge_mask(), pm_uv, 0.0)
    sums = incident_edge_mass_sums(state.cover, pm_uv, state.graph.n)
    c_pos = live_idx[np.argmax(sums[live_idx])]
    c = 2.0 * math.sqrt(float(sums[c_pos]))

    if a <= 0.0:
        reason = f"vertex {int(a_pos)} has zero moderate mass"
        delta = None
    elif b > a:
        reason = f"a moderate weight exceeds half the minimum moderate mass ({b} > {a})"
        delta = None
    elif c > a:
        reason = (
            f"incident moderate edge mass at vertex {int(c_pos)} is too large"
            f" ({c} > {a})"
        )
        delta = None
    else:
        reason = None
        delta = a
    return NiceCheck(
        delta=delta,
        min_moderate_mass=a,
        doubled_max_weight=b,
        edge_term=c,
        argmin_vertex=int(a_pos),
        reason=reason,
    )


def moderate_restrict(state: ReductState) -> dict[int, tuple[int, ...]]:
    """Per surviving vertex, list colors that are currently moderate.

    Feed to the exact solver's `restrict` to search moderate colorings only.
    """
    mod = state.weighting.moderate
    return {
        int(v): tuple(x for x in _list_colors(state.cover, v) if mod[x])
        for v in state.alive_vertices()
    }
