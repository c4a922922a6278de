"""Color weightings, masses, entropy, and the niceness check.

A weighting assigns every color a value in [0, p_hat]. Masses are computed
for all vertices or all cover edges at once from one per-color array, each
by `_kernels.segment_sum`: `vertex_mass_all` sums it over each vertex's
list; `edge_mass_all` sums its products over each edge's matched pairs, in
cover edge order, and `live_edge_mass` does so only at the edges between
surviving vertices, with the same bits. Given `moderate_values(w)` they
yield the moderate masses. "Moderate" colors are those strictly between 0
and the cap; the final coloring stage only ever uses moderate colors, so the
niceness check runs on moderate masses.

`state_stats` computes p(v), the entropy Q(v), the degrees among survivors
and p(uv), the masses at survivors only and 0 elsewhere. Its one caller is
`ReductState.stats`, which computes them on first read: a state's
statistics come from its own weights and survivors, never from the step
that made it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import _kernels as kernels
from ._arrays import _segment_entries
from .covers import Cover
from .errors import DomainError, check_real
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
        check_real("p_hat", self.p_hat, 0, lo_open=True)
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
        check_real("value", value)
        return cls(p=np.full(cover.n_colors, value, dtype=np.float64), p_hat=p_hat)

    @classmethod
    def zeros(cls, cover: Cover, p_hat: float) -> "Weighting":
        return cls(p=np.zeros(cover.n_colors, dtype=np.float64), p_hat=p_hat)


@dataclass(frozen=True, eq=False)
class ReductState:
    """Immutable snapshot: surviving vertices, current weights, removal history.

    The graph and cover are the originals; `alive` masks the surviving
    vertices and weights of removed colors are zeroed. `max_deg` is the
    degree bound parameter (at least the true maximum degree) and `k` the
    uniform list size; both may be None for states used only by `check_nice`.
    Each `history` entry maps the vertices one step removed to the color each
    keeps: the lowest of its sampled colors, all of which were unhit, so the
    kept colors are pairwise unmatched and strictly between 0 and the cap.
    """

    graph: Graph
    cover: Cover
    weighting: Weighting
    alive: np.ndarray
    history: tuple[dict[int, int], ...] = ()
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
        """Colors in the list of a surviving vertex; an id in no list is not live."""
        return self.cover.colors_of(self.alive)

    def live_edge_mask(self) -> np.ndarray:
        return self.alive[self.cover.edge_u] & self.alive[self.cover.edge_v]

    @cached_property
    def stats(self) -> tuple[np.ndarray, ...]:
        """`state_stats` of this state; a cache, so `replace` never copies it."""
        return state_stats(self.graph, self.cover, self.weighting.p, self.alive)

    def with_step(self, weighting, alive, record) -> "ReductState":
        history = self.history + (record,)
        return replace(self, weighting=weighting, alive=alive, history=history)


# ---------------------------------------------------------------------------
# masses and entropy

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


def live_edge_mass(cover: Cover, values: np.ndarray, alive: np.ndarray) -> np.ndarray:
    """`edge_mass_all` at the edges whose two ends are in `alive`, 0 elsewhere.

    Reads only the pairs of those edges, and each live value is bit for bit
    that of `edge_mass_all`, as `segment_sum` guarantees.
    """
    live = alive[cover.edge_u] & alive[cover.edge_v]
    if live.all():
        return edge_mass_all(cover, values)
    edges = np.flatnonzero(live)
    pairs = _segment_entries(cover.edge_ptr, edges)
    products = values[cover.pair_x[pairs]] * values[cover.pair_y[pairs]]
    return kernels.segment_sum(products, cover.edge_ptr, edges)


def state_stats(
    graph: Graph, cover: Cover, p: np.ndarray, alive: np.ndarray
) -> tuple[np.ndarray, ...]:
    """p(v), Q(v), degree among `alive` and p(uv), in that order.

    The masses are summed at the survivors only: p(v) and Q(v) over the
    lists of the vertices in `alive`, p(uv) at the edges whose two ends are
    in `alive`, each 0 elsewhere.
    """
    vertices = np.flatnonzero(alive)
    ptr = cover.vlist_ptr
    p_live = p[cover.vlist_colors[_segment_entries(ptr, vertices)]]
    return (
        kernels.segment_sum(p_live, ptr, vertices),
        kernels.segment_sum(entropy_terms(p_live), ptr, vertices),
        kernels.mask_counts(*graph.csr, alive),
        live_edge_mass(cover, p, alive),
    )


def moderate_values(w: Weighting) -> np.ndarray:
    return np.where(w.moderate, w.p, 0.0)


# ---------------------------------------------------------------------------
# niceness

@dataclass(frozen=True)
class NiceCheck:
    """Outcome of the niceness test.

    delta is the maximal admissible slack (the minimum moderate vertex mass)
    when the check passes, else None with the failing quantity spelled out.
    Passing guarantees 4 sum_u p_m(uv) <= delta^2 at every surviving vertex,
    the local-lemma bound that `final_color` rests on.
    """

    delta: float | None
    min_moderate_mass: float
    edge_term: float
    argmin_vertex: int | None
    reason: str | None

    @property
    def ok(self) -> bool:
        return self.delta is not None


def check_nice(state: ReductState) -> NiceCheck:
    """Test the moderate-mass conditions 0 < a and c <= a; return the slack a."""
    live = state.alive
    if not live.any():
        return NiceCheck(
            delta=None,
            min_moderate_mass=0.0,
            edge_term=0.0,
            argmin_vertex=None,
            reason="no surviving vertices",
        )
    pm = moderate_values(state.weighting)
    pm_v = vertex_mass_all(state.cover, pm)
    live_idx = np.flatnonzero(live)
    a_pos = live_idx[np.argmin(pm_v[live_idx])]
    a = float(pm_v[a_pos])

    pm_uv = live_edge_mass(state.cover, pm, live)
    # Two passes in this order fix the rounding of each vertex's sum.
    sums = np.zeros(state.graph.n, dtype=np.float64)
    np.add.at(sums, state.cover.edge_u, pm_uv)
    np.add.at(sums, state.cover.edge_v, pm_uv)
    c_pos = live_idx[np.argmax(sums[live_idx])]
    c = 2.0 * math.sqrt(float(sums[c_pos]))

    if a <= 0.0:
        reason = f"vertex {int(a_pos)} has zero moderate mass"
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
        edge_term=c,
        argmin_vertex=int(a_pos),
        reason=reason,
    )


def moderate_restrict(state: ReductState) -> dict[int, tuple[int, ...]]:
    """Per surviving vertex, list colors that are currently moderate.

    Feed to the exact solver's `restrict` to search moderate colorings only.
    """
    mod = state.weighting.moderate
    ptr, colors = state.cover.vlist_ptr, state.cover.vlist_colors
    return {
        int(v): tuple(x for x in colors[ptr[v] : ptr[v + 1]].tolist() if mod[x])
        for v in state.alive_vertices()
    }
