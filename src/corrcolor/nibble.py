"""The randomized nibble: weight-update steps, schedules, and the final coloring.

One step samples a small random set of colors, removes the vertices whose
sampled colors are pairwise unmatched (they keep those colors for later
extension), zeroes the weights of colors that were hit, and rescales the
survivors so every color's expected weight is exactly preserved. Iterating
drives degrees down until the niceness conditions hold, at which point a
single randomized rounding pass colors what is left and the removal history
replays the rest.

Randomized existence arguments are replaced throughout by bounded
resampling with explicit budgets and full failure reports.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import _kernels as kernels
from ._arrays import _ptr, _ranges
from .covers import Cover, validate_cover
from .errors import (
    DomainError,
    HypothesisViolationError,
    InternalConsistencyError,
    IstarInfeasibleError,
)
from .graphs import Graph, is_triangle_free, max_degree
from .rng import check_seed, derive_int_seed, derive_rng
from .solver import check_coloring, coloring_to_json
from .weights import (
    ReductRecord,
    ReductState,
    Weighting,
    check_nice,
    moderate_values,
    state_stats,
    vertex_mass_all,
)

# ---------------------------------------------------------------------------
# parameters

# The analysis fixes these; they are not tuning knobs. The deviation
# exponents apply to the degree bound parameter `max_deg`.
PHAT_EXP = 11.0 / 12.0
ENTROPY_SLACK = 1.0 / 40.0
HYP_VERTEX_DEV_EXP = 1.0 / 10.0
DEV_VERTEX_EXP = 1.0 / 6.0
DEV_EDGE_EXP = 1.0 / 3.0
DEV_ENTROPY_EXP = 1.0 / 6.0
DEV_DEGREE_EXP = 2.0 / 3.0
EDGE_MASS_CAP_FACTOR = math.sqrt(2.0)
NICENESS_TARGET_FACTOR = (3.0 / 5.0) ** 2 * 0.25 / math.sqrt(2.0)
ISTAR_CAP = 10**6


@dataclass(frozen=True)
class NibbleParams:
    """The six values on which the two presets differ.

    Defaults reproduce the analysis; `relaxed_params` widens the per-step
    tolerances and shrinks the list-size constant so the machinery is
    exercisable on desk-scale graphs. `tol_scale` multiplies all four
    per-step tolerances. The analysis' fixed exponents and factors are the
    module constants above.
    """

    ck: float = 120.0
    shrink_factor: float = 2.0 / 3.0
    tol_scale: float = 1.0
    max_retries_per_step: int = 20
    max_final_retries: int = 200
    max_steps: int = 200

    def __post_init__(self):
        for name in ("ck", "shrink_factor", "tol_scale"):
            # False for NaN as well as for values out of range.
            if not 0.0 < getattr(self, name) < math.inf:
                raise DomainError(f"{name} must be positive and finite")
        for name in ("max_retries_per_step", "max_final_retries", "max_steps"):
            if getattr(self, name) < 1:
                raise DomainError(f"{name} must be at least 1")

    def k_for(self, max_deg: int) -> int:
        return math.ceil(self.ck * max_deg / math.log(max_deg))

    def p_hat_for(self, max_deg: int) -> float:
        return max_deg ** (-PHAT_EXP)

    def dev_vertex(self, max_deg: int) -> float:
        return self.tol_scale * max_deg ** (-DEV_VERTEX_EXP)

    def dev_edge(self, max_deg: int, k: int) -> float:
        return self.tol_scale * max_deg ** (-DEV_EDGE_EXP) / k

    def dev_entropy(self, max_deg: int) -> float:
        return self.tol_scale * math.log(max_deg) * max_deg ** (-DEV_ENTROPY_EXP)

    def dev_degree(self, max_deg: int) -> float:
        return self.tol_scale * max_deg ** DEV_DEGREE_EXP

    def shrink(self, max_deg: int) -> float:
        return self.shrink_factor / math.log(max_deg)

    def edge_mass_cap(self, k: int) -> float:
        return EDGE_MASS_CAP_FACTOR / k

    def niceness_target(self, k: int) -> float:
        return NICENESS_TARGET_FACTOR * k


def paper_params(**overrides) -> NibbleParams:
    return NibbleParams(**overrides)


def relaxed_params(**overrides) -> NibbleParams:
    """Desk-scale preset: smaller lists, wider tolerances, bigger budgets."""
    defaults = dict(
        ck=6.2,
        shrink_factor=1.0 / 3.0,
        tol_scale=4.0,
        max_retries_per_step=25,
        max_final_retries=300,
        max_steps=80,
    )
    defaults.update(overrides)
    return NibbleParams(**defaults)


# ---------------------------------------------------------------------------
# one randomized step


@dataclass(frozen=True, eq=False)
class StepStats:
    """Post-step quantities evaluated over the whole pre-step graph.

    Updated weights are defined for every color, so masses, entropy, and
    surviving-neighbor counts are reported for removed vertices too; target
    checks then restrict to survivors. p(uv) is 0 at an edge that had a
    removed end before the step.
    """

    post_alive: np.ndarray
    p_v: np.ndarray
    q_v: np.ndarray
    d_v: np.ndarray
    p_uv: np.ndarray
    p_prime: np.ndarray
    sampled: np.ndarray
    removed: tuple[int, ...]


def _resolve_alpha(state: ReductState, alpha: float | None) -> float:
    if alpha is None:
        if state.max_deg is None:
            raise DomainError("state has no degree bound; pass alpha explicitly")
        if state.max_deg < 2:
            raise DomainError("degree bound must be at least 2")
        alpha = 1.0 / math.log(state.max_deg)
    # False for NaN as well as for values out of range.
    if not 0.0 < alpha < math.inf:
        raise DomainError(f"alpha must be positive and finite, got {alpha}")
    if alpha * state.weighting.p_hat > 1.0:
        raise DomainError(
            "alpha * p_hat exceeds 1; sampling probabilities would be invalid"
        )
    return alpha


def reduct_step(
    state: ReductState, seed: int, alpha: float | None = None
) -> tuple[ReductState, StepStats]:
    """Run one randomized weight-update step; pure in (state, seed, alpha).

    Colors at the cap are frozen. Every other color joins the sampled set S
    independently with probability alpha * p(x). A color with no sampled
    matched neighbor is rescaled by its survival product (clamped to the
    cap); a hit color drops to zero, except that a color whose rescaled
    value would overshoot the cap is instead promoted to the cap with
    exactly the probability that preserves its expectation. Vertices whose
    sampled colors are all unhit leave the graph, carrying those colors.
    """
    alpha = _resolve_alpha(state, alpha)
    cover = state.cover
    vlist_ptr, vlist_colors = cover.vlist_ptr, cover.vlist_colors
    w = state.weighting
    rng = derive_rng(seed, "reduct-step")
    u_sample = rng.random(cover.n_colors)
    u_promote = rng.random(cover.n_colors)
    p_prime, in_s, s_count, _k_factor = kernels.reduct_core(
        w.p, w.p_hat, alpha, *cover.arrays, u_sample, u_promote
    )
    hit = s_count > 0
    sampled_per_vertex = kernels.mask_counts(vlist_ptr, vlist_colors, in_s)
    hit_sampled_per_vertex = kernels.mask_counts(
        vlist_ptr, vlist_colors, in_s & hit
    )
    removed_mask = state.alive & (sampled_per_vertex > 0) & (hit_sampled_per_vertex == 0)
    removed = tuple(int(v) for v in np.flatnonzero(removed_mask))
    forced = {}
    for v in removed:
        colors = vlist_colors[vlist_ptr[v] : vlist_ptr[v + 1]]
        forced[v] = tuple(colors[in_s[colors]].tolist())
    record = ReductRecord(removed=removed, forced=forced)

    post_alive = state.alive & ~removed_mask
    new_p = p_prime.copy()
    # An id in no list (owner -1) belongs to no removed vertex.
    owner = cover.owner
    new_p[removed_mask[owner] & (owner >= 0)] = 0.0
    # p(uv) over the pre-step graph, where a step preserves its expectation
    p_v, q_v, d_v, p_uv = state_stats(
        state.graph, cover, p_prime, post_alive, state.alive
    )
    # In the new weights only a removed vertex's colors differ from p_prime
    # (they are 0), so these are the new state's statistics exactly once
    # zeroed at removed vertices and their edges; degrees need no change.
    new_p_v, new_q_v = np.where(removed_mask, 0.0, (p_v, q_v))
    gone = removed_mask[cover.edge_u] | removed_mask[cover.edge_v]
    carried = (new_p_v, new_q_v, d_v, np.where(gone, 0.0, p_uv))
    new_state = state.with_step(Weighting(new_p, w.p_hat), post_alive, record, carried)
    stats = StepStats(post_alive, p_v, q_v, d_v, p_uv, p_prime, in_s, removed)
    return new_state, stats


def expected_pprime(state: ReductState, x: int, alpha: float | None = None) -> float:
    """Closed-form expectation of the updated weight of color x.

    Evaluates the case split literally (survival product times the clamped
    rescale, plus the promotion branch); algebra makes it collapse to p(x),
    which the tests verify numerically to 1e-12 relative error.
    """
    alpha = _resolve_alpha(state, alpha)
    w = state.weighting
    p, p_hat = w.p, w.p_hat
    if not (0 <= x < state.cover.n_colors):
        raise DomainError(f"color id {x} out of range")
    if p[x] == p_hat:
        return p_hat
    capped = w.capped
    nbr_ptr, nbr_idx = state.cover.arrays
    k_x = 1.0
    for y in nbr_idx[nbr_ptr[x] : nbr_ptr[x + 1]].tolist():
        if not capped[y]:
            k_x *= 1.0 - alpha * p[y]
    ratio = p[x] / k_x
    if ratio <= p_hat:
        return k_x * min(ratio, p_hat)
    if not k_x < 1.0:
        raise InternalConsistencyError("promotion branch reached with K(x) >= 1")
    q = (p[x] / p_hat - k_x) / (1.0 - k_x)
    return k_x * p_hat + (1.0 - k_x) * q * p_hat


# ---------------------------------------------------------------------------
# per-step target checks


@dataclass(frozen=True)
class TargetCheck:
    ok: bool
    violations: tuple[tuple[str, int, float, float], ...]


def check_reduct_targets(
    old_state: ReductState, stats: StepStats, params: NibbleParams
) -> TargetCheck:
    """Verify the four per-step conclusions on survivors.

    Vertex mass stays within dev_vertex of its old value; edge mass grows by
    at most dev_edge; entropy loses at most 2 deg/(k ln D) plus dev_entropy;
    the surviving degree is at most the shrunken old degree plus dev_degree.
    Degrees mean degrees in the graph at the start of the step.
    """
    if old_state.max_deg is None or old_state.k is None:
        raise DomainError("target checks need the state's max_deg and k")
    dmax, k = old_state.max_deg, old_state.k
    ln_d = math.log(dmax)
    cover = old_state.cover
    old_p_v, old_q_v, old_deg, old_p_uv = old_state.stats

    tol_v = params.dev_vertex(dmax)
    tol_e = params.dev_edge(dmax, k)
    tol_q = params.dev_entropy(dmax)
    tol_d = params.dev_degree(dmax)
    shrink = params.shrink(dmax)

    alive = stats.post_alive
    dv = np.abs(stats.p_v - old_p_v)
    q_floor = old_q_v - 2.0 * old_deg / (k * ln_d) - tol_q
    d_ceil = old_deg * (1.0 - shrink) + tol_d
    bad_v = alive & (dv > tol_v)
    bad_q = alive & (stats.q_v < q_floor)
    bad_d = alive & (stats.d_v > d_ceil)
    violations = []
    for v in np.flatnonzero(bad_v | bad_q | bad_d).tolist():
        if bad_v[v]:
            violations.append(("vertex-mass", v, float(dv[v]), float(tol_v)))
        if bad_q[v]:
            violations.append(("entropy", v, float(stats.q_v[v]), float(q_floor[v])))
        if bad_d[v]:
            violations.append(("degree", v, float(stats.d_v[v]), float(d_ceil[v])))
    ceil_e = old_p_uv + tol_e
    bad_e = alive[cover.edge_u] & alive[cover.edge_v] & (stats.p_uv > ceil_e)
    for e in np.flatnonzero(bad_e).tolist():
        violations.append(("edge-mass", e, float(stats.p_uv[e]), float(ceil_e[e])))
    return TargetCheck(ok=not violations, violations=tuple(violations))


def check_reduct_hypotheses(state: ReductState, params: NibbleParams) -> dict:
    """Diagnostic: do the step analysis' entry conditions currently hold?

    Reported, never enforced; desk-scale runs routinely violate them while
    the step itself keeps working.
    """
    if state.max_deg is None or state.k is None:
        raise DomainError("hypothesis checks need the state's max_deg and k")
    dmax, k = state.max_deg, state.k
    live_idx = state.alive_vertices()
    p_v, q_v, _, p_uv = state.stats
    live_edges = state.live_edge_mask()
    supp = state.weighting.p[state.live_color_mask()]
    report = {
        "vertex_mass_ok": bool(
            live_idx.size == 0
            or np.max(np.abs(p_v[live_idx] - 1.0)) <= dmax ** (-HYP_VERTEX_DEV_EXP)
        ),
        "edge_mass_ok": bool(
            not live_edges.any()
            or float(p_uv[live_edges].max()) <= params.edge_mass_cap(k)
        ),
        "entropy_ok": bool(
            live_idx.size == 0
            or float(q_v[live_idx].min())
            >= math.log(k) - ENTROPY_SLACK * math.log(dmax)
        ),
        "support_ok": bool(np.all((supp == 0.0) | (supp >= 1.0 / k - 1e-15))),
    }
    return report


# ---------------------------------------------------------------------------
# iteration schedule


def compute_istar(max_deg: int, params: NibbleParams) -> int:
    """Least i with max_deg (1-shrink)^i + i dev_degree <= the niceness target.

    The left side is convex in i, so the scan stops as soon as it starts
    growing while still above the target; small degree bounds where the
    additive term outgrows the target raise IstarInfeasibleError.
    """
    if max_deg < 3:
        raise DomainError(f"degree bound must be at least 3, got {max_deg}")
    k = params.k_for(max_deg)
    target = params.niceness_target(k)
    shrink = params.shrink(max_deg)
    dev = params.dev_degree(max_deg)
    prev = math.inf
    for i in range(ISTAR_CAP + 1):
        lhs = max_deg * (1.0 - shrink) ** i + i * dev
        if lhs <= target:
            return i
        if lhs > prev:
            raise IstarInfeasibleError(
                f"no iteration count works for max_deg={max_deg}: the left side"
                f" bottoms out at {prev:.6g} > target {target:.6g}"
            )
        prev = lhs
    raise IstarInfeasibleError(
        f"no iteration count up to {ISTAR_CAP} works for max_deg={max_deg}"
    )


# ---------------------------------------------------------------------------
# final coloring and extension


def final_color(
    state: ReductState, delta: float, seed: int, max_retries: int
) -> tuple[dict[int, int] | None, int]:
    """Randomized rounding over moderate colors, resampled up to max_retries.

    Each round includes every live moderate color independently with
    probability 2 p(x)/delta, then discards both endpoints of every matched
    pair that was jointly included. If every surviving vertex retains a
    color, the lowest id per vertex is returned. Returns (coloring, rounds)
    or (None, max_retries) when the budget runs out.

    A round draws one uniform per color id, so the stream does not depend on
    which colors are eligible, but it reads only the eligible (live,
    moderate) colors and the matched pairs among them, compacted once per
    call. The cover must pass `validate_cover`, as `run_nibble` checks: a
    color in two lists would be one color with two holders.
    """
    if not 0.0 < delta < math.inf:
        raise DomainError(f"delta must be positive and finite, got {delta}")
    w = state.weighting
    cover = state.cover
    eligible = w.moderate & state.live_color_mask()
    probs = np.where(eligible, 2.0 * w.p / delta, 0.0)
    if probs.size and probs.max() > 1.0:
        raise DomainError(
            "inclusion probability exceeds 1; delta is not a valid niceness slack"
        )
    n_alive = state.n_alive
    # The eligible colors in list order, so each holder's colors are
    # consecutive and ascending, and the matched pairs among them as a CSR
    # over their positions.
    slots = np.flatnonzero(eligible[cover.vlist_colors])
    ids = cover.vlist_colors[slots]
    holders = np.searchsorted(cover.vlist_ptr, slots, side="right") - 1
    probs = probs[ids]
    local = np.full(cover.n_colors, -1, dtype=np.int64)
    local[ids] = np.arange(ids.size)
    nbr_ptr, nbr_idx = cover.arrays
    starts = nbr_ptr[ids]
    sizes = nbr_ptr[ids + 1] - starts
    nbrs = local[nbr_idx[_ranges(starts, sizes)]]
    kept = nbrs >= 0
    sub_ptr = _ptr(kept)[_ptr(sizes)]
    sub_idx = nbrs[kept]
    for attempt in range(1, max_retries + 1):
        rng = derive_rng(seed, "final-color", attempt)
        included = rng.random(cover.n_colors)[ids] < probs
        blocked = kernels.mask_counts(sub_ptr, sub_idx, included) > 0
        # Survivors are live colors, so the round succeeds when the number of
        # vertices holding one is the number of live vertices.
        survivors = np.flatnonzero(included & ~blocked)
        owners = holders[survivors]
        lowest = np.ones(survivors.size, dtype=bool)
        lowest[1:] = owners[1:] != owners[:-1]
        if int(lowest.sum()) == n_alive:
            picks = ids[survivors[lowest]].tolist()
            return dict(zip(owners[lowest].tolist(), picks)), attempt
    return None, max_retries


def extend_coloring(
    inner: dict[int, int], history: tuple[ReductRecord, ...]
) -> dict[int, int]:
    """Replay removal records newest-first, adding one forced color per vertex.

    Forced sets may hold several colors; the lowest id is used, which keeps
    exactly one color per vertex.
    """
    out = dict(inner)
    for record in reversed(history):
        for v in record.removed:
            if v in out:
                raise InternalConsistencyError(
                    f"vertex {v} colored both inside and by a removal record"
                )
            if not record.forced[v]:
                raise InternalConsistencyError(f"empty forced set for vertex {v}")
            out[v] = min(record.forced[v])
    return out


def degree_expectation_bound(
    state: ReductState,
    p1: float,
    p2: float,
    edge_cap: float,
    alpha: float | None = None,
) -> dict[int, float]:
    """Per-vertex upper bound deg(v) (1 - alpha p1 + alpha^2 (p2^2 + cap D)).

    Recomputes the hypotheses (moderate masses within [p1, p2], edge masses
    at most edge_cap over the surviving graph) and refuses to emit bounds
    that would not be justified.
    """
    alpha = _resolve_alpha(state, alpha)
    if state.max_deg is None:
        raise DomainError("degree bound needs the state's max_deg")
    tol = 1e-12
    pm_v = vertex_mass_all(state.cover, moderate_values(state.weighting))
    live_idx = state.alive_vertices()
    if live_idx.size:
        lo, hi = float(pm_v[live_idx].min()), float(pm_v[live_idx].max())
        if lo < p1 - tol or hi > p2 + tol:
            raise HypothesisViolationError(
                f"moderate masses span [{lo}, {hi}], outside [{p1}, {p2}]"
            )
    _, _, degs, p_uv = state.stats
    live_edges = state.live_edge_mask()
    if live_edges.any() and float(p_uv[live_edges].max()) > edge_cap + tol:
        raise HypothesisViolationError(
            f"an edge mass exceeds the stated cap {edge_cap}"
        )
    factor = 1.0 - alpha * p1 + alpha**2 * (p2**2 + edge_cap * state.max_deg)
    return {int(v): float(degs[v] * factor) for v in live_idx}


# ---------------------------------------------------------------------------
# the driver


@dataclass(frozen=True)
class TrajectoryRow:
    step: int
    min_pv: float
    max_pv: float
    min_Q: float
    max_deg: int
    removed: int
    retries: int

    def to_json_dict(self) -> dict:
        return asdict(self)


CSV_HEADER = ",".join(f.name for f in fields(TrajectoryRow))


@dataclass(frozen=True, eq=False)
class NibbleResult:
    """Outcome of a full run: a coloring or a distinctly labelled failure.

    status is one of "success", "step-retries-exhausted", "not-nice",
    "final-color-exhausted". The trajectory always covers every committed
    step, so failures are diagnosable.
    """

    status: str
    coloring: dict[int, int] | None
    mode: str
    istar: int | None
    steps: int
    trajectory: tuple[TrajectoryRow, ...]
    nice_delta: float | None
    final_attempts: int
    k: int
    max_deg: int
    seed: int
    detail: str | None

    @property
    def ok(self) -> bool:
        return self.status == "success"

    def to_json_dict(self) -> dict:
        return {**asdict(self), "coloring": coloring_to_json(self.coloring)}


def _trajectory_row(step: int, stats: StepStats, retries: int) -> TrajectoryRow:
    live = np.flatnonzero(stats.post_alive)
    if live.size:
        min_pv = float(stats.p_v[live].min())
        max_pv = float(stats.p_v[live].max())
        min_Q = float(stats.q_v[live].min())
        max_deg = int(stats.d_v[live].max())
    else:
        min_pv = max_pv = min_Q = 0.0
        max_deg = 0
    return TrajectoryRow(
        step=step,
        min_pv=min_pv,
        max_pv=max_pv,
        min_Q=min_Q,
        max_deg=max_deg,
        removed=len(stats.removed),
        retries=retries,
    )


def run_nibble(
    g: Graph, cover: Cover, params: NibbleParams, seed: int
) -> NibbleResult:
    """Color a triangle-free graph from a uniform-list cover, or report why not.

    Starts every color at weight 1/k under cap max_deg^{-PHAT_EXP}. When the
    closed-form iteration count exists, exactly that many steps run before
    the terminal niceness check. At desk scale the count is usually
    infeasible, so the driver falls back to an adaptive loop: probe niceness
    before each step, attempt the final rounding whenever it holds, and keep
    stepping otherwise (vertices keep draining into the removal records,
    whose replay alone can finish the coloring). Steps whose target checks
    fail are resampled with fresh derived seeds up to max_retries_per_step.
    """
    check_seed(seed)
    problems = validate_cover(g, cover)
    if problems:
        raise DomainError(f"invalid cover: {problems[0]}")
    if not is_triangle_free(g):
        raise DomainError("the graph has a triangle; this pipeline requires none")
    if g.n == 0:
        raise DomainError("the graph has no vertices; the nibble needs at least one")
    k = cover.uniform_list_size()
    if k < 1:
        raise DomainError("lists must be nonempty")

    trajectory: list[TrajectoryRow] = []
    total_final_attempts = 0
    mode, istar, dmax = "edgeless", None, 0

    def result(
        status: str, steps: int, coloring=None, nice_delta=None, detail=None
    ) -> NibbleResult:
        return NibbleResult(
            status=status,
            coloring=coloring,
            mode=mode,
            istar=istar,
            steps=steps,
            trajectory=tuple(trajectory),
            nice_delta=nice_delta,
            final_attempts=total_final_attempts,
            k=k,
            max_deg=dmax,
            seed=seed,
            detail=detail,
        )

    if g.m == 0:
        coloring = dict(enumerate(cover.vlist_colors[cover.vlist_ptr[:-1]].tolist()))
        return result("success", 0, coloring)

    dmax = max_degree(g)
    if dmax < 2:
        raise DomainError(
            "degree bound below 2; use the exact or greedy solver for matchings"
        )
    p_hat = params.p_hat_for(dmax)
    if 1.0 / k >= p_hat:
        raise DomainError(
            f"list size {k} is too small: initial weight 1/k={1.0/k:.6g} reaches"
            f" the cap {p_hat:.6g}"
        )
    state = ReductState.initial(
        g, cover, Weighting.uniform(cover, 1.0 / k, p_hat), max_deg=dmax, k=k
    )

    mode = "adaptive"
    if dmax >= 3:
        try:
            istar = compute_istar(dmax, params)
            mode = "schedule"
        except IstarInfeasibleError:
            pass

    def extended(
        state: ReductState, inner, steps: int, nice_delta, detail
    ) -> NibbleResult:
        coloring = extend_coloring(inner, state.history)
        violation = check_coloring(g, cover, coloring)
        if violation is not None:
            raise InternalConsistencyError(
                f"extended coloring is invalid ({violation}); this is a bug"
            )
        return result("success", steps, coloring, nice_delta, detail)

    adaptive = mode == "adaptive"
    budget = params.max_steps if adaptive else istar
    # Schedule mode probes niceness once, after its istar steps. Adaptive mode
    # probes before every step, rounds whenever the state is nice, and probes
    # once more after its last step.
    for i in range(budget + 1):
        end = i == budget
        if adaptive or end:
            if state.n_alive == 0:
                return extended(
                    state, {}, i, None, "all vertices drained into removal records"
                )
            nice = check_nice(state)
            if nice.ok:
                inner, attempts = final_color(
                    state,
                    nice.delta,
                    derive_int_seed(seed, "final", i),
                    params.max_final_retries,
                )
                total_final_attempts += attempts
                if inner is not None:
                    return extended(state, inner, i, nice.delta, None)
                if end:
                    return result(
                        "final-color-exhausted",
                        i,
                        nice_delta=nice.delta,
                        detail=f"rounding failed {params.max_final_retries} times",
                    )
                # rounding budget spent this round; keep stepping, more
                # vertices will drain into the history
            elif end:
                if adaptive:
                    hyp = check_reduct_hypotheses(state, params)
                    detail = f"after {i} steps: {nice.reason}; entry conditions: {hyp}"
                else:
                    detail = f"after the scheduled steps: {nice.reason}"
                return result("not-nice", i, detail=detail)
            elif nice.min_moderate_mass == 0.0:
                # A surviving vertex with no moderate color can never be
                # sampled, removed, or rounded; once weights sit at 0 or the
                # cap they stay there, so such a vertex is permanently stuck.
                # The argmin is the lowest-id such vertex.
                detail = (
                    f"vertex {nice.argmin_vertex} has no moderate color left"
                    " and can never get one"
                )
                return result("not-nice", i, detail=detail)
        for attempt in range(params.max_retries_per_step):
            cand, stats = reduct_step(state, derive_int_seed(seed, "step", i, attempt))
            chk = check_reduct_targets(state, stats, params)
            if chk.ok:
                trajectory.append(_trajectory_row(i, stats, attempt + 1))
                state = cand
                break
        else:
            kind, where, value, bound = chk.violations[0]
            detail = (
                f"step {i} violated targets {params.max_retries_per_step} times;"
                f" last: {kind} at {where} ({value:.6g} vs {bound:.6g})"
            )
            return result("step-retries-exhausted", i, detail=detail)
