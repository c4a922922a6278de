"""The randomized nibble: weight-update steps, schedules, and the final coloring.

One step samples a small random set of colors, removes the vertices whose
sampled colors are pairwise unmatched (each keeps the lowest for later
extension), zeroes the weights of colors that were hit, and rescales the
survivors so every color's expected weight is exactly preserved. Iterating
drives degrees down until the niceness conditions hold, at which point a
Moser-Tardos rounding colors what is left and the removal history replays
the rest.

Randomized existence arguments are replaced throughout by bounded
resampling with explicit budgets and full failure reports.

Every numeric parameter goes through `errors.check_int` or `check_real`:
the reals of `NibbleParams`, alpha and delta lie above 0, the budgets are at
least 1, `max_deg` is from 2 (3 in `compute_istar`) and `k` from 1 to
2**63 - 1. Only alpha * p_hat <= 1 and `k_for`'s finite list size relate two
values and keep their own message.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import _kernels as kernels
from .covers import Cover, validate_cover
from .errors import (
    INT64_MAX,
    DomainError,
    HypothesisViolationError,
    InternalConsistencyError,
    IstarInfeasibleError,
    RoundingBudgetExceeded,
    check_int,
    check_real,
)
from .graphs import Graph, is_triangle_free, max_degree
from .rng import derive_int_seed, derive_rng
from .solver import check_coloring, coloring_to_json
from .weights import (
    ReductState,
    Weighting,
    check_nice,
    moderate_values,
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
            check_real(name, getattr(self, name), 0, lo_open=True)
        for name in ("max_retries_per_step", "max_final_retries", "max_steps"):
            check_int(name, getattr(self, name), 1)

    def k_for(self, max_deg: int) -> int:
        check_int("max_deg", max_deg, 2, INT64_MAX)
        k = self.ck * max_deg / math.log(max_deg)
        if k == math.inf:
            raise DomainError(
                f"ck={self.ck} with max_deg={max_deg} gives no finite list size"
            )
        return math.ceil(k)

    def p_hat_for(self, max_deg: int) -> float:
        check_int("max_deg", max_deg, 2, INT64_MAX)
        return max_deg ** (-PHAT_EXP)

    def dev_vertex(self, max_deg: int) -> float:
        check_int("max_deg", max_deg, 2, INT64_MAX)
        return self.tol_scale * max_deg ** (-DEV_VERTEX_EXP)

    def dev_edge(self, max_deg: int, k: int) -> float:
        check_int("max_deg", max_deg, 2, INT64_MAX)
        check_int("k", k, 1, INT64_MAX)
        return self.tol_scale * max_deg ** (-DEV_EDGE_EXP) / k

    def dev_entropy(self, max_deg: int) -> float:
        check_int("max_deg", max_deg, 2, INT64_MAX)
        return self.tol_scale * math.log(max_deg) * max_deg ** (-DEV_ENTROPY_EXP)

    def dev_degree(self, max_deg: int) -> float:
        check_int("max_deg", max_deg, 2, INT64_MAX)
        return self.tol_scale * max_deg ** DEV_DEGREE_EXP

    def shrink(self, max_deg: int) -> float:
        check_int("max_deg", max_deg, 2, INT64_MAX)
        return self.shrink_factor / math.log(max_deg)

    def edge_mass_cap(self, k: int) -> float:
        check_int("k", k, 1, INT64_MAX)
        return EDGE_MASS_CAP_FACTOR / k

    def niceness_target(self, k: int) -> float:
        check_int("k", k, 1, INT64_MAX)
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
    """What a step drew, beside the state it makes.

    `p_prime` holds the updated weight of every color, a removed vertex's
    too; the new state zeroes those. `sampled` marks the sampled set S. The
    new state's `alive`, `stats` and `history[-1]` give the rest.
    """

    p_prime: np.ndarray
    sampled: np.ndarray


def _resolve_alpha(state: ReductState, alpha: float | None) -> float:
    if alpha is None:
        if state.max_deg is None:
            raise DomainError("state has no degree bound; pass alpha explicitly")
        check_int("max_deg", state.max_deg, 2, INT64_MAX)
        alpha = 1.0 / math.log(state.max_deg)
    check_real("alpha", alpha, 0, lo_open=True)
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
    sampled colors are all unhit leave the graph, each keeping the lowest.
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
    record = {}
    for v in np.flatnonzero(removed_mask).tolist():
        colors = vlist_colors[vlist_ptr[v] : vlist_ptr[v + 1]]
        record[v] = int(colors[in_s[colors]].min())

    post_alive = state.alive & ~removed_mask
    new_p = p_prime.copy()
    new_p[cover.colors_of(removed_mask)] = 0.0
    new_state = state.with_step(Weighting(new_p, w.p_hat), post_alive, record)
    return new_state, StepStats(p_prime, in_s)


def expected_pprime(state: ReductState, x: int, alpha: float | None = None) -> float:
    """Closed-form expectation of the updated weight of color x.

    Evaluates the case split literally (survival product times the clamped
    rescale, plus the promotion branch); algebra makes it collapse to p(x),
    which the tests verify numerically to 1e-12 relative error.
    """
    alpha = _resolve_alpha(state, alpha)
    w = state.weighting
    p, p_hat = w.p, w.p_hat
    check_int("x", x, 0, state.cover.n_colors - 1)
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
    violations: tuple[tuple[str, int, float, float], ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def check_reduct_targets(
    old_state: ReductState, new_state: ReductState, params: NibbleParams
) -> TargetCheck:
    """Verify the four per-step conclusions on the survivors of `new_state`.

    Vertex mass stays within dev_vertex of its old value; edge mass grows by
    at most dev_edge; entropy loses at most 2 deg/(k ln D) plus dev_entropy;
    the surviving degree is at most the shrunken old degree plus dev_degree.
    Degrees mean degrees in the graph at the start of the step. At a
    survivor the new weights are the step's p', so these are the step's
    conclusions.
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

    alive = new_state.alive
    p_v, q_v, d_v, p_uv = new_state.stats
    dv = np.abs(p_v - old_p_v)
    q_floor = old_q_v - 2.0 * old_deg / (k * ln_d) - tol_q
    d_ceil = old_deg * (1.0 - shrink) + tol_d
    bad_v = alive & (dv > tol_v)
    bad_q = alive & (q_v < q_floor)
    bad_d = alive & (d_v > d_ceil)
    violations = []
    for v in np.flatnonzero(bad_v | bad_q | bad_d).tolist():
        if bad_v[v]:
            violations.append(("vertex-mass", v, float(dv[v]), float(tol_v)))
        if bad_q[v]:
            violations.append(("entropy", v, float(q_v[v]), float(q_floor[v])))
        if bad_d[v]:
            violations.append(("degree", v, float(d_v[v]), float(d_ceil[v])))
    ceil_e = old_p_uv + tol_e
    bad_e = alive[cover.edge_u] & alive[cover.edge_v] & (p_uv > ceil_e)
    for e in np.flatnonzero(bad_e).tolist():
        violations.append(("edge-mass", e, float(p_uv[e]), float(ceil_e[e])))
    return TargetCheck(violations=tuple(violations))


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
    check_int("max_deg", max_deg, 3, INT64_MAX)
    k = params.k_for(max_deg)
    target = params.niceness_target(k)
    shrink = params.shrink(max_deg)
    dev = params.dev_degree(max_deg)
    prev = math.inf
    for i in range(ISTAR_CAP + 1):
        # At i = 0 the term i * dev would be 0 * inf = NaN if dev overflowed.
        lhs = max_deg * (1.0 - shrink) ** i + i * dev if i else float(max_deg)
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
    state: ReductState, seed: int, max_retries: int
) -> tuple[dict[int, int], int]:
    """Color the live vertices from their moderate colors by Moser-Tardos.

    Round 1 draws at each live vertex v one moderate color x with probability
    p(x)/p_m(v): u_v from `derive_rng(seed, "final-color", r).random(n)`
    picks the first color of v's list whose running weight (one running sum
    over all live moderate colors, in list order) passes v's share times u_v.
    An edge is bad when its ends' colors are matched. Each later round
    redraws both ends of a maximal set of vertex-disjoint bad edges, taken
    greedily in edge order: the parallel variant of Moser & Tardos (J. ACM
    2010). Returns (coloring, rounds); raises `RoundingBudgetExceeded` with a
    bad edge left after max_retries rounds. The cover must pass
    `validate_cover`, as `run_nibble` checks.

    It stops on a nice state: with delta = a = min p_m(v), P(uv bad) <=
    p_m(uv)/delta^2, and condition c <= a is 4 sum_u p_m(uv) <= delta^2, so
    the bad events at a vertex sum to at most 1/4. With mu_e = 4 P(e), an independent set of events around uv
    holds at most one edge at u and one at v, so the cluster-expansion sum
    is at most (1 + sum_{f at u} mu_f)(1 + sum_{g at v} mu_g) <= 4, and
    P(e) <= mu_e/4 meets the criterion of Bissacot, Fernandez, Procacci and
    Scoppola (CPC 2011). Disjoint bad edges stay bad until redrawn, so a
    round is a run of single resamplings; by Pegden (SIAM J. Discrete Math.
    2014) these number at most sum mu_e <= n_alive/2 in expectation.
    """
    check_int("max_retries", max_retries, 1)
    cover, w = state.cover, state.weighting
    colors, ptr = cover.vlist_colors, cover.vlist_ptr
    eligible = (w.moderate & state.live_color_mask())[colors]
    running = np.cumsum(np.where(eligible, w.p[colors], 0.0))
    lo, hi = np.concatenate(([0.0], running))[[ptr[:-1], ptr[1:]]]
    below_hi = np.nextafter(hi, 0.0)
    live = state.alive_vertices()
    empty = live[hi[live] <= lo[live]]
    if empty.size:
        raise DomainError(f"live vertex {empty[0]} has no moderate color to draw")
    pick, draw = np.zeros(cover.n_vertices, dtype=np.int64), live
    for rounds in range(1, max_retries + 1):
        u = derive_rng(seed, "final-color", rounds).random(cover.n_vertices)[draw]
        share = np.minimum(lo[draw] + u * (hi[draw] - lo[draw]), below_hi[draw])
        pick[draw] = colors[np.searchsorted(running, share, side="right")]
        chosen = np.zeros(cover.n_colors, dtype=bool)
        chosen[pick[live]] = True
        # A vertex holds one chosen color, so an edge has at most one bad pair.
        bad = np.flatnonzero(chosen[cover.pair_x] & chosen[cover.pair_y])
        edges = np.searchsorted(cover.edge_ptr, bad, side="right") - 1
        ends = list(zip(cover.edge_u[edges].tolist(), cover.edge_v[edges].tolist()))
        if not ends:
            return dict(zip(live.tolist(), pick[live].tolist())), rounds
        redraw = set()
        for a, b in ends:
            if a not in redraw and b not in redraw:
                redraw.update((a, b))
        draw = np.array(sorted(redraw), dtype=np.int64)
    raise RoundingBudgetExceeded(max_retries, len(ends), ends[0])


def extend_coloring(
    inner: dict[int, int], history: tuple[dict[int, int], ...]
) -> dict[int, int]:
    """Replay removal records newest-first, adding each removed vertex's color."""
    out = dict(inner)
    for record in reversed(history):
        for v, x in record.items():
            if v in out:
                raise InternalConsistencyError(
                    f"vertex {v} colored both inside and by a removal record"
                )
            out[v] = x
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
    for name, value in (("p1", p1), ("p2", p2), ("edge_cap", edge_cap)):
        check_real(name, value)
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
    # Products, not powers: a float power past the float range raises.
    factor = 1.0 - alpha * p1 + alpha * alpha * (p2 * p2 + edge_cap * state.max_deg)
    # A vertex without live edges keeps bound 0 when the factor overflows to inf.
    return {int(v): float(degs[v] * factor) if degs[v] else 0.0 for v in live_idx}


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


def _trajectory_row(step: int, state: ReductState, retries: int) -> TrajectoryRow:
    live = state.alive_vertices()
    if live.size:
        p_v, q_v, d_v, _ = state.stats
        min_pv = float(p_v[live].min())
        max_pv = float(p_v[live].max())
        min_Q = float(q_v[live].min())
        max_deg = int(d_v[live].max())
    else:
        min_pv = max_pv = min_Q = 0.0
        max_deg = 0
    return TrajectoryRow(
        step=step,
        min_pv=min_pv,
        max_pv=max_pv,
        min_Q=min_Q,
        max_deg=max_deg,
        removed=len(state.history[-1]),
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
    check_int("seed", seed, 0)
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
        status: str, coloring=None, nice_delta=None, detail=None
    ) -> NibbleResult:
        return NibbleResult(
            status=status,
            coloring=coloring,
            mode=mode,
            istar=istar,
            steps=len(trajectory),
            trajectory=tuple(trajectory),
            nice_delta=nice_delta,
            final_attempts=total_final_attempts,
            k=k,
            max_deg=dmax,
            seed=int(seed),
            detail=detail,
        )

    if g.m == 0:
        coloring = dict(enumerate(cover.vlist_colors[cover.vlist_ptr[:-1]].tolist()))
        return result("success", coloring)

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

    def extended(state: ReductState, inner, nice_delta, detail) -> NibbleResult:
        coloring = extend_coloring(inner, state.history)
        violation = check_coloring(g, cover, coloring)
        if violation is not None:
            raise InternalConsistencyError(
                f"extended coloring is invalid ({violation}); this is a bug"
            )
        return result("success", coloring, nice_delta, detail)

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
                    state, {}, None, "all vertices drained into removal records"
                )
            nice = check_nice(state)
            if nice.ok:
                try:
                    inner, rounds = final_color(
                        state,
                        derive_int_seed(seed, "final", i),
                        params.max_final_retries,
                    )
                except RoundingBudgetExceeded as exc:
                    total_final_attempts += exc.rounds
                    if end:
                        return result(
                            "final-color-exhausted",
                            nice_delta=nice.delta,
                            detail=str(exc),
                        )
                else:
                    total_final_attempts += rounds
                    return extended(state, inner, nice.delta, None)
                # rounding budget spent this round; keep stepping, more
                # vertices will drain into the history
            elif end:
                if adaptive:
                    hyp = check_reduct_hypotheses(state, params)
                    detail = f"after {i} steps: {nice.reason}; entry conditions: {hyp}"
                else:
                    detail = f"after the scheduled steps: {nice.reason}"
                return result("not-nice", detail=detail)
            elif nice.min_moderate_mass == 0.0:
                # A surviving vertex with no moderate color can never be
                # sampled, removed, or rounded; once weights sit at 0 or the
                # cap they stay there, so such a vertex is permanently stuck.
                # The argmin is the lowest-id such vertex.
                detail = (
                    f"vertex {nice.argmin_vertex} has no moderate color left"
                    " and can never get one"
                )
                return result("not-nice", detail=detail)
        for attempt in range(params.max_retries_per_step):
            cand, _ = reduct_step(state, derive_int_seed(seed, "step", i, attempt))
            chk = check_reduct_targets(state, cand, params)
            if chk.ok:
                trajectory.append(_trajectory_row(i, cand, attempt + 1))
                state = cand
                break
        else:
            kind, where, value, bound = chk.violations[0]
            detail = (
                f"step {i} violated targets {params.max_retries_per_step} times;"
                f" last: {kind} at {where} ({value:.6g} vs {bound:.6g})"
            )
            return result("step-retries-exhausted", detail=detail)
