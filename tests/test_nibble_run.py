import dataclasses
import itertools
import json
import math

import numpy as np
import pytest

from corrcolor import (
    Cover,
    NibbleParams,
    DomainError,
    IstarInfeasibleError,
    build_graph,
    check_nice,
    check_reduct_hypotheses,
    compute_istar,
    count_colorings,
    expected_pprime,
    final_color,
    gen_complete_bipartite,
    gen_cycle,
    gen_random_bipartite_regular,
    greedy_color,
    is_valid_coloring,
    lift_from_lists,
    make_cover,
    moderate_restrict,
    paper_params,
    random_cover,
    reduct_step,
    relaxed_params,
    run_lb_experiment,
    run_nibble,
    solve_report,
)
from corrcolor import _kernels as kernels
from corrcolor import nibble
from corrcolor.weights import ReductState, Weighting

from .conftest import adjacency, random_triangle_free_graph, reference_final_color


def istar_lhs(max_deg, params, i):
    shrink = params.shrink(max_deg)
    return max_deg * (1.0 - shrink) ** i + i * params.dev_degree(max_deg)


class TestIstar:
    def test_zero_when_target_already_met(self):
        # enormous list-size constant pushes the target above the degree bound
        assert compute_istar(100, paper_params()) == 0
        assert compute_istar(1000, paper_params()) == 0

    def test_leastness_at_large_degree(self):
        params = paper_params()
        for dmax in (10**6, 2**21, 2**24):
            i = compute_istar(dmax, params)
            target = params.niceness_target(params.k_for(dmax))
            assert istar_lhs(dmax, params, i) <= target
            if i > 0:
                assert istar_lhs(dmax, params, i - 1) > target

    def test_infeasible_middle_range(self):
        with pytest.raises(IstarInfeasibleError):
            compute_istar(10**4, paper_params())

    def test_small_degree_rejected(self):
        with pytest.raises(DomainError):
            compute_istar(2, paper_params())

    def test_relaxed_small_degree_infeasible(self):
        with pytest.raises(IstarInfeasibleError):
            compute_istar(12, relaxed_params())

    def test_growth_rate_bounded(self):
        params = paper_params()
        ratios = []
        for dmax in (10**6, 2**21, 2**24, 2**27, 2**30):
            i = compute_istar(dmax, params)
            ratios.append(i / (math.log(dmax) * math.log(math.log(dmax))))
        assert max(ratios) < 2.0


class TestFinalColor:
    def test_edgeless_succeeds(self):
        g = build_graph(5, [])
        cover = random_cover(g, 3, seed=1)
        st = ReductState.initial(g, cover, Weighting.uniform(cover, 0.3, 0.5))
        nc = check_nice(st)
        assert nc.ok
        coloring, attempts = final_color(st, nc.delta, seed=4, max_retries=100)
        assert coloring is not None
        assert is_valid_coloring(g, cover, coloring)

    def test_single_edge_pair_valid(self):
        g = build_graph(2, [(0, 1)])
        cover = random_cover(g, 50, seed=2)
        st = ReductState.initial(g, cover, Weighting.uniform(cover, 0.018, 0.03))
        nc = check_nice(st)
        assert nc.ok
        coloring, _ = final_color(st, nc.delta, seed=9, max_retries=200)
        assert coloring is not None
        assert is_valid_coloring(g, cover, coloring)

    @pytest.mark.parametrize("seed", range(50))
    def test_nice_toy_succeeds_within_budget(self, seed):
        g = gen_cycle(4)
        cover = random_cover(g, 70, seed=0)
        st = ReductState.initial(g, cover, Weighting.uniform(cover, 0.01, 0.02))
        nc = check_nice(st)
        assert nc.ok and nc.delta == pytest.approx(0.7)
        coloring, attempts = final_color(st, nc.delta, seed=seed, max_retries=100)
        assert coloring is not None
        assert attempts <= 100
        assert is_valid_coloring(g, cover, coloring)

    def test_bad_delta_rejected(self):
        g = build_graph(2, [(0, 1)])
        cover = random_cover(g, 2, seed=0)
        st = ReductState.initial(g, cover, Weighting.uniform(cover, 0.25, 0.5))
        with pytest.raises(DomainError):
            final_color(st, 0.0, seed=0, max_retries=5)
        with pytest.raises(DomainError):
            final_color(st, 0.01, seed=0, max_retries=5)  # probabilities > 1

    @pytest.mark.parametrize("delta", [math.nan, math.inf], ids=["nan", "inf"])
    def test_nonfinite_delta_rejected(self, delta):
        g = gen_cycle(4)
        cover = random_cover(g, 70, seed=0)
        st = ReductState.initial(g, cover, Weighting.uniform(cover, 0.01, 0.02))
        msg = f"delta must be positive and finite, got {delta}"
        with pytest.raises(DomainError, match=msg):
            final_color(st, delta, seed=0, max_retries=5)

    def test_deterministic(self):
        g = gen_cycle(4)
        cover = random_cover(g, 70, seed=0)
        st = ReductState.initial(g, cover, Weighting.uniform(cover, 0.01, 0.02))
        a = final_color(st, 0.7, seed=5, max_retries=50)
        b = final_color(st, 0.7, seed=5, max_retries=50)
        assert a == b

    @pytest.mark.parametrize("shuffled", [False, True], ids=["blocks", "shuffled"])
    def test_matches_reference_over_stepped_states(self, shuffled):
        # States after 0, 1 or 3 steps, under a tight and a loose cap, each
        # rounded under two slacks and two budgets. Shuffled ids interleave
        # across vertices and leave gaps below the largest id.
        seen = set()
        for steps, cap, dmul, budget in itertools.product(
            (0, 1, 3), (1.5, 3.0), (1.0, 4.0), (1, 30)
        ):
            g = gen_random_bipartite_regular(10, 3, seed=steps)
            lists, matchings = raw_cover(g, 8, seed=steps, shuffled=shuffled)
            cover = make_cover(lists, matchings)
            st = ReductState.initial(g, cover, Weighting.uniform(cover, 1.0 / 8, cap / 8))
            for i in range(steps):
                st, _ = reduct_step(st, seed=i, alpha=0.6)
            w = st.weighting
            delta = 2.0 * w.p_hat * dmul
            got = final_color(st, delta, seed=5, max_retries=budget)
            assert got == reference_final_color(
                lists, matchings, st.alive.tolist(), w.p.tolist(), w.p_hat,
                delta, 5, budget,
            )
            live = st.live_color_mask()
            seen.add("exhausted" if got[0] is None else "success")
            if not st.alive.all():
                seen.add("dead")
            if (w.capped & live).any():
                seen.add("capped")
            if ((w.p == 0.0) & live).any():
                seen.add("zeroed")
        assert seen == {"dead", "capped", "zeroed", "success", "exhausted"}

    def test_rounds_read_only_eligible_pairs(self, monkeypatch):
        g = gen_random_bipartite_regular(10, 3, seed=1)
        cover = make_cover(*raw_cover(g, 8, seed=1, shuffled=True))
        st = ReductState.initial(g, cover, Weighting.uniform(cover, 1.0 / 8, 1.5 / 8))
        st, _ = reduct_step(st, seed=0, alpha=0.6)
        eligible = st.weighting.moderate & st.live_color_mask()
        nbr_ptr, nbr_idx = cover.arrays
        pairs = sum(
            int(eligible[nbr_idx[nbr_ptr[x] : nbr_ptr[x + 1]]].sum())
            for x in np.flatnonzero(eligible)
        )
        assert 0 < pairs < nbr_idx.size
        sizes = []
        mask_counts = kernels.mask_counts

        def spy(ptr, idx, mask):
            sizes.append(idx.size)
            return mask_counts(ptr, idx, mask)

        monkeypatch.setattr(kernels, "mask_counts", spy)
        _, attempts = final_color(st, 2.0 * st.weighting.p_hat, seed=5, max_retries=30)
        assert len(sizes) == attempts > 1
        assert max(sizes) <= pairs


def raw_cover(g, k, seed, shuffled):
    """Raw lists and matchings of a random k-fold cover of g.

    Lists hold consecutive id blocks, or, when shuffled, k ids per vertex
    drawn without replacement from 0..2 n k - 1.
    """
    rng = np.random.default_rng(seed)
    n_ids = g.n * k
    ids = rng.choice(2 * n_ids, n_ids, replace=False) if shuffled else np.arange(n_ids)
    lists = [sorted(ids[v * k : (v + 1) * k].tolist()) for v in range(g.n)]
    matchings = {
        (u, v): list(zip(lists[u], rng.permutation(lists[v]).tolist()))
        for u, v in g.edges.tolist()
    }
    return lists, matchings


class TestRunNibble:
    def test_edgeless_trivial(self):
        g = build_graph(6, [])
        cover = random_cover(g, 1, seed=0)
        res = run_nibble(g, cover, relaxed_params(), seed=0)
        assert res.ok and res.mode == "edgeless"
        assert is_valid_coloring(g, cover, res.coloring)

    def test_triangle_rejected(self):
        g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
        cover = random_cover(g, 3, seed=0)
        with pytest.raises(DomainError, match="triangle"):
            run_nibble(g, cover, relaxed_params(), seed=0)

    def test_nonuniform_lists_rejected(self):
        g = build_graph(2, [(0, 1)])
        cover = lift_from_lists(g, [[1, 2], [1, 2, 3]])
        with pytest.raises(DomainError, match="uniform"):
            run_nibble(g, cover, relaxed_params(), seed=0)

    def test_list_size_too_small(self):
        g = gen_complete_bipartite(6, 6)  # max degree 6, cap ~ 0.19
        cover = random_cover(g, 2, seed=0)  # 1/k = 0.5 over the cap
        with pytest.raises(DomainError, match="too small"):
            run_nibble(g, cover, relaxed_params(), seed=0)

    def test_degree_one_rejected(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        cover = random_cover(g, 4, seed=0)
        with pytest.raises(DomainError, match="degree bound below 2"):
            run_nibble(g, cover, relaxed_params(), seed=0)

    def test_empty_lists_rejected(self):
        g = gen_cycle(4)
        with pytest.raises(DomainError, match="lists must be nonempty"):
            run_nibble(g, make_cover([[]] * 4, {}), relaxed_params(), seed=0)

    def test_invalid_cover_rejected(self):
        from corrcolor import make_cover

        g = build_graph(2, [(0, 1)])
        bad = make_cover([[0, 1], [1, 2]], {(0, 1): []})
        with pytest.raises(DomainError, match="invalid cover"):
            run_nibble(g, bad, relaxed_params(), seed=0)

    def test_c6_relaxed_valid_if_success(self):
        g = gen_cycle(6)
        for seed in range(6):
            cover = random_cover(g, 3, seed=seed)
            res = run_nibble(g, cover, relaxed_params(), seed=seed)
            if res.ok:
                assert is_valid_coloring(g, cover, res.coloring)
            else:
                assert res.status in (
                    "not-nice",
                    "final-color-exhausted",
                    "step-retries-exhausted",
                )
                assert res.detail

    def test_bipartite_regular_success(self):
        g = gen_random_bipartite_regular(40, 8, seed=5)
        cover = random_cover(g, 22, seed=6)
        res = run_nibble(g, cover, relaxed_params(), seed=7)
        assert res.ok, res.detail
        assert res.mode == "adaptive"
        assert is_valid_coloring(g, cover, res.coloring)
        assert len(res.coloring) == g.n
        assert res.trajectory  # at least one step committed

    def test_stepping_resumes_after_rounding_budget_is_spent(self):
        # One rounding attempt per niceness pass: three passes fail, the
        # run keeps stepping, and the fourth rounds; all four are counted.
        g = gen_random_bipartite_regular(20, 6, seed=1)
        cover = random_cover(g, 16, seed=3)
        res = run_nibble(g, cover, relaxed_params(max_final_retries=1), seed=3)
        assert res.ok and res.detail is None
        assert res.final_attempts == 4
        assert is_valid_coloring(g, cover, res.coloring)

    def test_trajectory_row_fields(self):
        g = gen_random_bipartite_regular(20, 6, seed=1)
        cover = random_cover(g, 16, seed=2)
        res = run_nibble(g, cover, relaxed_params(), seed=3)
        for row in res.trajectory:
            assert row.retries >= 1
            assert row.removed >= 0
            assert row.max_deg >= 0

    def test_deterministic_json(self):
        g = gen_random_bipartite_regular(15, 4, seed=8)
        cover = random_cover(g, 10, seed=9)
        r1 = run_nibble(g, cover, relaxed_params(), seed=10)
        r2 = run_nibble(g, cover, relaxed_params(), seed=10)
        assert json.dumps(r1.to_json_dict(), sort_keys=True) == json.dumps(
            r2.to_json_dict(), sort_keys=True
        )

    def test_schedule_mode_zero_steps(self):
        # default constants at degree bound 3 put the target above the
        # degree bound, so the closed-form count is 0 and the run goes
        # straight to the terminal certificate
        assert compute_istar(3, paper_params()) == 0
        g = gen_complete_bipartite(3, 3)
        cover = random_cover(g, 40, seed=1)
        res = run_nibble(g, cover, paper_params(), seed=2)
        assert res.mode == "schedule" and res.istar == 0 and res.steps == 0
        assert res.ok
        assert is_valid_coloring(g, cover, res.coloring)

    def test_schedule_mode_with_steps(self):
        # a smaller list-size constant and a faster shrink give a positive
        # closed-form count; the scheduled loop runs one target-checked step
        # and the terminal rounding colors the rest
        params = paper_params(ck=25, shrink_factor=1.0, tol_scale=0.5)
        assert compute_istar(6, params) == 1
        g = gen_random_bipartite_regular(20, 6, seed=3)
        cover = random_cover(g, 40, seed=4)
        res = run_nibble(g, cover, params, seed=5)
        assert res.mode == "schedule" and res.istar == 1
        assert res.ok and res.steps == 1, res.detail
        assert is_valid_coloring(g, cover, res.coloring)

    def test_partial_matchings_supported(self):
        # the cover definition only needs matchings, not perfect ones; the
        # pipeline runs unchanged on kept-with-probability-q matchings
        g = gen_random_bipartite_regular(25, 6, seed=11)
        cover = random_cover(g, 16, seed=12, mode="bernoulli", q=0.6)
        res = run_nibble(g, cover, relaxed_params(), seed=13)
        assert res.ok, res.detail
        assert is_valid_coloring(g, cover, res.coloring)

    def test_small_triangle_free_random_graphs(self):
        successes = 0
        for seed in range(8):
            g = random_triangle_free_graph(seed, 10, 0.25)
            if g.m == 0 or max(len(a) for a in adjacency(g)) < 2:
                continue
            cover = random_cover(g, 14, seed=seed)
            res = run_nibble(g, cover, relaxed_params(), seed=seed)
            if res.ok:
                successes += 1
                assert is_valid_coloring(g, cover, res.coloring)
        assert successes >= 1


class TestParams:
    def test_validation(self):
        with pytest.raises(DomainError):
            paper_params(ck=0.0)
        # the analysis' exponents are module constants, not settable fields
        with pytest.raises(TypeError):
            paper_params(phat_exp=1.5)
        with pytest.raises(TypeError):
            paper_params(dev_vertex_exp=0.0)
        with pytest.raises(DomainError):
            relaxed_params(max_final_retries=0)

    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("name", ["ck", "shrink_factor", "tol_scale"])
    def test_nonfinite_rejected(self, name, value):
        with pytest.raises(DomainError, match=f"{name} must be positive and finite"):
            paper_params(**{name: value})

    def test_terminal_regime_arithmetic(self):
        # at the scheduled stopping point, max degree times the per-edge
        # mass cap is (1/4)(3/5)^2, strictly under the (1/4)(7/10)^2 the
        # rounding stage needs
        params = paper_params()
        for k in (100, 17372, 8685890):
            product = params.niceness_target(k) * params.edge_mass_cap(k)
            assert product == pytest.approx(0.25 * 0.36, rel=1e-12)
            assert product < 0.25 * 0.49

    def test_paper_constants(self):
        params = paper_params()
        assert params.ck == 120.0
        assert nibble.PHAT_EXP == pytest.approx(11 / 12)
        assert nibble.ENTROPY_SLACK == pytest.approx(1 / 40)
        assert params.shrink_factor == pytest.approx(2 / 3)
        assert nibble.EDGE_MASS_CAP_FACTOR == pytest.approx(math.sqrt(2))
        assert params.k_for(1000) == 17372
        assert params.p_hat_for(1000) == pytest.approx(1000 ** (-11 / 12))


    def test_only_the_preset_values_are_fields(self):
        # the two presets differ in exactly these; everything else is fixed
        names = {f.name for f in dataclasses.fields(NibbleParams)}
        assert names == {
            "ck",
            "shrink_factor",
            "tol_scale",
            "max_retries_per_step",
            "max_final_retries",
            "max_steps",
        }
        paper, relaxed = paper_params(), relaxed_params()
        assert all(getattr(paper, n) != getattr(relaxed, n) for n in names)


class TestHypothesesReport:
    def test_initial_uniform_state(self):
        g = gen_random_bipartite_regular(20, 6, seed=1)
        k = 16
        cover = random_cover(g, k, seed=2)
        p_hat = relaxed_params().p_hat_for(6)
        st = ReductState.initial(
            g, cover, Weighting.uniform(cover, 1.0 / k, p_hat), max_deg=6, k=k
        )
        rep = check_reduct_hypotheses(st, relaxed_params())
        assert rep["vertex_mass_ok"]
        assert rep["edge_mass_ok"]
        assert rep["entropy_ok"]
        assert rep["support_ok"]


# What a cover may hold after any library call: its stored arrays plus the
# color count, the owners and the color adjacency, and none of the views.
COVER_STATE = {f.name for f in dataclasses.fields(Cover)} | {
    "n_colors", "owner", "arrays",
}


def _state(g, cover):
    return ReductState.initial(g, cover, Weighting.uniform(cover, 0.125, 0.5))


def _nibble(g, cover):
    res = run_nibble(g, cover, relaxed_params(), seed=5)
    assert res.ok
    return res


def _lb_witness(g, cover):
    _, witness = run_lb_experiment(g, 2, 20, seed=3)
    assert witness is not None
    return witness


@pytest.mark.parametrize(
    "reader",
    [
        pytest.param(_nibble, id="run_nibble"),
        pytest.param(lambda g, c: solve_report(g, c), id="solve_report-decide"),
        pytest.param(
            lambda g, c: solve_report(g, c, count=True), id="solve_report-count"
        ),
        pytest.param(count_colorings, id="count_colorings"),
        pytest.param(lambda g, c: greedy_color(g, c, range(g.n)), id="greedy_color"),
        pytest.param(_lb_witness, id="lb_witness"),
        pytest.param(
            lambda g, c: moderate_restrict(_state(g, c)), id="moderate_restrict"
        ),
        pytest.param(
            lambda g, c: expected_pprime(_state(g, c), 0, alpha=0.5),
            id="expected_pprime",
        ),
    ],
)
def test_run_builds_no_tuple_views(reader):
    # The library reads covers through their arrays; the views are for callers.
    g = gen_cycle(6)
    cover = random_cover(g, 6, seed=4)
    out = reader(g, cover)
    assert set(vars(cover)) <= COVER_STATE
    if isinstance(out, Cover):
        assert set(vars(out)) <= COVER_STATE
