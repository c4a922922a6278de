import math

import numpy as np
import pytest

from corrcolor import (
    DomainError,
    build_graph,
    check_nice,
    edge_mass,
    entropy,
    gen_complete_bipartite,
    gen_cycle,
    make_cover,
    moderate_edge_mass,
    moderate_mass,
    random_cover,
    vertex_mass,
)
from corrcolor.weights import (
    ReductState,
    Weighting,
    edge_mass_all,
    entropy_terms,
    moderate_restrict,
    moderate_values,
    vertex_mass_all,
)

from .conftest import adjacency, fsum_by_color


def uniform_state(g, cover, k, p_hat, max_deg=None):
    return ReductState.initial(
        g, cover, Weighting.uniform(cover, 1.0 / k, p_hat), max_deg=max_deg, k=k
    )


class TestWeighting:
    def test_bounds_enforced(self):
        nan, inf = math.nan, math.inf
        cases = [
            ([0.5], 0.4),
            ([-0.1], 0.4),
            ([0.1], 0.0),
            ([0.1, nan], 0.4),
            ([inf], 0.4),
            ([-inf], 0.4),
            ([0.1], nan),
            ([0.1], inf),
        ]
        for p, p_hat in cases:
            with pytest.raises(DomainError):
                Weighting(p=np.array(p), p_hat=p_hat)

    def test_moderate_and_capped_masks(self):
        w = Weighting(p=np.array([0.0, 0.2, 0.4]), p_hat=0.4)
        assert list(w.moderate) == [False, True, False]
        assert list(w.capped) == [False, False, True]


class TestMasses:
    def test_uniform_vertex_mass_is_one(self):
        g = gen_cycle(5)
        cover = random_cover(g, 4, seed=1)
        st = uniform_state(g, cover, 4, p_hat=0.5)
        for v in range(5):
            assert vertex_mass(st, v) == pytest.approx(1.0, abs=1e-15)

    def test_uniform_perfect_edge_mass_is_one_over_k(self):
        g = gen_cycle(5)
        k = 4
        cover = random_cover(g, k, seed=1)
        st = uniform_state(g, cover, k, p_hat=0.5)
        for u, v in g.edges:
            assert edge_mass(st, u, v) == pytest.approx(1.0 / k, rel=1e-12)

    def test_zero_weighting(self):
        g = gen_cycle(4)
        cover = random_cover(g, 3, seed=0)
        st = ReductState.initial(g, cover, Weighting.zeros(cover, 0.5))
        assert vertex_mass(st, 0) == 0.0
        assert edge_mass(st, 0, 1) == 0.0
        assert entropy(st, 0) == 0.0

    def test_dead_vertex_rejected(self):
        g = gen_cycle(4)
        cover = random_cover(g, 2, seed=0)
        st = uniform_state(g, cover, 2, p_hat=0.9)
        dead = st.alive.copy()
        dead[2] = False
        st2 = ReductState(
            graph=g, cover=cover, weighting=st.weighting, alive=dead
        )
        with pytest.raises(DomainError, match="not in the current graph"):
            vertex_mass(st2, 2)

    def test_non_edge_rejected(self):
        g = gen_cycle(4)
        cover = random_cover(g, 2, seed=0)
        st = uniform_state(g, cover, 2, p_hat=0.9)
        with pytest.raises(DomainError, match="no matching"):
            edge_mass(st, 0, 2)

    def test_bulk_matches_singular_with_independent_order(self):
        g = gen_complete_bipartite(3, 4)
        cover = random_cover(g, 3, seed=5)
        rng = np.random.default_rng(0)
        p = rng.uniform(0, 0.3, cover.n_colors)
        st = ReductState.initial(g, cover, Weighting(p=p, p_hat=0.3))
        p_v = vertex_mass_all(cover, st.weighting.p)
        for v in range(g.n):
            oracle = fsum_by_color([p[x] for x in cover.lists[v]], order_seed=v)
            assert p_v[v] == pytest.approx(oracle, rel=1e-12)
            assert vertex_mass(st, v) == pytest.approx(oracle, rel=1e-12)
        p_uv = edge_mass_all(cover, st.weighting.p)
        for i, (u, v) in enumerate(zip(cover.edge_u.tolist(), cover.edge_v.tolist())):
            oracle = fsum_by_color(
                [p[x] * p[y] for x, y in cover.matchings[(u, v)]], order_seed=i
            )
            assert p_uv[i] == pytest.approx(oracle, rel=1e-12)


class TestEntropy:
    def test_uniform_is_log_k(self):
        g = gen_cycle(6)
        k = 5
        cover = random_cover(g, k, seed=2)
        st = uniform_state(g, cover, k, p_hat=0.5)
        for v in range(6):
            assert entropy(st, v) == pytest.approx(math.log(k), rel=1e-12)

    def test_point_mass_is_zero(self):
        g = build_graph(1, [])
        cover = random_cover(g, 2, seed=0)
        w = Weighting(p=np.array([1.0, 0.0]), p_hat=2.0)
        st = ReductState.initial(g, cover, w)
        assert entropy(st, 0) == 0.0

    def test_zero_convention(self):
        assert list(entropy_terms(np.array([0.0, 1.0]))) == [0.0, 0.0]

    def test_uniform_maximizes_entropy_for_fixed_mass_and_support(self):
        # three colors, total mass 0.9: grid search over the simplex
        g = build_graph(1, [])
        cover = random_cover(g, 3, seed=0)
        total = 0.9
        best = None
        grid = np.linspace(0.01, total - 0.02, 45)
        for a in grid:
            for b in grid:
                c = total - a - b
                if c <= 0:
                    continue
                st = ReductState.initial(
                    g, cover, Weighting(p=np.array([a, b, c]), p_hat=1.0)
                )
                q = entropy(st, 0)
                if best is None or q > best[0]:
                    best = (q, a, b, c)
        st_uniform = ReductState.initial(
            g, cover, Weighting(p=np.full(3, total / 3), p_hat=1.0)
        )
        assert entropy(st_uniform, 0) >= best[0] - 1e-9


class TestModerate:
    def test_equals_full_mass_when_no_extremes(self):
        g = gen_cycle(4)
        cover = random_cover(g, 3, seed=1)
        st = uniform_state(g, cover, 3, p_hat=0.9)
        for v in range(4):
            assert moderate_mass(st, v) == vertex_mass(st, v)

    def test_cap_identity_exact_on_dyadic_weights(self):
        # p_m(v) = p(v) - (#capped colors) * p_hat, exactly, when no color is 0.
        g = gen_cycle(4)
        cover = random_cover(g, 4, seed=3)
        p_hat = 0.25
        p = np.full(cover.n_colors, 0.125)
        p[::3] = p_hat
        st = ReductState.initial(g, cover, Weighting(p=p, p_hat=p_hat))
        for v in range(4):
            capped = sum(1 for x in cover.lists[v] if p[x] == p_hat)
            assert moderate_mass(st, v) == vertex_mass(st, v) - capped * p_hat

    def test_all_capped_gives_zero(self):
        g = gen_cycle(4)
        cover = random_cover(g, 2, seed=0)
        st = ReductState.initial(g, cover, Weighting.uniform(cover, 0.3, 0.3))
        assert moderate_mass(st, 0) == 0.0
        assert moderate_edge_mass(st, 0, 1) == 0.0

    def test_moderate_edge_mass_requires_both_moderate(self):
        g = build_graph(2, [(0, 1)])
        cover = random_cover(g, 2, seed=1)
        p = np.array([0.3, 0.1, 0.1, 0.1])
        st = ReductState.initial(g, cover, Weighting(p=p, p_hat=0.3))
        pairs = cover.matchings[(0, 1)]
        expected = sum(
            p[x] * p[y] for x, y in pairs if p[x] != 0.3 and p[y] != 0.3
        )
        assert moderate_edge_mass(st, 0, 1) == pytest.approx(expected, rel=1e-12)

    def test_moderate_restrict_lists_moderate_colors_only(self):
        g = gen_cycle(4)
        cover = random_cover(g, 3, seed=2)
        p = np.full(cover.n_colors, 0.2)
        p[0] = 0.0
        p[5] = 0.5
        st = ReductState.initial(g, cover, Weighting(p=p, p_hat=0.5))
        restrict = moderate_restrict(st)
        assert 0 not in restrict[0]
        assert 5 not in restrict[1]
        assert all(0.0 < p[x] < 0.5 for xs in restrict.values() for x in xs)


class TestNiceness:
    def test_constructed_toy_is_nice(self):
        # 70 colors per vertex at weight 0.01 on a 4-cycle:
        # min moderate mass 0.7, doubled max weight 0.02,
        # edge term 2 sqrt(2 * 70 * 0.0001) = 0.2366.
        g = gen_cycle(4)
        cover = random_cover(g, 70, seed=0)
        st = ReductState.initial(g, cover, Weighting.uniform(cover, 0.01, 0.02))
        nc = check_nice(st)
        assert nc.ok
        assert nc.delta == pytest.approx(0.7, rel=1e-12)
        assert nc.doubled_max_weight == pytest.approx(0.02, rel=1e-12)
        assert nc.edge_term == pytest.approx(
            2 * math.sqrt(2 * 70 * 0.01**2), rel=1e-12
        )

    def test_all_zero_not_nice(self):
        g = gen_cycle(4)
        cover = random_cover(g, 2, seed=0)
        st = ReductState.initial(g, cover, Weighting.zeros(cover, 0.5))
        nc = check_nice(st)
        assert not nc.ok
        assert "zero moderate mass" in nc.reason

    def test_large_weight_fails_condition_two(self):
        g = build_graph(2, [(0, 1)])
        cover = random_cover(g, 2, seed=1)
        p = np.array([0.4, 0.05, 0.3, 0.15])
        st = ReductState.initial(g, cover, Weighting(p=p, p_hat=0.6))
        nc = check_nice(st)
        assert not nc.ok
        assert "exceeds half" in nc.reason

    def test_heavy_edges_fail_condition_three(self):
        g = gen_cycle(4)
        cover = random_cover(g, 2, seed=2)
        st = ReductState.initial(g, cover, Weighting.uniform(cover, 0.5, 2.0))
        nc = check_nice(st)
        assert not nc.ok
        assert "edge mass" in nc.reason

    def test_no_vertices(self):
        g = gen_cycle(4)
        cover = random_cover(g, 2, seed=0)
        st = ReductState.initial(g, cover, Weighting.uniform(cover, 0.2, 0.5))
        empty = ReductState(
            graph=g,
            cover=cover,
            weighting=st.weighting,
            alive=np.zeros(4, dtype=bool),
        )
        assert not check_nice(empty).ok

    def test_colors_in_no_list_do_not_count(self):
        # ids 4-7 lie in no list, so their weights cannot matter
        g = build_graph(2, [(0, 1)])
        cover = make_cover(
            [[0, 1, 2, 3], [8, 9, 10, 11]], {(0, 1): [(0, 8), (1, 9), (2, 10), (3, 11)]}
        )
        checks = []
        for gap in (0.1, 0.4):
            p = np.full(cover.n_colors, 0.1)
            p[4:8] = gap
            st = ReductState.initial(g, cover, Weighting(p=p, p_hat=0.5))
            assert not st.live_color_mask()[4:8].any()
            checks.append(check_nice(st))
        assert checks[0] == checks[1]
        assert checks[0].ok and checks[0].delta == pytest.approx(0.4)

    def test_delta_implies_survival_inequality(self):
        # whenever the check passes, 2 p_m(v)/delta >= 1 + (4/delta^2) * sum
        # of incident moderate edge masses, recomputed from scratch
        for seed in range(8):
            g = gen_cycle(6)
            cover = random_cover(g, 40, seed=seed)
            st = ReductState.initial(
                g, cover, Weighting.uniform(cover, 1 / 55, 0.03)
            )
            nc = check_nice(st)
            assert nc.ok
            d = nc.delta
            nbrs = adjacency(g)
            for v in range(g.n):
                incident = sum(moderate_edge_mass(st, v, u) for u in nbrs[v])
                assert 2 * moderate_mass(st, v) / d >= 1 + (4 / d**2) * incident - 1e-12
