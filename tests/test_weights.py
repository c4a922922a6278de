import math

import numpy as np
import pytest

from corrcolor import (
    DomainError,
    build_graph,
    check_nice,
    gen_complete_bipartite,
    gen_cycle,
    make_cover,
    random_cover,
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

from .conftest import (
    adjacency,
    fsum_by_color,
    reference_cover_views,
    reference_moderate_edge_mass,
    reference_moderate_mass,
)


def uniform_state(g, cover, k, p_hat, max_deg=None):
    return ReductState.initial(
        g, cover, Weighting.uniform(cover, 1.0 / k, p_hat), max_deg=max_deg, k=k
    )


def edge_row(cover, u, v):
    """The cover edge index of the vertex pair {u, v}."""
    keys = list(zip(cover.edge_u.tolist(), cover.edge_v.tolist()))
    return keys.index((min(u, v), max(u, v)))


def entropy_all(cover, p):
    return vertex_mass_all(cover, entropy_terms(p))


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
        p_v = vertex_mass_all(cover, st.weighting.p)
        for v in range(5):
            assert p_v[v] == pytest.approx(1.0, abs=1e-15)

    def test_uniform_perfect_edge_mass_is_one_over_k(self):
        g = gen_cycle(5)
        k = 4
        cover = random_cover(g, k, seed=1)
        st = uniform_state(g, cover, k, p_hat=0.5)
        p_uv = edge_mass_all(cover, st.weighting.p)
        for u, v in g.edges:
            assert p_uv[edge_row(cover, u, v)] == pytest.approx(1.0 / k, rel=1e-12)

    def test_zero_weighting(self):
        g = gen_cycle(4)
        cover = random_cover(g, 3, seed=0)
        p = Weighting.zeros(cover, 0.5).p
        assert vertex_mass_all(cover, p)[0] == 0.0
        assert edge_mass_all(cover, p)[edge_row(cover, 0, 1)] == 0.0
        assert entropy_all(cover, p)[0] == 0.0

    def test_bulk_matches_singular_with_independent_order(self):
        g = gen_complete_bipartite(3, 4)
        cover = random_cover(g, 3, seed=5)
        rng = np.random.default_rng(0)
        p = rng.uniform(0, 0.3, cover.n_colors)
        st = ReductState.initial(g, cover, Weighting(p=p, p_hat=0.3))
        p_v = vertex_mass_all(cover, st.weighting.p)
        lists, matchings = cover.lists, cover.matchings
        for v in range(g.n):
            oracle = fsum_by_color([p[x] for x in lists[v]], order_seed=v)
            assert p_v[v] == pytest.approx(oracle, rel=1e-12)
        p_uv = edge_mass_all(cover, st.weighting.p)
        for i, (u, v) in enumerate(zip(cover.edge_u.tolist(), cover.edge_v.tolist())):
            oracle = fsum_by_color(
                [p[x] * p[y] for x, y in matchings[(u, v)]], order_seed=i
            )
            assert p_uv[i] == pytest.approx(oracle, rel=1e-12)


class TestEntropy:
    def test_uniform_is_log_k(self):
        g = gen_cycle(6)
        k = 5
        cover = random_cover(g, k, seed=2)
        st = uniform_state(g, cover, k, p_hat=0.5)
        q = entropy_all(cover, st.weighting.p)
        for v in range(6):
            assert q[v] == pytest.approx(math.log(k), rel=1e-12)

    def test_point_mass_is_zero(self):
        g = build_graph(1, [])
        cover = random_cover(g, 2, seed=0)
        w = Weighting(p=np.array([1.0, 0.0]), p_hat=2.0)
        assert entropy_all(cover, w.p)[0] == 0.0

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
                w = Weighting(p=np.array([a, b, c]), p_hat=1.0)
                q = entropy_all(cover, w.p)[0]
                if best is None or q > best[0]:
                    best = (q, a, b, c)
        w_uniform = Weighting(p=np.full(3, total / 3), p_hat=1.0)
        assert entropy_all(cover, w_uniform.p)[0] >= best[0] - 1e-9


class TestModerate:
    def test_equals_full_mass_when_no_extremes(self):
        g = gen_cycle(4)
        cover = random_cover(g, 3, seed=1)
        w = uniform_state(g, cover, 3, p_hat=0.9).weighting
        p_m_v = vertex_mass_all(cover, moderate_values(w))
        p_v = vertex_mass_all(cover, w.p)
        for v in range(4):
            assert p_m_v[v] == p_v[v]

    def test_cap_identity_exact_on_dyadic_weights(self):
        # p_m(v) = p(v) - (#capped colors) * p_hat, exactly, when no color is 0.
        g = gen_cycle(4)
        cover = random_cover(g, 4, seed=3)
        p_hat = 0.25
        p = np.full(cover.n_colors, 0.125)
        p[::3] = p_hat
        w = Weighting(p=p, p_hat=p_hat)
        p_m_v = vertex_mass_all(cover, moderate_values(w))
        p_v = vertex_mass_all(cover, w.p)
        lists = cover.lists
        for v in range(4):
            capped = sum(1 for x in lists[v] if p[x] == p_hat)
            assert p_m_v[v] == p_v[v] - capped * p_hat

    def test_all_capped_gives_zero(self):
        g = gen_cycle(4)
        cover = random_cover(g, 2, seed=0)
        pm = moderate_values(Weighting.uniform(cover, 0.3, 0.3))
        assert vertex_mass_all(cover, pm)[0] == 0.0
        assert edge_mass_all(cover, pm)[edge_row(cover, 0, 1)] == 0.0

    def test_moderate_edge_mass_requires_both_moderate(self):
        g = build_graph(2, [(0, 1)])
        cover = random_cover(g, 2, seed=1)
        p = np.array([0.3, 0.1, 0.1, 0.1])
        pm = moderate_values(Weighting(p=p, p_hat=0.3))
        pairs = cover.matchings[(0, 1)]
        expected = sum(
            p[x] * p[y] for x, y in pairs if p[x] != 0.3 and p[y] != 0.3
        )
        assert edge_mass_all(cover, pm)[0] == pytest.approx(expected, rel=1e-12)

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

    def test_moderate_restrict_matches_loop_with_dead_vertices(self):
        # Unsorted lists of scattered ids, weights at 0, moderate and at the
        # cap, and a third of the vertices dead.
        g = gen_cycle(9)
        rng = np.random.default_rng(11)
        ids = rng.choice(80, 9 * 5, replace=False).tolist()
        raw_lists = [ids[5 * v : 5 * v + 5] for v in range(9)]
        raw_matchings = {
            (u, v): list(zip(raw_lists[u], raw_lists[v])) for u, v in g.edges.tolist()
        }
        cover = make_cover(raw_lists, raw_matchings)
        p_hat = 0.25
        p = rng.choice([0.0, 0.1, 0.2, p_hat], cover.n_colors)
        alive = np.ones(9, dtype=bool)
        alive[[1, 4, 8]] = False
        st = ReductState(
            graph=g, cover=cover, weighting=Weighting(p=p, p_hat=p_hat), alive=alive
        )
        got = moderate_restrict(st)

        lists = reference_cover_views(raw_lists, raw_matchings)["lists"]
        expected = {
            v: tuple(x for x in lst if 0.0 < p[x] < p_hat)
            for v, lst in enumerate(lists)
            if alive[v]
        }
        assert list(got.items()) == list(expected.items())
        assert all(type(v) is int for v in got)
        assert all(type(x) is int for xs in got.values() for x in xs)
        # the case reaches what it is meant to reach
        live_ids = [x for v, lst in enumerate(lists) if alive[v] for x in lst]
        assert {0.0, p_hat} <= {p[x] for x in live_ids}
        dead_ids = [x for v, lst in enumerate(lists) if not alive[v] for x in lst]
        assert any(0.0 < p[x] < p_hat for x in dead_ids)


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
            lists, matchings = cover.lists, cover.matchings
            p, p_hat = st.weighting.p.tolist(), st.weighting.p_hat
            for v in range(g.n):
                incident = sum(
                    reference_moderate_edge_mass(matchings, p, p_hat, v, u)
                    for u in nbrs[v]
                )
                p_m = reference_moderate_mass(lists, p, p_hat, v)
                assert 2 * p_m / d >= 1 + (4 / d**2) * incident - 1e-12
