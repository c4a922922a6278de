import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from corrcolor import (
    DomainError,
    HypothesisViolationError,
    InternalConsistencyError,
    build_graph,
    check_reduct_targets,
    cover_from_json_dict,
    cover_to_json_dict,
    degree_expectation_bound,
    expected_pprime,
    extend_coloring,
    gen_complete_bipartite,
    gen_cycle,
    gen_random_bipartite_regular,
    is_valid_coloring,
    make_cover,
    random_cover,
    reduct_step,
    relaxed_params,
    run_nibble,
    solve_exact,
)
from corrcolor import nibble
from corrcolor.rng import derive_int_seed, derive_rng
from corrcolor.weights import (
    ReductState,
    Weighting,
    edge_mass_all,
    entropy_terms,
    live_edge_mass,
    moderate_restrict,
    vertex_mass_all,
)

from .conftest import (
    adjacency,
    random_triangle_free_graph,
    reference_check_reduct_targets,
)


def toy_state(seed=0, n_left=3, n_right=3, k=4, p_hat=0.4, max_deg=8):
    g = gen_complete_bipartite(n_left, n_right)
    cover = random_cover(g, k, seed=seed)
    w = Weighting.uniform(cover, 1.0 / k, p_hat)
    return g, cover, ReductState.initial(g, cover, w, max_deg=max_deg, k=k)


def random_state(seed, p_hat=0.35, max_deg=9):
    """Random small triangle-free instance with a messy weighting."""
    g = random_triangle_free_graph(seed, 4 + seed % 5, 0.4)
    k = 2 + seed % 3
    cover = random_cover(g, k, seed=derive_int_seed(seed, "cover"))
    rng = derive_rng(seed, "weights")
    p = rng.uniform(0.0, p_hat, cover.n_colors)
    p[rng.random(cover.n_colors) < 0.15] = 0.0
    p[rng.random(cover.n_colors) < 0.15] = p_hat
    w = Weighting(p=p, p_hat=p_hat)
    return g, cover, ReductState.initial(g, cover, w, max_deg=max_deg, k=k)


class TestStepBasics:
    def test_zero_weighting_is_fixed_point(self):
        g = gen_cycle(5)
        cover = random_cover(g, 3, seed=1)
        st = ReductState.initial(g, cover, Weighting.zeros(cover, 0.4), max_deg=4, k=3)
        st2, stats = reduct_step(st, seed=0, alpha=0.3)
        assert not stats.sampled.any()
        assert st2.history[-1].removed == ()
        assert np.array_equal(st2.alive, st.alive)
        assert np.array_equal(st2.weighting.p, st.weighting.p)

    def test_isolated_vertex_removed_iff_sampled(self):
        g = build_graph(1, [])
        cover = random_cover(g, 3, seed=2)
        st = ReductState.initial(
            g, cover, Weighting.uniform(cover, 0.3, 0.5), max_deg=3, k=3
        )
        removed_seen = unremoved_seen = False
        for seed in range(40):
            st2, stats = reduct_step(st, seed=seed, alpha=0.9)
            sampled = stats.sampled.any()
            assert (0 in st2.history[-1].removed) == sampled
            # survival product over an empty neighborhood is 1, so an unhit
            # color keeps its weight exactly
            keep = stats.p_prime[~stats.sampled & (st.weighting.p > 0)]
            assert np.all(keep == 0.3)
            removed_seen |= sampled
            unremoved_seen |= not sampled
        assert removed_seen and unremoved_seen

    def test_monotone_or_zero_and_support(self):
        # updated weight is 0 or at least the old weight; support stays at
        # 0 or >= 1/k when it started that way; 1000 steps total, chained
        # so capped and zeroed colors appear
        steps_run = 0
        for seed in range(100):
            g, cover, st = toy_state(seed=seed % 7)
            for j in range(10):
                st2, stats = reduct_step(st, seed=derive_int_seed(seed, "chain", j))
                pp = stats.p_prime
                p = st.weighting.p
                assert np.all((pp == 0.0) | (pp >= p))
                assert np.all((pp == 0.0) | (pp >= 1.0 / st.k))
                assert np.all(pp <= st.weighting.p_hat)
                st = st2
                steps_run += 1
        assert steps_run == 1000

    def test_boundary_weights_stay_boundary(self):
        # weights at 0 or at the cap never become moderate again; this is
        # what lets a coloring that is moderate at the end extend safely
        # through every earlier step
        for seed in range(30):
            _, _, st = random_state(seed)
            p_hat = st.weighting.p_hat
            at_zero = st.weighting.p == 0.0
            at_cap = st.weighting.p == p_hat
            _, stats = reduct_step(st, seed=derive_int_seed(seed, "b"), alpha=0.5)
            assert np.all(stats.p_prime[at_zero] == 0.0)
            assert np.all(stats.p_prime[at_cap] == p_hat)

    def test_capped_colors_frozen(self):
        g, cover, _ = toy_state()
        p = np.full(cover.n_colors, 0.4)
        st = ReductState.initial(g, cover, Weighting(p=p, p_hat=0.4), max_deg=8, k=4)
        st2, stats = reduct_step(st, seed=3)
        assert np.all(stats.p_prime == 0.4)
        assert not stats.sampled.any()

    def test_deterministic(self):
        _, _, st = toy_state(seed=4)
        a1, s1 = reduct_step(st, seed=77)
        a2, s2 = reduct_step(st, seed=77)
        assert np.array_equal(s1.p_prime, s2.p_prime)
        assert np.array_equal(s1.sampled, s2.sampled)
        assert a1.history[-1].removed == a2.history[-1].removed
        assert np.array_equal(a1.weighting.p, a2.weighting.p)

    def test_alpha_validation(self):
        _, _, st = toy_state()
        with pytest.raises(DomainError):
            reduct_step(st, seed=0, alpha=-1.0)
        with pytest.raises(DomainError):
            reduct_step(st, seed=0, alpha=3.0)  # alpha * p_hat > 1

    def test_removed_colors_zeroed_in_new_state(self):
        _, cover, st = toy_state(seed=1)
        lists = cover.lists
        for seed in range(30):
            st2, _ = reduct_step(st, seed=seed)
            for v in st2.history[-1].removed:
                assert all(st2.weighting.p[x] == 0.0 for x in lists[v])

    def test_ids_in_no_list_are_not_zeroed(self):
        # Ids 2 and 3 are in no list, so their owner is -1; removing the last
        # vertex (seed 5) or the first (seed 0) must leave them alone.
        g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        cover = make_cover(
            [[0, 1], [4, 5], [6, 7], [8, 9]],
            {
                (0, 1): [(0, 4), (1, 5)],
                (1, 2): [(4, 6), (5, 7)],
                (2, 3): [(6, 8), (7, 9)],
            },
        )
        w = Weighting.uniform(cover, 0.3, 0.45)
        st = ReductState.initial(g, cover, w, max_deg=2, k=2)
        removed = set()
        for seed in range(8):
            st2, _ = reduct_step(st, seed=seed, alpha=1.0)
            removed.update(st2.history[-1].removed)
            assert st2.weighting.p[[2, 3]].tolist() == [0.3, 0.3]
        assert {0, 3} <= removed

    @pytest.mark.parametrize("alpha", [math.nan, math.inf], ids=["nan", "inf"])
    def test_nonfinite_alpha_rejected_by_step(self, alpha):
        _, _, st = toy_state()
        msg = f"^alpha must be a finite number above 0, got {alpha}$"
        with pytest.raises(DomainError, match=msg):
            reduct_step(st, seed=0, alpha=alpha)


class TestForcedSets:
    @pytest.mark.parametrize("seed", range(25))
    def test_nonempty_unmatched_and_strictly_moderate(self, seed):
        g, cover, st = random_state(seed)
        st2, stats = reduct_step(st, seed=derive_int_seed(seed, "step"), alpha=0.5)
        record = st2.history[-1]
        p, p_hat = st.weighting.p, st.weighting.p_hat
        forced_all = [x for xs in record.forced.values() for x in xs]
        lists, color_neighbors = cover.lists, cover.color_neighbors
        for v in record.removed:
            assert record.forced[v]
            for x in record.forced[v]:
                assert x in lists[v]
                assert 0.0 < p[x] < p_hat
        forced_set = set(forced_all)
        for x in forced_all:
            assert not forced_set & set(color_neighbors[x])


class TestExpectedPprime:
    def test_capped_color(self):
        g, cover, _ = toy_state()
        p = np.full(cover.n_colors, 0.25)
        p[0] = 0.4
        st = ReductState.initial(g, cover, Weighting(p=p, p_hat=0.4), max_deg=8, k=4)
        assert expected_pprime(st, 0) == 0.4

    def test_isolated_color(self):
        g = build_graph(2, [])
        cover = random_cover(g, 2, seed=0)
        st = ReductState.initial(
            g, cover, Weighting.uniform(cover, 0.2, 0.5), max_deg=4, k=2
        )
        assert expected_pprime(st, 0, alpha=0.5) == pytest.approx(0.2, rel=1e-15)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf], ids=["nan", "inf"])
    def test_nonfinite_alpha_rejected(self, alpha):
        _, _, st = toy_state()
        msg = f"^alpha must be a finite number above 0, got {alpha}$"
        with pytest.raises(DomainError, match=msg):
            expected_pprime(st, 0, alpha=alpha)

    @pytest.mark.parametrize("seed", range(50))
    def test_identity_on_random_states(self, seed):
        _, cover, st = random_state(seed)
        for x in range(cover.n_colors):
            want = st.weighting.p[x]
            got = expected_pprime(st, x, alpha=0.45)
            if want == 0.0:
                assert got == 0.0
            else:
                assert got == pytest.approx(want, rel=1e-12)

    def test_monte_carlo_vertex_and_edge_means(self):
        # light version of the acceptance harness
        g, cover, st = toy_state(seed=3)
        n_steps = 2500
        p_v = np.zeros((n_steps, g.n))
        p_uv = np.zeros((n_steps, g.m))
        for i in range(n_steps):
            _, stats = reduct_step(st, seed=i)
            p_v[i] = vertex_mass_all(cover, stats.p_prime)
            p_uv[i] = live_edge_mass(cover, stats.p_prime, st.alive)

        want_v = vertex_mass_all(cover, st.weighting.p)
        want_uv = edge_mass_all(cover, st.weighting.p)
        se_v = p_v.std(axis=0, ddof=1) / math.sqrt(n_steps)
        se_uv = p_uv.std(axis=0, ddof=1) / math.sqrt(n_steps)
        assert np.all(np.abs(p_v.mean(axis=0) - want_v) <= 4.5 * se_v)
        assert np.all(np.abs(p_uv.mean(axis=0) - want_uv) <= 4.5 * se_uv)


def oracle_targets(st, new, params):
    """`reference_check_reduct_targets` of the step from state st to new.

    The pre-step arrays are recomputed from st's weights, and its degrees
    counted by a plain loop, so they check the statistics that st carries.
    """
    cover, p, dmax, k = st.cover, st.weighting.p, st.max_deg, st.k
    alive = st.alive.tolist()
    old = {
        "p_v": vertex_mass_all(cover, p),
        "q_v": vertex_mass_all(cover, entropy_terms(p)),
        "p_uv": edge_mass_all(cover, p),
        "deg": np.array([sum(alive[u] for u in nbrs) for nbrs in adjacency(st.graph)]),
    }
    tol = {
        "vertex": params.dev_vertex(dmax),
        "edge": params.dev_edge(dmax, k),
        "entropy": params.dev_entropy(dmax),
        "degree": params.dev_degree(dmax),
        "shrink": params.shrink(dmax),
    }
    p_v, q_v, d_v, p_uv = new.stats
    post = SimpleNamespace(post_alive=new.alive, p_v=p_v, q_v=q_v, d_v=d_v, p_uv=p_uv)
    return tuple(
        reference_check_reduct_targets(
            old, post, tol, k, math.log(dmax), cover.edge_u, cover.edge_v
        )
    )


def planted(state, stats):
    """A copy of state whose statistics read `stats`."""
    out = replace(state)
    vars(out)["stats"] = stats
    return out


class TestTargets:
    def test_zero_state_passes(self):
        g = gen_cycle(5)
        cover = random_cover(g, 3, seed=1)
        st = ReductState.initial(g, cover, Weighting.zeros(cover, 0.4), max_deg=4, k=3)
        new, _ = reduct_step(st, seed=0, alpha=0.3)
        chk = check_reduct_targets(st, new, relaxed_params())
        assert chk.ok

    @pytest.mark.parametrize(
        "field, shift, kind",
        [
            (0, 10.0, "vertex-mass"),
            (1, -10.0, "entropy"),
            (2, 50, "degree"),
            (3, 10.0, "edge-mass"),
        ],
        ids=["vertex-mass", "entropy", "degree", "edge-mass"],
    )
    def test_fabricated_violation(self, field, shift, kind):
        g, cover, st = toy_state()
        new, _ = reduct_step(st, seed=0)
        stats = list(new.stats)
        stats[field] = stats[field] + shift
        bad = planted(new, tuple(stats))
        assert check_reduct_targets(st, new, relaxed_params()).ok
        chk = check_reduct_targets(st, bad, relaxed_params())
        assert {k for k, *_ in chk.violations} == {kind}

    def test_fabricated_violations_match_the_loop_oracle(self):
        g, cover, st = toy_state(seed=3, n_left=4, n_right=4)
        new, _ = reduct_step(st, seed=0)
        alive = np.flatnonzero(new.alive)
        assert alive.size >= 4
        a = alive.tolist()
        live_edges = np.flatnonzero(
            new.alive[cover.edge_u] & new.alive[cover.edge_v]
        ).tolist()
        dead_edges = sorted(set(range(cover.edge_u.size)) - set(live_edges))
        assert len(live_edges) >= 3 and dead_edges

        def shifted(arr, where, by):
            out = arr.copy()
            out[where] += by
            return out

        p_v, q_v, d_v, p_uv = new.stats
        bad = planted(
            new,
            (
                shifted(p_v, [a[0], a[2]], 10.0),
                shifted(q_v, [a[0], a[1]], -10.0),
                shifted(d_v, [a[3], a[0]], 50),
                # the dead edge is not a survivor's, so it reports nothing
                shifted(p_uv, [live_edges[2], live_edges[0], dead_edges[0]], 10.0),
            ),
        )
        params = relaxed_params()
        chk = check_reduct_targets(st, bad, params)
        assert chk.violations == oracle_targets(st, bad, params)
        assert [(kind, where) for kind, where, *_ in chk.violations] == [
            ("vertex-mass", a[0]),
            ("entropy", a[0]),
            ("degree", a[0]),
            ("entropy", a[1]),
            ("vertex-mass", a[2]),
            ("degree", a[3]),
            ("edge-mass", live_edges[0]),
            ("edge-mass", live_edges[2]),
        ]
        assert not chk.ok

    @staticmethod
    def run_against_oracle(monkeypatch, g, cover, params, seed):
        """run_nibble, checking every target check against the loop oracle.

        Returns the result and, per check, the steps committed before it
        and its outcome.
        """
        checked = []

        def compared(old_state, new_state, params):
            chk = check_reduct_targets(old_state, new_state, params)
            assert chk.violations == oracle_targets(old_state, new_state, params)
            checked.append((len(old_state.history), chk))
            return chk

        monkeypatch.setattr(nibble, "check_reduct_targets", compared)
        result = run_nibble(g, cover, params, seed=seed)
        assert sum(chk.ok for _, chk in checked) == result.steps
        return result, checked

    @pytest.mark.parametrize("tol_scale", [0.5, 0.3])
    def test_every_step_of_a_run_matches_the_loop_oracle(self, monkeypatch, tol_scale):
        g = gen_random_bipartite_regular(100, 12, seed=1)
        cover = random_cover(g, 30, seed=1)
        params = relaxed_params(tol_scale=tol_scale)
        _, checked = self.run_against_oracle(monkeypatch, g, cover, params, seed=1)
        retried = [chk for _, chk in checked if not chk.ok]
        assert retried
        if tol_scale == 0.3:
            kinds = {kind for chk in retried for kind, *_ in chk.violations}
            assert kinds == {"vertex-mass", "entropy", "degree", "edge-mass"}

    def test_tight_checks_after_committed_steps_match_the_loop_oracle(
        self, monkeypatch
    ):
        # At tol_scale=0.3 the run above commits no step, so every check reads
        # the initial state. This one commits three, and its later checks trip
        # entropy targets, whose bounds read the degrees and entropies that a
        # committed step handed on.
        g = gen_random_bipartite_regular(60, 12, seed=26)
        cover = random_cover(g, 40, seed=3)
        params = relaxed_params(tol_scale=0.3)
        result, checked = self.run_against_oracle(monkeypatch, g, cover, params, 1)
        assert result.ok and result.steps == 3
        later = {
            kind for steps, chk in checked if steps for kind, *_ in chk.violations
        }
        assert "entropy" in later

    def test_needs_parameters(self):
        g = gen_cycle(4)
        cover = random_cover(g, 2, seed=0)
        st = ReductState.initial(g, cover, Weighting.uniform(cover, 0.3, 0.6))
        new, _ = reduct_step(st, seed=0, alpha=0.4)
        with pytest.raises(DomainError):
            check_reduct_targets(st, new, relaxed_params())


def sparse_ids(cover):
    """The same cover with each color x renamed 3x + 2: gaps below every id."""
    doc = cover_to_json_dict(cover)
    doc["lists"] = [[3 * x + 2 for x in xs] for xs in doc["lists"]]
    doc["matchings"] = {
        key: [[3 * x + 2, 3 * y + 2] for x, y in pairs]
        for key, pairs in doc["matchings"].items()
    }
    return cover_from_json_dict(doc)


def carried_stats(old, new, p_prime):
    """A new state's statistics by the hand-over formula, as a reference.

    Masses over p' on the pre-step graph, then zeroed at the vertices the
    step removed and at their edges; degrees among survivors by a loop.
    """
    cover = old.cover
    removed = old.alive & ~new.alive
    p_v = np.where(removed, 0.0, vertex_mass_all(cover, p_prime))
    q_v = np.where(removed, 0.0, vertex_mass_all(cover, entropy_terms(p_prime)))
    alive = new.alive.tolist()
    d_v = np.array([sum(alive[u] for u in nbrs) for nbrs in adjacency(old.graph)])
    gone = removed[cover.edge_u] | removed[cover.edge_v]
    p_uv = np.where(gone, 0.0, live_edge_mass(cover, p_prime, old.alive))
    return p_v, q_v, d_v, p_uv


class TestCarriedStats:
    @pytest.mark.parametrize("kind", ["perfect", "bernoulli", "sparse"])
    def test_each_state_computes_the_carried_stats(self, monkeypatch, kind):
        g = gen_random_bipartite_regular(100, 12, seed=1)
        cover, tol_scale, seed = {
            # tight tolerances, so steps are retried; lists short enough that
            # the first states are not nice, so steps are taken at all
            "perfect": (random_cover(g, 36, seed=1), 0.5, 3),
            "bernoulli": (random_cover(g, 12, seed=1, mode="bernoulli", q=0.4), 1.0, 1),
            "sparse": (sparse_ids(random_cover(g, 30, seed=2)), 1.0, 1),
        }[kind]
        made, committed = [], []
        step, check = nibble.reduct_step, nibble.check_reduct_targets

        def stepped(state, step_seed, alpha=None):
            cand, stats = step(state, step_seed, alpha)
            # computed on first read, not handed on by the step
            assert "stats" not in vars(cand)
            made.append((cand, carried_stats(state, cand, stats.p_prime)))
            return cand, stats

        def checked(old_state, new_state, params):
            chk = check(old_state, new_state, params)
            committed.append(chk.ok)
            return chk

        monkeypatch.setattr(nibble, "reduct_step", stepped)
        monkeypatch.setattr(nibble, "check_reduct_targets", checked)
        result = run_nibble(g, cover, relaxed_params(tol_scale=tol_scale), seed=seed)
        assert len(made) == len(committed) and sum(committed) == result.steps > 0
        for st, want in made:
            assert all(map(np.array_equal, st.stats, want))
        assert any(len(st.history[-1].removed) for st, _ in made)
        sizes = np.diff(cover.edge_ptr)
        if kind == "perfect":
            assert not all(committed)
        elif kind == "bernoulli":
            assert (sizes == 0).any() and (sizes < 12).all()
        else:
            assert cover.n_colors > cover.vlist_colors.size


class TestExtend:
    def test_empty_history_is_identity(self):
        assert extend_coloring({0: 5}, ()) == {0: 5}

    def test_collision_raises(self):
        from corrcolor.weights import ReductRecord

        with pytest.raises(InternalConsistencyError):
            extend_coloring({0: 5}, (ReductRecord(removed=(0,), forced={0: (1,)}),))

    @pytest.mark.parametrize("seed", range(20))
    def test_one_step_extension_valid(self, seed):
        g, cover, st = random_state(seed, p_hat=0.5)
        st2, _ = reduct_step(st, seed=derive_int_seed(seed, "s"), alpha=0.5)
        inner = solve_exact(
            g,
            cover,
            restrict=moderate_restrict(st2),
            vertices=[int(v) for v in st2.alive_vertices()],
        )
        if inner is None:
            return
        full = extend_coloring(inner, st2.history)
        assert is_valid_coloring(g, cover, full)
        p, p_hat = st.weighting.p, st.weighting.p_hat
        for v, x in full.items():
            assert 0.0 < p[x] < p_hat

    @pytest.mark.parametrize("seed", [1, 5, 9])
    def test_two_stacked_steps_extension_valid(self, seed):
        g, cover, st = toy_state(seed=seed, p_hat=0.5)
        st1, _ = reduct_step(st, seed=derive_int_seed(seed, "a"))
        st2, _ = reduct_step(st1, seed=derive_int_seed(seed, "b"))
        inner = solve_exact(
            g,
            cover,
            restrict=moderate_restrict(st2),
            vertices=[int(v) for v in st2.alive_vertices()],
        )
        if inner is None:
            return
        full = extend_coloring(inner, st2.history)
        assert is_valid_coloring(g, cover, full)


class TestDiagnostics:
    def test_entropy_never_negative_along_runs(self):
        for seed in range(10):
            g, cover, st = toy_state(seed=seed)
            for j in range(8):
                st2, stats = reduct_step(st, seed=derive_int_seed(seed, "q", j))
                q_v = vertex_mass_all(cover, entropy_terms(stats.p_prime))
                assert np.all(q_v >= 0.0)
                st = st2

    def test_desk_scale_deviation_rates_recorded(self, capsys):
        # empirical frequency of each per-step deviation event at desk scale;
        # recorded only, no pass/fail claim attaches to the rates themselves
        g, cover, st = toy_state(seed=2)
        params = relaxed_params(tol_scale=1.0)
        n_steps = 300
        events = {"vertex-mass": 0, "edge-mass": 0, "entropy": 0, "degree": 0}
        checks = {"vertex-mass": 0, "edge-mass": 0, "entropy": 0, "degree": 0}
        for i in range(n_steps):
            new, _ = reduct_step(st, seed=i)
            chk = check_reduct_targets(st, new, params)
            survivors = int(new.alive.sum())
            edges = int((new.alive[cover.edge_u] & new.alive[cover.edge_v]).sum())
            for kind in ("vertex-mass", "entropy", "degree"):
                checks[kind] += survivors
            checks["edge-mass"] += edges
            for kind, *_ in chk.violations:
                events[kind] += 1
        rates = {
            kind: (events[kind] / checks[kind] if checks[kind] else 0.0)
            for kind in events
        }
        print(f"[diagnostic] per-step deviation rates at tol_scale=1: {rates}")
        assert all(0.0 <= r <= 1.0 for r in rates.values())


class TestDegreeBound:
    def test_zero_weighting_bound_equals_degree(self):
        g = gen_cycle(6)
        cover = random_cover(g, 3, seed=1)
        st = ReductState.initial(g, cover, Weighting.zeros(cover, 0.4), max_deg=4, k=3)
        bounds = degree_expectation_bound(st, 0.0, 0.0, 0.0, alpha=0.3)
        assert bounds == {v: 2.0 for v in range(6)}
        new, _ = reduct_step(st, seed=0, alpha=0.3)
        assert np.all(new.stats[2] == 2)

    def test_hypothesis_violation(self):
        g, cover, st = toy_state()
        with pytest.raises(HypothesisViolationError):
            degree_expectation_bound(st, 0.99, 0.995, 1.0)  # masses are 1.0
        with pytest.raises(HypothesisViolationError):
            degree_expectation_bound(st, 0.5, 1.5, 1e-9)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf], ids=["nan", "inf"])
    def test_nonfinite_alpha_rejected(self, alpha):
        _, _, st = toy_state()
        msg = f"^alpha must be a finite number above 0, got {alpha}$"
        with pytest.raises(DomainError, match=msg):
            degree_expectation_bound(st, 1.0, 1.0, 0.25, alpha=alpha)

    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("name", ["p1", "p2", "edge_cap"])
    def test_nonfinite_hypothesis_rejected(self, name, value):
        _, _, st = toy_state()
        args = {"p1": 1.0, "p2": 1.0, "edge_cap": 0.25, name: value}
        msg = f"^{name} must be a finite number, got {value}$"
        with pytest.raises(DomainError, match=msg):
            degree_expectation_bound(st, **args)

    def test_overflowing_factor_leaves_an_isolated_vertex_at_zero(self):
        g = build_graph(3, [(0, 1)])
        cover = random_cover(g, 2, seed=0)
        w = Weighting.uniform(cover, 0.25, 0.5)
        st = ReductState.initial(g, cover, w, max_deg=2, k=2)
        bounds = degree_expectation_bound(st, 0.0, 1e200, 1.0)
        assert bounds == {0: math.inf, 1: math.inf, 2: 0.0}

    def test_formula(self):
        g, cover, st = toy_state()
        alpha = 1.0 / math.log(8)
        bounds = degree_expectation_bound(st, 1.0, 1.0, 0.25)
        factor = 1.0 - alpha + alpha**2 * (1.0 + 0.25 * 8)
        assert bounds[0] == pytest.approx(3 * factor, rel=1e-12)
