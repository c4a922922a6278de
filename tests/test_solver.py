from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrcolor import (
    DomainError,
    MalformedInputError,
    SearchBudgetExceeded,
    build_graph,
    check_coloring,
    count_colorings,
    gen_complete_bipartite,
    gen_cycle,
    gen_random_bipartite_regular,
    greedy_color,
    is_valid_coloring,
    lift_from_lists,
    make_cover,
    max_degree,
    random_cover,
    shifted_cycle_cover,
    solve_exact,
    solve_report,
    validate_cover,
)
from corrcolor.rng import derive_int_seed, derive_rng
from corrcolor.solver import DEFAULT_NODE_BUDGET, _search

from .conftest import (
    adjacency,
    brute_force_colorings,
    random_graph,
    reference_check_coloring,
    reference_cover_views,
    reference_search,
    solve_lists,
)


@pytest.fixture
def c4_equal_lift():
    g = gen_cycle(4)
    return g, lift_from_lists(g, [[1, 2]] * 4)


@pytest.fixture
def single_edge_cover():
    g = build_graph(2, [(0, 1)])
    return g, random_cover(g, 2, seed=7)


class TestValidity:
    def test_alternating_two_coloring(self, c4_equal_lift):
        g, cover = c4_equal_lift
        # labels 1,2,1,2 are ids 0,3,4,7
        assert is_valid_coloring(g, cover, {0: 0, 1: 3, 2: 4, 3: 7})

    def test_all_same_label_conflicts(self, c4_equal_lift):
        g, cover = c4_equal_lift
        bad = {0: 0, 1: 2, 2: 4, 3: 6}
        assert not is_valid_coloring(g, cover, bad)
        assert "matched colors" in check_coloring(g, cover, bad)

    def test_wrong_list_reported(self, c4_equal_lift):
        g, cover = c4_equal_lift
        assert "not in that vertex's list" in check_coloring(
            g, cover, {0: 2, 1: 3, 2: 4, 3: 7}
        )

    def test_missing_vertex_reported(self, c4_equal_lift):
        g, cover = c4_equal_lift
        assert "no color" in check_coloring(g, cover, {0: 0})

    def test_unknown_color_is_malformed(self, c4_equal_lift):
        g, cover = c4_equal_lift
        with pytest.raises(MalformedInputError):
            check_coloring(g, cover, {0: 99, 1: 3, 2: 4, 3: 7})

    def test_shifted_c4_all_transversals_invalid(self):
        g = gen_cycle(4)
        cover = shifted_cycle_cover(4)
        import itertools

        for combo in itertools.product(*cover.lists):
            assert not is_valid_coloring(g, cover, dict(enumerate(combo)))


class TestGreedy:
    @pytest.mark.parametrize("seed", range(12))
    def test_succeeds_with_degree_plus_one(self, seed):
        g = random_graph(seed, 4 + seed % 9, 0.5)
        k = max_degree(g) + 1
        cover = random_cover(g, k, seed=seed)
        order = list(derive_rng(seed, "order").permutation(g.n))
        coloring, stuck = greedy_color(g, cover, [int(v) for v in order])
        assert stuck is None
        assert is_valid_coloring(g, cover, coloring)

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_reference_first_fit(self, seed):
        rng = derive_rng(seed, "greedy-oracle")
        g = random_graph(derive_int_seed(seed, "g"), int(rng.integers(2, 10)), 0.5)
        mode = ("perfect", "bernoulli")[seed % 2]
        cover = random_cover(g, int(rng.integers(1, 4)), seed=seed, mode=mode)
        order = [int(v) for v in rng.permutation(g.n)]
        views = reference_cover_views(cover.lists, cover.matchings)
        lists, partners = views["lists"], views["partners"]
        nbrs = adjacency(g)
        chosen, stuck = {}, None
        for v in order:
            forbidden = {
                partners[chosen[u]].get(v) for u in nbrs[v] if u in chosen
            }
            pick = next((x for x in lists[v] if x not in forbidden), None)
            if pick is None:
                chosen, stuck = None, v
                break
            chosen[v] = pick
        assert greedy_color(g, cover, order) == (chosen, stuck)

    def test_single_edge_k1_sticks_at_second_vertex(self):
        g = build_graph(2, [(0, 1)])
        cover = random_cover(g, 1, seed=0)
        coloring, stuck = greedy_color(g, cover, [0, 1])
        assert coloring is None and stuck == 1

    def test_edgeless_k1(self):
        g = build_graph(4, [])
        cover = random_cover(g, 1, seed=0)
        coloring, stuck = greedy_color(g, cover, [3, 2, 1, 0])
        assert stuck is None and len(coloring) == 4

    def test_bad_order_rejected(self):
        g = gen_cycle(4)
        cover = random_cover(g, 3, seed=0)
        with pytest.raises(DomainError, match="permutation"):
            greedy_color(g, cover, [0, 1, 2])


class TestInvalidCover:
    def _shared(self):
        # Color 1 is in the lists of vertices 0 and 1.
        g = build_graph(3, [(0, 1), (1, 2)])
        matchings = {(0, 1): [(0, 2)], (1, 2): [(1, 3)]}
        return g, make_cover([[0, 1], [1, 2], [3, 4]], matchings)

    @pytest.mark.parametrize("vertices", [None, [1, 2]])
    def test_shared_color_is_refused(self, vertices):
        g, cover = self._shared()
        assert validate_cover(g, cover)
        with pytest.raises(DomainError, match="invalid cover: color 1 at vertex 1"):
            count_colorings(g, cover, vertices=vertices)

    def test_negative_color_is_refused(self):
        g = build_graph(2, [(0, 1)])
        cover = make_cover([[-1, 0], [1]], {})
        with pytest.raises(DomainError, match="color -1 at vertex 0"):
            solve_exact(g, cover)


class TestSolveExact:
    def test_shifted_c6_none(self):
        g = gen_cycle(6)
        cover = shifted_cycle_cover(6)
        assert solve_exact(g, cover) is None
        assert brute_force_colorings(g, cover) == []

    def test_c5_three_labels(self):
        g = gen_cycle(5)
        cover = lift_from_lists(g, [[1, 2, 3]] * 5)
        coloring = solve_exact(g, cover)
        assert coloring is not None
        assert is_valid_coloring(g, cover, coloring)

    def test_restrict_honored(self):
        g = gen_cycle(5)
        cover = lift_from_lists(g, [[1, 2, 3]] * 5)
        lists = cover.lists
        restrict = {v: lists[v][:2] for v in range(5)}
        coloring = solve_exact(g, cover, restrict=restrict)
        # restricting an odd cycle to two labels per vertex kills it
        assert coloring is None

    def test_restrict_must_be_subset(self):
        g = gen_cycle(4)
        cover = random_cover(g, 2, seed=0)
        with pytest.raises(DomainError, match="non-list"):
            solve_exact(g, cover, restrict={0: [999]})

    def test_vertices_subset(self):
        g = gen_cycle(6)
        cover = shifted_cycle_cover(6)
        # the full instance is not colorable, but the path induced by
        # dropping one vertex is
        coloring = solve_exact(g, cover, vertices=[0, 1, 2, 3, 4])
        assert coloring is not None
        assert is_valid_coloring(g, cover, coloring, vertices=[0, 1, 2, 3, 4])

    def test_deterministic(self):
        g = random_graph(5, 8, 0.5)
        cover = random_cover(g, 3, seed=5)
        assert solve_exact(g, cover) == solve_exact(g, cover)

    def test_budget_exceeded(self):
        g = gen_cycle(6)
        cover = random_cover(g, 3, seed=1)
        with pytest.raises(SearchBudgetExceeded):
            count_colorings(g, cover, node_budget=3)

    def test_vertex_out_of_range(self):
        g = gen_cycle(6)
        cover = random_cover(g, 3, seed=1)
        with pytest.raises(DomainError, match="out of range"):
            solve_exact(g, cover, vertices=[g.n])

    def test_restrict_key_out_of_range(self):
        g = gen_cycle(6)
        cover = random_cover(g, 3, seed=1)
        with pytest.raises(DomainError, match="vertex 9"):
            solve_exact(g, cover, restrict={9: [1]})

    def test_negative_budget(self):
        g = gen_cycle(6)
        cover = random_cover(g, 3, seed=1)
        msg = "^node_budget must be an integer of at least 0, got -5$"
        with pytest.raises(DomainError, match=msg):
            solve_exact(g, cover, node_budget=-5)

    def test_long_cycle_has_no_depth_limit(self):
        # One vertex per search level: a recursive search overflows here.
        g = gen_cycle(20_000)
        cover = random_cover(g, 3, seed=1)
        coloring = solve_exact(g, cover)
        assert check_coloring(g, cover, coloring) is None
        out = solve_report(g, cover)
        assert out.coloring == coloring
        assert out.nodes_explored == 20_000


def test_decide_count_is_none_when_a_domain_starts_empty():
    g = gen_cycle(6)
    cover = random_cover(g, 3, seed=1)
    out = solve_report(g, cover, restrict={0: []})
    assert (out.status, out.count, out.nodes_explored) == ("not-colorable", None, 0)
    assert solve_report(g, cover, restrict={0: []}, count=True).count == 0


def _reference_case(seed):
    """A small seeded instance with optional restriction and vertex subset."""
    rng = derive_rng(seed, "reference-case")
    n, p = int(rng.integers(3, 10)), float(rng.random())
    g = random_graph(derive_int_seed(seed, "g"), n, p)
    k = 1 + seed % 4
    mode = ("perfect", "bernoulli")[seed // 4 % 2]
    cover = random_cover(g, k, seed=seed, mode=mode)
    restrict = None
    if seed // 8 % 2:
        lists = cover.lists
        restrict = {
            v: [x for x in lists[v] if rng.random() < 0.7]
            for v in range(g.n)
            if rng.random() < 0.5
        }
    vertices = None
    if seed // 16 % 2:
        vertices = [v for v in range(g.n) if rng.random() < 0.75]
    return g, cover, restrict, vertices, bool(seed // 32 % 2)


def _items(coloring):
    return None if coloring is None else list(coloring.items())


@pytest.mark.parametrize("seed", range(240))
def test_matches_reference_search(seed):
    g, cover, restrict, vertices, count = _reference_case(seed)
    status, coloring, n, nodes = reference_search(g, cover, restrict, vertices, count)

    def search(budget):
        return _search(g, cover, restrict, vertices, budget, count_all=count)

    out = search(DEFAULT_NODE_BUDGET)
    # the first coloring must also match in assignment (insertion) order
    got = (out.status, _items(out.coloring), out.count, out.nodes_explored)
    assert got == (status, _items(coloring), n, nodes)
    if nodes > 0:
        with pytest.raises(SearchBudgetExceeded) as exc:
            search(nodes - 1)
        assert exc.value.nodes_explored == nodes
        assert search(nodes) == out


@pytest.mark.parametrize("mode", ["perfect", "bernoulli"])
@pytest.mark.parametrize("seed", range(30))
def test_domains_beyond_a_byte_match_reference_search(seed, mode):
    # Domains wider than a byte, with sizes on both sides of 255, mixed with
    # small domains that are decided first, pinned against reference_search.
    rng = derive_rng(seed, "big-domains")
    g = random_graph(seed, 6, 0.5)
    cover = random_cover(g, 300, seed=seed, mode=mode)
    sizes = [300, 299, 280, 256, 255, 254, 3]
    restrict = {
        v: rng.choice(lst, size=sizes[rng.integers(len(sizes))], replace=False).tolist()
        for v, lst in enumerate(cover.lists)
    }
    status, coloring, _, nodes = reference_search(g, cover, restrict)
    out = solve_report(g, cover, restrict)
    got = (out.status, _items(out.coloring), out.count, out.nodes_explored)
    assert got == (status, _items(coloring), None, nodes)


@pytest.mark.parametrize("count", [False, True])
def test_capped_sizes_survive_backtracking(count):
    # Domains at a byte's edge (254 and 255 colors), pinned against
    # reference_search through backtracking. Vertices 0-2 are a triangle whose
    # first try at vertex 0 is undone, after taking a color from vertex 3 (255
    # colors) on the way. Vertex 4 (254 colors) must still come before vertex 3,
    # in the first coloring and, after the count backtracks over both, in the
    # node total.
    g = build_graph(5, [(0, 1), (0, 2), (1, 2), (0, 3)])
    cover = lift_from_lists(g, [[0, 300], [0, 1], [0, 1], range(255), range(254)])
    status, coloring, n, nodes = reference_search(g, cover, count=count)
    out = solve_report(g, cover, count=count)
    got = (out.status, _items(out.coloring), out.count, out.nodes_explored)
    assert got == (status, _items(coloring), n, nodes)
    assert list(out.coloring)[3:] == [4, 3]


@pytest.mark.parametrize(
    "seed, nodes", [(0, 27103), (1, 24139), (2, 41089)], ids=["seed-0", "seed-1", "seed-2"]
)
def test_deep_refutations_keep_their_trees(seed, nodes):
    # Lower-bound shaped instances, refuted after tens of thousands of
    # backtracking nodes: the node count pins the search tree.
    g = gen_random_bipartite_regular(36, 12, seed=seed)
    cover = random_cover(g, 4, seed=seed)
    out = solve_report(g, cover, count=True)
    assert (out.count, out.nodes_explored) == (0, nodes)
    with pytest.raises(SearchBudgetExceeded) as exc:
        solve_report(g, cover, count=True, node_budget=nodes - 1)
    assert exc.value.nodes_explored == nodes


@pytest.mark.parametrize("count", [False, True])
def test_empty_vertex_sets_have_one_empty_coloring(count):
    # No vertex and no domain: the empty coloring is the only leaf, reached
    # without a node, so even a budget of 0 is enough.
    want = ("colorable", {}, 1 if count else None, 0)
    g = gen_cycle(6)
    cover = random_cover(g, 3, seed=1)
    empty = build_graph(0, [])
    empty_cover = random_cover(empty, 3, seed=1)
    for out in (
        _search(g, cover, None, [], 0, count_all=count),
        solve_report(empty, empty_cover, count=count, node_budget=0),
    ):
        assert (out.status, out.coloring, out.count, out.nodes_explored) == want
    assert count_colorings(g, cover, vertices=[], node_budget=0) == 1
    assert count_colorings(empty, empty_cover, node_budget=0) == 1
    assert solve_exact(g, cover, vertices=[], node_budget=0) == {}


class TestCount:
    def test_single_vertex(self):
        g = build_graph(1, [])
        cover = random_cover(g, 3, seed=0)
        assert count_colorings(g, cover) == 3

    def test_single_edge_k2(self, single_edge_cover):
        g, cover = single_edge_cover
        assert count_colorings(g, cover) == 2

    def test_c4_equal_lift(self, c4_equal_lift):
        g, cover = c4_equal_lift
        assert count_colorings(g, cover) == 2

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_brute_force(self, seed):
        g = random_graph(seed, 3 + seed % 4, 0.6)
        cover = random_cover(g, 1 + seed % 3, seed=seed)
        assert count_colorings(g, cover) == len(brute_force_colorings(g, cover))

    @pytest.mark.parametrize("seed", range(10))
    def test_zero_count_iff_unsolvable(self, seed):
        g = random_graph(seed, 5, 0.7)
        cover = random_cover(g, 2, seed=seed)
        assert (count_colorings(g, cover) == 0) == (solve_exact(g, cover) is None)

    def test_solution_always_valid(self):
        for seed in range(10):
            g = random_graph(seed, 7, 0.4)
            cover = random_cover(g, 2, seed=seed)
            coloring = solve_exact(g, cover)
            if coloring is not None:
                assert is_valid_coloring(g, cover, coloring)

    def test_report_fields(self, c4_equal_lift):
        g, cover = c4_equal_lift
        out = solve_report(g, cover, count=True)
        assert out.status == "colorable"
        assert out.count == 2
        assert out.nodes_explored > 0


class TestSolveLists:
    def test_c4_two_labels(self):
        g = gen_cycle(4)
        assert solve_lists(g, [[1, 2]] * 4) is not None

    def test_k3_two_labels(self):
        g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
        assert solve_lists(g, [[1, 2]] * 3) is None

    def test_assignment_is_proper(self):
        g = random_graph(2, 8, 0.5)
        lists = [[1, 2, 3]] * g.n
        got = solve_lists(g, lists)
        assert got is not None
        for u, v in g.edges:
            assert got[u] != got[v]

    @pytest.mark.parametrize("seed", range(30))
    def test_agrees_with_lift(self, seed):
        rng = derive_rng(seed, "inst")
        n = 2 + seed % 7
        g = random_graph(derive_int_seed(seed, "g"), n, 0.5)
        lists = [
            [int(x) for x in rng.choice(3, size=int(rng.integers(1, 4)), replace=False)]
            for _ in range(n)
        ]
        cover = lift_from_lists(g, lists)
        assert (solve_lists(g, lists) is not None) == (solve_exact(g, cover) is not None)


def test_k88_random_covers_rarely_colorable():
    g = gen_complete_bipartite(8, 8)
    for seed in range(5):
        cover = random_cover(g, 2, seed=seed)
        assert solve_exact(g, cover) is None


@given(st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_greedy_never_returns_invalid(seed):
    g = random_graph(seed, 4 + seed % 5, 0.5)
    cover = random_cover(g, 2, seed=seed)
    coloring, stuck = greedy_color(g, cover, list(range(g.n)))
    if stuck is None:
        assert is_valid_coloring(g, cover, coloring)
    else:
        assert coloring is None


def _check_case(seed):
    """A small valid cover and a coloring that is valid or has one flaw."""
    rng = derive_rng(seed, "check-coloring-case")
    g = random_graph(derive_int_seed(seed, "g"), int(rng.integers(2, 9)), 0.5)
    k = int(rng.integers(1, 4))
    if seed % 3:
        cover = random_cover(g, k, seed=seed, mode=("perfect", "bernoulli")[seed % 2])
    else:
        labels = [rng.choice(4, size=k, replace=False) for _ in range(g.n)]
        cover = lift_from_lists(g, labels)
    lists = cover.lists
    coloring = {v: int(rng.choice(lists[v])) for v in range(g.n)}
    v = int(rng.integers(g.n))
    flaw = seed // 3 % 4
    if flaw == 1:
        del coloring[v]
    elif flaw == 2:
        coloring[v] = int(rng.integers(cover.n_colors))
    elif flaw == 3:
        coloring[v] = cover.n_colors + int(rng.integers(0, 3))
    vertices = None
    if rng.random() < 0.3:
        vertices = [u for u in range(g.n) if rng.random() < 0.7]
    want = reference_check_coloring(g, lists, cover.matchings, coloring, vertices)
    return g, cover, coloring, vertices, want


@pytest.mark.parametrize("seed", range(160))
def test_check_coloring_matches_reference(seed):
    g, cover, coloring, vertices, want = _check_case(seed)
    if want == "malformed":
        with pytest.raises(MalformedInputError):
            check_coloring(g, cover, coloring, vertices)
    else:
        assert check_coloring(g, cover, coloring, vertices) == want


def test_check_coloring_cases_reach_every_outcome():
    outcomes = Counter()
    for seed in range(160):
        want = _check_case(seed)[-1]
        outcomes[want if want in (None, "malformed") else want.split()[0]] += 1
    for outcome in (None, "malformed", "vertex", "color", "matched"):
        assert outcomes[outcome] >= 10, outcomes
