import dataclasses
import itertools
import json
import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrcolor import (
    Cover,
    DomainError,
    MalformedInputError,
    build_graph,
    canonical_cover_json,
    check_coloring,
    cover_from_canonical_json,
    cover_from_json_dict,
    cover_from_permutations,
    cover_to_json_dict,
    gen_complete_bipartite,
    gen_cycle,
    gen_random_bipartite_regular,
    lift_from_lists,
    make_cover,
    random_cover,
    relaxed_params,
    run_nibble,
    shifted_cycle_cover,
    solve_exact,
    validate_cover,
)
from corrcolor.cli import main
from corrcolor.coverjson import _KEYS_PER_CALL
from corrcolor.rng import derive_int_seed, derive_rng

from .conftest import (
    brute_force_colorings,
    edge_set,
    random_graph,
    reference_cover_views,
    reference_validate,
)


class TestLift:
    def test_equal_lists_identity_matchings(self):
        g = gen_cycle(4)
        cover = lift_from_lists(g, [[1, 2]] * 4)
        for pairs in cover.matchings.values():
            assert len(pairs) == 2
        assert validate_cover(g, cover) == []

    def test_disjoint_labels_empty_matching(self):
        g = build_graph(2, [(0, 1)])
        cover = lift_from_lists(g, [[1, 2], [3, 4]])
        assert cover.matchings[(0, 1)] == ()

    def test_partial_overlap(self):
        g = build_graph(2, [(0, 1)])
        cover = lift_from_lists(g, [[1, 2], [2, 3]])
        assert len(cover.matchings[(0, 1)]) == 1

    def test_empty_list_rejected(self):
        g = build_graph(2, [(0, 1)])
        with pytest.raises(DomainError, match="nonempty"):
            lift_from_lists(g, [[1], []])

    def test_lists_are_vertex_blocks(self):
        g = gen_cycle(3)
        cover = lift_from_lists(g, [[5, 7], [1], [2, 4, 9]])
        assert cover.lists == ((0, 1), (2,), (3, 4, 5))


class TestValidate:
    def test_random_cover_valid_all_modes(self):
        g = random_graph(4, 9, 0.4)
        for seed in range(5):
            assert validate_cover(g, random_cover(g, 3, seed)) == []
            assert validate_cover(g, random_cover(g, 3, seed, mode="bernoulli", q=0.4)) == []

    def test_matching_condition_violated(self):
        g = build_graph(2, [(0, 1)])
        bad = make_cover([[0, 1], [2, 3]], {(0, 1): [(0, 2), (0, 3)]})
        problems = validate_cover(g, bad)
        assert any("matching condition" in p for p in problems)

    def test_pair_on_non_edge(self):
        g = build_graph(3, [(0, 1)])
        bad = make_cover([[0], [1], [2]], {(0, 2): [(0, 2)]})
        problems = validate_cover(g, bad)
        assert any("not an edge" in p for p in problems)

    def test_non_disjoint_lists(self):
        g = build_graph(2, [(0, 1)])
        bad = make_cover([[0, 1], [1, 2]], {(0, 1): []})
        problems = validate_cover(g, bad)
        assert any("not disjoint" in p for p in problems)

    def test_pair_leaving_lists(self):
        g = build_graph(2, [(0, 1)])
        bad = make_cover([[0], [1]], {(0, 1): [(0, 5)]})
        problems = validate_cover(g, bad)
        assert any("leaves the endpoint lists" in p for p in problems)

    def test_wrong_vertex_count(self):
        g = build_graph(3, [])
        bad = make_cover([[0]], {})
        assert validate_cover(g, bad)


class TestRandomCover:
    def test_perfect_has_k_pairs_per_edge(self):
        g = gen_cycle(5)
        cover = random_cover(g, 4, seed=0)
        for pairs in cover.matchings.values():
            assert len(pairs) == 4

    def test_perfect_mode_every_color_matched_once_per_edge(self):
        g = gen_cycle(5)
        cover = random_cover(g, 3, seed=1)
        lists = cover.lists
        for (u, v), pairs in cover.matchings.items():
            assert sorted(x for x, _ in pairs) == list(lists[u])
            assert sorted(y for _, y in pairs) == list(lists[v])

    def test_k1_single_edge_forces_conflict(self):
        g = build_graph(2, [(0, 1)])
        cover = random_cover(g, 1, seed=3)
        assert cover.matchings[(0, 1)] == ((0, 1),)
        assert solve_exact(g, cover) is None

    def test_k1_edgeless_colorable(self):
        g = build_graph(3, [])
        cover = random_cover(g, 1, seed=3)
        assert solve_exact(g, cover) is not None

    def test_bernoulli_subset_of_perfect(self):
        g = gen_cycle(6)
        cover = random_cover(g, 3, seed=5, mode="bernoulli", q=0.5)
        for pairs in cover.matchings.values():
            assert len(pairs) <= 3
        assert validate_cover(g, cover) == []

    def test_bad_mode_and_q(self):
        g = gen_cycle(4)
        with pytest.raises(DomainError):
            random_cover(g, 2, 0, mode="nope")
        with pytest.raises(DomainError):
            random_cover(g, 2, 0, mode="bernoulli", q=1.5)
        for q in (math.nan, 1.5):
            msg = f"q must be a finite number from 0 to 1, got {q}"
            with pytest.raises(DomainError, match=f"^{re.escape(msg)}$"):
                random_cover(g, 2, 0, q=q)
        with pytest.raises(DomainError):
            random_cover(g, 0, 0)

    def test_deterministic(self):
        g = gen_cycle(6)
        assert random_cover(g, 3, seed=8) == random_cover(g, 3, seed=8)

    def test_color_neighbor_degree_bounded_by_graph_degree(self):
        g = random_graph(6, 8, 0.5)
        cover = random_cover(g, 3, seed=2)
        color_neighbors = cover.color_neighbors
        for x in range(cover.n_colors):
            owner = int(cover.owner[x])
            assert len(color_neighbors[x]) <= g.degree(owner)

    def test_uniformity_chi_squared(self):
        # 2 matchings per edge on the 4-cycle: 16 equally likely covers.
        from scipy.stats import chisquare

        g = gen_cycle(4)
        counts = {}
        samples = 100_000
        for i in range(samples):
            matchings = random_cover(g, 2, seed=i).matchings
            sig = []
            for u, v in g.edges:
                pairs = matchings[(u, v)]
                sig.append(1 if (2 * u, 2 * v) in pairs else 0)
            key = tuple(sig)
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 16
        stat = chisquare(list(counts.values()))
        assert stat.pvalue > 1e-4


def loop_cover_arrays(g, k, seed, mode="perfect", q=0.5):
    """The arrays of `random_cover(g, k, seed, mode, q)`, drawn the old way:
    one `permutation(k)` call per edge, in edge order, and in bernoulli mode
    then one `random(k)` keep row per edge, in edge order."""
    rng = derive_rng(seed, "random-cover", mode)
    edges = g.edges.tolist()
    sigmas = [rng.permutation(k).tolist() for _ in edges]
    if mode == "bernoulli":
        keeps = [(rng.random(k) < q).tolist() for _ in edges]
    else:
        keeps = [[True] * k for _ in edges]
    pairs = [
        [(u * k + i, v * k + s) for i, (s, kept) in enumerate(zip(sigma, keep)) if kept]
        for (u, v), sigma, keep in zip(edges, sigmas, keeps)
    ]
    flat = [pair for edge_pairs in pairs for pair in edge_pairs]
    return {
        "vlist_ptr": [v * k for v in range(g.n + 1)],
        "vlist_colors": list(range(g.n * k)),
        "edge_u": [u for u, _ in edges],
        "edge_v": [v for _, v in edges],
        "edge_ptr": list(itertools.accumulate(map(len, pairs), initial=0)),
        "pair_x": [x for x, _ in flat],
        "pair_y": [y for _, y in flat],
    }


LOOP_CASES = [
    (lambda: gen_cycle(4), 2),
    (lambda: gen_complete_bipartite(3, 3), 2),
    (lambda: gen_random_bipartite_regular(36, 12, seed=3), 4),
    (lambda: build_graph(5, []), 3),
    (lambda: gen_cycle(5), 1),
    (lambda: gen_complete_bipartite(2, 3), 300),
]
LOOP_IDS = ["C4-k2", "K33-k2", "36-per-side-d12-k4", "edgeless", "k1", "k300"]


def assert_arrays(cover, want):
    for name, values in want.items():
        got = getattr(cover, name)
        assert got.dtype == np.int64 and got.tolist() == values, name


@pytest.mark.parametrize("make, k", LOOP_CASES, ids=LOOP_IDS)
def test_perfect_cover_equals_the_per_edge_loop(make, k):
    g = make()
    for seed in (0, 1, 7):
        assert_arrays(random_cover(g, k, seed=seed), loop_cover_arrays(g, k, seed))


@pytest.mark.parametrize("make, k", LOOP_CASES, ids=LOOP_IDS)
def test_bernoulli_cover_keeps_after_every_permutation(make, k):
    # The permutations are drawn first, then the whole keep table.
    g = make()
    for seed, q in ((0, 0.8), (5, 0.4)):
        cover = random_cover(g, k, seed=seed, mode="bernoulli", q=q)
        assert_arrays(cover, loop_cover_arrays(g, k, seed, "bernoulli", q))


def test_cover_with_no_list_entries_has_no_colors():
    assert make_cover([[], []], {}).n_colors == 0
    assert make_cover([], {}).n_colors == 0


class TestShiftedCycle:
    @pytest.mark.parametrize("m", [4, 6])
    def test_not_colorable(self, m):
        cover = shifted_cycle_cover(m)
        g = gen_cycle(m)
        assert validate_cover(g, cover) == []
        assert brute_force_colorings(g, cover) == []
        assert solve_exact(g, cover) is None

    def test_identity_variant_colorable(self):
        g = gen_cycle(4)
        cover = cover_from_permutations(g, 2, {})
        assert solve_exact(g, cover) is not None

    def test_odd_length_rejected(self):
        with pytest.raises(DomainError, match="even"):
            shifted_cycle_cover(5)

    def test_bad_permutation_rejected(self):
        g = gen_cycle(4)
        with pytest.raises(DomainError, match="permutation"):
            cover_from_permutations(g, 2, {(0, 1): (0, 0)})


class TestSerialization:
    def test_round_trip(self):
        g = random_graph(9, 7, 0.5)
        cover = random_cover(g, 3, seed=4)
        doc = cover_to_json_dict(cover)
        again = cover_from_json_dict(json.loads(json.dumps(doc)))
        assert again == cover

    def test_k_per_vertex_mismatch(self):
        doc = {"k_per_vertex": [2], "lists": [[0]], "matchings": {}}
        with pytest.raises(MalformedInputError, match="k_per_vertex"):
            cover_from_json_dict(doc)

    def test_schema_errors(self):
        with pytest.raises(MalformedInputError):
            cover_from_json_dict({"lists": [[0]]})
        with pytest.raises(MalformedInputError):
            cover_from_json_dict({"lists": [[0]], "matchings": {"xy": []}})

    def test_make_cover_canonicalizes_reversed_keys(self):
        cover = make_cover([[0], [1]], {(1, 0): [(1, 0)]})
        assert cover.matchings == {(0, 1): ((0, 1),)}


@given(st.integers(0, 10_000), st.integers(1, 4))
@settings(max_examples=30, deadline=None)
def test_random_cover_always_validates(seed, k):
    g = random_graph(seed, 3 + seed % 6, 0.5)
    assert validate_cover(g, random_cover(g, k, seed)) == []
    assert validate_cover(g, random_cover(g, k, seed, mode="bernoulli", q=0.3)) == []


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_lift_always_validates(seed):
    from corrcolor.rng import derive_rng

    rng = derive_rng(seed, "lift-lists")
    g = random_graph(seed, 2 + seed % 6, 0.5)
    lists = [
        list(rng.choice(5, size=int(rng.integers(1, 4)), replace=False))
        for _ in range(g.n)
    ]
    assert validate_cover(g, lift_from_lists(g, lists)) == []


# ---------------------------------------------------------------------------
# the array-backed cover against plain-Python oracles

ORACLE_SEEDS = range(240)
CORRUPTIONS = (
    "overlap", "negative", "off-list", "out-of-range", "reused", "non-edge",
    "bad-key", "dup-key",
)
MESSAGES = (
    "negative color id", "lists not disjoint", "leaves the endpoint lists",
    "matching condition violated", "not an edge of the graph", "is not a vertex pair",
)


def _oracle_case(seed):
    """A seeded raw cover: (graph, lists, matchings, corruptions applied).

    Ids are dense blocks, blocks with gaps or sparse blocks by seed. Every
    fifth case is left valid; the others get random corruptions. Lists and
    pairs come in random order and some keys are given as (v, u).
    """
    rng = derive_rng(seed, "cover-oracle")
    n = int(rng.integers(2, 8))
    g = random_graph(derive_int_seed(seed, "graph"), n, 0.5)
    k = int(rng.integers(1, 5))
    stride = (k, k + 3, 3000)[seed % 3]
    lists = [[v * stride + i for i in range(k)] for v in range(n)]

    def some_pairs(u, v, size):
        xs, ys = rng.permutation(lists[u]), rng.permutation(lists[v])
        return [(int(x), int(y)) for x, y in zip(xs[:size], ys[:size])]

    matchings = {}
    for u, v in g.edges.tolist():
        pairs = some_pairs(u, v, int(rng.integers(0, k + 1)))
        if rng.random() < 0.3:
            matchings[(v, u)] = [(y, x) for x, y in pairs]
        else:
            matchings[(u, v)] = pairs
    graph_edges = edge_set(g)
    applied = []
    while seed % 5 and not applied:
        for kind in CORRUPTIONS:
            if rng.random() >= 0.3:
                continue
            keys = [key for key, pairs in matchings.items() if pairs]
            a, b = (int(i) for i in rng.choice(n, 2, replace=False))
            if kind == "overlap":
                lists[b].append(int(rng.choice(lists[a] + lists[b])))
            elif kind == "negative":
                lists[a].append(-int(rng.integers(1, 5)))
            elif kind == "off-list" and keys:
                key = keys[int(rng.integers(len(keys)))]
                # a color of another list, or (with gaps) an id in no list
                x, y = matchings[key][0]
                matchings[key][0] = (int(rng.choice(lists[a])) + (stride > k), y)
            elif kind == "out-of-range" and keys:
                key = keys[int(rng.integers(len(keys)))]
                matchings[key].append((n * stride + 7, matchings[key][0][1]))
            elif kind == "reused" and keys:
                key = keys[int(rng.integers(len(keys)))]
                x, _ = matchings[key][0]
                matchings[key].append((x, matchings[key][-1][1]))
            elif kind == "non-edge" and (a, b) not in graph_edges:
                matchings[(a, b)] = some_pairs(a, b, int(rng.integers(0, k + 1)))
            elif kind == "bad-key":
                choices = ((a, a), (a, n + int(rng.integers(0, 3))), (-1, a))
                key = choices[int(rng.integers(3))]
                matchings[key] = some_pairs(a, a, int(rng.integers(0, 2)))
            elif kind == "dup-key" and matchings:
                u, v = list(matchings)[int(rng.integers(len(matchings)))]
                if (v, u) not in matchings:
                    matchings[(v, u)] = some_pairs(v, u, int(rng.integers(0, k + 1)))
            else:
                continue
            applied.append(kind)
    for lst in lists:
        rng.shuffle(lst)
    keys = list(matchings)
    shuffled = {}
    for i in rng.permutation(len(keys)):
        pairs = matchings[keys[i]]
        shuffled[keys[i]] = [pairs[j] for j in rng.permutation(len(pairs))]
    return g, lists, shuffled, applied


@pytest.mark.parametrize("seed", ORACLE_SEEDS)
def test_cover_matches_reference(seed):
    g, raw_lists, raw_matchings, _ = _oracle_case(seed)
    ref = reference_cover_views(raw_lists, raw_matchings)
    cover = make_cover(raw_lists, raw_matchings)
    assert cover.lists == ref["lists"]
    assert cover.matchings == ref["matchings"]
    assert list(cover.matchings) == list(ref["edge_keys"])
    assert cover.n_colors == ref["n_colors"]
    assert cover.owner.tolist() == ref["owner"]
    assert validate_cover(g, cover) == reference_validate(
        g, ref["lists"], ref["matchings"]
    )
    doc = {
        "lists": raw_lists,
        "matchings": {f"{u},{v}": pairs for (u, v), pairs in raw_matchings.items()},
    }
    assert cover_from_json_dict(json.loads(json.dumps(doc))) == cover
    if ref["color_neighbors"] is None:
        for view in ("color_neighbors", "partners", "arrays"):
            with pytest.raises(DomainError, match="not a list color id"):
                getattr(cover, view)
        return
    assert cover.color_neighbors == ref["color_neighbors"]
    assert cover.partners == ref["partners"]
    adjacency = dict(zip(("nbr_ptr", "nbr_idx"), cover.arrays, strict=True))
    for name in (
        "owner", "vlist_ptr", "vlist_colors", "nbr_ptr", "nbr_idx",
        "edge_u", "edge_v", "edge_ptr", "pair_x", "pair_y",
    ):
        arr = adjacency[name] if name in adjacency else getattr(cover, name)
        assert arr.dtype == np.int64
        assert arr.tolist() == ref[name], name


def test_oracle_cases_reach_every_branch():
    seen = Counter()
    for seed in ORACLE_SEEDS:
        g, raw_lists, raw_matchings, applied = _oracle_case(seed)
        ref = reference_cover_views(raw_lists, raw_matchings)
        problems = reference_validate(g, ref["lists"], ref["matchings"])
        seen.update(applied)
        seen["valid"] += not problems
        seen["views undefined"] += ref["color_neighbors"] is None
        seen["empty matching"] += any(not p for p in ref["matchings"].values())
        ids = [x for lst in ref["lists"] for x in lst]
        seen["ids with gaps"] += len(set(ids)) < max(ids) - min(ids) + 1
        for text in problems:
            seen.update(phrase for phrase in MESSAGES if phrase in text)
    for key in CORRUPTIONS + MESSAGES + (
        "valid", "views undefined", "empty matching", "ids with gaps",
    ):
        assert seen[key] >= 10, (key, seen)


def validated_like_reference(g, lists, matchings):
    """validate_cover of canonical raw lists and matchings, checked by the oracle."""
    problems = validate_cover(g, make_cover(lists, matchings))
    assert problems == reference_validate(g, lists, matchings)
    return problems


PATH3 = build_graph(3, [(0, 1), (1, 2)])
HUGE = 2**62


class TestValidateAdversarial:
    """Cases that reach each branch of validate_cover, pinned and checked.

    The lists and matchings are given canonical: lists ascending, keys (u, v)
    with u < v, pairs sorted.
    """

    def test_pair_that_leaves_and_reuses(self):
        g = build_graph(2, [(0, 1)])
        problems = validated_like_reference(
            g, [[0, 1], [2, 3]], {(0, 1): [(0, 9), (1, 9), (5, 2), (5, 3)]}
        )
        assert problems == [
            "pair (0,9) on edge (0,1) leaves the endpoint lists",
            "pair (1,9) on edge (0,1) leaves the endpoint lists",
            "matching condition violated on edge (0,1): color reused by pair (1,9)",
            "pair (5,2) on edge (0,1) leaves the endpoint lists",
            "pair (5,3) on edge (0,1) leaves the endpoint lists",
            "matching condition violated on edge (0,1): color reused by pair (5,3)",
        ]

    def test_off_list_color_with_the_low_bits_of_a_listed_one(self):
        # Four list ids give a lookup table of 8: 9 and 10 fall where 1 and
        # 2 are, each at the vertex on its side.
        g = build_graph(2, [(0, 1)])
        problems = validated_like_reference(
            g, [[0, 1], [2, 3]], {(0, 1): [(0, 10), (9, 3)]}
        )
        assert problems == [
            "pair (0,10) on edge (0,1) leaves the endpoint lists",
            "pair (9,3) on edge (0,1) leaves the endpoint lists",
        ]

    def test_color_held_by_several_lists_matched_at_each(self):
        problems = validated_like_reference(
            PATH3,
            [[0, 1], [1, 2], [1, 3]],
            {(0, 1): [(0, 2), (1, 1)], (1, 2): [(1, 1), (2, 1)]},
        )
        assert problems == [
            "lists not disjoint: color 1 in lists of 0 and 1",
            "lists not disjoint: color 1 in lists of 0 and 2",
            "matching condition violated on edge (1,2): color reused by pair (2,1)",
        ]

    def test_ids_near_two_to_the_62(self):
        b = HUGE
        problems = validated_like_reference(
            PATH3,
            [[-b, b], [b - 1, b, b + 1], [-b - 1, b + 2]],
            {
                (0, 1): [(-b, b), (-b, b + 3), (b, b - 1), (b, b + 1)],
                (0, 2): [(-b, b + 2)],
                (1, 2): [(-b, b + 2), (b - 1, -b - 1), (b + 1, b + 2)],
                (2, 7): [(b, b)],
            },
        )
        assert problems == [
            f"negative color id {-b} at vertex 0",
            f"lists not disjoint: color {b} in lists of 0 and 1",
            f"negative color id {-b - 1} at vertex 2",
            f"pair ({-b},{b + 3}) on edge (0,1) leaves the endpoint lists",
            f"matching condition violated on edge (0,1): color reused by pair ({-b},{b + 3})",
            f"matching condition violated on edge (0,1): color reused by pair ({b},{b + 1})",
            "matched pair on (0,2) but that is not an edge of the graph",
            f"pair ({-b},{b + 2}) on edge (1,2) leaves the endpoint lists",
            f"matching condition violated on edge (1,2): color reused by pair ({b + 1},{b + 2})",
            "matching key (2,7) is not a vertex pair",
        ]

    def test_no_vertices(self):
        g = build_graph(0, [])
        assert validated_like_reference(g, [], {}) == []
        assert validated_like_reference(g, [], {(0, 1): [(0, 1)]}) == [
            "matching key (0,1) is not a vertex pair"
        ]

    def test_empty_matching_next_to_a_reused_one(self):
        problems = validated_like_reference(
            PATH3, [[0, 1], [2, 3], [4, 5]], {(0, 1): [], (1, 2): [(2, 4), (3, 4)]}
        )
        assert problems == [
            "matching condition violated on edge (1,2): color reused by pair (3,4)"
        ]

    def test_matching_much_shorter_than_its_lists(self):
        # Ten slots a side and two or three pairs: slots 0 and 8 share a bucket.
        g = build_graph(2, [(0, 1)])
        lists = [list(range(10)), list(range(10, 20))]
        assert validated_like_reference(g, lists, {(0, 1): [(0, 10), (8, 18)]}) == []
        assert validated_like_reference(
            g, lists, {(0, 1): [(0, 10), (0, 19), (8, 18)]}
        ) == ["matching condition violated on edge (0,1): color reused by pair (0,19)"]


def test_sparse_and_dense_ids_validate_alike():
    g = gen_cycle(4)
    for stride in (2, 10**9):
        lists = [[v * stride, v * stride + 1] for v in range(4)]
        bad = {(0, 1): [(0, stride), (0, stride + 1)], (1, 2): [(stride, 2 * stride + 5)]}
        problems = validate_cover(g, make_cover(lists, bad))
        assert problems == [
            "matching condition violated on edge (0,1):"
            f" color reused by pair (0,{stride + 1})",
            f"pair ({stride},{2 * stride + 5}) on edge (1,2) leaves the endpoint lists",
        ]


def test_too_sparse_color_ids_are_domain_errors():
    # 4 list entries allow ids up to max(2**20, 64 * 4); these reach 3 * 10**6.
    g = build_graph(2, [(0, 1)])
    b = 3 * 10**6
    cover = make_cover([[b, b + 1], [b + 2, b + 3]], {(0, 1): [(b, b + 2)]})
    assert validate_cover(g, cover) == []
    with pytest.raises(DomainError, match="color id 3000003 is too sparse"):
        check_coloring(g, cover, {0: b, 1: b + 3})
    c4 = gen_cycle(4)
    lists = [[b + 3 * v + i for i in range(3)] for v in range(4)]
    cover = make_cover(
        lists, {(u, v): [(lists[u][0], lists[v][1])] for u, v in c4.edges.tolist()}
    )
    assert validate_cover(c4, cover) == []
    with pytest.raises(DomainError, match="is too sparse"):
        run_nibble(c4, cover, relaxed_params(), seed=1)


def test_color_ids_up_to_the_bound_are_accepted():
    g = build_graph(2, [(0, 1)])
    top = 2**20 - 1
    cover = make_cover([[0], [top]], {(0, 1): [(0, top)]})
    assert cover.n_colors == 2**20
    assert check_coloring(g, cover, {0: 0, 1: top}) is not None


# ---------------------------------------------------------------------------
# malformed documents

MALFORMED_COVERS = {
    "pair-of-one": {"lists": [[0], [1]], "matchings": {"0,1": [[0]]}},
    "pair-of-three": {"lists": [[0], [1]], "matchings": {"0,1": [[0, 1, 1]]}},
    "pairs-of-three-and-one": {
        "lists": [[0, 1], [2, 3]], "matchings": {"0,1": [[0, 2, 1], [3]]},
    },
    "float-id": {"lists": [[0.5], [1]], "matchings": {"0,1": []}},
    "string-id": {"lists": [["0"], [1]], "matchings": {"0,1": []}},
    "bool-ids": {"lists": [[True], [False]], "matchings": {"0,1": []}},
    "bool-beside-ints": {"lists": [[0, True], [2, 3]], "matchings": {"0,1": []}},
    "float-pair-id": {"lists": [[0], [1]], "matchings": {"0,1": [[0, 1.0]]}},
    "huge-id": {"lists": [[2**64], [1]], "matchings": {"0,1": []}},
    "list-is-number": {"lists": [5, [1]], "matchings": {"0,1": []}},
    "list-is-string": {"lists": ["01", [1]], "matchings": {"0,1": []}},
    "lists-is-object": {"lists": {"0": [0]}, "matchings": {}},
    "matching-is-number": {"lists": [[0], [1]], "matchings": {"0,1": 3}},
    "pair-is-number": {"lists": [[0], [1]], "matchings": {"0,1": [7]}},
    "key-without-comma": {"lists": [[0], [1]], "matchings": {"01": []}},
    "key-with-two-commas": {"lists": [[0], [1]], "matchings": {"0,1,2": []}},
    "key-not-integers": {"lists": [[0], [1]], "matchings": {"a,b": []}},
    "key-float": {"lists": [[0], [1]], "matchings": {"0.5,1": []}},
    # int() reads each of these keys as (0, 1)
    "key-underscore-space-plus": {"lists": [[0], [1]], "matchings": {"0_0, +1": []}},
    "key-non-ascii-digits": {"lists": [[0], [1]], "matchings": {"\u0660,\u0661": []}},
    "k-per-vertex-disagrees": {
        "k_per_vertex": [2, 1], "lists": [[0], [1]], "matchings": {"0,1": []},
    },
    "k-per-vertex-not-array": {
        "k_per_vertex": "1", "lists": [[0], [1]], "matchings": {"0,1": []},
    },
}


@pytest.mark.parametrize("name", sorted(MALFORMED_COVERS))
def test_malformed_cover_is_rejected(name, tmp_path, capsys):
    doc = MALFORMED_COVERS[name]
    with pytest.raises(MalformedInputError):
        cover_from_json_dict(doc)
    gpath, cpath = tmp_path / "g.json", tmp_path / "c.json"
    gpath.write_text(json.dumps({"n": 2, "edges": [[0, 1]]}), encoding="utf-8")
    for text in (json.dumps(doc), _dumps_doc(doc)):
        assert cover_from_canonical_json(text.encode()) is None
        cpath.write_text(text, encoding="utf-8")
        code = main(["validate", "--graph", str(gpath), "--cover", str(cpath)])
        out = capsys.readouterr()
        assert code == 2
        assert out.out == ""
        assert out.err.startswith("error: ") and out.err.count("\n") == 1


# ---------------------------------------------------------------------------
# the canonical JSON layout


def _dumps_doc(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# Keys with vertex 2 and 10 sort as strings: "0,10" comes before "0,2".
KEY_VERTICES = (0, 1, 2, 3, 10, 11, 100)


def _covers(ids, key_vertices=KEY_VERTICES):
    """Covers from make_cover over lists and matchings of the given ids."""
    key = st.tuples(st.sampled_from(key_vertices), st.sampled_from(key_vertices))
    return st.builds(
        make_cover,
        st.lists(st.lists(ids, max_size=4), max_size=5),
        st.dictionaries(key, st.lists(st.tuples(ids, ids), max_size=4), max_size=6),
    )


# Dense and sparse ids; the reader takes numbers of at most 18 digits.
READABLE_IDS = st.one_of(st.integers(0, 40), st.integers(0, 10**18 - 1))
ANY_IDS = st.one_of(st.integers(-3, 40), st.integers(-(2**63), 2**63 - 1))


@given(_covers(ANY_IDS, (-1, *KEY_VERTICES)))
@settings(max_examples=100, derandomize=True, deadline=None)
def test_writer_matches_json_dumps(cover):
    assert canonical_cover_json(cover) == _dumps_doc(cover_to_json_dict(cover)).encode()


@given(_covers(READABLE_IDS))
@settings(max_examples=100, derandomize=True, deadline=None)
def test_reader_reads_writer_output(cover):
    assert cover_from_canonical_json(canonical_cover_json(cover)) == cover


@given(
    st.sampled_from([0, 1, _KEYS_PER_CALL, _KEYS_PER_CALL + 1]),
    st.sampled_from([(0, 40), (-(2**63), 2**63 - 1)]),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=16, derandomize=True, deadline=None)
def test_writer_matches_json_dumps_across_calls(n_keys, id_range, seed):
    # the writer fills its keys in runs of _KEYS_PER_CALL after the first
    rng = np.random.default_rng(seed)
    lo, hi = id_range

    def ids(size):
        return rng.integers(lo, hi, size, endpoint=True).tolist()

    pairs = list(itertools.combinations(range(50), 2))
    keys = [pairs[i] for i in rng.choice(len(pairs), n_keys, replace=False)]
    lists = [ids(rng.integers(0, 4)) for _ in range(50)]
    sizes = rng.integers(0, 3, n_keys)
    matchings = {key: list(zip(ids(c), ids(c))) for key, c in zip(keys, sizes)}
    cover = make_cover(lists, matchings)
    text = canonical_cover_json(cover)
    assert text == _dumps_doc(cover_to_json_dict(cover)).encode()
    if lo == 0:
        assert cover_from_canonical_json(text) == cover


def _raw_views(cover):
    """The lists and matchings of a cover, sliced from its arrays as lists."""
    colors = cover.vlist_colors.tolist()
    ptr = cover.vlist_ptr.tolist()
    lists = [colors[a:b] for a, b in zip(ptr, ptr[1:])]
    edge_ptr = cover.edge_ptr.tolist()
    matchings = {
        (u, v): list(zip(cover.pair_x[a:b].tolist(), cover.pair_y[a:b].tolist()))
        for u, v, a, b in zip(
            cover.edge_u.tolist(), cover.edge_v.tolist(), edge_ptr, edge_ptr[1:]
        )
    }
    return lists, matchings


@given(_covers(ANY_IDS, (-1, *KEY_VERTICES)), st.data())
@settings(max_examples=200, derandomize=True, deadline=None)
def test_validate_matches_reference_on_any_ids(cover, data):
    n = cover.n_vertices
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    g = build_graph(n, edges)
    assert validate_cover(g, cover) == reference_validate(g, *_raw_views(cover))


# Dense, negative and sparse ids.
ADJACENCY_IDS = st.one_of(st.integers(-2, 12), st.integers(0, 10**5))


@st.composite
def _raw_covers(draw):
    """Raw lists and matchings: drawn outright, or sliced from a random cover
    with perfect (valid) or bernoulli (partial) matchings. Drawn matchings
    take either listed ids alone, so pairs repeat within and across keys, or
    any ids, so some lie outside 0..n_colors-1."""
    if draw(st.booleans()):
        lists = draw(st.lists(st.lists(ADJACENCY_IDS, max_size=6), max_size=5))
        colors = [x for lst in lists for x in lst]
        listed = colors and draw(st.booleans())
        ids = st.sampled_from(colors) if listed else ADJACENCY_IDS
        key = st.tuples(st.sampled_from(KEY_VERTICES), st.sampled_from(KEY_VERTICES))
        pairs = st.lists(st.tuples(ids, ids), max_size=6)
        return lists, draw(st.dictionaries(key, pairs, max_size=6))
    g = random_graph(draw(st.integers(0, 2**16)), draw(st.integers(1, 8)), 0.5)
    mode = draw(st.sampled_from(["perfect", "bernoulli"]))
    k, seed = draw(st.integers(1, 5)), draw(st.integers(0, 99))
    cover = random_cover(g, k, seed=seed, mode=mode)
    return _raw_views(cover)


@given(_raw_covers())
@settings(max_examples=200, derandomize=True, deadline=None)
def test_arrays_match_plain_adjacency(raw):
    cover = make_cover(*raw)
    ref = reference_cover_views(*raw)
    if ref["nbr_ptr"] is None:
        nc = ref["n_colors"]
        first = next(x for x in ref["pair_x"] + ref["pair_y"] if not 0 <= x < nc)
        msg = f"matched color {first} is not a list color id in 0..{nc - 1}"
        with pytest.raises(DomainError, match=f"^{re.escape(msg)}$"):
            cover.arrays
        return
    nbr_ptr, nbr_idx = cover.arrays
    assert nbr_ptr.dtype == nbr_idx.dtype == np.int64
    assert (nbr_ptr.tolist(), nbr_idx.tolist()) == (ref["nbr_ptr"], ref["nbr_idx"])


def test_writer_and_reader_on_empty_covers():
    for cover in (
        make_cover([], {}), make_cover([[]], {}), make_cover([[0], []], {(0, 1): []})
    ):
        text = canonical_cover_json(cover)
        assert text == _dumps_doc(cover_to_json_dict(cover)).encode()
        assert cover_from_canonical_json(text) == cover
    assert canonical_cover_json(make_cover([], {})) == (
        b'{\n  "k_per_vertex": [],\n  "lists": [],\n  "matchings": {}\n}\n'
    )


MUTATIONS = (
    "number", "reversed-key", "duplicate-key", "leading-zero", "minus", "exponent",
    "swap", "delete", "insert",
)
INSERTED = [bytes([c]) for c in b' \n,[]{}":-+.e0123456789']


def _mutate(text: bytes, kind: str, draw) -> bytes:
    """One edit of a canonical document; `draw` picks where."""

    def pick(spans):
        return spans[draw(st.integers(0, len(spans) - 1))]

    i = draw(st.integers(0, len(text) - 2))
    if kind == "insert":
        return text[:i] + draw(st.sampled_from(INSERTED)) + text[i:]
    if kind == "delete":
        return text[:i] + text[i + 1 :]
    if kind == "swap":
        return text[:i] + text[i + 1 : i + 2] + text[i : i + 1] + text[i + 2 :]
    keys = [m.span(1) for m in re.finditer(rb'"(\d+,\d+)"', text)]
    numbers = [m.span() for m in re.finditer(rb"\d+", text)]
    if kind in ("reversed-key", "duplicate-key"):
        if not keys:
            return text
        a, b = pick(keys)
        if kind == "reversed-key":
            u, v = text[a:b].split(b",")
            return text[:a] + v + b"," + u + text[b:]
        c, d = pick(keys)
        return text[:a] + text[c:d] + text[b:]
    if not numbers:
        return text
    a, b = pick(numbers)
    new = {
        "number": str(draw(st.integers(0, 10**19))).encode(),
        "leading-zero": b"0" + text[a:b],
        "minus": b"-" + text[a:b],
        "exponent": b"1e3",
    }[kind]
    return text[:a] + new + text[b:]


@pytest.mark.parametrize("kind", MUTATIONS)
@given(_covers(READABLE_IDS), st.data())
@settings(max_examples=25, derandomize=True, deadline=None)
def test_reader_is_sound_on_mutated_documents(kind, cover, data):
    # Declining is always allowed; a Cover must be the one json.loads gives.
    mutated = _mutate(canonical_cover_json(cover), kind, data.draw)
    read = cover_from_canonical_json(mutated)
    if read is not None:
        assert read == cover_from_json_dict(json.loads(mutated))


SMALL = make_cover(
    [[0, 1], [12, 13], [20]],
    {(0, 1): [(0, 13), (1, 12)], (1, 2): [(12, 20)], (0, 2): []},
)


@pytest.mark.parametrize(
    "old, new",
    [
        ("      12,", "      012,"),
        ("      12,", "      +12,"),
        ("      12,", "      -12,"),
        ("      12,", "      9223372036854775808,"),
        ("      13\n", "      1e3\n"),
        ("      13\n", "      13.0\n"),
        # digits moved inside the indentation keep the digit-free text
        ("        0,\n        13\n", "        ,\n     0   13\n"),
        ("      0,\n      1\n", "      ,\n     0 1\n"),
        ("      0,\n      1\n", "      0,\n      \n"),
        ("\n", "\r\n"),
        ("{\n", "\ufeff{\n"),
        ("}\n}\n", "}\n} \n"),
        ('  "lists"', '  "extra": 1,\n  "lists"'),
        ('"1,2"', '"0,1"'),
        ('"1,2"', '"1,0"'),
        ('"0,2"', '"7,"'),
        ('"0,2"', '",2"'),
        ("    2,\n", "    3,\n"),
    ],
    ids=[
        "leading-zero", "plus", "minus", "beyond-int64", "exponent", "float",
        "digit-in-indent", "two-numbers-one-slot", "empty-slot", "crlf", "bom",
        "trailing-space",
        "extra-key", "duplicate-key", "duplicate-reversed-key", "key-without-v",
        "key-without-u", "k-per-vertex",
    ],
)
def test_reader_declines_other_layouts(old, new):
    text = canonical_cover_json(SMALL).decode()
    assert old in text
    assert cover_from_canonical_json(text.replace(old, new).encode("utf-8")) is None


def test_reader_is_sound_under_every_one_byte_edit():
    # a digit or a space put in, or a byte taken out, at every position:
    # only edits of a number are read, as json.loads reads them
    text = canonical_cover_json(SMALL)
    edits = [text[:i] + b + text[i:] for i in range(len(text)) for b in (b"7", b" ")]
    edits += [text[:i] + text[i + 1 :] for i in range(len(text))]
    accepted = 0
    for edited in edits:
        read = cover_from_canonical_json(edited)
        if read is not None:
            assert edited.translate(None, b"0123456789") == text.translate(
                None, b"0123456789"
            )
            assert read == cover_from_json_dict(json.loads(edited))
            accepted += 1
    assert accepted >= 20


def test_reader_reads_every_digit_place():
    # each of the 18 places holds every digit 1-9 somewhere, and runs fill an
    # 8-byte word with 7, 8 or 9 digits and a word after the first with 7, 8
    # or 9 more; a product that wrapped in a narrow dtype, or a digit byte
    # masked off or left in, would change one of these numbers
    places = (1, 3, 5, 7, 8, 9, 15, 16, 17, 18)
    ids = [int(str(d) * p) for d in range(1, 10) for p in places]
    ids += [300, 1000, 65536, 123456789012345678, 10**18 - 1]
    ids += [10**7, 10**8, 10**16, 10**17 + 1]
    cover = make_cover([ids], {(0, 1): list(zip(ids, ids[::-1]))})
    read = cover_from_canonical_json(canonical_cover_json(cover))
    assert read == cover
    assert read.vlist_colors.tolist() == sorted(ids)


# Ids of every length from 1 to 18 digits, so that each word a run is read
# from holds from one digit to eight.
SPREAD_IDS = st.integers(1, 18).flatmap(
    lambda places: st.integers(10 ** (places - 1) if places > 1 else 0, 10**places - 1)
)


@given(_covers(SPREAD_IDS))
@settings(max_examples=200, derandomize=True, deadline=None)
def test_reader_reads_ids_of_every_length(cover):
    assert cover_from_canonical_json(canonical_cover_json(cover)) == cover


def test_reader_declines_every_truncation():
    # b"" and prefixes shorter than one 8-byte word included
    text = canonical_cover_json(SMALL)
    for end in range(len(text)):
        assert cover_from_canonical_json(text[:end]) is None


def test_reader_peak_memory_is_bounded():
    # the reader's transient arrays at their highest, the cover it returns
    # included, stay below 2.8 times the document
    import tracemalloc

    g = gen_random_bipartite_regular(60, 20, seed=1)
    doc = canonical_cover_json(random_cover(g, 40, seed=2))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        read = cover_from_canonical_json(doc)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert read == cover_from_json_dict(json.loads(doc))
    assert peak <= 2.8 * len(doc)


def test_reader_declines_other_layouts_unscanned(monkeypatch):
    import corrcolor.coverjson as coverjson

    scanned = []
    frombuffer = np.frombuffer

    def spy(*args, **kwargs):
        scanned.append(1)
        return frombuffer(*args, **kwargs)

    monkeypatch.setattr(coverjson.np, "frombuffer", spy)
    doc = cover_to_json_dict(SMALL)
    for text in (json.dumps(doc), json.dumps(doc, indent=4, sort_keys=True)):
        assert cover_from_canonical_json(text.encode()) is None
    assert scanned == []
    assert cover_from_canonical_json(canonical_cover_json(SMALL)) == SMALL
    assert scanned == [1]


def test_reader_turns_reversed_keys_round():
    text = canonical_cover_json(SMALL).replace(b'"0,1"', b'"1,0"')
    read = cover_from_canonical_json(text)
    assert read == cover_from_json_dict(json.loads(text)) != SMALL
    assert read.matchings[(0, 1)] == ((12, 1), (13, 0))


# ---------------------------------------------------------------------------
# stored arrays, equality and laziness

DERIVED = (
    "n_colors", "owner", "arrays",
    "lists", "matchings", "color_neighbors", "partners",
)
VIEWS = ("lists", "matchings", "color_neighbors", "partners")


def test_replace_gives_equal_cover_with_cold_caches():
    g = random_graph(3, 8, 0.5)
    cover = random_cover(g, 3, seed=1)
    assert not set(DERIVED) & set(vars(cover))
    for name in DERIVED:
        getattr(cover, name)
    # The views are conversions: reading them stores nothing on the cover.
    assert not set(VIEWS) & set(vars(cover))
    fresh = dataclasses.replace(cover)
    assert fresh == cover and hash(fresh) == hash(cover)
    assert not set(DERIVED) & set(vars(fresh))
    assert fresh.vlist_colors is cover.vlist_colors
    assert fresh.lists == cover.lists and fresh.partners == cover.partners


def test_stored_and_derived_arrays_are_read_only():
    cover = random_cover(gen_cycle(5), 3, seed=2)
    nbr_ptr, nbr_idx = cover.arrays
    stored = [getattr(cover, field.name) for field in dataclasses.fields(cover)]
    for arr in (*stored, cover.owner, nbr_ptr, nbr_idx):
        assert arr.dtype == np.int64
        with pytest.raises(ValueError):
            arr[0] = 1
    assert cover.arrays is cover.arrays


def test_equality_follows_the_arrays():
    g = gen_cycle(6)
    assert random_cover(g, 3, seed=8) != random_cover(g, 3, seed=9)
    assert random_cover(g, 3, seed=8) != "cover"
    assert make_cover([[1, 0], [2]], {(1, 0): [(2, 1)]}) == make_cover(
        [[0, 1], [2]], {(0, 1): [(1, 2)]}
    )


def _i64(*values):
    return np.array(values, dtype=np.int64)


def test_inconsistent_arrays_rejected():
    with pytest.raises(DomainError):
        Cover(_i64(0, 2), _i64(0), _i64(), _i64(), _i64(0), _i64(), _i64())
    with pytest.raises(DomainError):
        Cover(_i64(0, 1), _i64(0), _i64(0), _i64(1), _i64(0, 1), _i64(0), _i64())


@pytest.mark.parametrize(
    "vlist_colors",
    [[0], np.array([0.5]), np.array(["1"]), np.array([0], dtype=np.int32), _i64(0)[None]],
)
def test_cover_takes_only_flat_int64_arrays(vlist_colors):
    with pytest.raises(DomainError, match="1-D int64"):
        Cover(_i64(0, 1), vlist_colors, _i64(), _i64(), _i64(0), _i64(), _i64())


def test_cover_freezes_a_copy_of_writeable_arrays():
    colors = _i64(0)
    cover = Cover(_i64(0, 1), colors, _i64(), _i64(), _i64(0), _i64(), _i64())
    colors[0] = 5
    assert cover.vlist_colors.tolist() == [0]
    assert not cover.vlist_colors.flags.writeable
