import dataclasses
import itertools
import json
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrcolor import (
    DomainError,
    MalformedInputError,
    average_degree,
    build_graph,
    canonical_graph_json,
    gen_complete_bipartite,
    gen_cycle,
    gen_random_bipartite_regular,
    gen_random_regular,
    graph_from_json_dict,
    graph_to_json_dict,
    is_triangle_free,
    lift_from_lists,
    max_degree,
    parse_dimacs,
    random_cover,
    relaxed_params,
    run_nibble,
    validate_cover,
)
from corrcolor import graphs
from corrcolor.cli import main
from corrcolor.rng import derive_rng
from corrcolor.graphs import Graph
from corrcolor.rng import derive_rng

from .conftest import (
    adjacency,
    brute_force_triangle_free,
    petersen,
    random_graph,
    reference_build_graph,
)


class TestBuildGraph:
    def test_cycle_degrees(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert g.m == 4
        assert all(g.degree(v) == 2 for v in range(4))

    def test_single_vertex(self):
        g = build_graph(1, [])
        assert g.n == 1 and g.m == 0 and g.degree(0) == 0
        for v in (-1, 1):
            msg = f"^v must be an integer from 0 to 0, got {v}$"
            with pytest.raises(DomainError, match=msg):
                g.degree(v)

    def test_duplicate_edges_deduplicated(self):
        g = build_graph(3, [(0, 1), (1, 0), (1, 2)])
        assert g.m == 2

    def test_self_loop_rejected(self):
        with pytest.raises(DomainError, match="self-loop"):
            build_graph(3, [(1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError, match="out of range"):
            build_graph(3, [(0, 3)])
        with pytest.raises(DomainError, match="out of range"):
            build_graph(3, [(0, 2**70)])
        msg = r"^n must be an integer from 0 to 2\*\*31 - 1, got 2147483648$"
        with pytest.raises(DomainError, match=msg):
            build_graph(2**31, [])

    @pytest.mark.parametrize(
        "edges",
        [[(0, 1.7)], [(0, 1.0)], [("0", "1")], [(0, 1), (1, 2.5)], [("a", 1)]],
    )
    def test_non_integer_endpoint_rejected(self, edges):
        # Refused, not truncated: (0, 1.7) once became the edge (0, 1).
        with pytest.raises(DomainError, match="integers"):
            build_graph(3, edges)

    def test_adjacency_symmetric(self):
        g = random_graph(3, 12, 0.4)
        ptr, idx = g.csr
        nbrs = [idx[ptr[u] : ptr[u + 1]].tolist() for u in range(g.n)]
        assert nbrs == adjacency(g)
        for u in range(g.n):
            for v in nbrs[u]:
                assert u in nbrs[v]
            assert g.degree(u) == len(nbrs[u])


def _edge_list_case(seed: int):
    """A seeded edge list with duplicates, reversed pairs and, sometimes, a
    self-loop or an out-of-range id, on n from 0 to 11."""
    rng = derive_rng(seed, "edge-list")
    n = [0, 1][seed % 2] if seed % 10 == 0 else int(rng.integers(2, 12))
    edges = []
    for _ in range(int(rng.integers(0, 30)) if n > 1 else 0):
        u, v = (int(x) for x in rng.choice(n, 2, replace=False))
        edges.append((u, v))
        if rng.random() < 0.3:
            edges.append((v, u) if rng.random() < 0.5 else (u, v))
    for _ in range(int(rng.integers(1, 3)) if rng.random() < 0.5 else 0):
        pos = int(rng.integers(0, len(edges) + 1))
        w = int(rng.integers(0, max(n, 1)))
        bad = [(w, w), (w, n + int(rng.integers(0, 3))), (-1 - w, w)]
        edges.insert(pos, bad[int(rng.integers(0, 3))])
    return n, edges


@pytest.mark.parametrize("seed", range(200))
def test_build_graph_matches_reference(seed):
    n, edges = _edge_list_case(seed)
    try:
        want = reference_build_graph(n, edges)
    except DomainError as exc:
        with pytest.raises(DomainError) as got:
            build_graph(n, edges)
        assert str(got.value) == str(exc)
        return
    g = build_graph(n, edges)
    assert g.n == n
    assert [tuple(row) for row in g.edges.tolist()] == list(want)
    assert g.edges.dtype == np.int64 and g.edges.shape == (len(want), 2)


class TestGraphArrays:
    def test_edges_are_a_read_only_int64_array(self):
        g = gen_cycle(4)
        assert g.edges.dtype == np.int64 and g.edges.shape == (4, 2)
        with pytest.raises(ValueError):
            g.edges[0, 0] = 3
        for arr in g.csr:
            with pytest.raises(ValueError):
                arr[0] = 1

    @pytest.mark.parametrize(
        "edges",
        [
            [[0, 1]],
            np.array([0, 1], dtype=np.int64),
            np.array([[0, 1, 2]], dtype=np.int64),
            np.array([[0, 1]], dtype=np.int32),
            np.array([[0.0, 1.0]]),
        ],
    )
    def test_constructor_takes_only_m_by_2_int64_arrays(self, edges):
        with pytest.raises(DomainError, match=r"\(m, 2\) int64"):
            Graph(n=2, edges=edges)

    def test_constructor_freezes_a_copy_of_writeable_arrays(self):
        edges = np.array([[0, 1]], dtype=np.int64)
        g = Graph(n=2, edges=edges)
        edges[0, 1] = 0
        assert g.edges.tolist() == [[0, 1]]
        assert not g.edges.flags.writeable

    def test_equality_hash_and_replace(self):
        g = random_graph(5, 9, 0.4)
        same = build_graph(g.n, g.edges.tolist()[::-1])
        assert same == g and hash(same) == hash(g)
        assert g != build_graph(g.n + 1, g.edges) and g != "graph"
        g.csr  # fill the cache that replace must not carry over
        fresh = dataclasses.replace(g)
        assert fresh == g and fresh.edges is g.edges
        assert set(vars(fresh)) == {"n", "edges"}

    def test_the_library_caches_only_the_csr(self):
        g = gen_random_bipartite_regular(10, 4, seed=1)
        cover = random_cover(g, 12, seed=2)
        lift_from_lists(g, [[0, 1]] * g.n)
        validate_cover(g, cover)
        run_nibble(g, cover, relaxed_params(), seed=3)
        assert set(vars(g)) <= {"n", "edges", "csr"}


class TestStatistics:
    def test_average_degree_cycle(self):
        assert average_degree(gen_cycle(4)) == 2.0

    def test_average_degree_k88(self):
        assert average_degree(gen_complete_bipartite(8, 8)) == 8.0

    def test_average_degree_path(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        assert average_degree(g) == pytest.approx(4 / 3)

    def test_average_degree_empty_graph_rejected(self):
        with pytest.raises(DomainError):
            average_degree(build_graph(0, []))

    def test_max_degree_star(self):
        assert max_degree(gen_complete_bipartite(1, 5)) == 5

    def test_max_degree_cycle(self):
        assert max_degree(gen_cycle(6)) == 2

    def test_max_degree_edgeless(self):
        assert max_degree(build_graph(3, [])) == 0


class TestTriangleFree:
    def test_k3(self):
        assert not is_triangle_free(build_graph(3, [(0, 1), (1, 2), (0, 2)]))

    def test_c5(self):
        assert is_triangle_free(gen_cycle(5))

    def test_petersen(self):
        g = petersen()
        assert g.m == 15
        assert brute_force_triangle_free(g)
        assert is_triangle_free(g)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force(self, seed):
        g = random_graph(seed, 9 + seed % 12, 0.3)
        assert is_triangle_free(g) == brute_force_triangle_free(g)

    def test_hub_with_many_leaves(self):
        star = [(0, i) for i in range(1, 50_001)]
        assert is_triangle_free(build_graph(50_001, star))
        assert not is_triangle_free(build_graph(50_001, star + [(7, 40_000)]))

    @pytest.mark.parametrize("block", [2, graphs.TRIANGLE_PAIR_BLOCK])
    def test_matches_brute_force_on_both_outcomes(self, block, monkeypatch):
        monkeypatch.setattr(graphs, "TRIANGLE_PAIR_BLOCK", block)
        seen = {True: 0, False: 0}
        for seed in range(60):
            g = random_graph(seed, 3 + seed % 10, (0.1, 0.2, 0.4)[seed % 3])
            free = brute_force_triangle_free(g)
            assert is_triangle_free(g) == free, seed
            seen[free] += 1
        assert min(seen.values()) >= 10, seen


class TestGenerators:
    def test_cycle(self):
        g = gen_cycle(4)
        assert g.m == 4
        with pytest.raises(DomainError):
            gen_cycle(2)

    def test_complete_bipartite(self):
        g = gen_complete_bipartite(8, 8)
        assert g.m == 64
        assert all(g.degree(v) == 8 for v in range(16))

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_random_regular_degrees(self, seed):
        g = gen_random_regular(10, 3, seed)
        assert all(g.degree(v) == 3 for v in range(10))
        assert g.m == 15

    def test_random_regular_triangle_free_flag(self):
        g = gen_random_regular(16, 3, seed=5, triangle_free=True)
        assert is_triangle_free(g)
        assert all(g.degree(v) == 3 for v in range(16))

    def test_random_regular_infeasible(self):
        with pytest.raises(DomainError, match="infeasible"):
            gen_random_regular(5, 3, seed=0)  # odd stub count
        with pytest.raises(DomainError, match="infeasible"):
            gen_random_regular(4, 4, seed=0)

    def test_random_regular_cap_exhausted(self):
        # 6-regular on 10 vertices exceeds the triangle-free edge maximum, so
        # the rejection loop must give up.
        with pytest.raises(DomainError, match="attempts"):
            gen_random_regular(10, 6, seed=0, triangle_free=True)

    def test_handshake_identity(self):
        for g in (gen_cycle(9), gen_complete_bipartite(3, 5), gen_random_regular(12, 4, 1)):
            assert sum(g.degree(v) for v in range(g.n)) == 2 * g.m

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bipartite_regular(self, seed):
        g = gen_random_bipartite_regular(20, 6, seed)
        assert g.n == 40
        assert all(g.degree(v) == 6 for v in range(40))
        assert is_triangle_free(g)
        # bipartite: no edge inside either side
        assert all(u < 20 <= v for u, v in g.edges)

    def test_bipartite_regular_deterministic(self):
        assert gen_random_bipartite_regular(15, 5, 3) == gen_random_bipartite_regular(15, 5, 3)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.data())
    def test_bipartite_regular_property(self, data):
        n_side = data.draw(st.integers(0, 60))
        # 2d in {n_side - 1, n_side, n_side + 1}: where the switch repair
        # is tightest and where the complement takes over
        near = sorted({n_side // 2, (n_side + 1) // 2})
        d = data.draw(st.one_of(st.sampled_from(near), st.integers(0, n_side)))
        seed = data.draw(st.integers(0, 2**32))
        g = gen_random_bipartite_regular(n_side, d, seed)
        assert g.n == 2 * n_side and g.m == n_side * d
        assert (np.bincount(g.edges.ravel(), minlength=g.n) == d).all()
        u, v = g.edges.T
        assert ((u < n_side) & (v >= n_side)).all()
        keys = u * g.n + v
        assert (np.diff(keys) > 0).all()  # sorted, so no edge repeats
        assert g == gen_random_bipartite_regular(n_side, d, seed)

    @pytest.mark.parametrize("n_side", range(1, 41))
    def test_bipartite_regular_dense_degrees(self, n_side):
        # From 3 per side on both degrees go through the complement, and
        # d = n_side has one answer.
        g = gen_random_bipartite_regular(n_side, n_side - 1, seed=0)
        assert g.m == n_side * (n_side - 1)
        assert (np.bincount(g.edges.ravel(), minlength=g.n) == n_side - 1).all()
        full = gen_random_bipartite_regular(n_side, n_side, seed=0)
        assert full == gen_complete_bipartite(n_side, n_side)

    def test_bipartite_regular_dense_at_100(self):
        assert gen_random_bipartite_regular(100, 100, 0) == gen_complete_bipartite(100, 100)
        assert gen_random_bipartite_regular(100, 99, 0).m == 9900

    @pytest.mark.parametrize("d", [1, 2])
    def test_bipartite_regular_uniform_on_three_per_side(self, d):
        # Six graphs are d-regular on 3 + 3 vertices: the perfect matchings
        # (d = 1, one permutation) and their complements (d = 2). Over 600
        # seeds each count is Binomial(600, 1/6), mean 100; the band holds
        # all but 1e-6 of that law.
        from scipy.stats import binom

        seen = {}
        for seed in range(600):
            key = gen_random_bipartite_regular(3, d, seed).edges.tobytes()
            seen[key] = seen.get(key, 0) + 1
        lo, hi = binom.interval(1 - 1e-6, 600, 1 / 6)
        assert len(seen) == 6
        assert all(lo <= c <= hi for c in seen.values()), sorted(seen.values())

    def test_bipartite_regular_at_ten_thousand_per_side(self):
        t0 = time.perf_counter()
        g = gen_random_bipartite_regular(10_000, 30, seed=0)
        assert time.perf_counter() - t0 < 3.0
        assert g.m == 300_000
        assert (np.bincount(g.edges.ravel(), minlength=g.n) == 30).all()

    def test_random_regular_deterministic(self):
        assert gen_random_regular(10, 3, 9) == gen_random_regular(10, 3, 9)

    def test_negative_seed_is_domain_error(self):
        with pytest.raises(DomainError, match="got -1$"):
            derive_rng(-1, "x")
        with pytest.raises(DomainError, match="got -3$"):
            gen_random_bipartite_regular(5, 2, -3)

    @pytest.mark.parametrize(
        "seed", [1.9, 2.0, np.float64(2.0), True, "2"], ids=repr
    )
    def test_non_integer_seed_is_domain_error(self, seed):
        # a float would be truncated by SeedSequence, a bool read as 0 or 1
        g = gen_cycle(4)
        calls = [
            lambda: derive_rng(seed, "x"),
            lambda: gen_random_bipartite_regular(5, 2, seed),
            lambda: random_cover(g, 3, seed=seed),
            lambda: run_nibble(g, random_cover(g, 3, seed=0), relaxed_params(), seed),
        ]
        for call in calls:
            msg = f"seed must be an integer of at least 0, got {seed!r}"
            with pytest.raises(DomainError, match=f"^{re.escape(msg)}$"):
                call()

    def test_numpy_integer_seed_is_the_same_seed(self):
        draws = [derive_rng(s, "x").random(3).tolist() for s in (2, np.int64(2))]
        assert draws[0] == draws[1]


class TestIO:
    def test_json_round_trip(self):
        g = random_graph(11, 13, 0.35)
        doc = graph_to_json_dict(g)
        assert graph_from_json_dict(json.loads(json.dumps(doc))) == g

    @given(
        st.sampled_from([0, 1, graphs._EDGES_PER_CALL, graphs._EDGES_PER_CALL + 1]),
        st.sampled_from([0, 50, graphs.MAX_VERTICES]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=16, derandomize=True, deadline=None)
    def test_writer_matches_json_dumps(self, m, n, seed):
        # edges are filled in runs of _EDGES_PER_CALL
        rng = np.random.default_rng(seed)
        ids = np.unique(np.r_[n - 1, rng.choice(n, 50, replace=False)]) if n else ()
        pairs = list(itertools.combinations(ids, 2))
        m = min(m, len(pairs))  # n=0 has no edges
        g = build_graph(n, [pairs[i] for i in rng.choice(len(pairs), m, replace=False)])
        assert g.m == m
        want = json.dumps(graph_to_json_dict(g), indent=2, sort_keys=True) + "\n"
        assert canonical_graph_json(g) == want.encode()

    def test_json_schema_errors(self):
        with pytest.raises(MalformedInputError):
            graph_from_json_dict({"edges": []})
        with pytest.raises(MalformedInputError):
            graph_from_json_dict({"n": 2, "edges": [["a", "b"]]})

    def test_dimacs(self):
        text = "c a comment\np edge 4 3\ne 1 2\ne 2 3\ne 3 4\n"
        g = parse_dimacs(text)
        assert g == build_graph(4, [(0, 1), (1, 2), (2, 3)])

    def test_dimacs_missing_header(self):
        with pytest.raises(MalformedInputError, match="header"):
            parse_dimacs("e 1 2\n")

    def test_dimacs_unknown_record(self):
        with pytest.raises(MalformedInputError, match="unknown record"):
            parse_dimacs("p edge 2 1\nx 1 2\n")

    @pytest.mark.parametrize(
        "text, line",
        [
            ("p edge x 3\n", 1),
            ("p edge 3 2\ne 1 2\ne 1 z\n", 3),
            ("p col 3 zz\ne 1 2\n", 1),
            ("p graph 3 1\ne 1 2\n", 1),
            ("p edge 3 -1\n", 1),
            ("p edge -1 0\n", 1),
            ("p edge 3 1\ne 1 2\np edge 5 1\n", 3),
            ("p edge 3 1 9\ne 1 2\n", 1),
            ("p edge 3 1\ne 1 2 9\n", 2),
        ],
    )
    def test_dimacs_fields_that_are_not_integers(self, text, line):
        with pytest.raises(MalformedInputError, match=f"line {line}: "):
            parse_dimacs(text)

    def test_graph_equality_and_csr(self):
        g = gen_cycle(5)
        ptr, idx = g.csr
        assert ptr[-1] == 2 * g.m
        assert list(idx[ptr[0] : ptr[1]]) == [1, 4]


# ---------------------------------------------------------------------------
# malformed documents

MALFORMED_GRAPHS = {
    "float-endpoint": {"n": 2, "edges": [[0, 1.7]]},
    "integral-float-endpoint": {"n": 2, "edges": [[0, 1.0]]},
    "string-endpoints": {"n": 2, "edges": [["0", "1"]]},
    "bool-endpoints": {"n": 2, "edges": [[False, True]]},
    "bool-beside-int-endpoints": {"n": 3, "edges": [[0, True], [1, 2]]},
    "huge-endpoint": {"n": 2, "edges": [[0, 2**64]]},
    "string-n": {"n": "3", "edges": []},
    "bool-n": {"n": True, "edges": []},
    "float-n": {"n": 3.0, "edges": []},
    "null-n": {"n": None, "edges": []},
    "edge-of-one": {"n": 2, "edges": [[0]]},
    "edge-of-three": {"n": 3, "edges": [[0, 1, 2]]},
    "edge-is-number": {"n": 2, "edges": [1]},
    "edge-is-string": {"n": 2, "edges": ["01"]},
    "edges-is-object": {"n": 2, "edges": {"0": [1]}},
    "edges-is-string": {"n": 2, "edges": "01"},
    "missing-edges": {"n": 2},
}


@pytest.mark.parametrize("name", sorted(MALFORMED_GRAPHS))
def test_malformed_graph_is_rejected(name, tmp_path, capsys):
    doc = MALFORMED_GRAPHS[name]
    with pytest.raises(MalformedInputError):
        graph_from_json_dict(doc)
    gpath = tmp_path / "g.json"
    gpath.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["gen-cover", "--graph", str(gpath), "--k", "2"])
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""
    assert out.err.startswith("error: ") and out.err.count("\n") == 1
