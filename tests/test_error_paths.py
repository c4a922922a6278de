"""Error paths: integer parameters and ids, the istar overflow, malformed
coloring ids, and the argument checks of the library's public functions."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrcolor import (
    CorrColorError,
    DomainError,
    IstarInfeasibleError,
    MalformedInputError,
    alon_bound,
    build_graph,
    canonical_cover_json,
    check_coloring,
    check_reduct_hypotheses,
    compute_istar,
    count_colorings,
    cover_from_canonical_json,
    cover_from_permutations,
    degree_expectation_bound,
    expected_colorings,
    expected_pprime,
    final_color,
    first_moment_bound,
    gen_complete_bipartite,
    gen_cycle,
    gen_random_bipartite_regular,
    gen_random_regular,
    greedy_color,
    lift_from_lists,
    make_cover,
    paper_params,
    random_cover,
    reduct_step,
    relaxed_params,
    run_lb_experiment,
    run_nibble,
    shifted_cycle_cover,
    solve_exact,
)
from corrcolor.errors import check_real
from corrcolor.weights import ReductState, Weighting

from .conftest import reference_check_coloring


def c6_state(**kwargs):
    g = gen_cycle(6)
    cover = random_cover(g, 3, seed=0)
    return ReductState.initial(g, cover, Weighting.uniform(cover, 0.1, 0.5), **kwargs)


def refused(message):
    """pytest.raises for a DomainError with exactly this message."""
    return pytest.raises(DomainError, match=f"^{re.escape(message)}$")


NON_INTEGERS = [2.5, True]


class TestIntegerParameters:
    @pytest.mark.parametrize("value", NON_INTEGERS)
    @pytest.mark.parametrize(
        "name", ["max_retries_per_step", "max_final_retries", "max_steps"]
    )
    def test_nibble_budget(self, name, value):
        with refused(f"{name} must be an integer of at least 1, got {value!r}"):
            relaxed_params(**{name: value})

    def test_nibble_budget_float_never_reaches_the_run(self):
        g = gen_random_bipartite_regular(8, 3, seed=0)
        cover = random_cover(g, 6, seed=0)
        with refused("max_steps must be an integer of at least 1, got 2.5"):
            run_nibble(g, cover, relaxed_params(max_steps=2.5), seed=1)

    @pytest.mark.parametrize("value", NON_INTEGERS)
    def test_final_color_max_retries(self, value):
        with refused(f"max_retries must be an integer of at least 1, got {value!r}"):
            final_color(c6_state(), 0, max_retries=value)

    @pytest.mark.parametrize("value", [0, -3])
    def test_final_color_needs_a_round(self, value):
        with refused(f"max_retries must be an integer of at least 1, got {value}"):
            final_color(c6_state(), 0, max_retries=value)

    @pytest.mark.parametrize("value", NON_INTEGERS)
    def test_random_cover_k(self, value):
        with refused(f"k must be an integer from 1 to 2**58 - 1, got {value!r}"):
            random_cover(gen_cycle(4), value, seed=1)

    @pytest.mark.parametrize("value", NON_INTEGERS)
    def test_lb_experiment_trials(self, value):
        with refused(f"trials must be an integer of at least 1, got {value!r}"):
            run_lb_experiment(gen_cycle(4), 2, value, 1)

    @pytest.mark.parametrize("value", NON_INTEGERS)
    def test_lb_experiment_k(self, value):
        with refused(f"k must be an integer from 1 to 2**58 - 1, got {value!r}"):
            run_lb_experiment(gen_cycle(4), value, 2, 1)

    @pytest.mark.parametrize("value", NON_INTEGERS)
    def test_node_budget(self, value):
        g = gen_complete_bipartite(3, 3)
        with refused(f"node_budget must be an integer of at least 0, got {value!r}"):
            count_colorings(g, random_cover(g, 2, seed=0), node_budget=value)

    def test_numpy_integers_pass(self):
        g = gen_cycle(4)
        cover = random_cover(g, np.int64(2), seed=1)
        assert cover == random_cover(g, 2, seed=1)
        assert count_colorings(g, cover, node_budget=np.int32(100)) >= 0
        assert relaxed_params(max_steps=np.int64(3)).max_steps == 3

    @pytest.mark.parametrize(
        "make, message",
        [
            (
                lambda: gen_cycle(5.0),
                "n must be an integer from 3 to 2**31 - 1, got 5.0",
            ),
            (
                lambda: gen_complete_bipartite(2.0, 2),
                "a must be an integer from 1 to 2**31 - 1, got 2.0",
            ),
            (
                lambda: gen_complete_bipartite(2, True),
                "b must be an integer from 1 to 2**31 - 1, got True",
            ),
            (
                lambda: gen_random_regular(10, 3.0, 1),
                "d must be an integer of at least 0, got 3.0",
            ),
            (
                lambda: gen_random_regular(10.0, 3, 1),
                "n must be an integer from 0 to 2**31 - 1, got 10.0",
            ),
            (
                lambda: gen_random_bipartite_regular(5, 2.0, 1),
                "d must be an integer of at least 0, got 2.0",
            ),
            (
                lambda: gen_random_bipartite_regular(5.0, 2, 1),
                "n_side must be an integer from 0 to 2**30 - 1, got 5.0",
            ),
            (
                lambda: gen_random_bipartite_regular(5, True, 1),
                "d must be an integer of at least 0, got True",
            ),
            (
                lambda: build_graph(3.0, []),
                "n must be an integer from 0 to 2**31 - 1, got 3.0",
            ),
            (
                lambda: cover_from_permutations(gen_cycle(4), 2.0, {}),
                "k must be an integer from 1 to 2**58 - 1, got 2.0",
            ),
            (
                lambda: shifted_cycle_cover(4.0),
                "m must be an integer from 4 to 2**31 - 1, got 4.0",
            ),
            (
                lambda: shifted_cycle_cover(4, k=2.0),
                "k must be an integer of at least 1, got 2.0",
            ),
        ],
        ids=[
            "cycle", "bipartite-a", "bipartite-b", "regular-d", "regular-n",
            "bip-regular-d", "bip-regular-n", "bip-regular-bool", "build-graph",
            "permutations", "shifted-m", "shifted-k",
        ],
    )
    def test_sizes(self, make, message):
        with refused(message):
            make()

    def test_integer_range_messages_are_kept(self):
        with refused("max_steps must be an integer of at least 1, got 0"):
            relaxed_params(max_steps=0)
        with refused("k must be an integer from 1 to 2**58 - 1, got 0"):
            random_cover(gen_cycle(4), 0, seed=1)
        with refused("trials must be an integer of at least 1, got 0"):
            run_lb_experiment(gen_cycle(4), 2, 0, 1)
        g = gen_cycle(4)
        with refused("node_budget must be an integer of at least 0, got -1"):
            count_colorings(g, random_cover(g, 2, seed=1), node_budget=-1)


def test_istar_with_overflowing_degree_tolerance_bottoms_out_at_once():
    params = relaxed_params(tol_scale=1e308)
    assert params.dev_degree(3) == float("inf")
    with pytest.raises(IstarInfeasibleError, match="bottoms out at 3 > target"):
        compute_istar(3, params)


C4 = gen_cycle(4)
C4_COVER = random_cover(C4, 2, seed=0)  # colors 2v and 2v + 1 at vertex v


class TestIntegerIds:
    """Every id the library is handed is an int or a numpy integer; a bool,
    a float or anything else is refused with DomainError, never converted."""

    @pytest.mark.parametrize(
        "restrict, message",
        [
            ({0: 5}, "restriction at vertex 0 must list integer ids"),
            ({0: [1.0]}, "restriction at vertex 0 must list integer ids"),
            ({0: [True]}, "restriction at vertex 0 must list integer ids"),
            ({True: [2]}, "restriction names vertex True is not an integer"),
            ({1.0: [2]}, "restriction names vertex 1.0 is not an integer"),
        ],
        ids=["scalar", "float", "bool", "bool-key", "float-key"],
    )
    @pytest.mark.parametrize("solve", [solve_exact, count_colorings])
    def test_restriction(self, solve, restrict, message):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}"):
            solve(C4, C4_COVER, restrict=restrict)

    @pytest.mark.parametrize(
        "vertices", [[1.0], [True], [0, None]], ids=["float", "bool", "none"]
    )
    @pytest.mark.parametrize("solve", [solve_exact, count_colorings])
    def test_vertices(self, solve, vertices):
        bad = vertices[-1]
        with pytest.raises(DomainError, match=f"^vertex {bad} is not an integer$"):
            solve(C4, C4_COVER, vertices=vertices)
        with pytest.raises(DomainError, match=f"^vertex {bad} is not an integer$"):
            check_coloring(C4, C4_COVER, {0: 0, 1: 2}, vertices=vertices)

    @pytest.mark.parametrize(
        "order", [[True, False, 2, 3], [1.0, 0, 2, 3]], ids=["bool", "float"]
    )
    def test_greedy_order(self, order):
        with pytest.raises(DomainError, match="^order must be a permutation"):
            greedy_color(C4, C4_COVER, order)

    @pytest.mark.parametrize("perm", [[True, False], [1.0, 0]], ids=["bool", "float"])
    def test_permutation_entries(self, perm):
        with pytest.raises(DomainError, match=r"^not a permutation of 0\.\.1"):
            cover_from_permutations(C4, 2, {(0, 1): perm})

    @pytest.mark.parametrize(
        "edges", [[(True, False)], [(0, 1), (1, True)]], ids=["bools", "mixed"]
    )
    def test_graph_endpoints(self, edges):
        with pytest.raises(DomainError, match="^edge endpoints must be integers$"):
            build_graph(3, edges)

    def test_numpy_ids_pass(self):
        restrict = {np.int64(0): [np.int32(1)]}
        assert solve_exact(C4, C4_COVER, restrict=restrict, vertices=[np.int64(0)]) == {
            0: 1
        }
        order = np.arange(4)
        assert greedy_color(C4, C4_COVER, order) == greedy_color(C4, C4_COVER, range(4))
        perms = {(0, 1): np.array([1, 0])}
        assert cover_from_permutations(C4, 2, perms) == cover_from_permutations(
            C4, 2, {(0, 1): (1, 0)}
        )
        assert build_graph(3, np.array([[0, 1]], dtype=np.int32)).m == 1


FULL_COLORING = {0: 0, 1: 2, 2: 4, 3: 6}


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            lambda: solve_exact(C4, C4_COVER, vertices=3),
            DomainError,
            "vertices must be a collection of ids, got 3",
        ),
        (
            lambda: greedy_color(C4, C4_COVER, 3),
            DomainError,
            "order must be a permutation of all vertices",
        ),
        (
            lambda: check_coloring(C4, C4_COVER, FULL_COLORING, vertices=2),
            DomainError,
            "vertices must be a collection of ids, got 2",
        ),
        (
            lambda: cover_from_permutations(C4, 2, {(0, 1): 5}),
            DomainError,
            "not a permutation of 0..1 on edge (0,1): 5",
        ),
        (
            lambda: solve_exact(C4, C4_COVER, restrict=[0]),
            DomainError,
            "a restriction must map vertices to color ids, got list",
        ),
        (
            lambda: solve_exact(C4, C4_COVER, restrict=5),
            DomainError,
            "a restriction must map vertices to color ids, got int",
        ),
        (
            lambda: cover_from_permutations(C4, 2, [(0, 1)]),
            DomainError,
            "perms must map edges to permutations, got list",
        ),
        (
            lambda: check_coloring(C4, C4_COVER, {0: 0, True: 2, 2: 4, 3: 6}),
            MalformedInputError,
            "the vertices of a coloring must be integers, got True",
        ),
        (
            lambda: check_coloring(C4, C4_COVER, [0, 2, 4, 6]),
            MalformedInputError,
            "a coloring must map vertices to color ids, got list",
        ),
        (
            lambda: make_cover(5, {}),
            MalformedInputError,
            "lists must be a collection of color lists, got int",
        ),
        (
            lambda: make_cover([[0], [1]], 5),
            MalformedInputError,
            "matchings must map vertex pairs to matched pairs, got int",
        ),
        (
            lambda: lift_from_lists(C4, 5),
            MalformedInputError,
            "label_lists must be a collection of label lists, got int",
        ),
        (
            lambda: lift_from_lists(C4, None),
            MalformedInputError,
            "label_lists must be a collection of label lists, got NoneType",
        ),
    ],
    ids=[
        "solve-vertices-scalar",
        "greedy-order-scalar",
        "check-vertices-scalar",
        "permutation-scalar",
        "restrict-list",
        "restrict-scalar",
        "perms-list",
        "coloring-bool-key",
        "coloring-list",
        "make-cover-lists-scalar",
        "make-cover-matchings-scalar",
        "lift-scalar",
        "lift-none",
    ],
)
def test_wrong_container_is_a_library_error(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


# In-range and out-of-range ints, numpy ints, bools, integral and other
# floats, ints beyond int64, None and strings.
IDS = st.one_of(
    st.integers(-1, 8),
    st.integers(-1, 8).map(np.int64),
    st.booleans(),
    st.integers(-1, 8).map(float),
    st.floats(allow_nan=True),
    st.sampled_from([2**63, 2**64, -(2**63) - 1]),
    st.none(),
    st.text(max_size=2),
)


@given(st.lists(IDS, max_size=5))
@settings(max_examples=100, derandomize=True, deadline=None)
def test_any_id_ends_in_a_result_or_a_library_error(ids):
    head = ids[:4]
    coloring = {0: 0, 1: 2, 2: 4, 3: 6}
    calls = [
        lambda: check_coloring(C4, C4_COVER, {**coloring, **dict(enumerate(head))}),
        lambda: check_coloring(C4, C4_COVER, coloring, vertices=ids),
        lambda: solve_exact(C4, C4_COVER, vertices=ids),
        lambda: count_colorings(C4, C4_COVER, vertices=ids),
        lambda: solve_exact(C4, C4_COVER, restrict=dict(zip(ids, ids))),
        lambda: count_colorings(C4, C4_COVER, restrict={0: ids}, vertices=head),
        lambda: greedy_color(C4, C4_COVER, [*head, *range(len(head), 4)]),
        lambda: cover_from_permutations(C4, 2, {(0, 1): ids[:2]}),
    ]
    for call in calls:
        try:
            call()
        except CorrColorError:
            pass


@pytest.mark.parametrize(
    "key",
    [(1, 0), (0, 2), 0, (0, 1, 2), (True, 2), (1.0, 2), "0,1"],
    ids=["reversed", "non-edge", "scalar", "triple", "bool", "float", "string"],
)
def test_permutation_key_that_is_not_an_edge_is_refused(key):
    message = f"perms key {key!r} is not an edge (u, v), u < v, of the graph"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        cover_from_permutations(C4, 2, {key: (1, 0)})


RELAXED = relaxed_params()
DEGREE_BOUND_1 = "max_deg must be an integer from 2 to 2**63 - 1, got 1"
DEGREE_BOUND_0 = "max_deg must be an integer from 2 to 2**63 - 1, got 0"


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: RELAXED.k_for(1), DEGREE_BOUND_1),
        (lambda: RELAXED.shrink(1), DEGREE_BOUND_1),
        (
            lambda: RELAXED.k_for(True),
            "max_deg must be an integer from 2 to 2**63 - 1, got True",
        ),
        (lambda: RELAXED.p_hat_for(0), DEGREE_BOUND_0),
        (
            lambda: RELAXED.dev_edge(30, 0),
            "k must be an integer from 1 to 2**63 - 1, got 0",
        ),
        (lambda: RELAXED.k_for(0), DEGREE_BOUND_0),
        (lambda: RELAXED.dev_entropy(0), DEGREE_BOUND_0),
        (
            lambda: compute_istar(10**400, RELAXED),
            f"max_deg must be an integer from 3 to 2**63 - 1, got {10**400}",
        ),
        (
            lambda: compute_istar(3.5, paper_params()),
            "max_deg must be an integer from 3 to 2**63 - 1, got 3.5",
        ),
        (
            lambda: first_moment_bound(2.5, 3, 2),
            "n must be an integer from 1 to 2**63 - 1, got 2.5",
        ),
        (
            lambda: first_moment_bound(3, 3, True),
            "k must be an integer from 1 to 2**63 - 1, got True",
        ),
        (
            lambda: expected_colorings(3, 2.5, 2),
            "m must be an integer from 0 to 2**63 - 1, got 2.5",
        ),
        (
            lambda: alon_bound(math.nan),
            "d must be a finite number of at least 5.43656365691809, got nan",
        ),
        (
            lambda: alon_bound(math.inf),
            "d must be a finite number of at least 5.43656365691809, got inf",
        ),
        (
            lambda: cover_from_permutations(C4, 0, {}),
            "k must be an integer from 1 to 2**58 - 1, got 0",
        ),
        (
            lambda: expected_pprime(c6_state(max_deg=2, k=3), 1.0),
            "x must be an integer from 0 to 17, got 1.0",
        ),
        (
            lambda: expected_pprime(c6_state(max_deg=2, k=3), True),
            "x must be an integer from 0 to 17, got True",
        ),
        (lambda: C4.degree(1.0), "v must be an integer from 0 to 3, got 1.0"),
        (lambda: C4.degree(True), "v must be an integer from 0 to 3, got True"),
        (
            lambda: gen_cycle(2**62),
            f"n must be an integer from 3 to 2**31 - 1, got {2**62}",
        ),
        (
            lambda: gen_complete_bipartite(2**40, 2**40),
            f"a must be an integer from 1 to 2**31 - 1, got {2**40}",
        ),
        (
            lambda: gen_complete_bipartite(2**30, 2**30),
            f"a + b must be an integer from 2 to 2**31 - 1, got {2**31}",
        ),
        (
            lambda: gen_complete_bipartite(2**30, 2**30 - 1),
            f"2 * a * b must be an integer from 2 to 2**60 - 1, got {2**61 - 2**31}",
        ),
        (
            lambda: gen_random_regular(2**40, 0, 1),
            f"n must be an integer from 0 to 2**31 - 1, got {2**40}",
        ),
        (
            lambda: gen_random_regular(2**31 - 1, 2**31 - 2, 1),
            "n * d must be an integer from 0 to 2**60 - 1,"
            f" got {(2**31 - 1) * (2**31 - 2)}",
        ),
        (
            lambda: gen_random_bipartite_regular(2**62, 0, 1),
            f"n_side must be an integer from 0 to 2**30 - 1, got {2**62}",
        ),
        (
            lambda: shifted_cycle_cover(2**32),
            f"m must be an integer from 4 to 2**31 - 1, got {2**32}",
        ),
        (
            lambda: random_cover(C4, 2**62, 1),
            f"k must be an integer from 1 to 2**58 - 1, got {2**62}",
        ),
        (
            lambda: cover_from_permutations(C4, 2**58, {}),
            f"k must be an integer from 1 to 2**58 - 1, got {2**58}",
        ),
        (
            lambda: random_cover(build_graph(0, []), 2**60, 1),
            f"k must be an integer from 1 to 2**60 - 1, got {2**60}",
        ),
    ],
    ids=[
        "k_for-1",
        "shrink-1",
        "k_for-bool",
        "p_hat_for-0",
        "dev_edge-k0",
        "k_for-0",
        "dev_entropy-0",
        "istar-beyond-float",
        "istar-float",
        "first-moment-float-n",
        "first-moment-bool-k",
        "expected-colorings-float-m",
        "alon-nan",
        "alon-inf",
        "permutations-k0",
        "pprime-float-id",
        "pprime-bool-id",
        "degree-float-id",
        "degree-bool-id",
        "cycle-n-huge",
        "bipartite-side-huge",
        "bipartite-vertices",
        "bipartite-endpoints",
        "regular-n-huge",
        "regular-endpoints",
        "bip-regular-n-huge",
        "shifted-m-huge",
        "random-cover-k-huge",
        "permutations-k-huge",
        "empty-graph-k-huge",
    ],
)
def test_degree_bounds_sizes_and_ids_are_checked(call, message):
    with refused(message):
        call()


# Ints, numpy ints, bools, floats with NaN and +-inf, ints beyond int64 and
# None, for each size, degree bound, id, probability and real parameter below.
NUMBERS = st.one_of(
    st.integers(-2, 12),
    st.integers(-2, 12).map(np.int64),
    st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([2**63, 2**64, -(2**63) - 1, 10**400]),
    st.none(),
)


def has_nan(value) -> bool:
    values = value if isinstance(value, tuple) else (value,)
    return any(isinstance(v, float) and math.isnan(v) for v in values)


@given(NUMBERS, NUMBERS, NUMBERS)
@settings(max_examples=150, derandomize=True, deadline=None)
def test_any_number_ends_in_a_value_or_a_library_error(a, b, c):
    state = c6_state(max_deg=2, k=3)
    calls = [
        lambda: RELAXED.k_for(a),
        lambda: RELAXED.p_hat_for(a),
        lambda: RELAXED.dev_vertex(a),
        lambda: RELAXED.dev_edge(a, b),
        lambda: RELAXED.dev_entropy(a),
        lambda: RELAXED.dev_degree(a),
        lambda: RELAXED.shrink(a),
        lambda: RELAXED.edge_mass_cap(a),
        lambda: RELAXED.niceness_target(a),
        lambda: compute_istar(a, paper_params()),
        lambda: first_moment_bound(a, b, c),
        lambda: expected_colorings(a, b, c),
        lambda: alon_bound(a),
        lambda: expected_pprime(state, a),
        lambda: C4.degree(a),
        lambda: random_cover(C4, a, seed=1),
        lambda: random_cover(C4, 2, seed=1, q=a),
        lambda: random_cover(C4, 2, seed=1, mode="bernoulli", q=a),
        lambda: cover_from_permutations(C4, a, {}),
        lambda: relaxed_params(ck=a),
        lambda: relaxed_params(shrink_factor=a),
        lambda: relaxed_params(tol_scale=a),
        lambda: relaxed_params(max_retries_per_step=a),
        lambda: relaxed_params(max_final_retries=a),
        lambda: relaxed_params(max_steps=a),
        lambda: reduct_step(state, 1, alpha=a),
        lambda: final_color(state, a, 3),
        lambda: final_color(state, 1, a),
        lambda: Weighting.uniform(state.cover, 0.1, a),
        lambda: Weighting.uniform(state.cover, a, 0.5),
        lambda: degree_expectation_bound(state, a, 1.0, 1.0),
        lambda: degree_expectation_bound(state, 0.0, a, 1.0),
        lambda: degree_expectation_bound(state, 0.0, 1.0, a),
        lambda: gen_cycle(a),
        lambda: gen_complete_bipartite(a, b),
        lambda: gen_random_regular(a, b, 1),
        lambda: gen_random_bipartite_regular(a, b, 1),
    ]
    for call in calls:
        try:
            value = call()
        except CorrColorError:
            continue
        assert not has_nan(value)


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: relaxed_params(ck=True),
            "ck must be a finite number above 0, got True",
        ),
        (
            lambda: reduct_step(c6_state(max_deg=2, k=3), 1, alpha=True),
            "alpha must be a finite number above 0, got True",
        ),
        (
            lambda: Weighting.uniform(C4_COVER, 0.1, True),
            "p_hat must be a finite number above 0, got True",
        ),
        (
            lambda: random_cover(C4, 3, 1, q=True),
            "q must be a finite number from 0 to 1, got True",
        ),
    ],
    ids=["ck", "alpha", "p_hat", "q"],
)
def test_bool_is_not_a_real_parameter(call, message):
    with refused(message):
        call()


@pytest.mark.parametrize(
    "value",
    [True, None, "1", [1.0], math.nan, math.inf, -math.inf, 10**400, np.bool_(True)],
    ids=repr,
)
def test_check_real_refuses(value):
    # float(10**400) raises OverflowError; the check reports it as out of range
    with refused(f"r must be a finite number, got {value!r}"):
        check_real("r", value)


@pytest.mark.parametrize("value", [0, 1.5, np.int64(1), np.float32(0.5), 2**70])
def test_check_real_accepts_numbers(value):
    check_real("r", value)
    check_real("r", value, 0)


def test_check_real_bounds():
    check_real("r", 0, 0)
    check_real("r", 1, 0, 1)
    with refused("r must be a finite number above 0, got 0"):
        check_real("r", 0, 0, lo_open=True)
    with refused("r must be a finite number from 0 to 1, got 1.5"):
        check_real("r", 1.5, 0, 1)
    with refused("r must be a finite number of at least 2.5, got -1"):
        check_real("r", -1, 2.5)


def test_seeds_have_no_upper_bound():
    # derive_int_seed hands out 64-bit seeds, and they are taken back as seeds
    g = gen_random_bipartite_regular(4, 2, seed=2**64 + 1)
    cover = random_cover(g, 8, seed=2**63)
    result = run_nibble(g, cover, relaxed_params(), seed=2**70)
    assert result.seed == 2**70 and result.ok


class TestCheckColoringIds:
    def test_names_only_the_first_non_integer_id(self):
        g = gen_cycle(6)
        cover = random_cover(g, 3, seed=0)
        coloring = {0: 0, 1: 3.5, 2: 7.0, 3: 9, 4: 12, 5: 15}
        with pytest.raises(MalformedInputError) as info:
            check_coloring(g, cover, coloring)
        assert str(info.value) == "chosen id 3.5 at vertex 1 is not an integer color id"

    def test_message_does_not_grow_with_the_graph(self):
        g = gen_cycle(500)
        cover = random_cover(g, 3, seed=0)
        coloring = {v: float(3 * v) for v in range(g.n)}
        with pytest.raises(MalformedInputError) as info:
            check_coloring(g, cover, coloring)
        assert str(info.value) == "chosen id 0.0 at vertex 0 is not an integer color id"

    @pytest.mark.parametrize("big", [2**63, 2**64, -(2**63) - 1])
    @pytest.mark.parametrize("alone", [True, False], ids=["alone", "mixed"])
    def test_integer_beyond_int64_is_not_a_color(self, big, alone):
        g = gen_cycle(4)
        cover = random_cover(g, 2, seed=0)
        coloring = {0: big} if alone else {0: 0, 1: big, 2: 4, 3: 6}
        vertices = [0] if alone else None
        with pytest.raises(MalformedInputError) as info:
            check_coloring(g, cover, coloring, vertices)
        assert str(info.value) == f"chosen id {big} is not a color of the cover"

    @pytest.mark.parametrize("alone", [True, False], ids=["alone", "mixed"])
    def test_bool_is_not_a_color(self, alone):
        # Among ints, numpy would store True as the color 1.
        g = gen_cycle(4)
        cover = random_cover(g, 2, seed=0)
        coloring = {0: True} if alone else {0: True, 1: 2, 2: 4, 3: 6}
        vertices = [0] if alone else None
        with pytest.raises(MalformedInputError) as info:
            check_coloring(g, cover, coloring, vertices)
        assert str(info.value) == "chosen id True at vertex 0 is not an integer color id"

    @pytest.mark.parametrize(
        "coloring, want",
        [
            (
                {0: 2, 1: 3.5, 2: 4, 3: 6},
                "color 2 at vertex 0 is not in that vertex's list",
            ),
            (
                {0: 0, 1: 0, 2: None},
                "color 0 at vertex 1 is not in that vertex's list",
            ),
            ({0: 0, 2: "4"}, "vertex 1 has no color"),
        ],
        ids=["off-list", "off-list-later", "missing"],
    )
    def test_lowest_vertex_with_a_problem_decides(self, coloring, want):
        # A non-integer id above the first problem is not reached.
        lists, matchings = C4_COVER.lists, C4_COVER.matchings
        assert reference_check_coloring(C4, lists, matchings, coloring) == want
        assert check_coloring(C4, C4_COVER, coloring) == want

    def test_vertex_out_of_range(self):
        g = gen_cycle(4)
        with pytest.raises(DomainError, match="^vertex 4 out of range$"):
            check_coloring(g, random_cover(g, 2, seed=0), {}, vertices=[0, 4])


class TestUnreachedErrorPaths:
    def test_alpha_needs_a_degree_bound(self):
        with pytest.raises(DomainError, match="no degree bound; pass alpha"):
            reduct_step(c6_state(), 0)
        with refused("max_deg must be an integer from 2 to 2**63 - 1, got 1"):
            reduct_step(c6_state(max_deg=1, k=3), 0)

    def test_expected_pprime_color_out_of_range(self):
        state = c6_state(max_deg=2, k=3)
        with refused("x must be an integer from 0 to 17, got 18"):
            expected_pprime(state, 18)

    def test_initial_state_length_mismatches(self):
        g = gen_cycle(6)
        cover = random_cover(g, 3, seed=0)
        other = random_cover(gen_cycle(4), 3, seed=0)
        with pytest.raises(DomainError, match="disagree on vertex count"):
            ReductState.initial(g, other, Weighting.uniform(other, 0.1, 0.5))
        with pytest.raises(DomainError, match="weighting length disagrees"):
            ReductState.initial(g, cover, Weighting.uniform(other, 0.1, 0.5))

    def test_checks_without_max_deg(self):
        with pytest.raises(DomainError, match="need the state's max_deg and k"):
            check_reduct_hypotheses(c6_state(), relaxed_params())
        with pytest.raises(DomainError, match="needs the state's max_deg"):
            degree_expectation_bound(c6_state(), 0.1, 0.5, 0.5, alpha=0.5)

    def test_lift_wrong_number_of_lists(self):
        with pytest.raises(DomainError, match="^expected 4 label lists, got 3$"):
            lift_from_lists(gen_cycle(4), [[1], [2], [3]])

    def test_make_cover_matching_key_not_a_pair(self):
        for key in (5, (0, 1, 2)):
            with pytest.raises(MalformedInputError, match="must be vertex pairs"):
                make_cover([[0], [1]], {key: []})

    def test_shifted_cycle_bounds(self):
        with refused("m must be an integer from 4 to 2**31 - 1, got 2"):
            shifted_cycle_cover(2)
        with pytest.raises(DomainError, match="defined for k=2"):
            shifted_cycle_cover(6, k=3)

    def test_build_graph_bounds(self):
        with refused("n must be an integer from 0 to 2**31 - 1, got -1"):
            build_graph(-1, [])
        with pytest.raises(DomainError, match=r"^edges must be vertex pairs \(u, v\)$"):
            build_graph(3, [(0, 1, 2)])
        with pytest.raises(DomainError, match="vertex pairs .* of integers"):
            build_graph(3, [(0, 1), (2,)])

    def test_generator_bounds(self):
        with refused("a must be an integer from 1 to 2**31 - 1, got 0"):
            gen_complete_bipartite(0, 3)
        with pytest.raises(DomainError, match="n_side=3, d=4"):
            gen_random_bipartite_regular(3, 4, seed=0)

    def test_expected_colorings_domain(self):
        with refused("n must be an integer from 1 to 2**63 - 1, got 0"):
            expected_colorings(0, 1, 2)

    def test_canonical_reader_declines_a_trailing_digit(self):
        data = canonical_cover_json(random_cover(gen_cycle(4), 2, seed=0))
        assert cover_from_canonical_json(data) is not None
        assert cover_from_canonical_json(data + b"7") is None
