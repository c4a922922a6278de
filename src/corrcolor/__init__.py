"""Correspondence (DP) coloring toolkit.

Covers assign each vertex a private color list and each edge a matching
between the endpoint lists; a coloring is a transversal of the lists that
is independent under the matchings. The package provides exact solving and
counting over covers, random-cover experiments around the first-moment
lower bound, and a randomized nibble procedure that colors triangle-free
graphs with every expectation identity exposed as a testable operation.
"""

from types import ModuleType as _ModuleType

__version__ = "0.1.0"

from .coverjson import (
    canonical_cover_json,
    cover_from_canonical_json,
    cover_from_json_dict,
    cover_to_json_dict,
)
from .covers import (
    Cover,
    cover_from_permutations,
    lift_from_lists,
    make_cover,
    random_cover,
    shifted_cycle_cover,
    validate_cover,
)
from .errors import (
    CorrColorError,
    DomainError,
    HypothesisViolationError,
    InternalConsistencyError,
    IstarInfeasibleError,
    MalformedInputError,
    RoundingBudgetExceeded,
    SearchBudgetExceeded,
)
from .firstmoment import (
    FirstMoment,
    LowerBoundReport,
    alon_bound,
    expected_colorings,
    first_moment_bound,
    run_lb_experiment,
)
from .graphs import (
    Graph,
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
    max_degree,
    parse_dimacs,
)
from .nibble import (
    NibbleParams,
    NibbleResult,
    StepStats,
    TargetCheck,
    check_reduct_hypotheses,
    check_reduct_targets,
    compute_istar,
    degree_expectation_bound,
    expected_pprime,
    extend_coloring,
    final_color,
    paper_params,
    reduct_step,
    relaxed_params,
    run_nibble,
)
from .rng import derive_int_seed, derive_rng, derive_seed_sequence
from .solver import (
    count_colorings,
    check_coloring,
    greedy_color,
    is_valid_coloring,
    solve_exact,
    solve_report,
)
from .weights import (
    NiceCheck,
    ReductState,
    Weighting,
    check_nice,
    moderate_restrict,
)

# The submodules are bound here by the imports above, but are not exported.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
