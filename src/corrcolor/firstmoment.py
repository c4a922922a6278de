"""First-moment bounds and random-cover lower-bound experiments.

For a cover drawn with independent uniform perfect matchings, a fixed
transversal survives each edge with probability exactly 1 - 1/k, so the
expected number of valid colorings is k^n (1 - 1/k)^m and the probability
that any coloring exists is at most k^n e^{-m/k}. When that bound is below
one, sampled covers witness a lower bound on the correspondence chromatic
number; a non-colorable cover is kept as a replayable certificate.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

from .covers import Cover, random_cover
from .errors import INT64_MAX, SearchBudgetExceeded, check_int, check_real
from .graphs import Graph, average_degree
from .rng import derive_int_seed
from .solver import DEFAULT_NODE_BUDGET, count_colorings

MIN_AVERAGE_DEGREE = 2.0 * math.e


def alon_bound(d: float) -> float:
    """(d/2) / ln(d/2), defined for finite average degree d >= 2e."""
    check_real("d", d, MIN_AVERAGE_DEGREE)
    return (d / 2.0) / math.log(d / 2.0)


class FirstMoment(NamedTuple):
    bound: float | None
    below_one: bool


def _exp(x: float) -> float | None:
    """e^x, or None when it exceeds the float range."""
    try:
        return math.exp(x)
    except OverflowError:
        return None


def first_moment_bound(n: int, m: int, k: int) -> FirstMoment:
    """k^n e^{-m/k} as exp(n ln k - m/k), plus the k ln k < m/n test.

    The predicate is equivalent to the bound being below one. The bound is
    None when it exceeds the float range.
    """
    check_int("n", n, 1, INT64_MAX)
    check_int("m", m, 0, INT64_MAX)
    check_int("k", k, 1, INT64_MAX)
    return FirstMoment(_exp(n * math.log(k) - m / k), bool(k * math.log(k) < m / n))


def expected_colorings(n: int, m: int, k: int) -> float | None:
    """Exact expected number of valid transversals: k^n (1 - 1/k)^m.

    Once k^n alone exceeds the float range, the product is taken in log
    space, exp(n ln k + m ln(1 - 1/k)); None when it too exceeds the range.
    """
    check_int("n", n, 1, INT64_MAX)
    check_int("m", m, 0, INT64_MAX)
    check_int("k", k, 1, INT64_MAX)
    try:
        return float(k) ** n * (1.0 - 1.0 / k) ** m
    except OverflowError:
        return _exp(n * math.log(k) + m * math.log1p(-1.0 / k))


@dataclass(frozen=True)
class LowerBoundReport:
    """Aggregate of one sampling experiment; JSON-serializable by `asdict`.

    Seed-complete: trial i drew `random_cover(g, k, derive_int_seed(seed,
    "lb-trial", i), mode, q)` and counted it within `node_budget` nodes.
    """

    n: int
    m: int
    avg_degree: float
    k: int
    mode: str
    q: float
    alon_bound: float | None
    first_moment_bound: float | None
    bound_below_one: bool
    expected_colorings_exact: float | None
    trials: int
    node_budget: int
    colorable_count: int
    noncolorable_count: int
    cap_exceeded_count: int
    mean_colorings_empirical: float | None
    std_error_mean: float | None
    witness_trial: int | None
    seed: int
    # The count of each trial, None where the search hit node_budget.
    per_trial_counts: tuple[int | None, ...] = field(repr=False)

    def to_json_dict(self) -> dict:
        return asdict(self)


def run_lb_experiment(
    g: Graph,
    k: int,
    trials: int,
    seed: int,
    mode: str = "perfect",
    q: float = 0.5,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> tuple[LowerBoundReport, Cover | None]:
    """Sample `trials` random covers and count colorings of each.

    Returns the aggregate report and the first non-colorable cover found
    (the certificate: replaying the exact solver on it proves the graph is
    not colorable from lists of size k, so at least k+1 are needed).
    Trials draw from per-trial derived seeds, so they aggregate identically
    under any execution order. Budget blow-ups are recorded per trial, not
    fatal.
    """
    check_int("trials", trials, 1)
    d = average_degree(g)
    counts: list[int | None] = []
    witness: Cover | None = None
    for i in range(trials):
        cover = random_cover(g, k, seed=derive_int_seed(seed, "lb-trial", i), mode=mode, q=q)
        try:
            c = count_colorings(g, cover, node_budget=node_budget)
        except SearchBudgetExceeded:
            c = None
        counts.append(c)
        if c == 0 and witness is None:
            witness = cover
    valid = [c for c in counts if c is not None]
    mean = sum(valid) / len(valid) if valid else None
    sem = None
    if len(valid) > 1:
        var = sum((c - mean) ** 2 for c in valid) / (len(valid) - 1)
        sem = math.sqrt(var / len(valid))
    fm = first_moment_bound(g.n, g.m, k)
    return LowerBoundReport(
        n=g.n,
        m=g.m,
        avg_degree=d,
        k=int(k),
        mode=mode,
        q=float(q),
        alon_bound=alon_bound(d) if d >= MIN_AVERAGE_DEGREE else None,
        first_moment_bound=fm.bound,
        bound_below_one=fm.below_one,
        expected_colorings_exact=expected_colorings(g.n, g.m, k),
        trials=int(trials),
        node_budget=int(node_budget),
        colorable_count=len(valid) - valid.count(0),
        noncolorable_count=valid.count(0),
        cap_exceeded_count=int(trials) - len(valid),
        mean_colorings_empirical=mean,
        std_error_mean=sem,
        witness_trial=None if witness is None else counts.index(0),
        seed=int(seed),
        per_trial_counts=tuple(counts),
    ), witness
