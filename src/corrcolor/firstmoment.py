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
from .errors import DomainError, SearchBudgetExceeded
from .graphs import Graph, average_degree
from .rng import derive_int_seed
from .solver import DEFAULT_NODE_BUDGET, count_colorings

MIN_AVERAGE_DEGREE = 2.0 * math.e


def alon_bound(d: float) -> float:
    """(d/2) / ln(d/2), defined for average degree d >= 2e."""
    if d < MIN_AVERAGE_DEGREE:
        raise DomainError(
            f"average degree must be at least 2e ~ {MIN_AVERAGE_DEGREE:.5f}, got {d}"
        )
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
    if n < 1 or m < 0 or k < 1:
        raise DomainError(f"need n >= 1, m >= 0, k >= 1; got n={n}, m={m}, k={k}")
    return FirstMoment(_exp(n * math.log(k) - m / k), k * math.log(k) < m / n)


def expected_colorings(n: int, m: int, k: int) -> float | None:
    """Exact expected number of valid transversals: k^n (1 - 1/k)^m.

    Once k^n alone exceeds the float range, the product is taken in log
    space, exp(n ln k + m ln(1 - 1/k)); None when it too exceeds the range.
    """
    if n < 1 or m < 0 or k < 1:
        raise DomainError(f"need n >= 1, m >= 0, k >= 1; got n={n}, m={m}, k={k}")
    try:
        return float(k) ** n * (1.0 - 1.0 / k) ** m
    except OverflowError:
        return _exp(n * math.log(k) + m * math.log1p(-1.0 / k))


@dataclass(frozen=True)
class LowerBoundReport:
    """Aggregate of one sampling experiment; JSON-serializable and seed-complete."""

    n: int
    m: int
    avg_degree: float
    k: int
    mode: str
    alon_bound: float | None
    first_moment_bound: float | None
    bound_below_one: bool
    expected_colorings_exact: float | None
    trials: int
    colorable_count: int
    noncolorable_count: int
    cap_exceeded_count: int
    mean_colorings_empirical: float | None
    std_error_mean: float | None
    witness_trial: int | None
    seed: int
    per_trial_counts: tuple = field(repr=False, default=())

    def to_json_dict(self) -> dict:
        doc = asdict(self)
        del doc["per_trial_counts"]
        return doc


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
    if trials < 1:
        raise DomainError(f"need at least one trial, got {trials}")
    d = average_degree(g)
    counts: list[int | None] = []
    colorable = 0
    noncolorable = 0
    capped = 0
    witness: Cover | None = None
    witness_trial: int | None = None
    for i in range(trials):
        cover = random_cover(g, k, seed=derive_int_seed(seed, "lb-trial", i), mode=mode, q=q)
        try:
            c = count_colorings(g, cover, node_budget=node_budget)
        except SearchBudgetExceeded:
            counts.append(None)
            capped += 1
            continue
        counts.append(c)
        if c > 0:
            colorable += 1
        else:
            noncolorable += 1
            if witness is None:
                witness = cover
                witness_trial = i
    valid = [c for c in counts if c is not None]
    if valid:
        mean = sum(valid) / len(valid)
        if len(valid) > 1:
            var = sum((c - mean) ** 2 for c in valid) / (len(valid) - 1)
            sem = math.sqrt(var / len(valid))
        else:
            sem = None
    else:
        mean = None
        sem = None
    fm = first_moment_bound(g.n, g.m, k)
    report = LowerBoundReport(
        n=g.n,
        m=g.m,
        avg_degree=d,
        k=k,
        mode=mode,
        alon_bound=alon_bound(d) if d >= MIN_AVERAGE_DEGREE else None,
        first_moment_bound=fm.bound,
        bound_below_one=fm.below_one,
        expected_colorings_exact=expected_colorings(g.n, g.m, k),
        trials=trials,
        colorable_count=colorable,
        noncolorable_count=noncolorable,
        cap_exceeded_count=capped,
        mean_colorings_empirical=mean,
        std_error_mean=sem,
        witness_trial=witness_trial,
        seed=seed,
        per_trial_counts=tuple(counts),
    )
    return report, witness
