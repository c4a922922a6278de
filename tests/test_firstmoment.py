import json
import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from corrcolor import (
    DomainError,
    alon_bound,
    build_graph,
    expected_colorings,
    first_moment_bound,
    gen_complete_bipartite,
    gen_cycle,
    run_lb_experiment,
    solve_exact,
)


class TestAlonBound:
    def test_at_threshold(self):
        assert alon_bound(2 * math.e) == pytest.approx(math.e, rel=1e-12)

    def test_d8(self):
        assert alon_bound(8.0) == pytest.approx(4 / math.log(4), rel=1e-12)
        assert alon_bound(8.0) == pytest.approx(2.8853900817779268, rel=1e-12)

    def test_below_threshold_rejected(self):
        with pytest.raises(DomainError):
            alon_bound(2 * math.e - 0.01)

    def test_monotone_increasing(self):
        grid = [2 * math.e + 0.5 * i for i in range(40)]
        values = [alon_bound(d) for d in grid]
        assert all(b > a for a, b in zip(values, values[1:]))


class TestFirstMomentBound:
    def test_k88(self):
        fm = first_moment_bound(16, 64, 2)
        assert fm.bound == pytest.approx(2**16 * math.exp(-32), rel=1e-12)
        assert fm.bound < 1e-9
        assert fm.below_one  # 2 ln 2 < 4

    def test_edgeless(self):
        fm = first_moment_bound(5, 0, 3)
        assert fm.bound == pytest.approx(3**5, rel=1e-12)
        assert not fm.below_one

    def test_c4(self):
        fm = first_moment_bound(4, 4, 2)
        assert fm.bound == pytest.approx(16 * math.exp(-2), rel=1e-12)
        assert not fm.below_one  # 2 ln 2 > 1

    def test_predicate_matches_bound(self):
        for n, m, k in [(4, 4, 2), (16, 64, 2), (10, 200, 3), (6, 5, 4)]:
            fm = first_moment_bound(n, m, k)
            assert fm.below_one == (fm.bound < 1.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            first_moment_bound(0, 1, 2)


class TestExpectedColorings:
    def test_c4_exactly_one(self):
        assert expected_colorings(4, 4, 2) == 1.0

    def test_single_edge_exactly_two(self):
        assert expected_colorings(2, 1, 2) == 2.0

    def test_k1_with_edges(self):
        assert expected_colorings(5, 3, 1) == 0.0

    def test_edgeless(self):
        assert expected_colorings(3, 0, 4) == 64.0


class TestBeyondTheFloatRange:
    @pytest.mark.parametrize(
        "n, m, k", [(4, 4, 2), (16, 64, 2), (173, 0, 60), (170, 200, 60), (300, 1, 10)]
    )
    def test_values_in_range_keep_the_float_expression(self, n, m, k):
        assert first_moment_bound(n, m, k).bound == math.exp(n * math.log(k) - m / k)
        assert expected_colorings(n, m, k) == float(k) ** n * (1.0 - 1.0 / k) ** m

    def test_product_in_range_after_an_overflowing_power(self):
        # 60^174 alone exceeds the float range; times (59/60)^200 it does not.
        with pytest.raises(OverflowError):
            60.0**174
        exact = Fraction(60) ** 174 * Fraction(59, 60) ** 200
        assert expected_colorings(174, 200, 60) == pytest.approx(float(exact), rel=1e-12)

    @pytest.mark.parametrize("n, m, k", [(400, 400, 60), (2000, 30000, 60)])
    def test_values_beyond_the_range_are_none(self, n, m, k):
        assert n * math.log(k) - m / k > math.log(sys.float_info.max)
        assert Fraction(k) ** n * Fraction(k - 1, k) ** m > sys.float_info.max
        fm = first_moment_bound(n, m, k)
        assert fm.bound is None
        assert fm.below_one == (k * math.log(k) < m / n)
        assert expected_colorings(n, m, k) is None

    def test_large_experiment_reports(self):
        g = gen_cycle(2000)
        report, _ = run_lb_experiment(g, 60, trials=1, seed=1, node_budget=10)
        doc = report.to_json_dict()
        assert doc["first_moment_bound"] is None
        assert doc["expected_colorings_exact"] is None
        assert doc["cap_exceeded_count"] == 1


class TestExperiment:
    def test_c4_mean_near_one(self):
        g = gen_cycle(4)
        report, witness = run_lb_experiment(g, 2, trials=600, seed=11)
        assert report.trials == 600
        assert report.colorable_count + report.noncolorable_count == 600
        assert report.expected_colorings_exact == 1.0
        band = 4 * report.std_error_mean
        assert abs(report.mean_colorings_empirical - 1.0) <= band
        assert report.alon_bound is None  # d = 2 < 2e
        assert witness is not None

    def test_witness_replays_as_noncolorable(self):
        g = gen_complete_bipartite(8, 8)
        report, witness = run_lb_experiment(g, 2, trials=5, seed=3)
        assert report.colorable_count == 0
        assert witness is not None
        assert report.witness_trial == 0
        assert solve_exact(g, witness) is None

    def test_deterministic(self):
        g = gen_cycle(4)
        r1, _ = run_lb_experiment(g, 2, trials=50, seed=9)
        r2, _ = run_lb_experiment(g, 2, trials=50, seed=9)
        assert r1 == r2
        assert r1.to_json_dict() == r2.to_json_dict()

    def test_cap_recorded_not_fatal(self):
        g = gen_cycle(4)
        report, _ = run_lb_experiment(g, 2, trials=10, seed=1, node_budget=2)
        assert report.cap_exceeded_count == 10
        assert report.mean_colorings_empirical is None

    def test_single_edge_variance_zero(self):
        g = build_graph(2, [(0, 1)])
        report, _ = run_lb_experiment(g, 2, trials=200, seed=4)
        assert report.mean_colorings_empirical == 2.0
        assert report.std_error_mean == 0.0
        assert set(report.per_trial_counts) == {2}

    def test_needs_a_trial(self):
        with pytest.raises(DomainError):
            run_lb_experiment(gen_cycle(4), 2, trials=0, seed=0)

    def test_k88_k3_regime_recorded(self):
        # 3 ln 3 < 4, so the bound is still below one; the colorable fraction
        # is recorded without any claimed value
        g = gen_complete_bipartite(8, 8)
        fm = first_moment_bound(16, 64, 3)
        assert fm.below_one
        assert 3 * math.log(3) == pytest.approx(3.2958, abs=1e-4)
        report, _ = run_lb_experiment(g, 3, trials=10, seed=5)
        assert report.bound_below_one
        assert 0 <= report.colorable_count <= 10

    def test_trials_recomputable_in_isolation(self):
        # each trial is a pure function of its derived seed, so any
        # execution order aggregates identically; recompute a few trials
        # out of order and match the recorded counts
        from corrcolor import count_colorings, random_cover
        from corrcolor.rng import derive_int_seed

        g = gen_cycle(4)
        report, _ = run_lb_experiment(g, 2, trials=40, seed=13)
        assert report.first_moment_bound == pytest.approx(
            16 * math.exp(-2), rel=1e-15
        )
        for i in (39, 7, 0, 22):
            cover = random_cover(g, 2, seed=derive_int_seed(13, "lb-trial", i))
            assert count_colorings(g, cover) == report.per_trial_counts[i]

    def test_report_replays_every_trial(self):
        # the report's own fields rebuild the bernoulli witness and re-count
        # every trial within the recorded budget, capped trials included
        from corrcolor import SearchBudgetExceeded, count_colorings, random_cover
        from corrcolor.rng import derive_int_seed

        g = gen_complete_bipartite(3, 3)
        report, witness = run_lb_experiment(
            g, 2, trials=20, seed=5, mode="bernoulli", q=0.8, node_budget=10
        )
        doc = report.to_json_dict()

        def trial_cover(i):
            seed = derive_int_seed(doc["seed"], "lb-trial", i)
            return random_cover(g, doc["k"], seed, doc["mode"], doc["q"])

        assert trial_cover(doc["witness_trial"]) == witness
        counts = []
        for i in range(doc["trials"]):
            try:
                counts.append(
                    count_colorings(g, trial_cover(i), node_budget=doc["node_budget"])
                )
            except SearchBudgetExceeded:
                counts.append(None)
        assert counts == list(doc["per_trial_counts"])
        # capped, refuted and colorable trials
        assert {None, 0} < set(counts)

    @pytest.mark.parametrize("name", ["k", "trials", "seed", "node_budget", "q"])
    def test_numpy_argument_gives_plain_report(self, name):
        # a numpy scalar passes the checks; the report holds the Python number
        args = {"k": 2, "trials": 3, "seed": 3, "node_budget": 1000, "q": 0.5}
        plain, _ = run_lb_experiment(gen_cycle(4), **args)
        args[name] = np.float32(args[name]) if name == "q" else np.int64(args[name])
        report, _ = run_lb_experiment(gen_cycle(4), **args)
        assert json.dumps(report.to_json_dict()) == json.dumps(plain.to_json_dict())

    def test_colorable_fraction_below_bound_plus_three_sigma(self):
        # first-moment bound dominates the empirical colorability estimate
        for g, k, trials in (
            (gen_cycle(4), 2, 400),
            (build_graph(2, [(0, 1)]), 2, 200),
            (gen_complete_bipartite(8, 8), 2, 40),
        ):
            report, _ = run_lb_experiment(g, k, trials=trials, seed=21)
            frac = report.colorable_count / trials
            se = math.sqrt(max(frac * (1 - frac), 1e-12) / trials)
            assert frac <= min(1.0, report.first_moment_bound) + 3 * se
