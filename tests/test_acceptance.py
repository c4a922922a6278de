"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s`. Criterion 10 checks the
iteration-count schedule against an exhaustive scan: under the default
constants the closed-form inequality has no solution at degree bounds 10^4
and 10^5 (the left side's minimum over i exceeds the target by about 10%),
and there `compute_istar` must raise IstarInfeasibleError.
"""

from __future__ import annotations

import itertools
import json
import math
import time

import numpy as np
import pytest

from corrcolor import (
    alon_bound,
    build_graph,
    check_nice,
    count_colorings,
    cover_from_json_dict,
    cover_from_permutations,
    cover_to_json_dict,
    compute_istar,
    degree_expectation_bound,
    expected_colorings,
    expected_pprime,
    extend_coloring,
    first_moment_bound,
    gen_complete_bipartite,
    gen_cycle,
    gen_random_bipartite_regular,
    greedy_color,
    is_valid_coloring,
    lift_from_lists,
    max_degree,
    paper_params,
    random_cover,
    reduct_step,
    relaxed_params,
    run_lb_experiment,
    run_nibble,
    shifted_cycle_cover,
    solve_exact,
    validate_cover,
)
from corrcolor.cli import main
from corrcolor.errors import IstarInfeasibleError
from corrcolor.rng import derive_int_seed, derive_rng
from corrcolor.weights import (
    ReductState,
    Weighting,
    entropy_terms,
    live_edge_mass,
    moderate_restrict,
    vertex_mass_all,
)

from .conftest import (
    adjacency,
    random_triangle_free_graph,
    reference_moderate_edge_mass,
    reference_moderate_mass,
    solve_lists,
)


def _report(cid, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {cid:>2}: {status}{suffix}")
    assert ok, f"criterion {cid}: {detail}"


def _random_labels(rng, n, max_labels=3):
    return [
        [int(x) for x in rng.choice(max_labels, size=int(rng.integers(1, max_labels + 1)), replace=False)]
        for _ in range(n)
    ]


def test_criterion_1_lift_equivalence():
    t0 = time.monotonic()
    agree = 0
    for seed in range(100):
        rng = derive_rng(seed, "crit1")
        n = int(rng.integers(2, 9))
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.45
        ]
        g = build_graph(n, edges)
        lists = _random_labels(rng, n)
        via_lists = solve_lists(g, lists) is not None
        via_cover = solve_exact(g, lift_from_lists(g, lists)) is not None
        agree += via_lists == via_cover
    elapsed = time.monotonic() - t0
    _report(1, agree == 100 and elapsed < 5.0, f"{agree}/100 agree, {elapsed:.2f}s")


def test_criterion_2_even_cycle_separation():
    t0 = time.monotonic()
    ok = True
    details = []
    for m in (4, 6):
        g = gen_cycle(m)
        identity, swap = (0, 1), (1, 0)
        noncolorable = 0
        shift_combo_bad = False
        shift_perms = {e: identity for e in map(tuple, g.edges.tolist())}
        shift_perms[(0, m - 1)] = swap
        for combo in itertools.product((identity, swap), repeat=m):
            perms = dict(zip(map(tuple, g.edges.tolist()), combo))
            cover = cover_from_permutations(g, 2, perms)
            if count_colorings(g, cover) == 0:
                noncolorable += 1
                if perms == shift_perms:
                    shift_combo_bad = True
        ok &= noncolorable >= 1 and shift_combo_bad
        ok &= solve_exact(g, shifted_cycle_cover(m)) is None
        details.append(f"C{m}: {noncolorable}/{2**m} non-colorable")
        for seed in range(1000):
            cover = random_cover(g, 3, seed=derive_int_seed(seed, "crit2", m))
            coloring, stuck = greedy_color(g, cover, list(range(m)))
            ok &= stuck is None and is_valid_coloring(g, cover, coloring)
    elapsed = time.monotonic() - t0
    ok &= elapsed < 10.0
    _report(2, ok, "; ".join(details) + f", greedy 2000/2000, {elapsed:.2f}s")


def test_criterion_3_greedy_degree_plus_one():
    successes = 0
    for seed in range(200):
        rng = derive_rng(seed, "crit3")
        n = int(rng.integers(2, 51))
        p = float(rng.uniform(0.05, 0.5))
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
        ]
        g = build_graph(n, edges)
        k = max_degree(g) + 1
        cover = random_cover(g, k, seed=derive_int_seed(seed, "crit3-cover"))
        order = [int(v) for v in rng.permutation(n)]
        coloring, stuck = greedy_color(g, cover, order)
        successes += stuck is None and is_valid_coloring(g, cover, coloring)
    _report(3, successes == 200, f"{successes}/200")


def test_criterion_4_first_moment_identity():
    t0 = time.monotonic()
    results = []
    for g, k, want in (
        (gen_cycle(4), 2, 1.0),
        (build_graph(2, [(0, 1)]), 2, 2.0),
    ):
        assert expected_colorings(g.n, g.m, k) == want
        report, _ = run_lb_experiment(g, k, trials=10_000, seed=41)
        band = 3.0 * report.std_error_mean
        results.append(
            abs(report.mean_colorings_empirical - want) <= band
        )
    elapsed = time.monotonic() - t0
    _report(
        4,
        all(results) and elapsed < 60.0,
        f"means within 3 SE of 1.0 and 2.0, {elapsed:.2f}s",
    )


def test_criterion_5_noncolorability_witness(tmp_path):
    t0 = time.monotonic()
    g = gen_complete_bipartite(8, 8)
    bound = first_moment_bound(16, 64, 2)
    assert bound.bound < 1e-9 and bound.below_one
    report, witness = run_lb_experiment(g, 2, trials=100, seed=17)
    ok = report.noncolorable_count >= 99
    ok &= witness is not None
    path = tmp_path / "witness.json"
    path.write_text(json.dumps(cover_to_json_dict(witness)), encoding="utf-8")
    replayed = cover_from_json_dict(json.loads(path.read_text()))
    ok &= validate_cover(g, replayed) == []
    ok &= solve_exact(g, replayed) is None
    ok &= math.ceil(alon_bound(8.0)) == 3  # the certified bound chi_c >= 3
    elapsed = time.monotonic() - t0
    ok &= elapsed < 60.0
    _report(
        5,
        bool(ok),
        f"{report.noncolorable_count}/100 non-colorable, witness replays, {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# shared Monte Carlo harness for criteria 6b, 8, 9: 10^4 randomized steps on
# a fixed triangle-free toy


@pytest.fixture(scope="module")
def mc_harness():
    g = gen_complete_bipartite(3, 3)
    cover = random_cover(g, 4, seed=2024)
    state = ReductState.initial(
        g, cover, Weighting.uniform(cover, 0.25, 0.4), max_deg=8, k=4
    )
    n_steps = 10_000
    p_v = np.empty((n_steps, g.n))
    q_v = np.empty((n_steps, g.n))
    d_v = np.empty((n_steps, g.n))
    p_uv = np.empty((n_steps, g.m))
    t0 = time.monotonic()
    for i in range(n_steps):
        new, stats = reduct_step(state, seed=derive_int_seed(2024, "mc", i))
        # masses over p', removed vertices included; degrees among survivors
        p_v[i] = vertex_mass_all(cover, stats.p_prime)
        q_v[i] = vertex_mass_all(cover, entropy_terms(stats.p_prime))
        d_v[i] = new.stats[2]
        p_uv[i] = live_edge_mass(cover, stats.p_prime, state.alive)
    elapsed = time.monotonic() - t0
    return g, cover, state, p_v, q_v, d_v, p_uv, elapsed


def test_criterion_6_expectation_identities(mc_harness):
    t0 = time.monotonic()
    # (a) closed form equals the current weight on 50 random states
    worst = 0.0
    for seed in range(50):
        g = random_triangle_free_graph(seed, 4 + seed % 5, 0.4)
        k = 2 + seed % 3
        cover = random_cover(g, k, seed=derive_int_seed(seed, "crit6-cover"))
        rng = derive_rng(seed, "crit6-w")
        p_hat = 0.35
        p = rng.uniform(0.0, p_hat, cover.n_colors)
        p[rng.random(cover.n_colors) < 0.15] = 0.0
        p[rng.random(cover.n_colors) < 0.15] = p_hat
        st = ReductState.initial(g, cover, Weighting(p=p, p_hat=p_hat), max_deg=9, k=k)
        for x in range(cover.n_colors):
            got = expected_pprime(st, x, alpha=0.45)
            if p[x] == 0.0:
                assert got == 0.0
            else:
                worst = max(worst, abs(got - p[x]) / p[x])
    closed_ok = worst <= 1e-12

    # (b) Monte Carlo means against the exact expectations
    g, cover, st, p_v, q_v, d_v, p_uv, harness_time = mc_harness
    from corrcolor.weights import edge_mass_all, vertex_mass_all

    want_v = vertex_mass_all(cover, st.weighting.p)
    want_uv = edge_mass_all(cover, st.weighting.p)
    n = p_v.shape[0]
    se_v = p_v.std(axis=0, ddof=1) / math.sqrt(n)
    se_uv = p_uv.std(axis=0, ddof=1) / math.sqrt(n)
    mc_v_ok = bool(np.all(np.abs(p_v.mean(axis=0) - want_v) <= 4.0 * se_v))
    mc_uv_ok = bool(np.all(np.abs(p_uv.mean(axis=0) - want_uv) <= 4.0 * se_uv))
    elapsed = time.monotonic() - t0 + harness_time
    _report(
        6,
        closed_ok and mc_v_ok and mc_uv_ok and elapsed < 120.0,
        f"closed-form worst rel err {worst:.2e}, MC vertex/edge within 4 SE,"
        f" {elapsed:.1f}s",
    )


def test_criterion_7_reduct_correctness():
    trials_ok = 0
    extended_checked = 0
    for seed in range(100):
        g = random_triangle_free_graph(seed, 4 + seed % 7, 0.35)
        k = 2 + seed % 3
        cover = random_cover(g, k, seed=derive_int_seed(seed, "crit7-cover"))
        p_hat = 2.0 / k
        st = ReductState.initial(
            g, cover, Weighting.uniform(cover, 1.0 / k, p_hat), max_deg=9, k=k
        )
        st2, stats = reduct_step(st, seed=derive_int_seed(seed, "crit7-step"), alpha=0.5)
        pp, p = stats.p_prime, st.weighting.p
        monotone_ok = bool(np.all((pp == 0.0) | (pp >= p)))
        inner = solve_exact(
            g,
            cover,
            restrict=moderate_restrict(st2),
            vertices=[int(v) for v in st2.alive_vertices()],
        )
        extension_ok = True
        if inner is not None:
            full = extend_coloring(inner, st2.history)
            extension_ok = is_valid_coloring(g, cover, full) and all(
                0.0 < p[x] < p_hat for x in full.values()
            )
            extended_checked += 1
        trials_ok += monotone_ok and extension_ok
    _report(
        7,
        trials_ok == 100,
        f"{trials_ok}/100 trials, {extended_checked} extensions exercised",
    )


def test_criterion_8_entropy_bound(mc_harness):
    g, cover, st, p_v, q_v, d_v, p_uv, harness_time = mc_harness
    from corrcolor.weights import edge_mass_all, entropy_terms, vertex_mass_all

    q0 = vertex_mass_all(cover, entropy_terms(st.weighting.p))
    big_p = float(edge_mass_all(cover, st.weighting.p).max())
    ln_d = math.log(st.max_deg)
    n = q_v.shape[0]
    se = q_v.std(axis=0, ddof=1) / math.sqrt(n)
    degs = np.array([g.degree(v) for v in range(g.n)], dtype=float)
    floor = q0 - (math.sqrt(2.0) * big_p / ln_d) * degs - 3.0 * se
    ok = bool(np.all(q_v.mean(axis=0) >= floor))
    margin = float(np.min(q_v.mean(axis=0) - floor))
    _report(8, ok and harness_time < 120.0, f"min margin {margin:.4f}, {harness_time:.1f}s")


def test_criterion_9_degree_bound(mc_harness):
    g, cover, st, p_v, q_v, d_v, p_uv, harness_time = mc_harness
    from corrcolor.weights import edge_mass_all, vertex_mass_all

    pm = vertex_mass_all(cover, st.weighting.p)  # uniform, nothing at 0 or cap
    p1, p2 = float(pm.min()), float(pm.max())
    big_p = float(edge_mass_all(cover, st.weighting.p).max())
    bounds = degree_expectation_bound(st, p1, p2, big_p)
    n = d_v.shape[0]
    se = d_v.std(axis=0, ddof=1) / math.sqrt(n)
    means = d_v.mean(axis=0)
    ok = all(means[v] <= bounds[v] + 3.0 * se[v] for v in range(g.n))
    worst = max(means[v] - bounds[v] for v in range(g.n))
    _report(9, ok and harness_time < 120.0, f"worst mean-bound gap {worst:.4f}")


def _istar_scan(dmax, params):
    """Least j with D(1-shrink)^j + j*dev <= target, by exhaustive scan.

    No j beyond target/dev can work, since j*dev alone then exceeds the
    target; returns None where no j does.
    """
    target = params.niceness_target(params.k_for(dmax))
    shrink = params.shrink(dmax)
    dev = params.dev_degree(dmax)
    for j in range(math.floor(target / dev) + 2):
        if dmax * (1.0 - shrink) ** j + j * dev <= target:
            return j
    return None


def test_criterion_10_istar_schedule():
    params = paper_params()
    rows = []
    infeasible = []
    failures = []
    for dmax in (10**3, 10**4, 10**5, 10**6):
        want = _istar_scan(dmax, params)
        if want is None:
            infeasible.append(dmax)
        try:
            got = compute_istar(dmax, params)
        except IstarInfeasibleError as exc:
            if want is not None:
                failures.append(f"max_deg={dmax}: raised ({exc}) but scan finds i*={want}")
            continue
        if want is None:
            failures.append(f"max_deg={dmax}: returned {got} but scan finds no solution")
        elif got != want:
            failures.append(f"max_deg={dmax}: returned {got}, least solution is {want}")
        rows.append((dmax, got))
    if 10**6 in infeasible:
        failures.append("max_deg=1000000: expected feasible")
    growth_ok = True
    for dmax, i in rows:
        ratio = i / (math.log(dmax) * math.log(math.log(dmax)))
        growth_ok &= ratio < 2.0
    detail = (
        f"i* at {rows}; "
        + ("growth bounded; " if growth_ok else "growth unbounded; ")
        + f"infeasible by exhaustive scan at {infeasible}"
        + ("" if not failures else "; " + " | ".join(failures))
    )
    _report(10, not failures and growth_ok, detail)


def test_criterion_11_end_to_end_nibble():
    t0 = time.monotonic()
    params = relaxed_params()
    successes = 0
    failures = 0
    problems = []
    for run in range(20):
        g = gen_random_bipartite_regular(100, 12, seed=derive_int_seed(run, "crit11-g"))
        cover = random_cover(g, 30, seed=derive_int_seed(run, "crit11-c"))
        result = run_nibble(g, cover, params, seed=derive_int_seed(run, "crit11-s"))
        doc = result.to_json_dict()
        if result.ok:
            successes += 1
            if not is_valid_coloring(g, cover, result.coloring):
                problems.append(f"run {run}: invalid coloring")
            if len(result.coloring) != g.n:
                problems.append(f"run {run}: incomplete coloring")
        else:
            failures += 1
            if not doc["trajectory"]:
                problems.append(f"run {run}: failure without trajectory")
            if doc["detail"] is None or doc["seed"] is None:
                problems.append(f"run {run}: failure report incomplete")

        # drive a fresh copy manually to exercise the niceness certificate
        state = ReductState.initial(
            g,
            cover,
            Weighting.uniform(cover, 1.0 / 30, params.p_hat_for(12)),
            max_deg=12,
            k=30,
        )
        nbrs = adjacency(g)
        lists, matchings = cover.lists, cover.matchings
        for step in range(params.max_steps):
            nice = check_nice(state)
            if nice.ok:
                delta = nice.delta
                p, p_hat = state.weighting.p.tolist(), state.weighting.p_hat
                for v in state.alive_vertices():
                    v = int(v)
                    incident = sum(
                        reference_moderate_edge_mass(matchings, p, p_hat, v, u)
                        for u in nbrs[v]
                        if state.alive[u]
                    )
                    lhs = 2.0 * reference_moderate_mass(lists, p, p_hat, v) / delta
                    rhs = 1.0 + (4.0 / delta**2) * incident
                    if lhs < rhs - 1e-12:
                        problems.append(f"run {run}: certificate inequality fails at {v}")
                break
            state, _ = reduct_step(
                state, seed=derive_int_seed(run, "crit11-manual", step)
            )
            if state.n_alive == 0:
                break
    elapsed = time.monotonic() - t0
    ok = not problems and successes >= 1 and elapsed < 600.0
    _report(
        11,
        ok,
        f"{successes} successes, {failures} failures, all reports complete,"
        f" {elapsed:.1f}s" + ("" if not problems else "; " + problems[0]),
    )


def test_criterion_12_determinism(tmp_path):
    outputs = []
    gpath = str(tmp_path / "g.json")
    assert main(["gen-graph", "cycle", "--n", "4", "--out", gpath]) == 0
    for name in ("r1.json", "r2.json"):
        out = str(tmp_path / name)
        code = main(
            [
                "lb-experiment", "--graph", gpath, "--k", "2",
                "--trials", "200", "--seed", "99", "--out", out,
            ]
        )
        assert code == 0
        outputs.append((tmp_path / name).read_bytes())
    lb_ok = outputs[0] == outputs[1]

    g = gen_random_bipartite_regular(30, 6, seed=1)
    cover = random_cover(g, 18, seed=2)
    r1 = run_nibble(g, cover, relaxed_params(), seed=5)
    r2 = run_nibble(g, cover, relaxed_params(), seed=5)
    nib_ok = json.dumps(r1.to_json_dict(), sort_keys=True) == json.dumps(
        r2.to_json_dict(), sort_keys=True
    )
    rep1, _ = run_lb_experiment(gen_cycle(4), 2, trials=100, seed=7)
    rep2, _ = run_lb_experiment(gen_cycle(4), 2, trials=100, seed=7)
    api_ok = rep1.to_json_dict() == rep2.to_json_dict()
    _report(12, lb_ok and nib_ok and api_ok, "CLI bytes and API reports identical")
