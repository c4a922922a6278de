"""Output checks owned by the benchmark, independent of corrcolor's own checks."""

from __future__ import annotations

import math

import numpy as np


class CheckFailed(Exception):
    """A result that the library reported as fine fails the benchmark's check."""


class ColoringVerifier:
    """Checks colorings against a cover's lists and matchings, read directly.

    `lists[v]` holds the colors of vertex v. `matchings` maps an edge, either
    as a (u, v) tuple or as a "u,v" string, to pairs (x, y) with x in u's list
    and y in v's list.
    """

    def __init__(self, lists, matchings):
        self.lists = [np.asarray(lst, dtype=np.int64) for lst in lists]
        pair_u, pair_v, pair_x, pair_y = [], [], [], []
        for key, pairs in matchings.items():
            u, v = map(int, key.split(",")) if isinstance(key, str) else key
            pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
            pair_u.append(np.full(len(pairs), u, dtype=np.int64))
            pair_v.append(np.full(len(pairs), v, dtype=np.int64))
            pair_x.append(pairs[:, 0])
            pair_y.append(pairs[:, 1])
        empty = np.empty(0, dtype=np.int64)
        self.pair_u = np.concatenate(pair_u) if pair_u else empty
        self.pair_v = np.concatenate(pair_v) if pair_v else empty
        self.pair_x = np.concatenate(pair_x) if pair_x else empty
        self.pair_y = np.concatenate(pair_y) if pair_y else empty

    def check(self, coloring: dict) -> None:
        """Raise CheckFailed unless every vertex has one own color and no matched pair is chosen."""
        n = len(self.lists)
        if sorted(int(v) for v in coloring) != list(range(n)):
            raise CheckFailed("the coloring does not cover each vertex exactly once")
        chosen = np.empty(n, dtype=np.int64)
        for v, x in coloring.items():
            chosen[int(v)] = int(x)
        for v, lst in enumerate(self.lists):
            if not np.any(lst == chosen[v]):
                raise CheckFailed(f"vertex {v} got color {chosen[v]}, not in its list")
        clash = (chosen[self.pair_u] == self.pair_x) & (chosen[self.pair_v] == self.pair_y)
        if clash.any():
            j = int(np.flatnonzero(clash)[0])
            raise CheckFailed(
                f"matched pair ({self.pair_x[j]},{self.pair_y[j]}) chosen on edge"
                f" ({self.pair_u[j]},{self.pair_v[j]})"
            )


def check_lb_report(doc: dict, n: int, m: int, k: int, trials: int) -> None:
    """Check a lower-bound report against values recomputed here.

    For the lb workload E[colorings] = k^n (1-1/k)^m is about 2e-11, so by
    Markov's inequality a trial is colorable with probability below 1e-10.
    The result recorded for every seed is therefore: every trial counts 0
    colorings and the witness is trial 0.
    """
    if (doc["n"], doc["m"], doc["k"], doc["trials"]) != (n, m, k, trials):
        raise CheckFailed("report parameters differ from the request")
    bound = math.exp(n * math.log(k) - m / k)
    if not math.isclose(doc["first_moment_bound"], bound, rel_tol=1e-12):
        raise CheckFailed(
            f"first_moment_bound {doc['first_moment_bound']!r} != exp(n ln k - m/k)"
            f" = {bound!r}"
        )
    expected = float(k) ** n * (1.0 - 1.0 / k) ** m
    if not math.isclose(doc["expected_colorings_exact"], expected, rel_tol=1e-12):
        raise CheckFailed("expected_colorings_exact differs from k^n (1-1/k)^m")
    if doc["witness_trial"] != 0:
        raise CheckFailed(f"witness_trial is {doc['witness_trial']}, expected 0")
