import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrcolor import _kernels as kernels
from corrcolor import (
    gen_complete_bipartite,
    gen_random_bipartite_regular,
    nibble,
    random_cover,
    run_nibble,
)
from corrcolor.nibble import relaxed_params
from corrcolor.rng import derive_rng
from corrcolor.weights import (
    edge_mass_all,
    entropy_terms,
    live_edge_mass,
    state_stats,
    vertex_mass_all,
)

from .test_reduct import sparse_ids


def seg_oracle(values, ptr, op, init):
    out = []
    for i in range(len(ptr) - 1):
        acc = init
        for j in range(ptr[i], ptr[i + 1]):
            acc = op(acc, values[j])
        out.append(acc)
    return out


def reduct_core_oracle(p, p_hat, alpha, nbr_ptr, nbr_idx, u_sample, u_promote):
    """reduct_core as explicit loops over the CSR arrays, one color at a time."""
    nc = len(p)
    in_b = [p[x] == p_hat for x in range(nc)]
    in_s = [not in_b[x] and u_sample[x] < alpha * p[x] for x in range(nc)]
    p_prime, s_count, k_factor = [], [], []
    for x in range(nc):
        cnt = 0
        kx = 1.0
        for j in range(nbr_ptr[x], nbr_ptr[x + 1]):
            y = nbr_idx[j]
            if in_s[y]:
                cnt += 1
            if not in_b[y]:
                kx *= 1.0 - alpha * p[y]
        s_count.append(cnt)
        k_factor.append(kx)
        ratio = p[x] / kx
        if in_b[x]:
            p_prime.append(p_hat)
        elif cnt == 0:
            p_prime.append(min(ratio, p_hat))
        elif ratio <= p_hat:
            p_prime.append(0.0)
        else:
            assert kx < 1.0
            q = (p[x] / p_hat - kx) / (1.0 - kx)
            p_prime.append(p_hat if u_promote[x] < q else 0.0)
    return (
        np.array(p_prime),
        np.array(in_s, dtype=bool),
        np.array(s_count, dtype=np.int64),
        np.array(k_factor),
    )


def segment_sum_reference(values, ptr):
    """segment_sum by the whole-array formula it had before it took chosen
    segments: one reduceat over every segment of a copy padded with a 0.0
    sentinel, which joins the last segment, and empty segments masked to 0.
    """
    reduced = np.add.reduceat(np.append(values, 0.0), ptr[:-1])
    return np.where(ptr[:-1] < ptr[1:], reduced, 0.0)


def reduct_core_reference(p, p_hat, alpha, nbr_ptr, nbr_idx, u_sample, u_promote):
    """reduct_core by the whole-adjacency numpy formula it replaced.

    Every output is read off all adjacency entries: each color sums the
    sampled bits of its own neighbours and multiplies their factors, over
    copies padded with a sentinel so that every reduceat index is valid.
    """
    in_b = p == p_hat
    in_s = (~in_b) & (u_sample < alpha * p)
    starts = nbr_ptr[:-1]
    nonempty = starts < nbr_ptr[1:]
    hits = np.add.reduceat(np.append(in_s[nbr_idx].astype(np.float64), 0.0), starts)
    s_count = np.where(nonempty, hits, 0.0).astype(np.int64)
    factors = np.where(in_b[nbr_idx], 1.0, 1.0 - alpha * p[nbr_idx])
    k_factor = np.where(
        nonempty, np.multiply.reduceat(np.append(factors, 1.0), starts), 1.0
    )
    ratio = p / k_factor
    case4 = (~in_b) & (s_count > 0) & (ratio > p_hat)
    q = np.where(case4, (p / p_hat - k_factor) / np.where(case4, 1.0 - k_factor, 1.0), 0.0)
    p_prime = np.where(
        in_b,
        p_hat,
        np.where(
            s_count == 0,
            np.minimum(ratio, p_hat),
            np.where(ratio <= p_hat, 0.0, np.where(u_promote < q, p_hat, 0.0)),
        ),
    )
    return p_prime, in_s, s_count, k_factor


def assert_core_exact(*args):
    got = kernels.reduct_core(*args)
    want = reduct_core_reference(*args)
    for a, b in zip(got, want, strict=True):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    return got


class TestSegmentOps:
    def test_segment_sum_with_empty_segments(self):
        values = np.array([1.0, 2.0, 3.0, 4.0])
        # empty segments at the start, middle, and end
        ptr = np.array([0, 0, 2, 2, 4, 4], dtype=np.int64)
        got = kernels.segment_sum(values, ptr)
        assert list(got) == [0.0, 3.0, 0.0, 7.0, 0.0]

    def test_segment_prod_with_empty_segments(self):
        values = np.array([2.0, 3.0, 5.0])
        ptr = np.array([0, 0, 1, 3, 3], dtype=np.int64)
        got = kernels.segment_prod(values, ptr)
        assert list(got) == [1.0, 2.0, 15.0, 1.0]

    def test_no_values_at_all(self):
        values = np.empty(0, dtype=np.float64)
        ptr = np.zeros(4, dtype=np.int64)
        assert list(kernels.segment_sum(values, ptr)) == [0.0, 0.0, 0.0]
        assert list(kernels.segment_prod(values, ptr)) == [1.0, 1.0, 1.0]

    def test_matches_oracle_on_random_layout(self):
        rng = derive_rng(1, "segments")
        sizes = rng.integers(0, 6, size=40)
        ptr = np.zeros(41, dtype=np.int64)
        np.cumsum(sizes, out=ptr[1:])
        values = rng.uniform(0.5, 1.5, int(ptr[-1]))
        want_sum = seg_oracle(values, ptr, lambda a, b: a + b, 0.0)
        want_prod = seg_oracle(values, ptr, lambda a, b: a * b, 1.0)
        assert np.allclose(kernels.segment_sum(values, ptr), want_sum, rtol=1e-12)
        assert np.allclose(kernels.segment_prod(values, ptr), want_prod, rtol=1e-12)

    def test_mask_counts(self):
        ptr = np.array([0, 2, 2, 5], dtype=np.int64)
        idx = np.array([0, 1, 2, 0, 1], dtype=np.int64)
        mask = np.array([True, False, True])
        assert list(kernels.mask_counts(ptr, idx, mask)) == [1, 0, 2]


# Segment sizes: empty, 8 (where the sentinel changes the rounding) and 1-20.
SEGMENT_SIZES = st.lists(
    st.one_of(st.just(0), st.just(8), st.integers(1, 20)), min_size=1, max_size=24
)


@given(
    sizes=SEGMENT_SIZES,
    picks=st.lists(st.booleans(), min_size=24, max_size=24),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=300, derandomize=True, deadline=None)
def test_chosen_segments_sum_to_the_same_bits(sizes, picks, seed):
    ptr = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=ptr[1:])
    values = derive_rng(seed, "segment-sum").uniform(0.0, 1.0, int(ptr[-1]))
    full = kernels.segment_sum(values, ptr)
    assert full.tobytes() == segment_sum_reference(values, ptr).tobytes()
    # an ascending subset, the last segment in it or not
    chosen = np.flatnonzero(picks[: len(sizes)])
    entries = [j for s in chosen.tolist() for j in range(ptr[s], ptr[s + 1])]
    got = kernels.segment_sum(values[entries], ptr, chosen)
    want = np.zeros_like(full)
    want[chosen] = full[chosen]
    assert got.tobytes() == want.tobytes()


class TestReductCoreAgreement:
    def _instance(self, seed):
        g = gen_complete_bipartite(4, 5)
        cover = random_cover(g, 6, seed=seed)
        rng = derive_rng(seed, "core")
        p = rng.uniform(0.0, 0.3, cover.n_colors)
        p[rng.random(cover.n_colors) < 0.1] = 0.0
        p[rng.random(cover.n_colors) < 0.1] = 0.3
        u1 = rng.random(cover.n_colors)
        u2 = rng.random(cover.n_colors)
        return cover.arrays, p, u1, u2

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_loop_oracle(self, seed):
        (nbr_ptr, nbr_idx), p, u1, u2 = self._instance(seed)
        got = kernels.reduct_core(p, 0.3, 0.5, nbr_ptr, nbr_idx, u1, u2)
        want = reduct_core_oracle(p, 0.3, 0.5, nbr_ptr, nbr_idx, u1, u2)
        for a, b in zip(got, want):
            if a.dtype == bool or np.issubdtype(a.dtype, np.integer):
                assert np.array_equal(a, b)
            else:
                assert np.allclose(a, b, rtol=1e-12, atol=1e-15)

    def test_case_split_semantics(self):
        # single isolated color: no neighbors, so K = 1 and an unhit color
        # keeps its weight exactly; a capped color never moves
        ptr = np.zeros(3, dtype=np.int64)
        idx = np.empty(0, dtype=np.int64)
        p = np.array([0.2, 0.5])
        pp, in_s, cnt, kf = kernels.reduct_core(
            p, 0.5, 0.4, ptr, idx, np.array([0.9, 0.9]), np.array([0.5, 0.5])
        )
        assert pp[0] == 0.2 and pp[1] == 0.5
        assert not in_s[0] and not in_s[1]
        assert list(kf) == [1.0, 1.0]

    def test_hit_color_drops_to_zero(self):
        # two matched colors; force one into S, the other is hit and its
        # rescaled value stays under the cap, so it must drop to zero
        ptr = np.array([0, 1, 2], dtype=np.int64)
        idx = np.array([1, 0], dtype=np.int64)
        p = np.array([0.1, 0.1])
        pp, in_s, cnt, kf = kernels.reduct_core(
            p,
            0.9,
            0.5,
            ptr,
            idx,
            np.array([0.0, 0.9]),  # color 0 sampled, color 1 not
            np.array([0.5, 0.5]),
        )
        assert in_s[0] and not in_s[1]
        assert cnt[1] == 1 and cnt[0] == 0
        assert pp[1] == 0.0
        # color 0 is unhit: rescaled by 1/(1 - alpha p) = 1/0.95
        assert pp[0] == pytest.approx(0.1 / 0.95, rel=1e-15)



class TestReductCoreExact:
    """reduct_core equals the whole-adjacency formula bit for bit."""

    P_HAT, ALPHA = 0.3, 0.5

    def _weights(self, n_colors, seed):
        rng = derive_rng(seed, "core-exact")
        p = rng.uniform(0.0, self.P_HAT, n_colors)
        p[rng.random(n_colors) < 0.1] = 0.0
        p[rng.random(n_colors) < 0.1] = self.P_HAT
        return p, rng.random(n_colors), rng.random(n_colors)

    def _cover(self, kind, seed):
        g = gen_random_bipartite_regular(15, 4, seed=seed)
        if kind == "perfect":
            return random_cover(g, 6, seed=seed)
        if kind == "bernoulli":
            return random_cover(g, 6, seed=seed, mode="bernoulli", q=0.3)
        if kind == "empty":
            return random_cover(g, 6, seed=seed, mode="bernoulli", q=0.0)
        return sparse_ids(random_cover(g, 6, seed=seed))

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("kind", ["perfect", "bernoulli", "empty", "sparse"])
    def test_covers(self, kind, seed):
        cover = self._cover(kind, seed)
        nbr_ptr, nbr_idx = cover.arrays
        p, u1, u2 = self._weights(cover.n_colors, seed)
        assert (p == 0.0).any() and (p == self.P_HAT).any()
        p_prime, in_s, s_count, k_factor = assert_core_exact(
            p, self.P_HAT, self.ALPHA, nbr_ptr, nbr_idx, u1, u2
        )
        if kind == "sparse":
            # ids 0 and 1, and two of every three ids, are in no list
            assert cover.n_colors > cover.vlist_colors.size
        elif kind == "empty":
            assert nbr_idx.size == 0 and in_s.any()
        else:
            assert (s_count > 0).any()
        if kind == "perfect":
            self._assert_every_case(p, p_prime, s_count, k_factor)

    def _assert_every_case(self, p, p_prime, s_count, k_factor):
        capped = p == self.P_HAT
        hit = ~capped & (s_count > 0)
        unhit = ~capped & (s_count == 0)
        candidate = hit & (p / k_factor > self.P_HAT)
        assert (p_prime[capped] == self.P_HAT).all()
        assert (unhit & (p_prime > p)).any()  # rescaled by 1 / K
        assert (hit & ~candidate & (p_prime == 0.0)).any()
        assert (candidate & (p_prime == self.P_HAT)).any()  # promoted
        assert (candidate & (p_prime == 0.0)).any()  # left at 0

    @pytest.mark.parametrize("kind", ["perfect", "sparse"])
    def test_isolated_colors_at_the_end(self, kind):
        cover = self._cover(kind, 5)
        nbr_ptr, nbr_idx = cover.arrays
        extra = 7
        nbr_ptr = np.append(nbr_ptr, np.full(extra, nbr_ptr[-1]))
        p, u1, u2 = self._weights(cover.n_colors + extra, 5)
        _, _, s_count, k_factor = assert_core_exact(
            p, self.P_HAT, self.ALPHA, nbr_ptr, nbr_idx, u1, u2
        )
        assert (s_count[-extra:] == 0).all() and (k_factor[-extra:] == 1.0).all()

    def test_no_sampled_color(self):
        cover = self._cover("perfect", 6)
        nbr_ptr, nbr_idx = cover.arrays
        p, _, u2 = self._weights(cover.n_colors, 6)
        never = np.ones(cover.n_colors)
        p_prime, in_s, s_count, _ = assert_core_exact(
            p, self.P_HAT, self.ALPHA, nbr_ptr, nbr_idx, never, u2
        )
        assert not in_s.any() and not s_count.any() and (p_prime >= p).all()

    def test_every_step_of_a_run(self, monkeypatch):
        calls = []
        core = kernels.reduct_core

        def checked(*args):
            calls.append(1)
            got = core(*args)
            want = reduct_core_reference(*args)
            assert all(map(np.array_equal, got, want))
            return got

        monkeypatch.setattr(kernels, "reduct_core", checked)
        g = gen_random_bipartite_regular(100, 12, seed=1)
        cover = random_cover(g, 30, seed=1)
        result = run_nibble(g, cover, relaxed_params(), seed=1)
        assert result.steps > 0 and len(calls) >= result.steps


class TestLiveEdgeMass:
    def test_equals_edge_mass_all_at_live_edges(self):
        g = gen_random_bipartite_regular(6, 3, seed=3)
        cover = random_cover(g, 8, seed=1)
        values = derive_rng(1, "live-edges").uniform(0.0, 0.2, cover.n_colors)
        full = edge_mass_all(cover, values)
        # At 8 pairs the trailing 0.0 of segment_sum regroups the last edge's
        # additions, so a sum without it would differ there.
        ptr = cover.edge_ptr
        products = values[cover.pair_x] * values[cover.pair_y]
        assert np.add.reduceat(products, ptr[:-1])[-1] != full[-1]
        last = {int(cover.edge_u[-1]), int(cover.edge_v[-1])}
        alive = np.ones(g.n, dtype=bool)
        alive[[v for v in range(g.n) if v not in last][:3]] = False
        live = alive[cover.edge_u] & alive[cover.edge_v]
        assert live[-1] and not live.all()
        got = live_edge_mass(cover, values, alive)
        assert np.array_equal(got, np.where(live, full, 0.0))
        assert np.array_equal(live_edge_mass(cover, values, np.ones(g.n, bool)), full)


class TestStateStats:
    def test_vertex_masses_are_summed_at_survivors_only(self, monkeypatch):
        made = []
        step = nibble.reduct_step

        def stepped(*args):
            made.append(step(*args))
            return made[-1]

        monkeypatch.setattr(nibble, "reduct_step", stepped)
        g = gen_random_bipartite_regular(100, 12, seed=1)
        cover = random_cover(g, 30, seed=1)
        run_nibble(g, cover, relaxed_params(), seed=1)
        # a mid-run state: some vertices removed, some alive
        state = next(s for s, _ in made if 0 < s.n_alive < g.n / 2)
        alive, p = state.alive, state.weighting.p
        p_v, q_v, _, _ = state.stats
        want_p = np.where(alive, vertex_mass_all(cover, p), 0.0)
        want_q = np.where(alive, vertex_mass_all(cover, entropy_terms(p)), 0.0)
        assert p_v.tobytes() == want_p.tobytes()
        assert q_v.tobytes() == want_q.tobytes()
        # the step zeroed the removed vertices' colors, so nothing changed there
        assert not vertex_mass_all(cover, p)[~alive].any()
        # A hand-built state whose removed vertices keep weight reads 0 there.
        weight = np.full(cover.n_colors, 0.01)
        p_v, q_v, _, _ = state_stats(g, cover, weight, alive)
        assert (vertex_mass_all(cover, weight)[~alive] > 0.0).all()
        assert not p_v[~alive].any() and not q_v[~alive].any()
