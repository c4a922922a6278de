import numpy as np
import pytest

from corrcolor import _kernels as kernels
from corrcolor import gen_complete_bipartite, random_cover
from corrcolor.rng import derive_rng


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


class TestReductCoreAgreement:
    def _instance(self, seed):
        g = gen_complete_bipartite(4, 5)
        cover = random_cover(g, 6, seed=seed)
        arrs = cover.arrays
        rng = derive_rng(seed, "core")
        p = rng.uniform(0.0, 0.3, arrs.n_colors)
        p[rng.random(arrs.n_colors) < 0.1] = 0.0
        p[rng.random(arrs.n_colors) < 0.1] = 0.3
        u1 = rng.random(arrs.n_colors)
        u2 = rng.random(arrs.n_colors)
        return arrs, p, u1, u2

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_loop_oracle(self, seed):
        arrs, p, u1, u2 = self._instance(seed)
        got = kernels.reduct_core(p, 0.3, 0.5, arrs.nbr_ptr, arrs.nbr_idx, u1, u2)
        want = reduct_core_oracle(p, 0.3, 0.5, arrs.nbr_ptr, arrs.nbr_idx, u1, u2)
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

