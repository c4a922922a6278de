"""Numeric kernels for the randomized weight-update step and its statistics.

Vectorized numpy segmented reductions over CSR layouts, no compilation;
`segment_sum` is the package's one segmented sum. All randomness comes in
as pre-drawn uniforms, so the kernels are pure functions of their inputs;
tests/test_kernels.py checks them against plain-Python loop oracles and
`reduct_core` against the whole-adjacency formula it replaced, bit for bit.

One step reads the color adjacency about once: `reduct_core` gathers one
survival factor per adjacency entry and reads the neighbour ranges of the
sampled colors only, a small share of the entries.
"""

from __future__ import annotations

import numpy as np

from ._arrays import _ptr, _segment_entries
from .errors import InternalConsistencyError


def segment_sum(values: np.ndarray, ptr: np.ndarray, segments=None) -> np.ndarray:
    """Per-segment sums under CSR pointer `ptr`, 0.0 outside `segments`.

    `values` holds the entries of the ascending segment ids `segments` (all
    when None), in order; an empty segment also reads 0.0. `np.add.reduceat`
    adds a segment's first value to numpy's pairwise sum of the rest, which
    runs left to right only below 8 values, so a sum depends only on its
    values, in order. The global last segment takes a 0.0 sentinel as one
    more value: dropping it would change its rounding at some lengths (8
    values, for example), and so the mass of the last vertex or edge.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    out = np.zeros(ptr.size - 1, dtype=np.float64)
    if segments is None:
        segments = np.arange(out.size)
    sizes = ptr[segments + 1] - ptr[segments]
    full = sizes > 0
    chosen = segments[full]
    if chosen.size:
        if chosen[-1] == out.size - 1:
            values = np.append(values, 0.0)
        out[chosen] = np.add.reduceat(values, _ptr(sizes)[:-1][full])
    return out


def segment_prod(values: np.ndarray, ptr: np.ndarray) -> np.ndarray:
    """Per-segment products of `values` under CSR pointer `ptr`.

    numpy multiplies a segment left to right, so reducing over the
    non-empty segments only is exact; an empty segment gives 1.0.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    out = np.ones(ptr.shape[0] - 1, dtype=np.float64)
    nonempty = ptr[:-1] < ptr[1:]
    if nonempty.any():
        out[nonempty] = np.multiply.reduceat(values, ptr[:-1][nonempty])
    return out


def mask_counts(ptr: np.ndarray, idx: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Per-segment count of indices whose mask bit is set."""
    running = np.zeros(idx.size + 1, dtype=np.int64)
    np.cumsum(mask[idx], out=running[1:])
    return running[ptr[1:]] - running[ptr[:-1]]


def reduct_core(p, p_hat, alpha, nbr_ptr, nbr_idx, u_sample, u_promote):
    """One weight-update pass over all colors.

    `nbr_ptr`, `nbr_idx` is the color adjacency in CSR form and must be
    symmetric (y is a neighbour of x exactly when x is one of y), as
    `Cover.arrays` is: the hit counts are taken from the sampled side.

    Returns (p_prime, in_s, s_nbr_count, k_factor):
      p_prime     updated weight per color (capped values stored as exactly p_hat)
      in_s        sampled-set membership per color
      s_nbr_count number of sampled matched neighbors per color
      k_factor    survival product over non-capped matched neighbors
    """
    p = np.ascontiguousarray(p, dtype=np.float64)
    p_hat = float(p_hat)
    alpha = float(alpha)
    u_sample = np.ascontiguousarray(u_sample, dtype=np.float64)
    u_promote = np.ascontiguousarray(u_promote, dtype=np.float64)

    in_b = p == p_hat
    ap = alpha * p
    in_s = (~in_b) & (u_sample < ap)
    sampled = np.flatnonzero(in_s)
    nbrs_of_s = nbr_idx[_segment_entries(nbr_ptr, sampled)]
    s_count = np.bincount(nbrs_of_s, minlength=p.size)
    k_factor = segment_prod(np.where(in_b, 1.0, 1.0 - ap)[nbr_idx], nbr_ptr)
    ratio = p / k_factor
    # the four cases as masked writes, the capped colors last
    p_prime = np.minimum(ratio, p_hat)
    hit = (~in_b) & (s_count > 0)
    p_prime[hit] = 0.0
    cand = np.flatnonzero(hit & (ratio > p_hat))
    k = k_factor[cand]
    if (k >= 1.0).any():
        raise InternalConsistencyError("promotion branch reached with K(x) >= 1")
    q = (p[cand] / p_hat - k) / (1.0 - k)
    p_prime[cand[u_promote[cand] < q]] = p_hat
    p_prime[in_b] = p_hat
    return p_prime, in_s, s_count, k_factor
