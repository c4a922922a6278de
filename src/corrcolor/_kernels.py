"""Numeric kernels for the randomized weight-update step and its statistics.

Vectorized numpy segmented reductions over CSR layouts, no compilation.
All randomness comes in as pre-drawn uniforms, so the kernels are pure
functions of their inputs; tests/test_kernels.py checks them against
plain-Python loop oracles.
"""

from __future__ import annotations

import numpy as np

from .errors import InternalConsistencyError


def segment_sum(values: np.ndarray, ptr: np.ndarray) -> np.ndarray:
    """Per-segment sums of `values` under CSR pointer `ptr`.

    `np.add.reduceat` adds a segment's first value to numpy's pairwise sum of
    the rest, which runs left to right only below 8 values. So a segment of 3
    or more values is not added left to right, but its sum depends only on
    its values, in order. The last segment also takes the 0.0
    sentinel as one more value, which can regroup its additions.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    # A sentinel element keeps every reduceat index valid; it only joins the
    # final segment.
    # Empty segments (reduceat returns the element at the start index) are
    # masked to the identity afterwards.
    if values.size == 0:
        return np.zeros(ptr.shape[0] - 1, dtype=np.float64)
    padded = np.append(values, 0.0)
    reduced = np.add.reduceat(padded, ptr[:-1])
    return np.where(ptr[:-1] < ptr[1:], reduced, 0.0)


def segment_prod(values: np.ndarray, ptr: np.ndarray) -> np.ndarray:
    values = np.ascontiguousarray(values, dtype=np.float64)
    if values.size == 0:
        return np.ones(ptr.shape[0] - 1, dtype=np.float64)
    padded = np.append(values, 1.0)
    reduced = np.multiply.reduceat(padded, ptr[:-1])
    return np.where(ptr[:-1] < ptr[1:], reduced, 1.0)


def _mask_counts(ptr: np.ndarray, idx: np.ndarray, mask: np.ndarray) -> np.ndarray:
    if idx.size == 0:
        return np.zeros(ptr.shape[0] - 1, dtype=np.int64)
    counts = segment_sum(mask[idx].astype(np.float64), ptr)
    return counts.astype(np.int64)


def mask_counts(ptr: np.ndarray, idx: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Per-segment count of indices whose mask bit is set."""
    return _mask_counts(ptr, idx, np.ascontiguousarray(mask))


def reduct_core(p, p_hat, alpha, nbr_ptr, nbr_idx, u_sample, u_promote):
    """One weight-update pass over all colors.

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
    in_s = (~in_b) & (u_sample < alpha * p)
    # The private helper, not the public name, so that a wrapper around
    # `mask_counts` sees only the callers outside this module.
    s_count = _mask_counts(nbr_ptr, nbr_idx, in_s)
    if nbr_idx.size:
        factors = np.where(in_b[nbr_idx], 1.0, 1.0 - alpha * p[nbr_idx])
    else:
        factors = np.empty(0, dtype=np.float64)
    k_factor = segment_prod(factors, nbr_ptr)
    ratio = p / k_factor
    case4 = (~in_b) & (s_count > 0) & (ratio > p_hat)
    if np.any(case4 & (k_factor >= 1.0)):
        raise InternalConsistencyError("promotion branch reached with K(x) >= 1")
    denom = np.where(case4, 1.0 - k_factor, 1.0)
    q = np.where(case4, (p / p_hat - k_factor) / denom, 0.0)
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
