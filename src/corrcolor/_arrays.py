"""Flat int64 array helpers shared across the package.

CSR pointers and index ranges, read-only freezing, and the integer rules
the JSON readers and `check_coloring` apply to ids.
"""

from __future__ import annotations

from itertools import chain
from operator import countOf

import numpy as np

from .errors import MalformedInputError, is_integer


def _ptr(counts) -> np.ndarray:
    """CSR pointer array for segments of the given sizes."""
    counts = np.asarray(counts, dtype=np.int64)
    ptr = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=ptr[1:])
    return ptr


def _sizes_of(ptr: np.ndarray) -> np.ndarray:
    """Segment sizes of a CSR array with pointer `ptr`."""
    return ptr[1:] - ptr[:-1]


def _segment_ids(ptr: np.ndarray) -> np.ndarray:
    """Segment index of every entry of a CSR array with pointer `ptr`."""
    return np.repeat(np.arange(ptr.size - 1, dtype=np.int64), _sizes_of(ptr))


def _ranges(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Concatenation of the index ranges [start, start + size)."""
    ptr = _ptr(sizes)
    return np.repeat(starts - ptr[:-1], sizes) + np.arange(ptr[-1], dtype=np.int64)


def _segment_entries(ptr: np.ndarray, segments: np.ndarray) -> np.ndarray:
    """Indices of the entries of the given segments of a CSR array, in order."""
    starts = ptr[segments]
    return _ranges(starts, ptr[segments + 1] - starts)


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _check_integers(values, what: str) -> None:
    """MalformedInputError unless every entry of `values` passes `is_integer`.

    `values` is a sized iterable, read more than once. The entries' types
    are read at C speed: unless all are int, one entry of each other type is
    put to `is_integer`, so a bool or a float beside ints is refused.
    """
    if countOf(map(type, values), int) != len(values):
        for kind in set(map(type, values)) - {int}:
            x = next(x for x in values if type(x) is kind)
            if not is_integer(x):
                raise MalformedInputError(f"{what} must be integers, got {x!r}")


def _int_array(values: list, what: str) -> np.ndarray:
    """A flat list of integers as int64, or MalformedInputError.

    Each entry must pass `_check_integers` and fit in int64.
    """
    _check_integers(values, what)
    try:
        return np.fromiter(values, dtype=np.int64, count=len(values))
    except OverflowError:
        raise MalformedInputError(f"{what} must be in the int64 range") from None


def _pair_array(pairs: list, what: str, ids: str) -> np.ndarray:
    """A list of two-entry lists of integers as an (m, 2) int64 array.

    Anything else raises MalformedInputError: `what` names one pair and
    `ids` its entries in the message.
    """
    try:
        pair_len = np.fromiter(map(len, pairs), dtype=np.int64, count=len(pairs))
    except TypeError:
        raise MalformedInputError(f"each {what} must be a list of 2 entries") from None
    if (pair_len != 2).any():
        raise MalformedInputError(
            f"a {what} must have 2 entries, got {int(pair_len[pair_len != 2][0])}"
        )
    return _int_array(list(chain.from_iterable(pairs)), ids).reshape(-1, 2)
