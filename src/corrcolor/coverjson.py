"""Cover JSON documents: the general dict form and the CLI's canonical layout.

`cover_to_json_dict` and `cover_from_json_dict` convert between a Cover and
the decoded document of any valid layout. The CLI writes every cover in one
canonical layout, `canonical_cover_json`, rendered straight from the flat
arrays, and `cover_from_canonical_json` reads that layout back into them
with no Python object per number, or returns None for any other text.
"""

from __future__ import annotations

from itertools import islice

import numpy as np

from ._arrays import _ptr, _ranges, _sizes_of
from .covers import Cover, _cover_from_arrays, _cover_from_raw
from .errors import MalformedInputError


def cover_to_json_dict(cover: Cover) -> dict:
    sizes = _sizes_of(cover.vlist_ptr).tolist()
    colors = iter(cover.vlist_colors.tolist())
    pairs = iter(np.column_stack([cover.pair_x, cover.pair_y]).tolist())
    keys = zip(cover.edge_u.tolist(), cover.edge_v.tolist())
    return {
        "k_per_vertex": sizes,
        "lists": [list(islice(colors, size)) for size in sizes],
        "matchings": {
            f"{u},{v}": list(islice(pairs, size))
            for (u, v), size in zip(keys, _sizes_of(cover.edge_ptr).tolist())
        },
    }


def cover_from_json_dict(doc) -> Cover:
    if not isinstance(doc, dict) or "lists" not in doc or "matchings" not in doc:
        raise MalformedInputError('cover document needs keys "lists" and "matchings"')
    lists, matchings = doc["lists"], doc["matchings"]
    if not isinstance(lists, list) or not isinstance(matchings, dict):
        raise MalformedInputError('"lists" must be an array and "matchings" an object')
    key_u, key_v = [], []
    for key in matchings:
        parts = key.split(",") if isinstance(key, str) else ()
        try:
            u, v = (int(part) for part in parts)
        except ValueError:
            raise MalformedInputError(
                f'matching key {key!r} is not of the form "u,v"'
            ) from None
        key_u.append(u)
        key_v.append(v)
    cover = _cover_from_raw(lists, key_u, key_v, list(matchings.values()))
    if "k_per_vertex" in doc and doc["k_per_vertex"] != list(cover.k_per_vertex):
        raise MalformedInputError("k_per_vertex disagrees with list lengths")
    return cover


def _json_array(items: list[str], indent: int, brackets: str = "[]") -> str:
    """A JSON array (or object) of rendered items, laid out as json.dumps(indent=2)."""
    if not items:
        return brackets
    inner = ",\n".join(items)
    return f"{brackets[0]}\n{inner}\n{' ' * indent}{brackets[1]}"


def _layout(sizes: list[int], counts: list[int], slot: str) -> str:
    """The canonical cover document with `slot` in place of every number.

    `sizes` are the list sizes and `counts` the pair counts of the matchings
    in key order. Blocks are rendered once per distinct size.
    """
    lists = {s: "    " + _json_array([f"      {slot}"] * s, 4) for s in set(sizes)}
    pair = "      " + _json_array([f"        {slot}"] * 2, 6)
    keys = {
        c: f'    "{slot},{slot}": ' + _json_array([pair] * c, 4) for c in set(counts)
    }
    k_per_vertex = _json_array([f"    {slot}"] * len(sizes), 2)
    lists_text = _json_array(list(map(lists.__getitem__, sizes)), 2)
    matchings = _json_array(list(map(keys.__getitem__, counts)), 2, "{}")
    return (
        f'{{\n  "k_per_vertex": {k_per_vertex},\n  "lists": {lists_text},\n'
        f'  "matchings": {matchings}\n}}\n'
    )


def canonical_cover_json(cover: Cover) -> str:
    """The cover document the CLI writes, rendered from the arrays.

    Equal to `json.dumps(cover_to_json_dict(cover), indent=2, sort_keys=True)`
    plus a newline: matching keys come in string order ("0,10" before "0,2").
    The layout is filled in one %-format of all numbers in document order.
    """
    sizes = _sizes_of(cover.vlist_ptr)
    keys = [f"{u},{v}" for u, v in zip(cover.edge_u.tolist(), cover.edge_v.tolist())]
    order = np.array(sorted(range(len(keys)), key=keys.__getitem__), dtype=np.int64)
    counts = _sizes_of(cover.edge_ptr)[order]
    # per key in string order: u, v, then its pairs x0, y0, x1, y1, ...
    block = _ptr(2 + 2 * counts)[:-1]
    numbers = np.empty(2 * (counts.size + counts.sum()), dtype=np.int64)
    in_pair = np.ones(numbers.size, dtype=bool)
    in_pair[block] = in_pair[block + 1] = False
    numbers[block], numbers[block + 1] = cover.edge_u[order], cover.edge_v[order]
    take = _ranges(cover.edge_ptr[order], counts)
    numbers[in_pair] = np.column_stack((cover.pair_x[take], cover.pair_y[take])).ravel()
    numbers = np.concatenate((sizes, cover.vlist_colors, numbers))
    return _layout(sizes.tolist(), counts.tolist(), "%d") % tuple(numbers.tolist())


# Every number of at most 18 digits fits in int64.
_MAX_DIGITS = 18
# How every canonical document starts; anything else is declined unscanned.
_PREFIX = b'{\n  "k_per_vertex": ['


def _digit_runs(buf: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Start and end offsets of the runs of ASCII digits in `buf`, or None if
    the last byte is a digit. The first byte must not be one."""
    is_digit = (buf - np.uint8(ord("0"))) < 10  # non-digits wrap to 10 and above
    if is_digit[-1]:
        return None
    change = np.flatnonzero(is_digit[1:] != is_digit[:-1]) + 1
    return change[0::2], change[1::2]


def _digit_values(buf: np.ndarray, ends: np.ndarray, length: np.ndarray) -> np.ndarray:
    """The numbers written by the digit runs ending before `ends`, as int64."""
    # Each digit is widened before any arithmetic: numpy 1.x casts by value,
    # so a uint8 digit times an int64 scalar of 100 would be a uint8 product.
    values = buf[ends - 1].astype(np.int64) - ord("0")
    scale = 1
    for place in range(2, int(length.max(initial=0)) + 1):
        scale *= 10
        # a shorter run reads bytes before it: masked out
        place_digit = buf[ends - place].astype(np.int64) - ord("0")
        place_digit[length < place] = 0
        place_digit *= scale
        values += place_digit
    return values


def cover_from_canonical_json(data: bytes) -> Cover | None:
    """The Cover of a document in the layout `canonical_cover_json` writes, or None.

    A Cover is returned only when `cover_from_json_dict(json.loads(data))`
    would return an equal one; None means "read it the general way", not
    that the document is invalid. The document is read on the arrays, with
    no Python object per number, and accepted only if:
    - its bytes other than digits are the canonical layout for the list
      sizes in "k_per_vertex" and the pair counts of its keys;
    - each run of digits sits where that layout has a number, and has no
      leading zero and at most 18 digits;
    - no two keys name the same vertex pair (json.loads would keep the
      first key's place and the last key's value).
    Keys may come in any order and as "v,u"; `_cover_from_arrays` sorts.
    """
    arrays = _canonical_arrays(data)
    # the scan's own arrays are freed before the cover is canonicalised
    return None if arrays is None else _cover_from_arrays(*arrays)


def _canonical_arrays(data: bytes) -> tuple[np.ndarray, ...] | None:
    """The seven cover arrays of a canonical document, unsorted, or None."""
    if not data.startswith(_PREFIX):
        return None
    buf = np.frombuffer(data, dtype=np.uint8)
    runs = _digit_runs(buf)
    if runs is None:
        return None
    starts, ends = runs
    length = ends - starts
    if length.size and (
        length.max() > _MAX_DIGITS
        or ((buf[starts] == ord("0")) & (length > 1)).any()
    ):
        return None
    # A number of the layout is a key's u between '"' and ',', its v between
    # ',' and '"', or a value after indentation and before ',' or a line end.
    # With the digits removed, no other gap of the layout lies between such
    # bytes, so these runs sit where the layout has numbers.
    before, after = buf[starts - 1], buf[ends]
    key_u = (before == ord('"')) & (after == ord(","))
    key_v = (before == ord(",")) & (after == ord('"'))
    value = (before == ord(" ")) & ((after == ord(",")) | (after == ord("\n")))
    if not (key_u | key_v | value).all():
        return None
    lists_at = data.find(b'\n  "lists": ')
    matchings_at = data.find(b'\n  "matchings": ')
    if lists_at < 0 or matchings_at < 0:
        return None
    n, n_listed = np.searchsorted(starts, (lists_at, matchings_at)).tolist()
    values = _digit_values(buf, ends, length)
    sizes = values[:n]
    if sizes.max(initial=0) > n_listed - n or sizes.sum() != n_listed - n:
        return None
    # Each key's runs are u, v and two per pair; with one run per number of
    # the layout, every number of the layout has its run.
    first = np.flatnonzero(key_u[n_listed:])
    counts = np.diff(first, append=starts.size - n_listed) // 2 - 1
    if n_listed + 2 * (counts.size + counts.sum()) != starts.size:
        return None
    layout = _layout(sizes.tolist(), counts.tolist(), "").encode()
    if data.translate(None, b"0123456789") != layout:
        return None
    keyed = values[n_listed:]
    u, v = keyed[first], keyed[first + 1]
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    order = np.lexsort((hi, lo))
    if ((np.diff(lo[order]) == 0) & (np.diff(hi[order]) == 0)).any():
        return None
    in_pair = np.ones(keyed.size, dtype=bool)
    in_pair[first] = in_pair[first + 1] = False
    x, y = keyed[in_pair].reshape(-1, 2).T
    return _ptr(sizes), values[n:n_listed].copy(), u, v, _ptr(counts), x, y
