"""Exception hierarchy shared across the package, and the parameter checks."""

import math

import numpy as np


class CorrColorError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(CorrColorError):
    """Input is well-formed but outside an operation's domain."""


class MalformedInputError(CorrColorError):
    """An input document violates its schema, or a file cannot be read or written."""


class SearchBudgetExceeded(CorrColorError):
    """Exact search gave up after exploring its node budget.

    Distinct from "no coloring exists": the search was cut short.
    """

    def __init__(self, nodes_explored: int, budget: int):
        super().__init__(
            f"search budget exhausted: {nodes_explored} nodes explored (budget {budget})"
        )
        self.nodes_explored = nodes_explored
        self.budget = budget


class RoundingBudgetExceeded(CorrColorError):
    """The final rounding spent its round budget with bad edges left."""

    def __init__(self, rounds: int, bad_edges: int, lowest: tuple[int, int]):
        super().__init__(
            f"rounding left {bad_edges} bad edges after its budget of {rounds}"
            f" rounds; lowest: edge ({lowest[0]},{lowest[1]})"
        )
        self.rounds, self.bad_edges, self.lowest = rounds, bad_edges, lowest


class IstarInfeasibleError(DomainError):
    """No iteration count satisfies the degree-decay inequality for this max degree."""


class HypothesisViolationError(DomainError):
    """A stated bound hypothesis (mass range or edge-mass cap) does not hold."""


class InternalConsistencyError(CorrColorError):
    """An invariant that honest inputs cannot break was violated; indicates a bug."""


def is_integer(value) -> bool:
    """True for an int or a numpy integer.

    A float would fail deep inside a loop or be truncated, and a bool would
    stand for 0 or 1, so neither counts. This is the package's one rule for
    an integer id or size; `_arrays._int_array` applies it to a list.
    """
    # exact ints, by far the most common, take the first test alone
    return type(value) is int or (
        isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    )


def integer_list(values) -> list | None:
    """The entries of `values` as a list if each passes `is_integer`.

    None if any does not, or if `values` cannot be iterated: a scalar where
    a collection of ids belongs is the wrong kind of container.
    """
    try:
        values = list(values)
    except TypeError:
        return None
    return values if all(map(is_integer, values)) else None


# The largest int64. Graph and cover arrays are int64, so no count, degree or
# list size of one exceeds it.
INT64_MAX = (1 << 63) - 1
# The longest int64 array numpy can make: its byte count must fit in an int64.
ARRAY_MAX = INT64_MAX // 8


def _bound(x) -> str:
    """A bound as messages show it, 2**k - 1 by its power of two."""
    if isinstance(x, int) and x > 1 << 20 and not x & (x + 1):
        return f"2**{x.bit_length()} - 1"
    return str(x)


def _span(lo, hi, lo_open: bool = False) -> str:
    """The range in words: from lo to hi, of at least lo, or above lo."""
    if lo is None:
        return ""
    if hi is not None:
        return f" from {_bound(lo)} to {_bound(hi)}"
    return f" {'above' if lo_open else 'of at least'} {_bound(lo)}"


def check_int(name: str, value, lo: int, hi: int | None = None) -> None:
    """Raise DomainError naming the parameter unless `value` passes
    `is_integer` and lies from lo to hi; hi=None is no upper bound."""
    if not (is_integer(value) and lo <= value and (hi is None or value <= hi)):
        raise DomainError(f"{name} must be an integer{_span(lo, hi)}, got {value!r}")


def check_real(name: str, value, lo=None, hi=None, lo_open: bool = False) -> None:
    """Raise DomainError naming the parameter unless `value` is a finite
    number from lo to hi; None is no bound, and lo_open ("above lo", with no
    hi) leaves lo out.

    An int, a float or a numpy integer or float qualifies, unless it is
    beyond the float range; a bool, which would stand for 0 or 1, does not.
    """
    try:
        real = is_integer(value) or isinstance(value, (float, np.floating))
        x = float(value) if real else math.nan
    except OverflowError:
        x = math.nan
    if not (
        math.isfinite(x)
        and (lo is None or (lo < x if lo_open else lo <= x))
        and (hi is None or x <= hi)
    ):
        msg = f"{name} must be a finite number{_span(lo, hi, lo_open)}, got {value!r}"
        raise DomainError(msg)
