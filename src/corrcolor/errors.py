"""Exception hierarchy shared across the package, and the integer checks."""

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


def check_int(name: str, value) -> None:
    """Raise DomainError naming the parameter unless `value` is an integer."""
    if not is_integer(value):
        raise DomainError(f"{name} must be an integer, got {value!r}")


# One past the largest int64. Graph and cover arrays are int64, so no count,
# degree or list size of one reaches it.
INT64_END = 1 << 63


def check_list_size(k) -> None:
    """Raise DomainError unless the list size `k` is an integer in [1, 2**63)."""
    check_int("k", k)
    if k < 1:
        raise DomainError(f"list size must be >= 1, got {k}")
    if k >= INT64_END:
        raise DomainError(f"list size must be below 2**63, got {k}")
